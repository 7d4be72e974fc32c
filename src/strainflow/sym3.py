"""Algebra and spectral theory of 3x3 symmetric trace-free matrices.

A trace-free symmetric matrix has five independent entries; we store
(m11, m22, m12, m13, m23) and reconstruct m33 = -m11 - m22, so the trace
is zero by construction rather than to tolerance.  All operations accept
either scalar entries or numpy arrays of entries (one matrix per array
element), and broadcast pointwise, so whole grid fields of matrices are
analysed without Python-level loops.

Eigenvalues use the trigonometric closed form for the depressed cubic.
For a trace-free symmetric M the characteristic polynomial is

    lambda^3 - (|M|^2 / 2) lambda - det(M) = 0,

whose three real roots are 2*(|M|/sqrt(6))*cos((theta + 2*pi*k)/3) with
theta = arccos(3*sqrt(6)*det(M)/|M|^3).  The arccos argument is clamped
into [-1, 1]; the branch choice below yields the roots already sorted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError

# Coefficient in the sharp determinant bound -4*det(M) <= DET_BOUND_COEFF*|M|^3.
DET_BOUND_COEFF = 2.0 * np.sqrt(6.0) / 9.0

# |M| below this is treated as the zero matrix; the eigenvalue ratio is
# undefined there (it is scale-invariant everywhere else).
ZERO_MATRIX_THRESHOLD = 1e-300

_SQRT6 = np.sqrt(6.0)

# Elements per chunk in _blockwise (128 kB per float64 temporary): the
# temporaries of a polynomial in the entries then stay in a 1-2 MB L2 cache
# instead of each of its ~25 operations streaming whole fields through memory.
_BLOCK = 16384


def _blockwise(formula, m: "TraceFreeSym3"):
    """formula(m11, m22, m12, m13, m23) over a field of matrices, chunk
    by chunk.  Only for arithmetic formulas: those are elementwise, so the
    result is bit-identical to one whole-field call."""
    entries = (m.m11, m.m22, m.m12, m.m13, m.m23)
    if getattr(m.m11, "size", 1) <= _BLOCK:  # scalar entries are floats
        return formula(*entries)
    shape = m.m11.shape
    if any(np.shape(x) != shape for x in entries):
        return formula(*entries)
    flat = [np.ravel(x) for x in entries]
    out = np.empty(flat[0].size)
    for start in range(0, out.size, _BLOCK):
        chunk = slice(start, start + _BLOCK)
        out[chunk] = formula(*(x[chunk] for x in flat))
    return out.reshape(shape)


def full_matrix(entries):
    """The full matrix, shaped (3, 3) + the entries' shape, of the five
    stored entries (m11, m22, m12, m13, m23), real or complex; m33 is
    -m11 - m22."""
    m11, m22, m12, m13, m23 = entries
    return np.stack([np.stack([m11, m12, m13]),
                     np.stack([m12, m22, m23]),
                     np.stack([m13, m23, -m11 - m22])])


@dataclass(frozen=True)
class TraceFreeSym3:
    """Pointwise strain value: symmetric, exactly trace-free.

    Entries may be floats or equally-shaped numpy arrays (a field of
    matrices).  m33 is never stored.
    """

    m11: object
    m22: object
    m12: object
    m13: object
    m23: object

    def __post_init__(self):
        for name in ("m11", "m22", "m12", "m13", "m23"):
            value = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(value)):
                raise InvalidInputError(f"non-finite entry in {name}")
            object.__setattr__(self, name, value if value.ndim else float(value))

    @property
    def m33(self):
        return -self.m11 - self.m22

    @property
    def shape(self):
        return np.shape(self.m11)

    @classmethod
    def from_matrix(cls, a) -> "TraceFreeSym3":
        """Build from a full 3x3 array, validating symmetry and trace to
        1e-12 of its largest entry (or of 1)."""
        a = np.asarray(a, dtype=float)
        if a.shape != (3, 3):
            raise InvalidInputError(f"expected a 3x3 matrix, got shape {a.shape}")
        scale = max(np.max(np.abs(a)), 1.0)
        asym = max(abs(a[0, 1] - a[1, 0]), abs(a[0, 2] - a[2, 0]), abs(a[1, 2] - a[2, 1]))
        if asym > 1e-12 * scale:
            raise InvalidInputError("matrix is not symmetric")
        if abs(a[0, 0] + a[1, 1] + a[2, 2]) > 1e-12 * scale:
            raise InvalidInputError("matrix is not trace-free")
        return cls(a[0, 0], a[1, 1], a[0, 1], a[0, 2], a[1, 2])

    @classmethod
    def from_components(cls, comps) -> "TraceFreeSym3":
        """Build from an array shaped (5, ...) in (11, 22, 12, 13, 23) order."""
        return cls(comps[0], comps[1], comps[2], comps[3], comps[4])

    def to_matrix(self):
        """Full 3x3 representation, shaped (3, 3) + self.shape."""
        return full_matrix((self.m11, self.m22, self.m12, self.m13, self.m23))

    def norm_sq(self):
        """Squared Frobenius norm |M|^2 (sum over all nine entries)."""
        return _blockwise(_norm_sq, self)

    def norm(self):
        return np.sqrt(self.norm_sq())


@dataclass(frozen=True)
class EigenTriple:
    """Sorted eigenvalues lambda1 <= lambda2 <= lambda3 of a trace-free
    symmetric matrix, with the derived quantities used throughout the
    diagnostics: lambda2_plus = max(lambda2, 0) and the shape ratio
    r = -lambda1/lambda3 in [1/2, 2], and the invariants norm_sq = |M|^2
    and det = det(M) the closed form is computed from.

    r is NaN wherever the matrix is (numerically) zero; r_defined marks
    the points where it is meaningful.
    """

    lambda1: object
    lambda2: object
    lambda3: object
    lambda2_plus: object
    r: object
    r_defined: object
    norm_sq: object
    det: object


def eigenvalues(m: TraceFreeSym3) -> EigenTriple:
    """Closed-form eigenvalues, sorted ascending, broadcast over fields,
    with the |M|^2 and det(M) they are computed from."""
    norm_sq = m.norm_sq()
    d = det(m)  # before the norm temporaries: at n=64 this order kept peak RSS ~6 MiB lower
    norm = np.sqrt(norm_sq)
    norm3 = norm_sq * norm
    arg = np.divide(3.0 * _SQRT6 * d, norm3,
                    out=np.zeros_like(np.asarray(norm3, dtype=float)),
                    where=norm3 > 0)
    theta = np.arccos(np.clip(arg, -1.0, 1.0))
    scale = 2.0 * norm / _SQRT6
    # theta/3 lies in [0, pi/3]; the three shifted cosines are already ordered.
    lam3 = scale * np.cos(theta / 3.0)
    lam2 = scale * np.cos((theta - 2.0 * np.pi) / 3.0)
    lam1 = scale * np.cos((theta + 2.0 * np.pi) / 3.0)
    lam2_plus = np.maximum(lam2, 0.0)
    defined = norm >= ZERO_MATRIX_THRESHOLD
    r = np.divide(-lam1, lam3, out=np.full_like(np.asarray(lam3, dtype=float), np.nan),
                  where=defined)
    if np.ndim(norm) == 0:
        return EigenTriple(float(lam1), float(lam2), float(lam3), float(lam2_plus),
                           float(r), bool(defined), float(norm_sq), float(d))
    return EigenTriple(lam1, lam2, lam3, lam2_plus, r, defined, norm_sq, d)


def _norm_sq(m11, m22, m12, m13, m23):
    m33 = -m11 - m22
    return (m11 ** 2 + m22 ** 2 + m33 ** 2
            + 2.0 * (m12 ** 2 + m13 ** 2 + m23 ** 2))


def _det(m11, m22, m12, m13, m23):
    m33 = -m11 - m22
    return (m11 * (m22 * m33 - m23 ** 2)
            - m12 * (m12 * m33 - m23 * m13)
            + m13 * (m12 * m23 - m22 * m13))


def _tr_cubed(a, b, d, e, f):
    c = -a - b
    # tr(M^3) = sum of diag(M*M*M); expanded to avoid building 3x3 products,
    # with products instead of ** 3 (a general pow on every element)
    return (a * a * a + b * b * b + c * c * c
            + 3.0 * (d * d * (a + b) + e * e * (a + c) + f * f * (b + c))
            + 6.0 * d * e * f)


def det(m: TraceFreeSym3):
    """Determinant (equals the product of the eigenvalues)."""
    return _blockwise(_det, m)


def tr_cubed(m: TraceFreeSym3):
    """Trace of M^3; for trace-free symmetric M this is 3*det(M), but it
    is evaluated on its own formula so the identity stays a check."""
    return _blockwise(_tr_cubed, m)


def det_bound_gap(eig: EigenTriple):
    """Slack in the sharp cubic determinant bound.

    Returns (2/9)*sqrt(6)*|M|^3 + 4*det(M), which is >= 0 and vanishes
    exactly when the eigenvalues are (-2c, c, c) for some c > 0.
    """
    return DET_BOUND_COEFF * eig.norm_sq * np.sqrt(eig.norm_sq) + 4.0 * eig.det


def lambda2_bound_gap(eig: EigenTriple):
    """Slack in the middle-eigenvalue determinant bound.

    Returns |M|^2 * lambda2_plus / 2 + det(M) >= 0.
    """
    return 0.5 * eig.norm_sq * eig.lambda2_plus + eig.det


def extremal_eigen_bounds(eig: EigenTriple):
    """Slack in the extremal-eigenvalue lower bounds.

    Returns (lambda3 - |M|/sqrt(6), -lambda1 - |M|/sqrt(6)); both are
    >= 0, the first vanishing iff the top two eigenvalues coincide, the
    second iff the bottom two do.
    """
    floor = np.sqrt(eig.norm_sq) / _SQRT6
    return eig.lambda3 - floor, -eig.lambda1 - floor


def apply_to_vector(m: TraceFreeSym3, v):
    """Matrix-vector product M v for a unit vector (or unit-vector field).

    v has shape (3,) or (3,) + m.shape and must satisfy |v| = 1 to 1e-12
    pointwise.  The result |Mv| is bounded below by |lambda2|.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[0] != 3:
        raise InvalidInputError("direction must have three components")
    norm_err = np.max(np.abs(np.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2) - 1.0))
    if not np.isfinite(norm_err) or norm_err > 1e-12:
        raise InvalidInputError(f"direction is not unit length (|v|-1 off by {norm_err:.3e})")
    out = np.stack([
        m.m11 * v[0] + m.m12 * v[1] + m.m13 * v[2],
        m.m12 * v[0] + m.m22 * v[1] + m.m23 * v[2],
        m.m13 * v[0] + m.m23 * v[1] + m.m33 * v[2],
    ])
    return out
