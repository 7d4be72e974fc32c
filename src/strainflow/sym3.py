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

whose three real roots are s*cos((theta + 2*pi*k)/3), s = 2|M|/sqrt(6),
with cos(theta) = arg = 3*sqrt(6)*det(M)/|M|^3 and theta in [0, pi];
sorted, they are

    lambda1 = -s sin(theta/3 + pi/6),  lambda2 = s sin(theta/3 - pi/6),
    lambda3 = s cos(theta/3),

so lambda2 takes a sine of an argument in [-pi/6, pi/6].  arccos has an
infinite slope at +-1, where two eigenvalues meet (theta = 0: lambda1 =
lambda2; theta = pi: lambda2 = lambda3), and there a rounding error eps
in arg would move theta by sqrt(2 eps).  So theta = arccos(arg) only
where |arg| < 0.99: there an error delta in arg moves theta by at most
delta/sqrt(1 - 0.99^2) < 7.1 delta and lambda2 by at most 1.93 delta |M|.
Elsewhere (about 1% of the points of a random field) theta =
atan2(sqrt(2 Delta), 3*sqrt(6)*det(M)) of the matrix scaled to |M| = 1,
where Delta = prod_{i<j} (lambda_i - lambda_j)^2 = (|M|^6 - 54 det^2)/2
is `discriminant`, a sum of squares that keeps its accuracy where the
eigenvalues meet (Parlett, Linear Algebra Appl. 355, 85, 2002).  Every
eigenvalue is then accurate to a few eps |M| everywhere, degenerate and
nearly degenerate matrices included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import InvalidInputError

# Coefficient in the sharp determinant bound -4*det(M) <= DET_BOUND_COEFF*|M|^3.
DET_BOUND_COEFF = 2.0 * np.sqrt(6.0) / 9.0

# |M| below this is treated as the zero matrix; the eigenvalue ratio is
# undefined there (it is scale-invariant everywhere else).
ZERO_MATRIX_THRESHOLD = 1e-300

_SQRT6 = np.sqrt(6.0)
_SCALE_PER_NORM = 2.0 / _SQRT6
_PI_6 = np.pi / 6.0

# |cos theta| from which theta is taken from the discriminant instead of
# by arccos (see the module docstring for the error bound it gives).
ARCCOS_LIMIT = 0.99

# Elements per chunk in _blockwise (128 kB per float64 temporary): the
# temporaries of a polynomial in the entries then stay in a 1-2 MB L2 cache
# instead of each of its ~25 operations streaming whole fields through memory.
_BLOCK = 16384


def _blockwise(formula, m: "TraceFreeSym3", *fields):
    """formula(m11, m22, m12, m13, m23, *fields) over a field of matrices
    (and fields of its shape), chunk by chunk.  Only for arithmetic
    formulas: those are elementwise, so the result is bit-identical to one
    whole-field call."""
    entries = (m.m11, m.m22, m.m12, m.m13, m.m23, *fields)
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
    """The analysis of a trace-free symmetric matrix (or field of them):
    the matrix, its invariants norm_sq = |M|^2 and det = det(M), and
    lambda2_plus = max(lambda2, 0), the one eigenvalue quantity a
    diagnostics record reads.

    The closed-form angle theta, the sorted eigenvalues lambda1 <= lambda2
    <= lambda3, the shape ratio r = -lambda1/lambda3 in [1/2, 2] and
    r_defined are derived from these on first read and kept; lambda2 has
    the bits lambda2_plus was taken from.  r is NaN wherever the matrix is
    (numerically) zero; r_defined marks the points where it is meaningful.
    Scalar matrices give floats throughout.
    """

    matrix: TraceFreeSym3
    norm_sq: object
    det: object
    lambda2_plus: object

    @cached_property
    def theta(self):
        return _as_result(_theta(self.matrix, self.norm_sq, self.det))

    @cached_property
    def lambda2(self):
        return _as_result(_scale(self.norm_sq) * _middle_sine(self.theta))

    @cached_property
    def lambda3(self):
        # max and min keep the order where two eigenvalues meet to rounding
        return _as_result(np.maximum(_scale(self.norm_sq) * np.cos(self.theta / 3.0),
                                     self.lambda2))

    @cached_property
    def lambda1(self):
        return _as_result(np.minimum(-_scale(self.norm_sq) * np.sin(self.theta / 3.0 + _PI_6),
                                     self.lambda2))

    @cached_property
    def r_defined(self):
        defined = np.sqrt(self.norm_sq) >= ZERO_MATRIX_THRESHOLD
        return bool(defined) if np.ndim(defined) == 0 else defined

    @cached_property
    def r(self):
        lam3 = np.asarray(self.lambda3, dtype=float)
        return _as_result(np.divide(-self.lambda1, lam3, out=np.full_like(lam3, np.nan),
                                    where=self.r_defined))


def _as_result(values):
    """values, as a float where they are one value."""
    return float(values) if np.ndim(values) == 0 else values


def _scale(norm_sq):
    """2|M|/sqrt(6), the radius of the closed form."""
    return np.sqrt(norm_sq) * _SCALE_PER_NORM


def _middle_sine(theta):
    """sin(theta/3 - pi/6), lambda2 per unit scale."""
    return np.sin(theta / 3.0 - _PI_6)


def _theta(m: TraceFreeSym3, norm_sq, d):
    """The closed-form angle theta in [0, pi], as the module docstring
    sets out: arccos where |arg| < ARCCOS_LIMIT, atan2 of the discriminant
    of M/|M| elsewhere."""
    norm = np.sqrt(norm_sq)
    norm3 = norm_sq * norm
    arg = np.divide(3.0 * _SQRT6 * d, norm3,
                    out=np.zeros_like(np.asarray(norm3, dtype=float)),
                    where=norm3 > 0)
    near = np.flatnonzero(np.abs(arg) >= ARCCOS_LIMIT)
    if near.size == 0:
        return np.arccos(arg, out=arg)
    flat_arg = arg.reshape(-1)  # a view: theta is written into arg
    near_arg = flat_arg[near]
    flat_arg[near] = 0.0  # inside arccos's domain; overwritten below
    np.arccos(arg, out=arg)

    def near_values(x):
        return np.broadcast_to(x, arg.shape).reshape(-1)[near]

    near_norm = near_values(norm)
    unit = TraceFreeSym3(*(near_values(x) / near_norm
                           for x in (m.m11, m.m22, m.m12, m.m13, m.m23)))
    flat_arg[near] = np.arctan2(np.sqrt(2.0 * discriminant(unit)), near_arg)
    return arg


def eigenvalues(m: TraceFreeSym3) -> EigenTriple:
    """The analysis of m, broadcast over fields: |M|^2, det(M) and lambda2+;
    theta, the eigenvalues and r follow from these when read."""
    norm_sq = m.norm_sq()
    d = det(m)  # before the norm temporaries: at n=64 this order kept peak RSS ~6 MiB lower
    # theta is not kept: lambda1..3 and r recompute it, and a record reads none
    lam2_plus = np.maximum(_scale(norm_sq) * _middle_sine(_theta(m, norm_sq, d)), 0.0)
    if np.ndim(norm_sq) == 0:
        return EigenTriple(m, float(norm_sq), float(d), float(lam2_plus))
    return EigenTriple(m, norm_sq, d, lam2_plus)


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


def _discriminant(m11, m22, m12, m13, m23):
    # Gram determinant of I, M, M^2 under the Frobenius product; by
    # Cauchy-Binet the sum of squared 3x3 minors of the 9x3 matrix
    # [vec I, vec M, vec M^2].  Minors with both copies of an off-diagonal
    # row vanish, and the three with two off-diagonal rows do not depend on
    # the diagonal row, which leaves 13 distinct squares.
    m33 = -m11 - m22
    q11 = m11 * m11 + m12 * m12 + m13 * m13  # the entries of M^2
    q22 = m12 * m12 + m22 * m22 + m23 * m23
    q33 = m13 * m13 + m23 * m23 + m33 * m33
    q12 = m12 * (m11 + m22) + m13 * m23
    q13 = m13 * (m11 + m33) + m12 * m23
    q23 = m23 * (m22 + m33) + m12 * m13
    dm12, dm13, dm23 = m22 - m11, m33 - m11, m33 - m22
    dq12, dq13, dq23 = q22 - q11, q33 - q11, q33 - q22
    three_diagonal = dm12 * dq13 - dm13 * dq12
    two_diagonal = 0.0
    for dm, dq in ((dm12, dq12), (dm13, dq13), (dm23, dq23)):
        for mo, qo in ((m12, q12), (m13, q13), (m23, q23)):
            minor = dm * qo - dq * mo
            two_diagonal = two_diagonal + minor * minor
    a = m12 * q13 - m13 * q12
    b = m12 * q23 - m23 * q12
    c = m13 * q23 - m23 * q13
    return (three_diagonal * three_diagonal + 2.0 * two_diagonal
            + 12.0 * (a * a + b * b + c * c))


def _quadratic_form(m11, m22, m12, m13, m23, v1, v2, v3):
    m33 = -m11 - m22
    return (m11 * v1 ** 2 + m22 * v2 ** 2 + m33 * v3 ** 2
            + 2.0 * (m12 * v1 * v2 + m13 * v1 * v3 + m23 * v2 * v3))


def quadratic_form(m: TraceFreeSym3, v):
    """v . M v pointwise, for a vector field v (3,) + m.shape (the vortex
    stretching density w . S w for the vorticity w)."""
    return _blockwise(_quadratic_form, m, *v)


def discriminant(m: TraceFreeSym3):
    """Delta = prod_{i<j} (lambda_i - lambda_j)^2 = (|M|^6 - 54 det^2)/2,
    as a weighted sum of 13 squares: >= 0, exactly 0 on (c, c, -2c), and
    accurate to rounding relative to |M|^6 where eigenvalues meet."""
    return _blockwise(_discriminant, m)


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
