"""Fourier representation of periodic fields on [0, 2pi)^3.

Conventions (fixed once, used everywhere):

* Physical arrays are real, shaped (..., n, n, n), indexed [ix, iy, iz]
  with x_i = 2*pi*i/n.
* Spectral arrays are complex, shaped (..., n, n, n/2 + 1) (Grid.shape):
  the spectrum of a real field is Hermitian, so its kz in [0, n/2] half,
  as the unscaled forward real FFT (scipy.fft.rfftn) returns it, holds
  all of it (Mortensen & Langtangen, CPC 203, 2016).  This half is the
  only spectral layout; the inverse (irfftn, c2r) divides by n^3.  The
  trigonometric interpolant is  f(x) = sum_xi (fhat(xi)/n^3) exp(i xi.x),
  over the half and the mirror images -xi of its planes 0 < kz < n/2.
* Wavenumber layout along x and y (length n): index k holds the integer
  wavenumber xi = k for k <= n/2 and xi = k - n for k > n/2, i.e.
  [0, 1, ..., n/2 - 1, n/2, -n/2 + 1, ..., -1]; along z (length n/2 + 1)
  index k holds xi = k.  The Nyquist slot (index n/2, labelled +n/2) is
  zeroed in the wavenumbers used by every differentiation operator (odd
  derivatives are ambiguous there); the heat factor uses the true |xi|^2.
* Integrals are discrete sums with quadrature weight (2*pi/n)^3, so the
  spectral Plancherel factor is (2*pi)^3 / n^6, and the Plancherel sums
  count every plane strictly inside 0 < kz < n/2 twice, for its mirror
  image.  The only mirror pairs a half holds lie in its self-mirrored
  kz = 0 and kz = n/2 planes.
* One rule, clean_half, puts a half-spectrum in the form of every state
  and force: Nyquist planes and mean zeroed, kz = 0 plane exactly
  self-conjugate.  Snapshots and forces enter by velocity_half: r2c, clean_half.
* The time stepper's stages run on a second layout, Grid.block: a block
  of the half in a compact array of its own (Block), the only modes the
  nonlinear term reads or writes; with 2/3-rule dealiasing that is the
  2/3-rule block, without it the block is the size of the half.  The block
  owns the transforms at its boundary (Block.to_physical, from_physical),
  pruned to its b + 1 kz planes and equal to Grid.ifft and Grid.fft of the
  whole half to the bit.
* One rule inverts a half-spectrum that may be overwritten, ifft_in_place:
  an unscaled c2c over (x, y) in place on its nonzero kz planes, an
  unscaled c2r along z, then 1/n^3 once, where irfftn applies it, so it
  equals Grid.ifft to the bit (scaling each pass differs in the last bit
  where n is not a power of two).  Block.to_physical and the diagnostics
  record invert through it.
* Every transform calls scipy.fft through one object, _fft_module, which
  imports it at the first transform: importing strainflow loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sym3
from .exceptions import ConstraintViolationError, InvalidInputError


class _ScipyFFT:
    """scipy.fft (pocketfft), imported at the first attribute read, so a
    process that never transforms (toy-ode, --help) never loads it.  That
    read binds the module's public names onto this object, so a later call
    costs what a call through the module does."""

    def __getattr__(self, name):
        from scipy import fft
        vars(self).update((key, value) for key, value in vars(fft).items()
                          if not key.startswith("_"))
        return getattr(fft, name)


_fft_module = _ScipyFFT()  # every transform calls through this one object

DIVERGENCE_TOL = 1e-12
HERMITIAN_TOL = 1e-12  # of hermitian_residual, relative to the peak mode
CONSISTENCY_TOL = 1e-10
# One pocketfft thread.  On a 2-vCPU host a warmed solver step took, with
# 1 worker against 2 (five alternating pairs at n=32, three at n=64):
#   n=32: CPU 16.3-22.2 ms against 21.7-23.6 ms, wall 16.3-22.8 ms against
#         21.9-32.3 ms;
#   n=64: CPU 176-205 ms against 195-198 ms, wall 177-209 ms against
#         173-190 ms.
# A second thread on these 3- and 5-cube transforms costs more CPU than
# the wall time it saves, if any.  The bits of a step do not depend on
# the count.
_FFT_WORKERS = 1


class Grid:
    """Uniform n^3 grid over the 2pi-periodic box with its FFT metadata:
    wavenumber arrays that broadcast to the half-spectrum, Grid.shape."""

    def __init__(self, n: int):
        if n % 2 != 0 or n < 8:
            raise InvalidInputError(f"grid size must be an even integer >= 8, got {n}")
        self.n = n
        half = n // 2
        self.shape = (n, n, half + 1)
        k1 = np.arange(n)
        k1 = np.where(k1 <= half, k1, k1 - n).astype(float)
        k1_diff = k1.copy()
        k1_diff[half] = 0.0  # Nyquist zeroed for differentiation
        self.kx = k1.reshape(n, 1, 1)
        self.ky = k1.reshape(1, n, 1)
        self.kz = k1[:half + 1].reshape(1, 1, half + 1)
        self.kdx = k1_diff.reshape(n, 1, 1)
        self.kdy = k1_diff.reshape(1, n, 1)
        self.kdz = k1_diff[:half + 1].reshape(1, 1, half + 1)
        self.ksq = self.kx ** 2 + self.ky ** 2 + self.kz ** 2
        self.ksq_diff = self.kdx ** 2 + self.kdy ** 2 + self.kdz ** 2
        self.inv_ksq_diff = np.divide(1.0, self.ksq_diff,
                                      out=np.zeros_like(self.ksq_diff),
                                      where=self.ksq_diff > 0)
        self.dealias_kmax = (n - 1) // 3
        self.volume = (2.0 * np.pi) ** 3
        self.quad_weight = self.volume / n ** 3
        self.spectral_weight = self.volume / float(n) ** 6
        self._rev = (n - np.arange(n)) % n  # index of -xi per axis
        self._nyquist = tuple((..., half) + (slice(None),) * k for k in (2, 1, 0))  # x, y, z
        # modes each half-spectrum plane stands for: 1 on the self-mirrored
        # kz = 0 and kz = n/2 planes, 2 elsewhere
        self.half_multiplicity = np.full((1, 1, half + 1), 2.0)
        self.half_multiplicity[..., [0, half]] = 1.0
        self._blocks = {}

    def block(self, dealias: bool) -> "Block":
        """The Block a time-stepper stage runs on (built once per setting):
        half-width (n - 1)//3 with 2/3-rule dealiasing, n/2 without."""
        if dealias not in self._blocks:
            self._blocks[dealias] = Block(self, self.dealias_kmax if dealias else self.n // 2)
        return self._blocks[dealias]

    def coords(self):
        """Sparse physical coordinate arrays (X, Y, Z) for broadcasting."""
        xs = 2.0 * np.pi * np.arange(self.n) / self.n
        return np.meshgrid(xs, xs, xs, indexing="ij", sparse=True)

    def fft(self, field):
        """Forward real FFT (r2c, unscaled) of a physical field over the
        last three axes: its kz in [0, n/2] half-spectrum."""
        field = np.asarray(field)
        if field.shape[-3:] != (self.n,) * 3:
            raise InvalidInputError(
                f"field shape {field.shape} does not end in ({self.n},)*3")
        return _fft_module.rfftn(field, axes=(-3, -2, -1), workers=_FFT_WORKERS)

    def ifft(self, coeffs):
        """Inverse real FFT (c2r) of a half-spectrum over the last three
        axes; returns the real field."""
        return _fft_module.irfftn(self.spectrum(coeffs), s=(self.n,) * 3, axes=(-3, -2, -1),
                                  workers=_FFT_WORKERS)

    def spectrum(self, coeffs):
        """coeffs as an array, after checking that it is a spectrum of
        this grid: its shape ends in Grid.shape, (n, n, n/2 + 1)."""
        coeffs = np.asarray(coeffs)
        if coeffs.shape[-3:] != self.shape:
            raise InvalidInputError(
                f"spectrum shape {coeffs.shape} does not end in {self.shape}")
        return coeffs

    def integrate(self, field):
        """Quadrature of a physical field over the box."""
        return float(np.sum(field)) * self.quad_weight


class Block:
    """The modes of a half-spectrum that a nonlinear stage reads and
    writes, in a compact array of their own.

    These are the modes with |kx|, |ky|, |kz| <= b, the half-width: in the
    half, the rows kx, ky in [0..b] and [n-neg..n-1], neg = min(b, n-1-b),
    and the planes kz in [0..b].  With 2/3-rule dealiasing (Orszag,
    J. Atmos. Sci. 28, 1074, 1971) b = (n - 1)//3 and neg = b; without it
    b = n/2, the +n/2 row is held once, and the block has the shape and
    the order of the half itself.  The block holds them shaped
    (..., m, m, b + 1), m = b + 1 + neg, in FFT order itself (index i
    holds wavenumber i for i <= b and i - m above), so the mirror of index
    i is (m - i) % m.  gather and scatter move values between a
    half-spectrum and the block by four slab copies.

    to_physical and from_physical, the transforms at the block's boundary,
    are pruned (Markel, IEEE Trans. Audio Electroacoust. AU-19, 305, 1971):
    a block's c2r input is zero above plane b and only planes 0..b of an
    r2c output are gathered, so each is a c2c over (x, y) on those b + 1
    planes and a real transform along z; the inverse is ifft_in_place.
    Without dealiasing the same calls run unpruned.
    """

    def __init__(self, grid: Grid, b: int):
        n = grid.n
        self.grid = grid
        neg = min(b, n - 1 - b)
        rows, planes = np.r_[0:b + 1, n - neg:n], b + 1
        # (block rows, half rows) of the non-negative and the negative wavenumbers
        parts = ((slice(0, b + 1), slice(0, b + 1)),
                 (slice(b + 1, b + 1 + neg), slice(n - neg, n)))
        self._slabs = tuple(((bx, by), (hx, hy, slice(0, planes)))
                            for bx, hx in parts for by, hy in parts)
        self._nyquist = grid._nyquist if b == n // 2 else ()  # the half's, at b = n/2 only
        m = len(rows)
        self.shape = (m, m, planes)
        self._rev = (m - np.arange(m)) % m  # index of -xi per axis
        # the wavenumbers come whole and complex: numpy casts a real factor
        # of a complex product to complex anyway, so the bits are the same,
        # and a broadcast factor would split the product into short loops
        self.kdx, self.kdy, self.kdz = (
            np.broadcast_to(k, self.shape).astype(complex)
            for k in (grid.kdx[rows], grid.kdy[:, rows], grid.kdz[..., :planes]))
        self.inv_ksq_diff = self.gather(grid.inv_ksq_diff).astype(complex)

    def gather(self, half, out=None):
        """The block of a half-spectrum (..., n, n, n/2 + 1), copied into
        out (allocated if None)."""
        if out is None:
            out = np.empty(np.shape(half)[:-3] + self.shape, dtype=half.dtype)
        for block_rows, half_rows in self._slabs:
            out[(..., *block_rows, slice(None))] = half[(..., *half_rows)]
        return out

    def scatter(self, block, half):
        """Write a block into its modes of half, leaving the other modes as
        they are, and return half."""
        for block_rows, half_rows in self._slabs:
            half[(..., *half_rows)] = block[(..., *block_rows, slice(None))]
        return half

    def to_physical(self, block):
        """Grid.ifft of the half that holds the block, zeros elsewhere, to the
        bit.  The block goes into the lower planes of a zeroed half, so the
        c2r along z reads it without a zero-padded copy."""
        half = np.zeros(block.shape[:-3] + self.grid.shape, dtype=complex)
        return ifft_in_place(self.grid, self.scatter(block, half), self.shape[-1])

    def from_physical(self, field, out):
        """The block of Grid.fft(field), to the bit, gathered into out."""
        planes = _fft_module.rfftn(field, axes=(-1,), workers=_FFT_WORKERS)
        planes = _fft_module.fftn(planes[..., :self.shape[-1]], axes=(-3, -2),
                                  overwrite_x=True, workers=_FFT_WORKERS)
        return self.gather(planes, out)


def ifft_in_place(grid: Grid, half, planes: int | None = None):
    """Grid.ifft(half), to the bit, with half as the buffer of the c2c pass:
    half (complex128) is overwritten.  Only its kz planes below planes (all if
    None) may be nonzero, and the c2c over (x, y) runs on those alone."""
    n = grid.n
    half = grid.spectrum(half)
    if half.dtype != np.complex128:  # a real input would be transformed in a copy
        raise InvalidInputError(f"an in-place inverse needs complex128, got {half.dtype}")
    # scipy writes the c2c of a complex input it may overwrite into that input
    _fft_module.ifftn(half[..., :planes], axes=(-3, -2), norm="forward", overwrite_x=True,
                      workers=_FFT_WORKERS)
    field = _fft_module.irfftn(half, s=(n,), axes=(-1,), norm="forward",
                               workers=_FFT_WORKERS)
    field *= 1.0 / n ** 3
    return field


def _mirror(space: Grid | Block, planes):
    """conj of the mirror image -xi of each mode of whole kz planes (..., m, m, p)."""
    rev = space._rev
    return np.conj(planes[..., rev, :, :][..., :, rev, :])


def symmetrize_kz0_plane(space: Grid | Block, half):
    """Make the kz = 0 plane of a half-spectrum or a block exactly self-conjugate."""
    plane = half[..., :1]
    half[..., :1] = 0.5 * (plane + _mirror(space, plane))
    return half


def expand_half(grid: Grid, half):
    """Expand a kz in [0, n/2] half-spectrum to the full Hermitian cube
    (..., n, n, n): no code path needs it, tests compare against it."""
    hn = grid.n // 2
    out = np.empty(half.shape[:-1] + (grid.n,), dtype=complex)
    out[..., :hn + 1] = half
    out[..., hn + 1:] = _mirror(grid, half[..., :, :, hn - 1:0:-1])  # kz = n/2-1 ... 1
    return out


def hermitian_residual(grid: Grid, half):
    """Max deviation from Hermitian symmetry, relative to the peak mode, of
    a half-spectrum: the kz = 0 and kz = n/2 planes are their own mirror
    images, and hold the only mirror pairs a half has."""
    half = grid.spectrum(half)
    peak = np.max(np.abs(half))
    if peak == 0.0:
        return 0.0
    planes = half[..., [0, grid.n // 2]]
    return float(np.max(np.abs(planes - _mirror(grid, planes))) / peak)


def zero_nyquist(space: Grid | Block, coeffs):
    """Zero the Nyquist rows and plane (index n/2 on each axis) of a half-spectrum
    or a block in place (a block holds none unless b = n/2); returns coeffs."""
    for index in space._nyquist:
        coeffs[index] = 0.0
    return coeffs


def clean_half(space: Grid | Block, half):
    """Zero the Nyquist planes and the mean of a half-spectrum or a block and make
    its kz = 0 plane exactly self-conjugate, in place; returns half.  The mirror
    maps the Nyquist rows and the mean onto themselves, so the order is free."""
    zero_nyquist(space, half)
    half[..., 0, 0, 0] = 0.0
    return symmetrize_kz0_plane(space, half)


def velocity_half(grid: Grid, field):
    """The half-spectrum of a physical velocity (3, n, n, n) read from outside
    (a snapshot, a force field): its r2c, clean_half, as every state and force is."""
    return clean_half(grid, grid.fft(field))


def divergence_residual(grid: Grid, u_hat) -> float:
    """max_xi |xi . uhat| normalized by max_xi |xi| |uhat| (the same on
    a half-spectrum as on its Hermitian cube)."""
    u_hat = grid.spectrum(u_hat)
    div = grid.kdx * u_hat[0] + grid.kdy * u_hat[1] + grid.kdz * u_hat[2]
    speed = np.sqrt(np.abs(u_hat[0]) ** 2 + np.abs(u_hat[1]) ** 2 + np.abs(u_hat[2]) ** 2)
    denom = np.max(np.sqrt(grid.ksq_diff) * speed)
    if denom == 0.0:
        return 0.0
    return float(np.max(np.abs(div)) / denom)


def project_divergence_free(grid: Grid, v_hat):
    """Leray projection: divergence-free part of a spectral vector field,
    helmholtz_project's first part to the bit, formed in its output one
    component at a time.  Until its own turn the output's last component
    holds dot = (xi . v)/|xi|^2, and its first the product being summed
    into dot, so no array besides the output is allocated."""
    v_hat = grid.spectrum(v_hat)
    k = (grid.kdx, grid.kdy, grid.kdz)
    out = np.empty((3,) + grid.shape, dtype=np.result_type(v_hat, grid.inv_ksq_diff))
    dot = out[2]
    np.multiply(k[0], v_hat[0], out=dot)
    for i in (1, 2):
        dot += np.multiply(k[i], v_hat[i], out=out[0])
    dot *= grid.inv_ksq_diff
    for i in range(3):  # out[2] last, as it holds dot
        np.subtract(v_hat[i], np.multiply(k[i], dot, out=out[i]), out=out[i])
    return out


def helmholtz_project(grid: Grid, v_hat):
    """Mode-wise Helmholtz split v = u + grad(f) of a half-spectrum.

    Returns (divergence-free part, gradient part); the two are orthogonal
    per mode and sum to the input exactly.  Modes with no resolvable
    gradient content (the mean and pure-Nyquist modes) go wholly to the
    divergence-free part.
    """
    v_hat = grid.spectrum(v_hat)
    dot = (grid.kdx * v_hat[0] + grid.kdy * v_hat[1] + grid.kdz * v_hat[2]) * grid.inv_ksq_diff
    grad = np.stack([grid.kdx * dot, grid.kdy * dot, grid.kdz * dot])
    return v_hat - grad, grad


def sym_gradient(grid: Grid, u_hat, out=None):
    """Spectral strain tensor of a divergence-free velocity field.

    Returns the five independent components, shaped (5,) + Grid.shape,
    in the order (11, 22, 12, 13, 23); the 33 component is -(11 + 22) and
    is never stored, so the output is trace-free structurally.  They are
    written into out (allocated if None), which must not overlap u_hat.
    """
    u_hat = grid.spectrum(u_hat)
    resid = divergence_residual(grid, u_hat)
    if resid > DIVERGENCE_TOL:
        raise InvalidInputError(f"velocity is not divergence-free (residual {resid:.3e})")
    kx, ky, kz = grid.kdx, grid.kdy, grid.kdz
    u1, u2, u3 = u_hat[0], u_hat[1], u_hat[2]
    out = np.empty((5,) + grid.shape, dtype=complex) if out is None else out
    np.multiply(1j * kx, u1, out=out[0])
    np.multiply(1j * ky, u2, out=out[1])
    np.multiply(0.5j, kx * u2 + ky * u1, out=out[2])
    np.multiply(0.5j, kx * u3 + kz * u1, out=out[3])
    np.multiply(0.5j, ky * u3 + kz * u2, out=out[4])
    return out


def _strain_xi(grid: Grid, s3):
    """S xi (= xi^T S): [sum_j xi_j S_jm for m = 0, 1, 2] from the full spectrum s3."""
    k = (grid.kdx, grid.kdy, grid.kdz)
    return [k[0] * s3[0, m] + k[1] * s3[1, m] + k[2] * s3[2, m] for m in range(3)]


def consistency_residual(grid: Grid, s_hat) -> float:
    """How far a trace-free symmetric tensor field is from being a strain.

    Evaluates |xi|^2 S - (xi x xi) S - S (xi x xi) mode by mode; the max
    Frobenius norm is normalized by the max of |xi|^2 |S|.  Zero exactly
    on symmetric gradients of divergence-free fields.
    """
    s3 = sym3.full_matrix(grid.spectrum(s_hat))
    k = (grid.kdx, grid.kdy, grid.kdz)
    ksq = grid.ksq_diff
    t = _strain_xi(grid, s3)
    num_sq = np.zeros_like(ksq)
    s_frob_sq = np.zeros_like(ksq)
    for j in range(3):
        for m in range(3):
            resid = ksq * s3[j, m] - k[j] * t[m] - t[j] * k[m]
            num_sq += np.abs(resid) ** 2
            s_frob_sq += np.abs(s3[j, m]) ** 2
    denom = np.max(ksq * np.sqrt(s_frob_sq))
    if denom == 0.0:
        return 0.0
    return float(np.max(np.sqrt(num_sq)) / denom)


def velocity_from_strain(grid: Grid, s_hat):
    """Reconstruct the unique mean-zero velocity whose strain is s_hat.

    Spectrally, uhat_k = -2i sum_j xi_j Shat_jk / |xi|^2.  The input must
    satisfy the strain constraint (consistency_residual below
    CONSISTENCY_TOL).
    """
    resid = consistency_residual(grid, s_hat)
    if resid > CONSISTENCY_TOL:
        raise ConstraintViolationError(
            f"tensor is not in the strain constraint space (residual {resid:.3e})")
    t = _strain_xi(grid, sym3.full_matrix(np.asarray(s_hat)))
    u_hat = np.stack([-2j * t[m] * grid.inv_ksq_diff for m in range(3)])
    u_hat[:, 0, 0, 0] = 0.0
    return u_hat


def vorticity(grid: Grid, u_hat, out=None):
    """Spectral curl of a velocity field, written into out (allocated if
    None), which must not overlap u_hat."""
    u_hat = grid.spectrum(u_hat)
    kx, ky, kz = grid.kdx, grid.kdy, grid.kdz
    u1, u2, u3 = u_hat[0], u_hat[1], u_hat[2]
    out = np.empty((3,) + grid.shape, dtype=complex) if out is None else out
    np.multiply(1j, ky * u3 - kz * u2, out=out[0])
    np.multiply(1j, kz * u1 - kx * u3, out=out[1])
    np.multiply(1j, kx * u2 - ky * u1, out=out[2])
    return out


def plancherel_sum(grid: Grid, mode_values, alpha: float) -> float:
    """Plancherel sum of |xi|^(2 alpha) times per-mode values (summed over
    any leading component axes first) over a half-spectrum, each plane
    counted for its mirror.  alpha is 0 (L2) or 1 (H1)."""
    if alpha not in (0, 1):
        raise InvalidInputError(f"Sobolev order must be 0 or 1, got {alpha}")
    mode_values = grid.spectrum(mode_values)
    if mode_values.ndim > 3:
        mode_values = mode_values.sum(axis=tuple(range(mode_values.ndim - 3)))
    weighted = mode_values if alpha == 0 else grid.ksq * mode_values
    weighted = weighted * grid.half_multiplicity
    return float(np.sum(weighted)) * grid.spectral_weight


def sobolev_norm_sq(grid: Grid, coeffs, alpha: float = 0.0) -> float:
    """Squared homogeneous Sobolev norm of a spectral field.

    Leading axes are treated as independent components (scalar, vector,
    or full tensor).
    """
    return plancherel_sum(grid, np.abs(coeffs) ** 2, alpha)


def sobolev_inner(grid: Grid, a_hat, b_hat, alpha: float = 0.0) -> float:
    """Real homogeneous Sobolev inner product of two spectral fields,
    summed over leading component axes."""
    return plancherel_sum(grid, np.real(np.conj(a_hat) * b_hat), alpha)


def strain_frobenius_sq(s_hat):
    """Per-mode squared Frobenius norm of a 5-component strain field (the
    stored off-diagonals count twice, the 33 entry is reconstructed)."""
    s11, s22, s12, s13, s23 = np.asarray(s_hat)
    return (np.abs(s11) ** 2 + np.abs(s22) ** 2 + np.abs(s11 + s22) ** 2
            + 2.0 * (np.abs(s12) ** 2 + np.abs(s13) ** 2 + np.abs(s23) ** 2))


def strain_norm_sq(grid: Grid, s_hat, alpha: float = 0.0) -> float:
    """Squared Sobolev norm of a 5-component strain field (full Frobenius
    weight)."""
    return plancherel_sum(grid, strain_frobenius_sq(s_hat), alpha)


@dataclass(frozen=True)
class IsometryReport:
    """The four gradient-energy functionals that coincide for
    divergence-free fields: |S|^2, |A|^2, |omega|^2/2, |grad u|^2/2
    in the same Sobolev order."""

    strain_sq: float
    antisym_sq: float
    half_vorticity_sq: float
    half_gradient_sq: float

    def values(self):
        return (self.strain_sq, self.antisym_sq,
                self.half_vorticity_sq, self.half_gradient_sq)

    @property
    def max_rel_deviation(self) -> float:
        vals = self.values()
        top = max(abs(v) for v in vals)
        if top == 0.0:
            return 0.0
        return (max(vals) - min(vals)) / top


def isometry_audit(grid: Grid, u_hat, alpha: float) -> IsometryReport:
    """Audit the strain/antisymmetric/vorticity/gradient norm identities.

    The four quantities are computed along genuinely different paths
    (stored 5-component strain, explicit 9-entry antisymmetric part,
    curl, full gradient) and agree to rounding for any mean-zero
    divergence-free field, in the orders alpha = 0 and 1.
    """
    u_hat = np.asarray(u_hat)
    s_sq = strain_norm_sq(grid, sym_gradient(grid, u_hat), alpha)  # checks div u = 0
    peak = np.max(np.abs(u_hat))
    if peak > 0 and np.max(np.abs(u_hat[:, 0, 0, 0])) > 1e-12 * peak:
        raise InvalidInputError("velocity must be mean-zero for the audit")

    k = (grid.kdx, grid.kdy, grid.kdz)
    antisym = np.stack([
        np.stack([0.5j * (k[j] * u_hat[m] - k[m] * u_hat[j]) for m in range(3)])
        for j in range(3)
    ])
    a_sq = sobolev_norm_sq(grid, antisym, alpha)

    w_sq = sobolev_norm_sq(grid, vorticity(grid, u_hat), alpha)

    grad = np.stack([np.stack([1j * k[j] * u_hat[m] for m in range(3)])
                     for j in range(3)])
    g_sq = sobolev_norm_sq(grid, grad, alpha)

    return IsometryReport(s_sq, a_sq, 0.5 * w_sq, 0.5 * g_sq)


def directional_strain(grid: Grid, u_hat, v):
    """Physical field S(x) v(x) for a unit direction (vector or field).

    v is either a constant unit 3-vector or a (3, n, n, n) pointwise-unit
    field.  Returns a (3, n, n, n) physical array; pointwise
    |S(x) v(x)| >= |lambda2(x)|.
    """
    s = sym3.TraceFreeSym3.from_components(grid.ifft(sym_gradient(grid, u_hat)))
    return sym3.apply_to_vector(s, v)
