import numpy as np
import pytest

from strainflow import spectral, sym3, toy_ode
from strainflow.exceptions import InvalidInputError
from strainflow.spectral import Grid
from strainflow.verify import ReferenceRun

# Where a test turns every warning into an error, this one warning stays
# ignored: hypothesis's report hook raises it (from mypy_extensions) while
# the test's filters apply, and as an error it aborted the pytest run with
# INTERNALERROR instead of reporting a failing example.
HYPOTHESIS_REPORT_WARNING = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"


@pytest.fixture(scope="session")
def grid8():
    return Grid(8)


@pytest.fixture(scope="session")
def grid16():
    return Grid(16)


@pytest.fixture(scope="session")
def grid32():
    return Grid(32)


def full_cube_wavenumbers(grid):
    """Full-cube (n, n, n) wavenumbers of a grid, built apart from it, for
    full-cube reference sums: the differentiation wavenumbers (Nyquist
    slot zeroed) per axis, and the true |xi|^2."""
    n = grid.n
    k1 = np.fft.fftfreq(n, 1.0 / n)
    kd = np.where(np.arange(n) == n // 2, 0.0, k1)
    shapes = ((n, 1, 1), (1, n, 1), (1, 1, n))
    return (tuple(kd.reshape(s) for s in shapes),
            sum(k1.reshape(s) ** 2 for s in shapes))


def c2c_ifft(coeffs):
    """The c2c inverse transform of a full cube, the real part kept."""
    return np.fft.ifftn(coeffs, axes=(-3, -2, -1)).real


def dealias_mask(grid):
    """The 2/3-rule mask |kx|, |ky|, |kz| <= (n - 1)//3 on the half-spectrum."""
    keep = [np.abs(k) <= grid.dealias_kmax for k in (grid.kx, grid.ky, grid.kz)]
    return keep[0] & keep[1] & keep[2]


def antisym_matrix(omega):
    """Antisymmetric gradient part built from the vorticity vector.

    Accepts a single 3-vector or a (3, ...) field; returns (3, 3) + shape.
    Satisfies A @ omega = 0 identically.
    """
    omega = np.asarray(omega, dtype=float)
    w1, w2, w3 = omega[0], omega[1], omega[2]
    zero = np.zeros_like(w1)
    return 0.5 * np.stack([
        np.stack([zero, w3, -w2]),
        np.stack([-w3, zero, w1]),
        np.stack([w2, -w1, zero]),
    ])


def directional_strain_via_derivatives(grid, u_hat, v):
    """S v for a constant unit vector, computed as (d_v u + grad(u.v))/2.

    Independent route used to cross-check directional_strain on
    piecewise-constant direction fields (applied region by region).
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise InvalidInputError("derivative form needs a single constant 3-vector")
    if abs(np.sqrt(np.sum(v ** 2)) - 1.0) > 1e-12:
        raise InvalidInputError("direction is not unit length")
    k = (grid.kdx, grid.kdy, grid.kdz)
    dv_mult = 1j * (v[0] * k[0] + v[1] * k[1] + v[2] * k[2])
    dv_u = dv_mult * np.asarray(u_hat)
    u_dot_v = v[0] * u_hat[0] + v[1] * u_hat[1] + v[2] * u_hat[2]
    grad_uv = np.stack([1j * k[j] * u_dot_v for j in range(3)])
    return grid.ifft(0.5 * (dv_u + grad_uv))


def rhs_matrix(m):
    """The toy right-hand side -M^2 + (|M|^2/3) I as a trace-free matrix."""
    out = toy_ode._rhs_matrix_components(np.array(
        [m.m11, m.m22, m.m12, m.m13, m.m23], dtype=float))
    return sym3.TraceFreeSym3(out[0], out[1], out[2], out[3], out[4])


def nyquist_noise_state(grid):
    """A projected real-noise velocity spectrum with Nyquist content."""
    rng = np.random.default_rng(77)
    u_hat = spectral.project_divergence_free(
        grid, grid.fft(rng.standard_normal((3,) + (grid.n,) * 3)))
    assert np.max(np.abs(u_hat[:, :, :, grid.n // 2])) > 0.0
    return u_hat


@pytest.fixture(scope="session")
def tg16(grid16):
    """Small, fast Taylor-Green reference run for module-level tests."""
    return ReferenceRun(grid16, dt=1e-3, t_end=0.25)


def random_div_free_full_cube(grid, seed, max_wavenumber=None, amplitude=1.0):
    """random_div_free built as it was on the whole draw: the full-cube
    complex coefficients first, then the half of their Hermitian part; the
    oracle of the component-at-a-time construction."""
    if max_wavenumber is None:
        max_wavenumber = grid.dealias_kmax
    rng = np.random.default_rng(seed)
    shape = (3, grid.n, grid.n, grid.n)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    planes = grid.shape[-1]
    mirror = coeffs[np.ix_(range(3), grid._rev, grid._rev, grid._rev[:planes])]
    band = (np.abs(grid.kx) <= max_wavenumber) \
        & (np.abs(grid.ky) <= max_wavenumber) \
        & (grid.kz <= max_wavenumber)
    coeffs = 0.5 * (coeffs[..., :planes] * band + np.conj(mirror * band))
    u_hat = spectral.project_divergence_free(grid, spectral.clean_half(grid, coeffs))
    return u_hat * (amplitude / np.sqrt(spectral.sobolev_norm_sq(grid, u_hat, 0.0)))
