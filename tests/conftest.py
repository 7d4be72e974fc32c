import numpy as np
import pytest

from strainflow import spectral
from strainflow.spectral import Grid
from strainflow.verify import ReferenceRun


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
