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
