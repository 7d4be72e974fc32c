import numpy as np
import pytest

from strainflow import diagnostics, initial_data, solver, spectral
from strainflow.spectral import Grid
# matrix helpers shared with `strainflow verify`; the test modules import them
from strainflow.verify import random_rotation, random_trace_free  # noqa: F401
from strainflow.verify import rotate as rotate_matrix  # noqa: F401


@pytest.fixture(scope="session")
def grid8():
    return Grid(8)


@pytest.fixture(scope="session")
def grid16():
    return Grid(16)


@pytest.fixture(scope="session")
def grid32():
    return Grid(32)


class TaylorGreenRun:
    """Shared Taylor-Green reference run with full diagnostics."""

    def __init__(self, grid, dt, t_end):
        config = solver.SolverConfig(n=grid.n, viscosity=1.0, dt=dt,
                                     t_end=t_end, record_every=10)
        result, self.records = diagnostics.run_with_diagnostics(
            config, initial_data.taylor_green(grid), grid=grid, keep_states=True)
        self.grid = grid
        self.states = result.states
        self.times = result.times
        self.kinetic = [solver.kinetic_energy(grid, s.u_hat) for s in self.states]


def nyquist_noise_state(grid):
    """A projected real-noise velocity spectrum with Nyquist content."""
    rng = np.random.default_rng(77)
    u_hat = spectral.project_divergence_free(
        grid, grid.fft(rng.standard_normal((3,) + (grid.n,) * 3)))
    assert np.max(np.abs(u_hat[:, :, :, grid.n // 2])) > 0.0
    return u_hat


@pytest.fixture(scope="session")
def tg16(grid16):
    """Small, fast Taylor-Green run for module-level tests."""
    return TaylorGreenRun(grid16, dt=1e-3, t_end=0.25)
