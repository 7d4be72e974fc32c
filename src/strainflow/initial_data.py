"""Initial velocity fields: all divergence-free, mean-zero, Nyquist-free,
each a kz in [0, n/2] half-spectrum (3,) + Grid.shape."""

from __future__ import annotations

import numpy as np

from . import snapshots
from .exceptions import ConfigError, InvalidInputError
from .spectral import (Grid, clean_half, project_divergence_free, sobolev_norm_sq,
                       velocity_half)


def taylor_green(grid: Grid, amplitude: float = 1.0):
    """u = (sin x cos y cos z, -cos x sin y cos z, 0), the canonical
    smooth nontrivial test flow."""
    x, y, z = grid.coords()
    shape = (grid.n,) * 3
    u = np.stack([
        np.broadcast_to(np.sin(x) * np.cos(y) * np.cos(z), shape),
        np.broadcast_to(-np.cos(x) * np.sin(y) * np.cos(z), shape),
        np.zeros(shape),
    ])
    u_hat = amplitude * grid.fft(u)
    u_hat[:, 0, 0, 0] = 0.0
    return u_hat


def shear(grid: Grid, amplitude: float = 1.0):
    """u = (sin y, 0, 0): single-mode exactly solvable flow (the
    nonlinearity vanishes, so it decays as exp(-nu t))."""
    _, y, _ = grid.coords()
    shape = (grid.n,) * 3
    u = np.stack([
        np.broadcast_to(np.sin(y), shape),
        np.zeros(shape),
        np.zeros(shape),
    ])
    u_hat = amplitude * grid.fft(u)
    u_hat[:, 0, 0, 0] = 0.0
    return u_hat


def random_div_free(grid: Grid, seed: int, max_wavenumber: int | None = None,
                    amplitude: float = 1.0):
    """Random band-limited divergence-free field with L2 norm = amplitude.

    Complex Gaussian coefficients are drawn for every mode of the full
    cube, those with |xi_i| <= max_wavenumber kept, and the half of their
    Hermitian part (c(xi) + conj c(-xi))/2 cleaned (spectral.clean_half)
    and Leray-projected.
    The default band (n-1)//3 keeps triple products alias-free under the
    grid quadrature, so cubic integral identities hold to rounding.
    Identical (seed, n) inputs give bit-identical fields.
    """
    if max_wavenumber is None:
        max_wavenumber = grid.dealias_kmax
    if max_wavenumber < 1 or max_wavenumber > grid.n // 2:
        raise InvalidInputError(
            f"max_wavenumber must be in [1, n/2], got {max_wavenumber}")
    rng = np.random.default_rng(seed)
    shape = (3, grid.n, grid.n, grid.n)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # c(-xi) in the slot of each xi of the half (the band is even in xi)
    planes = grid.shape[-1]
    mirror = coeffs[np.ix_(range(3), grid._rev, grid._rev, grid._rev[:planes])]
    band = (np.abs(grid.kx) <= max_wavenumber) \
        & (np.abs(grid.ky) <= max_wavenumber) \
        & (grid.kz <= max_wavenumber)
    coeffs = 0.5 * (coeffs[..., :planes] * band + np.conj(mirror * band))
    u_hat = project_divergence_free(grid, clean_half(grid, coeffs))
    norm = np.sqrt(sobolev_norm_sq(grid, u_hat, 0.0))
    if norm == 0.0:
        raise InvalidInputError("random field collapsed to zero")
    return u_hat * (amplitude / norm)


def from_file(grid: Grid, path):
    """Velocity from a snapshot file; grid sizes must match."""
    return velocity_half(grid, snapshots.load_velocity(path, grid.n).data)


# The initial_data names and their generators; a snapshot is file:<path>.
_GENERATORS = {
    "taylor_green": lambda grid, seed, kmax, amplitude: taylor_green(grid, amplitude),
    "shear": lambda grid, seed, kmax, amplitude: shear(grid, amplitude),
    "random_div_free": random_div_free,
}
_FILE_PREFIX = "file:"


def check_name(name: str) -> None:
    """Reject an initial_data name that generate_initial does not take."""
    if name == _FILE_PREFIX:
        raise ConfigError("initial_data = file:<path> needs a path")
    if not name.startswith(_FILE_PREFIX) and name not in _GENERATORS:
        raise ConfigError(f"unknown initial_data {name!r}; expected "
                          f"{', '.join(_GENERATORS)} or file:<path>")


def generate_initial(grid: Grid, name: str, *, seed: int = 1,
                     max_wavenumber: int | None = None, amplitude: float = 1.0):
    """Dispatch on the initial_data name used in run configurations."""
    check_name(name)
    if name.startswith(_FILE_PREFIX):
        return from_file(grid, name[len(_FILE_PREFIX):])
    return _GENERATORS[name](grid, seed, max_wavenumber, amplitude)
