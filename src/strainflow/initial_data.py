"""Initial velocity fields: all divergence-free, mean-zero, Nyquist-free,
each a kz in [0, n/2] half-spectrum (3,) + Grid.shape."""

from __future__ import annotations

import numpy as np

from . import snapshots
from .exceptions import ConfigError, InvalidInputError
from .spectral import (Grid, clean_half, project_divergence_free, sobolev_norm_sq,
                       velocity_half)


def _analytic(grid: Grid, amplitude: float, components):
    """amplitude times the half-spectrum of the field whose three
    components are the functions f(x, y, z) given, with its mean zeroed."""
    coords = grid.coords()
    shape = (grid.n,) * 3
    u = np.stack([np.broadcast_to(f(*coords), shape) for f in components])
    u_hat = amplitude * grid.fft(u)
    u_hat[:, 0, 0, 0] = 0.0
    return u_hat


def taylor_green(grid: Grid, amplitude: float = 1.0):
    """u = (sin x cos y cos z, -cos x sin y cos z, 0), the canonical
    smooth nontrivial test flow."""
    return _analytic(grid, amplitude, (lambda x, y, z: np.sin(x) * np.cos(y) * np.cos(z),
                                       lambda x, y, z: -np.cos(x) * np.sin(y) * np.cos(z),
                                       lambda x, y, z: 0.0))


def shear(grid: Grid, amplitude: float = 1.0):
    """u = (sin y, 0, 0): single-mode exactly solvable flow (the
    nonlinearity vanishes, so it decays as exp(-nu t))."""
    return _analytic(grid, amplitude, (lambda x, y, z: np.sin(y),
                                       lambda x, y, z: 0.0, lambda x, y, z: 0.0))


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
    check_seed(seed)
    if max_wavenumber is None:
        max_wavenumber = grid.dealias_kmax
    if max_wavenumber < 1 or max_wavenumber > grid.n // 2:
        raise InvalidInputError(
            f"max_wavenumber must be in [1, n/2], got {max_wavenumber}")
    rng = np.random.default_rng(seed)
    shape = (3, grid.n, grid.n, grid.n)
    real, imag = rng.standard_normal(shape), rng.standard_normal(shape)
    planes = grid.shape[-1]
    # c(-xi) in the slot of each xi of the half (the band is even in xi)
    mirror = np.ix_(grid._rev, grid._rev, grid._rev[:planes])
    band = (np.abs(grid.kx) <= max_wavenumber) \
        & (np.abs(grid.ky) <= max_wavenumber) \
        & (grid.kz <= max_wavenumber)
    coeffs = np.empty((3,) + grid.shape, dtype=complex)
    for c in range(3):  # one component at a time, each value as on the whole draw
        cube = real[c] + 1j * imag[c]
        coeffs[c] = 0.5 * (cube[..., :planes] * band + np.conj(cube[mirror] * band))
    del real, imag
    u_hat = project_divergence_free(grid, clean_half(grid, coeffs))
    norm = np.sqrt(sobolev_norm_sq(grid, u_hat, 0.0))
    if norm == 0.0:
        raise InvalidInputError("random field collapsed to zero")
    return u_hat * (amplitude / norm)


def from_file(grid: Grid, path):
    """Velocity from a snapshot file; grid sizes must match."""
    return velocity_half(grid, snapshots.load_velocity(path, grid.n).data)


# Each initial_data name with the settings its generator reads.  The
# generator is this module's function of that name, looked up per call so
# that a wrapped function is the one called; file:<path> reads none.
_GENERATORS = {
    "taylor_green": ("amplitude",),
    "shear": ("amplitude",),
    "random_div_free": ("seed", "max_wavenumber", "amplitude"),
}
_FILE_PREFIX = "file:"


def check_name(name: str) -> tuple:
    """Reject an initial_data name that generate_initial does not take;
    return the settings that generate_initial passes on for it."""
    if name == _FILE_PREFIX:
        raise ConfigError("initial_data = file:<path> needs a path")
    if not name.startswith(_FILE_PREFIX) and name not in _GENERATORS:
        raise ConfigError(f"unknown initial_data {name!r}; expected "
                          f"{', '.join(_GENERATORS)} or file:<path>")
    return _GENERATORS.get(name, ())


def check_seed(seed) -> None:
    """Reject a seed that is not a non-negative integer."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidInputError(f"seed must be a non-negative integer, got {seed!r}")


def generate_initial(grid: Grid, name: str, *, seed: int = 1,
                     max_wavenumber: int | None = None, amplitude: float = 1.0):
    """Dispatch on the initial_data name used in run configurations,
    passing on only the settings that its generator reads."""
    read = check_name(name)
    if name.startswith(_FILE_PREFIX):
        return from_file(grid, name[len(_FILE_PREFIX):])
    given = {"seed": seed, "max_wavenumber": max_wavenumber, "amplitude": amplitude}
    return globals()[name](grid, **{key: given[key] for key in read})
