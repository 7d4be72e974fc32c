"""Pseudo-spectral time integration of incompressible Navier-Stokes.

The state is the spectral velocity; each step applies the heat semigroup
exactly through integrating factors and advances the projected advection
term with classical RK4 on the transformed variable.  With the factors
E = exp(-nu |xi|^2 dt/2) and N(u) the projected nonlinearity plus force,

    Na = N(u, t)
    Nb = N(E (u + dt/2 Na), t + dt/2)
    Nc = N(E u + dt/2 Nb,   t + dt/2)
    Nd = N(E^2 u + dt E Nc, t + dt)
    u' = E^2 u + dt/6 (E^2 Na + 2 E (Nb + Nc) + Nd),

which is exact for the viscous part and fourth-order overall.

Solver states are kept mean-free (Galilean gauge) and Nyquist-free; the
quadratic term is evaluated pseudo-spectrally with optional 2/3-rule
dealiasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import snapshots, spectral
from .exceptions import InstabilityError, InvalidInputError
from .numerics import check_uniform_spacing, cumulative_integral_4
from .spectral import (Grid, divergence_residual, project_divergence_free,
                       sobolev_norm_sq, zero_nyquist)


@dataclass
class SolverConfig:
    n: int = 32
    viscosity: float = 1.0
    dt: float = 1e-3
    t_end: float = 1.0
    dealias: bool = True
    adaptive_cfl: bool = False
    cfl_safety: float = 0.5
    record_every: int = 10
    force: str = "none"

    def __post_init__(self):
        if self.n < 8 or self.n % 2:
            raise InvalidInputError(f"n must be an even integer >= 8, got {self.n}")
        for name in ("viscosity", "dt", "t_end"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise InvalidInputError(f"{name} must be positive and finite, got {value}")
        if self.record_every < 1:
            raise InvalidInputError("record_every must be >= 1")
        if not self.adaptive_cfl:
            # a fixed-step run takes whole steps only, so t_end must be
            # reached exactly rather than overshot
            ratio = self.t_end / self.dt
            if not (math.isfinite(ratio) and round(ratio) >= 1
                    and abs(ratio - round(ratio)) <= 1e-9):
                raise InvalidInputError(
                    f"t_end={self.t_end} is not a whole number of steps dt={self.dt}")


@dataclass
class SolverState:
    u_hat: np.ndarray  # (3, n, n, n) complex spectral velocity
    t: float = 0.0
    step_count: int = 0

    def copy(self) -> "SolverState":
        return SolverState(self.u_hat.copy(), self.t, self.step_count)


class NoForce:
    """Zero external force."""

    time_dependent = False

    def __call__(self, t: float):
        return None


class ExprForce:
    """Force from three component expressions in x, y, z, t.

    Expressions are evaluated with numpy on the grid and the result is
    projected divergence-free (this also absorbs the pressure
    contribution of any gradient part), mean-zeroed, and Nyquist-zeroed.
    """

    def __init__(self, grid: Grid, expressions):
        if len(expressions) != 3:
            raise InvalidInputError("force expression needs three components")
        self.grid = grid
        try:
            self._codes = [compile(e.strip(), "<force>", "eval") for e in expressions]
        except SyntaxError as exc:
            raise InvalidInputError(f"bad force expression: {exc}") from exc
        self.time_dependent = any("t" in c.co_names for c in self._codes)
        x, y, z = grid.coords()
        self._names = {"x": x, "y": y, "z": z, "sin": np.sin, "cos": np.cos,
                       "exp": np.exp, "tanh": np.tanh, "sqrt": np.sqrt,
                       "pi": np.pi, "np": np}
        self._cached = None

    def __call__(self, t: float):
        if not self.time_dependent and self._cached is not None:
            return self._cached
        names = dict(self._names)
        names["t"] = t
        ones = np.ones((self.grid.n,) * 3)
        comps = []
        for code in self._codes:
            value = eval(code, {"__builtins__": {}}, names)  # restricted namespace
            comps.append(np.broadcast_to(np.asarray(value, dtype=float), ones.shape) * ones)
        f_hat = self.grid.fft(np.stack(comps))
        f_hat = project_divergence_free(self.grid, f_hat)
        zero_nyquist(self.grid, f_hat)
        f_hat[:, 0, 0, 0] = 0.0
        if not self.time_dependent:
            self._cached = f_hat
        return f_hat


def _load_force_field(grid: Grid, path):
    snap = snapshots.load_snapshot(path)
    if snap.kind != "velocity":
        raise InvalidInputError(f"force snapshot must hold a velocity field, got {snap.kind}")
    if snap.n != grid.n:
        raise InvalidInputError(f"force grid size {snap.n} != solver grid {grid.n}")
    f_hat = grid.fft(snap.data)
    f_hat = project_divergence_free(grid, f_hat)
    zero_nyquist(grid, f_hat)
    f_hat[:, 0, 0, 0] = 0.0
    return snap.time, f_hat


class FileForce:
    """Constant-in-time force loaded from a velocity snapshot file."""

    time_dependent = False

    def __init__(self, grid: Grid, path):
        _, self._f_hat = _load_force_field(grid, path)

    def __call__(self, t: float):
        return self._f_hat


class FileSequenceForce:
    """Piecewise-constant force from a sequence of velocity snapshots.

    Each file's header time is its activation knot; before the first
    knot the first field applies.
    """

    time_dependent = True

    def __init__(self, grid: Grid, paths):
        if not paths:
            raise InvalidInputError("force file sequence is empty")
        loaded = sorted((_load_force_field(grid, p) for p in paths),
                        key=lambda pair: pair[0])
        self._knots = np.array([time for time, _ in loaded])
        self._fields = [field for _, field in loaded]

    def __call__(self, t: float):
        index = int(np.searchsorted(self._knots, t, side="right")) - 1
        return self._fields[max(index, 0)]


def make_force(grid: Grid, spec: str):
    """Parse a forcing spec:
    none | expr:<fx>;<fy>;<fz> | file:<path> | files:<path>,<path>,...
    """
    spec = (spec or "none").strip()
    if spec in ("none", ""):
        return NoForce()
    if spec.startswith("expr:"):
        return ExprForce(grid, spec[len("expr:"):].split(";"))
    if spec.startswith("file:"):
        return FileForce(grid, spec[len("file:"):])
    if spec.startswith("files:"):
        paths = [p.strip() for p in spec[len("files:"):].split(",") if p.strip()]
        return FileSequenceForce(grid, paths)
    raise InvalidInputError(f"unrecognized force spec {spec!r}")


def nonlinear_term(grid: Grid, u_hat, dealias: bool = True):
    """Leray projection of -(u . grad) u, evaluated pseudo-spectrally.

    The advection is formed in conservation form, (u . grad)u_m =
    sum_j d_j(u_j u_m) for divergence-free u: the six unique products
    u_j u_m are built in physical space (with the inputs truncated by
    the 2/3 rule when dealias is set), transformed back, differentiated
    mode-wise, and projected; subtracting the pressure gradient and
    projecting are the same operation.  For band-limited dealiased
    states this agrees exactly with the advective form.

    The input must be Hermitian-symmetric (a real velocity field, as
    every solver state is); the evaluation then runs on the rfft
    half-spectrum and mirrors back, which enforces the symmetry of the
    output structurally.  The output is always mean- and Nyquist-free.
    """
    u_hat = np.asarray(u_hat)
    half = _nonlinear_half(grid, u_hat[..., :grid.n // 2 + 1], dealias)
    return spectral.expand_half(grid, half)


def _nonlinear_half(grid: Grid, u_half, dealias: bool):
    """Half-spectrum core of nonlinear_term (kz in [0, n/2])."""
    hn = grid.n // 2
    if dealias:
        u_half = u_half * grid.dealias_mask_half
    u = spectral._irfftn(u_half, grid.n)
    # products in the order (11, 22, 33, 12, 13, 23)
    prods = np.stack([u[0] * u[0], u[1] * u[1], u[2] * u[2],
                      u[0] * u[1], u[0] * u[2], u[1] * u[2]])
    p_hat = spectral.rfft_half(grid, prods)
    kx, ky, kz = grid.kdx, grid.kdy, grid.kdz_half
    n_half = np.stack([
        -1j * (kx * p_hat[0] + ky * p_hat[3] + kz * p_hat[4]),
        -1j * (kx * p_hat[3] + ky * p_hat[1] + kz * p_hat[5]),
        -1j * (kx * p_hat[4] + ky * p_hat[5] + kz * p_hat[2]),
    ])
    if dealias:
        n_half *= grid.dealias_mask_half
    n_half[:, hn, :, :] = 0.0
    n_half[:, :, hn, :] = 0.0
    n_half[:, :, :, hn] = 0.0
    n_half[:, 0, 0, 0] = 0.0
    spectral.symmetrize_kz0_plane(grid, n_half)
    # Leray projection on the half-spectrum
    dot = (kx * n_half[0] + ky * n_half[1] + kz * n_half[2]) * grid.inv_ksq_diff_half
    n_half[0] -= kx * dot
    n_half[1] -= ky * dot
    n_half[2] -= kz * dot
    return n_half


class Stepper:
    """Integrating-factor RK4 stepper with cached heat factors."""

    def __init__(self, grid: Grid, config: SolverConfig, force=None):
        self.grid = grid
        self.config = config
        self.force = force if force is not None else make_force(grid, config.force)
        self._factors = {}

    def _heat_factors(self, dt: float):
        # factors live on the kz in [0, n/2] half-cube like the stages
        cached = self._factors.get(dt)
        if cached is None:
            ksq_half = self.grid.ksq[..., :self.grid.n // 2 + 1]
            half = np.exp(-self.config.viscosity * ksq_half * (0.5 * dt))
            cached = (half, half * half)
            self._factors[dt] = cached
        return cached

    def _rhs_half(self, u_half, t):
        out = _nonlinear_half(self.grid, u_half, self.config.dealias)
        f_hat = self.force(t)
        if f_hat is not None:
            out = out + f_hat[..., :self.grid.n // 2 + 1]
        return out

    def cfl_dt(self, state: SolverState) -> float:
        """Advective CFL step: safety * dx / max|u|."""
        speed = np.sqrt(np.sum(self.grid.ifft(state.u_hat) ** 2, axis=0)).max()
        dx = 2.0 * np.pi / self.grid.n
        if speed <= 0:
            return self.config.dt
        return self.config.cfl_safety * dx / speed

    def step(self, state: SolverState, dt: float | None = None) -> SolverState:
        if dt is None:
            dt = self.cfl_dt(state) if self.config.adaptive_cfl else self.config.dt
        e_half, e_full = self._heat_factors(dt)
        u = state.u_hat[..., :self.grid.n // 2 + 1]
        t = state.t
        with np.errstate(over="ignore", invalid="ignore"):  # blow-up is detected below
            na = self._rhs_half(u, t)
            nb = self._rhs_half(e_half * (u + (0.5 * dt) * na), t + 0.5 * dt)
            nc = self._rhs_half(e_half * u + (0.5 * dt) * nb, t + 0.5 * dt)
            nd = self._rhs_half(e_full * u + dt * (e_half * nc), t + dt)
            u_new_half = e_full * u + (dt / 6.0) * (e_full * na
                                                    + 2.0 * e_half * (nb + nc) + nd)
        u_new = spectral.expand_half(self.grid, u_new_half)
        u_new[:, 0, 0, 0] = 0.0
        if not np.all(np.isfinite(u_new)):
            raise InstabilityError(
                f"non-finite velocity after step {state.step_count + 1} "
                f"(last stable time t={state.t:.6g})",
                last_state=state)
        return SolverState(u_new, state.t + dt, state.step_count + 1)


def step(grid: Grid, state: SolverState, config: SolverConfig, force=None) -> SolverState:
    """Single-step convenience wrapper around Stepper."""
    return Stepper(grid, config, force).step(state)


@dataclass
class RunResult:
    times: np.ndarray
    states: list | None
    final_state: SolverState
    config: SolverConfig = field(repr=False, default=None)


def run(config: SolverConfig, u0_hat, grid: Grid | None = None,
        on_record=None, keep_states: bool = False) -> RunResult:
    """Integrate to t_end, recording every record_every steps.

    on_record(state) is called with each recorded state (including the
    initial one and the final one); with keep_states the recorded states
    are also returned.  Instability raises InstabilityError carrying the
    last finite state.
    """
    if grid is None:
        grid = Grid(config.n)
    u0_hat = np.asarray(u0_hat, dtype=complex)
    if u0_hat.shape != (3, grid.n, grid.n, grid.n):
        raise InvalidInputError(f"initial velocity has shape {u0_hat.shape}")
    if not np.all(np.isfinite(u0_hat)):
        raise InvalidInputError("initial velocity has non-finite coefficients")
    # steps run on the kz >= 0 half-spectrum, so the state must satisfy
    # the Hermitian (real-field) invariant exactly
    u0_hat = spectral.hermitian_symmetrize(u0_hat)
    zero_nyquist(grid, u0_hat)
    u0_hat[:, 0, 0, 0] = 0.0
    # every step is Leray-projected, so divergence left in u0 would only
    # decay viscously: rounding noise at |xi| = 1 outlives a decaying flow
    # and grows relative to it until the divergence check trips
    resid = divergence_residual(grid, u0_hat)
    if resid > spectral.DIVERGENCE_TOL:
        raise InvalidInputError(
            f"initial velocity is not divergence-free (residual {resid:.3e})")
    # projected into the existing buffer: a fresh allocation here shifted
    # the heap layout and tripled the page faults of every later step
    u0_hat[...] = project_divergence_free(grid, u0_hat)

    stepper = Stepper(grid, config)
    state = SolverState(u0_hat, 0.0, 0)
    times = [0.0]
    states = [state.copy()] if keep_states else None
    if on_record is not None:
        on_record(state)

    def record(st):
        times.append(st.t)
        if keep_states:
            states.append(st.copy())
        if on_record is not None:
            on_record(st)

    if config.adaptive_cfl:
        while state.t < config.t_end - 1e-12:
            dt = min(stepper.cfl_dt(state), config.t_end - state.t)
            state = stepper.step(state, dt)
            if state.step_count % config.record_every == 0 or state.t >= config.t_end - 1e-12:
                record(state)
    else:
        n_steps = round(config.t_end / config.dt)
        for k in range(1, n_steps + 1):
            state = stepper.step(state, config.dt)
            state.t = k * config.dt  # exact uniform spacing, no accumulation drift
            if k % config.record_every == 0 or k == n_steps:
                record(state)

    return RunResult(np.asarray(times), states, state, config)


def divergence_invariant(grid: Grid, state: SolverState) -> float:
    """Divergence residual of a solver state (should stay below 1e-12)."""
    return divergence_residual(grid, state.u_hat)


def kinetic_energy(grid: Grid, u_hat) -> float:
    """0.5 * L2 norm squared of the velocity."""
    return 0.5 * sobolev_norm_sq(grid, u_hat, 0.0)


def energy_budget(grid: Grid, states, viscosity: float = 1.0):
    """Residual series of the kinetic-energy equality.

    For each recorded time, (E_kin(t) + nu * int_0^t |grad u|^2 - E_kin(0))
    relative to E_kin(0); the time integral uses 4th-order quadrature so
    the residual tracks the integrator error.  Needs >= 5 uniformly
    spaced snapshots.
    """
    if len(states) < 5:
        raise InvalidInputError("energy budget needs at least 5 snapshots")
    times = np.array([s.t for s in states])
    h = check_uniform_spacing(times)
    kin = np.array([kinetic_energy(grid, s.u_hat) for s in states])
    diss = np.array([sobolev_norm_sq(grid, s.u_hat, 1.0) for s in states])
    integral = cumulative_integral_4(diss, h)
    scale = max(kin[0], 1e-300)
    return (kin + viscosity * integral - kin[0]) / scale
