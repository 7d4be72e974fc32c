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

import ast
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


_FORCE_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp,
                    "tanh": np.tanh, "sqrt": np.sqrt}
_FORCE_VARIABLES = ("x", "y", "z", "t", "pi")
_FORCE_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def _parse_force_component(text: str):
    """Compile one force component after checking it against the grammar:
    numbers, the names x, y, z, t, pi, one-argument calls of sin, cos,
    exp, tanh, sqrt, the operators + - * / ** and unary minus.  Returns
    (code, names used)."""
    text = text.strip()
    try:
        tree = ast.parse(text, mode="eval")
        code = compile(tree, "<force>", "eval")  # compiling runs nothing
    except (SyntaxError, RecursionError) as exc:
        raise InvalidInputError(f"bad force expression {text!r}: {exc}") from exc
    names = set()
    pending = [tree.body]
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            continue
        if isinstance(node, ast.Name) and node.id in _FORCE_VARIABLES:
            names.add(node.id)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, _FORCE_OPERATORS):
            pending += [node.left, node.right]
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            pending.append(node.operand)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in _FORCE_FUNCTIONS and len(node.args) == 1
              and not node.keywords):
            pending.append(node.args[0])
        else:
            raise InvalidInputError(
                f"force expression {text!r} may not contain {ast.unparse(node)!r}")
    return code, names


def _force_hat(grid: Grid, field):
    """Spectral force from a physical field: projected divergence-free
    (which also absorbs the pressure part of any gradient), Nyquist-zeroed
    and mean-zeroed."""
    f_hat = project_divergence_free(grid, grid.fft(field))
    zero_nyquist(grid, f_hat)
    f_hat[:, 0, 0, 0] = 0.0
    return f_hat


class ExprForce:
    """Force from three component expressions in x, y, z, t.

    Each component is checked against the grammar of
    _parse_force_component, evaluated with numpy on the grid, and turned
    into a spectral force by _force_hat.
    """

    def __init__(self, grid: Grid, expressions):
        if len(expressions) != 3:
            raise InvalidInputError("force expression needs three components")
        self.grid = grid
        parsed = [_parse_force_component(e) for e in expressions]
        self._codes = [code for code, _ in parsed]
        self.time_dependent = any("t" in names for _, names in parsed)
        x, y, z = grid.coords()
        self._names = {"x": x, "y": y, "z": z, "pi": np.pi, **_FORCE_FUNCTIONS}
        self._cached = None

    def __call__(self, t: float):
        if not self.time_dependent and self._cached is not None:
            return self._cached
        names = dict(self._names)
        names["t"] = t
        ones = np.ones((self.grid.n,) * 3)
        comps = []
        for code in self._codes:
            try:
                value = eval(code, {"__builtins__": {}}, names)  # checked grammar only
            except ArithmeticError as exc:  # e.g. 1/0 or 10.0**400 in constants
                raise InvalidInputError(f"force expression failed at t={t}: {exc}") from exc
            comps.append(np.broadcast_to(np.asarray(value, dtype=float), ones.shape) * ones)
        f_hat = _force_hat(self.grid, np.stack(comps))
        if not self.time_dependent:
            self._cached = f_hat
        return f_hat


def _load_force_field(grid: Grid, path):
    snap = snapshots.load_snapshot(path)
    if snap.kind != "velocity":
        raise InvalidInputError(f"force snapshot must hold a velocity field, got {snap.kind}")
    if snap.n != grid.n:
        raise InvalidInputError(f"force grid size {snap.n} != solver grid {grid.n}")
    return snap.time, _force_hat(grid, snap.data)


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
    half = _nonlinear_half(grid, grid.half(np.asarray(u_hat)), dealias)
    return spectral.expand_half(grid, half)


def _nonlinear_half(grid: Grid, u_half, dealias: bool):
    """Half-spectrum core of nonlinear_term (kz in [0, n/2])."""
    mask = grid.like(grid.dealias_mask, u_half)
    inv_ksq = grid.like(grid.inv_ksq_diff, u_half)
    if dealias:
        u_half = u_half * mask
    u = grid.ifft(u_half)
    # products in the order (11, 22, 33, 12, 13, 23)
    prods = np.stack([u[0] * u[0], u[1] * u[1], u[2] * u[2],
                      u[0] * u[1], u[0] * u[2], u[1] * u[2]])
    p_hat = spectral.rfft_half(grid, prods)
    kx, ky, kz = grid.kdx, grid.kdy, grid.like(grid.kdz, u_half)
    n_half = np.stack([
        -1j * (kx * p_hat[0] + ky * p_hat[3] + kz * p_hat[4]),
        -1j * (kx * p_hat[3] + ky * p_hat[1] + kz * p_hat[5]),
        -1j * (kx * p_hat[4] + ky * p_hat[5] + kz * p_hat[2]),
    ])
    if dealias:
        n_half *= mask
    zero_nyquist(grid, n_half)
    n_half[:, 0, 0, 0] = 0.0
    spectral.symmetrize_kz0_plane(grid, n_half)
    # Leray projection on the half-spectrum
    dot = (kx * n_half[0] + ky * n_half[1] + kz * n_half[2]) * inv_ksq
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
        self._factors = None  # (dt, E, E^2) for the latest dt only

    def _heat_factors(self, dt: float):
        # factors live on the kz in [0, n/2] half-cube like the stages; an
        # adaptive run changes dt every step, so older factors are dropped
        if self._factors is None or self._factors[0] != dt:
            half = np.exp(-self.config.viscosity * self.grid.half(self.grid.ksq) * (0.5 * dt))
            self._factors = (dt, half, half * half)
        return self._factors[1:]

    def _rhs_half(self, u_half, t):
        out = _nonlinear_half(self.grid, u_half, self.config.dealias)
        f_hat = self.force(t)
        if f_hat is not None:
            out = out + self.grid.half(f_hat)
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
        u = self.grid.half(state.u_hat)
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
