"""Pseudo-spectral time integration of incompressible Navier-Stokes.

The state is the kz >= 0 half of the spectral velocity (a real field's
spectrum is Hermitian, so the half holds all of it); each step applies
the heat semigroup exactly through integrating factors and advances the
projected advection term with classical RK4 on the transformed variable.
With the factors E = exp(-nu |xi|^2 dt/2) and N(u) the projected
nonlinearity plus force,

    Na = N(u, t)
    Nb = N(E (u + dt/2 Na), t + dt/2)
    Nc = N(E u + dt/2 Nb,   t + dt/2)
    Nd = N(E^2 u + dt E Nc, t + dt)
    u' = E^2 u + dt/6 (E^2 Na + 2 E (Nb + Nc) + Nd),

which is exact for the viscous part and fourth-order overall.

Solver states are kept as spectral.clean_half leaves them (mean-free,
Nyquist-free, kz = 0 plane self-conjugate); the quadratic term is
evaluated pseudo-spectrally with optional 2/3-rule dealiasing.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import snapshots, spectral
from .exceptions import InstabilityError, InvalidInputError
from .numerics import check_uniform_spacing, cumulative_integral_4
from .spectral import (Grid, clean_half, divergence_residual, project_divergence_free,
                       sobolev_norm_sq, velocity_half)

CFL_SAFETY = 0.5  # the step of dt=None is at most CFL_SAFETY * dx / max|u0|


@dataclass
class SolverConfig:
    n: int = 32
    viscosity: float = 1.0
    dt: float | None = 1e-3  # None: auto_dt of the initial velocity, set by run
    t_end: float = 1.0
    dealias: bool = True
    record_every: int = 10
    force: str = "none"

    def __post_init__(self):
        if self.n < 8 or self.n % 2:
            raise InvalidInputError(f"n must be an even integer >= 8, got {self.n}")
        for name in ("viscosity", "dt", "t_end"):
            value = getattr(self, name)
            if not ((value is None and name == "dt") or (math.isfinite(value) and value > 0)):
                raise InvalidInputError(f"{name} must be positive and finite, got {value}")
        if self.record_every < 1:
            raise InvalidInputError("record_every must be >= 1")
        if self.dt is not None:
            # records lie on one uniform grid whose last point is t_end
            ratio = self.t_end / (self.record_every * self.dt)
            if not (math.isfinite(ratio) and round(ratio) >= 1
                    and abs(ratio - round(ratio)) <= 1e-9):
                raise InvalidInputError(f"t_end={self.t_end} is not a whole number of "
                                        f"record intervals {self.record_every}*dt={self.dt}")


class SolverState:
    """A velocity field at time t, after step_count steps.

    The field is `u_hat`, its kz in [0, n/2] half-spectrum shaped
    (3, n, n, n/2 + 1) (Grid.shape of an n grid), which holds the whole
    spectrum of a real field; any other shape, a full cube included, is
    rejected.  States are never modified once made.
    """

    def __init__(self, u_hat, t: float = 0.0, step_count: int = 0):
        u_hat = np.asarray(u_hat)
        n = u_hat.shape[1] if u_hat.ndim == 4 else 0
        if u_hat.shape != (3, n, n, n // 2 + 1):
            raise InvalidInputError(
                f"velocity spectrum has shape {u_hat.shape}, not (3, n, n, n/2 + 1)")
        self.u_hat = u_hat
        self.t = t
        self.step_count = step_count


class NoForce:
    """Zero external force."""

    def __call__(self, t: float):
        return None


_FORCE_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp,
                    "tanh": np.tanh, "sqrt": np.sqrt}
_FORCE_VARIABLES = ("x", "y", "z", "t", "pi")
_FORCE_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def _parse_force_component(text: str):
    """Compile one force component after checking it against the grammar:
    numbers, the names x, y, z, t, pi, one-argument calls of sin, cos,
    exp, tanh, sqrt, the operators + - * / ** and unary minus.  Numbers
    are taken as floats, so constant arithmetic overflows instead of
    building huge integers.  Returns (code, names used)."""
    text = text.strip()
    try:
        tree = ast.parse(text, mode="eval")
    except (SyntaxError, RecursionError) as exc:
        raise InvalidInputError(f"bad force expression {text!r}: {exc}") from exc
    names = set()
    pending = [tree.body]
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            try:
                node.value = float(node.value)
            except OverflowError as exc:
                raise InvalidInputError(f"bad force expression {text!r}: {exc}") from exc
        elif isinstance(node, ast.Name) and node.id in _FORCE_VARIABLES:
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
    try:
        code = compile(tree, "<force>", "eval")  # compiling runs nothing
    except RecursionError as exc:
        raise InvalidInputError(f"bad force expression {text!r}: {exc}") from exc
    return code, names


_TOO_LARGE = "n^3 times its energy or enstrophy overflows when squared"


def _too_large(grid: Grid, u_hat) -> bool:
    """Whether (n^3 E)^2 or (n^3 Z)^2 overflows, E and Z the squared L2 and
    H1 norms of u_hat.  By discrete Parseval sup|u|^2 <= E n^3/(2 pi)^3 and
    sup|grad u|^2 <= Z n^3/(2 pi)^3, so below it every cubic and quartic term
    of a record is finite: run refuses any larger u0, force or record."""
    with np.errstate(over="ignore", invalid="ignore"):
        sizes = [grid.n ** 3 * sobolev_norm_sq(grid, u_hat, alpha) for alpha in (0.0, 1.0)]
    return not all(math.isfinite(size * size) for size in sizes)


def _force_hat(grid: Grid, field):
    """Spectral force from a physical field: its velocity_half, projected
    divergence-free (which also absorbs the pressure part of any gradient);
    the projection acts mode by mode, so it commutes with the zeroing.  A
    force that is _too_large is rejected."""
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        f_hat = project_divergence_free(grid, velocity_half(grid, field))
    if _too_large(grid, f_hat):
        raise InvalidInputError(f"force is too large: {_TOO_LARGE}")
    return f_hat


class ExprForce:
    """Force from three component expressions in x, y, z, t.

    Each component is checked against the grammar of
    _parse_force_component, evaluated with numpy on the grid, and turned
    into a spectral force by _force_hat.  The latest value is kept with
    the t it was evaluated at, so the two t + dt/2 stages of an RK4 step
    share one evaluation, and so do the last stage of a step, a record of
    the state it returns and the first stage of the next step when they
    read the same force (the state carries the time of that last stage); a
    time-independent force is evaluated once in all.  The returned array
    is shared between calls, so it is read-only.
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
        self._cached = None  # (t, f_hat) of the latest evaluation

    def __call__(self, t: float):
        if self._cached is not None and (not self.time_dependent
                                         or self._cached[0] == t):
            return self._cached[1]
        names = dict(self._names)
        names["t"] = t
        comps = []
        for code in self._codes:
            try:
                with np.errstate(all="ignore"):  # a non-finite value is rejected below
                    value = eval(code, {"__builtins__": {}}, names)  # checked grammar only
            except ArithmeticError as exc:  # 1/0 or 9**9**9 in constants
                raise InvalidInputError(f"force expression failed at t={t}: {exc}") from exc
            if np.iscomplexobj(value):  # a power such as (-8)**(1/3)
                raise InvalidInputError(f"force expression is complex at t={t}")
            value = np.asarray(value, dtype=float)
            if not np.all(np.isfinite(value)):
                raise InvalidInputError(f"force expression is not finite at t={t}")
            comps.append(np.broadcast_to(value, (self.grid.n,) * 3))
        f_hat = _force_hat(self.grid, np.stack(comps))  # stack copies the views
        f_hat.flags.writeable = False
        self._cached = (t, f_hat)
        return f_hat


class FileSequenceForce:
    """Piecewise-constant force from a sequence of velocity snapshots.

    Each file's header time is its activation knot; before the first
    knot the first field applies, so one file is a constant force.
    """

    time_dependent = True

    def __init__(self, grid: Grid, paths):
        if not paths:
            raise InvalidInputError("force file sequence is empty")
        snaps = sorted((snapshots.load_velocity(p, grid.n) for p in paths),
                       key=lambda snap: snap.time)
        self._knots = np.array([snap.time for snap in snaps])
        self._fields = [_force_hat(grid, snap.data) for snap in snaps]

    def __call__(self, t: float):
        index = int(np.searchsorted(self._knots, t, side="right")) - 1
        return self._fields[max(index, 0)]


def make_force(grid: Grid, spec: str):
    """Parse a forcing spec:
    none | expr:<fx>;<fy>;<fz> | file:<path> | files:<path>,<path>,...

    file:<path> is files: with one knot, a field that applies at every t.
    """
    spec = (spec or "none").strip()
    if spec in ("none", ""):
        return NoForce()
    if spec.startswith("expr:"):
        return ExprForce(grid, spec[len("expr:"):].split(";"))
    if spec.startswith("file:"):
        return FileSequenceForce(grid, [spec[len("file:"):]])
    if spec.startswith("files:"):
        paths = [p.strip() for p in spec[len("files:"):].split(",") if p.strip()]
        return FileSequenceForce(grid, paths)
    raise InvalidInputError(f"unrecognized force spec {spec!r}")


def nonlinear_term(grid: Grid, u_hat, dealias: bool = True):
    """Leray projection of -(u . grad) u, evaluated pseudo-spectrally.

    The advection is formed in conservation form, (u . grad)u_m =
    sum_j d_j(u_j u_m) for divergence-free u, with the product tensor
    shifted by a multiple of the identity: P = u u^T - u_3^2 I, whose
    stored entries are (11 - 33, 22 - 33, 12, 13, 23) and whose 33 entry
    is zero.  The five entries are built in physical space (with the
    inputs truncated by the 2/3 rule when dealias is set), transformed
    back, differentiated mode-wise, and projected; subtracting the
    pressure gradient and projecting are the same operation.  The shift
    adds grad(u_3^2), which lies along xi in every mode and survives the
    truncation, Nyquist zeroing and kz = 0 symmetrization as such, so the
    projection removes it and the result equals that of the unshifted
    products to rounding, with or without dealiasing.  For band-limited
    dealiased states this agrees exactly with the advective form.

    Takes and returns a half-spectrum (3,) + Grid.shape; the output is
    clean (spectral.clean_half), and its projection keeps it so.
    """
    u_hat = grid.spectrum(u_hat)
    block = grid.block(dealias)
    out = np.empty((3,) + block.shape, dtype=complex)
    _nonlinear_half(block, block.gather(u_hat), out, _NonlinearScratch(block))
    return block.scatter(out, np.zeros(u_hat.shape, dtype=complex))


class _NonlinearScratch:
    """Work arrays of _nonlinear_half: the five shifted velocity products
    in physical space, two scalar fields on the block, the c2r input (zero
    outside the block, which scatter never writes) and the block of the
    products' r2c output."""

    def __init__(self, block: spectral.Block):
        n = block.grid.n
        self.prods = np.empty((5,) + (n,) * 3)
        self.scalars = np.empty((2,) + block.shape, dtype=complex)
        self.spectrum = np.zeros((3,) + block.grid.shape, dtype=complex)
        self.p_hat = np.empty((5,) + block.shape, dtype=complex)


def _nonlinear_half(block: spectral.Block, u_block, out, scratch: _NonlinearScratch):
    """The core of nonlinear_term on a Block (spectral.Block), written into
    out: the 2/3 rule zeroes the velocity outside the block before the
    products and the term outside it after them, so the block of the
    velocity gives the whole term.  u_block is only read, and out may not
    overlap it.  A call does a c2r of 3 cubes and an r2c of the 5 shifted
    products."""
    grid = block.grid
    u = grid.ifft(block.scatter(u_block, scratch.spectrum))
    # u u^T - u_3^2 I in the order (11 - 33, 22 - 33, 12, 13, 23); slot 4
    # holds u_3^2 until both diagonal entries have read it
    prods = scratch.prods
    np.multiply(u[2], u[2], out=prods[4])
    for k in (0, 1):
        np.multiply(u[k], u[k], out=prods[k])
        np.subtract(prods[k], prods[4], out=prods[k])
    for k, (i, j) in enumerate(((0, 1), (0, 2), (1, 2)), start=2):
        np.multiply(u[i], u[j], out=prods[k])
    del u
    p_hat = block.gather(grid.fft(prods), scratch.p_hat)
    kx, ky, kz = block.kdx, block.kdy, block.kdz
    acc, term = scratch.scalars

    def k_dot(a, b, c=None):
        # kx a + ky b (+ kz c) into acc
        np.multiply(kx, a, out=acc)
        np.multiply(ky, b, out=term)
        np.add(acc, term, out=acc)
        if c is not None:
            np.multiply(kz, c, out=term)
            np.add(acc, term, out=acc)
        return acc

    # row 3 of P is (13, 23, 0)
    for m, row in enumerate(((0, 2, 3), (2, 1, 4), (3, 4))):
        np.multiply(-1j, k_dot(*(p_hat[r] for r in row)), out=out[m])
    del p_hat
    clean_half(block, out)
    # Leray projection on the block
    dot = k_dot(out[0], out[1], out[2])
    dot *= block.inv_ksq_diff
    for m, k in enumerate((kx, ky, kz)):
        np.multiply(k, dot, out=term)
        out[m] -= term
    return out


class Stepper:
    """Integrating-factor RK4 stepper on the half-spectrum, for one dt.

    The four stages run on the grid's Block (spectral.Block): with 2/3-rule
    dealiasing only the modes with |kx|, |ky|, |kz| <= (n - 1)//3 enter
    or leave the nonlinear term, so the RK4 sequence runs on the block of
    the state, in block-sized buffers.  Every other mode of the new half
    takes the exact linear update, since N there is the force alone: E^2 u
    unforced, and otherwise the combination _combine of the stages' force
    values, the routine that also ends the block's step.  Each mode sees
    the operations of a step that runs every stage on the half, on the
    same operands, so the result is the same to the bit.  Without
    dealiasing the block has the shape of the half, nothing lies outside
    it, and the linear update is overwritten everywhere.

    Everything a step uses is made here, for config.dt (run resolves
    dt=None first): the heat factors, six block buffers, the scratch of
    _nonlinear_half and the half work array of a forced update.  A step
    allocates only the half-spectrum of the state it returns, so a kept
    state never shares memory with the buffers, and the input state is
    never written.
    """

    def __init__(self, grid: Grid, config: SolverConfig, force=None):
        if grid.n != config.n:
            raise InvalidInputError(f"grid size n={grid.n} does not match config n={config.n}")
        if config.dt is None:
            raise InvalidInputError("a Stepper needs a dt; run resolves dt=None by auto_dt")
        self.grid = grid
        self.config = config
        self.force = force if force is not None else make_force(grid, config.force)
        self.block = block = grid.block(config.dealias)
        # (E, E^2, 2E) on the half, and gathered onto the block as complex
        half = np.exp(-config.viscosity * grid.ksq * (0.5 * config.dt))
        self._half_factors = (half, half * half, 2.0 * half)
        self._block_factors = tuple(block.gather(f).astype(complex) for f in self._half_factors)
        self._buffers = tuple(np.empty((3,) + block.shape, dtype=complex) for _ in range(6))
        self._scratch = _NonlinearScratch(block)
        self._outer = np.empty((3,) + grid.shape, dtype=complex)

    def _rhs(self, u_block, t, out):
        # N(u, t) on the block into out; returns the force half-spectrum
        _nonlinear_half(self.block, u_block, out, self._scratch)
        f_half = self.force(t)
        if f_half is not None:
            out += self.block.gather(f_half, self._buffers[5])
        return f_half

    def _combine(self, factors, u, na, pair, nd, out, tmp):
        # u' = E^2 u + dt/6 (E^2 na + 2E pair + nd) into out; out may be na, tmp pair
        _, e_full, e_twice = factors
        np.multiply(e_twice, pair, out=tmp)
        np.multiply(e_full, na, out=out)
        out += tmp
        out += nd
        np.multiply(self.config.dt / 6.0, out, out=out)
        np.multiply(e_full, u, out=tmp)
        np.add(tmp, out, out=out)

    def step(self, state: SolverState, *, t_next: float | None = None) -> SolverState:
        """The state one step of config.dt later.  Its time is t_next,
        state.t + dt if not given; the last stage evaluates the force at
        that time too (run passes k dt, so a step's force and its state
        share one float)."""
        dt = self.config.dt
        t = state.t
        if t_next is None:
            t_next = t + dt
        e_half, e_full, _ = self._block_factors
        block = self.block
        na, stage, pair, arg, u, _ = self._buffers
        block.gather(state.u_hat, u)
        u_new = np.empty(state.u_hat.shape, dtype=complex)
        # every product and sum taken in the order of the textbook expressions
        with np.errstate(over="ignore", invalid="ignore"):  # blow-up is detected below
            fa = self._rhs(u, t, na)                     # Na
            np.multiply(0.5 * dt, na, out=arg)           # E (u + dt/2 Na)
            np.add(u, arg, out=arg)
            np.multiply(e_half, arg, out=arg)
            fb = self._rhs(arg, t + 0.5 * dt, pair)      # Nb
            np.multiply(e_half, u, out=arg)              # E u + dt/2 Nb
            np.multiply(0.5 * dt, pair, out=stage)
            np.add(arg, stage, out=arg)
            fc = self._rhs(arg, t + 0.5 * dt, stage)     # Nc
            pair += stage                                # Nb + Nc
            np.multiply(e_half, stage, out=stage)        # E^2 u + dt E Nc
            np.multiply(dt, stage, out=stage)
            np.multiply(e_full, u, out=arg)
            np.add(arg, stage, out=arg)
            fd = self._rhs(arg, t_next, stage)           # Nd
            self._combine(self._block_factors, u, na, pair, stage, na, arg)
            if fa is None:
                np.multiply(self._half_factors[1], state.u_hat, out=u_new)
            else:
                np.add(fb, fc, out=self._outer)
                self._combine(self._half_factors, state.u_hat, fa, self._outer, fd,
                              u_new, self._outer)
            block.scatter(na, u_new)
        u_new[:, 0, 0, 0] = 0.0
        if not np.all(np.isfinite(u_new)):
            raise InstabilityError(
                f"non-finite velocity after step {state.step_count + 1} "
                f"(last stable time t={state.t:.6g})",
                last_state=state)
        return SolverState(u_new, t_next, state.step_count + 1)


@dataclass
class RunResult:
    times: np.ndarray
    states: list | None
    final_state: SolverState
    config: SolverConfig = field(repr=False)


def auto_dt(grid: Grid, config: SolverConfig, u_half) -> float:
    """The step of dt=None: the CFL step CFL_SAFETY * dx / max|u| of the
    half-spectrum u_half, shortened so that t_end is a whole number of
    record intervals; a zero field takes one record interval."""
    with np.errstate(over="ignore"):  # an overflowing speed is rejected below
        speed = np.sqrt(np.sum(grid.ifft(u_half) ** 2, axis=0)).max()
    intervals = config.t_end * speed / (config.record_every * CFL_SAFETY * 2.0 * np.pi / grid.n)
    if not math.isfinite(intervals):
        raise InvalidInputError(f"no CFL step for max|u| = {speed:.3e}")
    return config.t_end / (config.record_every * max(math.ceil(intervals), 1))


def run(config: SolverConfig, u0_hat, grid: Grid | None = None,
        on_record=None, keep_states: bool = False, force=None) -> RunResult:
    """Integrate the half-spectrum u0_hat, (3,) + Grid.shape, to t_end in
    steps of config.dt, recording every record_every steps; dt=None steps
    at auto_dt of u0, kept in result.config.  u0_hat is copied, never
    written.

    on_record(state) is called with each recorded state (including the
    initial one and the final one, at t_end); with keep_states the
    recorded states are also returned.  force is the stepper's force,
    made from config.force if not given; a caller that records the force
    passes the one it reads.  Instability, or a state to record that is
    _too_large, raises InstabilityError carrying the last finite state.
    """
    if grid is None:
        grid = Grid(config.n)
    u0_hat = np.array(u0_hat, dtype=complex)
    if u0_hat.shape != (3,) + grid.shape:
        raise InvalidInputError(
            f"initial velocity has shape {u0_hat.shape}, not {(3,) + grid.shape}")
    if not np.all(np.isfinite(u0_hat)):
        raise InvalidInputError("initial velocity has non-finite coefficients")
    if _too_large(grid, u0_hat):  # before the checks below can overflow
        raise InvalidInputError(f"initial velocity is too large: {_TOO_LARGE}")
    # the self-mirrored kz = 0 and kz = n/2 planes must satisfy the
    # Hermitian (real-field) invariant; only rounding is symmetrized
    resid = spectral.hermitian_residual(grid, u0_hat)
    if resid > spectral.HERMITIAN_TOL:
        raise InvalidInputError(f"initial velocity is not Hermitian (residual {resid:.3e})")
    clean_half(grid, u0_hat)
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

    state = SolverState(u0_hat, 0.0, 0)
    if config.dt is None:
        config = replace(config, dt=auto_dt(grid, config, state.u_hat))
    stepper = Stepper(grid, config, force)
    times = []
    states = [] if keep_states else None

    def record(st):  # states are never written, so the list shares them
        times.append(st.t)
        if keep_states:
            states.append(st)
        if on_record is not None:
            on_record(st)

    record(state)
    n_steps = round(config.t_end / config.dt)  # a whole number of record intervals
    for k in range(1, n_steps + 1):
        # k dt: exact uniform spacing, no accumulation drift
        state = stepper.step(state, t_next=k * config.dt)
        if k % config.record_every == 0:
            if _too_large(grid, state.u_hat):  # finite, but its record would overflow
                raise InstabilityError(f"velocity too large to record after step {k} "
                                       f"(t={state.t:.6g})", last_state=state)
            record(state)

    return RunResult(np.asarray(times), states, state, config)


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
    h = check_uniform_spacing([s.t for s in states])
    kin = np.array([kinetic_energy(grid, s.u_hat) for s in states])
    diss = np.array([sobolev_norm_sq(grid, s.u_hat, 1.0) for s in states])
    integral = cumulative_integral_4(diss, h)
    scale = max(kin[0], 1e-300)
    return (kin + viscosity * integral - kin[0]) / scale
