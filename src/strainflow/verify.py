"""The registry of correctness checks behind `strainflow verify`.

Each check is a module-level function of explicit inputs (matrix
samples, a generator, a grid, field seeds, the Taylor-Green reference
run or its records).  It keeps its tolerance, asserts, and returns a
detail string.  CHECKS lists them once, in order: run_checks runs each at
the verify sizes and reports one pass/fail line per check, and the
acceptance criteria run the same functions at their own seeds, sample
counts and grid sizes.  All tolerances hold down to the smallest
supported grid (n=8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics, initial_data, solver, spectral, sym3, toy_ode
from .exceptions import InvalidInputError

SEED = 2024         # seeds the random matrices, fields and rotations
SWEEP_CELLS = 5     # toy attractor sweep resolution per axis
RECORD_EVERY = 10   # reference-run steps per record


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


class ReferenceRun:
    """Taylor-Green, nu=1, on grid to t_end, with diagnostics records
    (and, with keep_states, the states) every RECORD_EVERY steps."""

    def __init__(self, grid, dt: float = 1e-3, t_end: float = 1.0,
                 keep_states: bool = True):
        config = solver.SolverConfig(n=grid.n, viscosity=1.0, dt=dt, t_end=t_end,
                                     record_every=RECORD_EVERY)
        result, self.records = diagnostics.run_with_diagnostics(
            config, initial_data.taylor_green(grid), grid=grid, keep_states=keep_states)
        self.grid = grid
        self.states = result.states
        self.times = result.times


def random_trace_free(rng, shape=(), scale: float = 1.0) -> sym3.TraceFreeSym3:
    """Random matrices with entries ~ scale * N(0, 1)."""
    comps = scale * rng.standard_normal((5,) + tuple(shape))
    return sym3.TraceFreeSym3.from_components(comps)


def random_rotation(rng):
    """Uniform-ish rotation matrix from the QR of a Gaussian sample."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rotate(m: sym3.TraceFreeSym3, q) -> sym3.TraceFreeSym3:
    a = q @ m.to_matrix() @ q.T
    a = 0.5 * (a + a.T)
    return sym3.TraceFreeSym3(a[0, 0], a[1, 1], a[0, 1], a[0, 2], a[1, 2])


def _scaled(values, scale):
    return values / np.maximum(scale, 1e-300)  # scale floored away from zero


# --- matrix algebra sweeps ---------------------------------------------------

def cubic_identity(ms):
    """tr(M^3) = 3 det(M), relative to the larger side (floored at 1e-3 |M|^3)."""
    a, b = sym3.tr_cubed(ms), 3.0 * sym3.det(ms)
    rel = np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)),
                                     ms.norm() ** 3 * 1e-3 + 1e-300)
    assert rel.max() < 1e-12, f"max rel error {rel.max():.3e}"
    return f"max rel {rel.max():.1e}"


def det_bound(ms, rng, family: int = 50, scales=None):
    """The sharp cubic determinant bound on ms, tight on `family` randomly
    rotated (-2c, c, c): c = 1, or c uniform in scales = (lo, hi)."""
    gap = sym3.det_bound_gap(sym3.eigenvalues(ms))
    assert np.all(gap >= -1e-12 * ms.norm() ** 3), f"min gap {gap.min():.3e}"
    worst = 0.0
    for _ in range(family):
        c = 1.0 if scales is None else rng.uniform(*scales)
        m = rotate(sym3.TraceFreeSym3(-2.0 * c, c, 0.0, 0.0, 0.0), random_rotation(rng))
        g = sym3.det_bound_gap(sym3.eigenvalues(m))
        assert abs(g) < 1e-12 * m.norm() ** 3, f"family gap {g:.3e}"
        worst = max(worst, abs(g) / m.norm() ** 3)
    return f"min scaled gap {_scaled(gap, ms.norm() ** 3).min():.1e}, family gap {worst:.1e}"

def lambda2_bound(ms):
    gap = sym3.lambda2_bound_gap(sym3.eigenvalues(ms))
    assert np.all(gap >= -1e-12 * ms.norm() ** 3), f"min gap {gap.min():.3e}"
    return f"min scaled gap {_scaled(gap, ms.norm() ** 3).min():.1e}"


def extremal_floors(ms):
    top, bottom = sym3.extremal_eigen_bounds(sym3.eigenvalues(ms))
    floor = -1e-12 * ms.norm()
    assert np.all(top >= floor) and np.all(bottom >= floor)
    return f"min scaled margin {_scaled(np.minimum(top, bottom), ms.norm()).min():.1e}"


def minimal_direction(ms, rng, directions: int = 40):
    eig = sym3.eigenvalues(ms)
    worst = math.inf
    for _ in range(directions):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        mv = sym3.apply_to_vector(ms, v)
        mag = np.sqrt(mv[0] ** 2 + mv[1] ** 2 + mv[2] ** 2)
        assert np.all(mag >= np.abs(eig.lambda2) - 1e-12 * ms.norm())
        worst = min(worst, _scaled(mag - np.abs(eig.lambda2), ms.norm()).min())
    return f"min scaled margin {worst:.1e}"


def eigenvalue_identities(ms):
    eig = sym3.eigenvalues(ms)
    norm = ms.norm()
    total = np.abs(eig.lambda1 + eig.lambda2 + eig.lambda3)
    assert np.all(total <= 1e-12 * norm + 1e-300)
    frob = np.abs(eig.lambda1 ** 2 + eig.lambda2 ** 2 + eig.lambda3 ** 2 - norm ** 2)
    assert np.all(frob <= 1e-12 * norm ** 2 + 1e-300)
    return (f"sum {_scaled(total, norm).max():.1e}, "
            f"Frobenius {_scaled(frob, norm ** 2).max():.1e}")


# --- spectral operators ------------------------------------------------------

def fft_roundtrip(grid, rng):
    field = rng.standard_normal((3,) + (grid.n,) * 3)
    back = grid.ifft(grid.fft(field))
    err = np.max(np.abs(back - field)) / np.max(np.abs(field))
    assert err < 1e-13, f"roundtrip error {err:.3e}"
    return f"roundtrip error {err:.1e}"


def strain_constraint(grid, seeds):
    """The strain of each seeded random field satisfies the constraint; a
    Hessian-type mode violates it."""
    worst = 0.0
    for seed in seeds:
        s_hat = spectral.sym_gradient(grid, initial_data.random_div_free(grid, seed=seed))
        resid = spectral.consistency_residual(grid, s_hat)
        assert resid < 1e-13, f"strain residual {resid:.3e}"
        worst = max(worst, resid)
    bad = np.zeros((5,) + grid.shape, dtype=complex)
    bad[0, 0, 1, 0] = -1.0 / 3.0   # trace-corrected Hessian-type mode
    bad[1, 0, 1, 0] = 2.0 / 3.0
    bad_resid = spectral.consistency_residual(grid, bad)
    assert bad_resid > 0.1, f"Hessian-type residual {bad_resid:.3e}"
    return f"max residual {worst:.1e}, Hessian-type {bad_resid:.2f}"


def strain_roundtrip(grid, seeds):
    worst = 0.0
    for seed in seeds:
        u_hat = initial_data.random_div_free(grid, seed=seed)
        u_back = spectral.velocity_from_strain(grid, spectral.sym_gradient(grid, u_hat))
        err = np.sqrt(spectral.sobolev_norm_sq(grid, u_back - u_hat)
                      / spectral.sobolev_norm_sq(grid, u_hat))
        assert err < 1e-12, f"reconstruction error {err:.3e}"
        worst = max(worst, err)
    return f"max error {worst:.1e}"


def helmholtz_split(grid, rng):
    v_hat = grid.fft(rng.standard_normal((3,) + (grid.n,) * 3))
    df, grad = spectral.helmholtz_project(grid, v_hat)
    total = spectral.sobolev_norm_sq(grid, v_hat)
    parts = spectral.sobolev_norm_sq(grid, df) + spectral.sobolev_norm_sq(grid, grad)
    assert abs(total - parts) < 1e-12 * total
    recon = np.max(np.abs(df + grad - v_hat)) / np.max(np.abs(v_hat))
    assert recon < 1e-14
    return f"energy {abs(total - parts) / total:.1e}, reconstruction {recon:.1e}"


def isometries(grid, seeds):
    worst = 0.0
    for seed in seeds:
        u = initial_data.random_div_free(grid, seed=seed)
        for alpha in (0.0, 1.0):
            worst = max(worst, spectral.isometry_audit(grid, u, alpha).max_rel_deviation)
    assert worst < 1e-12, f"max deviation {worst:.3e}"
    return f"max deviation {worst:.1e}"


def shear_analytics(grid):
    n = grid.n
    u_shear = initial_data.shear(grid)
    s_phys = grid.ifft(spectral.sym_gradient(grid, u_shear))
    _, y, _ = grid.coords()
    expected = 0.5 * np.cos(y) * np.ones((n, n, n))
    errors = [np.max(np.abs(s_phys[2] - expected))]
    errors += [np.max(np.abs(s_phys[idx])) for idx in (0, 1, 3, 4)]
    w = grid.ifft(spectral.vorticity(grid, u_shear))
    errors += [np.max(np.abs(w[2] + np.cos(y) * np.ones((n, n, n)))),
               np.max(np.abs(w[0])), np.max(np.abs(w[1]))]
    assert max(errors) < 1e-13, f"max error {max(errors):.3e}"
    return f"max error {max(errors):.1e}"


# --- solver ------------------------------------------------------------------

def shear_decay(grid, t_end: float = 0.1):
    """The single shear mode decays as exp(-t) over t_end / 1e-3 steps, and
    its energy budget closes."""
    n = grid.n
    cfg = solver.SolverConfig(n=n, viscosity=1.0, dt=1e-3, t_end=t_end,
                              record_every=RECORD_EVERY)
    result = solver.run(cfg, initial_data.shear(grid), grid=grid, keep_states=True)
    assert result.final_state.step_count == round(t_end / 1e-3)
    expected = math.exp(-result.final_state.t)
    u_phys = grid.ifft(result.final_state.u_hat)
    _, y, _ = grid.coords()
    err = np.max(np.abs(u_phys[0] - expected * np.sin(y) * np.ones((n, n, n))))
    assert err < 1e-11 * expected, f"decay error {err:.3e}"
    resid = np.max(np.abs(solver.energy_budget(grid, result.states)))
    assert resid < 1e-8, f"energy budget residual {resid:.3e}"
    return f"decay error {err / expected:.1e}, budget residual {resid:.1e}"


def energy_balance(grid, states):
    """Unforced nu=1 states: the energy never grows, its budget closes,
    and the velocity stays divergence-free."""
    kinetic = [solver.kinetic_energy(grid, s.u_hat) for s in states]
    assert all(b <= a * (1.0 + 1e-13) for a, b in zip(kinetic, kinetic[1:]))
    budget = np.max(np.abs(solver.energy_budget(grid, states, viscosity=1.0)))
    assert budget < 1e-5, f"budget residual {budget:.3e}"
    residual = max(spectral.divergence_residual(grid, s.u_hat) for s in states)
    assert residual < 1e-12, f"divergence residual {residual:.3e}"
    return f"budget residual {budget:.1e}, divergence {residual:.1e}"


# --- diagnostics ---------------------------------------------------------------

def vortex_stretching(records, grid=None, seeds=()):
    """<S, w x w> = -4 int det = -(4/3) int tr(S^3), recomputed from each
    record's integrals, and on the records of seeded random fields."""
    if seeds:
        collector = diagnostics.RecordCollector(grid)
        records = list(records) + [
            collector(solver.SolverState(initial_data.random_div_free(grid, seed=seed)))
            for seed in seeds]
    worst = max(diagnostics.vortex_stretch_identity_residual(
        r.vortex_stretch, r.det_integral, r.tr3_integral,
        cubic_scale=r.strain_cubed) for r in records)
    assert worst < 1e-10, f"identity residual {worst:.3e}"
    return f"max residual {worst:.1e}"


def enstrophy_budget(records):
    resid = np.array([r.budget_residual for r in records])
    assert np.all(np.isfinite(resid)), (
        f"budget residual not finite at {np.sum(~np.isfinite(resid))} of "
        f"{resid.size} records")
    assert np.max(np.abs(resid)) < 1e-5, f"budget residual {np.max(np.abs(resid)):.3e}"
    return f"max residual {np.max(np.abs(resid)):.1e}"


def pointwise_inequalities(grid, states):
    """The middle-eigenvalue, cubic determinant and extremal-eigenvalue
    bounds at every grid point of every state."""
    worst = math.inf
    for state in states:
        _, eig = diagnostics.pointwise_strain_analysis(grid, state.u_hat)
        norm = np.sqrt(eig.norm_sq)
        cube = np.maximum(norm ** 3, 1e-300)
        gap = sym3.lambda2_bound_gap(eig)
        worst = min(worst, (gap / cube).min())
        assert np.all(gap >= -1e-12 * cube), f"min scaled gap {worst:.3e}"
        assert np.all(sym3.det_bound_gap(eig) >= -1e-12 * cube)
        top, bottom = sym3.extremal_eigen_bounds(eig)
        floor = -1e-12 * np.maximum(norm, 1e-300)
        assert np.all(top >= floor) and np.all(bottom >= floor)
    return f"min scaled gap {worst:.1e} over {len(states)} states"


def growth_inequality(records, times):
    e_series = np.array([r.enstrophy for r in records])
    margins = np.array([r.gcon_margin for r in records])
    assert np.all(margins >= -1e-6 * e_series.max()), f"min margin {margins.min():.3e}"
    linf = [r.lambda2_norms[np.inf] for r in records]
    env = diagnostics.gronwall_envelope(times, e_series, linf)
    assert np.all(e_series <= env * (1.0 + 1e-6))
    return f"min scaled margin {margins.min() / e_series.max():.1e}"


# --- toy model -----------------------------------------------------------------

def toy_scaling_families(blowup=(0.5, 1.0, 2.0), decay=(0.5, 1.0, 2.0)):
    """(-2c, c, c) blows up at T = 1/c; (-c, -c, 2c) decays as
    2c / (1 + ct) and completes its run to t = 10."""
    t_error = decay_error = 0.0
    for c in blowup:
        m0 = sym3.TraceFreeSym3(-2.0 * c, c, 0.0, 0.0, 0.0)
        res = toy_ode.integrate_matrix(m0, t_end=10.0 / c)
        assert res.outcome == "blew_up"
        assert abs(res.t_est - 1.0 / c) < 1e-6 / c, f"T_est {res.t_est} vs {1.0 / c}"
        t_error = max(t_error, abs(res.t_est - 1.0 / c) * c)
    for c in decay:
        m0 = sym3.TraceFreeSym3(-c, -c, 0.0, 0.0, 0.0)
        res = toy_ode.integrate_matrix(m0, t_end=10.0)
        assert res.outcome == "completed", f"decay run {res.outcome}"
        expected = 2.0 * c / (1.0 + c * 10.0)
        assert abs(res.trajectory.lambda3[-1] - expected) < 1e-8
        decay_error = max(decay_error, abs(res.trajectory.lambda3[-1] - expected))
    return f"blow-up time error {t_error:.1e}, decay error {decay_error:.1e}"


def toy_reduced_vs_matrix(rng):
    m0 = rotate(sym3.TraceFreeSym3(-1.3, 0.4, 0.0, 0.0, 0.0),
                random_rotation(rng))
    eig = sym3.eigenvalues(m0)
    res_m = toy_ode.integrate_matrix(m0, t_end=50.0, blowup_threshold=1e6,
                                     rtol=1e-12, atol=1e-14)
    res_r = toy_ode.integrate_reduced(eig.lambda3, eig.r, t_end=50.0,
                                      blowup_threshold=1e7, rtol=1e-12, atol=1e-14,
                                      t_eval=list(res_m.trajectory.t[1:]))
    # compare at exactly matched sample times; 1/lambda3 is the
    # well-conditioned variable (fixed-time lambda3 differences are
    # amplified by lambda3 itself approaching blow-up)
    lookup = {round(t, 15): j for j, t in enumerate(res_r.trajectory.t)}
    worst_inv, worst_r, matched = 0.0, 0.0, 0
    for i, t in enumerate(res_m.trajectory.t):
        j = lookup.get(round(t, 15))
        if j is None or res_m.trajectory.lambda3[i] > 1e6:
            continue
        matched += 1
        worst_inv = max(worst_inv, abs(1.0 / res_m.trajectory.lambda3[i]
                                       - 1.0 / res_r.trajectory.lambda3[j])
                        * eig.lambda3)
        worst_r = max(worst_r, abs(res_m.trajectory.r[i] - res_r.trajectory.r[j]))
    assert matched > 100, f"only {matched} matched samples"
    assert worst_inv < 1e-8, f"reciprocal disagreement {worst_inv:.3e}"
    assert worst_r < 1e-8, f"ratio disagreement {worst_r:.3e}"
    return f"dl={worst_inv:.1e} dr={worst_r:.1e}"


def toy_sweep(lambda3s, rs, decay_lambda3s=(1.0,)):
    """Every (lambda3, r) cell blows up with r -> 2 within the blow-up time
    bound; every cell of the r = 1/2 line through decay_lambda3s decays."""
    cells = toy_ode.phase_sweep(lambda3s, rs)
    assert len(cells) == len(lambda3s) * len(rs)
    assert all(c.outcome == "blew_up" for c in cells)
    worst_r = max(abs(c.r_terminal - 2.0) for c in cells)
    assert worst_r < 1e-3, f"max |r_end - 2| {worst_r:.3e}"
    bounds = [(c, toy_ode.blowup_time_bound(c.lambda3_0, c.r_0)) for c in cells]
    bounds = [(c, b) for c, b in bounds if b is not None]
    assert bounds, "no cell above the growth zero"
    assert all(c.t_est <= b * (1.0 + 1e-6) for c, b in bounds)
    decay = toy_ode.phase_sweep(decay_lambda3s, [0.5])
    assert all(c.outcome == "decayed" and c.t_est is None for c in decay)
    return (f"{len(cells)} cells blew up ({len(bounds)} bounded), {len(decay)} decayed, "
            f"max |r_end - 2| {worst_r:.1e}")


CHECKS = (
    ("sym3: tr(M^3) = 3 det(M)", cubic_identity),
    ("sym3: cubic determinant bound (sharp family tight)", det_bound),
    ("sym3: -det <= |M|^2 lambda2+/2", lambda2_bound),
    ("sym3: extremal eigenvalue floors |M|/sqrt(6)", extremal_floors),
    ("sym3: |Mv| >= |lambda2| for unit v", minimal_direction),
    ("sym3: eigenvalue sum zero, Frobenius identity", eigenvalue_identities),
    ("spectral: FFT roundtrip", fft_roundtrip),
    ("spectral: strain constraint separates gradients", strain_constraint),
    ("spectral: velocity-from-strain roundtrip", strain_roundtrip),
    ("spectral: Helmholtz split orthogonal and exact", helmholtz_split),
    ("spectral: gradient-energy isometries (alpha 0, 1)", isometries),
    ("spectral: shear-flow strain and curl analytics", shear_analytics),
    ("solver: single shear mode decays exactly", shear_decay),
    ("solver: energy decay, energy budget, divergence-free", energy_balance),
    ("diagnostics: vortex-stretching identity chain", vortex_stretching),
    ("diagnostics: enstrophy budget residual", enstrophy_budget),
    ("diagnostics: pointwise inequalities on run snapshots", pointwise_inequalities),
    ("diagnostics: growth inequality margin and envelope", growth_inequality),
    ("toy: scaling-family blow-up and decay solutions", toy_scaling_families),
    ("toy: full-matrix and reduced trajectories agree", toy_reduced_vs_matrix),
    ("toy: attractor sweep and decay line", toy_sweep),
)


def _check(name, fn, *args) -> Check:
    try:
        return Check(name, True, fn(*args) or "")
    except AssertionError as exc:
        return Check(name, False, str(exc))
    except Exception as exc:  # noqa: BLE001 - any failure is a failed check
        return Check(name, False, f"{type(exc).__name__}: {exc}")


def run_checks(n: int = 32, dt: float = 1e-3, t_end: float = 1.0) -> list[Check]:
    """Run CHECKS in order at the verify sizes: 2000 matrices drawn first
    from one generator seeded with SEED, which the checks then draw from
    in turn, and the reference run on an n^3 grid to t_end."""
    solver.SolverConfig(n=n, dt=dt, t_end=t_end, record_every=1)  # rejects bad n, dt, t_end
    steps = round(t_end / dt)
    if steps % RECORD_EVERY or steps < 4 * RECORD_EVERY:
        # the budget, growth and energy checks need 5 uniformly spaced records
        raise InvalidInputError(
            f"verify needs at least 5 uniformly spaced records, one every "
            f"{RECORD_EVERY} steps, so t_end/dt must be a multiple of "
            f"{RECORD_EVERY} and at least {4 * RECORD_EVERY}; got {steps} steps")
    rng = np.random.default_rng(SEED)
    ms = random_trace_free(rng, shape=(2000,), scale=2.0)
    grid = spectral.Grid(n)
    run = ReferenceRun(grid, dt, t_end)
    args = {
        cubic_identity: (ms,), det_bound: (ms, rng), lambda2_bound: (ms,),
        extremal_floors: (ms,), minimal_direction: (ms, rng),
        eigenvalue_identities: (ms,), fft_roundtrip: (grid, rng),
        strain_constraint: (grid, [SEED + 1]), strain_roundtrip: (grid, [SEED + 1]),
        helmholtz_split: (grid, rng), isometries: (grid, range(SEED + 10, SEED + 15)),
        shear_analytics: (grid,), shear_decay: (grid,), energy_balance: (grid, run.states),
        vortex_stretching: (run.records,), enstrophy_budget: (run.records,),
        pointwise_inequalities: (grid, run.states),
        growth_inequality: (run.records, run.times),
        toy_scaling_families: (), toy_reduced_vs_matrix: (rng,),
        toy_sweep: (np.linspace(0.5, 5.0, SWEEP_CELLS), np.linspace(0.6, 2.0, SWEEP_CELLS)),
    }
    return [_check(name, fn, *args[fn]) for name, fn in CHECKS]


def format_table(checks) -> str:
    width = max(len(c.name) for c in checks)
    lines = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        suffix = f"  {c.detail}" if c.detail else ""
        lines.append(f"{status}  {c.name.ljust(width)}{suffix}")
    failed = sum(not c.passed for c in checks)
    lines.append(f"{len(checks) - failed}/{len(checks)} checks passed")
    return "\n".join(lines)
