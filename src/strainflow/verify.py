"""Self-check suite behind the `strainflow verify` subcommand.

Runs the algebraic sweeps, spectral audits, budget runs, and toy-model
golden cases at fixed tolerances, reporting one pass/fail line per
check.  All tolerances hold down to the smallest supported grid (n=8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics, initial_data, solver, spectral, sym3, toy_ode

SEED = 2024         # seeds the random matrices, fields and rotations
SWEEP_CELLS = 5     # toy attractor sweep resolution per axis


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


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
    return sym3.TraceFreeSym3(a[0, 0], a[1, 1],
                              0.5 * (a[0, 1] + a[1, 0]),
                              0.5 * (a[0, 2] + a[2, 0]),
                              0.5 * (a[1, 2] + a[2, 1]))


def _relative(a, b, floor=1e-300):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


def _check(name, fn) -> Check:
    try:
        detail = fn()
        return Check(name, True, detail or "")
    except AssertionError as exc:
        return Check(name, False, str(exc))
    except Exception as exc:  # noqa: BLE001 - any failure is a failed check
        return Check(name, False, f"{type(exc).__name__}: {exc}")


def run_checks(n: int = 32, dt: float = 1e-3, t_end: float = 1.0,
               det_sign_flip: bool = False) -> list[Check]:
    """Run every check; det_sign_flip is a mutation hook for test
    hygiene (it corrupts the determinant inside the vortex-stretching
    identity check, which must then fail)."""
    rng = np.random.default_rng(SEED)
    checks = []

    # --- matrix algebra sweeps -------------------------------------------
    ms = random_trace_free(rng, shape=(2000,), scale=2.0)

    def sym3_cubed():
        rel = _relative(sym3.tr_cubed(ms), 3.0 * sym3.det(ms),
                        floor=ms.norm() ** 3 * 1e-3 + 1e-300)
        assert rel.max() < 1e-12, f"max rel error {rel.max():.3e}"
        return f"max rel {rel.max():.1e}"
    checks.append(_check("sym3: tr(M^3) = 3 det(M)", sym3_cubed))

    def sym3_det_bound():
        gap = sym3.det_bound_gap(ms)
        floor = -1e-12 * ms.norm() ** 3
        assert np.all(gap >= floor), f"min gap {gap.min():.3e}"
        for _ in range(50):
            m = rotate(sym3.TraceFreeSym3(-2.0, 1.0, 0.0, 0.0, 0.0), random_rotation(rng))
            g = sym3.det_bound_gap(m)
            assert abs(g) < 1e-12 * m.norm() ** 3, f"family gap {g:.3e}"
        return ""
    checks.append(_check("sym3: cubic determinant bound (sharp family tight)", sym3_det_bound))

    def sym3_lambda2_bound():
        gap = sym3.lambda2_bound_gap(ms)
        assert np.all(gap >= -1e-12 * ms.norm() ** 3), f"min gap {gap.min():.3e}"
        return ""
    checks.append(_check("sym3: -det <= |M|^2 lambda2+/2", sym3_lambda2_bound))

    def sym3_extremal():
        top, bottom = sym3.extremal_eigen_bounds(ms)
        floor = -1e-12 * ms.norm()
        assert np.all(top >= floor) and np.all(bottom >= floor)
        return ""
    checks.append(_check("sym3: extremal eigenvalue floors |M|/sqrt(6)", sym3_extremal))

    def sym3_minimal_direction():
        eig = sym3.eigenvalues(ms)
        for _ in range(40):
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            mv = sym3.apply_to_vector(ms, v)
            mag = np.sqrt(mv[0] ** 2 + mv[1] ** 2 + mv[2] ** 2)
            assert np.all(mag >= np.abs(eig.lambda2) - 1e-12 * ms.norm())
        return ""
    checks.append(_check("sym3: |Mv| >= |lambda2| for unit v", sym3_minimal_direction))

    def sym3_spectral_identities():
        eig = sym3.eigenvalues(ms)
        norm = ms.norm()
        assert np.all(np.abs(eig.lambda1 + eig.lambda2 + eig.lambda3) <= 1e-12 * norm + 1e-300)
        frob = eig.lambda1 ** 2 + eig.lambda2 ** 2 + eig.lambda3 ** 2
        assert np.all(np.abs(frob - norm ** 2) <= 1e-12 * norm ** 2 + 1e-300)
        return ""
    checks.append(_check("sym3: eigenvalue sum zero, Frobenius identity", sym3_spectral_identities))

    # --- spectral operators ----------------------------------------------
    grid = spectral.Grid(n)

    def fft_roundtrip():
        field = rng.standard_normal((3, n, n, n))
        back = grid.ifft(grid.fft(field))
        err = np.max(np.abs(back - field)) / np.max(np.abs(field))
        assert err < 1e-13, f"roundtrip error {err:.3e}"
        return ""
    checks.append(_check("spectral: FFT roundtrip", fft_roundtrip))

    u_rand = initial_data.random_div_free(grid, seed=SEED + 1)

    def constraint_both_ways():
        s_hat = spectral.sym_gradient(grid, u_rand)
        resid = spectral.consistency_residual(grid, s_hat)
        assert resid < 1e-13, f"strain residual {resid:.3e}"
        bad = np.zeros((5, n, n, n), dtype=complex)
        bad[0, 0, 1, 0] = -1.0 / 3.0   # trace-corrected Hessian-type mode
        bad[1, 0, 1, 0] = 2.0 / 3.0
        bad_resid = spectral.consistency_residual(grid, bad)
        assert bad_resid > 0.1, f"Hessian-type residual {bad_resid:.3e}"
        return ""
    checks.append(_check("spectral: strain constraint separates gradients", constraint_both_ways))

    def reconstruction_roundtrip():
        s_hat = spectral.sym_gradient(grid, u_rand)
        u_back = spectral.velocity_from_strain(grid, s_hat)
        err = np.sqrt(spectral.sobolev_norm_sq(grid, u_back - u_rand)
                      / spectral.sobolev_norm_sq(grid, u_rand))
        assert err < 1e-12, f"reconstruction error {err:.3e}"
        return ""
    checks.append(_check("spectral: velocity-from-strain roundtrip", reconstruction_roundtrip))

    def helmholtz_split():
        v_hat = grid.fft(rng.standard_normal((3, n, n, n)))
        df, grad = spectral.helmholtz_project(grid, v_hat)
        total = spectral.sobolev_norm_sq(grid, v_hat)
        parts = spectral.sobolev_norm_sq(grid, df) + spectral.sobolev_norm_sq(grid, grad)
        assert abs(total - parts) < 1e-12 * total
        recon = np.max(np.abs(df + grad - v_hat)) / np.max(np.abs(v_hat))
        assert recon < 1e-14
        return ""
    checks.append(_check("spectral: Helmholtz split orthogonal and exact", helmholtz_split))

    def isometries():
        worst = 0.0
        for k in range(5):
            u = initial_data.random_div_free(grid, seed=SEED + 10 + k)
            for alpha in (0.0, 1.0):
                worst = max(worst, spectral.isometry_audit(grid, u, alpha).max_rel_deviation)
        assert worst < 1e-12, f"max deviation {worst:.3e}"
        return f"max deviation {worst:.1e}"
    checks.append(_check("spectral: gradient-energy isometries (alpha 0, 1)", isometries))

    def analytic_fields():
        u_shear = initial_data.shear(grid)
        s_phys = spectral.strain_to_physical(grid, spectral.sym_gradient(grid, u_shear))
        _, y, _ = grid.coords()
        expected = 0.5 * np.cos(y) * np.ones((n, n, n))
        assert np.max(np.abs(s_phys[2] - expected)) < 1e-13
        for idx in (0, 1, 3, 4):
            assert np.max(np.abs(s_phys[idx])) < 1e-13
        w = grid.ifft(spectral.vorticity(grid, u_shear))
        assert np.max(np.abs(w[2] + np.cos(y) * np.ones((n, n, n)))) < 1e-13
        return ""
    checks.append(_check("spectral: shear-flow strain and curl analytics", analytic_fields))

    # --- solver ------------------------------------------------------------
    def shear_decay():
        cfg = solver.SolverConfig(n=n, viscosity=1.0, dt=1e-3, t_end=0.1,
                                  record_every=10)
        u0 = initial_data.shear(grid)
        result = solver.run(cfg, u0, grid=grid)
        expected = math.exp(-result.final_state.t)
        u_phys = grid.ifft(result.final_state.u_hat)
        _, y, _ = grid.coords()
        err = np.max(np.abs(u_phys[0] - expected * np.sin(y) * np.ones((n, n, n))))
        assert err < 1e-11 * expected, f"decay error {err:.3e}"
        return ""
    checks.append(_check("solver: single shear mode decays exactly", shear_decay))

    cfg = solver.SolverConfig(n=n, viscosity=1.0, dt=dt, t_end=t_end, record_every=10)
    tg, records = diagnostics.run_with_diagnostics(
        cfg, initial_data.taylor_green(grid), grid=grid, keep_states=True)
    kinetic = [solver.kinetic_energy(grid, s.u_hat) for s in tg.states]
    times = tg.times

    def energy_monotone():
        assert all(b <= a * (1.0 + 1e-13) for a, b in zip(kinetic, kinetic[1:]))
        budget = solver.energy_budget(grid, tg.states, viscosity=1.0)
        assert np.max(np.abs(budget)) < 1e-5, f"budget residual {np.max(np.abs(budget)):.3e}"
        residual = max(solver.divergence_invariant(grid, s) for s in tg.states)
        assert residual < 1e-12, f"divergence residual {residual:.3e}"
        return ""
    checks.append(_check("solver: energy decay, energy budget, divergence-free", energy_monotone))

    def vortex_stretch_identity():
        sign = -1.0 if det_sign_flip else 1.0
        worst = max(diagnostics.vortex_stretch_identity_residual(
            r.vortex_stretch, sign * r.det_integral, r.tr3_integral,
            cubic_scale=r.strain_cubed) for r in records)
        assert worst < 1e-10, f"identity residual {worst:.3e}"
        return f"max residual {worst:.1e}"
    checks.append(_check("diagnostics: vortex-stretching identity chain", vortex_stretch_identity))

    def enstrophy_budget():
        resid = np.array([r.budget_residual for r in records])
        assert np.all(np.isfinite(resid))
        assert np.max(np.abs(resid)) < 1e-5, f"budget residual {np.max(np.abs(resid)):.3e}"
        return f"max residual {np.max(np.abs(resid)):.1e}"
    checks.append(_check("diagnostics: enstrophy budget residual", enstrophy_budget))

    def pointwise_inequalities():
        for state in tg.states:
            pd = diagnostics.pointwise_strain_analysis(grid, state.u_hat)
            cube = pd.strain.norm() ** 3
            assert np.all(sym3.lambda2_bound_gap(pd.strain) >= -1e-12 * cube - 1e-300)
            assert np.all(sym3.det_bound_gap(pd.strain) >= -1e-12 * cube - 1e-300)
            top, bottom = sym3.extremal_eigen_bounds(pd.strain)
            floor = -1e-12 * pd.strain.norm() - 1e-300
            assert np.all(top >= floor) and np.all(bottom >= floor)
        return ""
    checks.append(_check("diagnostics: pointwise inequalities on run snapshots",
                         pointwise_inequalities))

    def growth_inequality():
        margins = np.array([r.gcon_margin for r in records])
        scale = max(r.enstrophy for r in records)
        assert np.all(margins >= -1e-6 * max(scale, 1.0)), f"min margin {margins.min():.3e}"
        linf = [r.lambda2_norms[np.inf] for r in records]
        env = diagnostics.gronwall_envelope(times, [r.enstrophy for r in records], linf)
        e_series = np.array([r.enstrophy for r in records])
        assert np.all(e_series <= env * (1.0 + 1e-6))
        return ""
    checks.append(_check("diagnostics: growth inequality margin and envelope",
                         growth_inequality))

    # --- toy model ----------------------------------------------------------
    def toy_golden():
        for c in (0.5, 1.0, 2.0):
            m0 = sym3.TraceFreeSym3(-2.0 * c, c, 0.0, 0.0, 0.0)
            res = toy_ode.integrate(toy_ode.ToyState.from_matrix(m0), t_end=10.0 / c)
            assert res.outcome == "blew_up"
            assert abs(res.t_est - 1.0 / c) < 1e-6 / c, f"T_est {res.t_est} vs {1.0 / c}"
            m0 = sym3.TraceFreeSym3(-c, -c, 0.0, 0.0, 0.0)
            res = toy_ode.integrate(toy_ode.ToyState.from_matrix(m0), t_end=10.0)
            expected = 2.0 * c / (1.0 + c * 10.0)
            assert abs(res.trajectory.lambda3[-1] - expected) < 1e-8
        return ""
    checks.append(_check("toy: scaling-family blow-up and decay solutions", toy_golden))

    def toy_reduced_vs_matrix():
        m0 = rotate(sym3.TraceFreeSym3(-1.3, 0.4, 0.0, 0.0, 0.0),
                    random_rotation(rng))
        eig = sym3.eigenvalues(m0)
        res_m = toy_ode.integrate(toy_ode.ToyState.from_matrix(m0), t_end=50.0,
                                  blowup_threshold=1e6, rtol=1e-12, atol=1e-14)
        res_r = toy_ode.integrate(
            toy_ode.ToyState.from_reduced(eig.lambda3, eig.r), t_end=50.0,
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
            if res_m.trajectory.r[i] <= 1.9:  # closed-form eigenvalue noise
                worst_r = max(worst_r,        # dominates past near-degeneracy
                              abs(res_m.trajectory.r[i] - res_r.trajectory.r[j]))
        assert matched > 100, f"only {matched} matched samples"
        assert worst_inv < 1e-8, f"reciprocal disagreement {worst_inv:.3e}"
        assert worst_r < 1e-8, f"ratio disagreement {worst_r:.3e}"
        return f"dl={worst_inv:.1e} dr={worst_r:.1e}"
    checks.append(_check("toy: full-matrix and reduced trajectories agree",
                         toy_reduced_vs_matrix))

    def toy_mini_sweep():
        cells = toy_ode.phase_sweep(np.linspace(0.5, 5.0, SWEEP_CELLS),
                                    np.linspace(0.6, 2.0, SWEEP_CELLS))
        assert all(c.outcome == "blew_up" for c in cells)
        assert all(abs(c.r_terminal - 2.0) < 1e-3 for c in cells)
        decay = toy_ode.phase_sweep([1.0], [0.5])
        assert decay[0].outcome == "decayed"
        return ""
    checks.append(_check("toy: attractor sweep and decay line", toy_mini_sweep))

    return checks


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
