"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints one pass line (visible with pytest -s) carrying the
measured quantity and wall time.  Shared reference runs are built lazily
and charged to the first criterion that needs them, so the stated
runtime budgets include the integration they require.
"""

import math
import time

import numpy as np
import pytest

from conftest import random_rotation, random_trace_free, rotate_matrix
from strainflow import (diagnostics, initial_data, solver, spectral, sym3,
                        toy_ode)
from strainflow.spectral import Grid

_cache = {}


def tg_reference(dt=1e-3, keep_states=True):
    """Taylor-Green n=32, nu=1, t in [0, 1], records every 10 steps."""
    key = (dt, keep_states)
    if key not in _cache:
        grid = Grid(32)
        config = solver.SolverConfig(n=32, viscosity=1.0, dt=dt, t_end=1.0,
                                     record_every=10)
        result, records = diagnostics.run_with_diagnostics(
            config, initial_data.taylor_green(grid), grid=grid, keep_states=keep_states)
        _cache[key] = (grid, result, records)
    return _cache[key]


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start


def _report(number, label, detail, timer, budget):
    print(f"PASS criterion {number:02d} ({label}): {detail} "
          f"[{timer.seconds:.2f}s < {budget:g}s]")
    assert timer.seconds < budget


def test_criterion_01_cubic_trace_identity():
    with _Timer() as t:
        rng = np.random.default_rng(101)
        m = random_trace_free(rng, shape=(10_000,), scale=2.0)
        diff = np.abs(sym3.tr_cubed(m) - 3.0 * sym3.det(m))
        rel = diff / np.maximum(m.norm() ** 3, 1e-300)
        worst = float(rel.max())
        assert worst < 1e-12
    _report(1, "tr(S^3) = 3 det(S)", f"max rel {worst:.2e}", t, 1.0)


def test_criterion_02_determinant_bound_sweep():
    with _Timer() as t:
        rng = np.random.default_rng(102)
        m = random_trace_free(rng, shape=(10_000,), scale=2.0)
        gap = sym3.det_bound_gap(m)
        assert np.all(gap >= -1e-12 * m.norm() ** 3)
        worst_family = 0.0
        for _ in range(1000):
            c = rng.uniform(0.2, 3.0)
            rotated = rotate_matrix(sym3.TraceFreeSym3(-2 * c, c, 0, 0, 0),
                                    random_rotation(rng))
            worst_family = max(worst_family,
                               abs(sym3.det_bound_gap(rotated)) / rotated.norm() ** 3)
        assert worst_family < 1e-12
    _report(2, "cubic determinant bound", f"family gap {worst_family:.2e}", t, 1.0)


def test_criterion_03_middle_eigenvalue_bound_sweep():
    with _Timer() as t:
        grid, result, _ = tg_reference()  # first consumer pays for the run
        rng = np.random.default_rng(103)
        m = random_trace_free(rng, shape=(10_000,), scale=2.0)
        assert np.all(sym3.lambda2_bound_gap(m) >= -1e-12 * m.norm() ** 3)
        worst = 0.0
        for state in result.states:
            data = diagnostics.pointwise_strain_analysis(grid, state.u_hat)
            cube = np.maximum(data.strain.norm() ** 3, 1e-300)
            worst = min(worst, float((sym3.lambda2_bound_gap(data.strain) / cube).min()))
            assert np.all(sym3.lambda2_bound_gap(data.strain) >= -1e-12 * cube)
    _report(3, "-det <= |S|^2 l2+/2 pointwise",
            f"min scaled gap {worst:.2e} over {len(result.states)} snapshots", t, 30.0)


def test_criterion_04_isometry_audit():
    with _Timer() as t:
        grid = Grid(32)
        worst = 0.0
        for seed in range(20):
            u_hat = initial_data.random_div_free(grid, seed=200 + seed)
            for alpha in (0.0, 1.0):
                report = spectral.isometry_audit(grid, u_hat, alpha)
                worst = max(worst, report.max_rel_deviation)
        assert worst < 1e-12
    _report(4, "gradient-energy isometries", f"max deviation {worst:.2e}", t, 10.0)


def test_criterion_05_strain_constraint_both_directions():
    with _Timer() as t:
        grid = Grid(32)
        worst_resid = 0.0
        worst_roundtrip = 0.0
        for seed in range(5):
            u_hat = initial_data.random_div_free(grid, seed=300 + seed)
            s_hat = spectral.sym_gradient(grid, u_hat)
            worst_resid = max(worst_resid, spectral.consistency_residual(grid, s_hat))
            back = spectral.velocity_from_strain(grid, s_hat)
            err = np.sqrt(spectral.sobolev_norm_sq(grid, back - u_hat)
                          / spectral.sobolev_norm_sq(grid, u_hat))
            worst_roundtrip = max(worst_roundtrip, err)
        assert worst_resid < 1e-13
        assert worst_roundtrip < 1e-12
        bad = np.zeros((5, 32, 32, 32), dtype=complex)
        bad[0, 0, 1, 0] = -1.0 / 3.0   # trace-corrected Hessian-type mode
        bad[1, 0, 1, 0] = 2.0 / 3.0
        hess_resid = spectral.consistency_residual(grid, bad)
        assert hess_resid > 0.1
    _report(5, "strain constraint + reconstruction",
            f"strain resid {worst_resid:.1e}, roundtrip {worst_roundtrip:.1e}, "
            f"Hessian resid {hess_resid:.2f}", t, 5.0)


def test_criterion_06_vortex_stretching_identity():
    grid, _, records = tg_reference()
    with _Timer() as t:
        worst = max(r.vortex_stretch_residual for r in records)
        collector = diagnostics.RecordCollector(grid)
        for seed in range(20):
            u_hat = initial_data.random_div_free(grid, seed=400 + seed)
            record = collector(solver.SolverState(u_hat, 0.0, 0))
            worst = max(worst, record.vortex_stretch_residual)
        assert worst < 1e-10
    _report(6, "<S, w x w> = -4 int det = -(4/3) int tr(S^3)",
            f"max residual {worst:.2e}", t, 10.0)


def test_criterion_07_enstrophy_budget_and_refinement():
    with _Timer() as t:
        _, _, records = tg_reference(dt=1e-3)
        _, _, records_half = tg_reference(dt=5e-4, keep_states=False)
        resid = max(abs(r.budget_residual) for r in records)
        resid_half = max(abs(r.budget_residual) for r in records_half)
        assert resid < 1e-5
        ratio = resid / resid_half
        assert 8.0 < ratio < 32.0  # fourth-order: ~16x per halving
    _report(7, "enstrophy budget residual",
            f"resid {resid:.2e}, halved-dt ratio {ratio:.1f}", t, 300.0)


def test_criterion_08_exact_shear_solution():
    with _Timer() as t:
        grid = Grid(16)
        config = solver.SolverConfig(n=16, viscosity=1.0, dt=1e-3, t_end=1.0,
                                     record_every=10)
        result = solver.run(config, initial_data.shear(grid), grid=grid,
                            keep_states=True)
        assert result.final_state.step_count == 1000
        u_phys = grid.ifft(result.final_state.u_hat)
        _, y, _ = grid.coords()
        expected = math.exp(-1.0) * np.broadcast_to(np.sin(y), (16,) * 3)
        decay_err = np.max(np.abs(u_phys[0] - expected)) / math.exp(-1.0)
        assert decay_err < 1e-9
        energy_resid = float(np.max(np.abs(solver.energy_budget(grid, result.states))))
        assert energy_resid < 1e-8
    _report(8, "exact single-mode decay",
            f"decay err {decay_err:.2e}, energy resid {energy_resid:.2e}", t, 10.0)


def test_criterion_09_growth_inequality_and_envelope():
    _, result, records = tg_reference()
    with _Timer() as t:
        scale = max(r.enstrophy for r in records)
        min_margin = min(r.gcon_margin for r in records)
        assert min_margin >= -1e-6 * scale
        e_series = np.array([r.enstrophy for r in records])
        linf = [r.lambda2_norms[np.inf] for r in records]
        envelope = diagnostics.gronwall_envelope(result.times, e_series, linf)
        assert np.all(e_series <= envelope * (1.0 + 1e-6))
    _report(9, "growth inequality + Gronwall envelope",
            f"min margin {min_margin:.3g}, envelope holds at {len(records)} records",
            t, 300.0)


def test_criterion_10_toy_model_golden_solutions():
    with _Timer() as t:
        worst_t = 0.0
        for c in (0.5, 1.0, 2.0):
            m0 = sym3.TraceFreeSym3(-2.0 * c, c, 0.0, 0.0, 0.0)
            res = toy_ode.integrate(toy_ode.ToyState.from_matrix(m0),
                                    t_end=10.0 / c)
            assert res.outcome == "blew_up"
            worst_t = max(worst_t, abs(res.t_est - 1.0 / c) * c)
        assert worst_t < 1e-6
        worst_decay = 0.0
        for c in (0.5, 1.0, 2.0):
            m0 = sym3.TraceFreeSym3(-c, -c, 0.0, 0.0, 0.0)
            res = toy_ode.integrate(toy_ode.ToyState.from_matrix(m0), t_end=10.0)
            expected = 2.0 * c / (1.0 + 10.0 * c)
            worst_decay = max(worst_decay,
                              abs(res.trajectory.lambda3[-1] - expected))
        assert worst_decay < 1e-8
    _report(10, "toy-model scaling families",
            f"blow-up time err {worst_t:.2e}, decay err {worst_decay:.2e}", t, 5.0)


def test_criterion_11_toy_model_attractor_sweep():
    with _Timer() as t:
        cells = toy_ode.phase_sweep(np.linspace(0.1, 10.0, 20),
                                    np.linspace(0.51, 2.0, 20))
        assert len(cells) == 400
        assert all(c.outcome == "blew_up" for c in cells)
        worst_r = max(abs(c.r_terminal - 2.0) for c in cells)
        assert worst_r < 1e-3
        checked = 0
        for cell in cells:
            bound = toy_ode.blowup_time_bound(cell.lambda3_0, cell.r_0)
            if bound is not None:
                checked += 1
                assert cell.t_est <= bound * (1.0 + 1e-6)
        assert checked > 0
    _report(11, "toy-model attractor sweep",
            f"400/400 blew up, max |r_end - 2| = {worst_r:.2e}, "
            f"{checked} bounds respected", t, 60.0)


def test_criterion_12_directional_machinery():
    grid, result, _ = tg_reference()
    with _Timer() as t:
        rng = np.random.default_rng(112)
        snapshots = result.states[::10]
        worst = np.inf
        for trial in range(10):
            splits = np.sort(rng.choice(np.arange(1, 32), size=3, replace=False))
            bounds = [0, *splits, 32]
            directions = []
            for _ in range(4):
                v = rng.standard_normal(3)
                directions.append(v / np.linalg.norm(v))
            state = snapshots[trial % len(snapshots)]
            data = diagnostics.pointwise_strain_analysis(grid, state.u_hat)
            for (lo, hi), v in zip(zip(bounds, bounds[1:]), directions):
                sv = sym3.apply_to_vector(data.strain, v)
                mag = np.sqrt(sv[0] ** 2 + sv[1] ** 2 + sv[2] ** 2)[lo:hi]
                lam2 = np.abs(data.eig.lambda2)[lo:hi]
                gap = mag - lam2 + 1e-12 * data.strain.norm()[lo:hi]
                worst = min(worst, float(gap.min()))
                assert np.all(gap >= 0.0)
        shear_grid = Grid(16)
        u_shear = initial_data.shear(shear_grid)
        shear_data = diagnostics.pointwise_strain_analysis(shear_grid, u_shear)
        assert np.max(shear_data.eig.lambda2_plus) < 1e-13
        full = [np.ones((16,) * 3, dtype=bool)]
        null_norm = diagnostics.directional_criterion(
            shear_grid, u_shear, full, [np.array([0.0, 0.0, 1.0])], 2.0)
        assert null_norm < 1e-13
    _report(12, "directional strain machinery",
            f"min pointwise slack {worst:.2e}, shear null norm {null_norm:.1e}",
            t, 30.0)


def test_criterion_13_monitors_never_asserted():
    _, result, records = tg_reference()
    with _Timer() as t:
        # the whole-space constants stay monitors: emitted, finite, and
        # nothing is asserted against their sharp values
        cubic = np.array([r.cubic_margin for r in records])
        assert np.all(np.isfinite(cubic))
        series, reference = diagnostics.borderline_monitor(
            [r.lambda2_norms[1.5] for r in records])
        assert np.all(np.isfinite(series))
        assert reference == pytest.approx(3.0 * (math.pi / 2.0) ** (4.0 / 3.0),
                                          rel=1e-15)
        assert reference == pytest.approx(5.4778, abs=1e-3)
        assert "cubic_margin" in diagnostics.CSV_COLUMNS
        assert "lam2p_L32" in diagnostics.CSV_COLUMNS
    _report(13, "desk-scale limits monitored only",
            f"cubic margin and borderline series emitted, reference "
            f"{reference:.4f}", t, 10.0)
