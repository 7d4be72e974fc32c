import math

import numpy as np
import pytest

from conftest import (HYPOTHESIS_REPORT_WARNING, c2c_ifft, full_cube_wavenumbers,
                      nyquist_noise_state)
from strainflow import diagnostics, initial_data, solver, spectral, sym3, verify
from strainflow.exceptions import InvalidExponentError, InvalidInputError

TWO_PI_CUBED = (2.0 * np.pi) ** 3


class TestLqNorm:
    def test_constant_field(self, grid16):
        c = 0.7
        field = np.full((grid16.n,) * 3, c)
        for q in (2.0, 3.0, 5.0):
            assert diagnostics.lq_norm(grid16, field, q) == pytest.approx(
                c * (2 * np.pi) ** (3.0 / q), rel=1e-13)
        assert diagnostics.lq_norm(grid16, field, np.inf) == pytest.approx(c)

    def test_shear_lambda2_plus_vanishes(self, grid16):
        _, eig = diagnostics.pointwise_strain_analysis(
            grid16, initial_data.shear(grid16))
        for q in (2.0, 4.0, np.inf):
            assert diagnostics.lq_norm(grid16, eig.lambda2_plus, q) < 1e-13

    def test_smooth_bump_against_quadrature_oracle(self, grid32):
        # f(x,y,z) = exp(cos x + cos y + cos z) is separable, so the L^q
        # integral is a cube of 1-D integrals; the oracle evaluates those
        # on a far finer 1-D grid, independent of the code under test.
        x, y, z = grid32.coords()
        field = np.exp(np.cos(x) + np.cos(y) + np.cos(z))
        fine = np.linspace(0.0, 2.0 * np.pi, 1 << 14, endpoint=False)
        for q in (2.0, 3.0):
            oracle_1d = np.mean(np.exp(q * np.cos(fine))) * 2.0 * np.pi
            oracle = oracle_1d ** (3.0 / q)
            got = diagnostics.lq_norm(grid32, field, q)
            assert abs(got - oracle) / oracle < 1e-6

    def test_exponent_validation(self, grid8):
        field = np.ones((grid8.n,) * 3)
        assert diagnostics.lq_norm(grid8, field, 1.5) > 0  # borderline allowed
        with pytest.raises(InvalidExponentError):
            diagnostics.lq_norm(grid8, field, 1.4)

    def test_negative_field_rejected(self, grid8):
        with pytest.raises(InvalidInputError):
            diagnostics.lq_norm(grid8, -np.ones((grid8.n,) * 3), 2.0)


class TestCriterionExponent:
    def test_pairings(self):
        assert diagnostics.criterion_exponent(np.inf) == 1.0
        assert diagnostics.criterion_exponent(2.0) == pytest.approx(4.0)
        assert diagnostics.criterion_exponent(3.0) == pytest.approx(2.0)

    def test_exponent_relation(self):
        for q in (1.6, 2.0, 5.0, 30.0):
            p = diagnostics.criterion_exponent(q)
            assert 2.0 / p + 3.0 / q == pytest.approx(2.0, rel=1e-12)

    def test_borderline_rejected(self):
        with pytest.raises(InvalidExponentError):
            diagnostics.criterion_exponent(1.5)

    def test_decaying_shear_accumulates_nothing(self, tg16):
        # lambda2+ of a pure shear history is identically zero
        grid = tg16.grid
        config = solver.SolverConfig(n=grid.n, dt=1e-3, t_end=0.05, record_every=10)
        _, records = diagnostics.run_with_diagnostics(
            config, initial_data.shear(grid), grid=grid)
        assert records[-1].criterion_integrals[np.inf] < 1e-13
        assert records[-1].criterion_integrals[2.0] < 1e-13


class TestPointwiseAnalysis:
    def test_shear_middle_eigenvalue_zero(self, grid16):
        _, eig = diagnostics.pointwise_strain_analysis(grid16, initial_data.shear(grid16))
        assert np.max(np.abs(eig.lambda2)) < 1e-13
        assert np.max(eig.lambda2_plus) < 1e-13

    def test_taylor_green_gap_sweep(self, grid16):
        state = solver.SolverState(initial_data.taylor_green(grid16))
        verify.pointwise_inequalities(grid16, [state])

    def test_zero_flow(self, grid8):
        _, eig = diagnostics.pointwise_strain_analysis(
            grid8, np.zeros((3,) + grid8.shape, dtype=complex))
        assert np.max(np.abs(eig.det)) == 0.0
        assert np.max(eig.norm_sq) == 0.0


class TestBudgetResidual:
    def test_exact_shear_history(self, grid16):
        # analytic solution: E(t) = E0 exp(-2t), dissipation = E (|xi| = 1),
        # det identically zero; only finite-difference error remains (the
        # one-sided end stencils need the tighter record spacing)
        config = solver.SolverConfig(n=grid16.n, dt=1e-3, t_end=1.0, record_every=5)
        _, records = diagnostics.run_with_diagnostics(
            config, initial_data.shear(grid16), grid=grid16)
        resid = np.array([r.budget_residual for r in records])
        assert np.max(np.abs(resid)) < 1e-8

    def test_taylor_green_residual(self, tg16):
        verify.enstrophy_budget(tg16.records)

    def test_zero_flow(self, grid8):
        collector = diagnostics.RecordCollector(grid8)
        for i, t in enumerate(np.linspace(0, 1, 6)):
            collector(solver.SolverState(np.zeros((3,) + grid8.shape, dtype=complex), t, i))
        assert all(r.budget_residual == 0.0 for r in collector.finalize())


class TestVortexStretchIdentity:
    def test_shear_all_zero(self, grid16):
        _, records = diagnostics.run_with_diagnostics(
            solver.SolverConfig(n=grid16.n, dt=1e-3, t_end=0.01, record_every=10),
            initial_data.shear(grid16), grid=grid16)
        r = records[0]
        assert abs(r.vortex_stretch) < 1e-13
        assert abs(r.det_integral) < 1e-13
        assert abs(r.tr3_integral) < 1e-13
        assert r.vortex_stretch_residual < 1e-13

    def test_taylor_green_run(self, tg16):
        verify.vortex_stretching(tg16.records)

    def test_random_fields(self, grid16):
        verify.vortex_stretching([], grid16, seeds=range(100, 105))

    def test_collector_rejects_nan_exponent(self, grid8):
        # NaN passes a q < 3/2 test; +inf is the sup norm and stays valid
        with pytest.raises(InvalidExponentError):
            diagnostics.RecordCollector(grid8, q_list=(1.6, math.nan))
        assert math.inf in diagnostics.RecordCollector(grid8, q_list=(math.inf,)).q_list

    def test_integrated_det_bound(self, tg16):
        # -4 int det <= (2/9) sqrt(6) int |S|^3, integrated form
        for r in tg16.records:
            assert -4.0 * r.det_integral <= sym3.DET_BOUND_COEFF * r.strain_cubed * (1 + 1e-12)


class TestGrowthInequality:
    def test_shear_margin_equals_dissipation(self, grid16):
        # dE/dt = -2 diss exactly, lambda2+ = 0, f = 0: margin = diss
        config = solver.SolverConfig(n=grid16.n, dt=1e-3, t_end=0.5, record_every=10)
        _, records = diagnostics.run_with_diagnostics(
            config, initial_data.shear(grid16), grid=grid16)
        for r in records:
            assert r.gcon_margin == pytest.approx(r.dissipation, rel=1e-6)

    def test_taylor_green_margins_nonnegative(self, tg16):
        # with the q = infinity envelope bounding the enstrophy
        verify.growth_inequality(tg16.records, tg16.times)

    def test_envelope_constant_for_shear(self, grid16):
        config = solver.SolverConfig(n=grid16.n, dt=1e-3, t_end=0.2, record_every=10)
        _, records = diagnostics.run_with_diagnostics(
            config, initial_data.shear(grid16), grid=grid16)
        e_series = np.array([r.enstrophy for r in records])
        env = diagnostics.gronwall_envelope(
            np.array([r.t for r in records]), e_series,
            [r.lambda2_norms[np.inf] for r in records])
        assert np.all(env == env[0])
        assert np.all(e_series <= env)


class TestMonitors:
    def test_cubic_margins_positive_for_decay(self, tg16):
        margins = np.array([r.cubic_margin for r in tg16.records])
        assert np.all(np.isfinite(margins))
        assert np.all(margins > 0.0)  # decaying flow: dE/dt < 0

    def test_cubic_margin_scales_with_viscosity(self, grid16):
        # u -> nu u(x, nu t) at nu = 1/2 maps a nu = 1 run onto a nu = 1/2
        # run; powers of two keep the image exact, so E is exactly E/4 at
        # exactly 2t, and the margin, like dE/dt, is 1/8 of the original
        u0 = initial_data.taylor_green(grid16)
        records = {}
        for nu, scale, dt, t_end in ((1.0, 1.0, 1e-3, 0.1), (0.5, 0.5, 2e-3, 0.2)):
            config = solver.SolverConfig(n=16, viscosity=nu, dt=dt, t_end=t_end)
            records[nu] = diagnostics.run_with_diagnostics(config, scale * u0, grid=grid16)[1]
        one, half = records[1.0], records[0.5]
        assert [r.t for r in half] == [2.0 * r.t for r in one]
        assert [r.enstrophy for r in half] == [r.enstrophy / 4.0 for r in one]
        expected = np.array([r.cubic_margin for r in one]) / 8.0
        margins = np.array([r.cubic_margin for r in half])
        assert np.all(np.abs(margins - expected) <= 1e-12 * np.abs(expected))

    def test_borderline_reference_value(self):
        reference = diagnostics.BORDERLINE_REFERENCE
        assert reference == pytest.approx(5.4778, abs=1e-3)
        assert reference == pytest.approx(3.0 * (np.pi / 2.0) ** (4.0 / 3.0), rel=1e-15)

    def test_borderline_shear_far_below(self, grid16):
        _, records = diagnostics.run_with_diagnostics(
            solver.SolverConfig(n=grid16.n, dt=1e-3, t_end=0.01, record_every=10),
            initial_data.shear(grid16), grid=grid16)
        series = np.array([r.lambda2_norms[1.5] for r in records])
        reference = diagnostics.BORDERLINE_REFERENCE
        assert np.all(series < 1e-12) and np.all(series < reference)

    def test_taylor_green_borderline_finite(self, tg16):
        series = np.array([r.lambda2_norms[1.5] for r in tg16.records])
        assert np.all(np.isfinite(series))


def slab_partition(n, count):
    masks = []
    bounds = np.linspace(0, n, count + 1).astype(int)
    base = np.zeros((n, n, n), dtype=bool)
    for lo, hi in zip(bounds, bounds[1:]):
        mask = base.copy()
        mask[lo:hi] = True
        masks.append(mask)
    return masks


class TestDirectionalCriterion:
    def test_shear_null_direction(self, grid16):
        u_hat = initial_data.shear(grid16)
        masks = [np.ones((grid16.n,) * 3, dtype=bool)]
        value = diagnostics.directional_criterion(
            grid16, u_hat, masks, [np.array([0.0, 0.0, 1.0])], 2.0)
        assert value < 1e-13

    def test_shear_streamwise_value(self, grid16):
        # |S e1|_{L2} with S e1 = cos(y) e2 / 2
        u_hat = initial_data.shear(grid16)
        masks = [np.ones((grid16.n,) * 3, dtype=bool)]
        value = diagnostics.directional_criterion(
            grid16, u_hat, masks, [np.array([1.0, 0.0, 0.0])], 2.0)
        assert value == pytest.approx(0.5 * np.sqrt(TWO_PI_CUBED / 2.0), rel=1e-12)

    def test_dominates_lambda2_norms(self, grid16):
        u_hat = initial_data.random_div_free(grid16, seed=40)
        _, eig = diagnostics.pointwise_strain_analysis(grid16, u_hat)
        rng = np.random.default_rng(41)
        masks = slab_partition(grid16.n, 4)
        for q in (2.0, 4.0, np.inf):
            directions = []
            for _ in masks:
                v = rng.standard_normal(3)
                directions.append(v / np.linalg.norm(v))
            value = diagnostics.directional_criterion(grid16, u_hat, masks,
                                                      directions, q)
            lam2_norm = diagnostics.lq_norm(grid16, np.abs(eig.lambda2), q)
            lam2p_norm = diagnostics.lq_norm(grid16, eig.lambda2_plus, q)
            assert value >= lam2_norm * (1.0 - 1e-10)
            assert lam2_norm >= lam2p_norm * (1.0 - 1e-12)

    def test_partition_validation(self, grid8):
        u_hat = initial_data.random_div_free(grid8, seed=42)
        full = np.ones((grid8.n,) * 3, dtype=bool)
        hole = full.copy()
        hole[0, 0, 0] = False
        e1 = np.array([1.0, 0.0, 0.0])
        with pytest.raises(InvalidInputError):
            diagnostics.directional_criterion(grid8, u_hat, [hole], [e1], 2.0)
        with pytest.raises(InvalidInputError):
            diagnostics.directional_criterion(grid8, u_hat, [full, full], [e1, e1], 2.0)

    def test_direction_must_be_unit_3_vector(self, grid8):
        u_hat = initial_data.random_div_free(grid8, seed=42)
        full = [np.ones((grid8.n,) * 3, dtype=bool)]
        for bad in (np.array([1.0, 1.0, 0.0]), np.array([1.0, 0.0]), np.ones((3, 1))):
            with pytest.raises(InvalidInputError):
                diagnostics.directional_criterion(grid8, u_hat, full, [bad], 2.0)

    @pytest.mark.filterwarnings(HYPOTHESIS_REPORT_WARNING)
    @pytest.mark.filterwarnings("error")
    def test_large_q_does_not_overflow(self, grid8):
        # sum |S v|^200 overflowed for a field of amplitude 1e4; the norm is
        # homogeneous of degree one in u
        u_hat = initial_data.random_div_free(grid8, seed=1, amplitude=1e4)
        full = [np.ones((grid8.n,) * 3, dtype=bool)]
        e3 = [np.array([0.0, 0.0, 1.0])]
        value = diagnostics.directional_criterion(grid8, u_hat, full, e3, 200.0)
        unit = diagnostics.directional_criterion(grid8, u_hat * 1e-4, full, e3, 200.0)
        assert math.isfinite(value)
        assert value == pytest.approx(1e4 * unit, rel=1e-12)


def full_cube_reference(grid, u_hat, f_hat=None):
    """Record fields rebuilt on the full cube (the half-spectra u_hat and
    f_hat expanded): c2c inverse transforms, the stretching term from the
    full 3x3 matrix, and spectral sums over every mode; the slow path the
    record's half-spectrum path replaced."""
    _, ksq = full_cube_wavenumbers(grid)
    s_hat = spectral.expand_half(grid, spectral.sym_gradient(grid, u_hat))
    strain = sym3.TraceFreeSym3.from_components(c2c_ifft(s_hat))
    w = c2c_ifft(spectral.expand_half(grid, spectral.vorticity(grid, u_hat)))
    norm_sq = strain.norm_sq()
    lam2p = sym3.eigenvalues(strain).lambda2_plus
    frob_sq = spectral.strain_frobenius_sq(s_hat)
    u_hat = spectral.expand_half(grid, u_hat)
    ref = {
        "enstrophy": float(np.sum(frob_sq)) * grid.spectral_weight,
        "dissipation": float(np.sum(ksq * frob_sq)) * grid.spectral_weight,
        "det_integral": grid.integrate(sym3.det(strain)),
        "tr3_integral": grid.integrate(sym3.tr_cubed(strain)),
        "vortex_stretch": grid.integrate(
            np.einsum("ij...,i...,j...->...", strain.to_matrix(), w, w)),
        "strain_cubed": grid.integrate(norm_sq ** 1.5),
        "lambda2_weighted": grid.integrate(lam2p * norm_sq),
        "force_term": 0.0,
        "force_norm_sq": 0.0,
    }
    if f_hat is not None:
        f_hat = spectral.expand_half(grid, f_hat)
        ref["force_term"] = float(np.sum(ksq * np.real(
            np.conj(u_hat) * f_hat))) * grid.spectral_weight
        ref["force_norm_sq"] = float(np.sum(np.abs(f_hat) ** 2)) * grid.spectral_weight
    return ref, lam2p


def expr_forced_state(grid):
    config = solver.SolverConfig(n=grid.n, dt=1e-3, t_end=0.02,
                                 force="expr:sin(2*y);cos(3*z)*t;sin(x)")
    result = solver.run(config, initial_data.random_div_free(grid, seed=78), grid=grid)
    return result.final_state


class TestHalfSpectrumRecord:
    """The record reads only the kz >= 0 half; every field must match the
    full-cube path it replaced."""

    CANCELLING = ("det_integral", "tr3_integral", "vortex_stretch")

    @pytest.mark.parametrize("case", ["taylor_green", "random_div_free",
                                      "nyquist_noise", "expr_forced"])
    def test_record_matches_full_cube(self, grid16, case):
        force = None
        if case == "taylor_green":
            state = solver.SolverState(initial_data.taylor_green(grid16), 0.0, 0)
        elif case == "random_div_free":
            state = solver.SolverState(initial_data.random_div_free(grid16, seed=76), 0.0, 0)
        elif case == "nyquist_noise":
            state = solver.SolverState(nyquist_noise_state(grid16), 0.0, 0)
        else:
            state = expr_forced_state(grid16)
            force = solver.make_force(grid16, "expr:sin(2*y);cos(3*z)*t;sin(x)")
        f_hat = None if force is None else force(state.t)
        record = diagnostics.RecordCollector(grid16, force=force)(state)
        ref, lam2p = full_cube_reference(grid16, state.u_hat, f_hat)

        cubic = ref["strain_cubed"]
        assert cubic > 0.0
        for name, expected in ref.items():
            got = getattr(record, name)
            if name in self.CANCELLING:
                assert abs(got - expected) <= 1e-12 * cubic, name
            else:
                assert abs(got - expected) <= 1e-12 * abs(expected), name
        if force is not None:
            assert ref["force_norm_sq"] > 0.0 and ref["force_term"] != 0.0

        _, eig = diagnostics.pointwise_strain_analysis(grid16, state.u_hat)
        scale = np.sqrt(np.max(eig.norm_sq))
        assert np.max(np.abs(eig.lambda2_plus - lam2p)) <= 1e-12 * scale
        for q in diagnostics.DEFAULT_Q_LIST:
            expected = diagnostics.lq_norm(grid16, lam2p, q)
            assert record.lambda2_norms[q] == pytest.approx(expected, rel=1e-12)
            assert diagnostics.lq_norm(grid16, eig.lambda2_plus, q) == pytest.approx(
                expected, rel=1e-12)


    @pytest.mark.parametrize("n", [8, 12, 16, 24, 32])
    def test_record_fields_are_the_allocating_transforms(self, n, monkeypatch):
        # the strain, then the vorticity, pass through the collector's one
        # workspace; each field and the stretching integral keep the bits of
        # the allocating calls and the whole-field expression, record after record
        grid = spectral.Grid(n)
        fields = []

        def kept(*args, **kwargs):
            fields.append(spectral.ifft_in_place(*args, **kwargs))
            return fields[-1]

        monkeypatch.setattr(diagnostics, "ifft_in_place", kept)
        collector = diagnostics.RecordCollector(grid)
        for seed in (n, n + 1):
            u_hat = initial_data.random_div_free(grid, seed=seed)
            fields.clear()
            record = collector(solver.SolverState(u_hat, 0.0, 0))
            strain, w = fields
            assert np.array_equal(strain, grid.ifft(spectral.sym_gradient(grid, u_hat)))
            assert np.array_equal(w, grid.ifft(spectral.vorticity(grid, u_hat)))
            m = sym3.TraceFreeSym3.from_components(strain)
            stretch = (m.m11 * w[0] ** 2 + m.m22 * w[1] ** 2 + m.m33 * w[2] ** 2
                       + 2.0 * (m.m12 * w[0] * w[1] + m.m13 * w[0] * w[2]
                                + m.m23 * w[1] * w[2]))
            assert record.vortex_stretch == grid.integrate(stretch)


class TestRecordsAndCsv:
    def test_csv_contract(self, tmp_path, grid16):
        config = solver.SolverConfig(n=grid16.n, dt=1e-3, t_end=0.05, record_every=10)
        _, records = diagnostics.run_with_diagnostics(
            config, initial_data.taylor_green(grid16), grid=grid16)
        path = tmp_path / "records.csv"
        diagnostics.write_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("t,E,diss_H1,det_int,tr3_int,vortex_stretch,"
                            "lam2p_Linf,lam2p_L2,lam2p_L32,crit_int_qinf,"
                            "crit_int_q2,budget_resid,vs_ident_resid,"
                            "gcon_margin,cubic_margin,force_term")
        assert len(lines) == len(records) + 1
        # every float round-trips through its printed representation
        for line, record in zip(lines[1:], records):
            cells = line.split(",")
            assert float(cells[1]) == record.enstrophy
            assert float(cells[2]) == record.dissipation

    def test_short_series_gets_nan_columns(self, grid8):
        # the fourth-order dE/dt needs at least 5 records
        for count in (3, 4):
            collector = diagnostics.RecordCollector(grid8)
            for i in range(count):
                collector(solver.SolverState(
                    initial_data.taylor_green(grid8), 0.1 * i, i))
            records = collector.finalize()
            assert math.isnan(records[0].budget_residual)
            assert math.isnan(records[0].gcon_margin)
            assert math.isnan(records[0].cubic_margin)
            assert np.isfinite(records[0].vortex_stretch_residual)

    def test_non_uniform_series_keeps_criterion_integrals(self, grid8):
        # diagnose input: six records at uneven times get no dE/dt, but the
        # criterion integrals are trapezoids over the times as given
        times = [0.0, 0.1, 0.15, 0.35, 0.4, 0.7]
        u_hat = initial_data.random_div_free(grid8, seed=12)
        collector = diagnostics.RecordCollector(grid8)
        for i, t in enumerate(times):
            collector(solver.SolverState((1.0 + i) * u_hat, t, i))
        records = collector.finalize()
        for r in records:
            assert math.isnan(r.budget_residual)
            assert math.isnan(r.gcon_margin)
            assert math.isnan(r.cubic_margin)
        for q, p in ((np.inf, 1.0), (2.0, 4.0)):
            assert records[0].criterion_integrals[q] == 0.0
            total = 0.0
            for prev, r in zip(records, records[1:]):
                total += 0.5 * (prev.lambda2_norms[q] ** p + r.lambda2_norms[q] ** p) * (
                    r.t - prev.t)
                assert r.criterion_integrals[q] == pytest.approx(total, rel=1e-14)
            assert total > 0.0

    def test_identical_runs_identical_csv(self, tmp_path, grid8):
        def run_once(path):
            config = solver.SolverConfig(n=grid8.n, dt=2e-3, t_end=0.02,
                                         record_every=5)
            u0 = initial_data.random_div_free(grid8, seed=9)
            _, records = diagnostics.run_with_diagnostics(config, u0, grid=grid8)
            diagnostics.write_csv(records, path)
            return path.read_bytes()

        assert run_once(tmp_path / "a.csv") == run_once(tmp_path / "b.csv")

    def test_enstrophy_equivalences_on_snapshots(self, tg16):
        # E = |S|^2 = |w|^2/2 = |grad u|^2/2 record by record
        grid = tg16.grid
        for state, record in zip(tg16.states, tg16.records):
            report = spectral.isometry_audit(grid, state.u_hat, 0.0)
            assert record.enstrophy == pytest.approx(report.strain_sq, rel=1e-12)
            assert record.enstrophy == pytest.approx(report.half_vorticity_sq, rel=1e-12)
            assert record.enstrophy == pytest.approx(report.half_gradient_sq, rel=1e-12)

    def test_tr3_is_three_det_on_records(self, tg16):
        for r in tg16.records:
            scale = max(abs(r.tr3_integral), abs(3 * r.det_integral), r.strain_cubed)
            assert abs(r.tr3_integral - 3.0 * r.det_integral) <= 1e-12 * scale
