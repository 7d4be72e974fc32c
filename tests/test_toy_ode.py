import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strainflow import sym3, toy_ode, verify
from strainflow.exceptions import InvalidInputError
from strainflow.verify import random_rotation, random_trace_free, rotate as rotate_matrix

GOLDEN_BLOWUP = sym3.TraceFreeSym3(-2.0, 1.0, 0.0, 0.0, 0.0)
GOLDEN_DECAY = sym3.TraceFreeSym3(-1.0, -1.0, 0.0, 0.0, 0.0)


class TestRightHandSides:
    def test_matrix_rhs_self_amplifying_direction(self):
        # M = diag(-2,1,1): M^2 = diag(4,1,1), |M|^2 = 6, rhs = M itself
        out = toy_ode.rhs_matrix(GOLDEN_BLOWUP)
        assert out.m11 == pytest.approx(-2.0)
        assert out.m22 == pytest.approx(1.0)
        for entry in (out.m12, out.m13, out.m23):
            assert entry == pytest.approx(0.0, abs=1e-15)

    def test_matrix_rhs_zero(self):
        out = toy_ode.rhs_matrix(sym3.TraceFreeSym3(0, 0, 0, 0, 0))
        assert out.norm() == 0.0

    def test_matrix_rhs_trace_free_structurally(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = toy_ode.rhs_matrix(random_trace_free(rng))
            assert out.m11 + out.m22 + out.m33 == 0.0

    def test_matrix_rhs_matches_matrix_arithmetic(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = random_trace_free(rng)
            a = m.to_matrix()
            expected = -a @ a + (m.norm_sq() / 3.0) * np.eye(3)
            got = toy_ode.rhs_matrix(m).to_matrix()
            assert np.max(np.abs(got - expected)) < 1e-13 * max(m.norm_sq(), 1.0)

    def test_reduced_rhs_fixed_ratios(self):
        dl3, dr = toy_ode.rhs_reduced(1.5, 2.0)
        assert dr == 0.0
        assert dl3 == pytest.approx(1.5 ** 2)  # growth polynomial equals 3 at r=2
        dl3, dr = toy_ode.rhs_reduced(1.5, 0.5)
        assert dr == 0.0
        assert dl3 == pytest.approx(-0.5 * 1.5 ** 2)

    def test_reduced_rhs_growth_zero(self):
        r_star = (1.0 + math.sqrt(3.0)) / 2.0
        dl3, dr = toy_ode.rhs_reduced(2.0, r_star)
        assert dl3 == pytest.approx(0.0, abs=1e-14)
        assert dr > 0.0

    def test_reduced_rhs_validates(self):
        with pytest.raises(InvalidInputError):
            toy_ode.rhs_reduced(1.0, 2.5)
        with pytest.raises(InvalidInputError):
            toy_ode.rhs_reduced(-1.0, 1.0)


class TestGoldenSolutions:
    # the golden families are registry checks; criterion 10 runs all scales
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_blowup_family(self, c):
        verify.toy_scaling_families(blowup=(c,), decay=())

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_decay_family(self, c):
        verify.toy_scaling_families(blowup=(), decay=(c,))

    def test_decay_family_long_run_lands_in_decayed_bucket(self):
        res = toy_ode.integrate(toy_ode.ToyState.from_matrix(GOLDEN_DECAY),
                                t_end=1e7)
        assert res.outcome == "decayed"
        assert res.final_matrix.norm() < 1e-6

    def test_reduced_blowup_from_mid_ratio(self):
        res = toy_ode.integrate(toy_ode.ToyState.from_reduced(1.0, 1.0), t_end=100.0)
        assert res.outcome == "blew_up"
        # near blow-up the ratio has locked onto 2
        t_probe = res.t_est * (1.0 - 1e-6)
        idx = np.searchsorted(res.trajectory.t, t_probe)
        idx = min(idx, res.trajectory.t.size - 1)
        assert abs(res.trajectory.r[idx] - 2.0) < 1e-3

    def test_rotated_initial_data_same_blowup_time(self):
        rng = np.random.default_rng(5)
        base = toy_ode.integrate(toy_ode.ToyState.from_matrix(GOLDEN_BLOWUP),
                                 t_end=10.0)
        rotated = rotate_matrix(GOLDEN_BLOWUP, random_rotation(rng))
        res = toy_ode.integrate(toy_ode.ToyState.from_matrix(rotated), t_end=10.0)
        assert res.outcome == "blew_up"
        assert abs(res.t_est - base.t_est) < 1e-7


class TestTrajectoryStructure:
    def test_ratio_monotone_nondecreasing(self):
        res = toy_ode.integrate(toy_ode.ToyState.from_reduced(1.0, 0.7), t_end=100.0)
        r = res.trajectory.r
        assert np.all(np.diff(r) >= -1e-12)

    def test_reciprocal_slope_approaches_minus_one(self):
        res = toy_ode.integrate(toy_ode.ToyState.from_reduced(1.0, 1.2), t_end=100.0)
        lam3 = res.trajectory.lambda3
        t = res.trajectory.t
        window = lam3 >= lam3[-1] / 10.0  # last decade of growth
        slope = np.polyfit(t[window], 1.0 / lam3[window], 1)[0]
        assert abs(slope + 1.0) < 1e-2

    def test_eigenvalue_sum_stays_zero(self):
        rng = np.random.default_rng(6)
        m0 = rotate_matrix(sym3.TraceFreeSym3(-1.1, 0.3, 0.0, 0.0, 0.0),
                           random_rotation(rng))
        res = toy_ode.integrate(toy_ode.ToyState.from_matrix(m0), t_end=100.0,
                                blowup_threshold=1e8)
        traj = res.trajectory
        total = traj.lambda1 + traj.lambda2 + traj.lambda3
        assert np.all(np.abs(total) <= 1e-10 * np.maximum(traj.lambda3, 1.0))

    def test_eigenvectors_frozen(self):
        # the right side commutes with M, so the eigenframe never rotates;
        # checked on the bottom eigenvector, which stays well separated
        rng = np.random.default_rng(7)
        m0 = rotate_matrix(sym3.TraceFreeSym3(-1.4, 0.2, 0.0, 0.0, 0.0),
                           random_rotation(rng))
        res = toy_ode.integrate(toy_ode.ToyState.from_matrix(m0), t_end=100.0,
                                blowup_threshold=1e6)
        _, vecs0 = np.linalg.eigh(m0.to_matrix())
        _, vecs1 = np.linalg.eigh(res.final_matrix.to_matrix() /
                                  res.final_matrix.norm())
        drift = 1.0 - abs(np.dot(vecs0[:, 0], vecs1[:, 0]))
        assert drift < 1e-8

    def test_matrix_and_reduced_agree(self):
        verify.toy_reduced_vs_matrix(np.random.default_rng(8))


class TestBlowupTimeBound:
    def test_tight_on_scaling_family(self):
        assert toy_ode.blowup_time_bound(1.0, 2.0) == pytest.approx(1.0)
        res = toy_ode.integrate(toy_ode.ToyState.from_reduced(1.0, 2.0), t_end=5.0)
        assert res.t_est <= toy_ode.blowup_time_bound(1.0, 2.0) * (1 + 1e-6)

    def test_respected_above_growth_zero(self):
        bound = toy_ode.blowup_time_bound(1.0, 1.9)
        res = toy_ode.integrate(toy_ode.ToyState.from_reduced(1.0, 1.9), t_end=10.0)
        assert res.outcome == "blew_up"
        assert res.t_est <= bound * (1 + 1e-6)

    def test_none_below_growth_zero(self):
        assert toy_ode.blowup_time_bound(1.0, 1.0) is None
        assert toy_ode.blowup_time_bound(1.0, 0.5) is None


class TestPhaseSweep:
    def test_mini_sweep_all_blow_up(self):
        # the decay line rides along, as in `strainflow verify`
        verify.toy_sweep(np.linspace(0.2, 5.0, 4), np.linspace(0.55, 2.0, 4),
                         decay_lambda3s=(0.5, 2.0))

    def test_bounds_respected(self):
        verify.toy_sweep([0.5, 3.0], [1.4, 1.7, 2.0], decay_lambda3s=())


class TestStateAndCsv:
    def test_state_validation(self):
        with pytest.raises(InvalidInputError):
            toy_ode.ToyState()
        with pytest.raises(InvalidInputError):
            toy_ode.ToyState(matrix=GOLDEN_BLOWUP, lambda3=1.0, r=1.0)
        with pytest.raises(InvalidInputError):
            toy_ode.ToyState.from_reduced(-1.0, 1.0)
        with pytest.raises(InvalidInputError):
            toy_ode.ToyState.from_reduced(1.0, 2.5)
        with pytest.raises(InvalidInputError):
            toy_ode.ToyState.from_reduced(math.inf, 1.0)
        with pytest.raises(InvalidInputError):
            toy_ode.phase_sweep([1.0], [1.0, 3.0])

    def test_trajectory_csv(self, tmp_path):
        res = toy_ode.integrate(toy_ode.ToyState.from_matrix(GOLDEN_BLOWUP),
                                t_end=5.0)
        path = tmp_path / "traj.csv"
        toy_ode.write_trajectory_csv(res.trajectory, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,lambda1,lambda2,lambda3,r,inv_lambda3"
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0 and first[3] == pytest.approx(1.0, abs=1e-12)

    def test_sweep_csv(self, tmp_path):
        cells = toy_ode.phase_sweep([1.0], [0.5, 2.0])
        path = tmp_path / "sweep.csv"
        toy_ode.write_sweep_csv(cells, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "lambda3_0,r_0,outcome,T_est,r_terminal"
        assert "decayed" in lines[1] and "blew_up" in lines[2]


ratio_values = st.floats(min_value=0.5, max_value=2.0,
                         allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(ratio_values, st.floats(min_value=1e-3, max_value=1e3))
def test_reduced_rhs_preserves_invariant_region(r, lam3):
    dl3, dr = toy_ode.rhs_reduced(lam3, r)
    # the ratio polynomial is nonnegative on [1/2, 2]: r drifts upward
    assert dr >= 0.0
    # eigenvalue identities in reduced coordinates
    lam1, lam2 = -r * lam3, (r - 1.0) * lam3
    assert lam1 <= lam2 <= lam3
    assert abs(lam1 + lam2 + lam3) <= 1e-12 * lam3
