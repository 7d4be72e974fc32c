import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rhs_matrix
from strainflow import sym3, toy_ode, verify
from strainflow.exceptions import InvalidInputError, NumericalFailureError
from strainflow.toy_ode import (
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54, _A61, _A62, _A63,
    _A64, _A65, _B1, _B3, _B4, _B5, _B6, _E1, _E3, _E4, _E5, _E6, _E7, _MAX_STEPS,
    _RATIO_CLAMP, _KahanClock, _growth_poly, _ratio_poly, _step_factor)
from strainflow.verify import random_rotation, random_trace_free, rotate as rotate_matrix

GOLDEN_BLOWUP = sym3.TraceFreeSym3(-2.0, 1.0, 0.0, 0.0, 0.0)
GOLDEN_DECAY = sym3.TraceFreeSym3(-1.0, -1.0, 0.0, 0.0, 0.0)


class TestRightHandSides:
    def test_matrix_rhs_self_amplifying_direction(self):
        # M = diag(-2,1,1): M^2 = diag(4,1,1), |M|^2 = 6, rhs = M itself
        out = rhs_matrix(GOLDEN_BLOWUP)
        assert out.m11 == pytest.approx(-2.0)
        assert out.m22 == pytest.approx(1.0)
        for entry in (out.m12, out.m13, out.m23):
            assert entry == pytest.approx(0.0, abs=1e-15)

    def test_matrix_rhs_zero(self):
        out = rhs_matrix(sym3.TraceFreeSym3(0, 0, 0, 0, 0))
        assert out.norm() == 0.0

    def test_matrix_rhs_trace_free_structurally(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = rhs_matrix(random_trace_free(rng))
            assert out.m11 + out.m22 + out.m33 == 0.0

    def test_matrix_rhs_matches_matrix_arithmetic(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = random_trace_free(rng)
            a = m.to_matrix()
            expected = -a @ a + (m.norm_sq() / 3.0) * np.eye(3)
            got = rhs_matrix(m).to_matrix()
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
        res = toy_ode.integrate_matrix(GOLDEN_DECAY, t_end=1e7)
        assert res.outcome == "decayed"
        assert res.final_matrix.norm() < 1e-6

    def test_reduced_blowup_from_mid_ratio(self):
        res = toy_ode.integrate_reduced(1.0, 1.0, t_end=100.0)
        assert res.outcome == "blew_up"
        # near blow-up the ratio has locked onto 2
        t_probe = res.t_est * (1.0 - 1e-6)
        idx = np.searchsorted(res.trajectory.t, t_probe)
        idx = min(idx, res.trajectory.t.size - 1)
        assert abs(res.trajectory.r[idx] - 2.0) < 1e-3

    def test_rotated_initial_data_same_blowup_time(self):
        rng = np.random.default_rng(5)
        base = toy_ode.integrate_matrix(GOLDEN_BLOWUP, t_end=10.0)
        rotated = rotate_matrix(GOLDEN_BLOWUP, random_rotation(rng))
        res = toy_ode.integrate_matrix(rotated, t_end=10.0)
        assert res.outcome == "blew_up"
        assert abs(res.t_est - base.t_est) < 1e-7


class TestTrajectoryStructure:
    def test_ratio_monotone_nondecreasing(self):
        res = toy_ode.integrate_reduced(1.0, 0.7, t_end=100.0)
        r = res.trajectory.r
        assert np.all(np.diff(r) >= -1e-12)

    def test_reciprocal_slope_approaches_minus_one(self):
        res = toy_ode.integrate_reduced(1.0, 1.2, t_end=100.0)
        lam3 = res.trajectory.lambda3
        t = res.trajectory.t
        window = lam3 >= lam3[-1] / 10.0  # last decade of growth
        slope = np.polyfit(t[window], 1.0 / lam3[window], 1)[0]
        assert abs(slope + 1.0) < 1e-2

    def test_eigenvalue_sum_stays_zero(self):
        rng = np.random.default_rng(6)
        m0 = rotate_matrix(sym3.TraceFreeSym3(-1.1, 0.3, 0.0, 0.0, 0.0),
                           random_rotation(rng))
        res = toy_ode.integrate_matrix(m0, t_end=100.0, blowup_threshold=1e8)
        traj = res.trajectory
        total = traj.lambda1 + traj.lambda2 + traj.lambda3
        assert np.all(np.abs(total) <= 1e-10 * np.maximum(traj.lambda3, 1.0))

    def test_eigenvectors_frozen(self):
        # the right side commutes with M, so the eigenframe never rotates;
        # checked on the bottom eigenvector, which stays well separated
        rng = np.random.default_rng(7)
        m0 = rotate_matrix(sym3.TraceFreeSym3(-1.4, 0.2, 0.0, 0.0, 0.0),
                           random_rotation(rng))
        res = toy_ode.integrate_matrix(m0, t_end=100.0, blowup_threshold=1e6)
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
        res = toy_ode.integrate_reduced(1.0, 2.0, t_end=5.0)
        assert res.t_est <= toy_ode.blowup_time_bound(1.0, 2.0) * (1 + 1e-6)

    def test_respected_above_growth_zero(self):
        bound = toy_ode.blowup_time_bound(1.0, 1.9)
        res = toy_ode.integrate_reduced(1.0, 1.9, t_end=10.0)
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

    def test_blowup_time_matches_closed_form(self, criterion_cells):
        # dr/dt = lambda3 h(r) / 3 and lambda3 h(r)^(1/3) is conserved, so
        # T = 3 / (lambda3_0 h(r_0)^(1/3)) int_{r_0}^2 h(r)^(-2/3) dr
        from scipy.integrate import quad

        def closed_form(lambda3_0, r_0):
            if r_0 == 2.0:
                return 1.0 / lambda3_0
            # (2 - r)^(-2/3) is quad's algebraic weight; the rest is smooth
            integral, _ = quad(lambda r: ((2.0 * r - 1.0) * (r + 1.0)) ** (-2.0 / 3.0),
                               r_0, 2.0, weight="alg", wvar=(0.0, -2.0 / 3.0),
                               epsabs=0.0, epsrel=1e-13)
            h_0 = (2.0 * r_0 - 1.0) * (2.0 - r_0) * (r_0 + 1.0)
            return 3.0 * integral / (lambda3_0 * h_0 ** (1.0 / 3.0))

        cells = [c for c in criterion_cells if c.r_0 > 0.5]
        assert len(cells) == 400
        worst = max(abs(c.t_est / closed_form(c.lambda3_0, c.r_0) - 1.0) for c in cells)
        assert worst < 1e-8


class TestStateAndCsv:
    def test_state_validation(self):
        with pytest.raises(InvalidInputError):
            toy_ode.integrate_reduced(-1.0, 1.0, 1.0)
        with pytest.raises(InvalidInputError):
            toy_ode.integrate_reduced(1.0, 2.5, 1.0)
        with pytest.raises(InvalidInputError):
            toy_ode.integrate_reduced(math.inf, 1.0, 1.0)
        with pytest.raises(InvalidInputError):
            toy_ode.phase_sweep([1.0], [1.0, 3.0])

    @pytest.mark.parametrize("setting", [
        {"t_end": math.nan}, {"t_end": 0.0}, {"t_end": -1.0}, {"t_end": math.inf},
        {"blowup_threshold": -1.0}, {"blowup_threshold": math.nan},
        {"blowup_threshold": math.inf}],
        ids=["t_end_nan", "t_end_0", "t_end_-1", "t_end_inf", "threshold_-1",
             "threshold_nan", "threshold_inf"])
    def test_run_settings_validation(self, setting):
        # a sweep took each: t_end = nan blew up, 0 and -1 completed without
        # a step, threshold -1 blew up at 1.00015 and nan underflowed its step
        kwargs = {"t_end": 10.0, **setting}
        [(name, value)] = setting.items()
        for call in (lambda: toy_ode.phase_sweep([1.0], [0.7], **kwargs),
                     lambda: toy_ode.integrate_reduced(1.0, 0.7, **kwargs),
                     lambda: toy_ode.integrate_matrix(GOLDEN_BLOWUP, **kwargs)):
            with pytest.raises(InvalidInputError,
                               match=f"^{name} must be positive and finite, got {value}$"):
                call()

    def test_trajectory_csv(self, tmp_path):
        res = toy_ode.integrate_matrix(GOLDEN_BLOWUP, t_end=5.0)
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


# criterion 11's sweep grid, here with the r = 1/2 decay line in front
CRITERION_LAMBDA3S = np.linspace(0.1, 10.0, 20)
CRITERION_RS = np.concatenate([[0.5], np.linspace(0.51, 2.0, 20)])


# The reduced-state loop as it was before toy_ode._integrate_reduced was
# inlined, kept verbatim as the reference the inlined kernel must match
# bit for bit.
def _reference_integrate_reduced(lambda3: float, r: float, t_end: float, *,
                                 blowup_threshold: float, rtol: float, atol: float,
                                 record: bool, t_eval=None):
    """Adaptive Dormand-Prince on the (lambda3, r) pair in plain floats.

    The scalar specialization keeps large phase sweeps cheap.  Returns
    (times, l3s, rs, status) where status is "blew_up" or "reached_end";
    the arrays hold every accepted sample when record is set, else just
    the first and the last two.
    """
    clock = _KahanClock()
    eval_times = list(t_eval) if t_eval is not None else []
    eval_idx = 0
    times = [0.0]
    l3s = [lambda3]
    rs = [r]

    def push(t, l3, rr):
        if not record and len(times) == 3:  # keep first and last two only
            del times[1], l3s[1], rs[1]
        times.append(t)
        l3s.append(l3)
        rs.append(rr)

    def f(l3, rr):
        return (l3 * l3 * _growth_poly(rr) / 3.0, l3 * _ratio_poly(rr) / 3.0)

    k1a, k1b = f(lambda3, r)
    h = 1e-4
    status = "reached_end"
    for _ in range(_MAX_STEPS):
        remaining = t_end - clock.value
        if remaining <= 1e-14 * max(abs(t_end), 1.0):
            break
        h = min(h, remaining)
        while eval_idx < len(eval_times) and eval_times[eval_idx] <= clock.value + 1e-14 * max(abs(clock.value), 1.0):
            eval_idx += 1
        if eval_idx < len(eval_times):
            h = min(h, eval_times[eval_idx] - clock.value)
        if h < 1e-16 * max(abs(clock.value), 1.0) or h <= 0.0:
            raise NumericalFailureError(
                f"step size underflow at t={clock.value:.6g}",
                trajectory=(np.array(times), np.array(l3s), np.array(rs)))

        y2a = lambda3 + h * _A21 * k1a
        y2b = r + h * _A21 * k1b
        k2a, k2b = f(y2a, y2b)
        y3a = lambda3 + h * (_A31 * k1a + _A32 * k2a)
        y3b = r + h * (_A31 * k1b + _A32 * k2b)
        k3a, k3b = f(y3a, y3b)
        y4a = lambda3 + h * (_A41 * k1a + _A42 * k2a + _A43 * k3a)
        y4b = r + h * (_A41 * k1b + _A42 * k2b + _A43 * k3b)
        k4a, k4b = f(y4a, y4b)
        y5a = lambda3 + h * (_A51 * k1a + _A52 * k2a + _A53 * k3a + _A54 * k4a)
        y5b = r + h * (_A51 * k1b + _A52 * k2b + _A53 * k3b + _A54 * k4b)
        k5a, k5b = f(y5a, y5b)
        y6a = lambda3 + h * (_A61 * k1a + _A62 * k2a + _A63 * k3a + _A64 * k4a + _A65 * k5a)
        y6b = r + h * (_A61 * k1b + _A62 * k2b + _A63 * k3b + _A64 * k4b + _A65 * k5b)
        k6a, k6b = f(y6a, y6b)
        newa = lambda3 + h * (_B1 * k1a + _B3 * k3a + _B4 * k4a + _B5 * k5a + _B6 * k6a)
        newb = r + h * (_B1 * k1b + _B3 * k3b + _B4 * k4b + _B5 * k5b + _B6 * k6b)
        k7a, k7b = f(newa, newb)

        erra = h * (_E1 * k1a + _E3 * k3a + _E4 * k4a + _E5 * k5a + _E6 * k6a + _E7 * k7a)
        errb = h * (_E1 * k1b + _E3 * k3b + _E4 * k4b + _E5 * k5b + _E6 * k6b + _E7 * k7b)
        sca = atol + rtol * max(abs(lambda3), abs(newa))
        scb = atol + rtol * max(abs(r), abs(newb))
        err_norm = math.sqrt(0.5 * ((erra / sca) ** 2 + (errb / scb) ** 2))

        if not math.isfinite(err_norm):
            h *= 0.2
            continue
        if err_norm > 1.0:
            h *= _step_factor(err_norm)
            continue

        # accepted
        if newb > 2.0 or newb < 0.5:
            if newb > 2.0 + _RATIO_CLAMP or newb < 0.5 - _RATIO_CLAMP:
                raise NumericalFailureError(
                    f"ratio left [1/2, 2] by more than {_RATIO_CLAMP} (r={newb!r})",
                    trajectory=(np.array(times), np.array(l3s), np.array(rs)))
            newb = min(max(newb, 0.5), 2.0)
        lambda3, r = newa, newb
        k1a, k1b = k7a, k7b
        t_now = clock.advance(h)
        push(t_now, lambda3, r)
        if lambda3 >= blowup_threshold:
            status = "blew_up"
            break
        h *= _step_factor(err_norm)
    else:
        raise NumericalFailureError(
            "step budget exhausted",
            trajectory=(np.array(times), np.array(l3s), np.array(rs)))

    return np.array(times), np.array(l3s), np.array(rs), status


def _with_reference(monkeypatch, call):
    """call() with the reference loop in place of the inlined kernel."""
    with monkeypatch.context() as m:
        m.setattr(toy_ode, "_integrate_reduced", _reference_integrate_reduced)
        return call()


def _kernel_and_reference(monkeypatch, call):
    """call() with the inlined kernel, then with the reference loop."""
    return call(), _with_reference(monkeypatch, call)


def _failures(monkeypatch, call):
    """The NumericalFailureError call() raises with each loop."""
    def failure():
        with pytest.raises(NumericalFailureError) as info:
            call()
        return info.value
    return _kernel_and_reference(monkeypatch, failure)


def _assert_same_result(got, want):
    assert (got.outcome, got.t_est, got.final_matrix) == (want.outcome, want.t_est,
                                                          want.final_matrix)
    for name in ("t", "lambda1", "lambda2", "lambda3", "r"):
        assert np.array_equal(getattr(got.trajectory, name),
                              getattr(want.trajectory, name)), name


def _assert_same_failure(got, want):
    assert str(got) == str(want)
    assert len(got.trajectory) == len(want.trajectory) == 3
    for a, b in zip(got.trajectory, want.trajectory):
        assert np.array_equal(a, b)


@pytest.fixture(scope="module")
def criterion_cells():
    return toy_ode.phase_sweep(CRITERION_LAMBDA3S, CRITERION_RS)


def _jittered(rng, lo, hi, count):
    """The toy_sweep benchmark grid: interior nodes move by up to 40% of the spacing."""
    nodes = np.linspace(lo, hi, count)
    nodes[1:-1] += rng.uniform(-0.4, 0.4, count - 2) * (nodes[1] - nodes[0])
    return nodes


class TestInlinedKernel:
    """The inlined _integrate_reduced gives the reference loop's bits."""

    def test_criterion_sweep(self, monkeypatch, criterion_cells):
        assert criterion_cells == _with_reference(monkeypatch, lambda: toy_ode.phase_sweep(
            CRITERION_LAMBDA3S, CRITERION_RS))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_benchmark_sweeps(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        lambda3s = _jittered(rng, 0.1, 10.0, 6)
        rs = np.concatenate([[0.5], _jittered(rng, 0.51, 2.0, 10)])
        got, want = _kernel_and_reference(
            monkeypatch, lambda: toy_ode.phase_sweep(lambda3s, rs))
        assert got == want

    @pytest.mark.parametrize("lambda3, r", [(1.0, 1.0), (1.0, 0.5), (2.0, 2.0),
                                            (0.3, 0.7)])
    @pytest.mark.parametrize("t_eval", [None, np.linspace(0.01, 3.0, 50)])
    def test_integrate(self, monkeypatch, lambda3, r, t_eval):
        got, want = _kernel_and_reference(monkeypatch, lambda: toy_ode.integrate_reduced(
            lambda3, r, t_end=100.0, t_eval=t_eval))
        _assert_same_result(got, want)

    def test_verify_reduced_vs_matrix_call(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append((args, kwargs, kernel(*args, **kwargs)))
            return calls[-1][2]

        kernel = toy_ode._integrate_reduced
        monkeypatch.setattr(toy_ode, "_integrate_reduced", spy)
        verify.toy_reduced_vs_matrix(np.random.default_rng(8))
        [(args, kwargs, got)] = calls
        assert kwargs["rtol"] == 1e-12 and len(kwargs["t_eval"]) > 100
        want = _reference_integrate_reduced(*args, **kwargs)
        assert got[3] == want[3]
        for a, b in zip(got[:3], want[:3]):
            assert np.array_equal(a, b)

    def test_step_size_underflow(self, monkeypatch):
        got, want = _failures(monkeypatch, lambda: toy_ode.integrate_reduced(
            1.0, 1.0, t_end=10.0, blowup_threshold=1e100))
        assert str(got) == "step size underflow at t=2.10327"
        _assert_same_failure(got, want)

    def test_step_budget_exhausted(self, monkeypatch):
        # the kernel reads the budget when called, as the reference does
        monkeypatch.setattr(toy_ode, "_MAX_STEPS", 50)
        monkeypatch.setitem(globals(), "_MAX_STEPS", 50)
        for call in (lambda: toy_ode.phase_sweep([1.0], [1.0]),
                     lambda: toy_ode.integrate_reduced(1.0, 1.0, t_end=100.0)):
            got, want = _failures(monkeypatch, call)
            assert str(got) == "step budget exhausted"
            _assert_same_failure(got, want)


ratio_values = st.floats(min_value=0.5, max_value=2.0,
                         allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ratio_values, st.floats(min_value=1e-3, max_value=1e3))
def test_reduced_rhs_preserves_invariant_region(r, lam3):
    dl3, dr = toy_ode.rhs_reduced(lam3, r)
    # the ratio polynomial is nonnegative on [1/2, 2]: r drifts upward
    assert dr >= 0.0
    # eigenvalue identities in reduced coordinates
    lam1, lam2 = -r * lam3, (r - 1.0) * lam3
    assert lam1 <= lam2 <= lam3
    assert abs(lam1 + lam2 + lam3) <= 1e-12 * lam3
