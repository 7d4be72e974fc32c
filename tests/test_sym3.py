import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strainflow import diagnostics, initial_data, sym3, verify
from strainflow.exceptions import InvalidInputError
from strainflow.spectral import Grid
from strainflow.verify import random_rotation, random_trace_free, rotate as rotate_matrix


def bisect_eigenvalues(m, tol=1e-13):
    """Oracle: roots of det(M - lambda I) by bracketed bisection.

    Scans [-2|M|, 2|M|] for sign changes of the numerically evaluated
    3x3 determinant and bisects each bracket; independent of the
    closed-form path under test.
    """
    a = m.to_matrix()
    norm = m.norm()
    if norm == 0.0:
        return np.zeros(3)

    def char(lam):
        return np.linalg.det(a - lam * np.eye(3))

    xs = np.linspace(-2.0 * norm, 2.0 * norm, 2001)
    vals = np.array([char(x) for x in xs])
    roots = []
    for i in range(len(xs) - 1):
        lo, hi = xs[i], xs[i + 1]
        flo, fhi = vals[i], vals[i + 1]
        if flo == 0.0:
            roots.append(lo)
            continue
        if flo * fhi >= 0.0:
            continue
        while hi - lo > tol * norm:
            mid = 0.5 * (lo + hi)
            fmid = char(mid)
            if fmid == 0.0:
                lo = hi = mid
            elif flo * fmid < 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
        roots.append(0.5 * (lo + hi))
    # degenerate eigenvalues produce fewer brackets; pad with the sum rule
    while len(roots) < 3:
        roots.append(-sum(roots))
    return np.sort(np.asarray(roots[:3]))


class TestEigenvalues:
    def test_two_equal_positive(self):
        eig = sym3.eigenvalues(sym3.TraceFreeSym3(-2.0, 1.0, 0.0, 0.0, 0.0))
        assert eig.lambda1 == pytest.approx(-2.0, abs=1e-14)
        assert eig.lambda2 == pytest.approx(1.0, abs=1e-14)
        assert eig.lambda3 == pytest.approx(1.0, abs=1e-14)
        assert eig.r == pytest.approx(2.0, abs=1e-12)
        assert eig.r_defined

    def test_zero_matrix(self):
        eig = sym3.eigenvalues(sym3.TraceFreeSym3(0.0, 0.0, 0.0, 0.0, 0.0))
        assert (eig.lambda1, eig.lambda2, eig.lambda3) == (0.0, 0.0, 0.0)
        assert not eig.r_defined
        assert np.isnan(eig.r)

    def test_offdiagonal_swap_block(self):
        eig = sym3.eigenvalues(sym3.TraceFreeSym3(0.0, 0.0, 1.0, 0.0, 0.0))
        assert eig.lambda1 == pytest.approx(-1.0, abs=1e-14)
        assert eig.lambda2 == pytest.approx(0.0, abs=1e-14)
        assert eig.lambda3 == pytest.approx(1.0, abs=1e-14)

    def test_against_bisection_oracle(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            m = random_trace_free(rng, scale=1.5)
            eig = sym3.eigenvalues(m)
            oracle = bisect_eigenvalues(m)
            got = np.array([eig.lambda1, eig.lambda2, eig.lambda3])
            worst = max(worst, np.max(np.abs(got - oracle)))
        assert worst < 1e-10

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = random_trace_free(rng)
            eig = sym3.eigenvalues(m)
            rot = sym3.eigenvalues(rotate_matrix(m, random_rotation(rng)))
            for a, b in ((eig.lambda1, rot.lambda1), (eig.lambda2, rot.lambda2),
                         (eig.lambda3, rot.lambda3)):
                assert abs(a - b) < 1e-10 * max(m.norm(), 1.0)

    def test_vectorized_matches_scalar(self):
        # array and scalar paths share the algorithm; numpy's batched
        # transcendentals may differ from scalar libm by an ulp
        rng = np.random.default_rng(11)
        field = random_trace_free(rng, shape=(40,))
        eig = sym3.eigenvalues(field)
        for i in range(40):
            single = sym3.eigenvalues(sym3.TraceFreeSym3(
                field.m11[i], field.m22[i], field.m12[i], field.m13[i], field.m23[i]))
            assert eig.lambda1[i] == pytest.approx(single.lambda1, rel=1e-14, abs=1e-14)
            assert eig.lambda3[i] == pytest.approx(single.lambda3, rel=1e-14, abs=1e-14)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            sym3.TraceFreeSym3(np.nan, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(InvalidInputError):
            sym3.TraceFreeSym3(np.inf, 0.0, 1.0, 0.0, 0.0)


def prescribed_field(rng, gap, rotations=40):
    """Q diag(a, a(1 + gap), -a(2 + gap)) Q^T and its mirror -Q diag(...) Q^T
    for random rotations Q and a in [1/2, 2], as one field of matrices,
    with the prescribed eigenvalues sorted ascending, shaped (3, points)."""
    entries, values = [], []
    for _ in range(rotations):
        a = rng.uniform(0.5, 2.0)
        q = random_rotation(rng)
        for sign in (1.0, -1.0):
            lam = sign * a * np.array([1.0, 1.0 + gap, -2.0 - gap])
            m = q @ np.diag(lam) @ q.T
            entries.append([m[0, 0], m[1, 1], m[0, 1], m[0, 2], m[1, 2]])
            values.append(np.sort(lam))
    return (sym3.TraceFreeSym3.from_components(np.array(entries).T),
            np.array(values).T)


class TestAccurateTheta:
    """theta is accurate where eigenvalues meet: arccos away from
    |arg| = 1, atan2 of the discriminant near it."""

    @pytest.mark.parametrize("gap", [1e-2, 1e-5, 1e-8, 1e-12, 1e-15, 0.0])
    def test_near_degenerate_eigenvalues(self, gap):
        # the arccos closed form was off by up to 7.9e-9 |M| at gap <= 1e-8
        m, prescribed = prescribed_field(np.random.default_rng(20), gap)
        eig = sym3.eigenvalues(m)
        got = np.array([eig.lambda1, eig.lambda2, eig.lambda3])
        lapack = np.linalg.eigvalsh(np.moveaxis(m.to_matrix(), (0, 1), (-2, -1))).T
        norm = m.norm()
        assert np.all(np.abs(got - prescribed) <= 4e-15 * norm)
        assert np.all(np.abs(got - lapack) <= 4e-15 * norm)
        assert np.all(sym3.discriminant(m) >= 0.0)
        for i in range(0, norm.size, 7):  # the scalar path
            single = sym3.eigenvalues(sym3.TraceFreeSym3(
                m.m11[i], m.m22[i], m.m12[i], m.m13[i], m.m23[i]))
            assert np.all(np.abs(np.array([single.lambda1, single.lambda2, single.lambda3])
                                 - prescribed[:, i]) <= 4e-15 * norm[i])

    def test_discriminant_is_the_invariant_form(self):
        rng = np.random.default_rng(21)
        m = random_trace_free(rng, shape=(20000,), scale=3.0)
        delta, norm_sq, det = sym3.discriminant(m), m.norm_sq(), sym3.det(m)
        assert np.all(delta >= 0.0)
        assert np.all(np.abs(delta - 0.5 * (norm_sq ** 3 - 54.0 * det ** 2))
                      <= 1e-14 * norm_sq ** 3)
        assert sym3.discriminant(sym3.TraceFreeSym3(1.0, 2.0, 0.0, 0.0, 0.0)) == 400.0

    @pytest.mark.parametrize("c", [1.0, -0.3, 7e-5, 3e40])
    def test_discriminant_zero_on_two_equal(self, c):
        for m in (sym3.TraceFreeSym3(c, c, 0.0, 0.0, 0.0),
                  sym3.TraceFreeSym3(c, -2.0 * c, 0.0, 0.0, 0.0),
                  sym3.TraceFreeSym3(-2.0 * c, c, 0.0, 0.0, 0.0)):
            assert sym3.discriminant(m) == 0.0

    def test_hybrid_theta_matches_atan2_everywhere(self):
        # the arccos points against the slow path evaluated at every point
        grid = Grid(16)
        s, eig = diagnostics.pointwise_strain_analysis(
            grid, initial_data.generate_initial(grid, "random_div_free", seed=3))
        norm = s.norm()
        unit = sym3.TraceFreeSym3(*(x / norm for x in (s.m11, s.m22, s.m12, s.m13, s.m23)))
        arg = 3.0 * np.sqrt(6.0) * sym3.det(unit)
        theta = np.arctan2(np.sqrt(2.0 * sym3.discriminant(unit)), arg)
        lam2 = 2.0 * norm / np.sqrt(6.0) * np.sin(theta / 3.0 - np.pi / 6.0)
        assert 0 < np.count_nonzero(np.abs(arg) >= sym3.ARCCOS_LIMIT) < arg.size // 10
        assert np.all(np.abs(eig.lambda2 - lam2) <= 2e-15 * norm)

    def test_derived_on_read(self):
        eig = sym3.eigenvalues(sym3.TraceFreeSym3(0.3, -1.1, 0.7, -0.2, 0.9))
        assert all(type(getattr(eig, name)) is float
                   for name in ("theta", "lambda1", "lambda2", "lambda3", "lambda2_plus",
                                "r", "norm_sq", "det"))
        assert type(eig.r_defined) is bool
        field = sym3.eigenvalues(random_trace_free(np.random.default_rng(23), shape=(8,)))
        assert "lambda1" not in vars(field)  # nothing derived before it is read
        assert field.lambda1 is field.lambda1


class TestDeterminantAndCube:
    def test_diagonal_values(self):
        m = sym3.TraceFreeSym3(-2.0, 1.0, 0.0, 0.0, 0.0)
        assert sym3.det(m) == pytest.approx(-2.0)
        assert sym3.tr_cubed(m) == pytest.approx(-6.0)

    def test_zero(self):
        m = sym3.TraceFreeSym3(0.0, 0.0, 0.0, 0.0, 0.0)
        assert sym3.det(m) == 0.0
        assert sym3.tr_cubed(m) == 0.0

    def test_det_equals_eigenvalue_product(self):
        rng = np.random.default_rng(7)
        m = random_trace_free(rng, shape=(500,))
        eig = sym3.eigenvalues(m)
        product = eig.lambda1 * eig.lambda2 * eig.lambda3
        rel = np.abs(sym3.det(m) - product) / np.maximum(m.norm() ** 3, 1e-300)
        assert rel.max() < 1e-10

    def test_tr_cubed_is_three_det(self):
        rng = np.random.default_rng(8)
        verify.cubic_identity(random_trace_free(rng, shape=(500,), scale=3.0))

    def test_tr_cubed_matches_matrix_power(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            m = random_trace_free(rng)
            a = m.to_matrix()
            expected = np.trace(a @ a @ a)
            assert sym3.tr_cubed(m) == pytest.approx(expected, rel=1e-13, abs=1e-13)


class TestQuadraticForm:
    def test_matches_matrix_product(self):
        rng = np.random.default_rng(10)
        m = random_trace_free(rng, shape=(50,))
        v = rng.standard_normal((3, 50))
        expected = np.einsum("i...,ij...,j...->...", v, m.to_matrix(), v)
        assert np.allclose(sym3.quadratic_form(m, v), expected, rtol=1e-13, atol=1e-13)

    def test_chunks_keep_the_whole_field_bits(self):
        # more points than one chunk: the stretching density of a record
        # keeps the bits of the whole-field expression
        rng = np.random.default_rng(11)
        shape = (3 * sym3._BLOCK + 5,)
        m = random_trace_free(rng, shape=shape)
        w = rng.standard_normal((3,) + shape)
        whole = (m.m11 * w[0] ** 2 + m.m22 * w[1] ** 2 + m.m33 * w[2] ** 2
                 + 2.0 * (m.m12 * w[0] * w[1] + m.m13 * w[0] * w[2] + m.m23 * w[1] * w[2]))
        assert sym3.quadratic_form(m, w).tobytes() == whole.tobytes()


class TestOneAnalysis:
    """eigenvalues(m) carries the |M|^2 and det(M) its closed form reads,
    and the gap helpers read them instead of recomputing."""

    MATRICES = (
        random_trace_free(np.random.default_rng(16), shape=(32, 32, 32), scale=2.0),
        sym3.TraceFreeSym3(-2.0, 1.0, 0.0, 0.0, 0.0),
        sym3.TraceFreeSym3(0.3, -1.1, 0.7, -0.2, 0.9),
        sym3.TraceFreeSym3(0.0, 0.0, 0.0, 0.0, 0.0),
    )

    @pytest.mark.parametrize("m", MATRICES)
    def test_invariants_are_the_matrix_functions(self, m):
        eig = sym3.eigenvalues(m)
        assert np.array_equal(eig.norm_sq, m.norm_sq())
        assert np.array_equal(eig.det, sym3.det(m))
        assert np.shape(eig.norm_sq) == np.shape(eig.det) == m.shape

    @pytest.mark.parametrize("m", MATRICES)
    def test_gaps_are_the_recomputed_formulas(self, m):
        eig = sym3.eigenvalues(m)
        norm_sq, det = m.norm_sq(), sym3.det(m)
        assert np.array_equal(
            sym3.det_bound_gap(eig),
            sym3.DET_BOUND_COEFF * norm_sq * np.sqrt(norm_sq) + 4.0 * det)
        assert np.array_equal(sym3.lambda2_bound_gap(eig),
                              0.5 * norm_sq * eig.lambda2_plus + det)
        top, bottom = sym3.extremal_eigen_bounds(eig)
        floor = m.norm() / np.sqrt(6.0)
        assert np.array_equal(top, eig.lambda3 - floor)
        assert np.array_equal(bottom, -eig.lambda1 - floor)

    @pytest.mark.parametrize("m", MATRICES)
    def test_theta_taken_once(self, m, monkeypatch):
        # lambda1, lambda3 and r ran _theta a second time from the matrix
        calls = []
        theta = sym3._theta
        monkeypatch.setattr(sym3, "_theta", lambda *args: calls.append(args) or theta(*args))
        eig = sym3.eigenvalues(m)
        for name in ("theta", "lambda1", "lambda2", "lambda3", "r"):
            getattr(eig, name)
        assert len(calls) == 1
        assert np.array_equal(eig.theta, theta(m, m.norm_sq(), sym3.det(m)))
        assert [f.name for f in dataclasses.fields(eig)] == [
            "norm_sq", "det", "theta", "lambda2_plus"]


class TestDetBoundGap:
    def test_equality_on_two_equal_positive(self):
        # -4 det = 8 meets (2/9) sqrt(6) |M|^3 = 8 for diag(-2, 1, 1)
        gap = sym3.det_bound_gap(sym3.eigenvalues(
            sym3.TraceFreeSym3(-2.0, 1.0, 0.0, 0.0, 0.0)))
        assert abs(gap) < 1e-12 * 6.0 ** 1.5

    def test_two_equal_negative(self):
        # -4 det = -8 against bound 8: gap 16
        gap = sym3.det_bound_gap(sym3.eigenvalues(
            sym3.TraceFreeSym3(-1.0, -1.0, 0.0, 0.0, 0.0)))
        assert gap == pytest.approx(16.0, rel=1e-12)

    def test_zero(self):
        assert sym3.det_bound_gap(sym3.eigenvalues(sym3.TraceFreeSym3(0, 0, 0, 0, 0))) == 0.0

    def test_nonnegative_on_random(self):
        rng = np.random.default_rng(10)
        verify.det_bound(random_trace_free(rng, shape=(5000,), scale=2.0), rng, family=0)

    def test_tight_only_on_scaled_rotated_family(self):
        verify.det_bound(sym3.TraceFreeSym3(0, 0, 0, 0, 0), np.random.default_rng(12),
                         family=50, scales=(0.1, 5.0))
        # away from the family the gap is strictly positive
        m = sym3.TraceFreeSym3(-1.5, 0.5, 0.0, 0.0, 0.0)
        assert sym3.det_bound_gap(sym3.eigenvalues(m)) > 1e-3


class TestLambda2BoundGap:
    def test_two_equal_positive_value(self):
        # -det = 2 against |M|^2 lambda2+/2 = 3: gap 1
        gap = sym3.lambda2_bound_gap(sym3.eigenvalues(
            sym3.TraceFreeSym3(-2.0, 1.0, 0.0, 0.0, 0.0)))
        assert gap == pytest.approx(1.0, rel=1e-12)

    def test_nonpositive_lambda2_branch(self):
        # lambda2 <= 0 and det >= 0: the gap reduces to det itself
        m = sym3.TraceFreeSym3(-1.0, -1.0, 0.0, 0.0, 0.0)
        assert sym3.lambda2_bound_gap(sym3.eigenvalues(m)) == pytest.approx(
            sym3.det(m), rel=1e-12)
        assert sym3.det(m) >= 0

    def test_nonnegative_on_random(self):
        rng = np.random.default_rng(13)
        verify.lambda2_bound(random_trace_free(rng, shape=(5000,), scale=2.0))


class TestExtremalBounds:
    def test_equality_cases(self):
        top, bottom = sym3.extremal_eigen_bounds(sym3.eigenvalues(
            sym3.TraceFreeSym3(-2.0, 1.0, 0.0, 0.0, 0.0)))
        assert abs(top) < 1e-12 and bottom == pytest.approx(1.0, rel=1e-12)
        top, bottom = sym3.extremal_eigen_bounds(sym3.eigenvalues(
            sym3.TraceFreeSym3(-1.0, -1.0, 0.0, 0.0, 0.0)))
        assert top == pytest.approx(1.0, rel=1e-12) and abs(bottom) < 1e-12

    def test_zero(self):
        top, bottom = sym3.extremal_eigen_bounds(
            sym3.eigenvalues(sym3.TraceFreeSym3(0, 0, 0, 0, 0)))
        assert top == 0.0 and bottom == 0.0

    def test_nonnegative_on_random(self):
        rng = np.random.default_rng(14)
        verify.extremal_floors(random_trace_free(rng, shape=(5000,)))


class TestApplyToVector:
    def test_axis_vector(self):
        m = sym3.TraceFreeSym3(-2.0, 1.0, 0.0, 0.0, 0.0)
        out = sym3.apply_to_vector(m, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(out, [-2.0, 0.0, 0.0])
        assert np.linalg.norm(out) >= abs(sym3.eigenvalues(m).lambda2)

    def test_planar_shear_null_direction(self):
        m = sym3.TraceFreeSym3(0.0, 0.0, 0.5, 0.0, 0.0)
        out = sym3.apply_to_vector(m, np.array([0.0, 0.0, 1.0]))
        assert np.allclose(out, 0.0)
        assert sym3.eigenvalues(m).lambda2 == pytest.approx(0.0, abs=1e-15)

    def test_non_unit_rejected(self):
        m = sym3.TraceFreeSym3(1.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(InvalidInputError):
            sym3.apply_to_vector(m, np.array([1.0, 1.0, 0.0]))

    def test_middle_eigenvalue_floor(self):
        rng = np.random.default_rng(15)
        verify.minimal_direction(random_trace_free(rng, shape=(300,)), rng, directions=25)


finite_entries = st.floats(min_value=-50.0, max_value=50.0,
                           allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(finite_entries, finite_entries, finite_entries, finite_entries, finite_entries)
def test_invariants_hold_for_any_entries(m11, m22, m12, m13, m23):
    m = sym3.TraceFreeSym3(m11, m22, m12, m13, m23)
    norm = m.norm()
    eig = sym3.eigenvalues(m)
    cube = max(norm ** 3, 1e-300)
    assert abs(eig.lambda1 + eig.lambda2 + eig.lambda3) <= 1e-12 * norm + 1e-300
    assert eig.lambda1 <= eig.lambda2 <= eig.lambda3
    assert eig.lambda2_plus == max(eig.lambda2, 0.0)
    assert abs(sym3.tr_cubed(m) - 3.0 * sym3.det(m)) <= 1e-12 * cube
    frob = eig.lambda1 ** 2 + eig.lambda2 ** 2 + eig.lambda3 ** 2
    assert abs(frob - norm ** 2) <= 1e-12 * norm ** 2 + 1e-300
    assert sym3.det_bound_gap(eig) >= -1e-12 * cube
    assert sym3.lambda2_bound_gap(eig) >= -1e-12 * cube
    top, bottom = sym3.extremal_eigen_bounds(eig)
    assert top >= -1e-12 * norm - 1e-300
    assert bottom >= -1e-12 * norm - 1e-300
    if eig.r_defined:
        assert 0.5 - 1e-9 <= eig.r <= 2.0 + 1e-9
