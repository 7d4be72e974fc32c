import tracemalloc

import numpy as np
import pytest

from conftest import (antisym_matrix, c2c_ifft, dealias_mask,
                      directional_strain_via_derivatives, full_cube_wavenumbers)
from strainflow import initial_data, solver, spectral, sym3, verify
from strainflow.exceptions import ConstraintViolationError, InvalidInputError
from strainflow.spectral import Grid

TWO_PI_CUBED = (2.0 * np.pi) ** 3


class TestGridAndFFT:
    def test_grid_validation(self):
        with pytest.raises(InvalidInputError):
            Grid(7)
        with pytest.raises(InvalidInputError):
            Grid(6)

    def test_wavenumber_layout(self, grid8):
        kx = grid8.kx.ravel()
        assert list(kx) == [0, 1, 2, 3, 4, -3, -2, -1]
        kdx = grid8.kdx.ravel()
        assert kdx[4] == 0.0 and kdx[3] == 3.0  # Nyquist slot zeroed

    def test_single_mode_placement(self, grid16):
        u_hat = initial_data.shear(grid16)
        n = grid16.n
        # sin(y) e1 lives at xi = (0, +-1, 0) with coefficients -+ i n^3/2
        assert u_hat[0, 0, 1, 0] == pytest.approx(-0.5j * n ** 3, abs=1e-9)
        assert u_hat[0, 0, n - 1, 0] == pytest.approx(0.5j * n ** 3, abs=1e-9)
        masked = u_hat.copy()
        masked[0, 0, 1, 0] = masked[0, 0, n - 1, 0] = 0.0
        assert np.max(np.abs(masked)) < 1e-9

    def test_roundtrip_white_noise(self, grid16):
        verify.fft_roundtrip(grid16, np.random.default_rng(0))

    def test_zero_field(self, grid8):
        assert np.all(grid8.fft(np.zeros((grid8.n,) * 3)) == 0.0)

    def test_size_mismatch_rejected(self, grid8):
        with pytest.raises(InvalidInputError):
            grid8.fft(np.zeros((4, 4, 4)))
        with pytest.raises(InvalidInputError):
            grid8.ifft(np.zeros((3, 16, 16, 16), dtype=complex))

    def test_hermitian_helpers(self, grid16):
        rng = np.random.default_rng(1)
        field = rng.standard_normal((3,) + (grid16.n,) * 3)
        coeffs = grid16.fft(field)
        assert spectral.hermitian_residual(grid16, coeffs) < 1e-13
        sym = spectral.symmetrize_kz0_plane(grid16, coeffs.copy())
        assert np.max(np.abs(sym - coeffs)) < 1e-13 * np.max(np.abs(coeffs))
        # the c2r inverse of the half-spectrum recovers the field
        assert np.max(np.abs(grid16.ifft(coeffs) - field)) < 1e-13

    def test_velocity_half_of_a_snapshot_is_exactly_hermitian(self, grid16):
        # the r2c of a physical field leaves kz = 0 Hermitian only to
        # rounding; velocity_half, the way in of snapshots and forces,
        # makes it exact, as every solver state is
        u_phys = grid16.ifft(initial_data.random_div_free(grid16, seed=3))
        assert spectral.hermitian_residual(grid16, spectral.velocity_half(grid16, u_phys)) == 0.0

    def test_expand_half_roundtrip(self, grid16):
        rng = np.random.default_rng(2)
        field = rng.standard_normal((grid16.n,) * 3)
        half = grid16.fft(field)
        full = spectral.expand_half(grid16, half)
        assert np.max(np.abs(full - np.fft.fftn(field))) < 1e-9


class TestInverseInPlace:
    """spectral.ifft_in_place, the inverse of the record and of the block."""

    @pytest.mark.parametrize("n", [8, 12, 16, 24, 32, 64])
    def test_equals_grid_ifft(self, n):
        # at n = 12 and 24 a 1/n^3 split over the passes, rather than applied
        # once after the last, differs in the last bit
        grid = Grid(n)
        rng = np.random.default_rng(n)
        half = (rng.standard_normal((5,) + grid.shape)
                + 1j * rng.standard_normal((5,) + grid.shape))
        assert np.array_equal(spectral.ifft_in_place(grid, half.copy()), grid.ifft(half))
        assert np.array_equal(spectral.ifft_in_place(grid, half[:3].copy()),
                              grid.ifft(half[:3]))
        half[..., 3:] = 0.0  # the c2c runs on the three lower planes only
        assert np.array_equal(spectral.ifft_in_place(grid, half.copy(), 3), grid.ifft(half))
        with pytest.raises(InvalidInputError):
            spectral.ifft_in_place(grid, half.astype(np.complex64))


class TestSymGradient:
    def test_out_is_byte_equal_to_the_allocating_call(self, grid16):
        # both against the whole-array products: the five components are
        # written with the same products in the same order
        u_hat = initial_data.random_div_free(grid16, seed=13)
        kx, ky, kz = grid16.kdx, grid16.kdy, grid16.kdz
        u1, u2, u3 = u_hat
        products = {
            spectral.sym_gradient: np.stack([
                1j * kx * u1, 1j * ky * u2, 0.5j * (kx * u2 + ky * u1),
                0.5j * (kx * u3 + kz * u1), 0.5j * (ky * u3 + kz * u2)]),
            spectral.vorticity: np.stack([
                1j * (ky * u3 - kz * u2), 1j * (kz * u1 - kx * u3),
                1j * (kx * u2 - ky * u1)]),
        }
        workspace = np.full((5,) + grid16.shape, np.nan, dtype=complex)
        for op, expected in products.items():
            out = workspace[:len(expected)]  # a view, as the record passes
            assert op(grid16, u_hat, out=out) is out
            assert out.tobytes() == expected.tobytes()
            assert op(grid16, u_hat).tobytes() == expected.tobytes()

    def test_shear_strain(self, grid16):
        verify.shear_analytics(grid16)

    def test_taylor_green_strain(self, grid16):
        u_hat = initial_data.taylor_green(grid16)
        s_phys = grid16.ifft(spectral.sym_gradient(grid16, u_hat))
        x, y, z = grid16.coords()
        shape = (grid16.n,) * 3
        expected = {
            0: np.cos(x) * np.cos(y) * np.cos(z),
            1: -np.cos(x) * np.cos(y) * np.cos(z),
            2: np.zeros(shape),
            3: -0.5 * np.sin(x) * np.cos(y) * np.sin(z),
            4: 0.5 * np.cos(x) * np.sin(y) * np.sin(z),
        }
        for idx, ref in expected.items():
            assert np.max(np.abs(s_phys[idx] - np.broadcast_to(ref, shape))) < 1e-13

    def test_constant_field_zero_strain(self, grid8):
        u_hat = np.zeros((3,) + grid8.shape, dtype=complex)
        u_hat[0, 0, 0, 0] = grid8.n ** 3  # constant velocity (1, 0, 0)
        s_hat = spectral.sym_gradient(grid8, u_hat)
        assert np.max(np.abs(s_hat)) == 0.0

    def test_rejects_divergent_field(self, grid8):
        v_hat = grid8.fft(np.random.default_rng(3).standard_normal((3,) + (grid8.n,) * 3))
        with pytest.raises(InvalidInputError):
            spectral.sym_gradient(grid8, v_hat)


class TestStrainConstraint:
    def test_gradients_satisfy_it(self, grid16):
        verify.strain_constraint(grid16, seeds=[4])

    def test_single_offdiagonal_mode_satisfies_it(self, grid8):
        # S supported at xi = (0,1,0), only the (1,2) entry: then
        # (xi x xi) S + S (xi x xi) reproduces S itself and the residual
        # vanishes identically.
        s_hat = np.zeros((5,) + grid8.shape, dtype=complex)
        s_hat[2, 0, 1, 0] = 1.0
        s_hat[2, 0, grid8.n - 1, 0] = 1.0
        assert spectral.consistency_residual(grid8, s_hat) < 1e-15

    def test_hessian_type_mode_fails_it(self, grid8):
        # trace-corrected xi (x) xi at xi = (0,1,0): diag(-1/3, 2/3, -1/3)
        s_hat = np.zeros((5,) + grid8.shape, dtype=complex)
        s_hat[0, 0, 1, 0] = -1.0 / 3.0
        s_hat[1, 0, 1, 0] = 2.0 / 3.0
        assert spectral.consistency_residual(grid8, s_hat) > 0.1

    def test_velocity_reconstruction_shear(self, grid16):
        u_hat = initial_data.shear(grid16)
        back = spectral.velocity_from_strain(
            grid16, spectral.sym_gradient(grid16, u_hat))
        assert np.max(np.abs(back - u_hat)) < 1e-13 * np.max(np.abs(u_hat))

    def test_velocity_reconstruction_random(self, grid16):
        verify.strain_roundtrip(grid16, seeds=[5])

    def test_zero_strain_zero_velocity(self, grid8):
        s_hat = np.zeros((5,) + grid8.shape, dtype=complex)
        assert np.all(spectral.velocity_from_strain(grid8, s_hat) == 0.0)

    def test_reconstruction_rejects_non_strain(self, grid8):
        s_hat = np.zeros((5,) + grid8.shape, dtype=complex)
        s_hat[0, 0, 1, 0] = -1.0 / 3.0
        s_hat[1, 0, 1, 0] = 2.0 / 3.0
        with pytest.raises(ConstraintViolationError):
            spectral.velocity_from_strain(grid8, s_hat)


class TestHelmholtz:
    def test_divergence_free_passthrough(self, grid16):
        u_hat = initial_data.random_div_free(grid16, seed=6)
        df, grad = spectral.helmholtz_project(grid16, u_hat)
        assert np.max(np.abs(grad)) < 1e-12 * np.max(np.abs(u_hat))
        assert np.max(np.abs(df - u_hat)) < 1e-12 * np.max(np.abs(u_hat))

    def test_pure_gradient(self, grid16):
        x, _, _ = grid16.coords()
        f_hat = grid16.fft(np.broadcast_to(np.sin(x), (grid16.n,) * 3).copy())
        v_hat = np.stack([1j * grid16.kdx * f_hat, 1j * grid16.kdy * f_hat,
                          1j * grid16.kdz * f_hat])
        df, grad = spectral.helmholtz_project(grid16, v_hat)
        assert np.max(np.abs(df)) < 1e-13 * np.max(np.abs(v_hat))

    def test_pythagoras(self, grid16):
        rng = np.random.default_rng(7)
        v_hat = grid16.fft(rng.standard_normal((3,) + (grid16.n,) * 3))
        df, grad = spectral.helmholtz_project(grid16, v_hat)
        total = spectral.sobolev_norm_sq(grid16, v_hat)
        split = spectral.sobolev_norm_sq(grid16, df) + spectral.sobolev_norm_sq(grid16, grad)
        assert abs(total - split) < 1e-12 * total
        assert np.max(np.abs(df + grad - v_hat)) == pytest.approx(0.0, abs=1e-16 * np.max(np.abs(v_hat)))

    @pytest.mark.parametrize("n", [8, 10, 16, 64])
    def test_projection_is_the_divergence_free_part_to_the_bit(self, n):
        grid = Grid(n)
        v_hat = grid.fft(np.random.default_rng(n).standard_normal((3,) + (n,) * 3))
        for v in (v_hat, v_hat.real, v_hat.astype(np.complex64)):
            df = spectral.project_divergence_free(grid, v)
            expected = spectral.helmholtz_project(grid, v)[0]
            assert df.dtype == expected.dtype and df.tobytes() == expected.tobytes()

    def test_projection_allocates_under_half_of_the_split(self):
        # the split stacks the gradient and subtracts it: 14.4 MiB above its
        # input at n=64, where the projection needs only its 6.2 MiB output
        grid = Grid(64)
        v_hat = grid.fft(np.random.default_rng(3).standard_normal((3,) + (grid.n,) * 3))
        peaks = []
        for project in (spectral.helmholtz_project, spectral.project_divergence_free):
            tracemalloc.start()
            try:
                project(grid, v_hat)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 0.5 * peaks[0]


class TestVorticity:
    def test_shear_curl(self, grid16):
        w = grid16.ifft(spectral.vorticity(grid16, initial_data.shear(grid16)))
        _, y, _ = grid16.coords()
        assert np.max(np.abs(w[2] + np.broadcast_to(np.cos(y), (grid16.n,) * 3))) < 1e-13
        assert np.max(np.abs(w[0])) < 1e-13 and np.max(np.abs(w[1])) < 1e-13

    def test_taylor_green_curl(self, grid16):
        w = grid16.ifft(spectral.vorticity(grid16, initial_data.taylor_green(grid16)))
        x, y, z = grid16.coords()
        shape = (grid16.n,) * 3
        expected = (-np.cos(x) * np.sin(y) * np.sin(z),
                    -np.sin(x) * np.cos(y) * np.sin(z),
                    2.0 * np.sin(x) * np.sin(y) * np.cos(z))
        for got, ref in zip(w, expected):
            assert np.max(np.abs(got - np.broadcast_to(ref, shape))) < 1e-13

    def test_antisym_matrix_annihilates_vorticity(self, grid8):
        u_hat = initial_data.random_div_free(grid8, seed=8)
        w = grid8.ifft(spectral.vorticity(grid8, u_hat))
        a = antisym_matrix(w)
        product = np.einsum("ij...,j...->i...", a, w)
        assert np.max(np.abs(product)) < 1e-13 * max(np.max(np.abs(w)) ** 2, 1e-300)


class TestSobolevNorms:
    def test_single_mode(self, grid16):
        _, y, _ = grid16.coords()
        f_hat = grid16.fft(np.broadcast_to(np.sin(y), (grid16.n,) * 3).copy())
        assert spectral.sobolev_norm_sq(grid16, f_hat, 0.0) == pytest.approx(
            TWO_PI_CUBED / 2.0, rel=1e-13)
        assert spectral.sobolev_norm_sq(grid16, f_hat, 1.0) == pytest.approx(
            TWO_PI_CUBED / 2.0, rel=1e-13)

    def test_zero_field(self, grid8):
        z = np.zeros(grid8.shape, dtype=complex)
        assert spectral.sobolev_norm_sq(grid8, z, 1.0) == 0.0

    def test_gradient_cross_check(self, grid16):
        # |f|_{H1}^2 equals the L2 norm squared of the spectral gradient
        rng = np.random.default_rng(9)
        f = rng.standard_normal((grid16.n,) * 3)
        f_hat = grid16.fft(f - f.mean())
        grad_hat = np.stack([1j * grid16.kdx * f_hat, 1j * grid16.kdy * f_hat,
                             1j * grid16.kdz * f_hat])
        h1 = spectral.sobolev_norm_sq(grid16, f_hat * dealias_mask(grid16), 1.0)
        l2 = spectral.sobolev_norm_sq(grid16, grad_hat * dealias_mask(grid16), 0.0)
        assert h1 == pytest.approx(l2, rel=1e-12)

    def test_alpha_validation(self, grid8):
        f_hat = np.ones(grid8.shape, dtype=complex)
        with pytest.raises(InvalidInputError):
            spectral.sobolev_norm_sq(grid8, f_hat, 2.0)
        with pytest.raises(InvalidInputError):
            spectral.sobolev_norm_sq(grid8, f_hat, -1.0)  # nonzero mean


class TestIsometryAudit:
    def test_shear_values(self, grid16):
        report = spectral.isometry_audit(grid16, initial_data.shear(grid16), 0.0)
        for value in report.values():
            assert value == pytest.approx(TWO_PI_CUBED / 4.0, rel=1e-13)

    def test_random_fields(self, grid16):
        verify.isometries(grid16, seeds=range(20, 25))

    def test_zero_field(self, grid8):
        report = spectral.isometry_audit(
            grid8, np.zeros((3,) + grid8.shape, dtype=complex), 0.0)
        assert report.values() == (0.0, 0.0, 0.0, 0.0)
        assert report.max_rel_deviation == 0.0

    def test_alpha_restricted(self, grid8):
        u_hat = initial_data.random_div_free(grid8, seed=30)
        with pytest.raises(InvalidInputError):
            spectral.isometry_audit(grid8, u_hat, 0.5)


class TestDirectionalStrain:
    def test_shear_null_direction(self, grid16):
        sv = spectral.directional_strain(grid16, initial_data.shear(grid16),
                                         np.array([0.0, 0.0, 1.0]))
        assert np.max(np.abs(sv)) < 1e-13

    def test_shear_streamwise_direction(self, grid16):
        sv = spectral.directional_strain(grid16, initial_data.shear(grid16),
                                         np.array([1.0, 0.0, 0.0]))
        _, y, _ = grid16.coords()
        expected = np.broadcast_to(0.5 * np.cos(y), (grid16.n,) * 3)
        assert np.max(np.abs(sv[1] - expected)) < 1e-13
        assert np.max(np.abs(sv[0])) < 1e-13 and np.max(np.abs(sv[2])) < 1e-13

    def test_matches_derivative_form(self, grid16):
        u_hat = initial_data.random_div_free(grid16, seed=31)
        rng = np.random.default_rng(32)
        for _ in range(4):
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            via_matrix = spectral.directional_strain(grid16, u_hat, v)
            via_derivs = directional_strain_via_derivatives(grid16, u_hat, v)
            scale = np.max(np.abs(via_matrix))
            assert np.max(np.abs(via_matrix - via_derivs)) < 1e-12 * scale

    def test_dominates_middle_eigenvalue(self, grid16):
        u_hat = initial_data.random_div_free(grid16, seed=33)
        s = sym3.TraceFreeSym3.from_components(
            grid16.ifft(spectral.sym_gradient(grid16, u_hat)))
        eig = sym3.eigenvalues(s)
        rng = np.random.default_rng(34)
        for _ in range(5):
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            sv = spectral.directional_strain(grid16, u_hat, v)
            mag = np.sqrt(sv[0] ** 2 + sv[1] ** 2 + sv[2] ** 2)
            assert np.all(mag >= np.abs(eig.lambda2) - 1e-12 * s.norm())

    def test_non_unit_rejected(self, grid8):
        u_hat = initial_data.random_div_free(grid8, seed=35)
        with pytest.raises(InvalidInputError):
            spectral.directional_strain(grid8, u_hat, np.array([1.0, 1.0, 0.0]))


class TestOrthogonalityRelations:
    def test_strain_orthogonal_to_scaled_identity(self, grid16):
        # tr(S) g integrates to zero structurally: the 33 entry is the
        # negated sum of the stored diagonals
        u_hat = initial_data.random_div_free(grid16, seed=36)
        s = sym3.TraceFreeSym3.from_components(
            grid16.ifft(spectral.sym_gradient(grid16, u_hat)))
        rng = np.random.default_rng(37)
        g = rng.standard_normal((grid16.n,) * 3)
        trace = s.m11 + s.m22 + s.m33
        assert grid16.integrate(trace * g) == 0.0

    def test_strain_orthogonal_to_hessians(self, grid16):
        u_hat = initial_data.random_div_free(grid16, seed=38)
        s_hat = spectral.sym_gradient(grid16, u_hat)
        s_phys = grid16.ifft(s_hat)
        rng = np.random.default_rng(39)
        f = rng.standard_normal((grid16.n,) * 3)
        f_hat = grid16.fft(f) * dealias_mask(grid16)
        k = (grid16.kdx, grid16.kdy, grid16.kdz)
        hess = [[grid16.ifft(-k[i] * k[j] * f_hat) for j in range(3)] for i in range(3)]
        s33 = -s_phys[0] - s_phys[1]
        inner = grid16.integrate(
            s_phys[0] * hess[0][0] + s_phys[1] * hess[1][1] + s33 * hess[2][2]
            + 2.0 * (s_phys[2] * hess[0][1] + s_phys[3] * hess[0][2]
                     + s_phys[4] * hess[1][2]))
        scale = np.sqrt(spectral.strain_norm_sq(grid16, s_hat)
                        * spectral.sobolev_norm_sq(grid16, f_hat, 1.0)) + 1e-300
        assert abs(inner) / scale < 1e-12


def _nyquist_noise(grid):
    """Projected real white noise: a divergence-free field with Nyquist content."""
    rng = np.random.default_rng(40)
    noise = spectral.symmetrize_kz0_plane(grid, grid.fft(rng.standard_normal((3,) + (grid.n,) * 3)))
    return spectral.project_divergence_free(grid, noise)


def _full_cube_mirror(coeffs):
    """A full cube's coefficients at -xi in the slot of xi."""
    axes = (-3, -2, -1)
    return np.roll(np.flip(coeffs, axis=axes), shift=(1, 1, 1), axis=axes)


class TestHalfSpectrumLayout:
    """Every operator on the half against its full-cube oracle: the
    Hermitian cube from expand_half, and plain numpy sums over full-cube
    wavenumbers built in the test."""

    @pytest.mark.parametrize("make", [
        lambda grid: initial_data.random_div_free(grid, seed=41), _nyquist_noise,
    ], ids=["random_div_free", "nyquist_noise"])
    def test_half_matches_full_cube(self, grid16, make):
        u_hat = make(grid16)
        if make is _nyquist_noise:
            assert np.max(np.abs(u_hat[..., grid16.n // 2])) > 0
        other = u_hat + 0.5 * u_hat[[1, 2, 0]]  # correlated with u, so no cancellation
        grad = np.stack([1j * grid16.kdx * u_hat[0], 1j * grid16.kdy * u_hat[0],
                         1j * grid16.kdz * u_hat[0]])
        (kx, ky, kz), ksq = full_cube_wavenumbers(grid16)
        kd_sq = kx ** 2 + ky ** 2 + kz ** 2

        def full(coeffs):
            return spectral.expand_half(grid16, coeffs)

        def plancherel(mode_values, alpha):
            return float(np.sum(mode_values * ksq ** alpha)) * grid16.spectral_weight

        def close(on_half, on_full):
            return abs(on_half - on_full) <= 1e-14 * abs(on_full)

        def strain(u):
            return np.stack([1j * kx * u[0], 1j * ky * u[1], 0.5j * (kx * u[1] + ky * u[0]),
                             0.5j * (kx * u[2] + kz * u[0]), 0.5j * (ky * u[2] + kz * u[1])])

        def curl(u):
            return np.stack([1j * (ky * u[2] - kz * u[1]), 1j * (kz * u[0] - kx * u[2]),
                             1j * (kx * u[1] - ky * u[0])])

        k = (kx, ky, kz)
        u_full = full(u_hat)
        for op, op_full in ((spectral.sym_gradient, strain), (spectral.vorticity, curl)):
            expected = op_full(u_full)
            assert np.max(np.abs(full(op(grid16, u_hat)) - expected)) \
                <= 1e-14 * np.max(np.abs(expected))
        for v_hat in (u_hat, u_hat + grad):
            v = full(v_hat)
            speed = np.sqrt(np.sum(np.abs(v) ** 2, axis=0))
            expected = (np.max(np.abs(kx * v[0] + ky * v[1] + kz * v[2]))
                        / np.max(np.sqrt(kd_sq) * speed))
            assert close(spectral.divergence_residual(grid16, v_hat), expected)
        s_hat = spectral.sym_gradient(grid16, u_hat)
        s_full = full(s_hat)
        mean_free = u_hat.copy()
        mean_free[:, 0, 0, 0] = 0.0  # the audit needs it
        m = full(mean_free)
        for alpha in (0.0, 1.0):
            assert close(spectral.sobolev_norm_sq(grid16, u_hat, alpha),
                         plancherel(np.sum(np.abs(u_full) ** 2, axis=0), alpha))
            assert close(spectral.strain_norm_sq(grid16, s_hat, alpha),
                         plancherel(spectral.strain_frobenius_sq(s_full), alpha))
            assert close(spectral.sobolev_inner(grid16, u_hat, other, alpha),
                         plancherel(np.sum(np.real(np.conj(u_full) * full(other)), axis=0),
                                    alpha))
            audit_full = (
                plancherel(spectral.strain_frobenius_sq(strain(m)), alpha),
                plancherel(sum(np.abs(0.5j * (k[j] * m[i] - k[i] * m[j])) ** 2
                               for j in range(3) for i in range(3)), alpha),
                0.5 * plancherel(np.sum(np.abs(curl(m)) ** 2, axis=0), alpha),
                0.5 * plancherel(sum(np.abs(1j * k[j] * m[i]) ** 2
                                     for j in range(3) for i in range(3)), alpha))
            for on_half, on_full in zip(
                    spectral.isometry_audit(grid16, mean_free, alpha).values(), audit_full):
                assert close(on_half, on_full)
        not_strain = s_hat + 0.5 * s_hat[[1, 2, 3, 4, 0]]
        s3 = sym3.full_matrix(full(not_strain))
        t = [sum(k[i] * s3[i, j] for i in range(3)) for j in range(3)]
        num_sq = sum(np.abs(kd_sq * s3[j, i] - k[j] * t[i] - t[j] * k[i]) ** 2
                     for j in range(3) for i in range(3))
        frob = np.sqrt(sum(np.abs(s3[j, i]) ** 2 for j in range(3) for i in range(3)))
        assert close(spectral.consistency_residual(grid16, not_strain),
                     np.max(np.sqrt(num_sq)) / np.max(kd_sq * frob))
        s3 = sym3.full_matrix(s_full)
        inv_ksq = np.divide(1.0, kd_sq, out=np.zeros_like(kd_sq), where=kd_sq > 0)
        expected = np.stack([-2j * sum(k[i] * s3[i, j] for i in range(3)) * inv_ksq
                             for j in range(3)])
        expected[:, 0, 0, 0] = 0.0
        assert np.max(np.abs(full(spectral.velocity_from_strain(grid16, s_hat)) - expected)) \
            <= 1e-14 * np.max(np.abs(expected))
        v = np.array([1.0, 2.0, 2.0]) / 3.0
        u_dot_v = v[0] * u_full[0] + v[1] * u_full[1] + v[2] * u_full[2]
        expected = c2c_ifft(0.5 * (1j * (v[0] * kx + v[1] * ky + v[2] * kz) * u_full
                                   + np.stack([1j * k[j] * u_dot_v for j in range(3)])))
        assert np.max(np.abs(directional_strain_via_derivatives(
            grid16, u_hat, v) - expected)) <= 1e-14 * np.max(np.abs(expected))
        # the kz = 0 and kz = n/2 planes hold the only mirror pairs of a half
        bent = u_hat + 1e-3j * np.abs(u_hat)
        bent_full = full(bent)
        expected = (np.max(np.abs(bent_full - np.conj(_full_cube_mirror(bent_full))))
                    / np.max(np.abs(bent_full)))
        assert expected > 0 and close(spectral.hermitian_residual(grid16, bent), expected)

    def test_wrong_last_axis_rejected(self, grid16):
        u_hat = initial_data.random_div_free(grid16, seed=42)
        for bad in (u_hat[..., :grid16.n // 2], spectral.expand_half(grid16, u_hat)):
            with pytest.raises(InvalidInputError):
                grid16.spectrum(bad)
            for op in (spectral.sym_gradient, spectral.vorticity,
                       spectral.divergence_residual, spectral.sobolev_norm_sq,
                       lambda grid, coeffs: grid.ifft(coeffs), solver.nonlinear_term):
                with pytest.raises(InvalidInputError):
                    op(grid16, bad)


class TestBlock:
    """Grid.block: the modes with |kx|, |ky|, |kz| <= b of a half-spectrum,
    b = (n - 1)//3 with dealiasing and n/2 without."""

    @pytest.fixture(params=[(n, dealias) for n in (8, 16, 32) for dealias in (True, False)],
                    ids=lambda p: f"n{p[0]}-{'dealias' if p[1] else 'no_dealias'}")
    def grid_block(self, request):
        n, dealias = request.param
        grid = Grid(n)
        b = (n - 1) // 3 if dealias else n // 2
        return grid, grid.block(dealias), b

    @staticmethod
    def _on_half(grid, k):
        return np.broadcast_to(k, (grid.n, grid.n, grid.n // 2 + 1))

    def test_shape(self, grid_block):
        grid, block, b = grid_block
        n = grid.n
        assert block.shape == ((2 * b + 1,) * 2 + (b + 1,) if b < n // 2
                               else (n, n, n // 2 + 1))
        assert block.gather(np.zeros((3, n, n, n // 2 + 1), dtype=complex)).shape \
            == (3,) + block.shape

    def test_scatter_of_gather_keeps_exactly_the_block(self, grid_block):
        grid, block, b = grid_block
        n = grid.n
        rng = np.random.default_rng(n)
        half = (rng.standard_normal((3, n, n, n // 2 + 1))
                + 1j * rng.standard_normal((3, n, n, n // 2 + 1)))
        kept = block.scatter(block.gather(half), np.zeros_like(half))
        inside = ((np.abs(grid.kx) <= b) & (np.abs(grid.ky) <= b)
                  & (grid.kz <= b))
        assert np.array_equal(kept, np.where(inside, half, 0.0))
        assert np.count_nonzero(inside) == np.prod(block.shape)

    def test_wavenumbers_are_the_grids(self, grid_block):
        grid, block, _ = grid_block
        for on_block, on_grid in ((block.kdx, grid.kdx), (block.kdy, grid.kdy),
                                  (block.kdz, grid.kdz),
                                  (block.inv_ksq_diff, grid.inv_ksq_diff)):
            assert np.array_equal(on_block, block.gather(self._on_half(grid, on_grid)))

    def test_rev_maps_each_index_to_its_negative(self, grid_block):
        grid, block, _ = grid_block
        xi = block.gather(self._on_half(grid, grid.kx))[:, 0, 0]
        # -(n/2) and +n/2 are one mode, so the Nyquist index is its own mirror
        assert np.all((xi[block._rev] + xi) % grid.n == 0)
        assert sorted(block._rev) == list(range(len(xi)))

    def test_zero_nyquist_zeroes_only_the_nyquist_row_and_plane(self, grid_block):
        grid, block, b = grid_block
        n = grid.n
        ones = np.ones((3,) + block.shape, dtype=complex)
        zeroed = spectral.zero_nyquist(block, ones.copy())
        kx, ky, kz = (block.gather(self._on_half(grid, k))
                      for k in (grid.kx, grid.ky, grid.kz))
        nyquist = (kx == n // 2) | (ky == n // 2) | (kz == n // 2)
        assert np.array_equal(zeroed, np.where(nyquist, 0.0, ones))
        assert nyquist.any() == (b == n // 2)

    @pytest.mark.parametrize("dealias", [True, False], ids=["dealias", "no_dealias"])
    @pytest.mark.parametrize("n", [8, 12, 16, 24, 32])
    def test_boundary_transforms_match_the_whole_half(self, n, dealias):
        # the pruned c2r and r2c against Grid.ifft and Grid.fft of the whole
        # half; at n = 12 and 24 a 1/n^3 split over the passes, rather than
        # applied once after the last, differs in the last bit
        grid = Grid(n)
        block = grid.block(dealias)
        rng = np.random.default_rng(n)
        u_block = (rng.standard_normal((3,) + block.shape)
                   + 1j * rng.standard_normal((3,) + block.shape))
        kept = u_block.copy()
        expected = grid.ifft(block.scatter(u_block, np.zeros((3,) + grid.shape, dtype=complex)))
        assert np.array_equal(block.to_physical(u_block), expected)
        assert np.array_equal(u_block, kept)
        prods = rng.standard_normal((5,) + (n,) * 3)
        out = np.empty((5,) + block.shape, dtype=complex)
        assert block.from_physical(prods, out) is out
        assert np.array_equal(out, block.gather(grid.fft(prods)))
