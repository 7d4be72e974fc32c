import numpy as np
import pytest

from strainflow import initial_data, spectral, sym3, verify
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
        assert spectral.hermitian_residual(coeffs) < 1e-13
        sym = spectral.hermitian_symmetrize(coeffs)
        assert np.max(np.abs(sym - coeffs)) < 1e-13 * np.max(np.abs(coeffs))
        # ifft via the half-spectrum agrees with the full inverse
        assert np.max(np.abs(spectral.ifft_hermitian(grid16, coeffs) - field)) < 1e-13

    def test_expand_half_roundtrip(self, grid16):
        rng = np.random.default_rng(2)
        field = rng.standard_normal((grid16.n,) * 3)
        half = spectral.rfft_half(grid16, field)
        full = spectral.expand_half(grid16, half)
        assert np.max(np.abs(full - grid16.fft(field))) < 1e-9


class TestSymGradient:
    def test_shear_strain(self, grid16):
        verify.shear_analytics(grid16)

    def test_taylor_green_strain(self, grid16):
        u_hat = initial_data.taylor_green(grid16)
        s_phys = spectral.strain_to_physical(grid16, spectral.sym_gradient(grid16, u_hat))
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
        u_hat = np.zeros((3,) + (grid8.n,) * 3, dtype=complex)
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
        s_hat = np.zeros((5,) + (grid8.n,) * 3, dtype=complex)
        s_hat[2, 0, 1, 0] = 1.0
        s_hat[2, 0, grid8.n - 1, 0] = 1.0
        assert spectral.consistency_residual(grid8, s_hat) < 1e-15

    def test_hessian_type_mode_fails_it(self, grid8):
        # trace-corrected xi (x) xi at xi = (0,1,0): diag(-1/3, 2/3, -1/3)
        s_hat = np.zeros((5,) + (grid8.n,) * 3, dtype=complex)
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
        s_hat = np.zeros((5,) + (grid8.n,) * 3, dtype=complex)
        assert np.all(spectral.velocity_from_strain(grid8, s_hat) == 0.0)

    def test_reconstruction_rejects_non_strain(self, grid8):
        s_hat = np.zeros((5,) + (grid8.n,) * 3, dtype=complex)
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
        a = spectral.antisym_matrix(w)
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
        z = np.zeros((grid8.n,) * 3, dtype=complex)
        assert spectral.sobolev_norm_sq(grid8, z, 1.0) == 0.0

    def test_gradient_cross_check(self, grid16):
        # |f|_{H1}^2 equals the L2 norm squared of the spectral gradient
        rng = np.random.default_rng(9)
        f = rng.standard_normal((grid16.n,) * 3)
        f_hat = grid16.fft(f - f.mean())
        grad_hat = np.stack([1j * grid16.kdx * f_hat, 1j * grid16.kdy * f_hat,
                             1j * grid16.kdz * f_hat])
        h1 = spectral.sobolev_norm_sq(grid16, f_hat * grid16.dealias_mask, 1.0)
        l2 = spectral.sobolev_norm_sq(grid16, grad_hat * grid16.dealias_mask, 0.0)
        assert h1 == pytest.approx(l2, rel=1e-12)

    def test_alpha_validation(self, grid8):
        f_hat = np.ones((grid8.n,) * 3, dtype=complex)
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
            grid8, np.zeros((3,) + (grid8.n,) * 3, dtype=complex), 0.0)
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
            via_derivs = spectral.directional_strain_via_derivatives(grid16, u_hat, v)
            scale = np.max(np.abs(via_matrix))
            assert np.max(np.abs(via_matrix - via_derivs)) < 1e-12 * scale

    def test_dominates_middle_eigenvalue(self, grid16):
        u_hat = initial_data.random_div_free(grid16, seed=33)
        s = spectral.strain_field(grid16, spectral.sym_gradient(grid16, u_hat))
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
        s = spectral.strain_field(grid16, spectral.sym_gradient(grid16, u_hat))
        rng = np.random.default_rng(37)
        g = rng.standard_normal((grid16.n,) * 3)
        trace = s.m11 + s.m22 + s.m33
        assert grid16.integrate(trace * g) == 0.0

    def test_strain_orthogonal_to_hessians(self, grid16):
        u_hat = initial_data.random_div_free(grid16, seed=38)
        s_hat = spectral.sym_gradient(grid16, u_hat)
        s_phys = spectral.strain_to_physical(grid16, s_hat)
        rng = np.random.default_rng(39)
        f = rng.standard_normal((grid16.n,) * 3)
        f_hat = grid16.fft(f) * grid16.dealias_mask
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
    noise = spectral.hermitian_symmetrize(grid.fft(rng.standard_normal((3,) + (grid.n,) * 3)))
    return spectral.project_divergence_free(grid, noise)


class TestHalfSpectrumLayout:
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
        half = grid16.half

        def close(on_half, on_full):
            return abs(on_half - on_full) <= 1e-14 * abs(on_full)

        for op in (spectral.sym_gradient, spectral.vorticity):
            full = op(grid16, u_hat)
            assert np.max(np.abs(op(grid16, half(u_hat)) - half(full))) \
                <= 1e-14 * np.max(np.abs(full))
        for v_hat in (u_hat, u_hat + grad):
            assert close(spectral.divergence_residual(grid16, half(v_hat)),
                         spectral.divergence_residual(grid16, v_hat))
        s_hat = spectral.sym_gradient(grid16, u_hat)
        mean_free = u_hat.copy()
        mean_free[:, 0, 0, 0] = 0.0  # the audit needs it
        for alpha in (0.0, 1.0):
            assert close(spectral.sobolev_norm_sq(grid16, half(u_hat), alpha),
                         spectral.sobolev_norm_sq(grid16, u_hat, alpha))
            assert close(spectral.strain_norm_sq(grid16, half(s_hat), alpha),
                         spectral.strain_norm_sq(grid16, s_hat, alpha))
            assert close(spectral.sobolev_inner(grid16, half(u_hat), half(other), alpha),
                         spectral.sobolev_inner(grid16, u_hat, other, alpha))
            for on_half, on_full in zip(
                    spectral.isometry_audit(grid16, half(mean_free), alpha).values(),
                    spectral.isometry_audit(grid16, mean_free, alpha).values()):
                assert close(on_half, on_full)
        not_strain = s_hat + 0.5 * s_hat[[1, 2, 3, 4, 0]]
        assert close(spectral.consistency_residual(grid16, half(not_strain)),
                     spectral.consistency_residual(grid16, not_strain))
        full = spectral.velocity_from_strain(grid16, s_hat)
        assert np.max(np.abs(spectral.velocity_from_strain(grid16, half(s_hat))
                             - half(full))) <= 1e-14 * np.max(np.abs(full))
        v = np.array([1.0, 2.0, 2.0]) / 3.0
        full = spectral.directional_strain_via_derivatives(grid16, u_hat, v)
        assert np.max(np.abs(spectral.directional_strain_via_derivatives(
            grid16, half(u_hat), v) - full)) <= 1e-14 * np.max(np.abs(full))
        with pytest.raises(InvalidInputError):
            spectral.hermitian_residual(half(u_hat))

    def test_wrong_last_axis_rejected(self, grid16):
        u_hat = initial_data.random_div_free(grid16, seed=42)
        for bad in (u_hat[..., :grid16.n // 2], u_hat[..., :grid16.n // 2 + 2]):
            with pytest.raises(InvalidInputError):
                grid16.like(grid16.kdz, bad)
            for op in (spectral.sym_gradient, spectral.vorticity,
                       spectral.divergence_residual, spectral.sobolev_norm_sq):
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
                  & (grid.half(grid.kz) <= b))
        assert np.array_equal(kept, np.where(inside, half, 0.0))
        assert np.count_nonzero(inside) == np.prod(block.shape)

    def test_wavenumbers_are_the_grids(self, grid_block):
        grid, block, _ = grid_block
        for on_block, on_grid in ((block.kdx, grid.kdx), (block.kdy, grid.kdy),
                                  (block.kdz, grid.half(grid.kdz)),
                                  (block.inv_ksq_diff, grid.half(grid.inv_ksq_diff))):
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
        zeroed = block.zero_nyquist(ones.copy())
        kx, ky, kz = (block.gather(self._on_half(grid, k))
                      for k in (grid.kx, grid.ky, grid.half(grid.kz)))
        nyquist = (kx == n // 2) | (ky == n // 2) | (kz == n // 2)
        assert np.array_equal(zeroed, np.where(nyquist, 0.0, ones))
        assert nyquist.any() == (b == n // 2)
