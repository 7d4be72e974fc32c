import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import dealias_mask, nyquist_noise_state
from strainflow import diagnostics, initial_data, solver, spectral, verify
from strainflow.exceptions import InstabilityError, InvalidInputError


class TestNonlinearTerm:
    def test_zero_velocity(self, grid8):
        u_hat = np.zeros((3,) + grid8.shape, dtype=complex)
        assert np.max(np.abs(solver.nonlinear_term(grid8, u_hat))) == 0.0

    def test_shear_mode_self_advection_vanishes(self, grid16):
        # u = sin(y) e1 advects itself along x where nothing varies
        n_hat = solver.nonlinear_term(grid16, initial_data.shear(grid16))
        assert np.max(np.abs(n_hat)) < 1e-12

    def test_output_projected(self, grid16):
        u_hat = initial_data.taylor_green(grid16)
        n_hat = solver.nonlinear_term(grid16, u_hat)
        assert spectral.divergence_residual(grid16, n_hat) < 1e-12
        # orthogonal to an arbitrary gradient field
        rng = np.random.default_rng(0)
        f_hat = grid16.fft(rng.standard_normal((grid16.n,) * 3))
        grad = np.stack([1j * grid16.kdx * f_hat, 1j * grid16.kdy * f_hat,
                         1j * grid16.kdz * f_hat])
        inner = np.sum(np.real(np.conj(n_hat) * grad)) * grid16.spectral_weight
        scale = np.sqrt(spectral.sobolev_norm_sq(grid16, n_hat)
                        * spectral.sobolev_norm_sq(grid16, grad))
        assert abs(inner) < 1e-12 * scale

    def test_mean_and_nyquist_free(self, grid8):
        u_hat = initial_data.random_div_free(grid8, seed=1, max_wavenumber=3)
        n_hat = solver.nonlinear_term(grid8, u_hat, dealias=False)
        assert np.max(np.abs(n_hat[:, 0, 0, 0])) == 0.0
        half = grid8.n // 2
        assert np.max(np.abs(n_hat[:, half, :, :])) == 0.0
        assert np.max(np.abs(n_hat[:, :, :, half])) == 0.0


class TestStep:
    def test_shear_exact_decay_100_steps(self, grid16):
        verify.shear_decay(grid16, t_end=0.1)

    def test_zero_stays_zero(self, grid8):
        config = solver.SolverConfig(n=8, dt=1e-2, t_end=0.1)
        stepper = solver.Stepper(grid8, config)
        state = solver.SolverState(np.zeros((3,) + grid8.shape, dtype=complex))
        state = stepper.step(state)
        assert np.max(np.abs(state.u_hat)) == 0.0

    def test_energy_never_increases_unforced(self, tg16):
        verify.energy_balance(tg16.grid, tg16.states)

    def test_energy_checks_read_the_half_spectrum(self, tg16):
        # states made from a half expand no full cube when checked
        grid = tg16.grid
        fresh = [solver.SolverState(s.u_hat.copy(), s.t, s.step_count)
                 for s in tg16.states]
        tracemalloc.start()
        try:
            verify.energy_balance(grid, fresh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * grid.n ** 3 * np.dtype(complex).itemsize

    def test_divergence_preserved(self, tg16):
        worst = max(spectral.divergence_residual(tg16.grid, s.u_hat) for s in tg16.states)
        assert worst < 1e-12

    def test_one_step_vs_two_half_steps_order(self, grid16):
        # the defect of one dt step against two dt/2 steps shrinks ~2^5
        # (mild viscosity keeps the heat factor out of the asymptotics)
        u0 = initial_data.random_div_free(grid16, seed=2, amplitude=5.0)

        def defect(dt):
            whole, half = (solver.Stepper(grid16, solver.SolverConfig(
                n=16, viscosity=0.1, dt=h, t_end=1.0)) for h in (dt, dt / 2))
            one = whole.step(solver.SolverState(u0.copy()))
            two = half.step(half.step(solver.SolverState(u0.copy())))
            return np.sqrt(spectral.sobolev_norm_sq(grid16, one.u_hat - two.u_hat))

        d1, d2 = defect(2e-2), defect(1e-2)
        assert 24.0 < d1 / d2 < 40.0

    def test_stepper_takes_one_resolved_dt(self, grid8):
        # run resolves dt=None by auto_dt; a Stepper is built for one dt
        with pytest.raises(InvalidInputError):
            solver.Stepper(grid8, solver.SolverConfig(n=8, dt=None, t_end=0.1))
        stepper = solver.Stepper(grid8, solver.SolverConfig(n=8, dt=1e-2, t_end=0.1))
        state = solver.SolverState(initial_data.taylor_green(grid8))
        with pytest.raises(TypeError):
            stepper.step(state, 1e-3)  # a positional dt is not read as a time

    def test_instability_reported_with_last_state(self, grid8):
        config = solver.SolverConfig(n=8, viscosity=1e-6, dt=5.0, t_end=50.0)
        u0 = initial_data.random_div_free(grid8, seed=3, amplitude=1e4)
        with pytest.raises(InstabilityError) as excinfo:
            solver.run(config, u0, grid=grid8)
        last = excinfo.value.last_state
        assert last is not None and np.all(np.isfinite(last.u_hat))


def reference_nonlinear_half(grid, u_half, dealias):
    """The allocating form of solver._nonlinear_half: every product and
    sum a fresh array, in the same order, on the shifted products
    u u^T - u_3^2 I."""
    mask = dealias_mask(grid)
    inv_ksq = grid.inv_ksq_diff
    if dealias:
        u_half = u_half * mask
    u = grid.ifft(u_half)
    u33 = u[2] * u[2]
    prods = np.stack([u[0] * u[0] - u33, u[1] * u[1] - u33,
                      u[0] * u[1], u[0] * u[2], u[1] * u[2]])
    p_hat = grid.fft(prods)
    kx, ky, kz = grid.kdx, grid.kdy, grid.kdz
    n_half = np.stack([
        -1j * (kx * p_hat[0] + ky * p_hat[2] + kz * p_hat[3]),
        -1j * (kx * p_hat[2] + ky * p_hat[1] + kz * p_hat[4]),
        -1j * (kx * p_hat[3] + ky * p_hat[4]),
    ])
    return _finish_half(grid, n_half, mask, inv_ksq, dealias)


def conservation_nonlinear_half(grid, u_half, dealias):
    """The slow path the shifted products replace: the six products
    u_j u_m, unshifted, with three terms in every row of the divergence."""
    mask = dealias_mask(grid)
    inv_ksq = grid.inv_ksq_diff
    if dealias:
        u_half = u_half * mask
    u = grid.ifft(u_half)
    prods = np.stack([u[0] * u[0], u[1] * u[1], u[2] * u[2],
                      u[0] * u[1], u[0] * u[2], u[1] * u[2]])
    p_hat = grid.fft(prods)
    kx, ky, kz = grid.kdx, grid.kdy, grid.kdz
    n_half = np.stack([
        -1j * (kx * p_hat[0] + ky * p_hat[3] + kz * p_hat[4]),
        -1j * (kx * p_hat[3] + ky * p_hat[1] + kz * p_hat[5]),
        -1j * (kx * p_hat[4] + ky * p_hat[5] + kz * p_hat[2]),
    ])
    return _finish_half(grid, n_half, mask, inv_ksq, dealias)


def _finish_half(grid, n_half, mask, inv_ksq, dealias):
    """Mask, zero Nyquist and mean, symmetrize kz = 0, Leray-project."""
    kx, ky, kz = grid.kdx, grid.kdy, grid.kdz
    if dealias:
        n_half *= mask
    spectral.zero_nyquist(grid, n_half)
    n_half[:, 0, 0, 0] = 0.0
    spectral.symmetrize_kz0_plane(grid, n_half)
    dot = (kx * n_half[0] + ky * n_half[1] + kz * n_half[2]) * inv_ksq
    n_half[0] -= kx * dot
    n_half[1] -= ky * dot
    n_half[2] -= kz * dot
    return n_half


def reference_step(grid, config, force, u_half, t, dt,
                   nonlinear_half=reference_nonlinear_half):
    """The allocating integrating-factor RK4 step on the half-spectrum."""
    e_half = np.exp(-config.viscosity * grid.ksq * (0.5 * dt))
    e_full = e_half * e_half

    def rhs(v, time):
        out = nonlinear_half(grid, v, config.dealias)
        f_hat = force(time)
        return out if f_hat is None else out + f_hat

    na = rhs(u_half, t)
    nb = rhs(e_half * (u_half + (0.5 * dt) * na), t + 0.5 * dt)
    nc = rhs(e_half * u_half + (0.5 * dt) * nb, t + 0.5 * dt)
    nd = rhs(e_full * u_half + dt * (e_half * nc), t + dt)
    u_new = e_full * u_half + (dt / 6.0) * (e_full * na + 2.0 * e_half * (nb + nc) + nd)
    u_new[:, 0, 0, 0] = 0.0
    return u_new


class TestInPlaceStep:
    """Stepper.step runs in preallocated buffers; it must give the bits of
    the allocating form and never hand out a buffer."""

    CASES = {
        "taylor_green": (lambda g: initial_data.taylor_green(g), True, "none"),
        "random_div_free": (lambda g: initial_data.random_div_free(g, seed=5, amplitude=5.0),
                            True, "none"),
        "nyquist_noise": (nyquist_noise_state, True, "none"),
        "no_dealias": (lambda g: initial_data.random_div_free(g, seed=6, amplitude=5.0),
                       False, "none"),
        # O(1) Nyquist content: the no-dealias block holds the Nyquist row and plane
        "nyquist_noise_no_dealias": (nyquist_noise_state, False, "none"),
        "expr_forced": (lambda g: initial_data.random_div_free(g, seed=7),
                        True, "expr:sin(2*y);cos(3*z)*t;sin(x)"),
        # wavenumbers 6 and 7 lie outside the n=16 dealiasing block (|k| <= 5)
        "expr_forced_outside_block": (lambda g: initial_data.random_div_free(g, seed=7),
                                      True, "expr:sin(7*y);cos(6*z)*t;sin(7*x)"),
    }

    def _stepper_and_state(self, grid, case):
        make, dealias, force = self.CASES[case]
        config = solver.SolverConfig(n=grid.n, viscosity=0.1, dt=1e-3, t_end=0.1,
                                     dealias=dealias, force=force)
        return solver.Stepper(grid, config), solver.SolverState(make(grid))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_allocating_reference(self, grid16, case):
        stepper, state = self._stepper_and_state(grid16, case)
        config, dealias = stepper.config, stepper.config.dealias
        steppers = (stepper, stepper, solver.Stepper(grid16, dataclasses.replace(config, dt=2e-3),
                                                     stepper.force))
        for dt, step in zip((1e-3, 1e-3, 2e-3), steppers):
            expected = reference_step(grid16, config, stepper.force, state.u_hat,
                                      state.t, dt)
            state = step.step(state)
            assert np.array_equal(state.u_hat, expected)
        assert np.array_equal(
            solver.nonlinear_term(grid16, state.u_hat, dealias),
            reference_nonlinear_half(grid16, state.u_hat, dealias))

    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("case", ["taylor_green", "random_div_free"])
    def test_block_step_matches_allocating_reference_at_n32(self, grid32, case, dealias):
        # the stages run on the 21 x 21 x 11 block, or on the whole half
        make = self.CASES[case][0]
        config = solver.SolverConfig(n=32, dt=1e-3, t_end=0.1, dealias=dealias)
        stepper = solver.Stepper(grid32, config)
        state = solver.SolverState(make(grid32))
        for _ in range(3):
            expected = reference_step(grid32, config, stepper.force, state.u_hat,
                                      state.t, 1e-3)
            state = stepper.step(state)
            assert np.array_equal(state.u_hat, expected)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_shifted_products_match_conservation_form(self, grid16, case):
        # the shift by u_3^2 I adds a gradient the projection removes, so the
        # stage agrees with the six-product form to rounding, aliased or not
        stepper, state = self._stepper_and_state(grid16, case)
        config, dealias = stepper.config, stepper.config.dealias
        expected = state.u_hat
        steppers = (stepper, stepper, solver.Stepper(grid16, dataclasses.replace(config, dt=2e-3),
                                                     stepper.force))
        for dt, step in zip((1e-3, 1e-3, 2e-3), steppers):
            expected = reference_step(grid16, config, stepper.force, expected, state.t, dt,
                                      conservation_nonlinear_half)
            state = step.step(state)
            assert np.max(np.abs(state.u_hat - expected)) <= 1e-13 * np.max(np.abs(expected))
        slow = conservation_nonlinear_half(grid16, state.u_hat, dealias)
        fast = solver.nonlinear_term(grid16, state.u_hat, dealias)
        assert np.max(np.abs(fast - slow)) <= 1e-13 * np.max(np.abs(slow))

    def test_fft_worker_count_keeps_the_bits(self, grid16, monkeypatch):
        halves = []
        for workers in (1, 2):
            monkeypatch.setattr(spectral, "_FFT_WORKERS", workers)
            stepper, state = self._stepper_and_state(grid16, "random_div_free")
            for _ in range(3):
                state = stepper.step(state)
            halves.append(state.u_hat)
        assert np.array_equal(halves[0], halves[1])

    def test_time_dependent_force_evaluated_three_times_a_step(self, grid16, monkeypatch):
        # the two t + dt/2 stages share one evaluation, and the next step's
        # first stage reuses the last one's
        calls = []
        force_hat = solver._force_hat
        monkeypatch.setattr(solver, "_force_hat",
                            lambda grid, field: calls.append(1) or force_hat(grid, field))
        stepper, state = self._stepper_and_state(grid16, "expr_forced")
        assert stepper.force.time_dependent
        for _ in range(4):
            before = len(calls)
            state = stepper.step(state)
            assert len(calls) - before <= 3
        assert len(calls) == 1 + 2 * 4

    def test_run_evaluates_time_dependent_force_twice_a_step(self, grid8, monkeypatch):
        # the last stage evaluates the force at the time the state then
        # carries, k dt, so the next step's first stage always reuses it
        calls = []
        force_hat = solver._force_hat
        monkeypatch.setattr(solver, "_force_hat",
                            lambda grid, field: calls.append(1) or force_hat(grid, field))
        config = solver.SolverConfig(n=8, dt=1e-3, t_end=1.0, record_every=100,
                                     force="expr:sin(y)*t;0;cos(x)*t")
        result = solver.run(config, initial_data.taylor_green(grid8), grid=grid8)
        assert result.final_state.step_count == 1000
        assert len(calls) == 2 * 1000 + 1

    def test_returned_states_never_alias(self, grid16):
        stepper = solver.Stepper(grid16, solver.SolverConfig(n=16, dt=1e-3, t_end=0.1))
        first = solver.SolverState(initial_data.random_div_free(grid16, seed=8, amplitude=5.0))
        first_half = first.u_hat.copy()
        kept = stepper.step(first)
        kept_half = kept.u_hat.copy()
        later = stepper.step(stepper.step(kept))
        assert np.array_equal(kept.u_hat, kept_half)
        assert not np.shares_memory(later.u_hat, kept.u_hat)
        assert np.array_equal(first.u_hat, first_half)

    def test_instability_keeps_last_state_intact(self, grid8):
        config = solver.SolverConfig(n=8, viscosity=1e-6, dt=5.0, t_end=50.0)
        stepper = solver.Stepper(grid8, config)
        state = solver.SolverState(initial_data.random_div_free(grid8, seed=3, amplitude=1e4))
        with pytest.raises(InstabilityError) as excinfo:
            for _ in range(10):
                before = state.u_hat.copy()
                state = stepper.step(state)
        last = excinfo.value.last_state
        assert last is state and np.array_equal(last.u_hat, before)
        assert np.all(np.isfinite(last.u_hat))

    @pytest.mark.parametrize("n", [16, 32])
    def test_step_allocates_under_four_half_arrays(self, n):
        # a warmed-up step allocates its output, the r2c output of the
        # products and the c2r velocity; the allocating form peaked near 12
        grid = spectral.Grid(n)
        for dealias in (True, False):
            stepper = solver.Stepper(grid, solver.SolverConfig(n=n, dt=1e-3, t_end=0.1,
                                                               dealias=dealias))
            state = stepper.step(solver.SolverState(initial_data.taylor_green(grid)))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                state = stepper.step(state)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak < 4 * state.u_hat.nbytes


class TestSolverState:
    def test_layouts(self, grid8):
        # one layout: a state holds the kz in [0, n/2] half it was given
        u_hat = initial_data.taylor_green(grid8)
        state = solver.SolverState(u_hat, 0.5, 3)
        assert state.u_hat is u_hat
        assert state.u_hat.shape == (3,) + grid8.shape == (3, 8, 8, 5)
        # the full Hermitian cube of the same field is rejected, as is any other shape
        for bad in (spectral.expand_half(grid8, u_hat), np.zeros((3, 8, 8, 6), dtype=complex),
                    u_hat[0], u_hat[:2]):
            with pytest.raises(InvalidInputError):
                solver.SolverState(bad)


class TestRun:
    def test_record_cadence(self, grid8):
        config = solver.SolverConfig(n=8, dt=1e-3, t_end=0.02, record_every=5)
        result = solver.run(config, initial_data.taylor_green(grid8), grid=grid8,
                            keep_states=True)
        assert len(result.times) == 5  # t = 0, 5dt, 10dt, 15dt, 20dt
        assert np.allclose(np.diff(result.times), 5e-3, rtol=0, atol=1e-15)
        assert result.final_state.step_count == 20

    def test_adaptive_cfl(self, grid8):
        config = solver.SolverConfig(n=8, dt=None, t_end=0.05, record_every=1)
        result = solver.run(config, initial_data.taylor_green(grid8), grid=grid8)
        assert result.final_state.t == pytest.approx(0.05, abs=1e-10)
        dx = 2 * np.pi / 8
        u_max = np.sqrt(np.sum(grid8.ifft(initial_data.taylor_green(grid8)) ** 2,
                               axis=0)).max()
        assert result.final_state.step_count >= 0.05 / (0.5 * dx / u_max) - 1

    def test_auto_dt_records_on_a_uniform_grid(self, grid8):
        # the step is the CFL step of u0 shortened to whole record
        # intervals, so every record, the last included, is on one grid
        u0 = initial_data.taylor_green(grid8)
        config = solver.SolverConfig(n=8, dt=None, t_end=2.0, record_every=1)
        result = solver.run(config, u0, grid=grid8, keep_states=True)
        assert result.config.dt == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert np.allclose(result.times, np.arange(7) / 3.0, rtol=0, atol=1e-15)
        assert solver.energy_budget(grid8, result.states).shape == (7,)
        zero = solver.run(solver.SolverConfig(n=8, dt=None, t_end=0.5, record_every=4),
                          np.zeros_like(u0), grid=grid8)
        assert zero.config.dt == 0.125 and list(zero.times) == [0.0, 0.5]

    def test_non_hermitian_initial_velocity_rejected(self, grid8):
        # the self-mirrored kz = 0 and kz = n/2 planes of a half must be
        # Hermitian; Taylor-Green's kz = 0 plane is empty, this field's is not
        config = solver.SolverConfig(n=8, dt=1e-3, t_end=0.01)
        u0 = initial_data.random_div_free(grid8, seed=11)
        assert np.max(np.abs(u0[..., 0])) > 0
        nyquist = u0.copy()
        nyquist[0, 1, 2, grid8.n // 2] = 1e-3 * np.max(np.abs(u0))  # its mirror stays 0
        for bad in (u0 + 1e-3j * np.abs(u0), nyquist):
            with pytest.raises(InvalidInputError, match="Hermitian"):
                solver.run(config, bad, grid=grid8)

    def test_huge_initial_velocity_rejected(self, grid8):
        # finite, but its energy overflows (1e300), or a cubic or quartic
        # term of the first record would (1e150, 1e100): rejected before
        # any check or record can overflow, without a numpy warning
        config = solver.SolverConfig(n=8, dt=1e-3, t_end=0.01)
        for amplitude in (1e300, 1e150, 1e100):
            u0 = initial_data.random_div_free(grid8, seed=0, amplitude=amplitude)
            assert np.all(np.isfinite(u0))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidInputError, match="too large"):
                    solver.run(config, u0, grid=grid8)

    def test_bad_initial_shape(self, grid8):
        config = solver.SolverConfig(n=8, dt=1e-3, t_end=0.01)
        full_cube = spectral.expand_half(grid8, initial_data.taylor_green(grid8))
        for bad in (np.zeros((3, 4, 4, 4), dtype=complex), full_cube):
            with pytest.raises(InvalidInputError):
                solver.run(config, bad, grid=grid8)

    def test_grid_of_another_size_rejected(self, grid8):
        # ran at n=8 and reported config.n = 32
        config = solver.SolverConfig(n=32, dt=1e-3, t_end=0.01, record_every=5)
        u0 = initial_data.taylor_green(grid8)
        with pytest.raises(InvalidInputError, match="n=8 does not match config n=32"):
            solver.run(config, u0, grid=grid8)
        with pytest.raises(InvalidInputError, match="n=8 does not match config n=32"):
            diagnostics.run_with_diagnostics(config, u0, grid=grid8)

    def test_state_too_large_to_record_is_a_failure(self, grid8):
        # a force that passes the size rule made a finite state whose
        # record overflowed, with a numpy warning
        config = solver.SolverConfig(
            n=8, dt=1e-3, t_end=1e-3, record_every=1,
            force="expr:1e30*sin(y)*cos(z);1e30*cos(x);1e30*sin(x+z)")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InstabilityError, match="too large to record after step 1") as info:
                diagnostics.run_with_diagnostics(config, initial_data.taylor_green(grid8),
                                                 grid=grid8)
        assert info.value.last_state.step_count == 1

    def test_caller_u0_never_written(self, tmp_path, grid8):
        # run symmetrizes, zeroes and projects its own copy, so one u0
        # array can start any number of runs
        config = solver.SolverConfig(n=8, dt=1e-3, t_end=0.02, record_every=4)
        u0 = nyquist_noise_state(grid8)
        before = u0.copy()
        csvs = []
        for name in ("first.csv", "second.csv"):
            collector = diagnostics.RecordCollector(grid8)
            solver.run(config, u0, grid=grid8, on_record=collector)
            assert np.array_equal(u0, before)
            diagnostics.write_csv(collector.finalize(), tmp_path / name)
            csvs.append((tmp_path / name).read_bytes())
        assert csvs[0] == csvs[1]

    def test_divergent_initial_velocity_rejected(self, grid8):
        config = solver.SolverConfig(n=8, dt=1e-3, t_end=0.01)
        u0 = initial_data.taylor_green(grid8)
        u0[0, 1, 0, 0] = u0[0, -1, 0, 0] = 1e-6  # cos(x) e1: xi . u != 0
        with pytest.raises(InvalidInputError, match="divergence-free"):
            solver.run(config, u0, grid=grid8)

    def test_dealias_changes_wideband_budget(self, grid16):
        # with spectral content beyond the 2/3 band, aliasing shifts the
        # budget; the dealiased run keeps the energy identity tighter
        u0 = initial_data.random_div_free(grid16, seed=4, max_wavenumber=7,
                                          amplitude=20.0)
        residuals = {}
        for dealias in (True, False):
            config = solver.SolverConfig(n=16, viscosity=0.05, dt=1e-3, t_end=0.1,
                                         record_every=10, dealias=dealias)
            result = solver.run(config, u0, grid=grid16, keep_states=True)
            residuals[dealias] = np.max(np.abs(
                solver.energy_budget(grid16, result.states, viscosity=0.05)))
        assert residuals[True] != residuals[False]
        assert residuals[True] < residuals[False]


class TestEnergyBudget:
    def test_exact_solution_residual(self, grid16):
        verify.shear_decay(grid16, t_end=1.0)  # budget residual < 1e-8

    def test_zero_flow(self, grid8):
        states = [solver.SolverState(np.zeros((3,) + grid8.shape, dtype=complex), t, i)
                  for i, t in enumerate(np.linspace(0, 1, 6))]
        assert np.max(np.abs(solver.energy_budget(grid8, states))) == 0.0

    def test_needs_five_snapshots(self, grid8):
        states = [solver.SolverState(np.zeros((3,) + grid8.shape, dtype=complex), t, i)
                  for i, t in enumerate(np.linspace(0, 1, 4))]
        with pytest.raises(InvalidInputError):
            solver.energy_budget(grid8, states)

    def test_fourth_order_refinement(self, grid16):
        # residual falls ~16x per dt halving across a decade of dt
        u0 = initial_data.taylor_green(grid16)
        residuals = []
        for dt in (4e-3, 2e-3, 1e-3, 5e-4):
            config = solver.SolverConfig(n=16, viscosity=1.0, dt=dt, t_end=0.4,
                                         record_every=10)
            result = solver.run(config, u0, grid=grid16, keep_states=True)
            residuals.append(np.max(np.abs(solver.energy_budget(grid16, result.states))))
        for coarse, fine in zip(residuals, residuals[1:]):
            assert 8.0 < coarse / fine < 32.0


class TestForcing:
    def test_expression_force_projected(self, grid16):
        force = solver.make_force(grid16, "expr:sin(y);0.0;cos(x)*sin(z)")
        f_hat = force(0.0)
        assert spectral.divergence_residual(grid16, f_hat) < 1e-12
        assert np.max(np.abs(f_hat[:, 0, 0, 0])) == 0.0

    def test_half_spectrum_force_matches_full_cube_path(self, grid16):
        # a force is the rfft half-spectrum projected in place; the c2c
        # transform it replaced agrees on kz >= 0 (the projection is per mode)
        field = np.random.default_rng(9).standard_normal((3,) + (16,) * 3)
        full = spectral.project_divergence_free(
            grid16, np.fft.fftn(field, axes=(-3, -2, -1))[..., :9])
        spectral.zero_nyquist(grid16, full)
        full[:, 0, 0, 0] = 0.0
        half = solver._force_hat(grid16, field)
        assert half.shape == (3, 16, 16, 9)
        assert np.max(np.abs(half - full)) <= 1e-13 * np.max(np.abs(full))

    def test_time_dependent_expression(self, grid16):
        force = solver.make_force(grid16, "expr:sin(y)*t;0.0;0.0")
        assert force.time_dependent
        assert np.max(np.abs(force(0.0))) == 0.0
        assert np.max(np.abs(force(1.0))) > 0.0

    def test_forced_energy_bound(self, grid16):
        # from rest, |u(t)| <= max|f| / nu (smallest active wavenumber is 1)
        config = solver.SolverConfig(n=16, viscosity=1.0, dt=1e-3, t_end=0.5,
                                     record_every=25, force="expr:0.1*sin(y);0;0")
        u0 = np.zeros((3,) + grid16.shape, dtype=complex)
        kinetic = []
        result = solver.run(config, u0, grid=grid16,
                            on_record=lambda s: kinetic.append(
                                solver.kinetic_energy(grid16, s.u_hat)))
        assert kinetic[-1] > 0.0
        force = solver.make_force(grid16, config.force)
        f_norm = np.sqrt(spectral.sobolev_norm_sq(grid16, force(0.0)))
        bound = 0.5 * (f_norm / config.viscosity) ** 2
        assert all(k <= bound * (1 + 1e-9) for k in kinetic)

    @pytest.mark.parametrize("kind", ["expr", "file"])
    def test_forced_states_keep_exact_kz0_symmetry(self, tmp_path, grid16, kind):
        # a force enters through clean_half like every state, so N + f and
        # every recorded state are exactly self-conjugate on kz = 0
        spec = "expr:sin(2*y)*cos(z);cos(3*z)*t;sin(x+y)"
        if kind == "file":
            from strainflow import snapshots
            path = tmp_path / "f.snap"
            snapshots.save_snapshot(path, "velocity", 0.0, 1.0,
                                    grid16.ifft(initial_data.random_div_free(grid16, seed=2)))
            spec = f"file:{path}"
        config = solver.SolverConfig(n=16, dt=1e-3, t_end=0.02, record_every=5, force=spec)
        result = solver.run(config, initial_data.random_div_free(grid16, seed=1), grid=grid16,
                            keep_states=True)
        residuals = [spectral.hermitian_residual(grid16, s.u_hat) for s in result.states]
        assert residuals == [0.0] * 5

    def test_file_force(self, tmp_path, grid8):
        from strainflow import snapshots
        u_phys = grid8.ifft(initial_data.shear(grid8))
        path = tmp_path / "f.snap"
        snapshots.save_snapshot(path, "velocity", 0.0, 1.0, u_phys)
        force = solver.make_force(grid8, f"file:{path}")
        f_hat = force(3.7)
        assert spectral.divergence_residual(grid8, f_hat) < 1e-12
        assert np.max(np.abs(f_hat)) > 0.0

    def test_file_sequence_force_switches_at_knots(self, tmp_path, grid8):
        from strainflow import snapshots
        early = tmp_path / "f0.snap"
        late = tmp_path / "f1.snap"
        snapshots.save_snapshot(early, "velocity", 0.0, 1.0,
                                grid8.ifft(initial_data.shear(grid8)))
        snapshots.save_snapshot(late, "velocity", 0.5, 1.0,
                                grid8.ifft(initial_data.taylor_green(grid8)))
        force = solver.make_force(grid8, f"files:{late},{early}")  # any order
        assert force.time_dependent
        assert not np.array_equal(force(0.1), force(0.9))
        assert np.array_equal(force(0.5), force(2.0))

    def test_bad_force_spec(self, grid8):
        with pytest.raises(InvalidInputError):
            solver.make_force(grid8, "gibberish:1")
        with pytest.raises(InvalidInputError):
            solver.make_force(grid8, "expr:sin(y)")  # needs three components
        with pytest.raises(InvalidInputError):
            solver.make_force(grid8, "files:")

    def test_expression_outside_grammar_rejected(self, tmp_path, grid8, monkeypatch):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "x.npy"
        for expr in (f"np.save({str(target)!r}, 1) or 0", "sin.__class__",
                     "sin", "sin(x, y)", "x // 2", "x < y", "True", "1j",
                     "__import__('os')", "(lambda: 1)()", "1 +", "x+" * 5000 + "1"):
            with pytest.raises(InvalidInputError):
                solver.make_force(grid8, f"expr:{expr};0;0")
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(InvalidInputError):
            solver.make_force(grid8, "expr:1/0;0;0")(0.0)

    def test_non_finite_expression_rejected(self, grid8):
        # constants are floats, so 9**9**9 overflows instead of building a
        # huge integer; a complex or non-finite value is rejected too
        for expr in ("9**9**9", "1" + "0" * 400, "(-8)**(1/3)", "x**1e300",
                     "sqrt(x - 1)", "t**-1", "x*(-8)**(1/3)"):
            with pytest.raises(InvalidInputError):
                with np.errstate(all="ignore"):
                    solver.make_force(grid8, f"expr:{expr};0;0")(0.0)

    def test_time_dependence_from_names(self, grid8):
        # "t" inside sqrt or tanh is not the time variable
        assert not solver.make_force(grid8, "expr:sqrt(2)*tanh(y);0;0").time_dependent
        assert solver.make_force(grid8, "expr:0;0;-t**2*sin(x)").time_dependent


class TestConfigValidation:
    def test_rejects_bad_values(self):
        for bad in ({"viscosity": 0.0}, {"dt": -1e-3}, {"record_every": 0},
                    {"t_end": math.inf}, {"dt": math.nan}, {"viscosity": math.nan},
                    {"n": 7}, {"n": 6}, {"n": 8, "dt": 1e-3, "t_end": 0.0305},
                    # whole steps but not whole record intervals
                    {"n": 8, "dt": 1e-3, "t_end": 0.065}, {"t_end": 0.5, "record_every": 1000}):
            with pytest.raises(InvalidInputError):
                solver.SolverConfig(**bad)
