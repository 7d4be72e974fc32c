"""Finite-time blow-up toy model on trace-free symmetric matrices.

The model keeps the local part of the strain self-interaction:

    dM/dt = -M^2 + (|M|^2 / 3) I,

which preserves symmetry and trace-freeness and leaves the eigenvectors
fixed (the right side is a polynomial in M).  In the two surviving
degrees of freedom, the top eigenvalue lambda3 > 0 and the shape ratio
r = -lambda1/lambda3 in [1/2, 2], the dynamics reduce to

    dlambda3/dt = (1/3) lambda3^2 (2 r^2 - 2 r - 1)
    dr/dt       = (1/3) lambda3   (-2 r^3 + 3 r^2 + 3 r - 2).

The ratio polynomial is positive on (1/2, 2), so r drifts monotonically
to the absorbing value 2 (two equal positive eigenvalues) and lambda3
blows up in finite time for every r(0) > 1/2; the r = 1/2 line (two
equal negative eigenvalues) decays instead.  Near blow-up 1/lambda3 is
asymptotically affine in t with slope -1, which is what the blow-up
time estimator extrapolates.

Integration uses an embedded Dormand-Prince 5(4) pair with step
rejection and compensated time accumulation, so trajectories can chase
lambda3 across twelve decades without the step size stalling against
floating-point time resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sym3
from .exceptions import InvalidInputError, NumericalFailureError

# Zero of the lambda3 growth polynomial 2r^2 - 2r - 1: growth requires
# r above this, decay happens below.
R_GROWTH_ZERO = (1.0 + math.sqrt(3.0)) / 2.0

DEFAULT_BLOWUP_THRESHOLD = 1e12
DECAY_THRESHOLD = 1e-6  # matrix norm below which a run that reached its end decayed
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
_MAX_STEPS = 2_000_000
_RATIO_CLAMP = 1e-9

# Dormand-Prince 5(4) tableau (FSAL: the 7th stage is next step's first).
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0,
                                49.0 / 176.0, -5103.0 / 18656.0)
_B1, _B3, _B4, _B5, _B6 = (35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0,
                           -2187.0 / 6784.0, 11.0 / 84.0)
_E1, _E3, _E4, _E5, _E6, _E7 = (71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0,
                                -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)


def _growth_poly(r: float) -> float:
    """2r^2 - 2r - 1, the sign of dlambda3/dt."""
    return 2.0 * r * r - 2.0 * r - 1.0


def _ratio_poly(r: float) -> float:
    """-2r^3 + 3r^2 + 3r - 2, the sign of dr/dt; vanishes at 1/2 and 2."""
    return ((-2.0 * r + 3.0) * r + 3.0) * r - 2.0


def _rhs_matrix_components(y):
    """Right-hand side -M^2 + (|M|^2/3) I of the five stored entries
    (m11, m22, m12, m13, m23) of M."""
    a, b, d, e, f = y
    c = -a - b
    norm_sq = a * a + b * b + c * c + 2.0 * (d * d + e * e + f * f)
    third = norm_sq / 3.0
    return np.array([
        -(a * a + d * d + e * e) + third,
        -(d * d + b * b + f * f) + third,
        -(d * (a + b) + e * f),
        -(e * (a + c) + d * f),
        -(f * (b + c) + d * e),
    ])


def _check_reduced(lambda3: float, r: float) -> float:
    """The one check of a reduced start: returns r clamped into [1/2, 2]."""
    if not (math.isfinite(lambda3) and lambda3 > 0):
        raise InvalidInputError(f"lambda3 must be positive and finite, got {lambda3}")
    if not (0.5 - _RATIO_CLAMP <= r <= 2.0 + _RATIO_CLAMP):
        raise InvalidInputError(f"ratio r={r} outside [1/2, 2]")
    return min(max(r, 0.5), 2.0)


def _check_run(t_end: float, blowup_threshold: float) -> None:
    """The one check of the run settings: both positive and finite."""
    for name, value in (("t_end", t_end), ("blowup_threshold", blowup_threshold)):
        if not (math.isfinite(value) and value > 0):
            raise InvalidInputError(f"{name} must be positive and finite, got {value}")


def rhs_reduced(lambda3: float, r: float):
    """Reduced right-hand side (dlambda3/dt, dr/dt)."""
    _check_reduced(lambda3, r)
    return (lambda3 * lambda3 * _growth_poly(r) / 3.0,
            lambda3 * _ratio_poly(r) / 3.0)


def blowup_time_bound(lambda3_0: float, r_0: float):
    """Upper bound 3 / (g(r0) lambda3(0)) on the blow-up time.

    Valid once the ratio exceeds the growth-polynomial zero (1+sqrt 3)/2
    (below it lambda3 first shrinks and no closed-form bound applies);
    returns None there.  Tight exactly on the r0 = 2 scaling family.
    """
    if not (lambda3_0 > 0):
        raise InvalidInputError("lambda3(0) must be positive")
    if r_0 <= R_GROWTH_ZERO:
        return None
    return 3.0 / (_growth_poly(r_0) * lambda3_0)


@dataclass
class ToyTrajectory:
    t: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray
    lambda3: np.ndarray
    r: np.ndarray


@dataclass
class ToyResult:
    outcome: str            # "blew_up" | "decayed" | "completed"
    t_est: float | None     # estimated blow-up time (blew_up only)
    trajectory: ToyTrajectory
    final_matrix: sym3.TraceFreeSym3 | None = None


class _KahanClock:
    """Compensated accumulation of the integration time."""

    __slots__ = ("value", "_comp")

    def __init__(self, start: float = 0.0):
        self.value = start
        self._comp = 0.0

    def advance(self, h: float) -> float:
        y = h - self._comp
        total = self.value + y
        self._comp = (total - self.value) - y
        self.value = total
        return self.value


def _step_factor(err_norm: float) -> float:
    if err_norm == 0.0:
        return 5.0
    return min(5.0, max(0.2, 0.9 * err_norm ** -0.2))


def _extrapolate_blowup_time(t1, lam1, t2, lam2):
    """Zero crossing of the (asymptotically affine) 1/lambda3 history."""
    inv1, inv2 = 1.0 / lam1, 1.0 / lam2
    if inv1 > inv2 > 0 and t2 > t1:
        return t2 + inv2 * (t2 - t1) / (inv1 - inv2)
    return t2 + inv2  # slope -> -1 fallback


def _classify_end(status, times, lambda3, r, norm=None):
    """Outcome and estimated blow-up time (None unless blown up) of a run.

    A run that reached its end has "decayed" when the matrix norm,
    lambda3 sqrt(2 r^2 - 2 r + 2) in reduced coordinates unless given,
    is below DECAY_THRESHOLD, else it "completed".
    """
    if status == "blew_up":
        return "blew_up", float(_extrapolate_blowup_time(
            times[-2], lambda3[-2], times[-1], lambda3[-1]))
    if norm is None:
        norm = lambda3[-1] * math.sqrt(2.0 * r[-1] ** 2 - 2.0 * r[-1] + 2.0)
    return ("decayed" if norm < DECAY_THRESHOLD else "completed"), None


def _integrate_reduced(lambda3: float, r: float, t_end: float, *,
                       blowup_threshold: float, rtol: float, atol: float,
                       record: bool, t_eval=None):
    """Adaptive Dormand-Prince on the (lambda3, r) pair in plain floats.

    One straight-line loop keeps large phase sweeps cheap: a step calls
    no Python function, because the right side (as in rhs_reduced), the
    compensated clock (_KahanClock.advance) and the step factor
    (_step_factor) are written out with each operation in their order,
    so the results match those helpers bit for bit.  Returns (times, l3s, rs,
    status) where status is "blew_up" or "reached_end"; the arrays hold
    every accepted sample when record is set, else just the first and
    the last two.
    """
    times, l3s, rs = [0.0], [lambda3], [r]  # every sample, or the first only
    t = comp = 0.0  # Kahan-compensated time
    t_prev = l3_prev = r_prev = 0.0
    accepted = 0
    eval_times = list(t_eval) if t_eval is not None else []
    n_eval = len(eval_times)
    eval_idx = 0
    end_tol = 1e-14 * max(abs(t_end), 1.0)

    k1a = lambda3 * lambda3 * (2.0 * r * r - 2.0 * r - 1.0) / 3.0
    k1b = lambda3 * (((-2.0 * r + 3.0) * r + 3.0) * r - 2.0) / 3.0
    h = 1e-4
    status = "reached_end"
    failure = None
    for _ in range(_MAX_STEPS):
        remaining = t_end - t
        if remaining <= end_tol:
            break
        h = min(h, remaining)
        if eval_idx < n_eval:
            while eval_idx < n_eval and eval_times[eval_idx] <= t + 1e-14 * max(abs(t), 1.0):
                eval_idx += 1
            if eval_idx < n_eval:
                h = min(h, eval_times[eval_idx] - t)
        if h < 1e-16 * max(abs(t), 1.0) or h <= 0.0:
            failure = f"step size underflow at t={t:.6g}"
            break

        y2a = lambda3 + h * _A21 * k1a
        y2b = r + h * _A21 * k1b
        k2a = y2a * y2a * (2.0 * y2b * y2b - 2.0 * y2b - 1.0) / 3.0
        k2b = y2a * (((-2.0 * y2b + 3.0) * y2b + 3.0) * y2b - 2.0) / 3.0
        y3a = lambda3 + h * (_A31 * k1a + _A32 * k2a)
        y3b = r + h * (_A31 * k1b + _A32 * k2b)
        k3a = y3a * y3a * (2.0 * y3b * y3b - 2.0 * y3b - 1.0) / 3.0
        k3b = y3a * (((-2.0 * y3b + 3.0) * y3b + 3.0) * y3b - 2.0) / 3.0
        y4a = lambda3 + h * (_A41 * k1a + _A42 * k2a + _A43 * k3a)
        y4b = r + h * (_A41 * k1b + _A42 * k2b + _A43 * k3b)
        k4a = y4a * y4a * (2.0 * y4b * y4b - 2.0 * y4b - 1.0) / 3.0
        k4b = y4a * (((-2.0 * y4b + 3.0) * y4b + 3.0) * y4b - 2.0) / 3.0
        y5a = lambda3 + h * (_A51 * k1a + _A52 * k2a + _A53 * k3a + _A54 * k4a)
        y5b = r + h * (_A51 * k1b + _A52 * k2b + _A53 * k3b + _A54 * k4b)
        k5a = y5a * y5a * (2.0 * y5b * y5b - 2.0 * y5b - 1.0) / 3.0
        k5b = y5a * (((-2.0 * y5b + 3.0) * y5b + 3.0) * y5b - 2.0) / 3.0
        y6a = lambda3 + h * (_A61 * k1a + _A62 * k2a + _A63 * k3a + _A64 * k4a + _A65 * k5a)
        y6b = r + h * (_A61 * k1b + _A62 * k2b + _A63 * k3b + _A64 * k4b + _A65 * k5b)
        k6a = y6a * y6a * (2.0 * y6b * y6b - 2.0 * y6b - 1.0) / 3.0
        k6b = y6a * (((-2.0 * y6b + 3.0) * y6b + 3.0) * y6b - 2.0) / 3.0
        newa = lambda3 + h * (_B1 * k1a + _B3 * k3a + _B4 * k4a + _B5 * k5a + _B6 * k6a)
        newb = r + h * (_B1 * k1b + _B3 * k3b + _B4 * k4b + _B5 * k5b + _B6 * k6b)
        k7a = newa * newa * (2.0 * newb * newb - 2.0 * newb - 1.0) / 3.0
        k7b = newa * (((-2.0 * newb + 3.0) * newb + 3.0) * newb - 2.0) / 3.0

        erra = h * (_E1 * k1a + _E3 * k3a + _E4 * k4a + _E5 * k5a + _E6 * k6a + _E7 * k7a)
        errb = h * (_E1 * k1b + _E3 * k3b + _E4 * k4b + _E5 * k5b + _E6 * k6b + _E7 * k7b)
        sca = atol + rtol * max(abs(lambda3), abs(newa))
        scb = atol + rtol * max(abs(r), abs(newb))
        err_norm = math.sqrt(0.5 * ((erra / sca) ** 2 + (errb / scb) ** 2))

        if not math.isfinite(err_norm):
            h *= 0.2
            continue
        if err_norm > 1.0:
            h *= min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
            continue

        # accepted
        if newb > 2.0 or newb < 0.5:
            if newb > 2.0 + _RATIO_CLAMP or newb < 0.5 - _RATIO_CLAMP:
                failure = f"ratio left [1/2, 2] by more than {_RATIO_CLAMP} (r={newb!r})"
                break
            newb = min(max(newb, 0.5), 2.0)
        t_prev, l3_prev, r_prev = t, lambda3, r
        lambda3, r = newa, newb
        k1a, k1b = k7a, k7b
        y = h - comp
        total = t + y
        comp = (total - t) - y
        t = total
        accepted += 1
        if record:
            times.append(t)
            l3s.append(lambda3)
            rs.append(r)
        if lambda3 >= blowup_threshold:
            status = "blew_up"
            break
        h *= 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
    else:
        failure = "step budget exhausted"

    if not record and accepted:  # append the last two samples to the first
        if accepted > 1:
            times.append(t_prev)
            l3s.append(l3_prev)
            rs.append(r_prev)
        times.append(t)
        l3s.append(lambda3)
        rs.append(r)
    trajectory = (np.array(times), np.array(l3s), np.array(rs))
    if failure is not None:
        raise NumericalFailureError(failure, trajectory=trajectory)
    return (*trajectory, status)


def _integrate_matrix(y0, t_end: float, *, blowup_threshold: float,
                      rtol: float, atol: float):
    """Adaptive Dormand-Prince on the five stored matrix components."""
    clock = _KahanClock()
    y = np.asarray(y0, dtype=float).copy()
    times = [0.0]
    comps = [y.copy()]
    k1 = _rhs_matrix_components(y)
    h = 1e-4
    status = "reached_end"
    for _ in range(_MAX_STEPS):
        remaining = t_end - clock.value
        if remaining <= 1e-14 * max(abs(t_end), 1.0):
            break
        h = min(h, remaining)
        if h < 1e-16 * max(abs(clock.value), 1.0) or h <= 0.0:
            raise NumericalFailureError(
                f"step size underflow at t={clock.value:.6g}",
                trajectory=(np.array(times), np.array(comps)))

        k2 = _rhs_matrix_components(y + h * (_A21 * k1))
        k3 = _rhs_matrix_components(y + h * (_A31 * k1 + _A32 * k2))
        k4 = _rhs_matrix_components(y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
        k5 = _rhs_matrix_components(y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
        k6 = _rhs_matrix_components(
            y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5))
        y_new = y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
        k7 = _rhs_matrix_components(y_new)

        err = h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = math.sqrt(float(np.mean((err / scale) ** 2)))

        if not math.isfinite(err_norm):
            h *= 0.2
            continue
        if err_norm > 1.0:
            h *= _step_factor(err_norm)
            continue

        y = y_new
        k1 = k7
        times.append(clock.advance(h))
        comps.append(y.copy())
        m = sym3.TraceFreeSym3(y[0], y[1], y[2], y[3], y[4])
        if sym3.eigenvalues(m).lambda3 >= blowup_threshold:
            status = "blew_up"
            break
        h *= _step_factor(err_norm)
    else:
        raise NumericalFailureError(
            "step budget exhausted", trajectory=(np.array(times), np.array(comps)))

    return np.array(times), np.stack(comps), status


def integrate_reduced(lambda3: float, r: float, t_end: float,
                      blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD,
                      rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
                      t_eval=None) -> ToyResult:
    """Integrate the toy model from reduced coordinates (lambda3, r) at t = 0,
    with a step landing on each time of t_eval.  Blow-up is declared once
    lambda3 crosses blowup_threshold, at a time extrapolated from the last
    two samples of 1/lambda3; a run that reaches t_end has "decayed" when
    the matrix norm is below DECAY_THRESHOLD, else "completed"."""
    r = _check_reduced(lambda3, r)
    _check_run(t_end, blowup_threshold)
    times, l3s, rs, status = _integrate_reduced(
        lambda3, r, t_end, blowup_threshold=blowup_threshold, rtol=rtol, atol=atol,
        record=True, t_eval=t_eval)
    traj = ToyTrajectory(times, -rs * l3s, (rs - 1.0) * l3s, l3s, rs)
    outcome, t_est = _classify_end(status, times, l3s, rs)
    return ToyResult(outcome, t_est, traj)


def integrate_matrix(m0: sym3.TraceFreeSym3, t_end: float,
                     blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD,
                     rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> ToyResult:
    """Integrate the toy model from the matrix m0 at t = 0; blow-up and the
    outcome are judged as in integrate_reduced."""
    _check_run(t_end, blowup_threshold)
    y0 = np.array([m0.m11, m0.m22, m0.m12, m0.m13, m0.m23], dtype=float)
    times, comps, status = _integrate_matrix(
        y0, t_end, blowup_threshold=blowup_threshold, rtol=rtol, atol=atol)
    eig = sym3.eigenvalues(sym3.TraceFreeSym3.from_components(comps.T))
    traj = ToyTrajectory(times, np.asarray(eig.lambda1), np.asarray(eig.lambda2),
                         np.asarray(eig.lambda3), np.asarray(eig.r))
    final_matrix = sym3.TraceFreeSym3.from_components(comps[-1])
    outcome, t_est = _classify_end(status, traj.t, traj.lambda3, traj.r,
                                   float(final_matrix.norm()))
    return ToyResult(outcome, t_est, traj, final_matrix)


@dataclass(frozen=True)
class SweepCell:
    lambda3_0: float
    r_0: float
    outcome: str
    t_est: float | None
    r_terminal: float


def phase_sweep(lambda3_values, r_values, t_end: float = 1e7,
                blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD):
    """Outcome map over a grid of reduced initial conditions.

    Settings and starts are checked as integrate_reduced checks them.  Cells
    are fully independent (safe to parallelize); this runs them
    sequentially with the lightweight scalar integrator and keeps only
    endpoint data per cell.
    """
    _check_run(t_end, blowup_threshold)
    cells = []
    for l3_0 in lambda3_values:
        for r_0 in r_values:
            r_start = _check_reduced(float(l3_0), float(r_0))
            times, l3s, rs, status = _integrate_reduced(
                float(l3_0), r_start, t_end, blowup_threshold=blowup_threshold,
                rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, record=False)
            outcome, t_est = _classify_end(status, times, l3s, rs)
            cells.append(SweepCell(float(l3_0), float(r_0), outcome, t_est,
                                   float(rs[-1])))
    return cells


def _fmt(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "nan"
    return "%.17g" % value


def write_trajectory_csv(traj: ToyTrajectory, path) -> None:
    lines = ["t,lambda1,lambda2,lambda3,r,inv_lambda3"]
    for i in range(traj.t.size):
        lines.append(",".join(_fmt(v) for v in (
            traj.t[i], traj.lambda1[i], traj.lambda2[i], traj.lambda3[i],
            traj.r[i], 1.0 / traj.lambda3[i])))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_sweep_csv(cells, path) -> None:
    lines = ["lambda3_0,r_0,outcome,T_est,r_terminal"]
    for c in cells:
        lines.append(",".join([_fmt(c.lambda3_0), _fmt(c.r_0), c.outcome,
                               _fmt(c.t_est), _fmt(c.r_terminal)]))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
