"""Finite-difference and quadrature helpers for uniformly sampled series."""

from __future__ import annotations

import numpy as np

from .exceptions import InvalidInputError


def check_uniform_spacing(times) -> float:
    """Return the common spacing (to 1e-9 relative) of a time series of at
    least 5 samples, as the fourth-order stencils below need."""
    times = np.asarray(times, dtype=float)
    if times.size < 5:
        raise InvalidInputError(f"need at least 5 uniformly spaced samples, got {times.size}")
    steps = np.diff(times)
    h = steps[0]
    if h <= 0 or np.max(np.abs(steps - h)) > 1e-9 * max(abs(h), 1e-300):
        raise InvalidInputError("series is not uniformly spaced")
    return float(h)


def fd4_derivative(y, h: float):
    """Fourth-order finite-difference derivative of a uniform series.

    Centered 5-point stencils in the interior, one-sided 4th-order
    stencils at the two ends.  Needs at least 5 samples.
    """
    y = np.asarray(y, dtype=float)
    m = y.size
    if m < 5:
        raise InvalidInputError("fourth-order derivative needs at least 5 samples")
    d = np.empty_like(y)
    d[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
    d[0] = (-25.0 * y[0] + 48.0 * y[1] - 36.0 * y[2] + 16.0 * y[3] - 3.0 * y[4]) / (12.0 * h)
    d[1] = (-3.0 * y[0] - 10.0 * y[1] + 18.0 * y[2] - 6.0 * y[3] + y[4]) / (12.0 * h)
    d[-2] = (3.0 * y[-1] + 10.0 * y[-2] - 18.0 * y[-3] + 6.0 * y[-4] - y[-5]) / (12.0 * h)
    d[-1] = (25.0 * y[-1] - 48.0 * y[-2] + 36.0 * y[-3] - 16.0 * y[-4] + 3.0 * y[-5]) / (12.0 * h)
    return d


# Weights of the cubic-interpolation quadrature over one interval.
_QUAD_FIRST = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0
_QUAD_INNER = np.array([-1.0, 13.0, 13.0, -1.0]) / 24.0
_QUAD_LAST = _QUAD_FIRST[::-1].copy()


def cumulative_integral_4(y, h: float):
    """Fourth-order cumulative integral of a uniform series (starts at 0).

    Each interval is integrated with the cubic through four neighbouring
    samples, so the composite error is O(h^4).  Needs at least 5 samples.
    """
    y = np.asarray(y, dtype=float)
    m = y.size
    if m < 5:
        raise InvalidInputError("fourth-order quadrature needs at least 5 samples")
    increments = np.empty(m - 1)
    increments[0] = _QUAD_FIRST @ y[:4]
    stacked = np.stack([y[i:i + m - 3] for i in range(4)])  # stencil windows
    increments[1:-1] = _QUAD_INNER @ stacked
    increments[-1] = _QUAD_LAST @ y[-4:]
    out = np.empty(m)
    out[0] = 0.0
    np.cumsum(increments, out=out[1:])
    return h * out


def cumulative_trapezoid(y, times):
    """Trapezoidal cumulative integral (starts at 0); spacing may vary."""
    y = np.asarray(y, dtype=float)
    times = np.asarray(times, dtype=float)
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(times))
    return out
