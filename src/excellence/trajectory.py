"""Rates of improvement of the degree of excellence over time.

Average rate between two snapshots is the secant slope; the instantaneous
rate at a sampled time uses a three-point difference on the nearest earlier
and later snapshots (exact for quadratics, one-sided at the boundaries).
Effort is proportional to the rate, E = alpha * dX/dt, with alpha the
configured developer-ability coefficient; this module never estimates alpha.

Polynomial fits (degree 1-3) are least-squares solves by QR (modified
Gram-Schmidt) over a time origin shifted to the first snapshot, which keeps
the tiny systems well conditioned; coefficients are reported in plain
(unshifted) hours.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from typing import NamedTuple

from .errors import (
    ExtrapolationError,
    InsufficientDataError,
    IntervalError,
    InvalidCoefficientError,
    NotFoundError,
)
from .history import Trajectory


class RateMethod(enum.Enum):
    SECANT = "secant"
    CENTRAL_DIFFERENCE = "central-difference"
    FIT_DERIVATIVE = "fit-derivative"


class TrendClass(enum.Enum):
    UNIFORM = "uniform"
    POSITIVE = "positive"
    NEGATIVE = "negative"
    MIXED = "mixed"


class RateEstimate(NamedTuple):
    """dX/dt in percentage points per hour, with estimator metadata."""

    value: float
    method: RateMethod
    interval: tuple[float, float]


class EffortEstimate(NamedTuple):
    alpha: float
    rate: RateEstimate
    effort: float


class PolyFit(NamedTuple):
    """Least-squares fit of X over hours; constant coefficient first."""

    degree: int
    coefficients: tuple[float, ...]
    residual_sum_of_squares: float

    def value_at(self, t: float) -> float:
        total = 0.0
        for coeff in reversed(self.coefficients):
            total = total * t + coeff
        return total

    def derivative_at(self, t: float) -> float:
        total = 0.0
        for power in range(len(self.coefficients) - 1, 0, -1):
            total = total * t + power * self.coefficients[power]
        return total


def secant_rate(traj: Trajectory, t_i: float, t_f: float) -> RateEstimate:
    """Average rate (X(t_f) - X(t_i)) / (t_f - t_i) between two snapshots."""
    if t_i >= t_f:
        raise IntervalError(f"secant interval must satisfy t_i < t_f, got [{t_i}, {t_f}]")
    ts, xs = traj.ts, traj.xs
    i, f = bisect_left(ts, t_i), bisect_left(ts, t_f)
    missing = [t for t, k in ((t_i, i), (t_f, f)) if k == len(ts) or ts[k] != t]
    if missing:
        raise NotFoundError(
            f"no snapshot at t = {missing[0]} h; available times: {list(ts)}"
        )
    value = (xs[f] - xs[i]) / (t_f - t_i)
    return RateEstimate(value=value, method=RateMethod.SECANT, interval=(t_i, t_f))


def _three_point_derivative(t0, x0, t1, x1, t2, x2) -> float:
    # Derivative of the quadratic through three unevenly spaced points at t1: the two
    # secant slopes, each weighted by the other interval. No product of two intervals
    # is formed, so tiny intervals do not underflow.
    h1, h2 = t1 - t0, t2 - t1
    s1, s2 = (x1 - x0) / h1, (x2 - x1) / h2
    return (h2 * s1 + h1 * s2) / (h1 + h2)


def instantaneous_rate(traj: Trajectory, t: float) -> RateEstimate:
    """Tangent estimate of dX/dt at time ``t`` within the sampled range."""
    ts, xs = traj.ts, traj.xs
    if len(ts) < 2:
        raise InsufficientDataError(
            f"instantaneous rate needs at least 2 snapshots, have {len(ts)}"
        )
    if t < ts[0] or t > ts[-1]:
        raise ExtrapolationError(
            f"t = {t} h is outside the sampled range [{ts[0]}, {ts[-1]}]"
        )

    k = bisect_left(ts, t)
    if ts[k] == t and 0 < k < len(ts) - 1:
        value = _three_point_derivative(
            ts[k - 1], xs[k - 1], ts[k], xs[k], ts[k + 1], xs[k + 1]
        )
        interval = (ts[k - 1], ts[k + 1])
    elif t == ts[0]:
        value = (xs[1] - xs[0]) / (ts[1] - ts[0])
        interval = (ts[0], ts[1])
    elif t == ts[-1]:
        value = (xs[-1] - xs[-2]) / (ts[-1] - ts[-2])
        interval = (ts[-2], ts[-1])
    else:
        # Between samples: slope of the bracketing pair.
        value = (xs[k] - xs[k - 1]) / (ts[k] - ts[k - 1])
        interval = (ts[k - 1], ts[k])
    return RateEstimate(value=value, method=RateMethod.CENTRAL_DIFFERENCE, interval=interval)


def _unshift(coeffs: list[float], t0: float) -> list[float]:
    # Rewrite sum c_k (t - t0)^k as coefficients in plain powers of t.
    degree = len(coeffs) - 1
    out = [0.0] * (degree + 1)
    for k, c in enumerate(coeffs):
        for j in range(k + 1):
            out[j] += c * math.comb(k, j) * (-t0) ** (k - j)
    return out


def _least_squares(columns: list[list[float]],
                   y: tuple[float, ...]) -> tuple[list[float], float]:
    # Modified Gram-Schmidt QR of [columns | y]: the last row of R holds Q^T y,
    # and what is left of y after the sweep is the residual vector.
    q = [*columns, y]
    m = len(columns)
    r = [[0.0] * (m + 1) for _ in range(m)]
    for j in range(m):
        r[j][j] = math.sqrt(sum(v * v for v in q[j]))
        if not math.isfinite(r[j][j]):  # squares past the float range: no fit is left
            raise OverflowError(f"column {j} has no finite norm")
        q[j] = [v / r[j][j] for v in q[j]]
        for k in range(j + 1, m + 1):
            r[j][k] = sum(a * b for a, b in zip(q[j], q[k]))
            q[k] = [b - r[j][k] * a for a, b in zip(q[j], q[k])]
    coeffs = [0.0] * m
    for j in reversed(range(m)):
        coeffs[j] = (r[j][m] - sum(r[j][k] * coeffs[k] for k in range(j + 1, m))) / r[j][j]
    return coeffs, sum(v * v for v in q[m])


def fit_polynomial(traj: Trajectory, degree: int) -> PolyFit:
    """Least-squares polynomial fit of X(t); degree must be 1, 2, or 3."""
    if degree not in (1, 2, 3):
        raise ValueError(f"fit degree must be 1, 2, or 3, got {degree}")
    ts = traj.ts
    if len(ts) < degree + 1:
        raise InsufficientDataError(
            f"degree-{degree} fit needs at least {degree + 1} snapshots, have {len(ts)}"
        )
    u = [t - ts[0] for t in ts]
    try:  # powers of the times may underflow to a zero pivot or overflow
        shifted, rss = _least_squares([[v ** p for v in u] for p in range(degree + 1)], traj.xs)
        coefficients = tuple(_unshift(shifted, ts[0]))
    except (ZeroDivisionError, OverflowError) as exc:
        raise InsufficientDataError(
            f"degree-{degree} fit is out of floating-point range for times {ts[0]} to {ts[-1]} h"
        ) from exc
    return PolyFit(degree=degree, coefficients=coefficients, residual_sum_of_squares=rss)


def fit_derivative_rate(traj: Trajectory, degree: int, t: float) -> RateEstimate:
    """Rate from differentiating a fitted polynomial at time ``t``."""
    fit = fit_polynomial(traj, degree)
    return RateEstimate(
        value=fit.derivative_at(t),
        method=RateMethod.FIT_DERIVATIVE,
        interval=(traj.ts[0], traj.ts[-1]),
    )


def effort(alpha: float, rate: RateEstimate) -> EffortEstimate:
    """Effort E = alpha * dX/dt for a positive ability coefficient."""
    if not (alpha > 0 and math.isfinite(alpha)):
        raise InvalidCoefficientError(f"ability coefficient must be finite and > 0, got {alpha}")
    return EffortEstimate(alpha=alpha, rate=rate, effort=alpha * rate.value)


def _slopes(traj: Trajectory) -> list[float]:
    """The secant slope of each consecutive snapshot pair, as plain floats."""
    ts, xs = traj.ts, traj.xs
    return [(x_f - x_i) / (t_f - t_i) for t_i, t_f, x_i, x_f in zip(ts, ts[1:], xs, xs[1:])]


def interval_rates(traj: Trajectory) -> list[RateEstimate]:
    """Secant rates over each consecutive snapshot pair."""
    ts = traj.ts
    return [RateEstimate(value=slope, method=RateMethod.SECANT, interval=(t_i, t_f))
            for t_i, t_f, slope in zip(ts, ts[1:], _slopes(traj))]


def classify_trend(traj: Trajectory, tolerance: float = 1e-6) -> TrendClass:
    """Shape of the improvement curve from consecutive secant slopes.

    All slopes within tolerance of their mean and the mean above tolerance is
    uniform (constant positive) improvement; otherwise all-positive slopes are
    positive improvement, all-negative slopes negative, anything else mixed.
    """
    if not (tolerance >= 0 and math.isfinite(tolerance)):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    if len(traj.snapshots) < 2:
        raise InsufficientDataError(
            f"trend classification needs at least 2 snapshots, have {len(traj.snapshots)}"
        )
    return _classify_slopes(_slopes(traj), tolerance)


def _classify_slopes(slopes: list[float], tolerance: float) -> TrendClass:
    """``classify_trend`` on slopes already computed, with a checked tolerance."""
    mean = sum(slopes) / len(slopes)
    if all(abs(s - mean) <= tolerance for s in slopes) and mean > tolerance:
        return TrendClass.UNIFORM
    if all(s > tolerance for s in slopes):
        return TrendClass.POSITIVE
    if all(s < -tolerance for s in slopes):
        return TrendClass.NEGATIVE
    return TrendClass.MIXED
