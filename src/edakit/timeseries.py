"""Time-series primitives: smoothing, differencing, autocorrelation,
classical additive decomposition, and a segment-based stationarity check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class TimeSeries:
    """Ordered finite observations; missing values are not representable."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) < 1:
            raise ValueError("time series must have at least one value")
        if any(not math.isfinite(v) for v in self.values):
            raise ValueError("time series values must be finite")

    def __len__(self) -> int:
        return len(self.values)


def series(values: Sequence[float]) -> TimeSeries:
    return TimeSeries(tuple(float(v) for v in values))


def moving_average(s: TimeSeries, window: int) -> TimeSeries:
    """Valid-mode simple moving average; output length n - window + 1.

    Each output is computed as the mean of its own window rather than via
    a running sum, so round-off does not accumulate along the series.
    """
    n = len(s)
    if not 1 <= window <= n:
        raise ValueError(f"window {window} outside valid range 1..{n}")
    x = np.array(s.values)
    out = [float(np.mean(x[t : t + window])) for t in range(n - window + 1)]
    return TimeSeries(tuple(out))


def exp_smoothing(s: TimeSeries, alpha: float) -> TimeSeries:
    """Simple exponential smoothing, s0 = x0, st = a*xt + (1-a)*s(t-1)."""
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha {alpha} outside (0, 1]")
    out = [s.values[0]]
    for v in s.values[1:]:
        out.append(alpha * v + (1 - alpha) * out[-1])
    return TimeSeries(tuple(out))


def difference(s: TimeSeries, lag: int = 1) -> TimeSeries:
    """Lagged differences x[t+lag] - x[t]; output length n - lag."""
    n = len(s)
    if not 1 <= lag < n:
        raise ValueError(f"lag {lag} outside valid range 1..{n - 1}")
    x = np.array(s.values)
    return TimeSeries(tuple(float(v) for v in x[lag:] - x[:-lag]))


def cumulative_sum(s: TimeSeries) -> TimeSeries:
    """Running sums; difference(cumulative_sum(s), 1) recovers s[1:]."""
    return TimeSeries(tuple(float(v) for v in np.cumsum(np.array(s.values))))


def acf(s: TimeSeries, max_lag: int) -> tuple[float, ...]:
    """Autocorrelation at lags 0..max_lag, biased (1/n) estimator.

    r(h) = sum (x_t - mean)(x_{t+h} - mean) / sum (x_t - mean)^2, which
    keeps every value in [-1, 1] and r(0) = 1. A constant series has no
    autocorrelation structure and is rejected.
    """
    n = len(s)
    if not 0 <= max_lag < n:
        raise ValueError(f"max_lag {max_lag} outside valid range 0..{n - 1}")
    x = np.array(s.values)
    d = x - x.mean()
    denom = float(np.sum(d * d))
    if denom == 0:
        raise ValueError("zero variance: autocorrelation undefined for a constant series")
    out = [1.0]
    for h in range(1, max_lag + 1):
        out.append(float(np.sum(d[:-h] * d[h:])) / denom)
    return tuple(out)


def pacf(s: TimeSeries, max_lag: int) -> tuple[float, ...]:
    """Partial autocorrelation at lags 0..max_lag via Durbin-Levinson.

    The recursion solves the Yule-Walker equations on the biased ACF;
    pacf(0) = 1 by convention and pacf(1) = acf(1).
    """
    r = acf(s, max_lag)
    out = [1.0]
    if max_lag == 0:
        return tuple(out)
    phi_prev = [r[1]]
    out.append(r[1])
    for k in range(2, max_lag + 1):
        num = r[k] - sum(phi_prev[j] * r[k - 1 - j] for j in range(k - 1))
        den = 1.0 - sum(phi_prev[j] * r[j + 1] for j in range(k - 1))
        if abs(den) < 1e-14:
            raise ValueError(f"ill-conditioned autocorrelation at lag {k}")
        phi_kk = num / den
        phi = [phi_prev[j] - phi_kk * phi_prev[k - 2 - j] for j in range(k - 1)]
        phi.append(phi_kk)
        out.append(phi_kk)
        phi_prev = phi
    return tuple(out)


@dataclass(frozen=True)
class Decomposition:
    """Additive split x = trend + seasonal + residual.

    Trend (and hence residual) is None at the edge indices the centered
    moving average cannot reach; at every other index the three parts sum
    back to the observation.
    """

    trend: tuple[Optional[float], ...]
    seasonal: tuple[float, ...]
    residual: tuple[Optional[float], ...]
    period: int

    def to_dict(self) -> dict:
        return {
            "period": self.period,
            "trend": list(self.trend),
            "seasonal": list(self.seasonal),
            "residual": list(self.residual),
        }


def decompose_additive(s: TimeSeries, period: int) -> Decomposition:
    """Classical additive decomposition with a centered moving-average trend.

    Even periods use the standard 2 x period double moving average. The
    seasonal component is the per-phase mean of the detrended series,
    re-centered to sum to zero over one period.
    """
    n = len(s)
    if period < 2:
        raise ValueError("period must be >= 2")
    if n < 2 * period:
        raise ValueError(f"series of length {n} too short for period {period} (need >= {2 * period})")
    x = np.array(s.values)

    half = period // 2
    trend: list[Optional[float]] = [None] * n
    if period % 2 == 1:
        for t in range(half, n - half):
            trend[t] = float(np.mean(x[t - half : t + half + 1]))
    else:
        for t in range(half, n - half):
            window = 0.5 * x[t - half] + float(np.sum(x[t - half + 1 : t + half])) + 0.5 * x[t + half]
            trend[t] = float(window / period)

    phase_sums = [0.0] * period
    phase_counts = [0] * period
    for t in range(n):
        if trend[t] is not None:
            phase_sums[t % period] += float(x[t]) - trend[t]
            phase_counts[t % period] += 1
    seasonal_index = [phase_sums[q] / phase_counts[q] for q in range(period)]
    center = sum(seasonal_index) / period
    seasonal_index = [float(v - center) for v in seasonal_index]

    seasonal = tuple(seasonal_index[t % period] for t in range(n))
    residual = tuple(
        None if trend[t] is None else float(x[t]) - trend[t] - seasonal[t] for t in range(n)
    )
    return Decomposition(tuple(trend), seasonal, residual, period)


@dataclass(frozen=True)
class StationarityResult:
    stationary: bool
    segment_means: tuple[float, ...]
    segment_variances: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "stationary": self.stationary,
            "segment_means": list(self.segment_means),
            "segment_variances": list(self.segment_variances),
        }


def stationarity_check(
    s: TimeSeries, segments: int = 4, rel_tol: float = 0.25
) -> StationarityResult:
    """Heuristic constancy check of mean and variance across segments.

    Splits the series into ``segments`` equal parts (remainder folded into
    the last), then compares the spread of segment means against the global
    standard deviation and the spread of segment variances against the
    largest segment variance. Stationary means both relative spreads are
    within rel_tol. This is a descriptive heuristic, not a statistical
    test.
    """
    n = len(s)
    if segments < 2:
        raise ValueError("need at least 2 segments")
    if n < 2 * segments:
        raise ValueError(f"series of length {n} too short for {segments} segments")
    x = np.array(s.values)
    base = n // segments
    bounds = [i * base for i in range(segments)] + [n]
    means = []
    variances = []
    for i in range(segments):
        seg = x[bounds[i] : bounds[i + 1]]
        means.append(float(seg.mean()))
        variances.append(float(np.sum((seg - seg.mean()) ** 2) / (len(seg) - 1)))
    global_std = float(np.std(x, ddof=1))
    mean_spread = (max(means) - min(means)) / global_std if global_std > 0 else 0.0
    max_var = max(variances)
    var_spread = (max_var - min(variances)) / max_var if max_var > 0 else 0.0
    return StationarityResult(
        stationary=mean_spread <= rel_tol and var_spread <= rel_tol,
        segment_means=tuple(means),
        segment_variances=tuple(variances),
    )
