"""Time-series primitives: smoothing, differencing, autocorrelation,
classical additive decomposition, and a segment-based stationarity check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .stats import _centered


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Ordered finite observations as a read-only float64 array; missing
    values are not representable. Build one with :func:`series`, which copies
    its input; the constructor takes ownership of the array it is given."""

    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.ndim != 1 or len(self.values) < 1:
            raise ValueError("time series must have at least one value")
        if not np.isfinite(self.values).all():
            raise ValueError("time series values must be finite")
        self.values.flags.writeable = False

    def __len__(self) -> int:
        return len(self.values)


def series(values: Sequence[float]) -> TimeSeries:
    return TimeSeries(np.array(values, dtype=float))


def moving_average(s: TimeSeries, window: int) -> TimeSeries:
    """Valid-mode simple moving average; output length n - window + 1.

    Each output is computed as the mean of its own window rather than via
    a running sum, so round-off does not accumulate along the series.
    """
    n = len(s)
    if not 1 <= window <= n:
        raise ValueError(f"window {window} outside valid range 1..{n}")
    return TimeSeries(sliding_window_view(s.values, window).mean(axis=1))


def exp_smoothing(s: TimeSeries, alpha: float) -> TimeSeries:
    """Simple exponential smoothing, s0 = x0, st = a*xt + (1-a)*s(t-1)."""
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha {alpha} outside (0, 1]")
    x = s.values.tolist()
    out = [x[0]]
    for v in x[1:]:
        out.append(alpha * v + (1 - alpha) * out[-1])
    return TimeSeries(np.array(out))


def difference(s: TimeSeries, lag: int = 1) -> TimeSeries:
    """Lagged differences x[t+lag] - x[t]; output length n - lag."""
    n = len(s)
    if not 1 <= lag < n:
        raise ValueError(f"lag {lag} outside valid range 1..{n - 1}")
    x = s.values
    return TimeSeries(x[lag:] - x[:-lag])


def acf(s: TimeSeries, max_lag: int) -> tuple[float, ...]:
    """Autocorrelation at lags 0..max_lag, biased (1/n) estimator.

    r(h) = sum (x_t - mean)(x_{t+h} - mean) / sum (x_t - mean)^2, which
    keeps every value in [-1, 1] and r(0) = 1. A constant series has no
    autocorrelation structure and is rejected.
    """
    n = len(s)
    if not 0 <= max_lag < n:
        raise ValueError(f"max_lag {max_lag} outside valid range 0..{n - 1}")
    _, d, denom = _centered(s.values)
    if denom == 0:
        raise ValueError("zero variance: autocorrelation undefined for a constant series")
    return (1.0, *(float(np.sum(d[:-h] * d[h:]) / denom) for h in range(1, max_lag + 1)))


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


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Additive split x = trend + seasonal + residual, as read-only arrays.

    Trend (and hence residual) is NaN at the edge indices the centered
    moving average cannot reach; at every other index the three parts sum
    back to the observation.
    """

    trend: np.ndarray
    seasonal: np.ndarray
    residual: np.ndarray
    period: int

    def __post_init__(self) -> None:
        for part in (self.trend, self.seasonal, self.residual):
            part.flags.writeable = False

    def to_dict(self) -> dict:
        return {
            "period": self.period,
            "trend": self.trend.tolist(),
            "seasonal": self.seasonal.tolist(),
            "residual": self.residual.tolist(),
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
    x = s.values

    half = period // 2
    trend = np.full(n, np.nan)
    if period % 2 == 1:
        trend[half : n - half] = sliding_window_view(x, period).mean(axis=1)
    else:
        inner = sliding_window_view(x[1:-1], period - 1).sum(axis=1)
        trend[half : n - half] = (0.5 * x[: -2 * half] + inner + 0.5 * x[2 * half :]) / period
    detrended = x - trend

    # Phase q's defined values, summed left to right from 0.0 as a running
    # total would be; np.cumsum is sequential, unlike np.sum.
    defined = detrended[half : n - half]
    phases = [defined[(q - half) % period :: period] for q in range(period)]
    seasonal_index = [float(np.cumsum(np.append(0.0, d))[-1]) / len(d) for d in phases]
    center = sum(seasonal_index) / period
    seasonal = np.resize(np.array(seasonal_index) - center, n)
    return Decomposition(trend, seasonal, detrended - seasonal, period)


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
    within rel_tol, which must be >= 0. This is a descriptive heuristic,
    not a statistical test.
    """
    n = len(s)
    if segments < 2:
        raise ValueError("need at least 2 segments")
    if n < 2 * segments:
        raise ValueError(f"series of length {n} too short for {segments} segments")
    if not rel_tol >= 0:
        raise ValueError("rel_tol must be >= 0")
    segs = np.split(s.values, np.arange(1, segments) * (n // segments))
    parts = [(*_centered(seg)[::2], len(seg)) for seg in segs]  # deviations freed at once for reuse
    means = [float(mean) for mean, _, _ in parts]
    variances = [float(ss) / (m - 1) for _, ss, m in parts]
    global_std = float(np.sqrt(_centered(s.values)[2] / (n - 1)))
    mean_spread = (max(means) - min(means)) / global_std if global_std > 0 else 0.0
    max_var = max(variances)
    var_spread = (max_var - min(variances)) / max_var if max_var > 0 else 0.0
    return StationarityResult(
        stationary=mean_spread <= rel_tol and var_spread <= rel_tol,
        segment_means=tuple(means),
        segment_variances=tuple(variances),
    )
