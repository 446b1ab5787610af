"""Univariate descriptive statistics: location, spread, shape, histograms.

Conventions used throughout the package and documented here once:
sample variance (ddof=1), type-7 quantiles (linear interpolation at
h = (n-1)p/100 over the sorted values), and skewness defaulting to
Pearson's second coefficient 3*(mean - median)/std.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from .table import Column, Kind, numeric_values


class KurtosisClass(enum.Enum):
    MESOKURTIC = "Mesokurtic"
    LEPTOKURTIC = "Leptokurtic"
    PLATYKURTIC = "Platykurtic"


class SkewMode(enum.Enum):
    PEARSON_SECOND = "pearson2"  # 3*(mean - median)/std
    MOMENT = "moment"            # adjusted Fisher-Pearson g1 * sqrt(n(n-1))/(n-2)


# |excess kurtosis| at or below this counts as normal-like
KURTOSIS_CLASS_THRESHOLD = 0.05


@dataclass(frozen=True)
class SummaryStats:
    """Full descriptive profile of one numeric column.

    ``skew_pearson``/``skew_moment`` are 0 for constant data (trivially
    symmetric); ``kurtosis_excess`` is NaN and ``kurtosis_class`` None when
    undefined (fewer than 4 values or zero variance).
    """

    count: int
    n_missing: int
    mean: float
    median: float
    mode: float
    min: float
    max: float
    range: float
    variance: float
    std: float
    q1: float
    q3: float
    iqr: float
    skew_pearson: float
    skew_moment: float
    kurtosis_excess: float
    kurtosis_class: Optional[KurtosisClass]

    def to_dict(self) -> dict:
        """JSON-ready dict; field names are a stable CLI contract."""
        return _json_ready({
            "count": self.count,
            "n_missing": self.n_missing,
            "mean": self.mean,
            "median": self.median,
            "mode": self.mode,
            "min": self.min,
            "max": self.max,
            "range": self.range,
            "variance": self.variance,
            "std": self.std,
            "q1": self.q1,
            "q3": self.q3,
            "iqr": self.iqr,
            "skew_pearson": self.skew_pearson,
            "skew_moment": self.skew_moment,
            "kurtosis_excess": self.kurtosis_excess,
            "kurtosis_class": self.kurtosis_class.value if self.kurtosis_class else None,
        })


def _json_ready(obj):
    """Copy of a dict/list/tuple tree with NaN/inf as None (JSON null)."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


@dataclass(frozen=True)
class Histogram:
    """Equal-width bin edges (n+1) and counts (n); last bin closed.

    Every non-missing value falls in exactly one bin, so there is no
    underflow or overflow. A constant column degenerates to a single
    zero-width bin holding all points.
    """

    edges: tuple[float, ...]
    counts: tuple[int, ...]

    def to_dict(self) -> dict:
        return {"edges": list(self.edges), "counts": list(self.counts)}


@dataclass(frozen=True)
class AutoBins:
    """Sturges' rule: ceil(log2 n) + 1 bins."""


@dataclass(frozen=True)
class BinCount:
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("bin count must be >= 1")


@dataclass(frozen=True)
class BinWidth:
    width: float

    def __post_init__(self) -> None:
        if not self.width > 0:
            raise ValueError("bin width must be > 0")


BinRule = Union[AutoBins, BinCount, BinWidth]


def quantile_type7(sorted_values: np.ndarray, p: float) -> float:
    """Type-7 quantile of an ascending array at percentile p in [0, 100]."""
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} outside [0, 100]")
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no data")
    h = (n - 1) * p / 100.0
    lo = math.floor(h)
    hi = math.ceil(h)
    if lo == hi:
        return float(sorted_values[lo])
    return float(sorted_values[lo] + (h - lo) * (sorted_values[hi] - sorted_values[lo]))


def sample_variance(values: np.ndarray) -> float:
    """ddof=1 variance; requires at least two values."""
    n = len(values)
    if n < 2:
        raise ValueError("variance needs at least 2 values")
    mean = float(np.mean(values))
    return float(np.sum((values - mean) ** 2) / (n - 1))


def _mode_smallest(values: Iterable):
    """Most frequent value, smallest wins ties; equal keys (0.0, -0.0) keep the first seen."""
    counts: dict = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    best = max(counts.values())
    return min(v for v, k in counts.items() if k == best)


def percentile(c: Column, p: float) -> float:
    """Type-7 percentile of a numeric column's non-missing values."""
    values = numeric_values(c)
    if len(values) < 1:
        raise ValueError(f"column {c.name!r}: insufficient data")
    return quantile_type7(np.sort(values), p)


def skewness(c: Column, mode: SkewMode = SkewMode.PEARSON_SECOND) -> float:
    """Skewness of a numeric column.

    PEARSON_SECOND is Pearson's second coefficient 3*(mean - median)/std,
    the package default; MOMENT is the adjusted Fisher-Pearson statistic.
    Both require positive standard deviation.
    """
    values = numeric_values(c)
    n = len(values)
    min_n = 2 if mode is SkewMode.PEARSON_SECOND else 3
    if n < min_n:
        raise ValueError(f"column {c.name!r}: insufficient data for skewness")
    std = math.sqrt(sample_variance(values))
    if std == 0:
        raise ValueError(f"column {c.name!r}: undefined skewness (zero std)")
    if mode is SkewMode.PEARSON_SECOND:
        mean = float(np.mean(values))
        median = quantile_type7(np.sort(values), 50)
        return 3.0 * (mean - median) / std
    return _moment_skew(values)


def _moment_skew(values: np.ndarray) -> float:
    n = len(values)
    d = values - np.mean(values)
    m2 = float(np.mean(d**2))
    m3 = float(np.mean(d**3))
    g1 = m3 / m2**1.5
    return g1 * math.sqrt(n * (n - 1)) / (n - 2)


def _excess_kurtosis(values: np.ndarray) -> float:
    n = len(values)
    d = values - np.mean(values)
    m2 = float(np.mean(d**2))
    m4 = float(np.mean(d**4))
    g2 = m4 / m2**2 - 3.0
    return ((n + 1) * g2 + 6.0) * (n - 1) / ((n - 2) * (n - 3))


def classify_kurtosis(excess: float) -> KurtosisClass:
    if excess > KURTOSIS_CLASS_THRESHOLD:
        return KurtosisClass.LEPTOKURTIC
    if excess < -KURTOSIS_CLASS_THRESHOLD:
        return KurtosisClass.PLATYKURTIC
    return KurtosisClass.MESOKURTIC


def kurtosis(c: Column) -> tuple[float, KurtosisClass]:
    """Sample-adjusted excess kurtosis (G2) and its tail class."""
    values = numeric_values(c)
    if len(values) < 4:
        raise ValueError(f"column {c.name!r}: kurtosis needs at least 4 values")
    if sample_variance(values) == 0:
        raise ValueError(f"column {c.name!r}: undefined kurtosis (zero std)")
    excess = _excess_kurtosis(values)
    return excess, classify_kurtosis(excess)


def summarize(c: Column) -> SummaryStats:
    """All summary statistics of a numeric column in one pass.

    Requires at least 2 non-missing values. Constant columns are legal:
    variance 0 and both skewness figures 0.
    """
    values = numeric_values(c)
    n = len(values)
    if n < 2:
        raise ValueError(f"column {c.name!r}: insufficient data (need >= 2 values)")
    s = np.sort(values)
    mean = float(np.mean(values))
    median = quantile_type7(s, 50)
    variance = sample_variance(values)
    std = math.sqrt(variance)
    q1 = quantile_type7(s, 25)
    q3 = quantile_type7(s, 75)
    if std == 0:
        skew_p = skew_m = 0.0
    else:
        skew_p = 3.0 * (mean - median) / std
        skew_m = _moment_skew(values) if n >= 3 else float("nan")
    if n >= 4 and std > 0:
        excess = _excess_kurtosis(values)
        k_class: Optional[KurtosisClass] = classify_kurtosis(excess)
    else:
        excess = float("nan")
        k_class = None
    return SummaryStats(
        count=n,
        n_missing=c.null_count,
        mean=mean,
        median=median,
        mode=_mode_smallest(values.tolist()),
        min=float(s[0]),
        max=float(s[-1]),
        range=float(s[-1] - s[0]),
        variance=variance,
        std=std,
        q1=q1,
        q3=q3,
        iqr=q3 - q1,
        skew_pearson=skew_p,
        skew_moment=skew_m,
        kurtosis_excess=excess,
        kurtosis_class=k_class,
    )


def histogram(c: Column, bins: BinRule = AutoBins()) -> Histogram:
    """Equal-width histogram of a numeric column.

    AutoBins follows Sturges; BinCount fixes the number of bins; BinWidth
    fixes the width (the last edge may overshoot the maximum). Bins are
    half-open [lo, hi) except the last, which is closed.
    """
    if c.kind is not Kind.NUMERIC:
        raise ValueError(f"column {c.name!r} is not numeric")
    values = numeric_values(c)
    n = len(values)
    if n < 1:
        raise ValueError(f"column {c.name!r}: no data to bin")
    lo = float(np.min(values))
    hi = float(np.max(values))
    if lo == hi:
        return Histogram(edges=(lo, hi), counts=(n,))
    if isinstance(bins, AutoBins):
        k = math.ceil(math.log2(n)) + 1 if n > 1 else 1
        edges = np.linspace(lo, hi, k + 1)
    elif isinstance(bins, BinCount):
        edges = np.linspace(lo, hi, bins.n + 1)
    elif isinstance(bins, BinWidth):
        k = max(1, math.ceil((hi - lo) / bins.width))
        edges = lo + bins.width * np.arange(k + 1)
    else:
        raise TypeError(f"unsupported bin rule: {bins!r}")
    idx = np.searchsorted(edges, values, side="right") - 1
    idx = np.clip(idx, 0, len(edges) - 2)
    counts = np.bincount(idx, minlength=len(edges) - 1)
    return Histogram(edges=tuple(float(e) for e in edges), counts=tuple(int(x) for x in counts))
