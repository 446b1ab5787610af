"""Univariate descriptive statistics: location, spread, shape, histograms.

Conventions used throughout the package and documented here once:
sample variance (ddof=1), type-7 quantiles (linear interpolation at
h = (n-1)p/100 over the sorted values), and skewness defaulting to
Pearson's second coefficient 3*(mean - median)/std. Every variance outside
the clustering fits centres through ``_centered``, so a column whose values
are all equal has a sum of squares of exactly 0 wherever it is used.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
from dataclasses import dataclass
from typing import Optional, TextIO, Union

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
        """Field names are a stable CLI contract; ``_write_json`` writes NaN as null."""
        return {
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
        }


def _json_ready(obj):
    """Copy of a dict/list/tuple tree with NaN/inf as None (JSON null)."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


# encoder chunks joined per write: on an unbuffered stream (PYTHONUNBUFFERED)
# each write is a system call, and joining them all would hold the whole text
_JSON_CHUNKS = 1024


def _write_json(payload, out: TextIO) -> None:
    """Write ``json.dumps(_json_ready(payload), indent=2) + "\\n"`` to ``out``,
    laid out ``_JSON_CHUNKS`` encoder chunks at a time, never whole."""
    chunks = json.JSONEncoder(indent=2).iterencode(_json_ready(payload))
    while batch := "".join(itertools.islice(chunks, _JSON_CHUNKS)):
        out.write(batch)
    out.write("\n")


@dataclass(frozen=True)
class Histogram:
    """Bin edges (n+1) and counts (n); last bin closed.

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
    """Sturges' rule: ceil(log2 n) + 1 equal-width bins."""


@dataclass(frozen=True)
class BinCount:
    """n equal-width bins from the minimum to the maximum."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("bin count must be >= 1")


@dataclass(frozen=True)
class BinWidth:
    """Bins of a fixed width from the minimum; the last edge may overshoot the maximum."""

    width: float

    def __post_init__(self) -> None:
        if not 0 < self.width < math.inf:
            raise ValueError("bin width must be finite and > 0")


@dataclass(frozen=True)
class Quantile:
    """n bins between type-7 quantiles; tied edges collapse, so fewer can result."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("bin count must be >= 1")


@dataclass(frozen=True)
class Edges:
    """Explicit edges; a value outside them is refused."""

    edges: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.edges) < 2:
            raise ValueError("need at least 2 edges")
        if any(not a < b for a, b in zip(self.edges, self.edges[1:])):  # NaN compares False
            raise ValueError("edges must be strictly increasing")


BinRule = Union[AutoBins, BinCount, BinWidth, Quantile, Edges]


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


def _centered(x: np.ndarray):
    """The mean along axis 0, the deviations from it and their sum of squares
    ``ss``, by two passes (Chan, Golub & LeVeque 1983). A constant slice gets
    deviations of exactly 0, so its ``ss`` is 0 although its computed mean
    may miss its value by a few dozen ulps, far inside the bound below."""
    mean = x.mean(axis=0)
    d = x - mean
    ss = np.sum(d * d, axis=0)
    if (np.sqrt(ss / len(x)) <= abs(mean) * 2.0**-30).any():  # cannot overflow
        constant = x.min(axis=0) == x.max(axis=0)
        d, ss = np.where(constant, 0.0, d), np.where(constant, 0.0, ss)[()]
    return mean, d, ss


def _mode_smallest(values: np.ndarray):
    """Most frequent value, smallest wins ties; equal keys (0.0, -0.0) keep the first seen."""
    # return_index makes the sort stable, so each key's first index is its first occurrence
    _, first, counts = np.unique(values, return_index=True, return_counts=True)
    return values[first[np.argmax(counts)]].item()


def percentile(c: Column, p: float) -> float:
    """Type-7 percentile of a numeric column's non-missing values."""
    values = numeric_values(c)
    if len(values) < 1:
        raise ValueError(f"column {c.name!r}: insufficient data")
    return quantile_type7(np.sort(values), p)


def skewness(c: Column, mode: SkewMode = SkewMode.PEARSON_SECOND) -> float:
    """Skewness of a numeric column, read from ``summarize``.

    PEARSON_SECOND is Pearson's second coefficient 3*(mean - median)/std,
    the package default; MOMENT is the adjusted Fisher-Pearson statistic.
    Both require positive standard deviation.
    """
    if len(numeric_values(c)) < (2 if mode is SkewMode.PEARSON_SECOND else 3):
        raise ValueError(f"column {c.name!r}: insufficient data for skewness")
    s = summarize(c)
    if s.std == 0:
        raise ValueError(f"column {c.name!r}: undefined skewness (zero std)")
    return s.skew_pearson if mode is SkewMode.PEARSON_SECOND else s.skew_moment


def classify_kurtosis(excess: float) -> KurtosisClass:
    if excess > KURTOSIS_CLASS_THRESHOLD:
        return KurtosisClass.LEPTOKURTIC
    if excess < -KURTOSIS_CLASS_THRESHOLD:
        return KurtosisClass.PLATYKURTIC
    return KurtosisClass.MESOKURTIC


def kurtosis(c: Column) -> tuple[float, KurtosisClass]:
    """Sample-adjusted excess kurtosis (G2) and its tail class, read from ``summarize``."""
    if len(numeric_values(c)) < 4:
        raise ValueError(f"column {c.name!r}: kurtosis needs at least 4 values")
    s = summarize(c)
    if s.variance == 0:
        raise ValueError(f"column {c.name!r}: undefined kurtosis (zero std)")
    return s.kurtosis_excess, s.kurtosis_class


def summarize(c: Column) -> SummaryStats:
    """All summary statistics of a numeric column in one pass.

    Requires at least 2 non-missing values. Constant columns are legal:
    variance 0 and both skewness figures 0. The moment skewness and the
    kurtosis are the adjusted Fisher-Pearson G1 and G2 (Joanes & Gill 1998).
    """
    values = numeric_values(c)
    n = len(values)
    if n < 2:
        raise ValueError(f"column {c.name!r}: insufficient data (need >= 2 values)")
    s = np.sort(values)
    mean, d, ss = _centered(values)
    mean = float(mean)
    median = quantile_type7(s, 50)
    variance = float(ss) / (n - 1)
    std = math.sqrt(variance)
    q1 = quantile_type7(s, 25)
    q3 = quantile_type7(s, 75)
    skew_m = excess = float("nan")
    k_class: Optional[KurtosisClass] = None
    if std == 0:
        skew_p = skew_m = 0.0
    else:
        skew_p = 3.0 * (mean - median) / std
        m2 = float(ss) / n
        if n >= 3:
            skew_m = float(np.mean(d * d * d)) / m2**1.5 * math.sqrt(n * (n - 1)) / (n - 2)
        if n >= 4:
            g2 = float(np.mean((d * d) * (d * d))) / m2**2 - 3.0
            excess = ((n + 1) * g2 + 6.0) * (n - 1) / ((n - 2) * (n - 3))
            k_class = classify_kurtosis(excess)
    return SummaryStats(
        count=n,
        n_missing=c.null_count,
        mean=mean,
        median=median,
        mode=_mode_smallest(values),
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


def _bin_edges(name: str, values: np.ndarray, rule: BinRule) -> np.ndarray:
    """Ascending edges of ``rule`` over the non-empty present values of
    column ``name``. A constant column gets the single bin [v, v] under
    every rule but Edges."""
    lo, hi = float(np.min(values)), float(np.max(values))
    if isinstance(rule, Edges):
        edges = np.array(rule.edges, dtype=float)
        if lo < edges[0] or hi > edges[-1]:
            bad = lo if lo < edges[0] else hi
            raise ValueError(f"column {name!r}: value {bad} outside explicit edges")
        return edges
    if not isinstance(rule, (AutoBins, BinCount, BinWidth, Quantile)):
        raise TypeError(f"unsupported bin rule: {rule!r}")
    if lo == hi:
        return np.array([lo, hi])
    if isinstance(rule, AutoBins):
        k = math.ceil(math.log2(len(values))) + 1
        return np.linspace(lo, hi, k + 1)
    if isinstance(rule, BinCount):
        return np.linspace(lo, hi, rule.n + 1)
    if isinstance(rule, BinWidth):
        k = max(1, math.ceil((hi - lo) / rule.width))
        return lo + rule.width * np.arange(k + 1)
    s = np.sort(values)
    edges = [lo]
    for p in range(1, rule.n + 1):
        e = quantile_type7(s, 100.0 * p / rule.n)
        if e > edges[-1]:
            edges.append(e)
    return np.array(edges)


def _bin_index(edges: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Bin of each value: bins are half-open [lo, hi) except the last, which is closed."""
    return np.clip(np.searchsorted(edges, values, side="right") - 1, 0, len(edges) - 2)


def histogram(c: Column, bins: BinRule = AutoBins()) -> Histogram:
    """Histogram of a numeric column under any bin rule (default Sturges).

    Bins are half-open [lo, hi) except the last, which is closed.
    """
    if c.kind is not Kind.NUMERIC:
        raise ValueError(f"column {c.name!r} is not numeric")
    values = numeric_values(c)
    if len(values) < 1:
        raise ValueError(f"column {c.name!r}: no data to bin")
    edges = _bin_edges(c.name, values, bins)
    counts = np.bincount(_bin_index(edges, values), minlength=len(edges) - 1)
    return Histogram(edges=tuple(float(e) for e in edges), counts=tuple(int(x) for x in counts))
