"""Data cleaning: outlier detection/handling, imputation, transforms,
encoding and binning.

Outlier fences and quartiles share the package-wide conventions from the
stats module (sample std, type-7 quantiles); binning takes its rules and
edges from there too.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .stats import (
    BinCount, BinRule, Edges, Quantile, _bin_edges, _bin_index, _centered, _mode_smallest, quantile_type7,
)
from .table import Column, Kind, Table, _number_texts, label_codes, numeric_values, numeric_with_mask


# ---------------------------------------------------------------------------
# outliers

@dataclass(frozen=True)
class ZScore:
    """Flag |x - mean| / sample_std > threshold."""

    threshold: float = 3.0

    def __post_init__(self) -> None:
        if not 0 < self.threshold < math.inf:
            raise ValueError("z-score threshold must be finite and > 0")


@dataclass(frozen=True)
class Iqr:
    """Flag x outside [Q1 - k*IQR, Q3 + k*IQR]."""

    k: float = 1.5

    def __post_init__(self) -> None:
        if not 0 <= self.k < math.inf:
            raise ValueError("IQR multiplier must be finite and >= 0")


OutlierMethod = Union[ZScore, Iqr]


@dataclass(frozen=True)
class OutlierReport:
    column: str
    method: OutlierMethod
    outlier_row_indices: tuple[int, ...]
    bounds: tuple[float, float]
    length: int  # row count of the column the report was built from

    def to_dict(self) -> dict:
        if isinstance(self.method, ZScore):
            method = {"name": "zscore", "threshold": self.method.threshold}
        else:
            method = {"name": "iqr", "k": self.method.k}
        return {
            "column": self.column,
            "method": method,
            "bounds": {"lower": self.bounds[0], "upper": self.bounds[1]},
            "outlier_row_indices": list(self.outlier_row_indices),
        }


class OutlierAction(enum.Enum):
    REMOVE = "remove"
    CLIP = "clip"
    FLAG = "flag"


def detect_outliers(c: Column, method: OutlierMethod) -> OutlierReport:
    """Find fence-violating rows of a numeric column.

    ZScore needs >= 2 non-missing values and positive variance; Iqr needs
    >= 4. Missing cells are never flagged. Values exactly on a fence are
    inliers (strict comparison).
    """
    values = numeric_values(c)
    if isinstance(method, ZScore):
        if len(values) < 2:
            raise ValueError(f"column {c.name!r}: z-score needs >= 2 values")
        mean, _, ss = _centered(values)
        if ss == 0:
            raise ValueError(f"column {c.name!r}: zero variance, z-score undefined")
        mean, std = float(mean), math.sqrt(ss / (len(values) - 1))
        lower = mean - method.threshold * std
        upper = mean + method.threshold * std
    elif isinstance(method, Iqr):
        if len(values) < 4:
            raise ValueError(f"column {c.name!r}: IQR method needs >= 4 values")
        s = np.sort(values)
        q1 = quantile_type7(s, 25)
        q3 = quantile_type7(s, 75)
        iqr = q3 - q1
        lower = q1 - method.k * iqr
        upper = q3 + method.k * iqr
    else:
        raise TypeError(f"unsupported outlier method: {method!r}")
    vals, _ = numeric_with_mask(c)
    flagged = np.flatnonzero((vals < lower) | (vals > upper))  # NaN (missing) compares False
    return OutlierReport(c.name, method, tuple(flagged.tolist()), (lower, upper), len(c))


def handle_outliers(
    c: Column, report: OutlierReport, action: OutlierAction
) -> Union[Column, list[bool]]:
    """Apply an outlier decision.

    CLIP returns the column with flagged values clamped to the nearest
    fence; FLAG returns a companion boolean column "<name>_outlier";
    REMOVE returns a keep-mask (True = keep) for table.filter_rows.
    """
    if report.column != c.name or report.length != len(c):
        raise ValueError(
            f"stale outlier report: built for {report.column!r} ({report.length} rows), "
            f"applied to {c.name!r} ({len(c)} rows)"
        )
    n = len(c)
    flagged = np.zeros(n, bool)
    rows = np.array(report.outlier_row_indices, dtype=np.int64)
    flagged[rows[(rows >= 0) & (rows < n)]] = True
    if action is OutlierAction.CLIP:
        lower, upper = report.bounds
        vals, present = numeric_with_mask(c)
        # min(max(v, lower), upper) with Python's tie rule: the first argument wins
        raised = np.where(lower > vals, lower, vals)
        clipped = np.where(upper < raised, upper, raised)
        return Column.from_floats(c.name, Kind.NUMERIC, np.where(flagged, clipped, vals), present)
    if action is OutlierAction.FLAG:
        return Column.from_floats(f"{c.name}_outlier", Kind.BOOLEAN, flagged, np.ones(n, bool))
    if action is OutlierAction.REMOVE:
        return (~flagged).tolist()
    raise TypeError(f"unsupported action: {action!r}")


# ---------------------------------------------------------------------------
# imputation

@dataclass(frozen=True)
class Mean:
    pass


@dataclass(frozen=True)
class Median:
    pass


@dataclass(frozen=True)
class Mode:
    pass


@dataclass(frozen=True)
class Constant:
    value: object


@dataclass(frozen=True)
class LinearRegression:
    """Fill missing target cells from an OLS fit y = a + b*x on a predictor."""

    predictor: str


ImputeStrategy = Union[Mean, Median, Mode, Constant, LinearRegression]


def impute(c: Column, strategy: ImputeStrategy, context: Optional[Table] = None) -> Column:
    """Fill every missing cell of a column; present cells are untouched.

    Mean/Median/LinearRegression apply to numeric columns, Mode to any
    kind (smallest value wins ties), Constant to any kind with a
    type-matching value. A column with no present values rejects every
    statistical strategy.
    """
    if c.null_count == 0:
        return c
    if c.null_count == len(c) and not isinstance(strategy, Constant):
        raise ValueError(f"column {c.name!r} is entirely missing; use Constant")

    if isinstance(strategy, (Mean, Median)):
        if c.kind is not Kind.NUMERIC:
            raise ValueError(f"{type(strategy).__name__} imputation needs a numeric column")
        values = numeric_values(c)
        fill = float(np.mean(values)) if isinstance(strategy, Mean) else quantile_type7(np.sort(values), 50)
    elif isinstance(strategy, Mode):
        if c.kind is Kind.CATEGORICAL:
            codes, labels = label_codes(c)
            # labels ascend, so the smallest code is the smallest label
            fill = labels[_mode_smallest(codes[codes >= 0])]
        else:
            fill = _mode_smallest(numeric_values(c))
    elif isinstance(strategy, Constant):
        fill = strategy.value
    elif isinstance(strategy, LinearRegression):
        if c.kind is not Kind.NUMERIC:
            raise ValueError("regression imputation needs a numeric target")
        if context is None:
            raise ValueError("regression imputation needs the containing table as context")
        return _impute_regression(c, context.column(strategy.predictor))
    else:
        raise TypeError(f"unsupported strategy: {strategy!r}")

    return _fill_missing(c, fill)


def _fill_missing(c: Column, fill) -> Column:
    """``c`` with every missing cell set to ``fill``: its text for a
    categorical column, ``float(fill)`` for a numeric or boolean one."""
    if c.kind is Kind.CATEGORICAL:
        codes, labels = label_codes(c)
        return Column.from_codes(c.name, np.where(codes < 0, len(labels), codes), labels + (str(fill),))
    vals, present = numeric_with_mask(c)
    # from_floats refuses a boolean fill other than 0 or 1
    return Column.from_floats(c.name, c.kind, np.where(present, vals, float(fill)), np.ones(len(c), bool))


def _impute_regression(target: Column, predictor: Column) -> Column:
    if predictor.kind is not Kind.NUMERIC:
        raise ValueError(f"predictor {predictor.name!r} must be numeric")
    xv, xm = numeric_with_mask(predictor)
    yv, ym = numeric_with_mask(target)
    unfillable = np.flatnonzero(~xm & ~ym)
    if len(unfillable):
        raise ValueError(
            f"predictor {predictor.name!r} is missing at row {unfillable[0]} where "
            f"{target.name!r} needs imputing"
        )
    both = xm & ym
    if np.count_nonzero(both) < 2:
        raise ValueError("regression imputation needs >= 2 jointly present rows")
    mx, dx, sxx = _centered(xv[both])
    if sxx == 0:
        raise ValueError(f"predictor {predictor.name!r} is constant; OLS slope undefined")
    my, dy, _ = _centered(yv[both])
    b = float(np.sum(dx * dy)) / float(sxx)
    a = float(my) - b * float(mx)
    with np.errstate(all="ignore"):  # an overflow to inf fails the column check instead
        filled = np.where(ym, yv, a + b * xv)
    return Column.from_floats(target.name, Kind.NUMERIC, filled, np.ones(len(target), bool))


# ---------------------------------------------------------------------------
# transforms

@dataclass(frozen=True)
class Log:
    pass


@dataclass(frozen=True)
class Sqrt:
    pass


@dataclass(frozen=True)
class MinMax:
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError("MinMax needs lo < hi")


@dataclass(frozen=True)
class ZScoreStandardize:
    pass


TransformKind = Union[Log, Sqrt, MinMax, ZScoreStandardize]


def transform(c: Column, kind: TransformKind) -> Column:
    """Element-wise rescaling of a numeric column; missing stays missing."""
    if c.kind is not Kind.NUMERIC:
        raise ValueError(f"column {c.name!r} is not numeric")
    vals, present = numeric_with_mask(c)
    values = vals[present]
    if len(values) == 0:
        raise ValueError(f"column {c.name!r} has no data")

    out = np.full(len(c), np.nan)
    if isinstance(kind, (Log, Sqrt)):
        is_log = isinstance(kind, Log)
        bad = np.flatnonzero(vals <= 0 if is_log else vals < 0)
        if len(bad):
            i = bad[0]
            what = "log of non-positive" if is_log else "sqrt of negative"
            raise ValueError(f"column {c.name!r} row {i}: {what} value {float(vals[i])}")
        # math.log per element: np.log need not round the same way
        out[present] = list(map(math.log, values.tolist())) if is_log else np.sqrt(values)
    elif isinstance(kind, MinMax):
        lo, hi = float(np.min(values)), float(np.max(values))
        if lo == hi:
            raise ValueError(f"column {c.name!r}: zero range, MinMax undefined")
        # normalize to [0, 1] first so extreme input ranges cannot overflow;
        # an overflow to inf fails the column check instead
        with np.errstate(all="ignore"):
            out[present] = kind.lo + (values - lo) / (hi - lo) * (kind.hi - kind.lo)
    elif isinstance(kind, ZScoreStandardize):
        _, d, ss = _centered(values)
        if ss == 0:  # a single value is constant too
            raise ValueError(f"column {c.name!r}: zero variance, standardization undefined")
        with np.errstate(all="ignore"):
            out[present] = d / math.sqrt(ss / (len(values) - 1))
    else:
        raise TypeError(f"unsupported transform: {kind!r}")

    return Column.from_floats(c.name, Kind.NUMERIC, out, present)


# ---------------------------------------------------------------------------
# encoding

class EncodeKind(enum.Enum):
    ONE_HOT = "onehot"
    LABEL = "label"


def encode(t: Table, column: str, kind: EncodeKind) -> Table:
    """Replace a categorical column with boolean indicators or integer codes.

    OneHot emits one boolean column per distinct label, named
    "<col>=<label>" in ascending label order; Label assigns codes 0..k-1 by
    ascending label. Missing rows stay missing in every generated column.
    """
    c = t.column(column)
    if c.kind is not Kind.CATEGORICAL:
        raise ValueError(f"column {column!r} is {c.kind.value}, not categorical")
    codes, labels = label_codes(c)  # ascending labels, each occurring
    if not labels:
        raise ValueError(f"column {column!r} has no non-missing labels to encode")
    present = codes >= 0

    if kind is EncodeKind.LABEL:
        return t.replace_column(Column.from_floats(column, Kind.NUMERIC, codes, present))

    if kind is EncodeKind.ONE_HOT:
        generated = [
            Column.from_floats(f"{column}={label}", Kind.BOOLEAN, codes == k, present)
            for k, label in enumerate(labels)
        ]
        cols: list[Column] = []
        for existing in t.columns:
            if existing.name == column:
                cols.extend(generated)
            else:
                cols.append(existing)
        return t.with_columns(cols)

    raise TypeError(f"unsupported encoding: {kind!r}")


# ---------------------------------------------------------------------------
# binning

EqualWidth = BinCount  # bin_column's public name for equal-width bins


def _bin_labels(edges: np.ndarray) -> list[str]:
    """"[lo,hi)" per bin, the last closed. Edges are written as write_csv
    writes numbers, so distinct edges give distinct labels."""
    texts = _number_texts(edges, "")
    closes = [")"] * (len(texts) - 2) + ["]"]
    return [f"[{lo},{hi}{close}" for lo, hi, close in zip(texts, texts[1:], closes)]


def bin_column(c: Column, spec: BinRule) -> Column:
    """Discretize a numeric column into labeled intervals: the bins that
    ``stats.histogram`` gives under the same rule, labeled "[lo,hi)" with
    the final bin closed. A constant column yields the single bin [v,v]
    under every rule but explicit Edges, which reject out-of-range values."""
    vals, present = numeric_with_mask(c)
    values = vals[present]
    if len(values) == 0:
        raise ValueError(f"column {c.name!r} has no data to bin")
    edges = _bin_edges(c.name, values, spec)
    return Column.from_codes(c.name, np.where(present, _bin_index(edges, vals), -1), _bin_labels(edges))
