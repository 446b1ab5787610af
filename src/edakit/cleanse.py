"""Data cleaning: outlier detection/handling, imputation, transforms,
encoding, binning and feature construction.

Outlier fences and quartiles share the package-wide conventions from the
stats module (sample std, type-7 quantiles).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .stats import _mode_smallest, quantile_type7, sample_variance
from .table import (
    Column,
    Kind,
    Table,
    boolean_column,
    categorical_column,
    numeric_column,
    numeric_values,
)


# ---------------------------------------------------------------------------
# outliers

@dataclass(frozen=True)
class ZScore:
    """Flag |x - mean| / sample_std > threshold."""

    threshold: float = 3.0

    def __post_init__(self) -> None:
        if not self.threshold > 0:
            raise ValueError("z-score threshold must be > 0")


@dataclass(frozen=True)
class Iqr:
    """Flag x outside [Q1 - k*IQR, Q3 + k*IQR]."""

    k: float = 1.5

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("IQR multiplier must be >= 0")


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
        std = math.sqrt(sample_variance(values))
        if std == 0:
            raise ValueError(f"column {c.name!r}: zero variance, z-score undefined")
        mean = float(np.mean(values))
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
    flagged = tuple(
        i
        for i, (v, m) in enumerate(zip(c.values, c.missing))
        if not m and (v < lower or v > upper)
    )
    return OutlierReport(c.name, method, flagged, (lower, upper), len(c))


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
    flagged = set(report.outlier_row_indices)
    if action is OutlierAction.CLIP:
        lower, upper = report.bounds
        values = [
            None if m else (min(max(v, lower), upper) if i in flagged else v)
            for i, (v, m) in enumerate(zip(c.values, c.missing))
        ]
        return numeric_column(c.name, values)
    if action is OutlierAction.FLAG:
        return boolean_column(
            f"{c.name}_outlier", [1 if i in flagged else 0 for i in range(len(c))]
        )
    if action is OutlierAction.REMOVE:
        return [i not in flagged for i in range(len(c))]
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
    if not any(c.missing):
        return c
    n_present = len(c) - c.null_count
    if n_present == 0 and not isinstance(strategy, Constant):
        raise ValueError(f"column {c.name!r} is entirely missing; use Constant")

    if isinstance(strategy, (Mean, Median)):
        if c.kind is not Kind.NUMERIC:
            raise ValueError(f"{type(strategy).__name__} imputation needs a numeric column")
        values = numeric_values(c)
        fill = float(np.mean(values)) if isinstance(strategy, Mean) else quantile_type7(np.sort(values), 50)
    elif isinstance(strategy, Mode):
        fill = _mode_smallest(c.present_values())
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

    new_values = [fill if m else v for v, m in zip(c.values, c.missing)]
    return _rebuild(c, new_values)


def _rebuild(c: Column, cells: Sequence) -> Column:
    if c.kind is Kind.NUMERIC:
        return numeric_column(c.name, cells)
    if c.kind is Kind.BOOLEAN:
        return boolean_column(c.name, cells)
    return categorical_column(c.name, cells)


def _impute_regression(target: Column, predictor: Column) -> Column:
    if predictor.kind is not Kind.NUMERIC:
        raise ValueError(f"predictor {predictor.name!r} must be numeric")
    for i, m in enumerate(target.missing):
        if m and predictor.missing[i]:
            raise ValueError(
                f"predictor {predictor.name!r} is missing at row {i} where "
                f"{target.name!r} needs imputing"
            )
    xs = [predictor.values[i] for i in range(len(target))
          if not target.missing[i] and not predictor.missing[i]]
    ys = [target.values[i] for i in range(len(target))
          if not target.missing[i] and not predictor.missing[i]]
    if len(xs) < 2:
        raise ValueError("regression imputation needs >= 2 jointly present rows")
    x = np.array(xs)
    y = np.array(ys)
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx == 0:
        raise ValueError(f"predictor {predictor.name!r} is constant; OLS slope undefined")
    b = float(np.sum((x - x.mean()) * (y - y.mean()))) / sxx
    a = float(y.mean()) - b * float(x.mean())
    new_values = [
        a + b * predictor.values[i] if target.missing[i] else target.values[i]
        for i in range(len(target))
    ]
    return numeric_column(target.name, new_values)


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
    values = numeric_values(c)
    if len(values) == 0:
        raise ValueError(f"column {c.name!r} has no data")

    if isinstance(kind, Log):
        for i, (v, m) in enumerate(zip(c.values, c.missing)):
            if not m and v <= 0:
                raise ValueError(f"column {c.name!r} row {i}: log of non-positive value {v}")
        f = math.log
    elif isinstance(kind, Sqrt):
        for i, (v, m) in enumerate(zip(c.values, c.missing)):
            if not m and v < 0:
                raise ValueError(f"column {c.name!r} row {i}: sqrt of negative value {v}")
        f = math.sqrt
    elif isinstance(kind, MinMax):
        lo, hi = float(np.min(values)), float(np.max(values))
        if lo == hi:
            raise ValueError(f"column {c.name!r}: zero range, MinMax undefined")
        # normalize to [0, 1] first so extreme input ranges cannot overflow
        f = lambda v: kind.lo + (v - lo) / (hi - lo) * (kind.hi - kind.lo)
    elif isinstance(kind, ZScoreStandardize):
        if len(values) < 2 or sample_variance(values) == 0:
            raise ValueError(f"column {c.name!r}: zero variance, standardization undefined")
        mean = float(np.mean(values))
        std = math.sqrt(sample_variance(values))
        f = lambda v: (v - mean) / std
    else:
        raise TypeError(f"unsupported transform: {kind!r}")

    return numeric_column(c.name, [None if m else f(v) for v, m in zip(c.values, c.missing)])


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
    labels = sorted(set(c.present_values()))
    if not labels:
        raise ValueError(f"column {column!r} has no non-missing labels to encode")

    if kind is EncodeKind.LABEL:
        code = {label: float(i) for i, label in enumerate(labels)}
        new = numeric_column(column, [None if m else code[v] for v, m in zip(c.values, c.missing)])
        return t.replace_column(new)

    if kind is EncodeKind.ONE_HOT:
        generated = [
            boolean_column(
                f"{column}={label}",
                [None if m else int(v == label) for v, m in zip(c.values, c.missing)],
            )
            for label in labels
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

@dataclass(frozen=True)
class EqualWidth:
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("bin count must be >= 1")


@dataclass(frozen=True)
class Quantile:
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("bin count must be >= 1")


@dataclass(frozen=True)
class Edges:
    edges: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.edges) < 2:
            raise ValueError("need at least 2 edges")
        if any(a >= b for a, b in zip(self.edges, self.edges[1:])):
            raise ValueError("edges must be strictly increasing")


BinSpec = Union[EqualWidth, Quantile, Edges]


def _bin_label(lo: float, hi: float, last: bool) -> str:
    close = "]" if last else ")"
    return f"[{lo:g},{hi:g}{close}"


def bin_column(c: Column, spec: BinSpec) -> Column:
    """Discretize a numeric column into labeled intervals.

    Labels read "[lo,hi)" with the final bin closed. Quantile edges are
    type-7; duplicate quantile edges are collapsed, so fewer than n bins can
    result on heavily tied data. Explicit Edges reject out-of-range values.
    A constant column under EqualWidth yields the single bin [v,v].
    """
    values = numeric_values(c)
    if len(values) == 0:
        raise ValueError(f"column {c.name!r} has no data to bin")
    lo, hi = float(np.min(values)), float(np.max(values))

    if isinstance(spec, (EqualWidth, Quantile)) and lo == hi:
        label = _bin_label(lo, hi, last=True)
        return categorical_column(c.name, [None if m else label for m in c.missing])
    if isinstance(spec, EqualWidth):
        edges = np.linspace(lo, hi, spec.n + 1)
    elif isinstance(spec, Quantile):
        s = np.sort(values)
        raw = [quantile_type7(s, 100.0 * i / spec.n) for i in range(spec.n + 1)]
        edges = []
        for e in raw:
            if not edges or e > edges[-1]:
                edges.append(e)
        edges = np.array(edges)
    elif isinstance(spec, Edges):
        edges = np.array(spec.edges, dtype=float)
        if lo < edges[0] or hi > edges[-1]:
            bad = lo if lo < edges[0] else hi
            raise ValueError(f"column {c.name!r}: value {bad} outside explicit edges")
    else:
        raise TypeError(f"unsupported bin spec: {spec!r}")

    n_bins = len(edges) - 1
    labels = [_bin_label(edges[i], edges[i + 1], i == n_bins - 1) for i in range(n_bins)]

    def assign(v: float) -> str:
        i = int(np.searchsorted(edges, v, side="right")) - 1
        return labels[min(max(i, 0), n_bins - 1)]

    return categorical_column(
        c.name, [None if m else assign(v) for v, m in zip(c.values, c.missing)]
    )


# ---------------------------------------------------------------------------
# feature engineering

@dataclass(frozen=True)
class Product:
    a: str
    b: str


@dataclass(frozen=True)
class Power:
    a: str
    k: float


FeatureSpec = Union[Product, Power]


def engineer(t: Table, specs: Sequence[FeatureSpec]) -> Table:
    """Append interaction ("a*b") and power ("a^k") columns.

    Referenced columns must be numeric; missing operands propagate to the
    derived cell. Non-finite results (e.g. 0 to a negative power) raise.
    """
    new_cols: list[Column] = []
    for spec in specs:
        if isinstance(spec, Product):
            ca, cb = t.column(spec.a), t.column(spec.b)
            for col in (ca, cb):
                if col.kind is not Kind.NUMERIC:
                    raise ValueError(f"column {col.name!r} is not numeric")
            name = f"{spec.a}*{spec.b}"
            cells = [
                None if (ma or mb) else va * vb
                for va, ma, vb, mb in zip(ca.values, ca.missing, cb.values, cb.missing)
            ]
        elif isinstance(spec, Power):
            ca = t.column(spec.a)
            if ca.kind is not Kind.NUMERIC:
                raise ValueError(f"column {ca.name!r} is not numeric")
            name = f"{spec.a}^{spec.k:g}"
            cells = [
                None if m else _checked_pow(v, spec.k, name, i)
                for i, (v, m) in enumerate(zip(ca.values, ca.missing))
            ]
        else:
            raise TypeError(f"unsupported feature spec: {spec!r}")
        for i, v in enumerate(cells):
            if v is not None and not math.isfinite(v):
                raise ValueError(f"feature {name!r} row {i}: non-finite result")
        new_cols.append(numeric_column(name, cells))
    return t.append_columns(new_cols)


def _checked_pow(v: float, k: float, name: str, row: int) -> float:
    # v ** k can divide by zero, overflow, or go complex for v < 0
    try:
        r = v**k
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"feature {name!r} row {row}: non-finite result") from None
    if isinstance(r, complex):
        raise ValueError(f"feature {name!r} row {row}: complex result")
    return r
