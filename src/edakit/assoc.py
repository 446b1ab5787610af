"""Bivariate association: covariance, five correlation coefficients,
contingency tables, and whole-table correlation matrices.

All pairwise statistics use pairwise deletion: only rows where both inputs
are present enter the computation. Undefined coefficients (constant input,
too few pairs) raise from the pairwise functions and surface as explicit
None markers in a CorrelationMatrix, never as silent zeros.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .stats import _centered
from .table import Column, Kind, Table, label_codes, numeric_with_mask


class CorrMethod(enum.Enum):
    PEARSON = "pearson"
    SPEARMAN = "spearman"
    KENDALL = "kendall"


@dataclass(frozen=True)
class CorrelationMatrix:
    method: CorrMethod
    labels: tuple[str, ...]
    values: tuple[tuple[Optional[float], ...], ...]

    def __post_init__(self) -> None:
        k = len(self.labels)
        if len(self.values) != k or any(len(row) != k for row in self.values):
            raise ValueError("correlation matrix must be square over its labels")

    def cell(self, a: str, b: str) -> Optional[float]:
        i = self.labels.index(a)
        j = self.labels.index(b)
        return self.values[i][j]

    def to_dict(self) -> dict:
        return {
            "method": self.method.value,
            "labels": list(self.labels),
            "values": [list(row) for row in self.values],
        }


@dataclass(frozen=True)
class ContingencyTable:
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def to_dict(self) -> dict:
        return {
            "row_labels": list(self.row_labels),
            "col_labels": list(self.col_labels),
            "counts": [list(row) for row in self.counts],
        }


def _joint_present(x: Column, y: Column) -> tuple[np.ndarray, np.ndarray]:
    if len(x) != len(y):
        raise ValueError(f"columns {x.name!r} and {y.name!r} have different lengths")
    return _present_pairs(*numeric_with_mask(x), *numeric_with_mask(y))


def _present_pairs(xv, xm, yv, ym) -> tuple[np.ndarray, np.ndarray]:
    """xv and yv at the rows where both masks xm and ym are set."""
    both = xm & ym
    return xv[both], yv[both]


def covariance(x: Column, y: Column) -> float:
    """Sample covariance (ddof=1) over jointly non-missing pairs."""
    a, b = _joint_present(x, y)
    n = len(a)
    if n < 2:
        raise ValueError("covariance needs >= 2 jointly present pairs")
    return float(np.sum(_centered(a)[1] * _centered(b)[1]) / (n - 1))


def _pearson_arrays(a: np.ndarray, b: np.ndarray) -> float:
    if len(a) < 2:
        raise ValueError("correlation needs >= 2 jointly present pairs")
    _, da, va = _centered(a)
    _, db, vb = _centered(b)
    if va == 0 or vb == 0:
        raise ValueError("undefined correlation: zero variance input")
    r = float(np.sum(da * db)) / math.sqrt(float(va) * float(vb))
    return max(-1.0, min(1.0, r))


def pearson(x: Column, y: Column) -> float:
    """Pearson's r over jointly present pairs, clamped to [-1, 1]."""
    return _pearson_arrays(*_joint_present(x, y))


def average_ranks(a: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties replaced by their mean rank."""
    _, inverse, counts = np.unique(a, return_inverse=True, return_counts=True, equal_nan=False)
    # a run of `count` equal values after `start` smaller ones holds ranks
    # start+1 .. start+count, whose mean is start + (count + 1) / 2
    starts = np.cumsum(counts) - counts
    return (starts + (counts + 1) / 2)[inverse]


def _spearman_arrays(a: np.ndarray, b: np.ndarray) -> float:
    if len(a) < 2:
        raise ValueError("correlation needs >= 2 jointly present pairs")
    return _pearson_arrays(average_ranks(a), average_ranks(b))


def spearman(x: Column, y: Column) -> float:
    """Spearman's rho: Pearson correlation of average-ranked values."""
    return _spearman_arrays(*_joint_present(x, y))


def _tied_pairs(counts: np.ndarray) -> int:
    """Pairs within the tie groups of sizes ``counts``."""
    return int(np.sum(counts * (counts - 1))) // 2


def _inversions(r: np.ndarray) -> int:
    """Pairs i < j with r[i] > r[j], counted by a bottom-up merge.

    At width w the positions form blocks of 2w, each a left and a right half
    of w. Sorting by (block, rank, left before right) puts before each left
    element exactly the right elements of its block with a smaller rank; the
    block * w right elements of the earlier blocks come first. Each pair is
    counted once, at the width where its two positions first share a block.
    """
    pos = np.arange(len(r))
    total = 0
    width = 1
    while width < len(r):
        block = pos // (2 * width)
        right = (pos // width) & 1
        order = np.lexsort((right, r, block))
        is_right = right[order]
        right_before = np.cumsum(is_right) - block[order] * width
        total += int(right_before[is_right == 0].sum())
        width *= 2
    return total


def _kendall_arrays(a: np.ndarray, b: np.ndarray) -> float:
    n = len(a)
    if n < 2:
        raise ValueError("kendall tau needs >= 2 jointly present pairs")
    _, xr, x_counts = np.unique(a, return_inverse=True, return_counts=True)
    _, yr, y_counts = np.unique(b, return_inverse=True, return_counts=True)
    _, xy_counts = np.unique(xr * len(y_counts) + yr, return_counts=True)
    n0 = n * (n - 1) // 2
    ties_x, ties_y = _tied_pairs(x_counts), _tied_pairs(y_counts)
    if ties_x == n0 or ties_y == n0:
        raise ValueError("kendall tau undefined: a variable is entirely tied")
    # after sorting by (x, y), a pair is discordant exactly when its y ranks
    # are inverted; pairs tied in x or y are neither, and n3 counts the pairs
    # tied in both, which ties_x and ties_y both subtract
    discordant = _inversions(yr[np.lexsort((yr, xr))])
    untied = n0 - ties_x - ties_y + _tied_pairs(xy_counts)
    denom = math.sqrt((n0 - ties_x) * (n0 - ties_y))
    return (untied - 2 * discordant) / denom


def kendall_tau(x: Column, y: Column) -> float:
    """Kendall's tau-b with tie correction.

    (C - D) / sqrt((n0 - n1)(n0 - n2)) where n0 = n(n-1)/2 and n1/n2 count
    tied pairs in each variable. Knight's method (1966): C - D is
    n0 - n1 - n2 + n3 - 2D, with n3 the pairs tied in both and D the
    inversions of y after sorting by (x, y), all counted exactly in integers
    in O(n log^2 n).
    """
    return _kendall_arrays(*_joint_present(x, y))


def point_biserial(b: Column, y: Column) -> float:
    """Correlation of a boolean column with a numeric one.

    Identical by construction to Pearson's r on the 0/1 coding; requires
    both classes present among the jointly non-missing rows.
    """
    if b.kind is not Kind.BOOLEAN:
        raise ValueError(f"column {b.name!r} must be boolean")
    bv, yv = _joint_present(b, y)
    if len(set(bv.tolist())) < 2:
        raise ValueError(f"column {b.name!r} has a single class; point-biserial undefined")
    return _pearson_arrays(bv, yv)


def phi(a: Column, b: Column) -> float:
    """Phi coefficient of two boolean columns via their 2x2 contingency table."""
    for c in (a, b):
        if c.kind is not Kind.BOOLEAN:
            raise ValueError(f"column {c.name!r} must be boolean")
    av, bv = _joint_present(a, b)
    n11 = int(np.sum((av == 1) & (bv == 1)))
    n10 = int(np.sum((av == 1) & (bv == 0)))
    n01 = int(np.sum((av == 0) & (bv == 1)))
    n00 = int(np.sum((av == 0) & (bv == 0)))
    r1, r0 = n11 + n10, n01 + n00
    c1, c0 = n11 + n01, n10 + n00
    if 0 in (r1, r0, c1, c0):
        raise ValueError("phi undefined: zero marginal in the 2x2 table")
    return (n11 * n00 - n10 * n01) / math.sqrt(r1 * r0 * c1 * c0)


def contingency(a: Column, b: Column) -> ContingencyTable:
    """Cross-tabulation of two categorical/boolean columns.

    Counts cover jointly non-missing rows; labels are ascending text.
    """
    if len(a) != len(b):
        raise ValueError(f"columns {a.name!r} and {b.name!r} have different lengths")
    for c in (a, b):
        if c.kind is Kind.NUMERIC:
            raise ValueError(f"column {c.name!r} is numeric; bin it first")
    (ca, la), (cb, lb) = label_codes(a), label_codes(b)
    both = (ca >= 0) & (cb >= 0)
    counts = np.bincount(ca[both] * len(lb) + cb[both], minlength=len(la) * len(lb))
    counts = counts.reshape(len(la), len(lb))
    # only labels that occur in a jointly present row get a row or column
    rows, cols = np.flatnonzero(counts.any(axis=1)), np.flatnonzero(counts.any(axis=0))
    return ContingencyTable(
        tuple(la[i] for i in rows.tolist()),
        tuple(lb[j] for j in cols.tolist()),
        tuple(map(tuple, counts[np.ix_(rows, cols)].tolist())),
    )


_KERNELS = {
    CorrMethod.PEARSON: _pearson_arrays,
    CorrMethod.SPEARMAN: _spearman_arrays,
    CorrMethod.KENDALL: _kendall_arrays,
}


def correlation_matrix(t: Table, method: CorrMethod = CorrMethod.PEARSON) -> CorrelationMatrix:
    """Pairwise association over every numeric and boolean column.

    Each cell uses the rows jointly present for that pair. Cells whose
    coefficient is undefined hold None.
    """
    eligible = [c for c in t.columns if c.kind in (Kind.NUMERIC, Kind.BOOLEAN)]
    if len(eligible) < 2:
        raise ValueError("correlation matrix needs >= 2 numeric/boolean columns")
    kernel = _KERNELS[method]
    arrays = [numeric_with_mask(c) for c in eligible]
    k = len(eligible)
    values: list[list[Optional[float]]] = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            try:
                r: Optional[float] = kernel(*_present_pairs(*arrays[i], *arrays[j]))
            except ValueError:
                r = None
            values[i][j] = r
            values[j][i] = r
    return CorrelationMatrix(
        method, tuple(c.name for c in eligible), tuple(tuple(row) for row in values)
    )
