"""Typed columnar tables: CSV ingestion, schema inference, column operations.

A Table is an immutable ordered collection of typed columns of equal length.
Cells are plain Python values (floats for numeric, strings for categorical,
0/1 ints for boolean); ``None`` is the one marker of a missing cell.

``read_csv`` and ``infer_schema`` share one column builder that strips, tests
for missing and parses each CSV cell once; the parse that types a column also
yields its values.
"""

from __future__ import annotations

import csv
import enum
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np


class Kind(enum.Enum):
    NUMERIC = "numeric"
    CATEGORICAL = "categorical"
    BOOLEAN = "boolean"


@dataclass(frozen=True)
class CsvOptions:
    """Parsing/writing options for :func:`read_csv` and :func:`write_csv`.

    Args:
        delimiter: Field separator, default comma.
        has_header: Whether the first row names the columns. When False,
            columns are named ``col0``, ``col1``, ...
        missing_tokens: Cell texts treated as missing, compared after
            stripping surrounding whitespace, case-insensitively. The first is
            written for missing cells; write_csv refuses text that matches one.
        boolean_columns: Column names that should be typed Boolean whenever
            all their cells are "0"/"1", even if only one of the two values
            occurs.
        trim_whitespace: Strip surrounding whitespace from categorical cells.
        canonical_case: Optional "lower"/"upper" folding for categorical
            cells, applied after trimming.
    """

    delimiter: str = ","
    has_header: bool = True
    missing_tokens: tuple[str, ...] = ("", "NA")
    boolean_columns: tuple[str, ...] = ()
    trim_whitespace: bool = True
    canonical_case: Optional[str] = None

    def __post_init__(self) -> None:
        if self.canonical_case not in (None, "lower", "upper"):
            raise ValueError("canonical_case must be None, 'lower' or 'upper'")

    def _missing_set(self) -> frozenset[str]:
        return frozenset(t.strip().casefold() for t in self.missing_tokens)


@dataclass(frozen=True)
class Column:
    """One named, typed column. ``values[i] is None`` exactly where missing."""

    name: str
    kind: Kind
    values: tuple

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("column name must be non-empty")
        for i, v in enumerate(self.values):
            if v is None:
                continue
            if self.kind is Kind.NUMERIC:
                if not isinstance(v, float) or not math.isfinite(v):
                    raise ValueError(f"column {self.name!r} row {i}: numeric cell must be a finite float")
            elif self.kind is Kind.CATEGORICAL:
                if not isinstance(v, str) or v == "":
                    raise ValueError(f"column {self.name!r} row {i}: categorical cell must be non-empty text")
            else:
                if v not in (0, 1) or isinstance(v, bool) or not isinstance(v, int):
                    raise ValueError(f"column {self.name!r} row {i}: boolean cell must be int 0 or 1")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def missing(self) -> tuple[bool, ...]:
        """Per-row missing flags, derived from ``values``."""
        return tuple(v is None for v in self.values)

    @property
    def null_count(self) -> int:
        return self.values.count(None)

    def present_values(self) -> list:
        """Non-missing cell values, in row order."""
        return [v for v in self.values if v is not None]


def numeric_column(name: str, cells: Sequence[Optional[float]]) -> Column:
    """Build a Numeric column; None entries become missing cells."""
    return Column(name, Kind.NUMERIC, tuple(None if v is None else float(v) for v in cells))


def categorical_column(name: str, cells: Sequence[Optional[str]]) -> Column:
    return Column(name, Kind.CATEGORICAL, tuple(None if v is None else str(v) for v in cells))


def boolean_column(name: str, cells: Sequence[Optional[int]]) -> Column:
    return Column(name, Kind.BOOLEAN, tuple(None if v is None else int(v) for v in cells))


def numeric_values(c: Column) -> np.ndarray:
    """Present cells of a numeric or boolean column as a float array."""
    vals, mask = numeric_with_mask(c)
    return vals[mask]


def numeric_with_mask(c: Column) -> tuple[np.ndarray, np.ndarray]:
    """Full-length float array (NaN at missing cells) plus a present mask."""
    if c.kind is Kind.CATEGORICAL:
        raise ValueError(f"column {c.name!r} is categorical, not numeric")
    # numpy turns None into NaN; present cells are finite (Column checks it)
    vals = np.array(c.values, dtype=float)
    return vals, ~np.isnan(vals)


@dataclass(frozen=True)
class Table:
    """Immutable named table; every operation returns a new Table."""

    name: str
    columns: tuple[Column, ...]
    row_count: int

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for c in self.columns:
            if c.name in seen:
                raise ValueError(f"duplicate column name {c.name!r}")
            seen.add(c.name)
            if len(c) != self.row_count:
                raise ValueError(
                    f"column {c.name!r} has {len(c)} rows, table has {self.row_count}"
                )

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        for c in self.columns:
            if c.name == name:
                return c
        raise KeyError(f"no column named {name!r}")

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)

    def with_columns(self, columns: Iterable[Column]) -> "Table":
        cols = tuple(columns)
        n = len(cols[0]) if cols else self.row_count
        return Table(self.name, cols, n)

    def replace_column(self, new: Column) -> "Table":
        """New table with the same-named column swapped out."""
        if not self.has_column(new.name):
            raise KeyError(f"no column named {new.name!r}")
        return self.with_columns(new if c.name == new.name else c for c in self.columns)

    def append_columns(self, new: Sequence[Column]) -> "Table":
        return self.with_columns(list(self.columns) + list(new))


class SchemaEntry(NamedTuple):
    name: str
    kind: Kind
    null_count: int


@dataclass(frozen=True)
class Schema:
    entries: tuple[SchemaEntry, ...]

    def to_dict(self) -> list[dict]:
        return [
            {"name": e.name, "kind": e.kind.value, "null_count": e.null_count}
            for e in self.entries
        ]


class FreqRow(NamedTuple):
    label: str
    count: int
    proportion: float


@dataclass(frozen=True)
class FrequencyTable:
    """Label/count/proportion rows; proportions sum to 1 when any row exists."""

    rows: tuple[FreqRow, ...]

    def to_dict(self) -> list[dict]:
        return [
            {"label": r.label, "count": r.count, "proportion": r.proportion}
            for r in self.rows
        ]


def _finite_reals(cells: list[str], distinct: set[str]) -> Optional[list[float]]:
    """``cells`` as floats, or None unless each is an ASCII, "_"-free finite real."""
    joined = "".join(distinct)
    if not joined.isascii() or "_" in joined:
        return None
    try:
        values = [float(s) for s in cells]
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _typed_column(name: str, cells: Sequence[str], opts: CsvOptions, missing_set: frozenset) -> Column:
    """Type one raw text column by the rules of :func:`infer_schema`."""
    # each stripped cell, or None where it is a missing token
    marked = [None if s.casefold() in missing_set else s for s in (c.strip() for c in cells)]
    present = [s for s in marked if s is not None]
    distinct = set(present)
    if distinct and distinct <= {"0", "1"} and (name in opts.boolean_columns or len(distinct) == 2):
        kind, parsed = Kind.BOOLEAN, [int(s) for s in present]
    elif distinct and (parsed := _finite_reals(present, distinct)) is not None:
        kind = Kind.NUMERIC
    else:
        kind = Kind.CATEGORICAL
        parsed = present if opts.trim_whitespace else [c for c, s in zip(cells, marked) if s is not None]
        if opts.canonical_case:
            parsed = list(map(getattr(str, opts.canonical_case), parsed))
    it = iter(parsed)
    return Column(name, kind, tuple(None if s is None else next(it) for s in marked))


def infer_schema(
    names: Sequence[str],
    raw_columns: Sequence[Sequence[str]],
    options: Optional[CsvOptions] = None,
) -> Schema:
    """Classify raw text columns as Numeric, Boolean or Categorical.

    Rules, applied to the non-missing cells of each column:
      * Boolean when every cell is "0" or "1" AND either the column name is
        configured in ``options.boolean_columns`` or both values occur.
      * Otherwise Numeric when every cell is a finite real in ASCII: sign,
        digits, point and exponent ("-2.5", ".5", "1e3"). "1_000", non-ASCII
        digits, "inf", "nan" and overflows to infinity are not numeric.
      * Otherwise Categorical. Columns with no non-missing cells are
        Categorical (nothing to go on).

    The classification is a pure function of the input bytes and options.
    """
    opts = options or CsvOptions()
    missing_set = opts._missing_set()
    columns = (_typed_column(n, cells, opts, missing_set) for n, cells in zip(names, raw_columns))
    return Schema(tuple(SchemaEntry(c.name, c.kind, c.null_count) for c in columns))


def read_csv(path: Union[str, Path], options: Optional[CsvOptions] = None) -> Table:
    """Load a CSV file (RFC-4180 quoting, UTF-8, optional BOM) into a typed Table.

    The first row is taken as the header unless options say otherwise; empty
    and "NA" cells (configurable) become missing. Raises on a missing file,
    an empty file, duplicate or empty header names, and rows whose field
    count differs from the header's (the error names the offending line).
    """
    opts = options or CsvOptions()
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=opts.delimiter)
        try:
            first = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: no header") from None
        if opts.has_header:
            names = [h.strip() for h in first]
            rows = []
        else:
            names = [f"col{i}" for i in range(len(first))]
            rows = [first]
        if any(not n for n in names):
            raise ValueError(f"{path}: empty header name")
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ValueError(f"{path}: duplicate header names: {sorted(dupes)}")
        n_cols = len(names)
        for row in reader:
            if len(row) != n_cols:
                raise ValueError(
                    f"{path} line {reader.line_num}: expected {n_cols} fields, got {len(row)}"
                )
            rows.append(row)

    missing_set = opts._missing_set()
    columns = tuple(
        _typed_column(name, [row[j] for row in rows], opts, missing_set)
        for j, name in enumerate(names)
    )
    return Table(path.stem, columns, len(rows))


def _format_numeric(v: float) -> str:
    # integral floats print without the ".0"; both forms parse back to v
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def write_csv_to(t: Table, fh, options: Optional[CsvOptions] = None) -> None:
    """Write CSV text for a Table to an open text stream.

    Missing cells are written as the first configured missing token.
    Lines end with "\\n" for stable bytes across platforms. Raises, before
    writing anything, on a categorical value that reads back as missing.
    """
    opts = options or CsvOptions()
    missing_set = opts._missing_set()
    for c in t.columns:
        if c.kind is Kind.CATEGORICAL:
            bad = sorted(v for v in set(c.values) - {None} if v.strip().casefold() in missing_set)
            if bad:
                raise ValueError(f"column {c.name!r}: values {bad} would read back as missing")
    missing_token = opts.missing_tokens[0] if opts.missing_tokens else ""
    writer = csv.writer(fh, delimiter=opts.delimiter, lineterminator="\n")
    writer.writerow([c.name for c in t.columns])
    for i in range(t.row_count):
        row = []
        for c in t.columns:
            v = c.values[i]
            if v is None:
                row.append(missing_token)
            elif c.kind is Kind.NUMERIC:
                row.append(_format_numeric(v))
            elif c.kind is Kind.BOOLEAN:
                row.append(str(v))
            else:
                row.append(v)
        writer.writerow(row)


def write_csv(t: Table, path: Union[str, Path], options: Optional[CsvOptions] = None) -> None:
    """Write a Table to a CSV file.

    ``read_csv`` gives back the same columns only where inference types each
    column's written text as it was typed and the read options leave its
    labels alone. It does not for a categorical column whose labels all read
    as numbers or as 0/1 (``["1", "2"]`` reads back numeric), labels with
    surrounding whitespace or case that the options trim or fold (``" x"``
    reads back ``"x"``), a boolean column holding only one of 0 and 1 and not
    named in ``boolean_columns`` (numeric), a numeric column holding exactly
    0 and 1 (boolean), or an all-missing column (categorical).
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_csv_to(t, fh, options)


def _check_known(t: Table, names: Sequence[str]) -> None:
    unknown = [n for n in names if not t.has_column(n)]
    if unknown:
        raise ValueError(f"unknown columns: {unknown}")


def drop_columns(t: Table, names: Sequence[str]) -> Table:
    """Table without the named columns; unknown names raise, listing them."""
    _check_known(t, names)
    drop = set(names)
    return t.with_columns(c for c in t.columns if c.name not in drop)


def select_columns(t: Table, names: Sequence[str]) -> Table:
    """Table restricted to the named columns, in the given order."""
    _check_known(t, names)
    return t.with_columns(t.column(n) for n in names)


def filter_rows(t: Table, keep: Sequence[bool]) -> Table:
    """Table with only the rows where ``keep`` is True (outlier removal etc.)."""
    if len(keep) != t.row_count:
        raise ValueError(f"mask length {len(keep)} != row count {t.row_count}")
    idx = [i for i, k in enumerate(keep) if k]
    cols = tuple(Column(c.name, c.kind, tuple(c.values[i] for i in idx)) for c in t.columns)
    return Table(t.name, cols, len(idx))


def null_counts(t: Table) -> Schema:
    """Per-column missing-cell counts, order-preserving."""
    return Schema(tuple(SchemaEntry(c.name, c.kind, c.null_count) for c in t.columns))


def value_counts(c: Column) -> FrequencyTable:
    """Frequency table of a categorical or boolean column.

    Rows are sorted by descending count, ties broken by ascending label.
    Counts cover non-missing cells only; an all-missing column yields an
    empty table. Numeric columns are rejected (use stats.histogram).
    """
    if c.kind is Kind.NUMERIC:
        raise ValueError(
            f"column {c.name!r} is numeric; value_counts is for categorical/boolean "
            "columns, use a histogram instead"
        )
    counts = Counter(str(v) for v in c.values if v is not None)
    total = sum(counts.values())
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return FrequencyTable(tuple(FreqRow(k, n, n / total) for k, n in ordered))
