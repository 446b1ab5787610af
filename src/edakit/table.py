"""Typed columnar tables: CSV ingestion, schema inference, column operations.

A Table is an immutable ordered collection of typed columns of equal length.
Each column stores one read-only array, with one marker for a missing cell: a
numeric or boolean column holds float64 values (0.0/1.0 for boolean), NaN
where missing; a categorical column holds int64 codes, -1 where missing, into
its distinct labels, in ascending ``str`` order, each of which occurs. The
constructors refuse NaN at a present cell, so the missing flags are derived
from the array; ``numeric_with_mask`` and ``label_codes`` do not copy it.
``Column.values`` derives plain Python cells (floats, strings, 0/1 ints,
``None`` where missing) on each read; no operation in the package uses it.

``read_csv`` and ``infer_schema`` share one column typer. ``read_csv`` takes
blocks of 8192 rows from one ``csv.reader``, checking each row's field count
as it goes, feeds each block's columns to the typer and drops the block's text
before reading the next, so it holds one block of text, not the file. Its
``keep`` argument names the columns to type; the others are parsed and
checked but never typed. The typer strips each cell once and types a block
from the set of its distinct cells, in whole-block passes: a column stays
numeric or boolean while every block parses as finite reals, and is
categorical from its first block that does not. A column that fails only
after earlier blocks held numbers has lost their text, so ``read_csv``
re-reads the file for such columns alone and types each from its whole text;
they are rare.
"""

from __future__ import annotations

import csv
import enum
import math
import operator
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

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

    Reading strips surrounding whitespace from every cell and keeps the case
    of categorical cells as written.
    """

    delimiter: str = ","
    has_header: bool = True
    missing_tokens: tuple[str, ...] = ("", "NA")
    boolean_columns: tuple[str, ...] = ()

    def _missing_set(self) -> frozenset[str]:
        return frozenset(t.strip().casefold() for t in self.missing_tokens)


_CELL_RULE = {
    Kind.NUMERIC: "numeric cell must be a finite float",
    Kind.CATEGORICAL: "categorical cell must be non-empty text",
    Kind.BOOLEAN: "boolean cell must be int 0 or 1",
}


def _check_name(name: str) -> None:
    if not name:
        raise ValueError("column name must be non-empty")


def _cell_ok(kind: Kind, v) -> bool:
    if kind is Kind.NUMERIC:
        return isinstance(v, float) and math.isfinite(v)
    if kind is Kind.CATEGORICAL:
        return isinstance(v, str) and v != ""
    return v in (0, 1) and isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True, init=False, repr=False, eq=False)
class Column:
    """One named, typed column, stored as read-only arrays (see the module doc).

    ``Column(name, kind, cells)`` builds from Python cells, ``None`` marking a
    missing one, and checks every present cell: numeric cells are finite
    floats, boolean cells int 0 or 1, categorical cells non-empty text. A bad
    cell raises ``ValueError`` naming its row. :meth:`from_floats` and
    :meth:`from_codes` build from arrays with the same checks.
    """

    name: str
    kind: Kind
    _data: np.ndarray  # float64 values, NaN where missing; or int64 codes, -1 where missing
    _labels: tuple  # a categorical column's labels, else ()

    def __init__(self, name: str, kind: Kind, values: Sequence) -> None:
        _check_name(name)
        cells = values if isinstance(values, (list, tuple)) else list(values)
        n = len(cells)
        wanted = {Kind.NUMERIC: float, Kind.CATEGORICAL: str, Kind.BOOLEAN: int}[kind]
        types = set(map(type, cells)) - {type(None)}
        if not all(issubclass(t, wanted) and not issubclass(t, bool) for t in types):
            row = next(i for i, v in enumerate(cells) if v is not None and not _cell_ok(kind, v))
            raise ValueError(f"column {name!r} row {row}: {_CELL_RULE[kind]}")
        if kind is Kind.CATEGORICAL:
            labels = list(set(cells) - {None})
            index = {label: i for i, label in enumerate(labels)}
            index[None] = -1
            built = Column.from_codes(name, np.fromiter(map(index.__getitem__, cells), np.int64, n), labels)
        else:
            present = np.fromiter(map(operator.is_not, cells, repeat(None)), bool, n)
            if kind is Kind.NUMERIC:
                data = np.array(cells, dtype=float)
            else:  # any int but 0 and 1 maps to 2.0, which the check rejects
                data = np.fromiter(map({0: 0.0, 1: 1.0, None: math.nan}.get, cells, repeat(2.0)), float, n)
            built = Column.from_floats(name, kind, data, present)
        self._set(name, kind, built._data, built._labels)

    def _set(self, name: str, kind: Kind, data: np.ndarray, labels: tuple) -> None:
        _check_name(name)
        data.flags.writeable = False
        for slot, value in (("name", name), ("kind", kind), ("_data", data), ("_labels", labels)):
            object.__setattr__(self, slot, value)

    def _present_mask(self) -> np.ndarray:
        """Read-only present flags, derived from the stored missing marker."""
        present = self._data >= 0 if self.kind is Kind.CATEGORICAL else ~np.isnan(self._data)
        present.flags.writeable = False
        return present

    @classmethod
    def from_floats(cls, name: str, kind: Kind, values, present) -> "Column":
        """Numeric or boolean column from float values and a present mask.

        Cells where ``present`` is False are missing and stored as NaN. Present
        cells must be finite (numeric) or exactly 0.0 or 1.0 (boolean): a NaN
        at a present cell is refused, not taken as missing. Values are copied.
        """
        if kind is Kind.CATEGORICAL:
            raise ValueError(f"column {name!r}: categorical columns are built from codes")
        values, present = np.asarray(values, dtype=float), np.array(present, dtype=bool)
        if values.ndim != 1 or values.shape != present.shape:
            raise ValueError(f"column {name!r}: values and present must be 1-D and of equal length")
        data = np.where(present, values, np.nan)
        if kind is Kind.NUMERIC:
            bad = present & ~np.isfinite(data)
        else:
            bad = present & (data != 0.0) & (data != 1.0)
        if bad.any():
            raise ValueError(f"column {name!r} row {np.flatnonzero(bad)[0]}: {_CELL_RULE[kind]}")
        col = cls.__new__(cls)
        col._set(name, kind, data, ())
        return col

    @classmethod
    def from_codes(cls, name: str, codes, labels: Sequence[str]) -> "Column":
        """Categorical column from int codes (-1 where missing) into ``labels``.

        ``labels`` may repeat, go unused or come in any order: the column keeps
        the distinct labels that occur, in ascending order, and recodes.
        """
        codes = np.array(codes, dtype=np.int64)
        if codes.ndim != 1:
            raise ValueError(f"column {name!r}: codes must be 1-D")
        if not all(isinstance(label, str) for label in labels):
            raise ValueError(f"column {name!r}: labels must be text")
        if codes.size and (codes.min() < -1 or codes.max() >= len(labels)):
            raise ValueError(f"column {name!r}: codes must lie in [-1, {len(labels)})")
        used = np.bincount(codes[codes >= 0], minlength=len(labels)) > 0
        kept = sorted({labels[i] for i in np.flatnonzero(used).tolist()})
        if list(labels) != kept:
            position = {label: k for k, label in enumerate(kept)}
            remap = np.array([position.get(label, -1) for label in labels] + [-1], dtype=np.int64)
            codes = remap[codes]  # a -1 code picks the trailing -1
        if kept and kept[0] == "":
            raise ValueError(f"column {name!r} row {np.flatnonzero(codes == 0)[0]}: {_CELL_RULE[Kind.CATEGORICAL]}")
        col = cls.__new__(cls)
        col._set(name, Kind.CATEGORICAL, codes, tuple(kept))
        return col

    def __len__(self) -> int:
        return len(self._data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        return (
            (self.name, self.kind, self._labels) == (other.name, other.kind, other._labels)
            and np.array_equal(self._data, other._data, equal_nan=True)
        )

    def __hash__(self) -> int:
        return hash((self.name, self.kind, len(self), self._labels))

    def __reduce__(self):
        # copies and unpickling rebuild through the checked constructors, whose arrays are read-only
        if self.kind is Kind.CATEGORICAL:
            return Column.from_codes, (self.name, self._data, self._labels)
        return Column.from_floats, (self.name, self.kind, self._data, self._present_mask())

    def __repr__(self) -> str:
        return f"Column({self.name!r}, {self.kind}, {self.values!r})"

    @property
    def values(self) -> tuple:
        """The cells as a tuple of Python values, ``None`` where missing.

        Derived from the arrays on every read and never cached.
        """
        if self.kind is Kind.NUMERIC:
            cells = self._data.tolist()
            for i in np.flatnonzero(~self._present_mask()).tolist():
                cells[i] = None
            return tuple(cells)
        codes, labels = label_codes(self)
        lookup = (0, 1, None) if self.kind is Kind.BOOLEAN else labels + (None,)
        return tuple(map(lookup.__getitem__, codes.tolist()))

    @property
    def missing(self) -> tuple[bool, ...]:
        """Per-row missing flags."""
        return tuple((~self._present_mask()).tolist())

    @property
    def null_count(self) -> int:
        return len(self) - int(np.count_nonzero(self._present_mask()))


def numeric_column(name: str, cells: Sequence[Optional[float]]) -> Column:
    """Build a Numeric column; None entries become missing cells."""
    return Column(name, Kind.NUMERIC, [None if v is None else float(v) for v in cells])


def categorical_column(name: str, cells: Sequence[Optional[str]]) -> Column:
    return Column(name, Kind.CATEGORICAL, [None if v is None else str(v) for v in cells])


def boolean_column(name: str, cells: Sequence[Optional[int]]) -> Column:
    return Column(name, Kind.BOOLEAN, [None if v is None else int(v) for v in cells])


def numeric_values(c: Column) -> np.ndarray:
    """Present cells of a numeric or boolean column as a float array."""
    vals, mask = numeric_with_mask(c)
    return vals[mask]


def numeric_with_mask(c: Column) -> tuple[np.ndarray, np.ndarray]:
    """The stored float array (NaN at missing cells) and a present mask derived from it, read-only."""
    if c.kind is Kind.CATEGORICAL:
        raise ValueError(f"column {c.name!r} is categorical, not numeric")
    return c._data, c._present_mask()


def label_codes(c: Column) -> tuple[np.ndarray, tuple[str, ...]]:
    """Int codes (-1 where missing) into the ascending text labels of a
    categorical or boolean column. A boolean column's labels are ("0", "1"),
    whether or not both occur."""
    if c.kind is Kind.CATEGORICAL:
        return c._data, c._labels
    if c.kind is Kind.BOOLEAN:
        return np.where(c._present_mask(), c._data, -1).astype(np.int64), ("0", "1")
    raise ValueError(f"column {c.name!r} is numeric, not categorical or boolean")


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
        raise KeyError(f"no column named {name!r}{_did_you_mean(self, [name])}")

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


def _finite_reals(stripped: list[str], labels: set[str], present: np.ndarray) -> Optional[np.ndarray]:
    """The column as floats (NaN where missing), or None unless each present
    cell is an ASCII, "_"-free finite real. ``labels`` are the distinct
    present cells."""
    joined = "".join(labels)
    if not joined.isascii() or "_" in joined:
        return None
    try:
        parsed = np.fromiter(map(float, compress(stripped, present)), float)
    except ValueError:
        return None
    if not np.isfinite(parsed).all():
        return None
    values = np.full(len(stripped), np.nan)
    values[present] = parsed
    return values


class _ColumnTyper:
    """Types one raw text column, fed a block of its cells at a time, by the
    rules of :func:`infer_schema`.

    While every block's present cells are finite reals, the typer keeps each
    block's floats, NaN where missing, and the union of its labels while they
    lie within {"0", "1"} (the boolean rule is on the text, so "1.0" keeps a
    column numeric). From its first failing block the column is categorical,
    coded through one label -> code dict that grows across blocks. Blocks with
    no present cell carry no text, but earlier present numbers cannot be
    recoded from their floats: the typer becomes ``stale``, ignores further
    blocks, and the column must be typed again from its whole text.
    """

    def __init__(self, name: str, opts: CsvOptions, missing_set: frozenset) -> None:
        self.name = name
        self.named_boolean = name in opts.boolean_columns
        self.missing_set = missing_set
        self.values = [np.empty(0)]  # per block, while numeric
        self.bits: Optional[set] = set()  # None once a present label lies outside {"0", "1"}
        self.index: Optional[dict] = None  # label -> code, once categorical
        self.codes: list[np.ndarray] = []
        self.stale = False

    def feed(self, cells: Sequence[str]) -> None:
        if self.stale:
            return
        n = len(cells)
        stripped = list(map(str.strip, cells))
        distinct = set(stripped)
        missing = set(compress(distinct, map(self.missing_set.__contains__, map(str.casefold, distinct))))
        labels = distinct - missing  # the distinct present cells
        if self.index is None:
            present = ~np.fromiter(map(missing.__contains__, stripped), bool, n) if missing else np.ones(n, bool)
            if (values := _finite_reals(stripped, labels, present)) is not None:
                self.values.append(values)
                if self.bits is not None:
                    self.bits = self.bits | labels if labels <= {"0", "1"} else None
                return
            if not all(np.isnan(v).all() for v in self.values):
                self.stale, self.values = True, []
                return
            self.index, self.codes = {}, [np.full(sum(map(len, self.values)), -1, np.int64)]
        for label in labels.difference(self.index):
            self.index[label] = len(self.index)
        self.codes.append(np.fromiter(map(self.index.get, stripped, repeat(-1)), np.int64, n))

    def column(self) -> Column:
        if self.index is None:
            values = np.concatenate(self.values)
            if np.isnan(values).all():
                return Column.from_codes(self.name, np.full(len(values), -1), [])
            boolean = self.bits is not None and (self.named_boolean or len(self.bits) == 2)
            kind = Kind.BOOLEAN if boolean else Kind.NUMERIC
            return Column.from_floats(self.name, kind, values, ~np.isnan(values))
        return Column.from_codes(self.name, np.concatenate(self.codes), list(self.index))


def _typed_column(name: str, cells: Sequence[str], opts: CsvOptions, missing_set: frozenset) -> Column:
    """Type one raw text column, whole, by the rules of :func:`infer_schema`."""
    typer = _ColumnTyper(name, opts, missing_set)
    typer.feed(cells)
    return typer.column()


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


# rows typed per read_csv step, which bounds the text held at once
_READ_ROWS = 8192


def _checked_rows(reader, n_cols: int, path: Path):
    """The rows of ``reader``; one without ``n_cols`` fields raises, naming its line."""
    for row in reader:
        if len(row) != n_cols:
            raise ValueError(f"{path} line {reader.line_num}: expected {n_cols} fields, got {len(row)}")
        yield row


def read_csv(
    path: Union[str, Path],
    options: Optional[CsvOptions] = None,
    keep: Optional[Callable[[str], bool]] = None,
) -> Table:
    """Load a CSV file (RFC-4180 quoting, UTF-8, optional BOM) into a typed Table.

    The first row is taken as the header unless options say otherwise; empty
    and "NA" cells (configurable) become missing. Raises on a missing file,
    an empty file, duplicate or empty header names, and rows whose field
    count differs from the header's (the error names the offending line).

    ``keep``, when given, is called with each header name and the table holds
    only the columns it accepts, in header order, typed as a full read would
    type them; the others are parsed, so every row's field count is still
    checked, but never typed. The name and row count do not depend on it.
    """
    opts = options or CsvOptions()
    path = Path(path)
    missing_set = opts._missing_set()
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=opts.delimiter)
        try:
            first = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: no header") from None
        names = [h.strip() for h in first] if opts.has_header else [f"col{i}" for i in range(len(first))]
        if any(not n for n in names):
            raise ValueError(f"{path}: empty header name")
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ValueError(f"{path}: duplicate header names: {sorted(dupes)}")
        rows = _checked_rows(reader, len(names), path)
        if not opts.has_header:
            rows = chain([first], rows)
        kept = [j for j, name in enumerate(names) if keep is None or keep(name)]
        typers = {j: _ColumnTyper(names[j], opts, missing_set) for j in kept}
        n_rows = 0
        while block := list(islice(rows, _READ_ROWS)):
            n_rows += len(block)
            for j, typer in typers.items():
                typer.feed([row[j] for row in block])
            block = None  # drop this block's text before the next is read

    stale = [j for j, typer in typers.items() if typer.stale]
    if stale:  # rare: numbers, then text in a later block; type the whole text again
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh, delimiter=opts.delimiter)
            if opts.has_header:
                next(reader)
            for j, cells in zip(stale, zip(*([row[k] for k in stale] for row in reader))):
                typers[j] = _ColumnTyper(names[j], opts, missing_set)
                typers[j].feed(cells)
    # pop each typer as its column is built, which drops its blocks
    columns = tuple(typers.pop(j).column() for j in kept)
    return Table(path.stem, columns, n_rows)


# rows formatted per write_csv_to step, which bounds the text held at once
_WRITE_ROWS = 8192


def _number_texts(vals: np.ndarray, missing_token: str) -> list[str]:
    """The text of each float: ``missing_token`` where NaN, integral values
    below 1e16 without the ".0", the others by ``repr``. Both forms parse
    back to the value, so distinct values get distinct texts."""
    whole = (vals == np.trunc(vals)) & (np.abs(vals) < 1e16)  # False at NaN
    other = ~whole & ~np.isnan(vals)
    texts = np.full(len(vals), missing_token, dtype=object)
    texts[whole] = list(map(str, vals[whole].astype(np.int64).tolist()))
    texts[other] = list(map(repr, vals[other].tolist()))
    return texts.tolist()


def _text_cells(c: Column, rows: slice, missing_token: str) -> list[str]:
    """The CSV text of the cells of a column in ``rows``."""
    if c.kind is Kind.CATEGORICAL:
        return np.array(c._labels + (missing_token,), dtype=object)[c._data[rows]].tolist()
    return _number_texts(c._data[rows], missing_token)


def _check_labels(t: Table, missing_set: frozenset) -> None:
    """Refuse a categorical value that would read back as missing or, having
    surrounding whitespace, trimmed."""
    for c in t.columns:
        if c.kind is Kind.CATEGORICAL:
            bad = [v for v in c._labels if v.strip().casefold() in missing_set]
            if bad:
                raise ValueError(f"column {c.name!r}: values {bad} would read back as missing")
            padded = [v for v in c._labels if v != v.strip()]
            if padded:
                raise ValueError(f"column {c.name!r}: values {padded} would read back trimmed")


def _write_rows(t: Table, fh, opts: CsvOptions) -> None:
    missing_token = opts.missing_tokens[0] if opts.missing_tokens else ""
    writer = csv.writer(fh, delimiter=opts.delimiter, lineterminator="\n")
    writer.writerow([c.name for c in t.columns])
    if not t.columns:
        writer.writerows(repeat((), t.row_count))
    for start in range(0, t.row_count, _WRITE_ROWS):
        rows = slice(start, start + _WRITE_ROWS)
        writer.writerows(zip(*(_text_cells(c, rows, missing_token) for c in t.columns)))


def write_csv_to(t: Table, fh, options: Optional[CsvOptions] = None) -> None:
    """Write CSV text for a Table to an open text stream.

    Missing cells are written as the first configured missing token.
    Lines end with "\\n" for stable bytes across platforms. Raises, before
    writing anything, on a categorical value that would read back as missing
    or, having surrounding whitespace, trimmed.
    """
    opts = options or CsvOptions()
    _check_labels(t, opts._missing_set())
    _write_rows(t, fh, opts)


def write_csv(t: Table, path: Union[str, Path], options: Optional[CsvOptions] = None) -> None:
    """Write a Table to a CSV file.

    ``read_csv`` gives back the same columns only where inference types each
    column's written text as it was typed and reading leaves its labels
    alone. It does not for a categorical column whose labels all read as
    numbers or as 0/1 (``["1", "2"]`` reads back numeric), a boolean column
    holding only one of 0 and 1 and not named in ``boolean_columns``
    (numeric), a numeric column holding exactly 0 and 1 (boolean), or an
    all-missing column (categorical). Labels that would read back as missing
    or trimmed are refused (see :func:`write_csv_to`) before the file is
    opened, so a refused write leaves an existing file as it was.
    """
    opts = options or CsvOptions()
    _check_labels(t, opts._missing_set())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write_rows(t, fh, opts)


def _did_you_mean(t: Table, names: Sequence[str]) -> str:
    """"; did you mean ...?" naming the one column that matches each of
    ``names`` under case folding, where exactly one does; else ""."""
    hints = []
    for name in names:
        matches = [c.name for c in t.columns if c.name.casefold() == name.casefold()]
        if len(matches) == 1:
            hints.append(repr(matches[0]))
    return f"; did you mean {', '.join(hints)}?" if hints else ""


def _check_known(t: Table, names: Sequence[str]) -> None:
    unknown = [n for n in names if not t.has_column(n)]
    if unknown:
        raise ValueError(f"unknown columns: {unknown}{_did_you_mean(t, unknown)}")


def drop_columns(t: Table, names: Sequence[str]) -> Table:
    """Table without the named columns; unknown names raise, listing them."""
    _check_known(t, names)
    drop = set(names)
    return t.with_columns(c for c in t.columns if c.name not in drop)


def select_columns(t: Table, names: Sequence[str]) -> Table:
    """Table restricted to the named columns, in the given order."""
    _check_known(t, names)
    return t.with_columns(t.column(n) for n in names)


def _take(c: Column, rows: np.ndarray) -> Column:
    if c.kind is Kind.CATEGORICAL:
        return Column.from_codes(c.name, c._data[rows], c._labels)
    return Column.from_floats(c.name, c.kind, c._data[rows], c._present_mask()[rows])


def filter_rows(t: Table, keep: Sequence[bool]) -> Table:
    """Table with only the rows where ``keep`` is True (outlier removal etc.)."""
    if len(keep) != t.row_count:
        raise ValueError(f"mask length {len(keep)} != row count {t.row_count}")
    rows = np.flatnonzero(np.fromiter(map(bool, keep), bool, len(keep)))
    return Table(t.name, tuple(_take(c, rows) for c in t.columns), len(rows))


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
    codes, labels = label_codes(c)
    counts = np.bincount(codes[codes >= 0], minlength=len(labels)).tolist()
    total = sum(counts)
    ordered = sorted(((k, n) for k, n in zip(labels, counts) if n), key=lambda kv: (-kv[1], kv[0]))
    return FrequencyTable(tuple(FreqRow(k, n, n / total) for k, n in ordered))
