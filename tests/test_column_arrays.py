"""Array-backed columns: the reader against the cell-by-cell oracle, the writer
against the per-cell number formatter and the committed fixture bytes, read-only
storage, first-pass CSV round trips, and the array ops against plain loops."""

import copy
import csv
import importlib.util
import io
import os
import pickle
import random
import sys
import tempfile
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from edakit.assoc import contingency
from edakit.cleanse import (
    Constant,
    EncodeKind,
    EqualWidth,
    Iqr,
    LinearRegression,
    Log,
    Mean,
    Median,
    MinMax,
    Mode,
    OutlierAction,
    Power,
    Product,
    Sqrt,
    ZScore,
    ZScoreStandardize,
    bin_column,
    detect_outliers,
    encode,
    engineer,
    handle_outliers,
    impute,
    transform,
)
from edakit.table import (
    Column,
    CsvOptions,
    Kind,
    Table,
    boolean_column,
    categorical_column,
    filter_rows,
    label_codes,
    numeric_column,
    numeric_with_mask,
    read_csv,
    value_counts,
    write_csv,
    write_csv_to,
)

from _oracles import o_format_numeric, o_read_csv_cells
from conftest import ROOT

# ---------------------------------------------------------------------------
# read_csv against the cell-by-cell reader

MISSING_LIKE = ["", " ", "NA", "na", " Na ", "N/A", " n/a", "-", " - "]
BOOLEAN_LIKE = ["0", "1", " 1 ", "0 "]
NUMBER_LIKE = [
    "1", "-2.5", "+.5", "5.", ".5", "1e3", "-1E-3", "-0.0", "0.0", "1e-400", "2",
    "1_000", "\uff11\uff12", "\u0663", "inf", "-inf", "Infinity", "nan", "1e400", "0x10", "1 000",
]
TEXT_LIKE = ["x", " x", "X ", "Ab", " aB ", "ß", "SS", "é", "a,b", 'say "hi"', "two\nlines", "\t1\t"]
POOLS = {
    "boolean": BOOLEAN_LIKE + MISSING_LIKE[:3],
    "numeric": NUMBER_LIKE[:11] + MISSING_LIKE[:4],
    "text": TEXT_LIKE + MISSING_LIKE,
    "any": MISSING_LIKE + BOOLEAN_LIKE + NUMBER_LIKE + TEXT_LIKE,
}
MISSING_TOKENS = [("", "NA"), ("NA",), (" N/a", "na"), ("", "-"), ()]


def random_csv(rng: random.Random) -> tuple[str, CsvOptions]:
    """A small CSV text and the options to read it with."""
    n_cols, n_rows = rng.randint(1, 4), rng.randint(0, 6)
    names = rng.sample("abcdef", n_cols)
    if rng.random() < 0.03:
        names[-1] = rng.choice(["", " ", names[0]])  # empty or duplicate header
    pools = [POOLS[rng.choice(list(POOLS))] for _ in range(n_cols)]
    rows = [[rng.choice(pool) for pool in pools] for _ in range(n_rows)]
    if rows and rng.random() < 0.05:
        victim = rng.choice(rows)
        victim.append("1") if rng.random() < 0.5 else victim.pop()
    has_header = rng.random() < 0.9
    effective = [n.strip() for n in names] if has_header else [f"col{i}" for i in range(n_cols)]
    opts = CsvOptions(
        delimiter=rng.choice([",", ";"]),
        has_header=has_header,
        missing_tokens=rng.choice(MISSING_TOKENS),
        boolean_columns=tuple(n for n in effective if rng.random() < 0.4),
        trim_whitespace=rng.random() < 0.7,
        canonical_case=rng.choice([None, "lower", "upper"]),
    )
    out = io.StringIO()
    writer = csv.writer(out, delimiter=opts.delimiter, lineterminator=rng.choice(["\n", "\r\n"]))
    writer.writerows(([names] if has_header else []) + rows)
    bom = "\ufeff" if rng.random() < 0.2 else ""
    return bom + out.getvalue(), opts


def read_cells(path, opts):
    try:
        return [(c.name, c.kind.value, c.values) for c in read_csv(path, opts).columns]
    except ValueError as exc:
        return str(exc)


def test_read_csv_matches_cell_reader(tmp_path):
    rng = random.Random(8)
    path = tmp_path / "fuzz.csv"
    seen = Counter()
    for case in range(2000):
        text, opts = random_csv(rng)
        path.write_bytes(text.encode("utf-8"))
        want = o_read_csv_cells(path, opts)
        got = read_cells(path, opts)
        # repr tells -0.0 from 0.0 and 1 from 1.0
        assert repr(got) == repr(want), (case, text, opts)
        if isinstance(want, str):
            seen["error"] += 1
        else:
            seen.update(kind for _, kind, _ in want)
    # every path of the reader was taken many times
    assert min(seen[k] for k in ("boolean", "numeric", "categorical", "error")) >= 50, seen


# ---------------------------------------------------------------------------
# read-only storage


def mixed_table():
    return Table(
        "t",
        (
            numeric_column("y", [1.0, None, 3.0, 4.0, 100.0, 6.0]),
            numeric_column("x", [1.0, 2.0, 3.0, 4.0, 5.0, 7.0]),
            categorical_column("g", ["b", "a", None, "b", "c", "a"]),
            boolean_column("f", [1, 0, None, 1, 1, 0]),
        ),
        6,
    )


def test_stored_arrays_are_read_only():
    t = mixed_table()
    for name in ("y", "f"):
        vals, mask = numeric_with_mask(t.column(name))
        with pytest.raises(ValueError):
            vals[0] = 9.0
        with pytest.raises(ValueError):
            mask[0] = False
    codes, _ = label_codes(t.column("g"))
    with pytest.raises(ValueError):
        codes[0] = 0
    with pytest.raises(AttributeError):
        t.column("g").name = "h"
    for c in t.columns:  # copies rebuild their arrays read-only
        for twin in (copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
            assert twin == c and not twin._data.flags.writeable


def test_array_constructors_check_their_input():
    with pytest.raises(ValueError, match="row 1: numeric cell must be a finite float"):
        Column.from_floats("x", Kind.NUMERIC, [1.0, float("inf"), float("nan")], [True, True, False])
    with pytest.raises(ValueError, match="row 2: boolean cell must be int 0 or 1"):
        Column.from_floats("b", Kind.BOOLEAN, [1.0, 7.0, 0.5], [True, False, True])
    with pytest.raises(ValueError, match="codes must lie in"):
        Column.from_codes("g", [0, -2], ["a"])
    with pytest.raises(ValueError, match="row 1: categorical cell must be non-empty text"):
        Column.from_codes("g", [1, 0, -1], ["", "a"])
    with pytest.raises(ValueError, match="column 'x': values and present must be 1-D and of equal length"):
        Column.from_floats("x", Kind.NUMERIC, [1.0, 2.0], True)
    with pytest.raises(ValueError, match="column 'x': values and present"):
        Column.from_floats("x", Kind.NUMERIC, [1.0, 2.0], [True])
    with pytest.raises(ValueError, match="column 'x': values and present"):
        Column.from_floats("x", Kind.NUMERIC, [[1.0], [2.0]], [[True], [True]])
    with pytest.raises(ValueError, match="column 'g': codes must be 1-D"):
        Column.from_codes("g", [[0]], ["a"])
    with pytest.raises(ValueError, match="column 'g': labels must be text"):
        Column.from_codes("g", [0], [1])
    # repeated, unused and unsorted labels collapse to the occurring ones, ascending
    c = Column.from_codes("g", [2, 0, -1, 3], ["b", "z", "a", "b"])
    assert c.values == ("a", "b", None, "b")
    assert label_codes(c)[1] == ("a", "b")


def test_write_holds_a_block_of_a_boolean_column_not_the_column():
    class Discard:
        def write(self, text):
            pass

    def write_peak(n):
        t = Table("t", (Column.from_floats("b", Kind.BOOLEAN, np.arange(n) % 2, np.arange(n) % 3 > 0),), n)
        tracemalloc.start()
        try:
            write_csv_to(t, Discard())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # converting the whole column for each block would grow with n (8n bytes
    # per int64 copy); one block's text is the same at both sizes
    small, large = write_peak(50_000), write_peak(200_000)
    assert large < 1.5 * small


def load_make_fixture():
    spec = importlib.util.spec_from_file_location("make_fixture", ROOT / "scripts" / "make_fixture.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fixture_tables_write_the_committed_bytes(tmp_path):
    fixture = load_make_fixture()
    t = fixture.build_fixture()
    for table, name in ((t, "churn_fixture.csv"), (fixture.blank_cells(t), "churn_fixture_blanks.csv")):
        write_csv(table, tmp_path / name)
        assert (tmp_path / name).read_bytes() == (ROOT / "data" / name).read_bytes(), name


SPECIAL_FLOATS = [
    0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 0.1, 1e-7, 123456789.0, 1e15 + 0.5,
    1e16, -1e16, np.nextafter(1e16, 0.0), -np.nextafter(1e16, 0.0), 2.0**53, 2.0**53 + 2,
    -(2.0**53 + 2), 9007199254740993.0, 1e300, 5e-324, -5e-324,
    sys.float_info.max, -sys.float_info.max, sys.float_info.min,
]


def test_numbers_written_as_the_per_cell_formatter():
    rng = np.random.default_rng(10)
    bits = rng.integers(0, 2**64, size=20_000, dtype=np.uint64, endpoint=False).view(np.float64)
    integral = np.trunc(rng.normal(0.0, 1.0, 20_000) * 10.0 ** rng.integers(0, 20, 20_000))
    values = np.concatenate([SPECIAL_FLOATS, bits[np.isfinite(bits)], integral])
    present = rng.random(len(values)) < 0.9
    present[: len(SPECIAL_FLOATS)] = True
    t = Table("t", (Column.from_floats("x", Kind.NUMERIC, values, present),), len(values))
    out = io.StringIO()
    write_csv_to(t, out)
    written = [row[0] for row in csv.reader(io.StringIO(out.getvalue()))][1:]
    want = [o_format_numeric(v) if p else "" for v, p in zip(values.tolist(), present.tolist())]
    assert written == want


def test_numeric_with_mask_does_not_copy():
    c = numeric_column("y", [1.0, None])
    assert numeric_with_mask(c)[0] is numeric_with_mask(c)[0]


def test_inputs_unchanged_by_every_operation():
    t = mixed_table()
    before = [c.values for c in t.columns]
    y, g = t.column("y"), t.column("g")
    report = detect_outliers(y, Iqr())
    detect_outliers(y, ZScore(1.0))
    for action in OutlierAction:
        handle_outliers(y, report, action)
    for strategy in (Mean(), Median(), Mode(), Constant(2.5)):
        impute(y, strategy)
    impute(y, LinearRegression("x"), context=t)
    impute(g, Mode())
    impute(g, Constant("z"))
    impute(t.column("f"), Constant(1))
    for kind in (Log(), Sqrt(), MinMax(), ZScoreStandardize()):
        transform(y, kind)
    for kind in EncodeKind:
        encode(t, "g", kind)
    bin_column(y, EqualWidth(3))
    engineer(t, [Product("x", "y"), Power("y", 2)])
    filter_rows(t, [True, False, True, False, True, True])
    assert [c.values for c in t.columns] == before
    assert repr([c.values for c in t.columns]) == repr(before)


# ---------------------------------------------------------------------------
# first-pass CSV round trip, outside the exceptions write_csv documents

_name = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6)
# a letter from "qxyz" keeps a label from reading as a number or as missing;
# no surrounding whitespace, so the default trimming leaves it alone
_label = st.builds(
    lambda head, letter, tail: (head + letter + tail).strip(),
    st.text(alphabet="abc019,\"'|; .\n", max_size=4),
    st.sampled_from("qxyzQXYZ"),
    st.text(alphabet="abc019,\"'|; .", max_size=4),
)
_num = st.one_of(
    st.integers(-10**6, 10**6).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _with_a_present_cell(cells):
    return any(v is not None for v in cells)


@st.composite
def round_trip_tables(draw):
    n_rows = draw(st.integers(1, 8))
    names = draw(st.lists(_name, min_size=1, max_size=4, unique=True))
    cols = []
    for name in names:
        kind = draw(st.sampled_from(["num", "cat", "bool"]))
        size = {"min_size": n_rows, "max_size": n_rows}
        if kind == "num":
            cells = draw(st.lists(st.one_of(st.none(), _num), **size).filter(_with_a_present_cell))
            present = {v for v in cells if v is not None}
            if present <= {0.0, 1.0} and len(present) == 2:
                cells[cells.index(0.0)] = 2.0  # exactly 0 and 1 would read back boolean
            cols.append(numeric_column(name, cells))
        elif kind == "cat":
            cells = draw(st.lists(st.one_of(st.none(), _label), **size).filter(_with_a_present_cell))
            cols.append(categorical_column(name, cells))
        else:
            cells = draw(st.lists(st.one_of(st.none(), st.integers(0, 1)), **size).filter(_with_a_present_cell))
            cols.append(boolean_column(name, cells))
    return Table("t", tuple(cols), n_rows)


class TestFirstPassRoundTrip:
    @given(round_trip_tables())
    def test_read_gives_back_kinds_and_values(self, t):
        opts = CsvOptions(boolean_columns=tuple(c.name for c in t.columns if c.kind is Kind.BOOLEAN))
        fd, path = tempfile.mkstemp(suffix=".csv")
        os.close(fd)
        try:
            write_csv(t, path, opts)
            back = read_csv(path, opts)
        finally:
            os.unlink(path)
        assert back.row_count == t.row_count
        assert [(c.name, c.kind, c.values) for c in back.columns] == [
            (c.name, c.kind, c.values) for c in t.columns
        ]

    @pytest.mark.xfail(strict=True, reason="documented write_csv exception: numeric-looking labels read back numeric")
    def test_numeric_looking_labels_stay_categorical(self, tmp_path):
        t = Table("t", (categorical_column("g", ["1", "2", None]),), 3)
        write_csv(t, tmp_path / "g.csv")
        assert read_csv(tmp_path / "g.csv").column("g").kind is Kind.CATEGORICAL


# ---------------------------------------------------------------------------
# whole-array operations against plain loops


def random_labels(rng, n, pool):
    return [None if rng.random() < 0.2 else rng.choice(pool) for _ in range(n)]


def test_counts_and_filters_match_loops():
    rng = random.Random(81)
    for _ in range(300):
        n = rng.randint(0, 12)
        g = categorical_column("g", random_labels(rng, n, ["b", "a", "B", "é", "10", "9"]))
        f = boolean_column("f", random_labels(rng, n, [0, 1]))
        x = numeric_column("x", random_labels(rng, n, [0.5, -0.0, 0.0, 2.0]))
        for c in (g, f):
            cells = Counter(str(v) for v in c.values if v is not None)
            want = sorted(cells.items(), key=lambda kv: (-kv[1], kv[0]))
            assert [(r.label, r.count) for r in value_counts(c).rows] == want
        pairs = [(str(a), str(b)) for a, b in zip(g.values, f.values) if a is not None and b is not None]
        ct = contingency(g, f)
        assert ct.row_labels == tuple(sorted({a for a, _ in pairs}))
        assert ct.col_labels == tuple(sorted({b for _, b in pairs}))
        tally = Counter(pairs)
        assert ct.counts == tuple(
            tuple(tally[(a, b)] for b in ct.col_labels) for a in ct.row_labels
        )
        keep = [rng.random() < 0.5 for _ in range(n)]
        kept = filter_rows(Table("t", (g, f, x), n), keep)
        for before, after in zip((g, f, x), kept.columns):
            want = tuple(v for v, k in zip(before.values, keep) if k)
            assert repr(after.values) == repr(want)
            assert after == Column(before.name, before.kind, want)
