import math

import pytest
from hypothesis import given, strategies as st

from edakit.table import (
    Column,
    CsvOptions,
    Kind,
    Table,
    boolean_column,
    categorical_column,
    drop_columns,
    filter_rows,
    infer_schema,
    null_counts,
    numeric_column,
    read_csv,
    select_columns,
    value_counts,
    write_csv,
)


def write_text(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestReadCsv:
    def test_basic_inference(self, tmp_path):
        t = read_csv(write_text(tmp_path, "a,b\n1,x\n2,y\n"))
        assert t.row_count == 2
        assert t.column("a").kind is Kind.NUMERIC
        assert t.column("b").kind is Kind.CATEGORICAL
        assert t.column("a").values == (1.0, 2.0)

    def test_empty_file_is_error(self, tmp_path):
        with pytest.raises(ValueError, match="no header"):
            read_csv(write_text(tmp_path, ""))

    def test_header_only(self, tmp_path):
        t = read_csv(write_text(tmp_path, "a,b\n"))
        assert t.row_count == 0
        assert t.column_names == ["a", "b"]

    def test_malformed_row_names_line(self, tmp_path):
        with pytest.raises(ValueError, match="line 3"):
            read_csv(write_text(tmp_path, "a,b\n1,2\n1,2,3\n"))

    def test_duplicate_header(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            read_csv(write_text(tmp_path, "a,a\n1,2\n"))

    def test_missing_tokens(self, tmp_path):
        t = read_csv(write_text(tmp_path, "a,b\n1,x\n,na\nNA,y\n"))
        assert t.column("a").missing == (False, True, True)
        assert t.column("b").missing == (False, True, False)

    def test_quoted_fields(self, tmp_path):
        t = read_csv(write_text(tmp_path, 'a,b\n1,"x,y"\n2,"say ""hi"""\n'))
        assert t.column("b").values == ("x,y", 'say "hi"')

    def test_no_header_option(self, tmp_path):
        t = read_csv(write_text(tmp_path, "1,2\n3,4\n"), CsvOptions(has_header=False))
        assert t.column_names == ["col0", "col1"]
        assert t.row_count == 2

    def test_semicolon_delimiter(self, tmp_path):
        t = read_csv(write_text(tmp_path, "a;b\n1;x\n"), CsvOptions(delimiter=";"))
        assert t.column("b").values == ("x",)

    def test_nan_text_is_not_numeric(self, tmp_path):
        t = read_csv(write_text(tmp_path, "a\nnan\n1\n"))
        assert t.column("a").kind is Kind.CATEGORICAL

    def test_utf8_bom_is_stripped(self, tmp_path, fixture_csv):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + fixture_csv.read_bytes())
        t = read_csv(bom)
        plain = read_csv(fixture_csv)
        assert t.column_names[0] == "RowNumber"
        assert (t.row_count, t.columns) == (plain.row_count, plain.columns)

    def test_missing_file(self):
        with pytest.raises(OSError):
            read_csv("/no/such/file.csv")


class TestInferSchema:
    def test_all_parse_numeric(self):
        s = infer_schema(["c"], [["1.5", "2"]])
        assert s.entries[0].kind is Kind.NUMERIC

    def test_binary_coding_is_boolean(self):
        s = infer_schema(["c"], [["0", "1", "0"]])
        assert s.entries[0].kind is Kind.BOOLEAN

    def test_text_is_categorical(self):
        s = infer_schema(["c"], [["France", "Spain"]])
        assert s.entries[0].kind is Kind.CATEGORICAL

    def test_single_binary_value_needs_configuration(self):
        assert infer_schema(["c"], [["0", "0"]]).entries[0].kind is Kind.NUMERIC
        opts = CsvOptions(boolean_columns=("c",))
        assert infer_schema(["c"], [["0", "0"]], opts).entries[0].kind is Kind.BOOLEAN

    def test_deterministic(self):
        cols = [["1", "x", "2"], ["0", "1", ""]]
        a = infer_schema(["p", "q"], cols)
        b = infer_schema(["p", "q"], cols)
        assert a == b


class TestDropSelectFilter:
    def make(self):
        return Table(
            "t",
            (
                numeric_column("a", [1, 2, 3]),
                categorical_column("b", ["x", "y", "z"]),
                boolean_column("c", [0, 1, 0]),
            ),
            3,
        )

    def test_drop_nothing_is_identity(self):
        t = self.make()
        assert drop_columns(t, []) == t

    def test_drop_keeps_row_count(self):
        t = drop_columns(self.make(), ["b"])
        assert t.row_count == 3
        assert t.column_names == ["a", "c"]

    def test_drop_unknown_lists_name(self):
        with pytest.raises(ValueError, match="Foo"):
            drop_columns(self.make(), ["Foo"])

    def test_original_unmodified(self):
        t = self.make()
        drop_columns(t, ["a"])
        assert t.column_names == ["a", "b", "c"]

    def test_select_order(self):
        t = select_columns(self.make(), ["c", "a"])
        assert t.column_names == ["c", "a"]

    def test_filter_rows(self):
        t = filter_rows(self.make(), [True, False, True])
        assert t.row_count == 2
        assert t.column("a").values == (1.0, 3.0)

    def test_filter_mask_length(self):
        with pytest.raises(ValueError, match="mask length"):
            filter_rows(self.make(), [True])


class TestNullCounts:
    def test_counts(self):
        t = Table("t", (numeric_column("a", [1, None, 3]),), 3)
        assert null_counts(t).entries[0].null_count == 1

    def test_no_missing(self):
        t = Table("t", (numeric_column("a", [1, 2]),), 2)
        assert [e.null_count for e in null_counts(t).entries] == [0]

    def test_empty_table(self):
        t = Table("t", (), 0)
        assert null_counts(t).entries == ()


class TestValueCounts:
    def test_basic(self):
        f = value_counts(categorical_column("g", ["F", "F", "S"]))
        assert [(r.label, r.count) for r in f.rows] == [("F", 2), ("S", 1)]

    def test_all_missing(self):
        f = value_counts(categorical_column("g", [None, None]))
        assert f.rows == ()

    def test_tie_breaks_by_label(self):
        f = value_counts(categorical_column("g", ["b", "a"]))
        assert [r.label for r in f.rows] == ["a", "b"]

    def test_numeric_rejected(self):
        with pytest.raises(ValueError, match="histogram"):
            value_counts(numeric_column("n", [1, 2]))

    def test_counts_sum_to_present(self):
        c = categorical_column("g", ["a", None, "b", "a", None])
        f = value_counts(c)
        assert sum(r.count for r in f.rows) == len(c) - c.null_count
        assert math.isclose(sum(r.proportion for r in f.rows), 1.0, abs_tol=1e-12)


class TestColumnInvariants:
    def test_numeric_rejects_nan(self):
        with pytest.raises(ValueError):
            Column("a", Kind.NUMERIC, (float("nan"),), (False,))

    def test_categorical_rejects_empty(self):
        with pytest.raises(ValueError):
            Column("a", Kind.CATEGORICAL, ("",), (False,))

    def test_boolean_rejects_two(self):
        with pytest.raises(ValueError):
            Column("a", Kind.BOOLEAN, (2,), (False,))

    def test_mask_value_consistency(self):
        with pytest.raises(ValueError):
            Column("a", Kind.NUMERIC, (1.0,), (True,))

    def test_table_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            Table("t", (numeric_column("a", [1]), numeric_column("a", [2])), 1)

    def test_table_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Table("t", (numeric_column("a", [1, 2]),), 3)


# hypothesis strategies for round-trip testing -------------------------------

_name = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6)
_label = (
    st.text(
        alphabet="abcxyz0189,\"'|; .", min_size=1, max_size=8
    )
    .map(str.strip)
    .filter(lambda s: s and s.casefold() != "na")
)
_num = st.one_of(
    st.none(),
    st.integers(-10**6, 10**6).map(float),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)


@st.composite
def tables(draw):
    n_rows = draw(st.integers(0, 8))
    names = draw(st.lists(_name, min_size=1, max_size=4, unique=True))
    cols = []
    for name in names:
        kind = draw(st.sampled_from(["num", "cat", "bool"]))
        if kind == "num":
            cells = draw(st.lists(_num, min_size=n_rows, max_size=n_rows))
            cols.append(numeric_column(name, cells))
        elif kind == "cat":
            cells = draw(st.lists(st.one_of(st.none(), _label), min_size=n_rows, max_size=n_rows))
            cols.append(categorical_column(name, cells))
        else:
            cells = draw(
                st.lists(st.one_of(st.none(), st.integers(0, 1)), min_size=n_rows, max_size=n_rows)
            )
            cols.append(boolean_column(name, cells))
    return Table("t", tuple(cols), n_rows)


class TestRoundTrip:
    @given(tables())
    def test_write_read_is_idempotent(self, t):
        """After one write/read pass, further passes change nothing."""
        import tempfile, os

        opts = CsvOptions(
            boolean_columns=tuple(c.name for c in t.columns if c.kind is Kind.BOOLEAN)
        )
        fd, path = tempfile.mkstemp(suffix=".csv")
        os.close(fd)
        try:
            write_csv(t, path, opts)
            t1 = read_csv(path, opts)
            write_csv(t1, path, opts)
            t2 = read_csv(path, opts)
            assert t1.columns == t2.columns
            assert t1.row_count == t2.row_count
        finally:
            os.unlink(path)

    def test_exact_round_trip_from_csv(self, tmp_path):
        src = write_text(tmp_path, "a,b,c\n1.5,x,0\n-2,y,1\nNA,,0\n")
        t1 = read_csv(src)
        out = tmp_path / "out.csv"
        write_csv(t1, out)
        t2 = read_csv(out)
        assert t1.columns == t2.columns

    def test_read_is_deterministic(self, tmp_path):
        src = write_text(tmp_path, "a,b\n1,x\n2,y\n")
        assert read_csv(src).columns == read_csv(src).columns
