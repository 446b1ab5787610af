import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from edakit import table
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
    numeric_values,
    numeric_with_mask,
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


class TestReadCsvOptions:
    def test_untrimmed_numeric_still_parses(self, tmp_path):
        t = read_csv(write_text(tmp_path, "a\n 1.5\n2 \n"))
        assert t.column("a").kind is Kind.NUMERIC
        assert t.column("a").values == (1.5, 2.0)

    @pytest.mark.parametrize("opts, expected", [(None, ("Ab", "cD", None))])
    def test_canonical_case(self, tmp_path, opts, expected):
        # Reading trims cells and keeps their case as written.
        src = write_text(tmp_path, "g,n\n Ab ,1\ncD,0\nNA,1\n")
        t = read_csv(src, opts)
        assert t.column("g").values == expected
        assert t.column("n").kind is Kind.BOOLEAN

    def test_padded_mixed_case_missing_tokens(self, tmp_path):
        src = write_text(tmp_path, "a,b\n  na ,x\n1,  Na\n N/A ,n/a\n")
        t = read_csv(src)
        assert t.column("a").missing == (True, False, False)
        assert t.column("a").kind is Kind.CATEGORICAL
        t = read_csv(src, CsvOptions(missing_tokens=(" N/a", "na")))
        assert t.column("a").missing == (True, False, True)
        assert t.column("a").kind is Kind.NUMERIC
        assert t.column("b").values == ("x", None, None)

    def test_configured_boolean_with_only_ones(self, tmp_path):
        src = write_text(tmp_path, "f,g\n1,1\n1,1\n,1\n")
        t = read_csv(src, CsvOptions(boolean_columns=("f",)))
        assert t.column("f").kind is Kind.BOOLEAN
        assert t.column("f").values == (1, 1, None)
        assert t.column("g").kind is Kind.NUMERIC
        assert t.column("g").values == (1.0, 1.0, 1.0)

    def test_all_missing_column_is_categorical(self, tmp_path):
        t = read_csv(write_text(tmp_path, "a,b\n,1\nNA,2\n na,3\n"))
        c = t.column("a")
        assert c.kind is Kind.CATEGORICAL
        assert c.values == (None, None, None)
        assert c.null_count == 3

    @pytest.mark.parametrize(
        "opts",
        [
            CsvOptions(),
            CsvOptions(boolean_columns=("f",)),
            CsvOptions(missing_tokens=("NA", "", "-")),
        ],
    )
    def test_infer_schema_matches_read_csv(self, tmp_path, opts):
        header = ["n", "f", "g", "e", "x"]
        rows = [
            ["1.5", "1", " Fr ", "", "x"],
            ["-", "1", "es", "NA", "2"],
            [" 2e3 ", "", "NA", " na ", "inf"],
            ["nan", "1", "-", "", "0"],
        ]
        text = "\n".join(",".join(r) for r in [header] + rows) + "\n"
        t = read_csv(write_text(tmp_path, text), opts)
        cols = [[r[j] for r in rows] for j in range(len(header))]
        assert infer_schema(header, cols, opts) == null_counts(t)


class TestReadKeep:
    """``read_csv(p, keep=...)`` equals the full read with the other columns
    dropped, for every subset of the header."""

    def check_subsets(self, path, opts=None):
        full = read_csv(path, opts)
        names = full.column_names
        for size in range(len(names) + 1):
            for subset in itertools.combinations(names, size):
                got = read_csv(path, opts, keep=set(subset).__contains__)
                assert got == select_columns(full, list(subset)), subset
                assert got == drop_columns(full, [n for n in names if n not in subset]), subset
        return full

    def test_missing_cells(self, tmp_path):
        full = self.check_subsets(write_text(tmp_path, "n,g,b,e\n1.5,x,0,\nNA,,1,NA\n-2, y ,,\n3,NA,1,\n"))
        assert [c.null_count for c in full.columns] == [1, 2, 1, 4]
        assert [c.kind for c in full.columns] == [Kind.NUMERIC, Kind.CATEGORICAL, Kind.BOOLEAN, Kind.CATEGORICAL]

    def test_bom_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + b"Age,City,Flag\n30,Paris,1\n41,Lyon,0\n")
        assert read_csv(path, keep={"Age"}.__contains__).column_names == ["Age"]
        self.check_subsets(path)

    def test_no_header(self, tmp_path):
        opts = CsvOptions(has_header=False)
        path = write_text(tmp_path, "1,a,0\n2,,1\n3,b,1\n")
        assert read_csv(path, opts, keep={"col1"}.__contains__).column("col1").values == ("a", None, "b")
        self.check_subsets(path, opts)

    def test_text_after_the_first_block(self, tmp_path, monkeypatch):
        # s and u hold numbers through the first block and text after it, so
        # the reader types them again from the file: only when kept, and then
        # only the kept ones
        n = table._READ_ROWS + 10
        lines = ["s,n,u,g"] + [f"{i},{i * 0.5},{-i},{'ab'[i % 2]}" for i in range(n)]
        lines[table._READ_ROWS + 4] = "late,1,text,a"
        path = write_text(tmp_path, "\n".join(lines) + "\n")
        full = self.check_subsets(path)
        assert [c.kind for c in full.columns] == [Kind.CATEGORICAL, Kind.NUMERIC, Kind.CATEGORICAL, Kind.CATEGORICAL]
        typed = []
        real = table._ColumnTyper

        def spy(name, *args):
            typed.append(name)
            return real(name, *args)

        monkeypatch.setattr(table, "_ColumnTyper", spy)
        read_csv(path, keep={"s", "n"}.__contains__)
        assert typed == ["s", "n", "s"]
        typed.clear()
        read_csv(path, keep={"n", "g"}.__contains__)
        assert typed == ["n", "g"]

    def test_no_column_kept(self, tmp_path):
        path = write_text(tmp_path, "a,b\n1,x\n2,y\n3,z\n", name="kept_rows.csv")
        t = read_csv(path, keep=lambda name: False)
        assert (t.name, t.columns, t.row_count) == ("kept_rows", (), 3)

    def test_short_row_in_an_unkept_column_names_its_line(self, tmp_path):
        path = write_text(tmp_path, "a,b,c\n1,2,3\n4,5\n6,7,8\n")
        with pytest.raises(ValueError, match=r"line 3: expected 3 fields, got 2$"):
            read_csv(path, keep={"a"}.__contains__)


class TestNumericArrays:
    def test_numeric_with_mask_on_boolean(self):
        vals, mask = numeric_with_mask(boolean_column("b", [0, None, 1]))
        assert vals.dtype == np.float64
        assert vals[0] == 0.0 and math.isnan(vals[1]) and vals[2] == 1.0
        assert mask.tolist() == [True, False, True]
        assert numeric_values(boolean_column("b", [0, None, 1])).tolist() == [0.0, 1.0]


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

    @pytest.mark.parametrize(
        "cells",
        [["1_000", "2"], ["\uff11\uff12", "3"], ["\u0663", "1"], ["inf", "1"], ["1e400"], ["-nan"]],
    )
    def test_numeric_grammar_rejects(self, cells):
        assert infer_schema(["c"], [cells]).entries[0].kind is Kind.CATEGORICAL

    def test_numeric_grammar_accepts(self):
        cells = ["7", "-2.5", "+.5", "5.", "1e3", "-1E-3"]
        assert infer_schema(["c"], [cells]).entries[0].kind is Kind.NUMERIC

    def test_underscored_cells_read_as_text(self, tmp_path):
        c = read_csv(write_text(tmp_path, "a\n1_000\n2\n")).column("a")
        assert (c.kind, c.values) == (Kind.CATEGORICAL, ("1_000", "2"))

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

    def test_case_folded_name_hinted_not_matched(self):
        t = Table("t", (numeric_column("Age", [1.0]), numeric_column("Ab", [2.0]), numeric_column("AB", [3.0])), 1)
        with pytest.raises(KeyError, match=r"no column named 'age'; did you mean 'Age'\?"):
            t.column("age")
        with pytest.raises(ValueError, match=r"unknown columns: \['age', 'x'\]; did you mean 'Age'\?$"):
            select_columns(t, ["age", "x"])
        with pytest.raises(ValueError, match=r"did you mean 'Age'\?"):
            drop_columns(t, ["AGE"])
        # no hint when no name, or more than one, matches under case folding
        for name in ("x", "ab"):
            with pytest.raises(KeyError) as err:
                t.column(name)
            assert "did you mean" not in str(err.value)

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
    @pytest.mark.parametrize(
        "kind, good, bad",
        [
            (Kind.NUMERIC, 1.0, float("nan")),
            (Kind.NUMERIC, 1.0, float("inf")),
            (Kind.NUMERIC, 1.0, float("-inf")),
            (Kind.NUMERIC, 1.0, 1),
            (Kind.BOOLEAN, 1, True),
            (Kind.BOOLEAN, 1, 2),
            (Kind.BOOLEAN, 1, 1.0),
            (Kind.CATEGORICAL, "x", ""),
            (Kind.CATEGORICAL, "x", 1),
        ],
        ids=[
            "numeric-nan", "numeric-inf", "numeric-neg-inf", "numeric-int",
            "boolean-true", "boolean-two", "boolean-float",
            "categorical-empty", "categorical-int",
        ],
    )
    def test_rejects_bad_cell_with_its_row(self, kind, good, bad):
        with pytest.raises(ValueError, match="row 1"):
            Column("a", kind, (good, bad))

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

    @pytest.mark.parametrize("label", ["NA", " na ", "Na"])
    def test_write_rejects_label_that_reads_as_missing(self, tmp_path, label):
        t = Table("t", (categorical_column("g", [label, "x", label]),), 3)
        out = tmp_path / "out.csv"
        out.write_bytes(b"kept\n1\n")
        with pytest.raises(ValueError, match=r"'g'.*'%s'" % label):
            write_csv(t, out)
        assert out.read_bytes() == b"kept\n1\n"  # refused before the file is opened

    @pytest.mark.parametrize("label", [" x", "x ", "\tx\n"])
    def test_write_rejects_label_that_reads_back_trimmed(self, tmp_path, label):
        t = Table("t", (categorical_column("g", [label, "y", None]),), 3)
        out = tmp_path / "out.csv"
        out.write_bytes(b"kept\n1\n")
        with pytest.raises(ValueError, match=re.escape(f"column 'g': values [{label!r}] would read back trimmed")):
            write_csv(t, out)
        assert out.read_bytes() == b"kept\n1\n"

    def test_write_checks_configured_missing_tokens(self, tmp_path):
        t = Table("t", (categorical_column("g", ["-", "NA"]),), 2)
        write_csv(t, tmp_path / "ok.csv", CsvOptions(missing_tokens=("",)))
        with pytest.raises(ValueError, match="'-'"):
            write_csv(t, tmp_path / "bad.csv", CsvOptions(missing_tokens=("", " - ")))

    def test_read_is_deterministic(self, tmp_path):
        src = write_text(tmp_path, "a,b\n1,x\n2,y\n")
        assert read_csv(src).columns == read_csv(src).columns
