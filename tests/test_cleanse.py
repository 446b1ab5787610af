import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from edakit.cleanse import (
    Constant,
    Edges,
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
    Quantile,
    Sqrt,
    ZScore,
    ZScoreStandardize,
    bin_column,
    detect_outliers,
    encode,
    handle_outliers,
    impute,
    transform,
)
from edakit.stats import AutoBins, BinCount, BinWidth, histogram
from edakit.table import (
    Kind,
    Table,
    boolean_column,
    categorical_column,
    filter_rows,
    numeric_column,
)

from _oracles import o_outlier_scan


def col(values, name="v"):
    return numeric_column(name, values)


class TestDetectOutliers:
    def test_iqr_textbook(self):
        rep = detect_outliers(col([1, 2, 3, 4, 100]), Iqr())
        assert rep.bounds == (-1.0, 7.0)
        assert rep.outlier_row_indices == (4,)

    def test_zscore_flags_single_spike(self):
        rep = detect_outliers(col([0] * 10 + [10]), ZScore())
        # sample std 3.0151, z(10) = 3.015 > 3
        assert rep.outlier_row_indices == (10,)

    def test_iqr_constant_no_outliers(self):
        rep = detect_outliers(col([5, 5, 5, 5]), Iqr())
        assert rep.outlier_row_indices == ()

    def test_zscore_zero_variance(self):
        for values in ([3, 3, 3], [0.1, 0.1, 0.1]):  # the second's computed mean rounds off
            with pytest.raises(ValueError, match="zero variance"):
                detect_outliers(col(values), ZScore())

    @pytest.mark.parametrize("k", [-1.0, math.nan, math.inf])
    def test_iqr_refuses_negative_or_non_finite_k(self, k):
        with pytest.raises(ValueError, match="IQR multiplier must be finite and >= 0"):
            Iqr(k)

    @pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan, math.inf])
    def test_zscore_refuses_non_positive_or_non_finite_threshold(self, threshold):
        with pytest.raises(ValueError, match="z-score threshold must be finite and > 0"):
            ZScore(threshold)

    def test_missing_never_flagged(self):
        rep = detect_outliers(col([1, 2, None, 3, 4, 100]), Iqr())
        assert 2 not in rep.outlier_row_indices
        assert rep.outlier_row_indices == (5,)

    def test_indices_strictly_increasing(self):
        rep = detect_outliers(col([100, 1, 2, 3, 4, -100]), Iqr())
        assert list(rep.outlier_row_indices) == sorted(set(rep.outlier_row_indices))

    @given(
        st.lists(st.floats(-1e4, 1e4), min_size=4, max_size=200),
        st.sampled_from(["iqr", "z"]),
    )
    def test_matches_brute_force_scan(self, xs, method_name):
        c = col(xs)
        method = Iqr() if method_name == "iqr" else ZScore()
        try:
            rep = detect_outliers(c, method)
        except ValueError:
            return  # zero variance under z-score
        lower, upper = rep.bounds
        assert list(rep.outlier_row_indices) == o_outlier_scan(
            c.values, c.missing, lower, upper
        )


class TestHandleOutliers:
    def rep(self, c):
        return detect_outliers(c, Iqr())

    def test_clip_to_fence(self):
        c = col([1, 2, 3, 4, 100])
        out = handle_outliers(c, self.rep(c), OutlierAction.CLIP)
        assert out.values == (1.0, 2.0, 3.0, 4.0, 7.0)

    def test_clip_noop_without_outliers(self):
        c = col([1, 2, 3, 4])
        out = handle_outliers(c, self.rep(c), OutlierAction.CLIP)
        assert out.values == c.values

    def test_clip_never_outside_bounds(self):
        c = col([-50, 1, 2, 3, 4, 5, 200])
        rep = self.rep(c)
        out = handle_outliers(c, rep, OutlierAction.CLIP)
        lo, hi = rep.bounds
        assert all(lo <= v <= hi for v in out.values)

    def test_flag_single_one(self):
        c = col([1, 2, 3, 4, 100])
        flag = handle_outliers(c, self.rep(c), OutlierAction.FLAG)
        assert flag.kind is Kind.BOOLEAN
        assert flag.values == (0, 0, 0, 0, 1)
        assert flag.name == "v_outlier"

    def test_remove_mask_applies_table_wide(self):
        c = col([1, 2, 3, 4, 100])
        keep = handle_outliers(c, self.rep(c), OutlierAction.REMOVE)
        t = Table("t", (c, categorical_column("g", list("abcde"))), 5)
        t2 = filter_rows(t, keep)
        assert t2.row_count == 4
        assert t2.column("g").values == ("a", "b", "c", "d")

    def test_stale_report_rejected(self):
        c = col([1, 2, 3, 4, 100])
        rep = self.rep(c)
        with pytest.raises(ValueError, match="stale"):
            handle_outliers(col([1, 2, 3]), rep, OutlierAction.CLIP)


class TestImpute:
    def test_mean(self):
        out = impute(col([1, None, 3]), Mean())
        assert out.values == (1.0, 2.0, 3.0)

    def test_identity_without_missing(self):
        c = col([1, 2, 3])
        assert impute(c, Mean()) is c

    def test_median(self):
        out = impute(col([1, None, 3, 100]), Median())
        assert out.values[1] == 3.0

    def test_mode_categorical_tie_breaks_low(self):
        out = impute(categorical_column("g", ["b", "a", None]), Mode())
        assert out.values[2] == "a"

    def test_mode_keeps_boolean_ints(self):
        out = impute(boolean_column("b", [1, None, 0, 1]), Mode())
        assert out.values == (1, 1, 0, 1) and type(out.values[1]) is int

    def test_constant_on_boolean(self):
        out = impute(boolean_column("b", [1, None]), Constant(0))
        assert out.values == (1, 0)

    @pytest.mark.parametrize("fill", [0.5, 1.9, -1, "0.5"], ids=["half", "1.9", "-1", "text"])
    def test_constant_on_boolean_refuses_other_than_0_or_1(self, fill):
        with pytest.raises(ValueError, match="boolean cell must be int 0 or 1"):
            impute(boolean_column("b", [1, None]), Constant(fill))

    def test_regression_textbook(self):
        t = Table(
            "t",
            (col([10, None, 30], "y"), col([1, 2, 3], "x")),
            3,
        )
        out = impute(t.column("y"), LinearRegression("x"), context=t)
        assert math.isclose(out.values[1], 20.0, rel_tol=1e-12)

    @pytest.mark.parametrize("x", [[2, 2, 2], [0.1, 0.1, 0.1]], ids=["exact_mean", "rounded_mean"])
    def test_regression_constant_predictor_rejected(self, x):
        # the three rows with y present hold x, whose mean rounds off for 0.1
        t = Table("t", (col([10, None, 30, 40], "y"), col(x[:1] + x, "x")), 4)
        with pytest.raises(ValueError, match="constant; OLS slope undefined"):
            impute(t.column("y"), LinearRegression("x"), context=t)

    def test_regression_needs_predictor_present(self):
        t = Table("t", (col([10, None], "y"), col([1, None], "x")), 2)
        with pytest.raises(ValueError, match="missing at row"):
            impute(t.column("y"), LinearRegression("x"), context=t)

    def test_all_missing_statistical_rejected(self):
        with pytest.raises(ValueError, match="entirely missing"):
            impute(col([None, None]), Mean())

    def test_mean_on_categorical_rejected(self):
        with pytest.raises(ValueError, match="numeric"):
            impute(categorical_column("g", ["a", None]), Mean())

    @given(st.lists(st.one_of(st.none(), st.floats(-1e6, 1e6)), min_size=1, max_size=50))
    def test_property_non_missing_unchanged_and_zero_nulls(self, cells):
        c = col(cells)
        if c.null_count == len(c):
            return
        for strategy in (Mean(), Median(), Mode(), Constant(7.0)):
            out = impute(c, strategy)
            assert out.null_count == 0
            for v, m, w in zip(c.values, c.missing, out.values):
                if not m:
                    assert v == w


class TestTransform:
    def test_log_identities(self):
        out = transform(col([1.0, math.e, math.e**2]), Log())
        assert np.allclose(out.values, [0, 1, 2])

    def test_log_rejects_nonpositive_naming_row(self):
        with pytest.raises(ValueError, match="row 1"):
            transform(col([1, 0, 2]), Log())

    def test_sqrt(self):
        out = transform(col([0, 4, 9]), Sqrt())
        assert out.values == (0.0, 2.0, 3.0)

    def test_minmax_maps_ends(self):
        out = transform(col([2, 4, 6]), MinMax(0, 1))
        assert out.values == (0.0, 0.5, 1.0)

    def test_minmax_constant_rejected(self):
        with pytest.raises(ValueError, match="zero range"):
            transform(col([3, 3]), MinMax(0, 1))

    def test_standardize_moments(self):
        out = transform(col([3, 1, 4, 1, 5, 9]), ZScoreStandardize())
        values = np.array(out.values)
        assert abs(values.mean()) < 1e-12
        assert math.isclose(values.std(ddof=1), 1.0, rel_tol=1e-12)

    @pytest.mark.parametrize("values", [[3, 3, None, 3], [0.1, 0.1, 0.1], [7]],
                             ids=["exact_mean", "rounded_mean", "single_value"])
    def test_standardize_constant_rejected(self, values):
        with pytest.raises(ValueError, match="zero variance, standardization undefined"):
            transform(col(values), ZScoreStandardize())

    def test_missing_stays_missing(self):
        out = transform(col([1, None, 3]), Sqrt())
        assert out.missing == (False, True, False)

    @given(
        st.lists(st.floats(-1e5, 1e5), min_size=2, max_size=40).filter(
            lambda xs: max(xs) > min(xs)
        )
    )
    def test_minmax_range_property(self, xs):
        out = transform(col(xs), MinMax(-2.0, 3.0))
        values = [v for v in out.values]
        assert math.isclose(min(values), -2.0, abs_tol=1e-9)
        assert math.isclose(max(values), 3.0, abs_tol=1e-9)
        assert all(-2.0 - 1e-9 <= v <= 3.0 + 1e-9 for v in values)


class TestEncode:
    def table(self):
        return Table(
            "t",
            (
                categorical_column("Geography", ["France", "Germany", "Spain", "France", None]),
                numeric_column("x", [1, 2, 3, 4, 5]),
            ),
            5,
        )

    def test_onehot_columns_and_row_sums(self):
        t = encode(self.table(), "Geography", EncodeKind.ONE_HOT)
        names = [c.name for c in t.columns]
        assert names == ["Geography=France", "Geography=Germany", "Geography=Spain", "x"]
        for i in range(4):
            total = sum(t.column(n).values[i] for n in names[:3])
            assert total == 1
        assert all(t.column(n).missing[4] for n in names[:3])

    def test_onehot_single_label(self):
        t = Table("t", (categorical_column("g", ["a", "a"]),), 2)
        out = encode(t, "g", EncodeKind.ONE_HOT)
        assert out.column("g=a").values == (1, 1)

    def test_label_codes_ascending(self):
        t = Table("t", (categorical_column("g", ["b", "a"]),), 2)
        out = encode(t, "g", EncodeKind.LABEL)
        assert out.column("g").values == (1.0, 0.0)
        assert out.column("g").kind is Kind.NUMERIC

    def test_non_categorical_rejected(self):
        with pytest.raises(ValueError, match="not categorical"):
            encode(self.table(), "x", EncodeKind.ONE_HOT)


class TestBin:
    def test_equal_width(self):
        out = bin_column(col([0, 5, 10]), EqualWidth(2))
        assert out.values == ("[0,5)", "[5,10]", "[5,10]")
        assert out.kind is Kind.CATEGORICAL

    def test_edges_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            bin_column(col([0.5, 2.0]), Edges((0.0, 1.0)))

    def test_nan_edge_refused(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Edges((0.0, math.nan, 1.0))

    def test_quantile_quartiles_even_split(self):
        out = bin_column(col(list(range(1, 9))), Quantile(4))
        counts = {}
        for v in out.values:
            counts[v] = counts.get(v, 0) + 1
        assert sorted(counts.values()) == [2, 2, 2, 2]

    def test_constant_single_bin(self):
        out = bin_column(col([7, 7]), EqualWidth(3))
        assert set(out.values) == {"[7,7]"}

    def test_every_value_assigned(self):
        rng = np.random.default_rng(11)
        xs = [float(v) for v in rng.normal(0, 5, 100)]
        out = bin_column(col(xs), EqualWidth(7))
        assert out.null_count == 0

    def test_close_edges_keep_distinct_labels(self):
        # "{:g}" printed the first two edges alike, which merged two bins
        out = bin_column(col([1e6, 1e6 + 3, 1e6 + 6, 1e6 + 10]), EqualWidth(4))
        assert out.values == (
            "[1000000,1000002.5)", "[1000002.5,1000005)", "[1000005,1000007.5)", "[1000007.5,1000010]"
        )


def _bin_of(label, edges):
    """Index of the histogram bin that a "[lo,hi)" label names."""
    lo, hi = map(float, label[1:-1].split(","))
    k = edges.index(lo)
    assert edges[k + 1] == hi
    assert (label[-1] == "]") == (k == len(edges) - 2)
    return k


BIN_RULES = [AutoBins(), BinCount(4), BinWidth(2.5), Quantile(3), Edges((-5.0, 0.0, 5.0, 10.0))]


@pytest.mark.parametrize("rule", BIN_RULES, ids=lambda r: type(r).__name__)
@pytest.mark.parametrize(
    "cells",
    [[3.5, None, -2.0, 7.25, 0.0, None, 7.25, 1.0, 4.0, -2.0], [4.0, None, 4.0]],
    ids=["missing_cells", "constant"],
)
def test_bin_column_follows_histogram(rule, cells):
    c = col(cells)
    h = histogram(c, rule)
    out = bin_column(c, rule)
    assert out.missing == c.missing
    bins = [_bin_of(label, h.edges) for label in out.values if label is not None]
    assert np.bincount(bins, minlength=len(h.counts)).tolist() == list(h.counts)


def test_edges_refuse_out_of_range_value_naming_the_column():
    c = col([0.5, None, 2.0], "Age")
    for binned in (histogram, bin_column):
        with pytest.raises(ValueError, match="column 'Age': value 2.0 outside explicit edges"):
            binned(c, Edges((0.0, 1.0)))
