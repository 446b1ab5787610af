import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from edakit.stats import (
    AutoBins,
    BinCount,
    BinWidth,
    KurtosisClass,
    SkewMode,
    histogram,
    kurtosis,
    percentile,
    skewness,
    summarize,
)
from edakit.table import boolean_column, numeric_column

from _oracles import (
    o_kurtosis_excess,
    o_mean,
    o_median,
    o_mode_smallest,
    o_quantile,
    o_skew_moment,
    o_skew_pearson2,
    o_std,
    o_variance,
)


def col(values, name="v"):
    return numeric_column(name, values)


class TestSummarize:
    def test_mode_of_boolean_column_is_float(self):
        s = summarize(boolean_column("b", [1, 0, 1]))
        assert s.mode == 1.0 and type(s.mode) is float

    def test_mode_equal_floats_keep_first_seen(self):
        assert math.copysign(1.0, summarize(col([-0.0, 0.0, 5.0])).mode) == -1.0
        assert math.copysign(1.0, summarize(col([0.0, -0.0, 5.0])).mode) == 1.0

    def test_small_example(self):
        s = summarize(col([1, 2, 3, 4]))
        assert s.mean == 2.5
        assert s.median == 2.5
        assert math.isclose(s.variance, 5 / 3, rel_tol=1e-12)
        assert math.isclose(s.std, math.sqrt(5 / 3), rel_tol=1e-12)
        assert s.min == 1 and s.max == 4 and s.range == 3
        assert s.q1 == 1.75 and s.q3 == 3.25
        assert math.isclose(s.iqr, 1.5, rel_tol=1e-12)

    def test_constant_column_is_legal(self):
        s = summarize(col([5, 5, 5]))
        assert s.mean == 5 and s.variance == 0
        assert s.skew_pearson == 0 and s.skew_moment == 0
        assert math.isnan(s.kurtosis_excess)
        assert s.kurtosis_class is None

    def test_insufficient_data(self):
        with pytest.raises(ValueError, match="insufficient"):
            summarize(col([1]))

    def test_missing_excluded(self):
        s = summarize(col([1, None, 3]))
        assert s.count == 2 and s.n_missing == 1
        assert s.mean == 2

    def test_ordering_invariants(self):
        s = summarize(col([3, 1, 4, 1, 5, 9, 2, 6]))
        assert s.min <= s.q1 <= s.median <= s.q3 <= s.max
        assert s.range == s.max - s.min
        assert math.isclose(s.iqr, s.q3 - s.q1, rel_tol=1e-12)

    def test_sign_of_pearson_second_skew(self):
        s = summarize(col([1, 1, 1, 10]))
        assert (s.skew_pearson > 0) == (s.mean > s.median)

    def test_to_dict_field_names(self):
        d = summarize(col([1, 2, 3, 4])).to_dict()
        assert list(d) == [
            "count", "n_missing", "mean", "median", "mode", "min", "max",
            "range", "variance", "std", "q1", "q3", "iqr", "skew_pearson",
            "skew_moment", "kurtosis_excess", "kurtosis_class",
        ]


class TestPercentile:
    def test_median_interpolated(self):
        assert percentile(col([1, 2, 3, 4]), 50) == 2.5

    def test_boundaries(self):
        c = col([3, 1, 7])
        assert percentile(c, 0) == 1
        assert percentile(c, 100) == 7

    def test_h_exact_integer(self):
        assert percentile(col([1, 2, 3, 4, 100]), 25) == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            percentile(col([1, 2]), 101)

    def test_monotone_in_p(self):
        c = col([5, 3, 8, 1, 9, 2])
        values = [percentile(c, p) for p in range(0, 101, 5)]
        assert values == sorted(values)


class TestSkewness:
    def test_symmetric_is_zero(self):
        assert skewness(col([1, 2, 3])) == 0
        assert abs(skewness(col([1, 2, 3]), SkewMode.MOMENT)) < 1e-12

    def test_pearson_second_example(self):
        # mean 3.25, median 1, sample std 4.5
        assert math.isclose(skewness(col([1, 1, 1, 10])), 1.5, rel_tol=1e-12)

    def test_zero_std_rejected(self):
        with pytest.raises(ValueError, match="undefined skewness"):
            skewness(col([2, 2, 2]))

    def test_affine_invariance(self):
        base = [1.0, 2.0, 2.5, 7.0, 9.0]
        v0 = skewness(col(base))
        v1 = skewness(col([x + 100 for x in base]))
        v2 = skewness(col([3 * x for x in base]))
        assert math.isclose(v0, v1, rel_tol=1e-9)
        assert math.isclose(v0, v2, rel_tol=1e-9)


class TestKurtosis:
    def test_uniform_sample_platykurtic(self):
        rng = np.random.default_rng(42)
        excess, klass = kurtosis(col(rng.uniform(0, 1, 10000)))
        assert abs(excess - (-1.2)) < 0.1
        assert klass is KurtosisClass.PLATYKURTIC

    def test_normal_sample_mesokurtic(self):
        rng = np.random.default_rng(7)
        excess, klass = kurtosis(col(rng.standard_normal(100000)))
        assert klass is KurtosisClass.MESOKURTIC

    def test_heavy_tails_leptokurtic(self):
        rng = np.random.default_rng(3)
        values = list(rng.standard_normal(500)) + [25.0, -25.0]
        _, klass = kurtosis(col(values))
        assert klass is KurtosisClass.LEPTOKURTIC

    def test_needs_four_values(self):
        with pytest.raises(ValueError):
            kurtosis(col([1, 2, 3]))


class TestHistogram:
    def test_sturges_100(self):
        rng = np.random.default_rng(0)
        h = histogram(col(rng.uniform(0, 1, 100)))
        assert len(h.counts) == 8

    def test_last_bin_closed(self):
        h = histogram(col([0, 5, 10]), BinCount(2))
        assert h.counts == (1, 2)

    def test_partition_property(self):
        rng = np.random.default_rng(5)
        values = list(rng.normal(0, 3, 137)) + [None] * 9
        h = histogram(col(values), BinCount(11))
        assert sum(h.counts) == 137

    def test_width_rule(self):
        h = histogram(col([0.0, 1.0, 2.5]), BinWidth(1.0))
        assert h.edges[0] == 0.0
        assert h.edges[-1] >= 2.5
        assert sum(h.counts) == 3

    def test_constant_column_degenerate(self):
        h = histogram(col([4, 4, 4]))
        assert h.edges == (4.0, 4.0)
        assert h.counts == (3,)

    def test_auto_single_value(self):
        h = histogram(col([2.0]), AutoBins())
        assert sum(h.counts) == 1


def _random_column(rng):
    n = int(rng.integers(5, 120))
    style = int(rng.integers(0, 4))
    if style == 0:
        values = rng.uniform(-100, 100, n)
    elif style == 1:
        values = rng.normal(rng.uniform(-50, 50), rng.uniform(0.5, 20), n)
    elif style == 2:
        values = rng.exponential(rng.uniform(0.5, 10), n)
    else:
        values = rng.integers(-20, 20, n).astype(float)
    return [float(v) for v in values]


class TestOracleAgreement:
    """Spot-check against the naive oracles; the full 1000-column sweep is
    in the acceptance suite."""

    def test_fields_match_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            xs = _random_column(rng)
            if o_variance(xs) == 0:
                continue
            s = summarize(col(xs))
            checks = [
                (s.mean, o_mean(xs)),
                (s.median, o_median(xs)),
                (s.variance, o_variance(xs)),
                (s.std, o_std(xs)),
                (s.q1, o_quantile(xs, 25)),
                (s.q3, o_quantile(xs, 75)),
                (s.min, min(xs)),
                (s.max, max(xs)),
                (s.skew_pearson, o_skew_pearson2(xs)),
            ]
            if len(xs) >= 3:
                checks.append((s.skew_moment, o_skew_moment(xs)))
            if len(xs) >= 4:
                checks.append((s.kurtosis_excess, o_kurtosis_excess(xs)))
            for got, want in checks:
                assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
            assert s.mode == o_mode_smallest(xs)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=60), st.floats(0, 100))
    def test_percentile_matches_oracle(self, xs, p):
        assert math.isclose(
            percentile(col(xs), p), o_quantile(xs, p), rel_tol=1e-9, abs_tol=1e-12
        )
