import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from edakit.stats import (
    _centered,
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
from edakit.table import boolean_column, categorical_column, numeric_column

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
        # 0.1 three times has a computed mean one ulp above 0.1, which the mean keeps
        for values in ([5, 5, 5], [0.1, 0.1, 0.1]):
            s = summarize(col(values))
            assert s.mean == np.mean(values) and s.variance == 0 and s.std == 0
            assert s.skew_pearson == 0 and s.skew_moment == 0
            assert math.isnan(s.kurtosis_excess)
            assert s.kurtosis_class is None

    def test_insufficient_data(self):
        with pytest.raises(ValueError, match="insufficient"):
            summarize(col([1]))

    @pytest.mark.parametrize("values, has_moment_skew", [([1, 2], False), ([1, 2, 4], True), ([4, None, 1, 2], True)])
    def test_shape_fields_undefined_below_their_counts(self, values, has_moment_skew):
        s = summarize(col(values))
        assert math.isfinite(s.skew_pearson)
        assert math.isfinite(s.skew_moment) == has_moment_skew
        assert math.isnan(s.kurtosis_excess) and s.kurtosis_class is None

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


class TestCentered:
    @given(
        st.floats(allow_nan=False, allow_infinity=False, min_value=-1e150, max_value=1e150),
        st.integers(1, 300),
    )
    def test_constant_has_exactly_zero_deviations(self, v, n):
        mean, d, ss = _centered(np.full(n, v))
        assert mean == np.full(n, v).mean()
        assert ss == 0 and not d.any()

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=60))
    def test_keeps_the_two_pass_bits(self, xs):
        x = np.array(xs)
        mean, d, ss = _centered(x)
        if x.min() == x.max():
            return
        assert mean.tobytes() == np.mean(x).tobytes()
        assert d.tobytes() == (x - np.mean(x)).tobytes()
        assert ss.tobytes() == np.sum((x - np.mean(x)) ** 2).tobytes()

    def test_matrix_zeroes_only_its_constant_columns(self):
        x = np.array([[0.1, 0.0, 2.0], [0.1, 1.0, 2.0], [0.1, 4.0, 2.0]])
        mean, d, ss = _centered(x)
        assert mean.tobytes() == x.mean(axis=0).tobytes()
        assert ss[0] == 0 and ss[2] == 0 and ss[1] == np.sum((x[:, 1] - mean[1]) ** 2)
        assert not d[:, [0, 2]].any() and d[:, 1].tobytes() == (x[:, 1] - mean[1]).tobytes()


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
        for values, mode in (([2, 2], SkewMode.PEARSON_SECOND), ([2, 2, 2], SkewMode.MOMENT)):
            with pytest.raises(ValueError, match=r"^column 'v': undefined skewness \(zero std\)$"):
                skewness(col(values), mode)

    @pytest.mark.parametrize("values, mode", [
        ([2], SkewMode.PEARSON_SECOND), ([1, None], SkewMode.PEARSON_SECOND),
        ([1, 2], SkewMode.MOMENT), ([2, 2], SkewMode.MOMENT),
    ])
    def test_too_few_values_refused_before_zero_std(self, values, mode):
        with pytest.raises(ValueError, match=r"^column 'v': insufficient data for skewness$"):
            skewness(col(values), mode)

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
        for values in ([2, 2, 2], [1, 2, 3, None]):  # too few comes before zero std
            with pytest.raises(ValueError, match=r"^column 'v': kurtosis needs at least 4 values$"):
                kurtosis(col(values))

    def test_zero_std_rejected(self):
        with pytest.raises(ValueError, match=r"^column 'v': undefined kurtosis \(zero std\)$"):
            kurtosis(col([2, 2, 2, 2]))


@pytest.mark.parametrize("shape", [
    lambda c: skewness(c), lambda c: skewness(c, SkewMode.MOMENT), kurtosis, summarize,
], ids=["pearson2", "moment", "kurtosis", "summarize"])
def test_categorical_column_refused_first(shape):
    # one value: the kind error comes before the count's
    with pytest.raises(ValueError, match=r"^column 'g' is categorical, not numeric$"):
        shape(categorical_column("g", ["a"]))


def test_skewness_and_kurtosis_read_summarize():
    rng = np.random.default_rng(11)
    for n in (4, 5, 50, 1000):
        c = col(list(rng.lognormal(0, 1, n)))
        s = summarize(c)
        assert skewness(c) == s.skew_pearson
        assert skewness(c, SkewMode.MOMENT) == s.skew_moment
        assert kurtosis(c) == (s.kurtosis_excess, s.kurtosis_class)


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
        columns = [_random_column(rng) for _ in range(60)]
        # signed zeros and heavy ties: the mode's tie-break and its sign show here
        pool = [-0.0, 0.0, -1.0, 1.0, 2.5]
        columns += [rng.choice(pool, int(rng.integers(2, 30))).tolist() for _ in range(300)]
        for xs in columns:
            s = summarize(col(xs))
            mode = o_mode_smallest(xs)
            assert s.mode == mode and math.copysign(1.0, s.mode) == math.copysign(1.0, mode)
            if o_variance(xs) == 0:
                continue
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

    @given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=60), st.floats(0, 100))
    def test_percentile_matches_oracle(self, xs, p):
        assert math.isclose(
            percentile(col(xs), p), o_quantile(xs, p), rel_tol=1e-9, abs_tol=1e-12
        )


class _Sink:
    """A text stream that keeps only the count of characters and writes."""

    def __init__(self):
        self.chars = self.writes = 0

    def write(self, text):
        self.chars += len(text)
        self.writes += 1


class TestWriteJson:
    @pytest.mark.parametrize("payload", [
        {"nan": math.nan, "inf": [math.inf, -math.inf, 1.5], "tuple": (math.nan, 2)},
        {"list": [], "dict": {}, "nested": [[], {}, [[]]], "none": None},
        [], {}, math.nan, 1.5, "x", None,
        {"Überblick – ü": ["München", "€", "☃"], "kéy": {"é": True}},
        {"values": [i / 7 for i in range(30_000)], "rows": [{"n": i, "m": [i, -i]} for i in range(3_000)]},
    ])
    def test_bytes_equal_dumps(self, payload):
        import io
        import json

        from edakit.stats import _json_ready, _write_json

        out = io.StringIO()
        _write_json(payload, out)
        assert out.getvalue() == json.dumps(_json_ready(payload), indent=2) + "\n"

    def test_written_in_batches(self, monkeypatch):
        import json

        from edakit import stats

        payload = {"values": [0.5] * 1_000}
        chunks = len(list(json.JSONEncoder(indent=2).iterencode(payload)))
        monkeypatch.setattr(stats, "_JSON_CHUNKS", 100)
        sink = _Sink()
        stats._write_json(payload, sink)
        # one write per batch of chunks, then the newline
        assert chunks > 1_000
        assert sink.writes == math.ceil(chunks / 100) + 1

    def test_print_peaks_below_half_the_text(self):
        import contextlib
        import tracemalloc

        from edakit.cli import _print_json

        payload = {"values": [i / 7 for i in range(100_000)]}
        sink = _Sink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                _print_json(payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.chars > 2_000_000
        assert peak < sink.chars / 2
