import math

import numpy as np
import pytest

from edakit.timeseries import (
    acf,
    decompose_additive,
    difference,
    exp_smoothing,
    moving_average,
    pacf,
    series,
    stationarity_check,
)

from _oracles import o_decompose_additive, o_moving_average


def yule_walker_pacf(r, max_lag):
    """Independent oracle: solve the autocorrelation normal equations with a
    dense solver at each lag; pacf(h) is the last coefficient."""
    out = [1.0]
    for h in range(1, max_lag + 1):
        toeplitz = np.array([[r[abs(i - j)] for j in range(h)] for i in range(h)])
        rhs = np.array([r[i + 1] for i in range(h)])
        phi = np.linalg.solve(toeplitz, rhs)
        out.append(float(phi[-1]))
    return out


def regression_pacf(values, h):
    """Finite-sample check: last coefficient of an OLS fit of x_t on
    (1, x_{t-1}, ..., x_{t-h}). Differs from the Yule-Walker estimate by
    O(1/n), so comparisons use a loose tolerance."""
    x = np.asarray(values)
    n = len(x)
    rows = np.column_stack(
        [np.ones(n - h)] + [x[h - 1 - j : n - 1 - j] for j in range(h)]
    )
    beta, *_ = np.linalg.lstsq(rows, x[h:], rcond=None)
    return float(beta[-1])


class TestMovingAverage:
    def test_window_one_identity(self):
        s = series([3, 1, 4, 1])
        assert moving_average(s, 1).values.tolist() == s.values.tolist()

    def test_pairwise_means(self):
        assert moving_average(series([1, 3, 5]), 2).values.tolist() == [2.0, 4.0]

    def test_constant(self):
        assert moving_average(series([7, 7, 7, 7]), 3).values.tolist() == [7.0, 7.0]

    def test_window_out_of_range(self):
        with pytest.raises(ValueError):
            moving_average(series([1, 2]), 3)
        with pytest.raises(ValueError):
            moving_average(series([1, 2]), 0)


class TestExpSmoothing:
    def test_alpha_one_identity(self):
        s = series([2, 9, 4])
        assert exp_smoothing(s, 1.0).values.tolist() == s.values.tolist()

    def test_recurrence(self):
        assert exp_smoothing(series([2, 4]), 0.5).values.tolist() == [2.0, 3.0]

    def test_constant(self):
        assert exp_smoothing(series([5, 5, 5]), 0.3).values.tolist() == [5.0, 5.0, 5.0]

    def test_alpha_out_of_range(self):
        for alpha in (0.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                exp_smoothing(series([1, 2]), alpha)


class TestDifference:
    def test_lag_one(self):
        assert difference(series([1, 3, 6]), 1).values.tolist() == [2.0, 3.0]

    def test_linear_series_constant(self):
        s = series([3 + 2 * t for t in range(10)])
        assert difference(s, 1).values.tolist() == [2.0] * 9

    def test_constant_to_zeros(self):
        assert difference(series([4, 4, 4]), 1).values.tolist() == [0.0, 0.0]

    def test_lag_out_of_range(self):
        with pytest.raises(ValueError):
            difference(series([1, 2]), 2)


class TestAcf:
    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(1)
        s = series(list(rng.normal(0, 1, 50)))
        assert acf(s, 5)[0] == 1.0

    def test_alternating_example(self):
        s = series([1, -1, 1, -1, 1, -1])
        got = acf(s, 1)[1]
        assert math.isclose(got, -5 / 6, abs_tol=1e-12)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(2)
        s = series(list(np.cumsum(rng.normal(0, 1, 300))))
        for r in acf(s, 20):
            assert -1.0 - 1e-12 <= r <= 1.0 + 1e-12

    def test_constant_rejected(self):
        for values in ([2, 2, 2], [0.1, 0.1, 0.1]):  # the second's computed mean rounds off
            with pytest.raises(ValueError, match="zero variance"):
                acf(series(values), 1)

    def test_max_lag_bounds(self):
        with pytest.raises(ValueError):
            acf(series([1, 2, 3]), 3)


class TestPacf:
    def test_lag_one_equals_acf(self):
        rng = np.random.default_rng(3)
        s = series(list(rng.normal(0, 1, 100)))
        assert pacf(s, 1)[1] == acf(s, 1)[1]

    def test_matches_yule_walker_solve(self):
        rng = np.random.default_rng(4)
        # AR(2)-ish data so higher pacf lags are non-trivial
        e = rng.normal(0, 1, 400)
        x = np.zeros(400)
        for t in range(2, 400):
            x[t] = 0.6 * x[t - 1] - 0.3 * x[t - 2] + e[t]
        s = series(list(x))
        r = acf(s, 5)
        want = yule_walker_pacf(r, 5)
        got = pacf(s, 5)
        for g, w in zip(got, want):
            assert math.isclose(g, w, abs_tol=1e-6)

    def test_near_regression_estimate_at_scale(self):
        rng = np.random.default_rng(5)
        e = rng.normal(0, 1, 2000)
        x = np.zeros(2000)
        for t in range(1, 2000):
            x[t] = 0.7 * x[t - 1] + e[t]
        s = series(list(x))
        got = pacf(s, 4)
        for h in range(1, 5):
            assert abs(got[h] - regression_pacf(x, h)) < 0.05


class TestDecompose:
    def test_alternating_period_two(self):
        s = series([1.0, -1.0] * 6)
        d = decompose_additive(s, 2)
        interior = [v for v in d.trend.tolist() if not math.isnan(v)]
        assert np.allclose(interior, 0.0, atol=1e-12)
        assert d.seasonal[:2].tolist() == [1.0, -1.0]
        resid = [v for v in d.residual.tolist() if not math.isnan(v)]
        assert np.allclose(resid, 0.0, atol=1e-12)

    def test_linear_trend_no_seasonality(self):
        s = series([0.5 * t + 3 for t in range(30)])
        d = decompose_additive(s, 5)
        assert np.allclose(d.seasonal, 0.0, atol=1e-9)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(6)
        base = [0.2 * t + 5 * math.sin(2 * math.pi * t / 7) for t in range(60)]
        s = series([b + float(e) for b, e in zip(base, rng.normal(0, 0.5, 60))])
        d = decompose_additive(s, 7)
        for t, (tr, res) in enumerate(zip(d.trend, d.residual)):
            if math.isnan(tr):
                assert math.isnan(res)
                continue
            assert math.isclose(tr + d.seasonal[t] + res, s.values[t], abs_tol=1e-9)

    def test_seasonal_sums_to_zero_over_period(self):
        rng = np.random.default_rng(7)
        s = series(list(rng.normal(0, 1, 48)))
        for period in (3, 4, 6):
            d = decompose_additive(s, period)
            assert abs(sum(d.seasonal[:period])) < 1e-12

    def test_edges_marked_undefined(self):
        s = series(list(range(20)))
        d = decompose_additive(s, 4)
        assert math.isnan(d.trend[0]) and math.isnan(d.trend[1])
        assert math.isnan(d.trend[-1]) and math.isnan(d.trend[-2])
        assert not math.isnan(d.trend[2])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            decompose_additive(series([1, 2, 3]), 2)


class TestStationarity:
    def test_noise_is_stationary(self):
        rng = np.random.default_rng(8)
        s = series(list(5.0 + 0.1 * rng.normal(0, 1, 2000)))
        result = stationarity_check(s)
        assert result.stationary

    def test_strong_trend_is_not(self):
        s = series([float(t) for t in range(400)])
        result = stationarity_check(s)
        assert not result.stationary
        means = result.segment_means
        assert all(means[i] < means[i + 1] for i in range(len(means) - 1))

    def test_exactly_constant(self):
        # the two segments of five 0.1s have means 0.1 and 0.10000000000000002
        for values, segments in (([3.0] * 40, 4), ([0.1] * 5, 2)):
            result = stationarity_check(series(values), segments)
            assert result.stationary
            assert all(v == 0.0 for v in result.segment_variances)

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            stationarity_check(series([1, 2, 3]), segments=4)

    @pytest.mark.parametrize("rel_tol", [math.nan, -1.0])
    def test_nan_or_negative_tolerance_refused(self, rel_tol):
        with pytest.raises(ValueError, match="rel_tol must be >= 0"):
            stationarity_check(series([float(t) for t in range(40)]), rel_tol=rel_tol)

    def test_remainder_goes_to_last_segment(self):
        result = stationarity_check(series(list(range(11))), segments=4)
        assert len(result.segment_means) == 4
        # segments are 2+2+2+5 long; last mean covers indices 6..10
        assert result.segment_means[-1] == 8.0


def same_bits(got, want):
    """got (an array, NaN where undefined) holds want (a tuple, None where
    undefined) bit for bit."""
    want = np.array([math.nan if v is None else v for v in want], dtype=float)
    missing = np.isnan(want)
    assert np.array_equal(np.isnan(got), missing)
    assert got[~missing].tobytes() == want[~missing].tobytes()


def differential_inputs():
    """Series for the differential tests: wide-range noise, whose sums round
    differently under another summation order, and mixed signed zeros."""
    rng = np.random.default_rng(18)
    noise = rng.normal(0, 1, 600) * 10.0 ** rng.integers(-3, 6, 600)
    zeros = [0.0, -0.0] * 150  # phase 1 of period 2 detrends to -0.0 throughout
    mixed = rng.choice([0.0, -0.0, 1.5, -2.25], 600)
    return {"noise": list(noise), "zeros": zeros, "mixed": list(mixed)}


class TestAgainstTupleKernels:
    """The whole-array kernels give the bytes of the per-row loops they
    replaced (tests/_oracles.py), on both sides of numpy's pairwise-sum
    blocks (8 and 128 values)."""

    @pytest.mark.parametrize("window", [1, 7, 8, 9, 127, 128, 129])
    @pytest.mark.parametrize("name", ["noise", "zeros", "mixed"])
    def test_moving_average(self, name, window):
        values = differential_inputs()[name]
        got = moving_average(series(values), window).values
        same_bits(got, o_moving_average(tuple(values), window))

    @pytest.mark.parametrize("period", [2, 3, 4, 7, 8, 12, 129])
    @pytest.mark.parametrize("name", ["noise", "zeros", "mixed"])
    def test_decompose(self, name, period):
        values = differential_inputs()[name]
        for n in (len(values), 2 * period):
            d = decompose_additive(series(values[:n]), period)
            for got, want in zip((d.trend, d.seasonal, d.residual),
                                 o_decompose_additive(tuple(values[:n]), period)):
                same_bits(got, want)


class TestReadOnly:
    def test_series_copies_its_input(self):
        source = np.array([1.0, 2.0])
        s = series(source)
        source[0] = 9.0
        assert s.values.tolist() == [1.0, 2.0]

    def test_values_and_outputs_reject_writes(self):
        s = series([3, 1, 4, 1, 5])
        d = decompose_additive(s, 2)
        arrays = [
            series([1, 2]).values,
            moving_average(s, 2).values,
            exp_smoothing(s, 0.5).values,
            difference(s, 1).values,
            d.trend,
            d.seasonal,
            d.residual,
        ]
        for values in arrays:
            with pytest.raises(ValueError):
                values[0] = 0.0
