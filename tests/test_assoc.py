import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from edakit.assoc import (
    CorrMethod,
    average_ranks,
    contingency,
    correlation_matrix,
    covariance,
    kendall_tau,
    pearson,
    phi,
    point_biserial,
    spearman,
)
from edakit.table import Table, boolean_column, categorical_column, numeric_column, read_csv

from _oracles import (
    o_average_ranks,
    o_kendall_pairloop,
    o_kendall_tau_b,
    o_pearson,
    o_variance,
)

from conftest import ROOT


def ncol(values, name="v"):
    return numeric_column(name, values)


class TestCovariance:
    def test_cov_self_is_variance(self):
        xs = [3.0, 1.0, 4.0, 1.0, 5.0]
        c = ncol(xs)
        assert math.isclose(covariance(c, c), o_variance(xs), rel_tol=1e-12)

    def test_antithetic(self):
        assert covariance(ncol([1, 2, 3]), ncol([3, 2, 1])) == -1.0

    def test_constant_gives_zero(self):
        for const in ([5, 5, 5], [0.1, 0.1, 0.1]):  # the second's computed mean rounds off
            assert covariance(ncol([0, 1, 4]), ncol(const)) == 0.0

    def test_pairwise_deletion(self):
        x = ncol([1, 2, None, 4])
        y = ncol([2, None, 6, 8])
        # joint rows are 0 and 3: deviations (-1.5, 1.5) and (-3, 3), ddof=1
        assert math.isclose(covariance(x, y), 9.0, rel_tol=1e-12)

    def test_too_few_pairs(self):
        with pytest.raises(ValueError, match="pairs"):
            covariance(ncol([1, None]), ncol([None, 2]))


class TestPearson:
    def test_exact_linearity(self):
        assert pearson(ncol([1, 2, 3]), ncol([2, 4, 6])) == 1.0

    def test_sign_flip(self):
        assert pearson(ncol([1, 2, 3]), ncol([-1, -2, -3])) == -1.0

    def test_constant_rejected(self):
        for const in ([5, 5, 5], [0.1, 0.1, 0.1]):  # the second's computed mean rounds off
            with pytest.raises(ValueError, match="undefined correlation"):
                pearson(ncol([0, 1, 4]), ncol(const))
            m = correlation_matrix(Table("t", (ncol(const, "a"), ncol([0, 1, 4], "b")), 3))
            assert m.cell("a", "b") is None and m.cell("a", "a") is None and m.cell("b", "b") == 1.0

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            xs = rng.normal(0, 1, 10)
            r = pearson(ncol(list(xs)), ncol(list(2 * xs + 1e-9 * rng.normal(0, 1, 10))))
            assert -1.0 <= r <= 1.0

    def test_affine_invariance(self):
        xs = [1.0, 2.0, 5.0, 7.0]
        ys = [2.0, 1.0, 4.0, 9.0]
        r0 = pearson(ncol(xs), ncol(ys))
        r1 = pearson(ncol([3 * x + 10 for x in xs]), ncol(ys))
        assert math.isclose(r0, r1, rel_tol=1e-12)


class TestSpearman:
    def test_monotone_cubic(self):
        x = ncol([-2, -1, 0, 1, 2])
        y = ncol([v**3 for v in (-2, -1, 0, 1, 2)])
        assert spearman(x, y) == 1.0

    def test_tied_example(self):
        r = spearman(ncol([1, 2, 2, 3]), ncol([1, 2, 3, 4]))
        assert math.isclose(r, 0.9486832980505138, rel_tol=1e-9)

    def test_self_correlation(self):
        c = ncol([3, 1, 2])
        assert spearman(c, c) == 1.0

    @given(
        st.lists(st.floats(-10, 10), min_size=3, max_size=80).filter(
            lambda xs: len(set(xs)) > 1
        ),
        st.randoms(use_true_random=False),
    )
    def test_equals_pearson_on_ranks(self, xs, rnd):
        ys = [rnd.choice(xs) + rnd.random() for _ in xs]
        if len(set(ys)) < 2:
            return
        got = spearman(ncol(xs), ncol(ys))
        want = o_pearson(o_average_ranks(xs), o_average_ranks(ys))
        assert math.isclose(got, want, abs_tol=1e-12)


class TestAverageRanks:
    @pytest.mark.parametrize(
        "xs",
        [
            [2.0, 2.0, 2.0, 2.0],
            [3.0, -1.0, 2.5, 0.0, 7.0],
            [5.0],
            [0.0, -0.0, 1.0],
            [float(v) for v in np.random.default_rng(4).integers(0, 5, 60)],
        ],
        ids=["all_tied", "no_ties", "one_element", "signed_zeros", "heavy_ties"],
    )
    def test_matches_oracle_bytes(self, xs):
        want = np.array(o_average_ranks(xs), dtype=float)
        assert average_ranks(np.array(xs)).tobytes() == want.tobytes()


class TestKendall:
    def test_three_point_example(self):
        got = kendall_tau(ncol([1, 2, 3]), ncol([1, 3, 2]))
        assert got == (2 - 1) / 3

    def test_concordant(self):
        assert kendall_tau(ncol([1, 2, 3, 4]), ncol([10, 20, 30, 40])) == 1.0

    def test_reversal(self):
        assert kendall_tau(ncol([1, 2, 3, 4]), ncol([4, 3, 2, 1])) == -1.0

    def test_all_tied_rejected(self):
        with pytest.raises(ValueError, match="tied"):
            kendall_tau(ncol([1, 1, 1]), ncol([1, 2, 3]))

    @given(
        st.lists(st.integers(-5, 5), min_size=2, max_size=60).filter(
            lambda xs: len(set(xs)) > 1
        ),
        st.lists(st.integers(-5, 5), min_size=60, max_size=60).filter(
            lambda xs: len(set(xs)) > 1
        ),
    )
    def test_matches_pair_count_oracle_exactly(self, xs, ys_pool):
        ys = ys_pool[: len(xs)]
        if len(set(ys)) < 2:
            return
        got = kendall_tau(ncol(xs), ncol([float(y) for y in ys]))
        want = o_kendall_tau_b([float(x) for x in xs], [float(y) for y in ys])
        assert got == want

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(5)
        xs = list(rng.normal(0, 1, 40))
        ys = list(rng.normal(0, 1, 40))
        t0 = kendall_tau(ncol(xs), ncol(ys))
        t1 = kendall_tau(ncol([math.exp(x) for x in xs]), ncol(ys))
        assert math.isclose(t0, t1, abs_tol=1e-15)


def kendall_outcome(kernel, xs, ys):
    """float.hex of the coefficient, or the ValueError message."""
    try:
        return kernel(xs, ys).hex()
    except ValueError as e:
        return str(e)


class TestKendallMatchesPairLoop:
    # Knight's method against the earlier per-row pair loop, bit for bit

    def check(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        got = kendall_outcome(lambda a, b: kendall_tau(ncol(list(a)), ncol(list(b))), xs, ys)
        assert got == kendall_outcome(o_kendall_pairloop, xs, ys)

    @pytest.mark.parametrize("seed", range(20))
    def test_integer_ties(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 200))
        span = int(rng.integers(2, 8))
        self.check(rng.integers(-span, span, n), rng.integers(-span, span, n))

    @pytest.mark.parametrize("seed", range(20))
    def test_rounded_gaussians(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 300))
        xs = np.round(rng.normal(0, 1, n), 1)
        self.check(xs, np.round(xs + rng.normal(0, 1, n), 1))

    @pytest.mark.parametrize("seed", range(10))
    def test_signed_zero_mixes(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 60))
        self.check(rng.choice([0.0, -0.0, 1.0], n), rng.choice([0.0, -0.0, 1.0], n))

    @pytest.mark.parametrize("xs, ys", [
        ([0, 1], [0, 1]),
        ([0, 1], [1, 0]),
        ([1, 0], [0, 1]),
        ([0.0, -0.0], [0, 1]),
        ([0, 1], [5, 5]),
    ])
    def test_two_pairs(self, xs, ys):
        self.check(xs, ys)

    @pytest.mark.parametrize("seed", range(3))
    def test_two_thousand_rows(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = 2000 + seed
        xs = np.round(rng.normal(650, 96, n))
        ys = np.round(rng.normal(39, 10, n)) if seed else rng.normal(0, 1, n)
        self.check(xs, ys)

    @pytest.mark.parametrize("xs, ys", [
        ([2, 2, 2], [1, 2, 3]),
        ([1, 2, 3], [0.0, -0.0, 0.0]),
        ([4, 4], [4, 4]),
        ([1], [2]),
    ])
    def test_same_error_when_undefined(self, xs, ys):
        with pytest.raises(ValueError):
            kendall_tau(ncol(xs), ncol(ys))
        self.check(xs, ys)


class TestPointBiserial:
    def test_example(self):
        r = point_biserial(boolean_column("b", [0, 0, 1, 1]), ncol([1, 2, 3, 4]))
        assert math.isclose(r, 0.8944271909999159, rel_tol=1e-9)

    def test_no_separation(self):
        r = point_biserial(boolean_column("b", [0, 1, 0, 1]), ncol([1, 1, 2, 2]))
        assert abs(r) < 1e-12

    def test_perfect_separation(self):
        assert point_biserial(boolean_column("b", [0, 1]), ncol([0, 1])) == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="single class"):
            point_biserial(boolean_column("b", [1, 1, 1]), ncol([1, 2, 3]))

    def test_equals_pearson_on_coding(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            b = [int(v) for v in rng.integers(0, 2, 25)]
            if len(set(b)) < 2:
                continue
            y = list(rng.normal(0, 3, 25))
            got = point_biserial(boolean_column("b", b), ncol(y))
            want = o_pearson([float(v) for v in b], y)
            assert math.isclose(got, want, abs_tol=1e-12)


class TestPhi:
    def test_perfect_association(self):
        a = boolean_column("a", [1] * 10 + [0] * 10)
        assert phi(a, a) == 1.0

    def test_independence(self):
        a = boolean_column("a", [1, 1, 0, 0] * 5)
        b = boolean_column("b", [1, 0, 1, 0] * 5)
        assert phi(a, b) == 0.0

    def test_zero_marginal_rejected(self):
        with pytest.raises(ValueError, match="marginal"):
            phi(boolean_column("a", [1, 1]), boolean_column("b", [0, 1]))

    def test_equals_pearson_on_codings(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            a = [int(v) for v in rng.integers(0, 2, 30)]
            b = [int(v) for v in rng.integers(0, 2, 30)]
            if len(set(a)) < 2 or len(set(b)) < 2:
                continue
            got = phi(boolean_column("a", a), boolean_column("b", b))
            want = o_pearson([float(v) for v in a], [float(v) for v in b])
            assert math.isclose(got, want, abs_tol=1e-12)


class TestContingency:
    def test_tally(self):
        a = boolean_column("a", [0, 0, 1])
        b = categorical_column("b", ["x", "y", "x"])
        ct = contingency(a, b)
        assert ct.row_labels == ("0", "1")
        assert ct.col_labels == ("x", "y")
        assert ct.counts == ((1, 1), (1, 0))

    def test_disjoint_missing(self):
        a = categorical_column("a", ["x", None])
        b = categorical_column("b", [None, "y"])
        ct = contingency(a, b)
        assert ct.total == 0

    def test_total_is_joint_present(self):
        a = categorical_column("a", ["x", "y", None, "x"])
        b = categorical_column("b", ["p", None, "q", "p"])
        assert contingency(a, b).total == 2

    def test_numeric_rejected(self):
        with pytest.raises(ValueError, match="numeric"):
            contingency(ncol([1, 2]), categorical_column("b", ["x", "y"]))


class TestCorrelationMatrix:
    def test_collinear_columns_all_ones(self):
        t = Table("t", (ncol([1, 2, 3], "x"), ncol([2, 4, 6], "y")), 3)
        m = correlation_matrix(t)
        assert all(v == 1.0 for row in m.values for v in row)

    def test_white_noise_off_diagonals_small(self):
        rng = np.random.default_rng(77)
        cols = tuple(
            ncol(list(rng.normal(0, 1, 1000)), f"c{i}") for i in range(4)
        )
        m = correlation_matrix(Table("t", cols, 1000))
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert abs(m.values[i][j]) < 0.1

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(3)
        cols = tuple(ncol(list(rng.normal(0, 1, 50)), f"c{i}") for i in range(3))
        m = correlation_matrix(Table("t", cols, 50))
        for i in range(3):
            assert m.values[i][i] == 1.0
            for j in range(3):
                assert m.values[i][j] == m.values[j][i]

    def test_undefined_marked_none(self):
        t = Table("t", (ncol([1, 2, 3], "x"), ncol([5, 5, 5], "const")), 3)
        m = correlation_matrix(t)
        assert m.cell("x", "const") is None
        assert m.cell("const", "const") is None
        assert m.cell("x", "x") == 1.0

    def test_matches_pairwise_calls(self):
        rng = np.random.default_rng(21)
        cols = tuple(ncol(list(rng.normal(0, 2, 40)), f"c{i}") for i in range(3))
        t = Table("t", cols, 40)
        for method, fn in (
            (CorrMethod.PEARSON, pearson),
            (CorrMethod.SPEARMAN, spearman),
            (CorrMethod.KENDALL, kendall_tau),
        ):
            m = correlation_matrix(t, method)
            assert m.values[0][1] == fn(cols[0], cols[1])

    @pytest.mark.parametrize("method, fn", [
        (CorrMethod.PEARSON, pearson),
        (CorrMethod.SPEARMAN, spearman),
        (CorrMethod.KENDALL, kendall_tau),
    ])
    def test_every_cell_is_the_pairwise_call(self, method, fn):
        small = Table(
            "t",
            (
                ncol([1, 2, 3, 4, 5, 6], "x"),
                ncol([7, 7, 7, 7, 7, 7], "const"),
                ncol([None, None, 3, None, None, None], "single"),
                ncol([2, None, 1, 8, 8, 4], "gappy"),
                boolean_column("b", [0, 1, None, 1, 0, 1]),
            ),
            6,
        )
        for t in (read_csv(ROOT / "data" / "churn_fixture_blanks.csv"), small):
            m = correlation_matrix(t, method)
            cols = [t.column(name) for name in m.labels]
            for i, x in enumerate(cols):
                for j, y in enumerate(cols):
                    try:
                        want = fn(x, y)
                    except ValueError:
                        want = None
                    assert m.values[i][j] == want, (x.name, y.name)

    def test_boolean_columns_participate(self):
        t = Table(
            "t",
            (ncol([1, 2, 3, 4], "x"), boolean_column("b", [0, 0, 1, 1])),
            4,
        )
        m = correlation_matrix(t)
        assert m.labels == ("x", "b")
        assert m.values[0][1] is not None

    def test_needs_two_numeric(self):
        t = Table("t", (ncol([1, 2], "x"), categorical_column("g", ["a", "b"])), 2)
        with pytest.raises(ValueError, match=">= 2"):
            correlation_matrix(t)

    def test_json_round_trip_shape(self):
        t = Table("t", (ncol([1, 2, 3], "x"), ncol([5, 5, 5], "c")), 3)
        d = correlation_matrix(t).to_dict()
        assert d["values"][0][1] is None
        assert d["labels"] == ["x", "c"]
