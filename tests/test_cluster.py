import functools
import json
import math
import operator
import tracemalloc

import numpy as np
import pytest

from edakit.cluster import (
    Linkage,
    _cholesky,
    _log_gaussian,
    _sq,
    agglomerative,
    cut,
    dbscan,
    gmm,
    gmm_predict,
    kmeans,
)
from edakit.pca import fit_pca, transform_pca
from edakit.table import numeric_values, read_csv

from _oracles import o_agglomerative, o_agglomerative_scan, o_cut, o_dbscan_lists


def blobs(seed, centers, n_per=20, spread=0.3):
    rng = np.random.default_rng(seed)
    parts = [rng.normal(c, spread, (n_per, len(c))) for c in centers]
    return np.vstack(parts)


TOY = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def balance_age(n, zero_share=0.3, seed=0):
    """The churn table's Balance,Age shape: Balance is 0 for about
    zero_share of the rows and uniform on [20000, 200000] otherwise."""
    rng = np.random.default_rng(seed)
    balance = np.where(rng.random(n) < zero_share, 0.0, np.round(20000 + 180000 * rng.random(n), 2))
    age = np.maximum(18.0, np.round(rng.normal(39, 10, n)))
    return np.column_stack([balance, age])


class TestKMeans:
    def test_toy_two_clusters(self):
        r = kmeans(TOY, 2, seed=7)
        assert math.isclose(r.inertia, 1.0, abs_tol=1e-12)
        got = sorted(map(tuple, r.centroids.tolist()))
        assert got == [(0.0, 0.5), (10.0, 0.5)]
        assert r.labels[0] == r.labels[1] != r.labels[2] == r.labels[3]

    def test_k_equals_n_zero_inertia(self):
        r = kmeans(TOY, 4, seed=1)
        assert r.inertia == 0.0

    def test_k_one_gives_global_mean(self):
        r = kmeans(TOY, 1, seed=1)
        assert np.allclose(r.centroids[0], TOY.mean(axis=0))

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="outside valid range"):
            kmeans(TOY, 5, seed=1)

    def test_k_exceeds_distinct(self):
        data = np.array([[1.0, 1.0]] * 4 + [[2.0, 2.0]] * 4 + [[1.0, 1.0]])
        assert kmeans(data, 2, seed=1).inertia == 0.0
        # the message counts every distinct row; 0.0 and -0.0 are one row, as they compare equal,
        # and so are two rows whose squared distance underflows to 0
        for rows, k, distinct in ((data, 3, 2), ([[0.0], [-0.0], [1.0]], 3, 2), ([[0.0], [1e-170]], 2, 1)):
            for fit in (kmeans, gmm):
                with pytest.raises(ValueError, match=rf"^k={k} exceeds distinct points \({distinct}\)$"):
                    fit(np.array(rows), k, seed=1)

    def test_emptied_cluster_is_reseeded(self):
        # an assignment step of this seeded run leaves a cluster empty
        data = np.array([[4, 5], [2, 1], [3, 1], [2, 4], [1, 4], [2, 1]], dtype=float)
        r = kmeans(data, 3, seed=0)
        labels = np.array(r.labels)
        assert sorted(set(r.labels)) == [0, 1, 2]
        for j in range(3):
            assert r.centroids[j].tobytes() == data[labels == j].mean(axis=0).tobytes()

    def test_inertia_history_non_increasing(self):
        for seed in range(10):
            data = blobs(seed, [(0, 0), (5, 5), (-4, 6)])
            r = kmeans(data, 3, seed=seed)
            h = r.inertia_history
            assert all(h[i] >= h[i + 1] - 1e-9 for i in range(len(h) - 1))

    def test_fixed_point(self):
        for seed in range(10):
            data = blobs(seed + 50, [(0, 0), (6, 1)], n_per=15)
            r = kmeans(data, 2, seed=seed)
            d2 = ((data[:, None, :] - r.centroids[None, :, :]) ** 2).sum(axis=2)
            reassigned = tuple(int(v) for v in np.argmin(d2, axis=1))
            assert np.array_equal(reassigned, r.labels)

    def test_centroids_are_cluster_means(self):
        # at d = 1 numpy's mean sums the rows pairwise, the centroid update in
        # row order, so the two may differ in their last bits
        for data in (blobs(3, [(0, 0), (8, 8)]), blobs(3, [(0,), (8,)])):
            r = kmeans(data, 2, seed=11)
            labels = np.array(r.labels)
            for j in range(2):
                assert np.allclose(r.centroids[j], data[labels == j].mean(axis=0), atol=1e-9)

    def test_seeded_determinism(self):
        data = blobs(4, [(0, 0), (3, 3), (9, 0)], n_per=25)
        a = kmeans(data, 3, seed=42)
        b = kmeans(data, 3, seed=42)
        assert np.array_equal(a.labels, b.labels)
        assert a.centroids.tobytes() == b.centroids.tobytes()
        assert a.inertia == b.inertia
        assert a.inertia_history == b.inertia_history

    def test_inertia_recomputable(self):
        data = blobs(5, [(0, 0), (5, 0)])
        r = kmeans(data, 2, seed=9)
        d2 = ((data - r.centroids[np.array(r.labels)]) ** 2).sum()
        assert math.isclose(r.inertia, float(d2), rel_tol=1e-12)


class TestSquaredDistanceKernel:
    # _sq adds one coordinate row at a time in numpy's pairwise order; it must
    # keep the bits of the broadcast form it replaced, in each of its uses
    @staticmethod
    def broadcast(a, b):
        return np.sum(np.subtract(a, b) ** 2, axis=-1)

    @pytest.mark.parametrize("d", range(1, 30))
    def test_matches_the_broadcast_sum(self, d):
        rng = np.random.default_rng(d)
        x = rng.normal(0, 1, (2000, d)) * np.geomspace(1e-3, 1e3, d) + rng.normal(0, 10, d)
        xt = np.ascontiguousarray(x.T)
        centroids = x[rng.choice(len(x), 8, replace=False)]
        ct = np.ascontiguousarray(centroids.T)
        p, q = rng.integers(0, len(x), (2, 5000))
        shapes = {
            "point x centroid": (_sq(xt[:, :, None], ct), self.broadcast(x[:, None], centroids)),
            "one centre": (_sq(xt, ct[:, 0]), self.broadcast(x, centroids[0])),
            "block x all": (_sq(xt[:, 100:140, None], xt[:, None]), self.broadcast(x[100:140, None], x)),
            "gathered pairs": (_sq(xt[:, p], xt[:, q]), self.broadcast(x[p], x[q])),
        }
        assert [name for name, (got, want) in shapes.items() if got.tobytes() != want.tobytes()] == []


class TestFitArguments:
    @pytest.mark.parametrize("fit", [
        lambda x: kmeans(x, 1, seed=1),
        lambda x: agglomerative(x),
        lambda x: dbscan(x, 1.0, 2),
        lambda x: gmm(x, 1, seed=1),
        lambda x: fit_pca(x, 1),
    ], ids=["kmeans", "agglomerative", "dbscan", "gmm", "fit_pca"])
    def test_zero_columns_refused(self, fit):
        with pytest.raises(ValueError, match="at least one column"):
            fit(np.empty((5, 0)))

    def test_max_iter_below_one_refused(self):
        for fit in (kmeans, gmm):
            for max_iter in (0, -1):
                with pytest.raises(ValueError, match=r"max_iter must be >= 1"):
                    fit(TOY, 2, seed=1, max_iter=max_iter)
        assert kmeans(TOY, 2, seed=1, max_iter=1).iterations == 1
        assert gmm(TOY, 2, seed=1, max_iter=1).iterations == 1


class TestAgglomerative:
    def test_first_merge_nearest_pair(self):
        d = agglomerative(np.array([[0.0], [1.0], [10.0]]), Linkage.SINGLE)
        first = d.merges[0]
        assert (first.cluster_a, first.cluster_b) == (0, 1)
        assert first.distance == 1.0

    def test_merge_count(self):
        data = blobs(1, [(0, 0), (4, 4)], n_per=8)
        d = agglomerative(data, Linkage.AVERAGE)
        assert len(d.merges) == len(data) - 1

    @pytest.mark.parametrize("linkage", list(Linkage))
    def test_merge_distances_non_decreasing(self, linkage):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            data = rng.normal(0, 1, (30, 3))
            d = agglomerative(data, linkage)
            dist = [m.distance for m in d.merges]
            assert all(dist[i] <= dist[i + 1] + 1e-12 for i in range(len(dist) - 1))

    def test_cut_extremes(self):
        data = blobs(2, [(0, 0), (5, 5)], n_per=5)
        d = agglomerative(data, Linkage.COMPLETE)
        n = len(data)
        assert np.array_equal(cut(d, n), tuple(range(n)))
        assert np.array_equal(cut(d, 1), tuple([0] * n))

    def test_cut_recovers_separated_blobs(self):
        data = np.vstack([blobs(3, [(0, 0)], n_per=10), blobs(4, [(50, 50)], n_per=10)])
        d = agglomerative(data, Linkage.SINGLE)
        labels = cut(d, 2)
        assert len(set(labels[:10])) == 1
        assert len(set(labels[10:])) == 1
        assert labels[0] != labels[10]

    def test_cut_k_out_of_range(self):
        d = agglomerative(TOY, Linkage.SINGLE)
        with pytest.raises(ValueError):
            cut(d, 0)
        with pytest.raises(ValueError):
            cut(d, 5)

    def test_tie_break_lowest_pair(self):
        # three points with two equal nearest distances: (0,1) and (1,2)
        d = agglomerative(np.array([[0.0], [1.0], [2.0]]), Linkage.SINGLE)
        assert (d.merges[0].cluster_a, d.merges[0].cluster_b) == (0, 1)

    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("linkage", list(Linkage))
    def test_matches_lance_williams_oracle_under_ties(self, linkage, dims):
        # integer coordinates on a small grid: every starting distance is
        # exact and ties (also between merged clusters) are common, so the
        # merge tuples must match the oracle exactly
        for seed in range(12):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 41))
            data = rng.integers(0, int(rng.integers(2, 7)), (n, dims)).astype(float)
            got = [tuple(m) for m in agglomerative(data, linkage).merges]
            assert got == o_agglomerative([tuple(p) for p in data.tolist()], linkage.value)


class TestCutMatchesReplay:
    # the reverse pass against the earlier replay of member lists, exact
    # labels for every k

    def check(self, data, linkage):
        d = agglomerative(data, linkage)
        for k in range(1, len(data) + 1):
            assert np.array_equal(cut(d, k), o_cut(d, k))

    @pytest.mark.parametrize("linkage", list(Linkage))
    @pytest.mark.parametrize("seed", range(8))
    def test_integer_grids(self, linkage, seed):
        # few distinct coordinates: tied merge distances and duplicate rows
        rng = np.random.default_rng(seed)
        n = 40 if seed == 0 else int(rng.integers(2, 41))
        data = rng.integers(0, int(rng.integers(2, 6)), (n, 1 + seed % 3)).astype(float)
        self.check(data, linkage)

    @pytest.mark.parametrize("linkage", list(Linkage))
    @pytest.mark.parametrize("seed", range(8))
    def test_gaussians(self, linkage, seed):
        rng = np.random.default_rng(100 + seed)
        n = 40 if seed == 0 else int(rng.integers(2, 41))
        self.check(rng.normal(0, 1, (n, 1 + seed % 3)), linkage)


class TestAgglomerativeMatchesScan:
    # the row-minimum cache against the earlier full n^2 scan per merge,
    # exact merge tuples (ids, distance bits, sizes)

    def check(self, data, linkage):
        got = [tuple(m) for m in agglomerative(data, linkage).merges]
        assert got == o_agglomerative_scan(data, linkage.value)

    @pytest.mark.parametrize("linkage", list(Linkage))
    @pytest.mark.parametrize("seed", range(6))
    def test_integer_grids(self, linkage, seed):
        rng = np.random.default_rng(seed)
        n = 400 if seed == 0 else int(rng.integers(2, 400))
        dims = 1 + seed % 3
        data = rng.integers(0, int(rng.integers(2, 12)), (n, dims)).astype(float)
        self.check(data, linkage)

    @pytest.mark.parametrize("linkage", list(Linkage))
    def test_identical_points(self, linkage):
        # every distance is 0, so every merge is a tie
        self.check(np.full((40, 2), 3.5), linkage)

    @pytest.mark.parametrize("linkage", list(Linkage))
    @pytest.mark.parametrize("step", [1.0, 0.1])
    def test_evenly_spaced_line(self, linkage, step):
        self.check(np.arange(80)[:, None] * step, linkage)


class TestAgglomerativeLimits:
    def test_overflowing_distances_rejected(self):
        # the squared distances overflow to inf, which used to yield
        # self-merges such as Merge(0, 0, inf, 2)
        with pytest.raises(ValueError, match="overflow"):
            agglomerative(np.array([[0.0], [1e308], [-1e308]]), Linkage.AVERAGE)

    def test_build_peak_is_one_matrix(self):
        # the distance matrix is built a block of rows at a time, not
        # through an n x n x d temporary
        n = 1000
        data = np.random.default_rng(0).normal(0, 1, (n, 2))
        peak = traced_peak(agglomerative, data, Linkage.SINGLE)
        assert peak <= 1.3 * 8 * n * n


class TestDbscanMatchesLists:
    # the grid against the earlier stored neighbor lists, exact labels

    def check(self, data, eps, min_pts):
        with np.errstate(over="ignore"):
            expected = o_dbscan_lists(data, eps, min_pts)
            assert np.array_equal(dbscan(data, eps, min_pts).labels, expected)

    @pytest.mark.parametrize("dims", range(1, 10))
    @pytest.mark.parametrize("seed", range(4))
    def test_integer_grids(self, dims, seed):
        # integer eps on integer coordinates: many pairs sit at exactly eps;
        # from d = 5 on, axes of 3-7 values keep clusters forming at eps <= 3
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 300))
        data = rng.integers(0, int(rng.integers(3, 15 if dims <= 4 else 8)), (n, dims)).astype(float)
        for eps in (1.0, 2.0, 3.0):
            for min_pts in (1, 2, 4, 7, n + 1):
                self.check(data, eps, min_pts)

    @pytest.mark.parametrize("dims", range(1, 10))
    def test_rounded_gaussians_and_duplicates(self, dims):
        # eps 1.5 and 3.0 form clusters from d = 5 on, where cell pairs are
        # r = isqrt(d) + 1 = 3 or 4 cells apart in up to seven trailing
        # coordinates that cell_pairs compares one by one
        rng = np.random.default_rng(dims)
        rounded = np.round(rng.normal(0, 1, (250, dims)), 1)
        repeated = np.repeat(rng.integers(0, 4, (30, dims)).astype(float), 6, axis=0)
        for data in (rounded, repeated):
            for eps in (0.1, 0.3, 1.0, 1.5, 3.0):
                for min_pts in (1, 3, 6, 20):
                    self.check(data, eps, min_pts)

    @pytest.mark.parametrize("eps", [1e-300, 1e-158, 1e155, 1e300])
    def test_extreme_eps(self, eps):
        # squares that underflow to 0 or overflow to inf still decide
        # neighbors exactly as before
        rng = np.random.default_rng(1)
        for scale in (1e-160, 1.0, 1e150):
            data = rng.integers(-4, 5, (60, 2)) * scale
            for min_pts in (1, 3, 61):
                self.check(data, eps, min_pts)

    def test_large_coordinates(self):
        # near 1e15 the spacing of doubles is 0.125, so x / side rounds
        rng = np.random.default_rng(2)
        data = 1e15 + rng.integers(0, 16, (200, 2)) * 0.125
        for eps in (0.125, 0.25, 0.3, 1.0):
            self.check(data, eps, 4)

    def test_extreme_magnitudes(self):
        data = np.array([[0.0], [1e308], [-1e308]])
        for eps, min_pts in ((1.0, 1), (1e300, 2), (1e200, 2)):
            self.check(data, eps, min_pts)

    def test_memory_order_of_wide_rows(self):
        # numpy sums a row of a C-ordered array pairwise and one of a
        # Fortran-ordered array column by column, which can round apart from
        # d = 9 on; eps^2 is put between the two sums of one pair, and both
        # orders must decide as the C-ordered sum does
        rng = np.random.default_rng(3)
        while True:
            pair = rng.normal(0, 1, (2, 9))
            sq = (pair[0] - pair[1]) ** 2
            lo, hi = sorted((float(np.sum(sq)), functools.reduce(operator.add, sq.tolist())))
            eps = math.sqrt(lo)
            while eps * eps < lo:
                eps = math.nextafter(eps, math.inf)
            if eps * eps < hi:
                break
        c_order = np.ascontiguousarray(pair)
        expected = o_dbscan_lists(c_order, eps, 2)
        for order in "CF":
            assert np.array_equal(dbscan(np.asarray(pair, order=order), eps, 2).labels, expected)

    def test_balance_age_shape(self):
        self.check(balance_age(5000), 500.0, 10)


class TestDbscanMemory:
    def test_peak_does_not_grow_with_the_dense_block(self):
        # every pair of the zero-Balance block is a neighbor pair; stored
        # neighbor lists took 21 MB at a 30% block and grew with its square
        for zero_share in (0.3, 0.6):
            peak = traced_peak(dbscan, balance_age(5000, zero_share), 500.0, 10)
            assert peak < 5e6


class TestDbscan:
    def test_two_blobs_and_noise(self):
        data = np.array(
            [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1],
             [5.0, 5.0], [5.1, 5.0], [5.0, 5.1],
             [50.0, 50.0]]
        )
        r = dbscan(data, eps=0.5, min_pts=2)
        assert np.array_equal(r.labels[:3], (0, 0, 0))
        assert np.array_equal(r.labels[3:6], (1, 1, 1))
        assert r.labels[6] == -1

    def test_min_pts_one_no_noise(self):
        rng = np.random.default_rng(8)
        data = rng.normal(0, 5, (30, 2))
        r = dbscan(data, eps=0.01, min_pts=1)
        assert -1 not in r.labels

    def test_eps_larger_than_diameter_single_cluster(self):
        rng = np.random.default_rng(9)
        data = rng.normal(0, 1, (25, 2))
        r = dbscan(data, eps=100.0, min_pts=3)
        assert set(r.labels) == {0}

    def test_closed_ball_boundary(self):
        data = np.array([[0.0], [1.0], [2.0]])
        r = dbscan(data, eps=1.0, min_pts=3)
        # middle point has neighbors at distance exactly eps on both sides
        assert np.array_equal(r.labels, (0, 0, 0))

    def test_partition_invariant_under_permutation(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            data = blobs(seed, [(0, 0), (4, 4), (9, 0)], n_per=12, spread=0.4)
            base = dbscan(data, eps=1.0, min_pts=3)
            perm = rng.permutation(len(data))
            permuted = dbscan(data[perm], eps=1.0, min_pts=3)

            def partition(labels):
                groups = {}
                for idx, lab in enumerate(labels):
                    groups.setdefault(lab, set()).add(idx)
                noise = groups.pop(-1, set())
                return set(frozenset(g) for g in groups.values()), noise

            inv = np.empty(len(perm), dtype=int)
            inv[perm] = np.arange(len(perm))
            mapped = tuple(permuted.labels[inv[i]] for i in range(len(data)))
            assert partition(base.labels) == partition(mapped)

    def test_no_points(self):
        assert np.array_equal(dbscan(np.empty((0, 2)), eps=1.0, min_pts=1).labels, ())

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            dbscan(TOY, eps=0.0, min_pts=2)
        with pytest.raises(ValueError):
            dbscan(TOY, eps=1.0, min_pts=0)


class TestGmm:
    def test_single_component_closed_form(self):
        data = blobs(1, [(2, 3)], n_per=40)
        m = gmm(data, 1, seed=5, ridge=1e-6)
        assert np.allclose(m.weights, [1.0])
        assert np.allclose(m.means[0], data.mean(axis=0), atol=1e-9)
        diff = data - data.mean(axis=0)
        mle = diff.T @ diff / len(data)
        assert np.allclose(m.covariances[0], mle + 1e-6 * np.eye(2), atol=1e-9)

    def test_responsibilities_sum_to_one(self):
        data = blobs(2, [(0, 0), (6, 6)])
        m = gmm(data, 2, seed=3)
        _, resp = gmm_predict(m, data)
        assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-12)

    def test_recovers_separated_means(self):
        data = blobs(7, [(0.0, 0.0), (8.0, 8.0)], n_per=500, spread=0.4)
        m = gmm(data, 2, seed=1)
        got = sorted(map(tuple, m.means.tolist()))
        true = [(0.0, 0.0), (8.0, 8.0)]
        for g, t in zip(got, true):
            assert math.hypot(g[0] - t[0], g[1] - t[1]) < 0.1

    def test_log_likelihood_non_decreasing(self):
        for seed in range(6):
            data = blobs(seed + 20, [(0, 0), (4, 2)], n_per=30)
            m = gmm(data, 2, seed=seed)
            h = m.log_likelihood_history
            assert all(h[i + 1] >= h[i] - 1e-10 for i in range(len(h) - 1))

    def test_weights_sum_to_one(self):
        data = blobs(3, [(0, 0), (5, 5), (0, 5)], n_per=25)
        m = gmm(data, 3, seed=2)
        assert math.isclose(float(m.weights.sum()), 1.0, abs_tol=1e-12)

    def test_covariances_symmetric_pd(self):
        data = blobs(4, [(0, 0), (6, 0)], n_per=40)
        m = gmm(data, 2, seed=4, ridge=1e-5)
        for cov in m.covariances:
            assert np.allclose(cov, cov.T, atol=1e-12)
            eigvals = np.linalg.eigvalsh(cov)
            assert eigvals.min() >= 1e-5 - 1e-9

    def test_seeded_determinism(self):
        data = blobs(5, [(0, 0), (7, 3)], n_per=35)
        a = gmm(data, 2, seed=123)
        b = gmm(data, 2, seed=123)
        assert a.log_likelihood == b.log_likelihood
        assert a.means.tobytes() == b.means.tobytes()
        assert a.covariances.tobytes() == b.covariances.tobytes()
        assert a.log_likelihood_history == b.log_likelihood_history

    def test_ridge_handles_degenerate_directions(self):
        # points on a line: MLE covariance is singular without the ridge
        t = np.linspace(0, 1, 50)
        data = np.column_stack([t, 2 * t])
        m = gmm(data, 1, seed=1, ridge=1e-4)
        assert np.isfinite(m.log_likelihood)

    def test_predict_labels_match_training_argmax(self):
        data = blobs(6, [(0, 0), (9, 9)], n_per=30)
        m = gmm(data, 2, seed=8)
        labels, resp = gmm_predict(m, data)
        assert np.array_equal(labels, tuple(int(v) for v in np.argmax(resp, axis=1)))


def well_conditioned(rng, d):
    """A random d x d covariance with eigenvalues in [1, 2]."""
    q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    return (q * rng.uniform(1.0, 2.0, d)) @ q.T


class TestGmmFit:
    @pytest.mark.parametrize("d", range(1, 15))
    def test_cholesky_matches_numpy(self, d):
        cov = well_conditioned(np.random.default_rng(d), d)
        assert np.allclose(_cholesky(cov), np.linalg.cholesky(cov), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", range(1, 15))
    def test_log_gaussian_matches_scipy(self, d):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(100 + d)
        mean = rng.normal(0, 3, d)
        cov = well_conditioned(rng, d)
        x = rng.normal(0, 3, (60, d))
        want = stats.multivariate_normal(mean, cov).logpdf(x).reshape(-1)
        assert np.allclose(_log_gaussian(x.T, mean, cov), want, rtol=1e-12, atol=0)

    # the 200-iteration cluster_gmm snapshot (--k 2 --seed 7 on the fixture's
    # CreditScore,Age) of the fit that went through LAPACK and BLAS and
    # stopped on an absolute gain of 1e-8
    LAPACK_FIT = {
        "weights": [0.40776572323370225, 0.5922342767662981],
        "means": [[566.1159242832706, 40.34702226920437], [715.9283873530848, 36.57820584508314]],
        "covariances": [
            [[5579.44438072807, 118.43001329744973], [118.43001329744973, 77.531583819479]],
            [[5092.676397236554, 134.86612320579582], [134.86612320579582, 87.96669986393937]],
        ],
        "log_likelihood": -1938.1953837702854,
    }
    LAPACK_FIT_LABELS = (
        "1110011111010011101111100110101110011110111110001111010101111001001001100011110010110111001101010101"
        "1010001110111011000010101110010001111111111100110101011001101011110011001001001111110010110111100011"
    )

    def test_every_iteration_reproduces_the_lapack_fit(self, fixture_csv):
        t = read_csv(fixture_csv)
        x = np.column_stack([numeric_values(t.column(c)) for c in ("CreditScore", "Age")])
        m = gmm(x, 2, seed=7, tol=-math.inf)
        assert (m.iterations, m.stop_reason, m.converged) == (200, "max_iter", False)
        doc = m.to_dict()
        for key, want in self.LAPACK_FIT.items():
            assert np.allclose(doc[key], want, rtol=1e-13, atol=0), key
        labels, _ = gmm_predict(m, x)
        assert "".join(map(str, labels.tolist())) == self.LAPACK_FIT_LABELS

    def test_tied_column_stops_on_tolerance(self):
        # about 30% of the rows share Balance == 0, and one component collapses onto them
        x = balance_age(3000, seed=0)
        m = gmm(x, 3, seed=7)
        assert (m.stop_reason, m.converged) == ("tolerance", True)
        assert m.iterations <= 20
        assert min(c[0, 0] for c in m.covariances) < 1e-5

    def test_rounding_fall_at_a_fixed_point_counts_as_converged(self):
        # one component sits at its fixed point after one M step; the next
        # log-likelihood moves by rounding alone, down for some of these seeds
        for seed in range(10):
            m = gmm(blobs(seed, [(2, 3)], n_per=40), 1, seed=5)
            assert (m.iterations, m.stop_reason, m.converged) == (2, "tolerance", True)

    def test_stop_reasons(self):
        data = blobs(0, [(0, 0), (2, 1)], n_per=15, spread=0.5)
        # a ridge of 1 on clusters of spread 0.5 makes the first step lose
        # about 0.03 per sample
        fell = gmm(data, 2, seed=0, ridge=1.0)
        assert (fell.iterations, fell.stop_reason, fell.converged) == (2, "likelihood_fell", False)
        capped = gmm(data, 2, seed=0, max_iter=3, tol=-math.inf)
        assert (capped.iterations, capped.stop_reason, capped.converged) == (3, "max_iter", False)
        doc = capped.to_dict()
        assert (doc["converged"], doc["stop_reason"]) == (False, "max_iter")


SEVEN = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [9.0, 9.0], [9.0, 10.0], [10.0, 9.0], [4.0, 15.0]])


class TestLabelArrays:
    # each fit's JSON text is the one the fits wrote when labels were tuples of ints
    @pytest.mark.parametrize("fit, text", [
        (lambda x: kmeans(x, 2, seed=3),
         '{"labels": [0, 0, 0, 1, 1, 1, 1], "centroids": [[0.3333333333333333, 0.3333333333333333], '
         '[8.0, 10.75]], "inertia": 48.083333333333336, "iterations": 1, "seed": 3}'),
        (lambda x: dbscan(x, 1.0, 3), '{"labels": [0, 0, 0, 1, 1, 1, -1], "eps": 1.0, "min_pts": 3}'),
        (lambda x: gmm_predict(gmm(x, 2, seed=3), x)[0], "[0, 0, 0, 1, 1, 1, 1]"),
        (lambda x: cut(agglomerative(x, Linkage.AVERAGE), 3), "[0, 0, 0, 1, 1, 1, 2]"),
    ], ids=["kmeans", "dbscan", "gmm_predict", "cut"])
    def test_read_only_int64_per_row(self, fit, text):
        result = fit(SEVEN)
        labels = getattr(result, "labels", result)
        assert labels.dtype == np.int64
        assert labels.shape == (len(SEVEN),)
        with pytest.raises(ValueError, match="read-only"):
            labels[0] = 1
        doc = result.to_dict() if hasattr(result, "to_dict") else labels.tolist()
        assert json.dumps(doc) == text


class TestMemoryOrder:
    """Every fit gives the same bits for C- and Fortran-ordered copies of
    one matrix: numpy sums pairwise only along the contiguous axis, so a
    fit that followed the caller's layout would round differently."""

    @staticmethod
    def fits(data, pca_model, gmm_model):
        d = data.shape[1]
        km = kmeans(data, 3, seed=4)
        model = gmm(data, 3, seed=4)
        labels, resp = gmm_predict(gmm_model, data)
        return {
            "kmeans": (km.to_dict(), km.inertia_history),
            "agglomerative": agglomerative(data).to_dict(),
            "dbscan": dbscan(data, 1.5 * math.sqrt(d), 4).to_dict(),
            "gmm": (model.to_dict(), model.log_likelihood_history),
            "gmm_predict": (labels, resp.tobytes()),
            "fit_pca": fit_pca(data, min(d, 3)).to_dict(),
            "fit_pca standardized": fit_pca(data, min(d, 3), standardize=True).to_dict(),
            "transform_pca": transform_pca(pca_model, data).tobytes(),
        }

    @pytest.mark.parametrize("d", [2, 3, 9])
    def test_c_and_fortran_copies_fit_alike(self, d):
        rng = np.random.default_rng(d)
        centers = rng.normal(0, 4, (3, d))
        data = blobs(d, centers, n_per=100, spread=1.0) * np.geomspace(1, 1e4, d)
        c_order, f_order = np.ascontiguousarray(data), np.asfortranarray(data)
        assert f_order.flags.f_contiguous and not f_order.flags.c_contiguous
        pca_model = fit_pca(c_order, min(d, 3))
        gmm_model = gmm(c_order, 3, seed=4)
        want = self.fits(c_order, pca_model, gmm_model)
        got = self.fits(f_order, pca_model, gmm_model)
        # repr keeps every bit of a float and tells -0.0 from 0.0
        assert [name for name in want if repr(got[name]) != repr(want[name])] == []
