"""Clustering: k-means (Lloyd + k-means++), agglomerative hierarchical
clustering, DBSCAN, and Gaussian mixtures fit by EM.

Labels are read-only int64 arrays with one entry per row, as ``TimeSeries``
values are; ``to_dict`` writes them as lists. Every stochastic fit takes an
integer seed feeding the package's portable SplitMix64 generator, so
identical seed and input give bit-identical results, whatever the array's
memory order: every fit reads its matrix as d contiguous coordinate rows
(d x n), laid out by one helper, ``_rows``. Distances are Euclidean
throughout, and every squared distance is summed by one helper, ``_sq``, one
coordinate row at a time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .pca import _gram, _validate_matrix
from .rng import SplitMix64


# ---------------------------------------------------------------------------
# k-means

@dataclass(eq=False, frozen=True)
class KMeansResult:
    labels: np.ndarray  # read-only int64
    centroids: np.ndarray
    inertia: float
    iterations: int
    seed: int
    inertia_history: tuple[float, ...]  # inertia after each assignment step

    def __post_init__(self) -> None:
        self.labels.flags.writeable = False

    def to_dict(self) -> dict:
        return {
            "labels": self.labels.tolist(),
            "centroids": self.centroids.tolist(),
            "inertia": self.inertia,
            "iterations": self.iterations,
            "seed": self.seed,
        }


def _rows(data) -> np.ndarray:
    """The n x d matrix data, validated, as d contiguous coordinate rows."""
    return np.ascontiguousarray(_validate_matrix(data).T)


def _sq(at, bt) -> np.ndarray:
    """Squared Euclidean distances between points given as coordinate rows:
    the sum over a of (at[a] - bt[a])**2, broadcast over the trailing axes.

    The terms are added in the order numpy's pairwise sum takes along a
    short contiguous axis: one after another below 8 terms; from 8 on, eight
    running sums combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the
    remaining terms one after another. So the result has the bits of
    np.sum((a - b) ** 2, axis=-1) over n x d rows without the d-wide
    temporaries, but only up to numpy's pairwise block of 128 terms: numpy
    splits longer sums in halves, which this order does not follow. The
    order is numpy's implementation, not its API; a test pins it.
    """
    def term(a):
        t = at[a] - bt[a]
        return np.square(t, out=t)

    d = len(at)
    if d < 8:
        acc, rest = term(0), range(1, d)
    else:
        r = [term(a) for a in range(8)]
        for a in range(8, d - d % 8):
            r[a % 8] += term(a)
        acc, rest = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])), range(d - d % 8, d)
    for a in rest:
        acc += term(a)
    return acc


def _kmeanspp_init(xt: np.ndarray, k: int, rng: SplitMix64) -> np.ndarray:
    """k starting centres as coordinate rows (d x k)."""
    n = xt.shape[1]
    ct = np.empty((len(xt), k))
    ct[:, 0] = xt[:, rng.randint(n)]
    d2 = _sq(xt, ct[:, 0])
    for j in range(1, k):
        # the j centres are distinct (each had a positive weight) and every point sits on one
        if not d2.any():
            raise ValueError(f"k={k} exceeds distinct points ({j})")
        ct[:, j] = xt[:, rng.choice_weighted(d2.tolist())]
        d2 = np.minimum(d2, _sq(xt, ct[:, j]))
    return ct


def kmeans(
    data: np.ndarray,
    k: int,
    seed: int,
    max_iter: int = 300,
    tol: float = 1e-6,
) -> KMeansResult:
    """Lloyd's algorithm with k-means++ initialization.

    Iterates assignment and mean updates until the assignment stops changing
    (an exact fixed point: returned centroids are the means of their
    clusters and every point sits in its nearest cluster), the maximum
    centroid shift falls below tol, or max_iter is hit. A cluster emptied by
    reassignment is reseeded to the point currently farthest from its own
    centroid.
    """
    xt = _rows(data)
    n = xt.shape[1]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside valid range 1..{n}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    rng = SplitMix64(seed)
    ct = _kmeanspp_init(xt, k, rng)  # centroids as coordinate rows
    history: list[float] = []
    labels = np.full(n, -1, dtype=int)
    iterations = 0
    for _ in range(max_iter):
        d2 = _sq(xt[:, :, None], ct)
        new_labels = np.argmin(d2, axis=1)
        history.append(float(np.sum(d2[np.arange(n), new_labels])))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        iterations += 1
        # each cluster's sum adds its rows in row order; an empty cluster
        # divides 0 by 1 and is reseeded below
        counts = np.bincount(labels, minlength=k)
        new_ct = np.array([np.bincount(labels, row, k) for row in xt]) / np.maximum(counts, 1)
        empty = np.flatnonzero(counts == 0)
        if len(empty):  # ties between distances go to the lowest row
            far = np.argsort(-d2[np.arange(n), labels], kind="stable")[: len(empty)]
            new_ct[:, empty] = xt[:, far]
        shift = float(np.max(np.sqrt(_sq(new_ct, ct))))
        ct = new_ct
        if shift < tol:
            d2 = _sq(xt[:, :, None], ct)
            labels = np.argmin(d2, axis=1)
            history.append(float(np.sum(d2[np.arange(n), labels])))
            break

    return KMeansResult(labels=labels, centroids=np.ascontiguousarray(ct.T), inertia=history[-1],
                        iterations=iterations, seed=seed, inertia_history=tuple(history))


# ---------------------------------------------------------------------------
# agglomerative hierarchical clustering

# agglomerative builds its distance matrix in blocks of rows whose
# rows x n x d coordinate terms number at most this many float64 elements
# (512 KiB); _sq holds a block's running sums and one term at a time, under
# 1 MB together
_CHUNK = 1 << 16


class Linkage(enum.Enum):
    SINGLE = "single"
    COMPLETE = "complete"
    AVERAGE = "average"


class Merge(NamedTuple):
    """One dendrogram step; original points are clusters 0..n-1 and the
    i-th merge creates cluster n+i. Always cluster_a < cluster_b."""

    cluster_a: int
    cluster_b: int
    distance: float
    new_size: int


@dataclass(frozen=True)
class Dendrogram:
    merges: tuple[Merge, ...]
    linkage: Linkage
    n_points: int

    def to_dict(self) -> dict:
        return {
            "linkage": self.linkage.value,
            "n_points": self.n_points,
            "merges": [
                {"a": m.cluster_a, "b": m.cluster_b, "distance": m.distance, "size": m.new_size}
                for m in self.merges
            ],
        }


def agglomerative(data: np.ndarray, linkage: Linkage = Linkage.AVERAGE) -> Dendrogram:
    """Bottom-up clustering with Lance-Williams distance updates.

    At each step the closest pair of live clusters merges; equal distances
    break toward the lexicographically smallest (a, b) cluster-id pair.
    Merge distances are non-decreasing for all three supported linkages.

    Cost: one n x n float64 distance matrix (8 n^2 bytes; it is built a
    block of rows at a time, so the build adds a fixed-size temporary) and a
    cached minimum of each row. A merge takes O(n) work, plus one O(n)
    rescan for each row whose minimum sat in a merged column and rose, so a
    fit is typically O(n^2).

    Raises:
        ValueError: fewer than 2 points, non-finite cells, or a squared
            distance that overflows float64 (rescale the data).
    """
    xt = _rows(data)
    d, n = xt.shape
    if n < 2:
        raise ValueError("agglomerative clustering needs >= 2 points")

    dist = np.empty((n, n))
    rows = max(1, _CHUNK // (n * d))
    for lo in range(0, n, rows):
        with np.errstate(over="ignore"):
            block = _sq(xt[:, lo:lo + rows, None], xt[:, None])
        if not np.all(np.isfinite(block)):
            raise ValueError("pairwise squared distances overflow float64; rescale the data")
        dist[lo:lo + rows] = block
    np.sqrt(dist, out=dist)
    del xt, block  # the merges read dist alone

    # slot s holds one live cluster; a retired slot's row and column are
    # +inf, as is the diagonal, so neither can hold the minimum; rowmin[s]
    # is the minimum of row s
    np.fill_diagonal(dist, np.inf)
    rowmin = dist.min(axis=1)
    cluster_id = np.arange(n)
    size = np.ones(n, dtype=int)

    merges: list[Merge] = []
    for step in range(n - 1):
        dmin = rowmin.min()
        # every slot of a closest pair has rowmin == dmin, so the smallest
        # (a, b) pair is the smallest id among those slots and that slot's
        # smallest-id partner at dmin
        tied = np.flatnonzero(rowmin == dmin)
        sa = tied[np.argmin(cluster_id[tied])]
        partners = np.flatnonzero(dist[sa] == dmin)
        sb = partners[np.argmin(cluster_id[partners])]
        si, sj = min(sa, sb), max(sa, sb)
        new_size = size[si] + size[sj]
        merges.append(Merge(int(cluster_id[sa]), int(cluster_id[sb]), float(dmin), int(new_size)))

        # Lance-Williams update: the merged cluster takes over slot si
        if linkage is Linkage.SINGLE:
            row = np.minimum(dist[si], dist[sj])
        elif linkage is Linkage.COMPLETE:
            row = np.maximum(dist[si], dist[sj])
        else:
            row = (size[si] * dist[si] + size[sj] * dist[sj]) / new_size
        row[si] = row[sj] = np.inf
        # rows whose minimum sat in column si or sj and rose need a rescan,
        # rows si and sj among them (rows si and sj equal columns si and sj,
        # the matrix being symmetric)
        stale = np.flatnonzero(((dist[si] == rowmin) | (dist[sj] == rowmin)) & (row > rowmin))
        dist[si] = dist[:, si] = row
        dist[sj] = dist[:, sj] = np.inf
        np.minimum(rowmin, row, out=rowmin)
        rowmin[stale] = dist[stale].min(axis=1)
        cluster_id[si] = n + step
        size[si] = new_size
    return Dendrogram(tuple(merges), linkage, n)


def cut(dendrogram: Dendrogram, k: int) -> np.ndarray:
    """Labels for k clusters, the clusters left after the first n-k merges.

    Clusters are numbered 0..k-1 in order of their smallest member row.
    """
    n = dendrogram.n_points
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside valid range 1..{n}")
    # walking the merges backwards, each merged cluster hands its final cluster to its two parts
    final = list(range(2 * n - k))
    for step in range(n - k - 1, -1, -1):
        m = dendrogram.merges[step]
        final[m.cluster_a] = final[m.cluster_b] = final[n + step]
    labels = _number_by_row(np.array(final[:n]), np.arange(n))
    labels.flags.writeable = False
    return labels


def _number_by_row(comp: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Labels 0, 1, ... for the points at distinct input rows row in components
    comp (ids >= 0), numbered in order of each component's smallest row."""
    lowest = np.full(int(comp.max(initial=-1)) + 1, np.iinfo(np.int64).max)
    np.minimum.at(lowest, comp, row)
    used = np.flatnonzero(lowest < np.iinfo(np.int64).max)
    rank = np.empty(len(lowest), dtype=np.int64)
    rank[used[np.argsort(lowest[used])]] = np.arange(len(used))
    return rank[comp]


# ---------------------------------------------------------------------------
# DBSCAN

# pairs per chunk in dbscan's searches: with their index arrays and the
# d coordinate rows gathered for them, a chunk's temporaries stay near 1 MB
# for a few columns, however dense the data
_PAIRS = 1 << 12


@dataclass(eq=False, frozen=True)
class DbscanResult:
    labels: np.ndarray  # read-only int64; -1 marks noise
    eps: float
    min_pts: int

    def __post_init__(self) -> None:
        self.labels.flags.writeable = False

    def to_dict(self) -> dict:
        return {"labels": self.labels.tolist(), "eps": self.eps, "min_pts": self.min_pts}


def dbscan(data: np.ndarray, eps: float, min_pts: int) -> DbscanResult:
    """Density clustering with closed-ball neighborhoods (distance <= eps).

    A core point has at least min_pts neighbors counting itself. Clusters
    are the connected components of core points (cores within eps of each
    other), numbered in first-visit order scanning rows ascending; border
    points attach to the cluster of their nearest core (distance ties to
    the lowest cluster id); everything else is noise (-1). Assigning
    borders by nearest core rather than by expansion order makes the
    induced partition invariant under row permutation.

    Cost: points are bucketed into a grid of cells of side about
    eps/sqrt(d), and only pairs in nearby cells are compared (Gunawan 2013;
    de Berg, Gunawan & Roeloffzen, arXiv:1702.08607). A cell of >= min_pts
    points that all lie within eps of each other is all core without
    counting, and core cells join by union-find with an early exit. Memory
    is O(n) plus temporaries of a fixed size, however dense the data.
    """
    xt = _rows(data)
    if not eps > 0:
        raise ValueError("eps must be > 0")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    n = xt.shape[1]
    if n == 0:
        return DbscanResult(np.empty(0, dtype=np.int64), eps, min_pts)
    g = _Grid(xt, eps)
    del xt  # the grid holds the rows in its own order
    eps2 = g.eps2

    # core points: a tight cell of >= min_pts points is all core; any other
    # point counts its neighbors until it reaches min_pts
    dense = g.tight & (g.size >= min_pts)
    count = np.zeros(n, dtype=np.int64)
    for ci, cj in g.cell_pairs(np.flatnonzero(~dense), np.arange(len(g.first))):
        for p, q, d2 in g.pairs(ci, cj, g.first, g.size, g.size, lambda p, c: count[p] < min_pts):
            np.add.at(count, p[d2 <= eps2], 1)
    ncore = g.cores_first(dense[g.cell] | (count >= min_pts))

    # union-find over core points; the cores of a tight cell are all within
    # eps of each other and share one node, the cell's first position
    cores = np.flatnonzero(g.core)
    node = np.where(g.tight[g.cell], g.first[g.cell], np.arange(n))
    parent = np.arange(n)

    def apart(p, c):
        return ~g.tight[c] | (_find(parent, node[p]) != _find(parent, g.first[c]))

    # a tight cell paired with itself: every core p in it has node[p] ==
    # g.first[c], so apart retires its rows before any distance is taken
    core_cells = np.flatnonzero(ncore)
    for ci, cj in g.cell_pairs(core_cells, core_cells, half=True):
        for p, q, d2 in g.pairs(ci, cj, g.first, ncore, ncore, apart):
            hit = d2 <= eps2
            _union(parent, node[p[hit]], node[q[hit]])

    # clusters are numbered by their smallest core row
    label = np.full(n, -1, dtype=np.int64)
    label[cores] = _number_by_row(_find(parent, node[cores]), g.row[cores])

    # borders: the nearest core within eps, distance ties to the lowest label
    rest = g.size - ncore
    best = np.full(n, np.inf)
    best_label = np.full(n, n)
    for ci, cj in g.cell_pairs(np.flatnonzero(rest), core_cells):
        for p, q, d2 in g.pairs(ci, cj, g.first + ncore, rest, ncore):
            hit = d2 <= eps2
            p, d2, lab = p[hit], d2[hit], label[q[hit]]
            o = np.lexsort((lab, d2, p))
            p, d2, lab = p[o], d2[o], lab[o]
            head = np.ones(len(p), dtype=bool)
            head[1:] = p[1:] != p[:-1]
            p, d2, lab = p[head], d2[head], lab[head]
            better = (d2 < best[p]) | ((d2 == best[p]) & (lab < best_label[p]))
            best[p[better]] = d2[better]
            best_label[p[better]] = lab[better]
    border = best_label < n
    label[border] = best_label[border]

    labels = np.empty(n, dtype=np.int64)
    labels[g.row] = label
    return DbscanResult(labels, eps, min_pts)


def _find(parent: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Roots of the nodes v; their parents are set to the roots."""
    root = parent[v]
    while True:
        up = parent[root]
        if np.array_equal(up, root):
            break
        root = up
    parent[v] = root
    return root


def _union(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join the sets of a[i] and b[i] for every i; a root is only ever hooked
    under a smaller one, so parent pointers cannot form a cycle."""
    while len(a):
        ra, rb = _find(parent, a), _find(parent, b)
        split = ra != rb
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        parent[np.maximum(ra, rb)] = np.minimum(ra, rb)


def _ranges(first: np.ndarray, length: np.ndarray, cap: int):
    """Chunks (k, v) of the concatenated ranges first[k] + 0..length[k]-1,
    at most cap elements each; k tells which range each v belongs to."""
    ends = np.cumsum(length)
    total = int(ends[-1]) if len(ends) else 0
    for lo in range(0, total, cap):
        pos = np.arange(lo, min(lo + cap, total))
        k = np.searchsorted(ends, pos, side="right")
        yield k, first[k] + (pos - (ends[k] - length[k]))


class _Grid:
    """The points of the coordinate rows xt bucketed into cubic cells, for
    DBSCAN's pair searches.

    Points are held at positions sorted by cell, so a cell is a run of
    positions; ``xt`` keeps the coordinate rows in that order. Every "within
    eps" decision is ``_sq(a, b) <= eps2`` on the coordinate rows of single
    pairs. Pair temporaries hold at most ``_PAIRS`` pairs.
    """

    def __init__(self, xt: np.ndarray, eps: float):
        d, n = xt.shape
        self.eps2 = eps * eps

        # a pair with _sq <= eps2 is closer than reach * (1 + 2**-50) in each
        # coordinate (the floor 2**-500 covers squares that underflow); cells
        # of side reach / sqrt(d), widened until |x / side| <= 2**40, so that
        # x / side is off by at most 2**-13 cells and such a pair lies at
        # most r = isqrt(d) + 1 cells apart in each coordinate
        reach = math.inf if math.isinf(self.eps2) else max(eps, 2.0**-500)
        maxabs = float(np.abs(xt).max(initial=0.0))
        side = max(reach / math.sqrt(d), maxabs * 2.0**-40)
        self.r = math.isqrt(d) + 1
        u = np.floor(xt / side).astype(np.int64)  # cell coordinates, one row per axis

        # the two coordinates with the most distinct cells lead the sort and
        # the range search in cell_pairs; fewer than two are padded with 0
        distinct = [len(np.unique(row)) for row in u]
        u = u[np.argsort(distinct, kind="stable")[::-1]]
        if d < 2:
            u = np.vstack([u, np.zeros((2 - d, n), dtype=np.int64)])
        self.row = np.lexsort(u[::-1])  # input row at each position
        u = u[:, self.row]
        new = np.ones(n, dtype=bool)
        new[1:] = np.any(u[:, 1:] != u[:, :-1], axis=0)
        self.first = np.flatnonzero(new)  # first position of each cell
        self.size = np.diff(np.append(self.first, n))
        self.cell = np.cumsum(new) - 1  # cell at each position
        self.coords = np.ascontiguousarray(u[:, self.first].T)  # one row per cell
        self.xt = xt[:, self.row]

        # rounding is monotone, so when the corners of a cell's bounding box
        # are within eps, so is every pair in the cell
        lo = np.minimum.reduceat(self.xt, self.first, axis=1)
        hi = np.maximum.reduceat(self.xt, self.first, axis=1)
        self.tight = _sq(hi, lo) <= self.eps2

    def cores_first(self, core: np.ndarray) -> np.ndarray:
        """Reorder each cell's positions to put its cores (flagged by
        position) first, rows ascending within each part. Sets self.core, the
        flags in the new order, and returns the number of cores per cell."""
        order = np.lexsort((~core, self.cell))
        self.row, self.xt, self.core = self.row[order], self.xt[:, order], core[order]
        return np.bincount(self.cell[self.core], minlength=len(self.first))

    def cell_pairs(self, src: np.ndarray, dst: np.ndarray, half: bool = False):
        """Chunks (ci, cj) of the source cells src and destination cells dst
        (ascending cell ids) at most r apart in every coordinate, only those
        with ci <= cj when half: a range search over the two leading
        coordinates, then a comparison of the others."""
        if not len(src) or not len(dst):
            return
        r = self.r
        cs, cd = self.coords[src], self.coords[dst]
        v0, rank0 = np.unique(cd[:, 0], return_inverse=True)
        v1, rank1 = np.unique(cd[:, 1], return_inverse=True)
        key = rank0 * len(v1) + rank1  # non-decreasing, as cells are sorted
        lo1 = np.searchsorted(v1, cs[:, 1] - r)
        hi1 = np.searchsorted(v1, cs[:, 1] + r, side="right")
        steps = range(0 if half else -r, r + 1)
        starts, lengths = [], []
        for step in steps:
            t = np.searchsorted(v0, cs[:, 0] + step)
            found = v0[np.minimum(t, len(v0) - 1)] == cs[:, 0] + step
            start = np.searchsorted(key, t * len(v1) + lo1)
            stop = np.searchsorted(key, t * len(v1) + hi1)
            if half and step == 0:
                start = np.maximum(start, np.searchsorted(dst, src))
            starts.append(start)
            lengths.append(np.where(found, np.maximum(stop - start, 0), 0))
        owner = np.tile(src, len(steps))
        for k, j in _ranges(np.concatenate(starts), np.concatenate(lengths), _PAIRS):
            ci, cj = owner[k], dst[j]
            for dim in range(2, self.coords.shape[1]):
                close = np.abs(self.coords[ci, dim] - self.coords[cj, dim]) <= r
                ci, cj = ci[close], cj[close]
            yield ci, cj

    def pairs(self, src, dst, src_first, src_size, dst_size, live=None):
        """Chunks (p, q, d2) of the position pairs from cell src[k] to cell
        dst[k]: p runs over positions src_first[c] + 0..src_size[c]-1 of a
        source cell c, q over the first dst_size[c] positions of a
        destination cell c.

        A row is one p with its destination cell c. live(p, c) flags the
        rows that still need pairs; it runs on the remaining rows before each
        batch of about _PAIRS pairs, so it may read what the caller gathered
        from earlier chunks.
        """
        for k, p in _ranges(src_first[src], src_size[src], _PAIRS):
            # the i-th row of every cell pair comes before any (i+1)-th, so a
            # pair that live() retires early costs few rows
            turn = np.argsort(p - src_first[src[k]], kind="stable")
            p, c = p[turn], dst[k[turn]]
            while len(p):
                if live is not None:
                    keep = live(p, c)
                    p, c = p[keep], c[keep]
                batch = max(1, int(np.searchsorted(np.cumsum(dst_size[c]), _PAIRS, side="right")))
                rp, rc = p[:batch], c[:batch]
                for k2, q in _ranges(self.first[rc], dst_size[rc], _PAIRS):
                    pp = rp[k2]
                    yield pp, q, _sq(self.xt[:, pp], self.xt[:, q])
                p, c = p[batch:], c[batch:]


# ---------------------------------------------------------------------------
# Gaussian mixture via EM

@dataclass(eq=False, frozen=True)
class GmmModel:
    weights: np.ndarray            # (k,), sums to 1
    means: np.ndarray              # (k, d)
    covariances: np.ndarray        # (k, d, d), symmetric positive definite
    log_likelihood: float
    iterations: int
    seed: int
    ridge: float
    log_likelihood_history: tuple[float, ...]
    stop_reason: str               # "tolerance", "max_iter" or "likelihood_fell"

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tolerance"

    def to_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "covariances": self.covariances.tolist(),
            "log_likelihood": self.log_likelihood,
            "iterations": self.iterations,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "seed": self.seed,
        }


def _cholesky(cov: np.ndarray) -> list[list[float]]:
    """The lower Cholesky factor of a symmetric positive definite d x d
    matrix, as rows of Python floats (scalar code: d is small)."""
    a = cov.tolist()
    d = len(a)
    chol = [[0.0] * d for _ in range(d)]
    for j in range(d):
        s = a[j][j]
        for p in range(j):
            s -= chol[j][p] * chol[j][p]
        if not s > 0:
            raise ValueError("covariance is not positive definite; increase ridge")
        chol[j][j] = math.sqrt(s)
        for i in range(j + 1, d):
            s = a[i][j]
            for p in range(j):
                s -= chol[i][p] * chol[j][p]
            chol[i][j] = s / chol[j][j]
    return chol


def _log_gaussian(xt: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Log density of N(mean, cov) at each point of the coordinate rows xt:
    a forward substitution through the Cholesky factor, one elementwise pass
    per coordinate."""
    d, n = xt.shape
    chol = _cholesky(cov)
    diff = xt - mean[:, None]
    maha = np.zeros(n)
    for i in range(d):
        z = diff[i]
        for p in range(i):
            z -= chol[i][p] * diff[p]
        z /= chol[i][i]
        maha += z * z
    log_det = 2.0 * math.fsum(math.log(chol[j][j]) for j in range(d))
    return -0.5 * (d * math.log(2.0 * math.pi) + log_det + maha)


def _log_resp(xt, weights, means, covs):
    n, k = xt.shape[1], len(weights)
    log_prob = np.empty((n, k))
    for j in range(k):
        log_prob[:, j] = math.log(weights[j]) + _log_gaussian(xt, means[j], covs[j])
    row_max = log_prob.max(axis=1, keepdims=True)
    log_norm = row_max[:, 0] + np.log(np.sum(np.exp(log_prob - row_max), axis=1))
    return log_prob - log_norm[:, None], float(np.sum(log_norm))


def gmm(
    data: np.ndarray,
    k: int,
    seed: int,
    max_iter: int = 200,
    tol: float = 1e-3,
    ridge: float = 1e-6,
) -> GmmModel:
    """Full-covariance Gaussian mixture fit by expectation-maximization.

    Initialization comes from a k-means run with the same seed. The E step
    works in log space (log-sum-exp); every M step adds ridge * I to the
    covariances, which keeps them positive definite.

    The fit stops when the log-likelihood gain per sample, (ll - ll_prev) / n,
    falls below tol, as scikit-learn's GaussianMixture does, or after
    max_iter E steps. ``stop_reason`` says which: ``tolerance`` (the only
    one that counts as ``converged``), ``likelihood_fell`` when the
    log-likelihood fell by tol per sample or more, or ``max_iter``. A tol of
    -inf runs every iteration.

    No step goes through LAPACK or BLAS: the Cholesky factors are scalar
    code and every sum over rows is a pairwise np.sum of elementwise
    products, so the fitted bits do not depend on the BLAS kernel.

    Raises:
        ValueError: a component's weight collapses below 1e-12, or a
            covariance is not positive definite; use a larger ridge or a
            smaller k; or max_iter < 1.
    """
    xt = _rows(data)
    d, n = xt.shape
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    km = kmeans(xt.T, k, seed)
    counts = np.bincount(km.labels, minlength=k)
    weights = np.maximum(counts, 1).astype(float)
    weights /= weights.sum()
    means = km.centroids.copy()
    covs = np.empty((k, d, d))
    for j in range(k):
        members = xt[:, km.labels == j] if counts[j] else xt
        diff = members - members.mean(axis=1, keepdims=True)
        covs[j] = _gram(diff) / members.shape[1] + ridge * np.eye(d)

    history: list[float] = []
    stop_reason = "max_iter"
    for it in range(1, max_iter + 1):
        log_resp, ll = _log_resp(xt, weights, means, covs)
        history.append(ll)
        gain = (ll - history[-2]) / n if it > 1 else math.inf
        if gain < tol:
            stop_reason = "tolerance" if abs(gain) < tol else "likelihood_fell"
            break
        if it == max_iter:
            break
        resp = np.exp(log_resp).T.copy()  # one contiguous row per component
        nj = resp.sum(axis=1)
        if np.any(nj / n < 1e-12):
            raise ValueError(
                "component collapse during EM; increase ridge or reduce k"
            )
        weights = nj / n
        means = np.array([[np.sum(r * c) for c in xt] for r in resp]) / nj[:, None]
        for j in range(k):
            covs[j] = _gram(xt - means[j][:, None], resp[j]) / nj[j] + ridge * np.eye(d)

    return GmmModel(
        weights=weights,
        means=means,
        covariances=covs,
        log_likelihood=history[-1],
        iterations=len(history),
        seed=seed,
        ridge=ridge,
        log_likelihood_history=tuple(history),
        stop_reason=stop_reason,
    )


def gmm_predict(model: GmmModel, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hard labels (argmax responsibility) and the responsibility matrix.

    Responsibility rows sum to 1.
    """
    xt = _rows(data)
    if len(xt) != model.means.shape[1]:
        raise ValueError(
            f"data has {len(xt)} features, model expects {model.means.shape[1]}"
        )
    log_resp, _ = _log_resp(xt, model.weights, model.means, model.covariances)
    resp = np.exp(log_resp)
    labels = np.argmax(resp, axis=1)
    labels.flags.writeable = False
    return labels, resp
