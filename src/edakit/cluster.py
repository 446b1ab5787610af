"""Clustering: k-means (Lloyd + k-means++), agglomerative hierarchical
clustering, DBSCAN, and Gaussian mixtures fit by EM.

Every stochastic fit takes an integer seed feeding the package's portable
SplitMix64 generator, so identical seed and input give bit-identical
results. Distances are Euclidean throughout.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .pca import _validate_matrix
from .rng import SplitMix64


# ---------------------------------------------------------------------------
# k-means

@dataclass(eq=False, frozen=True)
class KMeansResult:
    labels: tuple[int, ...]
    centroids: np.ndarray
    inertia: float
    iterations: int
    seed: int
    inertia_history: tuple[float, ...]  # inertia after each assignment step

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "centroids": self.centroids.tolist(),
            "inertia": self.inertia,
            "iterations": self.iterations,
            "seed": self.seed,
        }


def _sq_distances(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # (n, k) squared Euclidean distances
    return np.sum((x[:, None, :] - centroids[None, :, :]) ** 2, axis=2)


def _kmeanspp_init(x: np.ndarray, k: int, rng: SplitMix64) -> np.ndarray:
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.randint(n)]
    d2 = np.sum((x - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        idx = rng.choice_weighted(d2.tolist())
        centroids[j] = x[idx]
        d2 = np.minimum(d2, np.sum((x - centroids[j]) ** 2, axis=1))
    return centroids


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
    x = _validate_matrix(data)
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside valid range 1..{n}")
    distinct = {tuple(row) for row in x}
    if k > len(distinct):
        raise ValueError(f"k={k} exceeds distinct points ({len(distinct)})")

    rng = SplitMix64(seed)
    centroids = _kmeanspp_init(x, k, rng)
    history: list[float] = []
    labels = np.full(n, -1, dtype=int)
    iterations = 0
    for _ in range(max_iter):
        d2 = _sq_distances(x, centroids)
        new_labels = np.argmin(d2, axis=1)
        history.append(float(np.sum(d2[np.arange(n), new_labels])))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        iterations += 1
        new_centroids = centroids.copy()
        for j in range(k):
            members = x[labels == j]
            if len(members):
                new_centroids[j] = members.mean(axis=0)
        empty = [j for j in range(k) if not np.any(labels == j)]
        if empty:
            point_dist = d2[np.arange(n), labels].copy()
            for j in empty:
                far = int(np.argmax(point_dist))
                new_centroids[j] = x[far]
                point_dist[far] = -1.0
        shift = float(np.max(np.sqrt(np.sum((new_centroids - centroids) ** 2, axis=1))))
        centroids = new_centroids
        if shift < tol:
            d2 = _sq_distances(x, centroids)
            labels = np.argmin(d2, axis=1)
            history.append(float(np.sum(d2[np.arange(n), labels])))
            break

    inertia = history[-1]
    return KMeansResult(
        labels=tuple(int(v) for v in labels),
        centroids=centroids,
        inertia=inertia,
        iterations=iterations,
        seed=seed,
        inertia_history=tuple(history),
    )


# ---------------------------------------------------------------------------
# agglomerative hierarchical clustering

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

    At each step the closest active pair merges; equal distances break
    toward the lexicographically smallest (a, b) cluster-id pair. Merge
    distances are non-decreasing for all three supported linkages.
    """
    x = _validate_matrix(data)
    n = x.shape[0]
    if n < 2:
        raise ValueError("agglomerative clustering needs >= 2 points")

    # slot arrays indexed 0..n-1; each active slot carries one live cluster
    dist = np.sqrt(_sq_distances(x, x))
    np.fill_diagonal(dist, np.inf)
    active = list(range(n))
    cluster_id = list(range(n))
    size = [1] * n

    merges: list[Merge] = []
    for step in range(n - 1):
        slots = np.array(active)
        sub = dist[np.ix_(slots, slots)]
        iu, ju = np.triu_indices(len(slots), k=1)
        vals = sub[iu, ju]
        dmin = float(vals.min())
        best = None
        for pos in np.flatnonzero(vals == dmin):
            si, sj = int(slots[iu[pos]]), int(slots[ju[pos]])
            ids = (
                min(cluster_id[si], cluster_id[sj]),
                max(cluster_id[si], cluster_id[sj]),
            )
            if best is None or ids < best[0]:
                best = (ids, si, sj)
        ids, si, sj = best
        new_size = size[si] + size[sj]
        merges.append(Merge(ids[0], ids[1], dmin, new_size))

        # Lance-Williams update of distances to the merged cluster
        for sk in active:
            if sk in (si, sj):
                continue
            dik, djk = dist[si, sk], dist[sj, sk]
            if linkage is Linkage.SINGLE:
                dn = min(dik, djk)
            elif linkage is Linkage.COMPLETE:
                dn = max(dik, djk)
            else:
                dn = (size[si] * dik + size[sj] * djk) / new_size
            dist[si, sk] = dist[sk, si] = dn
        cluster_id[si] = n + step
        size[si] = new_size
        active.remove(sj)
    return Dendrogram(tuple(merges), linkage, n)


def cut(dendrogram: Dendrogram, k: int) -> tuple[int, ...]:
    """Labels for k clusters: replay the first n-k merges.

    Clusters are numbered 0..k-1 in order of their smallest member row.
    """
    n = dendrogram.n_points
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside valid range 1..{n}")
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    for step, m in enumerate(dendrogram.merges[: n - k]):
        merged = members.pop(m.cluster_a) + members.pop(m.cluster_b)
        members[n + step] = merged
    groups = sorted(members.values(), key=min)
    labels = [0] * n
    for gi, group in enumerate(groups):
        for row in group:
            labels[row] = gi
    return tuple(labels)


# ---------------------------------------------------------------------------
# DBSCAN

@dataclass(frozen=True)
class DbscanResult:
    labels: tuple[int, ...]  # -1 marks noise
    eps: float
    min_pts: int

    def to_dict(self) -> dict:
        return {"labels": list(self.labels), "eps": self.eps, "min_pts": self.min_pts}


def dbscan(data: np.ndarray, eps: float, min_pts: int) -> DbscanResult:
    """Density clustering with closed-ball neighborhoods (distance <= eps).

    A core point has at least min_pts neighbors counting itself. Clusters
    are the connected components of core points (cores within eps of each
    other), numbered in first-visit order scanning rows ascending; border
    points attach to the cluster of their nearest core (distance ties to
    the lowest cluster id); everything else is noise (-1). Assigning
    borders by nearest core rather than by expansion order makes the
    induced partition invariant under row permutation.
    """
    x = _validate_matrix(data)
    if not eps > 0:
        raise ValueError("eps must be > 0")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    n = x.shape[0]
    eps2 = eps * eps

    def neighbors(i: int) -> np.ndarray:
        d2 = np.sum((x - x[i]) ** 2, axis=1)
        return np.flatnonzero(d2 <= eps2)

    neighbor_lists = [neighbors(i) for i in range(n)]
    is_core = np.array([len(nb) >= min_pts for nb in neighbor_lists])

    labels = np.full(n, -1, dtype=int)
    cluster = -1
    for i in range(n):
        if not is_core[i] or labels[i] != -1:
            continue
        cluster += 1
        queue = [i]
        labels[i] = cluster
        qi = 0
        while qi < len(queue):
            j = queue[qi]
            qi += 1
            for m in neighbor_lists[j]:
                if is_core[m] and labels[m] == -1:
                    labels[m] = cluster
                    queue.append(int(m))

    for i in range(n):
        if is_core[i]:
            continue
        core_nbrs = [int(m) for m in neighbor_lists[i] if is_core[m]]
        if not core_nbrs:
            continue
        d2 = np.sum((x[core_nbrs] - x[i]) ** 2, axis=1)
        best = min(
            (float(d2[t]), int(labels[core_nbrs[t]])) for t in range(len(core_nbrs))
        )
        labels[i] = best[1]
    return DbscanResult(tuple(int(v) for v in labels), eps, min_pts)


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

    @property
    def n_components(self) -> int:
        return len(self.weights)

    def to_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "covariances": self.covariances.tolist(),
            "log_likelihood": self.log_likelihood,
            "iterations": self.iterations,
            "seed": self.seed,
        }


def _log_gaussian(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    d = x.shape[1]
    chol = np.linalg.cholesky(cov)
    solved = np.linalg.solve(chol, (x - mean).T)
    maha = np.sum(solved**2, axis=0)
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * (d * math.log(2.0 * math.pi) + log_det + maha)


def _log_resp(x, weights, means, covs):
    n, k = x.shape[0], len(weights)
    log_prob = np.empty((n, k))
    for j in range(k):
        log_prob[:, j] = math.log(weights[j]) + _log_gaussian(x, means[j], covs[j])
    row_max = log_prob.max(axis=1, keepdims=True)
    log_norm = row_max[:, 0] + np.log(np.sum(np.exp(log_prob - row_max), axis=1))
    return log_prob - log_norm[:, None], float(np.sum(log_norm))


def gmm(
    data: np.ndarray,
    k: int,
    seed: int,
    max_iter: int = 200,
    tol: float = 1e-8,
    ridge: float = 1e-6,
) -> GmmModel:
    """Full-covariance Gaussian mixture fit by expectation-maximization.

    Initialization comes from a k-means run with the same seed. The E step
    works in log space (log-sum-exp); every M step symmetrizes the
    covariances and adds ridge * I, which keeps them positive definite.
    Stops when the log-likelihood gain drops below tol.

    Raises:
        ValueError: a component's weight collapses below 1e-12; use a larger
            ridge or a smaller k.
    """
    x = _validate_matrix(data)
    n, d = x.shape
    km = kmeans(x, k, seed)
    labels = np.array(km.labels)
    weights = np.array([max(np.sum(labels == j), 1) for j in range(k)], dtype=float)
    weights /= weights.sum()
    means = km.centroids.copy()
    covs = np.empty((k, d, d))
    for j in range(k):
        members = x[labels == j]
        if len(members) == 0:
            members = x
        diff = members - members.mean(axis=0)
        covs[j] = diff.T @ diff / len(members) + ridge * np.eye(d)

    history: list[float] = []
    ll_prev: Optional[float] = None
    iterations = 0
    for it in range(1, max_iter + 1):
        log_resp, ll = _log_resp(x, weights, means, covs)
        history.append(ll)
        iterations = it
        if ll_prev is not None and ll - ll_prev < tol:
            break
        if it == max_iter:
            break
        resp = np.exp(log_resp)
        nj = resp.sum(axis=0)
        if np.any(nj / n < 1e-12):
            raise ValueError(
                "component collapse during EM; increase ridge or reduce k"
            )
        weights = nj / n
        means = (resp.T @ x) / nj[:, None]
        for j in range(k):
            diff = x - means[j]
            cov = (resp[:, j][:, None] * diff).T @ diff / nj[j]
            covs[j] = (cov + cov.T) / 2.0 + ridge * np.eye(d)
        ll_prev = ll

    return GmmModel(
        weights=weights,
        means=means,
        covariances=covs,
        log_likelihood=history[-1],
        iterations=iterations,
        seed=seed,
        ridge=ridge,
        log_likelihood_history=tuple(history),
    )


def gmm_predict(model: GmmModel, data: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """Hard labels (argmax responsibility) and the responsibility matrix.

    Responsibility rows sum to 1.
    """
    x = _validate_matrix(data)
    if x.shape[1] != model.means.shape[1]:
        raise ValueError(
            f"data has {x.shape[1]} features, model expects {model.means.shape[1]}"
        )
    log_resp, _ = _log_resp(x, model.weights, model.means, model.covariances)
    resp = np.exp(log_resp)
    labels = tuple(int(v) for v in np.argmax(resp, axis=1))
    return labels, resp
