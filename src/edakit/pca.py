"""Principal component analysis via covariance eigendecomposition.

The eigensolver is a self-contained cyclic Jacobi rotation scheme for dense
symmetric matrices. Feature counts here are small (tens at most), where
Jacobi is simple, accurate, and deterministic; tests cross-check it against
an independent dense solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .stats import _centered


def jacobi_eigh(matrix: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100):
    """Eigenvalues and eigenvectors of a symmetric matrix by cyclic Jacobi.

    Sweeps rotate away each off-diagonal entry in a fixed (p, q) order until
    the off-diagonal Frobenius mass falls below tol times the matrix norm.

    Returns:
        (eigenvalues, eigenvectors): 1-D array and a matrix whose COLUMNS
        are the corresponding eigenvectors, in no particular order.
    """
    a = np.array(matrix, dtype=float)
    d = a.shape[0]
    if a.shape != (d, d):
        raise ValueError("matrix must be square")
    if not np.allclose(a, a.T, atol=1e-10):
        raise ValueError("matrix must be symmetric")
    v = np.eye(d)
    norm = math.sqrt(float(np.sum(a * a)))
    if norm == 0:
        return np.zeros(d), v
    threshold = tol * norm
    for _ in range(max_sweeps):
        off = math.sqrt(max(0.0, float(np.sum(a**2) - np.sum(np.diag(a) ** 2))))
        if off <= threshold:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                if abs(apq) <= threshold / (d * d):
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                rot_p = c * v[:, p] - s * v[:, q]
                rot_q = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = rot_p, rot_q
    return np.diag(a).copy(), v


@dataclass(eq=False, frozen=True)
class PcaModel:
    """Fitted components; rows of ``components`` are orthonormal directions.

    ``scales`` is None for plain covariance PCA; correlation-style fits
    (standardize=True) store the per-feature sample stds applied after
    centering, so transform/reconstruct stay consistent with the fit.
    """

    means: np.ndarray
    components: np.ndarray          # (k, d)
    explained_variance: np.ndarray  # (k,), descending
    explained_ratio: np.ndarray     # (k,), fractions of total variance
    scales: Optional[np.ndarray] = None

    @property
    def n_features(self) -> int:
        return len(self.means)

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    def to_dict(self) -> dict:
        return {
            "means": self.means.tolist(),
            "components": self.components.tolist(),
            "explained_variance": self.explained_variance.tolist(),
            "explained_ratio": self.explained_ratio.tolist(),
            "scales": None if self.scales is None else self.scales.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PcaModel":
        scales = d.get("scales")
        return cls(
            means=np.array(d["means"], dtype=float),
            components=np.array(d["components"], dtype=float),
            explained_variance=np.array(d["explained_variance"], dtype=float),
            explained_ratio=np.array(d["explained_ratio"], dtype=float),
            scales=None if scales is None else np.array(scales, dtype=float),
        )


def _validate_matrix(data: np.ndarray) -> np.ndarray:
    # every fit reads one layout, whatever the caller's memory order: numpy
    # sums pairwise only along the axis that is contiguous in memory, so the
    # layout would change the rounding (the clustering fits then lay the C
    # order matrix out as coordinate rows)
    x = np.ascontiguousarray(data, dtype=float)
    if x.ndim != 2:
        raise ValueError("data must be a 2-D matrix")
    if x.shape[1] == 0:
        raise ValueError("data must have at least one column")
    if not np.all(np.isfinite(x)):
        raise ValueError("data contains missing or non-finite cells; impute first")
    return x


def _gram(dt: np.ndarray, w=1.0) -> np.ndarray:
    """The d x d sum over rows r of w[r] * dt[:, r] * dt[:, r].T, for dt
    holding one contiguous row per coordinate.

    Each entry is one pairwise np.sum of an elementwise product, taken once
    for both triangles, so the result is exactly symmetric and its bits do
    not depend on the BLAS kernel.
    """
    d = len(dt)
    out = np.empty((d, d))
    for i in range(d):
        wi = w * dt[i]
        for j in range(i, d):
            out[i, j] = out[j, i] = np.sum(wi * dt[j])
    return out


def fit_pca(data: np.ndarray, k: int, standardize: bool = False) -> PcaModel:
    """Fit k principal components to an n x d matrix.

    Centers by column means (and optionally scales by column sample std for
    correlation-style PCA), eigendecomposes the sample covariance, and keeps
    the k largest components. Sign convention: each component's
    largest-magnitude entry is positive, making output deterministic.
    The covariance is a ``_gram`` of the centered coordinate rows, not a BLAS
    product, so its bits do not depend on the BLAS kernel.

    Raises:
        ValueError: k outside 1..min(n-1, d), non-finite cells, or data with
            zero total variance ("degenerate data").
    """
    x = _validate_matrix(data)
    n, d = x.shape
    if n < 2:
        raise ValueError("PCA needs at least 2 rows")
    if not 1 <= k <= min(n - 1, d):
        raise ValueError(f"k={k} outside valid range 1..{min(n - 1, d)}")
    means, centered, ss = _centered(x)
    scales = None
    if standardize:
        scales = np.sqrt(ss / (n - 1))
        if np.any(scales == 0):
            raise ValueError("degenerate data: constant column under standardization")
        centered = centered / scales
    cov = _gram(np.ascontiguousarray(centered.T)) / (n - 1)
    total = float(np.trace(cov))
    if total == 0:
        raise ValueError("degenerate data: zero total variance")
    eigvals, eigvecs = jacobi_eigh(cov)
    eigvals = np.maximum(eigvals, 0.0)  # clip rounding noise on a PSD matrix
    order = np.argsort(-eigvals, kind="stable")
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    components = eigvecs[:, :k].T.copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    explained = eigvals[:k]
    return PcaModel(
        means=means,
        components=components,
        explained_variance=explained,
        explained_ratio=explained / total,
        scales=scales,
    )


def transform_pca(model: PcaModel, data: np.ndarray) -> np.ndarray:
    """Project rows onto the fitted components: (data - means) @ components.T."""
    x = _validate_matrix(data)
    if x.shape[1] != model.n_features:
        raise ValueError(
            f"data has {x.shape[1]} features, model expects {model.n_features}"
        )
    centered = x - model.means
    if model.scales is not None:
        centered = centered / model.scales
    return centered @ model.components.T


def reconstruct(model: PcaModel, scores: np.ndarray) -> np.ndarray:
    """Inverse of transform_pca: scores @ components + means."""
    s = np.asarray(scores, dtype=float)
    if s.ndim != 2 or s.shape[1] != model.n_components:
        raise ValueError(
            f"scores must be 2-D with {model.n_components} columns"
        )
    x = s @ model.components
    if model.scales is not None:
        x = x * model.scales
    return x + model.means
