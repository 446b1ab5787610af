"""Output checks against independent oracles (numpy and scipy).

edakit never imports scipy, and computes none of its results with the numpy
routines used here (corrcoef, median, percentile, unique, eigh, convolve).
Each check takes the command's input tables (edakit Table objects built by
the fixture generator), its stdout bytes and its output path, and returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
from scipy import sparse, stats
from scipy.sparse import csgraph
from scipy.special import logsumexp

CORR_TOL = 1e-9
REL_TOL = 1e-8


def column(table, name: str) -> np.ndarray:
    """Float array of a numeric or boolean column, NaN at missing cells."""
    values = next(c for c in table.columns if c.name == name).values
    return np.array([np.nan if v is None else float(v) for v in values])


def labels_of(table, name: str) -> list:
    return list(next(c for c in table.columns if c.name == name).values)


def matrix(table, names) -> np.ndarray:
    return np.column_stack([column(table, n) for n in names])


def _close(got, want, rel=REL_TOL) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


def _compare_matrix(name, labels, values, oracle) -> list[str]:
    problems = []
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            got = values[i][j]
            if got is None or abs(got - oracle(i, j)) > CORR_TOL:
                problems.append(f"{name}[{a},{b}] = {got}, oracle {oracle(i, j)}")
    return problems[:5]


def churn_report(tables, stdout: bytes, out: Path) -> list[str]:
    t = tables["churn"]
    doc = json.loads(stdout)
    problems = []
    exited = column(t, "Exited")
    if not _close(doc["churn_rate"], float(np.mean(exited)), 1e-12):
        problems.append(f"churn_rate {doc['churn_rate']} != mean(Exited) {np.mean(exited)}")
    if doc["row_count"] != t.row_count:
        problems.append(f"row_count {doc['row_count']} != {t.row_count}")
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    corr = report["correlation_matrix"]
    r = np.corrcoef(matrix(t, corr["labels"]), rowvar=False)
    problems += _compare_matrix("pearson", corr["labels"], corr["values"], lambda i, j: r[i, j])
    plots = sorted(p.name for p in (out / "plots").glob("*.svg"))
    if len(plots) != 7 or not (out / "report.md").is_file():
        problems.append(f"expected report.md and 7 SVG plots, found {plots}")
    return problems


def clean(tables, stdout: bytes, out: Path) -> list[str]:
    """Imputed cells, clipped values and one-hot rows of ``eda clean``."""
    t = tables["clean_in"]
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    if len(body) != t.row_count:
        return [f"{len(body)} output rows, input has {t.row_count}"]
    cols = {name: [row[i] for row in body] for i, name in enumerate(header)}
    problems = []

    def numeric(name):
        cells = cols[name]
        if any(c == "" for c in cells):
            problems.append(f"{name} still has missing cells")
            return None
        return np.array([float(c) for c in cells])

    def check_fill(name, fill):
        got, x = numeric(name), column(t, name)
        if got is None:
            return
        gap = np.isnan(x)
        if not np.allclose(got[gap], fill, rtol=1e-12, atol=0):
            problems.append(f"{name} imputed cells differ from {fill}")
        if not np.array_equal(got[~gap], x[~gap]):
            problems.append(f"{name} present cells changed")

    age, balance, card = column(t, "Age"), column(t, "Balance"), column(t, "HasCrCard")
    check_fill("Age", float(np.median(age[~np.isnan(age)])))
    check_fill("Balance", float(np.mean(balance[~np.isnan(balance)])))
    check_fill("HasCrCard", _mode(card[~np.isnan(card)]))

    score = column(t, "CreditScore")
    q1, q3 = np.percentile(score, [25, 75])
    lower, upper = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
    got = numeric("CreditScore")
    if got is not None:
        if not np.allclose(got, np.clip(score, lower, upper), rtol=1e-12, atol=0):
            problems.append(f"CreditScore not clipped to the type-7 IQR fences [{lower}, {upper}]")

    geo = labels_of(t, "Geography")
    present = [g for g in geo if g is not None]
    labels = sorted(set(present))
    counts = {g: present.count(g) for g in labels}
    mode = min(g for g in labels if counts[g] == max(counts.values()))
    onehot = [f"Geography={g}" for g in labels]
    if "Geography" in cols or any(name not in cols for name in onehot):
        problems.append(f"one-hot columns {onehot} expected in place of Geography, got {header}")
        return problems
    bits = np.column_stack([numeric(name) for name in onehot])
    if not np.all(bits.sum(axis=1) == 1):
        problems.append("one-hot rows do not sum to 1")
    want = np.array([labels.index(mode if g is None else g) for g in geo])
    if not np.array_equal(np.argmax(bits, axis=1), want):
        problems.append("one-hot rows do not mark the (mode-imputed) Geography label")
    for name in ("RowNumber", "Tenure", "NumOfProducts", "EstimatedSalary", "Exited"):
        got = numeric(name)
        if got is not None and not np.array_equal(got, column(t, name)):
            problems.append(f"untouched column {name} changed")
    return problems


def _mode(x: np.ndarray) -> float:
    values, counts = np.unique(x, return_counts=True)
    return float(values[np.argmax(counts)])  # np.unique sorts, so ties go to the smallest


def corr(method: str):
    def check(tables, stdout: bytes, out: Path) -> list[str]:
        doc = json.loads(stdout)
        x = matrix(tables["main"], doc["labels"])
        if method == "spearman":
            r = stats.spearmanr(x).statistic
            oracle = lambda i, j: r[i, j]
        else:
            oracle = lambda i, j: 1.0 if i == j else stats.kendalltau(x[:, i], x[:, j]).statistic
        return _compare_matrix(method, doc["labels"], doc["values"], oracle)

    return check


def hier(k: int):
    def check(tables, stdout: bytes, out: Path) -> list[str]:
        doc = json.loads(stdout)
        n = tables["hier"].row_count
        merges = doc["merges"]
        heights = np.array([m["distance"] for m in merges])
        problems = []
        if len(merges) != n - 1 or merges[-1]["size"] != n:
            problems.append(f"{len(merges)} merges for {n} points")
        if np.any(np.diff(heights) < -1e-12 * max(1.0, float(heights.max()))):
            problems.append("merge heights decrease")
        if len(doc["labels"]) != n or len(set(doc["labels"])) != k:
            problems.append(f"cut to {k} clusters gave {len(set(doc['labels']))}")
        return problems

    return check


def dbscan(eps: float, min_pts: int):
    """Cores, core components and border/noise labels, rebuilt with scipy."""

    def check(tables, stdout: bytes, out: Path) -> list[str]:
        doc = json.loads(stdout)
        x = matrix(tables["main"], doc["columns"])
        labels = np.array(doc["labels"])
        n = len(x)
        rows, cols = [], []
        for start in range(0, n, 512):
            d2 = np.sum((x[start:start + 512, None, :] - x[None, :, :]) ** 2, axis=2)
            r, c = np.nonzero(d2 <= eps * eps)
            rows.append(r + start)
            cols.append(c)
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        adjacency = sparse.csr_matrix((np.ones(len(rows), dtype=np.int32), (rows, cols)), shape=(n, n))
        core = np.asarray(adjacency.sum(axis=1)).ravel() >= min_pts
        problems = []
        n_comp, comp = csgraph.connected_components(adjacency[core][:, core], directed=False)
        core_labels = labels[core]
        if np.any(core_labels < 0):
            problems.append("a core point is labelled noise")
        pairs = set(zip(comp.tolist(), core_labels.tolist()))
        if len(pairs) != n_comp or len({lab for _, lab in pairs}) != n_comp:
            problems.append("clusters are not the connected components of core points")
        core_idx = np.flatnonzero(core)
        for i in np.flatnonzero(~core):
            nbrs = adjacency.indices[adjacency.indptr[i]:adjacency.indptr[i + 1]]
            nbr_cores = nbrs[core[nbrs]]
            allowed = set(labels[nbr_cores].tolist()) if len(nbr_cores) else {-1}
            if labels[i] not in allowed:
                problems.append(f"point {i} has label {labels[i]}, expected one of {sorted(allowed)}")
                break
        if n_comp < 2 or len(core_idx) == 0:
            problems.append(f"{n_comp} clusters: the workload needs more than one cluster and not all noise")
        return problems

    return check


def gmm(tables, stdout: bytes, out: Path) -> list[str]:
    doc = json.loads(stdout)
    x = matrix(tables["main"], doc["columns"])
    w = np.array(doc["weights"])
    log_prob = np.column_stack([
        np.log(w[j]) + stats.multivariate_normal(doc["means"][j], doc["covariances"][j]).logpdf(x)
        for j in range(len(w))
    ])
    ll = float(np.sum(logsumexp(log_prob, axis=1)))
    problems = []
    if not _close(w.sum(), 1.0, 1e-12):
        problems.append(f"mixture weights sum to {w.sum()}")
    if not _close(doc["log_likelihood"], ll):
        problems.append(f"log-likelihood {doc['log_likelihood']}, oracle {ll}")
    if len(doc["labels"]) != len(x):
        problems.append("one label per row expected")
    return problems


def kmeans(tables, stdout: bytes, out: Path) -> list[str]:
    doc = json.loads(stdout)
    x = matrix(tables["main"], doc["columns"])
    centroids = np.array(doc["centroids"])
    labels = np.array(doc["labels"])
    d2 = np.sum((x[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    inertia = float(np.sum(d2[np.arange(len(x)), labels]))
    problems = []
    if not _close(doc["inertia"], inertia):
        problems.append(f"inertia {doc['inertia']}, recomputed {inertia}")
    if np.any(d2[np.arange(len(x)), labels] > d2.min(axis=1) * (1 + 1e-12)):
        problems.append("a point is not assigned to its nearest centroid")
    return problems


def pca(tables, stdout: bytes, out: Path) -> list[str]:
    doc = json.loads(stdout)
    x = matrix(tables["main"], doc["columns"])
    z = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
    eigvals = np.linalg.eigh(z.T @ z / (len(z) - 1))[0][::-1]
    got = doc["explained_variance"]
    return [
        f"explained variance {i}: {g}, eigh {e}"
        for i, (g, e) in enumerate(zip(got, eigvals))
        if not _close(g, float(e))
    ]


def decompose(column_name: str, period: int):
    def check(tables, stdout: bytes, out: Path) -> list[str]:
        doc = json.loads(stdout)
        x = column(tables["main"], column_name)
        weights = np.ones(period + 1 - period % 2)
        if period % 2 == 0:
            weights[0] = weights[-1] = 0.5
        ma = np.convolve(x, weights / period, mode="valid")
        half = period // 2
        trend = np.array([np.nan if v is None else v for v in doc["trend"]])
        seasonal, residual = np.array(doc["seasonal"]), doc["residual"]
        problems = []
        if not np.allclose(trend[half:len(x) - half], ma, rtol=1e-9, atol=1e-9 * np.abs(x).max()):
            problems.append("trend differs from the centered moving average")
        if abs(seasonal[:period].sum()) > 1e-9 * np.abs(x).max():
            problems.append("seasonal component does not sum to 0 over one period")
        for t in range(half, len(x) - half):
            if not _close(trend[t] + seasonal[t] + residual[t], x[t], 1e-9):
                problems.append(f"trend + seasonal + residual != x at {t}")
                break
        return problems

    return check
