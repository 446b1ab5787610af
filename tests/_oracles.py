"""Brute-force pure-Python oracles used to cross-check the library.

Everything here is deliberately naive (sorted copies, multi-pass loops,
math.fsum) and shares no code with the implementations under test. The
numpy oracles at the end are earlier, slower library kernels, kept as they
were so that their faster replacements can be held to the same bytes.
"""

from __future__ import annotations

import math

import numpy as np


def o_mean(xs):
    return math.fsum(xs) / len(xs)


def o_variance(xs):
    m = o_mean(xs)
    return math.fsum((x - m) ** 2 for x in xs) / (len(xs) - 1)


def o_std(xs):
    return math.sqrt(o_variance(xs))


def o_quantile(xs, p):
    s = sorted(xs)
    n = len(s)
    h = (n - 1) * p / 100.0
    lo = math.floor(h)
    hi = math.ceil(h)
    if lo == hi:
        return s[lo]
    return s[lo] + (h - lo) * (s[hi] - s[lo])


def o_median(xs):
    return o_quantile(xs, 50)


def o_mode_smallest(xs):
    counts = {}
    for x in xs:
        counts[x] = counts.get(x, 0) + 1
    best = max(counts.values())
    return min(x for x, c in counts.items() if c == best)


def o_skew_pearson2(xs):
    return 3.0 * (o_mean(xs) - o_median(xs)) / o_std(xs)


def o_skew_moment(xs):
    n = len(xs)
    m = o_mean(xs)
    m2 = math.fsum((x - m) ** 2 for x in xs) / n
    m3 = math.fsum((x - m) ** 3 for x in xs) / n
    g1 = m3 / m2**1.5
    return g1 * math.sqrt(n * (n - 1)) / (n - 2)


def o_kurtosis_excess(xs):
    n = len(xs)
    m = o_mean(xs)
    m2 = math.fsum((x - m) ** 2 for x in xs) / n
    m4 = math.fsum((x - m) ** 4 for x in xs) / n
    g2 = m4 / m2**2 - 3.0
    return ((n + 1) * g2 + 6.0) * (n - 1) / ((n - 2) * (n - 3))


def o_pearson(xs, ys):
    n = len(xs)
    mx, my = o_mean(xs), o_mean(ys)
    num = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = math.fsum((x - mx) ** 2 for x in xs)
    vy = math.fsum((y - my) ** 2 for y in ys)
    return num / math.sqrt(vx * vy)


def o_average_ranks(xs):
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    ranks = [0.0] * len(xs)
    i = 0
    while i < len(xs):
        j = i
        while j + 1 < len(xs) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for t in range(i, j + 1):
            ranks[order[t]] = avg
        i = j + 1
    return ranks


def o_kendall_tau_b(xs, ys):
    n = len(xs)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = xs[j] - xs[i]
            dy = ys[j] - ys[i]
            if dx == 0:
                ties_x += 1
            if dy == 0:
                ties_y += 1
            if dx == 0 or dy == 0:
                continue
            if (dx > 0) == (dy > 0):
                concordant += 1
            else:
                discordant += 1
    n0 = n * (n - 1) // 2
    denom = math.sqrt((n0 - ties_x) * (n0 - ties_y))
    return (concordant - discordant) / denom


def o_outlier_scan(values, missing, lower, upper):
    """Indices of present cells strictly outside [lower, upper]."""
    return [
        i
        for i, (v, m) in enumerate(zip(values, missing))
        if not m and (v < lower or v > upper)
    ]


def o_agglomerative(points, linkage):
    """Merges (a, b, distance, size) of Lance-Williams agglomerative clustering.

    points is a list of coordinate tuples; linkage is "single", "complete"
    or "average". Distances between live clusters sit in a dict keyed by
    (a, b) with a < b; the closest pair merges, ties going to the smallest
    (a, b), and the i-th merge creates cluster n + i.
    """
    n = len(points)
    dist = {}
    for a in range(n):
        for b in range(a + 1, n):
            dist[(a, b)] = math.sqrt(sum((p - q) ** 2 for p, q in zip(points[a], points[b])))
    size = {i: 1 for i in range(n)}
    merges = []
    for step in range(n - 1):
        dmin = min(dist.values())
        a, b = min(pair for pair, d in dist.items() if d == dmin)
        new, new_size = n + step, size[a] + size[b]
        merges.append((a, b, dmin, new_size))
        for c in size:
            if c in (a, b):
                continue
            da = dist.pop((min(a, c), max(a, c)))
            db = dist.pop((min(b, c), max(b, c)))
            if linkage == "single":
                dn = min(da, db)
            elif linkage == "complete":
                dn = max(da, db)
            else:
                dn = (size[a] * da + size[b] * db) / new_size
            dist[(c, new)] = dn
        del dist[(a, b)]
        del size[a], size[b]
        size[new] = new_size
    return merges


def o_cut(dendrogram, k):
    """Labels for k clusters of a dendrogram, replaying its first n-k merges
    on a dict of member lists (the library kernel before the reverse pass).
    Clusters are numbered 0..k-1 in order of their smallest member row."""
    n = dendrogram.n_points
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


def o_kendall_pairloop(a, b):
    """Kendall's tau-b of two float arrays, one row of the pair matrix at a
    time (the library kernel before Knight's method)."""
    n = len(a)
    if n < 2:
        raise ValueError("kendall tau needs >= 2 jointly present pairs")
    concordant_minus_discordant = 0
    ties_x = 0
    ties_y = 0
    for i in range(n - 1):
        sx = np.sign(a[i + 1 :] - a[i])
        sy = np.sign(b[i + 1 :] - b[i])
        concordant_minus_discordant += int(np.sum(sx * sy))
        ties_x += int(np.sum(sx == 0))
        ties_y += int(np.sum(sy == 0))
    n0 = n * (n - 1) // 2
    if ties_x == n0 or ties_y == n0:
        raise ValueError("kendall tau undefined: a variable is entirely tied")
    denom = math.sqrt((n0 - ties_x) * (n0 - ties_y))
    return concordant_minus_discordant / denom


def o_agglomerative_scan(x, linkage):
    """Merges (a, b, distance, size) of an n x d float array, scanning all
    n^2 matrix cells per merge (the library kernel before the row-minimum
    cache). linkage is "single", "complete" or "average"."""
    n = x.shape[0]

    # slot s holds one live cluster; a retired slot's row and column are
    # +inf, as is the diagonal, so neither can hold the minimum
    dist = np.sqrt(np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2))
    np.fill_diagonal(dist, np.inf)
    cluster_id = np.arange(n)
    size = np.ones(n, dtype=int)

    merges = []
    for step in range(n - 1):
        dmin = dist.min()
        rows, cols = np.divmod(np.flatnonzero(dist == dmin), n)
        ids_a = np.minimum(cluster_id[rows], cluster_id[cols])
        ids_b = np.maximum(cluster_id[rows], cluster_id[cols])
        best = np.lexsort((ids_b, ids_a))[0]
        si, sj = rows[best], cols[best]
        new_size = size[si] + size[sj]
        merges.append((int(ids_a[best]), int(ids_b[best]), float(dmin), int(new_size)))

        # Lance-Williams update: the merged cluster takes over slot si
        if linkage == "single":
            row = np.minimum(dist[si], dist[sj])
        elif linkage == "complete":
            row = np.maximum(dist[si], dist[sj])
        else:
            row = (size[si] * dist[si] + size[sj] * dist[sj]) / new_size
        row[si] = np.inf
        dist[si] = dist[:, si] = row
        dist[sj] = dist[:, sj] = np.inf
        cluster_id[si] = n + step
        size[si] = new_size
    return merges


def o_dbscan_lists(x, eps, min_pts):
    """DBSCAN labels of an n x d float array from stored neighbor lists, one
    per row, of every row within eps (the library kernel before the grid)."""
    n = x.shape[0]
    eps2 = eps * eps

    def neighbors(i: int) -> np.ndarray:
        d2 = np.sum((x - x[i]) ** 2, axis=1)
        return np.flatnonzero(d2 <= eps2)

    neighbor_lists = [neighbors(i) for i in range(n)]
    is_core = np.array([len(nb) >= min_pts for nb in neighbor_lists])

    labels = np.full(n, -1, dtype=int)
    cluster = -1
    for i in np.flatnonzero(is_core):
        if labels[i] != -1:
            continue
        cluster += 1
        labels[i] = cluster
        stack = [i]
        while stack:
            nb = neighbor_lists[stack.pop()]
            grown = nb[is_core[nb] & (labels[nb] == -1)]
            labels[grown] = cluster
            stack.extend(grown)

    for i in np.flatnonzero(~is_core):
        nb = neighbor_lists[i]
        core_nbrs = nb[is_core[nb]]
        if len(core_nbrs) == 0:
            continue
        d2 = np.sum((x[core_nbrs] - x[i]) ** 2, axis=1)
        labels[i] = labels[core_nbrs[d2 == d2.min()]].min()
    return tuple(int(v) for v in labels)


# The cell-by-cell CSV reader that array-backed columns replaced, kept as it
# was apart from returning plain (name, kind, cells) triples.


def _o_finite_reals(cells, distinct):
    joined = "".join(distinct)
    if not joined.isascii() or "_" in joined:
        return None
    try:
        values = [float(s) for s in cells]
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _o_check_cells(name, kind, values):
    for i, v in enumerate(values):
        if v is None:
            continue
        if kind == "numeric":
            if not isinstance(v, float) or not math.isfinite(v):
                raise ValueError(f"column {name!r} row {i}: numeric cell must be a finite float")
        elif kind == "categorical":
            if not isinstance(v, str) or v == "":
                raise ValueError(f"column {name!r} row {i}: categorical cell must be non-empty text")
        else:
            if v not in (0, 1) or isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"column {name!r} row {i}: boolean cell must be int 0 or 1")


def _o_typed_column(name, cells, opts, missing_set):
    marked = [None if s.casefold() in missing_set else s for s in (c.strip() for c in cells)]
    present = [s for s in marked if s is not None]
    distinct = set(present)
    if distinct and distinct <= {"0", "1"} and (name in opts.boolean_columns or len(distinct) == 2):
        kind, parsed = "boolean", [int(s) for s in present]
    elif distinct and (parsed := _o_finite_reals(present, distinct)) is not None:
        kind = "numeric"
    else:
        kind, parsed = "categorical", present
    it = iter(parsed)
    values = tuple(None if s is None else next(it) for s in marked)
    _o_check_cells(name, kind, values)
    return name, kind, values


def o_read_csv_cells(path, opts):
    """(name, kind value, cells) per column of a CSV, typed cell by cell (the
    library reader before array-backed columns), or the ValueError text.
    ``opts`` is a CsvOptions."""
    import csv
    from pathlib import Path

    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh, delimiter=opts.delimiter)
            try:
                first = next(reader)
            except StopIteration:
                raise ValueError(f"{path}: no header") from None
            if opts.has_header:
                names = [h.strip() for h in first]
                rows = []
            else:
                names = [f"col{i}" for i in range(len(first))]
                rows = [first]
            if any(not n for n in names):
                raise ValueError(f"{path}: empty header name")
            dupes = {n for n in names if names.count(n) > 1}
            if dupes:
                raise ValueError(f"{path}: duplicate header names: {sorted(dupes)}")
            n_cols = len(names)
            for row in reader:
                if len(row) != n_cols:
                    raise ValueError(
                        f"{path} line {reader.line_num}: expected {n_cols} fields, got {len(row)}"
                    )
                rows.append(row)
        missing_set = frozenset(t.strip().casefold() for t in opts.missing_tokens)
        return [
            _o_typed_column(name, [row[j] for row in rows], opts, missing_set)
            for j, name in enumerate(names)
        ]
    except ValueError as exc:
        return str(exc)


# The per-cell CSV number formatter that the whole-array one replaced, kept as
# it was.


def o_format_numeric(v: float) -> str:
    # integral floats print without the ".0"; both forms parse back to v
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


# The tuple-of-floats time-series kernels that the whole-array ones replaced,
# kept as they were: one np.mean or np.sum per output row, None where the
# trend is undefined. Each takes the series as a tuple of Python floats.


def o_moving_average(values, window):
    n = len(values)
    x = np.array(values)
    return tuple(float(np.mean(x[t : t + window])) for t in range(n - window + 1))


def o_decompose_additive(values, period):
    """(trend, seasonal, residual) tuples of the classical additive split."""
    n = len(values)
    x = np.array(values)

    half = period // 2
    trend = [None] * n
    if period % 2 == 1:
        for t in range(half, n - half):
            trend[t] = float(np.mean(x[t - half : t + half + 1]))
    else:
        for t in range(half, n - half):
            window = 0.5 * x[t - half] + float(np.sum(x[t - half + 1 : t + half])) + 0.5 * x[t + half]
            trend[t] = float(window / period)

    phase_sums = [0.0] * period
    phase_counts = [0] * period
    for t in range(n):
        if trend[t] is not None:
            phase_sums[t % period] += float(x[t]) - trend[t]
            phase_counts[t % period] += 1
    seasonal_index = [phase_sums[q] / phase_counts[q] for q in range(period)]
    center = sum(seasonal_index) / period
    seasonal_index = [float(v - center) for v in seasonal_index]

    seasonal = tuple(seasonal_index[t % period] for t in range(n))
    residual = tuple(
        None if trend[t] is None else float(x[t]) - trend[t] - seasonal[t] for t in range(n)
    )
    return tuple(trend), seasonal, residual


# The per-row fixture builder and cell blanker that block draws replaced
# (scripts/make_fixture.py), kept as they were apart from taking their
# settings as arguments: one scalar SplitMix64 call per value, in stream order.


def _o_gauss(rng, mean, std):
    total = 0.0
    for _ in range(12):  # in draw order, as Python 3.11's sum() adds; 3.12's compensates
        total += rng.random()
    return mean + std * (total - 6.0)


def o_build_fixture(n, seed, surnames):
    from edakit.rng import SplitMix64
    from edakit.table import Table, boolean_column, categorical_column, numeric_column

    rng = SplitMix64(seed)
    row_numbers = [float(i + 1) for i in range(n)]
    customer_ids = [float(15600000 + rng.randint(1_000_000)) for _ in range(n)]
    surname = [surnames[rng.randint(len(surnames))] for _ in range(n)]

    credit = [min(850.0, max(350.0, round(_o_gauss(rng, 650, 96)))) for _ in range(n)]
    credit[rng.randint(n)] = 850.0

    geo_labels = ("France", "Germany", "Spain")
    geography = [geo_labels[rng.choice_weighted([0.50, 0.25, 0.25])] for _ in range(n)]
    gender = ["Male" if rng.random() < 0.55 else "Female" for _ in range(n)]
    age = [float(max(18, round(_o_gauss(rng, 39, 10)))) for _ in range(n)]
    tenure = [float(rng.randint(11)) for _ in range(n)]
    balance = [
        0.0 if rng.random() < 0.3 else round(20000 + 180000 * rng.random(), 2)
        for _ in range(n)
    ]
    products = [float(1 + rng.choice_weighted([0.45, 0.45, 0.07, 0.03])) for _ in range(n)]
    has_card = [1 if rng.random() < 0.71 else 0 for _ in range(n)]
    active = [1 if rng.random() < 0.51 else 0 for _ in range(n)]
    salary = [round(1000 + 198000 * rng.random(), 2) for _ in range(n)]
    exited = [1 if rng.random() < 0.20 else 0 for _ in range(n)]

    columns = (
        numeric_column("RowNumber", row_numbers),
        numeric_column("CustomerId", customer_ids),
        categorical_column("Surname", surname),
        numeric_column("CreditScore", credit),
        categorical_column("Geography", geography),
        categorical_column("Gender", gender),
        numeric_column("Age", age),
        numeric_column("Tenure", tenure),
        numeric_column("Balance", balance),
        numeric_column("NumOfProducts", products),
        boolean_column("HasCrCard", has_card),
        boolean_column("IsActiveMember", active),
        numeric_column("EstimatedSalary", salary),
        boolean_column("Exited", exited),
    )
    return Table("churn_fixture", columns, n)


def o_blank_cells(t, share, seed, blank_columns):
    from edakit.rng import SplitMix64
    from edakit.table import Kind, boolean_column, categorical_column, numeric_column

    build = {Kind.NUMERIC: numeric_column, Kind.CATEGORICAL: categorical_column,
             Kind.BOOLEAN: boolean_column}
    rng = SplitMix64(seed)
    for name in blank_columns:
        c = t.column(name)
        age = t.column("Age").values
        cells = [
            None if rng.random() < share and not (name == "Balance" and age[i] is None) else v
            for i, v in enumerate(c.values)
        ]
        t = t.replace_column(build[c.kind](name, cells))
    return t
