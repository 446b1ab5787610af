"""Brute-force pure-Python oracles used to cross-check the library.

Everything here is deliberately naive (sorted copies, multi-pass loops,
math.fsum) and shares no code with the implementations under test.
"""

from __future__ import annotations

import math


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
