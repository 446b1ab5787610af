#!/usr/bin/env python3
"""Scaling curve of edakit's super-linear kernels, timed in-process.

Times Kendall's tau-b on one column pair (CreditScore, Age) and
agglomerative clustering of the CreditScore,Age matrix under each linkage,
at each size in --sizes. Every input is a ``scripts/make_fixture`` table
built with ``N`` set to the size and ``SEED = 5``. A time is the median of
--repeats calls; building the table is not timed.

A kernel skips the sizes whose estimated time exceeds CAP_S seconds,
estimated as its last median times the cube of the size ratio (the worst
growth of the kernels timed). Agglomerative clustering also skips the sizes
whose distance matrix build would exceed MAX_MB: it peaks at about
8 n^2 (d + 1) bytes.

Prints one JSON object. Usage (from the repository root):

    python3 scripts/scaling.py [--sizes 1000,2000,5000,10000] [--repeats 3]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "scripts"))

import make_fixture  # noqa: E402
from edakit.assoc import kendall_tau  # noqa: E402
from edakit.cluster import Linkage, agglomerative  # noqa: E402

SEED = 5
KENDALL_PAIR = ("CreditScore", "Age")
CLUSTER_COLUMNS = ("CreditScore", "Age")
CAP_S = 60.0
MAX_MB = 1000.0


def fixture(n: int):
    make_fixture.N, make_fixture.SEED = n, SEED
    return make_fixture.build_fixture()


def kernels(t) -> dict:
    """Name -> (zero-argument call, its peak bytes estimate or None)."""
    x, y = (t.column(name) for name in KENDALL_PAIR)
    data = np.column_stack([t.column(name).values for name in CLUSTER_COLUMNS]).astype(float)
    n, d = data.shape
    calls = {"kendall_pair": (lambda: kendall_tau(x, y), None)}
    for linkage in Linkage:
        calls[f"agglomerative_{linkage.value}"] = (
            lambda linkage=linkage: agglomerative(data, linkage), 8 * n * n * (d + 1))
    return calls


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sizes", default="1000,2000,5000,10000",
                   help="comma-separated row counts, ascending")
    p.add_argument("--repeats", type=int, default=3)
    args = p.parse_args()
    sizes = sorted(int(s) for s in args.sizes.split(","))

    curves: dict = {}
    last: dict = {}  # kernel -> (n, median seconds) of its last timed size
    for n in sizes:
        for name, (call, peak_bytes) in kernels(fixture(n)).items():
            curve = curves.setdefault(name, {"seconds": {}, "skipped": {}})
            if name in last:
                prev_n, prev_s = last[name]
                estimate = prev_s * (n / prev_n) ** 3
                if estimate > CAP_S:
                    curve["skipped"][str(n)] = f"estimated {estimate:.0f} s > {CAP_S:g} s"
                    continue
            if peak_bytes is not None and peak_bytes / 1e6 > MAX_MB:
                curve["skipped"][str(n)] = f"estimated {peak_bytes / 1e6:.0f} MB > {MAX_MB:g} MB"
                continue
            times = []
            for _ in range(args.repeats):
                start = time.perf_counter()
                call()
                times.append(time.perf_counter() - start)
            last[name] = (n, statistics.median(times))
            curve["seconds"][str(n)] = round(last[name][1], 4)

    print(json.dumps({
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__},
        "seed": SEED,
        "repeats": args.repeats,
        "kernels": curves,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
