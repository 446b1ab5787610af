#!/usr/bin/env python3
"""Scaling curve of edakit's super-linear kernels and of its CSV and churn
pipeline paths, timed in-process.

Times Kendall's tau-b on one column pair (CreditScore, Age),
agglomerative clustering of the CreditScore,Age matrix under each linkage,
k-means and the Gaussian mixture fit of that matrix (k 3, seed 1729, the
CLI's default seed), DBSCAN of the Balance,Age matrix (eps 500, min_pts 10,
as in the benchmark) and of a standard-normal matrix of 9 columns drawn with
``SEED`` (eps 1.5, min_pts 5; ``dbscan_d9``, where the grid's cells admit
most pairs), the additive decomposition (period 12) and the
moving average (window 7) of the Balance series, ``read_csv`` of the whole
table, of the Balance column alone (as ``eda timeseries --column`` reads it)
and of the 11 columns ``eda churn-report`` reads (all but
``report.DROPPABLE``), ``write_csv`` of the whole table, ``churn_pipeline``
on it, ``plot_scatter``
of CreditScore against Age (the churn report's scatter) written to an SVG
file, since its markers are laid out as the file is written, and the JSON
text of the decomposition (``eda timeseries --op decompose``'s payload, built
before timing) written through ``stats._write_json``, at each size in
--sizes. ``read_csv`` reads a file that ``write_csv`` wrote to a temporary
directory before timing, and the written files go to the same directory. Every
input but ``dbscan_d9``'s is a ``scripts/make_fixture`` table built with
``N`` set to the size and ``SEED = 5``. A time is the median of --repeats calls; building the table
is not timed. One more call runs under ``tracemalloc`` for the kernel's
peak of traced memory, which is reported in MB.

A kernel skips the sizes whose estimated time exceeds CAP_S seconds,
estimated as its last median times the cube of the size ratio (the worst
growth of the kernels timed). Agglomerative clustering also skips the sizes
whose distance matrix would exceed MAX_MB: it peaks at about 8 n^2 bytes
plus the running sums and one coordinate term of a block of rows, under
1 MB.

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
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "scripts"))

import make_fixture  # noqa: E402
from edakit.assoc import kendall_tau  # noqa: E402
from edakit.cluster import Linkage, agglomerative, dbscan, gmm, kmeans  # noqa: E402
from edakit.report import DROPPABLE, churn_pipeline  # noqa: E402
from edakit.stats import _write_json  # noqa: E402
from edakit.table import numeric_values, read_csv, write_csv  # noqa: E402
from edakit.timeseries import decompose_additive, moving_average, series  # noqa: E402
from edakit.viz import plot_scatter  # noqa: E402

SEED = 5
KENDALL_PAIR = ("CreditScore", "Age")
CLUSTER_COLUMNS = ("CreditScore", "Age")
FIT_K, FIT_SEED = 3, 1729
DBSCAN_COLUMNS = ("Balance", "Age")
DBSCAN_EPS, DBSCAN_MIN_PTS = 500.0, 10
D9_COLUMNS, D9_EPS, D9_MIN_PTS = 9, 1.5, 5
SERIES_COLUMN = "Balance"
DECOMPOSE_PERIOD, MA_WINDOW = 12, 7
SCATTER_PAIR = ("CreditScore", "Age")
CAP_S = 60.0
MAX_MB = 1000.0


def fixture(n: int):
    make_fixture.N, make_fixture.SEED = n, SEED
    return make_fixture.build_fixture()


def matrix(t, columns) -> np.ndarray:
    return np.column_stack([t.column(name).values for name in columns]).astype(float)


def kernels(t, scratch: Path) -> dict:
    """Name -> (zero-argument call, its peak bytes estimate or None).

    Files go to the directory ``scratch``."""
    x, y = (t.column(name) for name in KENDALL_PAIR)
    data = matrix(t, CLUSTER_COLUMNS)
    density = matrix(t, DBSCAN_COLUMNS)
    n = t.row_count
    calls = {"kendall_pair": (lambda: kendall_tau(x, y), None)}
    for linkage in Linkage:
        calls[f"agglomerative_{linkage.value}"] = (
            lambda linkage=linkage: agglomerative(data, linkage), 8 * n * n + 2**20)
    calls["kmeans"] = (lambda: kmeans(data, FIT_K, FIT_SEED), None)
    calls["gmm"] = (lambda: gmm(data, FIT_K, FIT_SEED), None)
    calls["dbscan"] = (lambda: dbscan(density, DBSCAN_EPS, DBSCAN_MIN_PTS), None)
    normal = np.random.default_rng(SEED).standard_normal((n, D9_COLUMNS))
    calls["dbscan_d9"] = (lambda: dbscan(normal, D9_EPS, D9_MIN_PTS), None)
    s = series(numeric_values(t.column(SERIES_COLUMN)))
    calls["decompose"] = (lambda: decompose_additive(s, DECOMPOSE_PERIOD), None)
    payload = {"op": "decompose", **decompose_additive(s, DECOMPOSE_PERIOD).to_dict()}
    calls["moving_average"] = (lambda: moving_average(s, MA_WINDOW), None)
    source = scratch / "table.csv"
    write_csv(t, source)
    calls["read_csv"] = (lambda: read_csv(source), None)
    calls["read_csv_1col"] = (lambda: read_csv(source, keep=lambda name: name == SERIES_COLUMN), None)
    calls["read_csv_11col"] = (lambda: read_csv(source, keep=lambda name: name not in DROPPABLE), None)
    calls["write_csv"] = (lambda: write_csv(t, scratch / "written.csv"), None)
    calls["churn_pipeline"] = (lambda: churn_pipeline(t), None)
    sx, sy = (t.column(name) for name in SCATTER_PAIR)
    calls["plot_scatter"] = (lambda: plot_scatter(sx, sy).write(scratch / "scatter.svg"), None)
    calls["print_json"] = (lambda: write_json_file(payload, scratch / "decompose.json"), None)
    return calls


def write_json_file(payload, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_json(payload, fh)


def traced_peak(call) -> float:
    """Peak traced memory of one call, in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


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
        with tempfile.TemporaryDirectory() as scratch:
            for name, (call, peak_bytes) in kernels(fixture(n), Path(scratch)).items():
                curve = curves.setdefault(name, {"seconds": {}, "peak_mb": {}, "skipped": {}})
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
                curve["peak_mb"][str(n)] = round(traced_peak(call), 2)

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
