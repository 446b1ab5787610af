"""The ``edakit`` package namespace: names load from their modules on first use.

Each check runs in a fresh interpreter, since this test process has long since
imported every edakit module and numpy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SUBMODULES = {"table", "stats", "cleanse", "assoc", "pca", "cluster", "timeseries", "viz", "report", "rng"}

# the names ``from edakit import *`` bound when the package imported every module
REEXPORTS = {
    "Column", "CsvOptions", "FrequencyTable", "Kind", "Schema", "Table", "boolean_column",
    "categorical_column", "drop_columns", "filter_rows", "infer_schema", "null_counts",
    "numeric_column", "read_csv", "select_columns", "value_counts", "write_csv",
    "Histogram", "KurtosisClass", "SkewMode", "SummaryStats", "histogram", "kurtosis",
    "percentile", "skewness", "summarize",
    "EncodeKind", "ImputeStrategy", "Iqr", "OutlierAction", "OutlierReport", "ZScore",
    "bin_column", "detect_outliers", "encode", "handle_outliers", "impute", "transform",
    "ContingencyTable", "CorrelationMatrix", "CorrMethod", "contingency", "correlation_matrix",
    "covariance", "kendall_tau", "pearson", "phi", "point_biserial", "spearman",
    "PcaModel", "fit_pca", "reconstruct", "transform_pca",
    "DbscanResult", "Dendrogram", "GmmModel", "KMeansResult", "Linkage", "agglomerative",
    "cut", "dbscan", "gmm", "gmm_predict", "kmeans",
    "Decomposition", "TimeSeries", "acf", "decompose_additive", "difference", "exp_smoothing",
    "moving_average", "pacf", "series", "stationarity_check",
    "SvgDoc", "plot_bar", "plot_box", "plot_heatmap", "plot_histogram", "plot_scatter",
    "ChurnReport", "ChurnSchema", "churn_pipeline", "render_report", "validate_schema",
}


def fresh(code: str):
    """The JSON value a fresh interpreter prints after running code."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_import_loads_no_numpy():
    assert fresh("import json, sys, edakit; print(json.dumps('numpy' in sys.modules))") is False


def test_star_import_binds_the_public_api():
    names = fresh("import json; ns = {}; exec('from edakit import *', ns); print(json.dumps(sorted(ns)))")
    assert len(REEXPORTS) == 85
    assert set(names) - {"__builtins__"} == REEXPORTS | SUBMODULES


def test_names_resolve_on_first_use():
    code = (
        "import json, edakit\n"
        "print(json.dumps([edakit.read_csv is edakit.table.read_csv,\n"
        "                  edakit.cluster.kmeans.__module__,\n"
        "                  sorted(set(edakit.__all__) - set(dir(edakit)))]))"
    )
    assert fresh(code) == [True, "edakit.cluster", []]


def test_unknown_name_raises_attribute_error():
    code = (
        "import json, edakit\n"
        "try:\n"
        "    edakit.nope\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))"
    )
    assert "'nope'" in fresh(code)
