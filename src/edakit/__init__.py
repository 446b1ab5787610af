"""edakit: an exploratory data analysis toolkit.

Typed columnar tables, cleaning, descriptive statistics, association
measures, PCA, clustering, time-series primitives, deterministic SVG
charts, and a bank-churn report pipeline, all behind one CLI (``eda``).

``import edakit`` imports no submodule, and so not numpy: each public name
below is imported from its module on first use (PEP 562) and then kept in
the package namespace.
"""

import importlib

_SUBMODULES = (
    "table", "stats", "cleanse", "assoc", "pca", "cluster", "timeseries", "viz", "report", "rng",
)

# module -> the public names re-exported from it
_EXPORTS = {
    "table": (
        "Column", "CsvOptions", "FrequencyTable", "Kind", "Schema", "Table",
        "boolean_column", "categorical_column", "drop_columns", "filter_rows",
        "infer_schema", "null_counts", "numeric_column", "read_csv", "select_columns",
        "value_counts", "write_csv",
    ),
    "stats": (
        "Histogram", "KurtosisClass", "SkewMode", "SummaryStats",
        "histogram", "kurtosis", "percentile", "skewness", "summarize",
    ),
    "cleanse": (
        "EncodeKind", "ImputeStrategy", "Iqr", "OutlierAction", "OutlierReport", "ZScore",
        "bin_column", "detect_outliers", "encode", "handle_outliers", "impute", "transform",
    ),
    "assoc": (
        "ContingencyTable", "CorrelationMatrix", "CorrMethod",
        "contingency", "correlation_matrix", "covariance", "kendall_tau", "pearson",
        "phi", "point_biserial", "spearman",
    ),
    "pca": ("PcaModel", "fit_pca", "reconstruct", "transform_pca"),
    "cluster": (
        "DbscanResult", "Dendrogram", "GmmModel", "KMeansResult", "Linkage",
        "agglomerative", "cut", "dbscan", "gmm", "gmm_predict", "kmeans",
    ),
    "timeseries": (
        "Decomposition", "TimeSeries", "acf", "decompose_additive", "difference",
        "exp_smoothing", "moving_average", "pacf", "series", "stationarity_check",
    ),
    "viz": ("SvgDoc", "plot_bar", "plot_box", "plot_heatmap", "plot_histogram", "plot_scatter"),
    "report": ("ChurnReport", "ChurnSchema", "churn_pipeline", "render_report", "validate_schema"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SUBMODULES, *_HOME]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)  # binds edakit.<name>
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
