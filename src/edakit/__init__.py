"""edakit: an exploratory data analysis toolkit.

Typed columnar tables, cleaning, descriptive statistics, association
measures, PCA, clustering, time-series primitives, deterministic SVG
charts, and a bank-churn report pipeline, all behind one CLI (``eda``).
"""

from .table import (
    Column,
    CsvOptions,
    FrequencyTable,
    Kind,
    Schema,
    Table,
    boolean_column,
    categorical_column,
    drop_columns,
    filter_rows,
    infer_schema,
    null_counts,
    numeric_column,
    read_csv,
    select_columns,
    value_counts,
    write_csv,
)
from .stats import (
    Histogram,
    KurtosisClass,
    SkewMode,
    SummaryStats,
    histogram,
    kurtosis,
    percentile,
    skewness,
    summarize,
)
from .cleanse import (
    EncodeKind,
    ImputeStrategy,
    Iqr,
    OutlierAction,
    OutlierReport,
    ZScore,
    bin_column,
    detect_outliers,
    encode,
    handle_outliers,
    impute,
    transform,
)
from .assoc import (
    ContingencyTable,
    CorrelationMatrix,
    CorrMethod,
    contingency,
    correlation_matrix,
    covariance,
    kendall_tau,
    pearson,
    phi,
    point_biserial,
    spearman,
)
from .pca import PcaModel, fit_pca, reconstruct, transform_pca
from .cluster import (
    DbscanResult,
    Dendrogram,
    GmmModel,
    KMeansResult,
    Linkage,
    agglomerative,
    cut,
    dbscan,
    gmm,
    gmm_predict,
    kmeans,
)
from .timeseries import (
    Decomposition,
    TimeSeries,
    acf,
    decompose_additive,
    difference,
    exp_smoothing,
    moving_average,
    pacf,
    series,
    stationarity_check,
)
from .viz import SvgDoc, plot_bar, plot_box, plot_heatmap, plot_histogram, plot_scatter
from .report import ChurnReport, ChurnSchema, churn_pipeline, render_report, validate_schema

__version__ = "0.1.0"
