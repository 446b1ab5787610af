"""Command-line front end.

Subcommands: describe, clean, corr, cluster, pca, timeseries, plot,
churn-report. Machine-readable JSON goes to stdout, diagnostics to stderr.
Exit codes: 0 success, 2 usage/input error, 3 findings failure
(churn-report only). Seeded subcommands default to DEFAULT_SEED, overridable
with the EDA_SEED environment variable and the --seed flag; identical seed
and input give byte-identical output.

``eda`` runs numpy's BLAS on the calling thread: importing this module sets
OPENBLAS_NUM_THREADS to 1 unless the environment already sets it. It imports
every edakit module up front, whereas ``import edakit`` alone loads each
module on first use.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

# set before numpy loads OpenBLAS: a thread pool costs more to start than it saves on narrow matrices
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import assoc, cleanse, cluster, pca, report, stats, table, timeseries, viz

DEFAULT_SEED = 1729


def _print_json(payload) -> None:
    stats._write_json(payload, sys.stdout)


def _load(path: str, names: Optional[Sequence[Optional[str]]] = None) -> table.Table:
    """Read a CSV, typing only the header columns that match one of ``names``
    under case folding, when names are given, else every column.

    Unknown names are left for ``Table.column`` and ``select_columns`` to
    refuse, and every case variant of a name is kept for their hint.
    """
    if names is None:
        return table.read_csv(path)
    wanted = {n.casefold() for n in names if n is not None}
    return table.read_csv(path, keep=lambda name: name.casefold() in wanted)


def _split(columns: Optional[str]) -> Optional[list[str]]:
    """A comma-separated ``--columns`` value as names, or None when empty."""
    return columns.split(",") if columns else None


def _numeric_matrix(t: table.Table, columns: Optional[Sequence[str]]) -> tuple[np.ndarray, list[str]]:
    """Numeric+boolean columns as a dense matrix; rejects categorical and missing."""
    if columns:
        t = table.select_columns(t, list(columns))
    categorical = [c.name for c in t.columns if c.kind is table.Kind.CATEGORICAL]
    if categorical:
        raise ValueError(
            f"categorical columns not usable here: {categorical}; "
            "encode them first (eda clean --encode) or pass --columns"
        )
    for c in t.columns:
        if c.null_count:
            raise ValueError(f"column {c.name!r} has {c.null_count} missing cells; impute first")
    matrix = np.column_stack([table.numeric_values(c) for c in t.columns])
    return matrix, [c.name for c in t.columns]


def cmd_describe(args) -> int:
    named = args.outliers or args.column
    t = _load(args.csv, [named] if named else None)
    if args.outliers:
        method = (
            cleanse.Iqr(args.k) if args.method == "iqr" else cleanse.ZScore(args.threshold)
        )
        rep = cleanse.detect_outliers(t.column(args.outliers), method)
        _print_json(rep.to_dict())
    elif args.column:
        c = t.column(args.column)
        if c.kind is not table.Kind.NUMERIC:
            raise ValueError(
                f"column {args.column!r} is {c.kind.value}; describe --column needs a numeric column"
            )
        _print_json(stats.summarize(c).to_dict())
    else:
        schema = table.null_counts(t)
        _print_json({"table": t.name, "row_count": t.row_count, "columns": schema.to_dict()})
    return 0


_IMPUTE_NAMES = {"mean": cleanse.Mean(), "median": cleanse.Median(), "mode": cleanse.Mode()}


def _parse_impute(spec: str) -> tuple[str, cleanse.ImputeStrategy]:
    if "=" not in spec:
        raise ValueError(f"bad --impute {spec!r}; expected COL=STRATEGY")
    col, strat = spec.split("=", 1)
    # only the strategy keyword is case-insensitive; its argument is data
    keyword, colon, arg = strat.partition(":")
    keyword = keyword.lower()
    if not colon and keyword in _IMPUTE_NAMES:
        return col, _IMPUTE_NAMES[keyword]
    if colon and keyword == "constant":  # impute converts the text for a numeric or boolean column
        return col, cleanse.Constant(arg)
    if colon and keyword == "regress":
        return col, cleanse.LinearRegression(arg)
    raise ValueError(f"unknown impute strategy {strat!r}")


def cmd_clean(args) -> int:
    t = _load(args.csv)
    if args.drop:
        t = table.drop_columns(t, args.drop.split(","))
    for spec in args.impute or ():
        col, strategy = _parse_impute(spec)
        t = t.replace_column(cleanse.impute(t.column(col), strategy, context=t))
    for spec in args.clip_outliers or ():
        col, _, k = spec.partition(":")
        method = cleanse.Iqr(float(k)) if k else cleanse.Iqr()
        rep = cleanse.detect_outliers(t.column(col), method)
        t = t.replace_column(cleanse.handle_outliers(t.column(col), rep, cleanse.OutlierAction.CLIP))
    for spec in args.encode or ():
        col, _, kind = spec.partition("=")
        t = cleanse.encode(t, col, cleanse.EncodeKind(kind.lower()))
    if args.out == "-":
        table.write_csv_to(t, sys.stdout)
    else:
        table.write_csv(t, args.out)
    return 0


def cmd_corr(args) -> int:
    columns = _split(args.columns)
    t = _load(args.csv, columns)
    if columns:
        t = table.select_columns(t, columns)
    matrix = assoc.correlation_matrix(t, assoc.CorrMethod(args.method))
    if args.heatmap:
        viz.plot_heatmap(matrix, f"{args.method} correlation").write(args.heatmap)
        print(f"wrote {args.heatmap}", file=sys.stderr)
    _print_json(matrix.to_dict())
    return 0


def cmd_cluster(args) -> int:
    columns = _split(args.columns)
    data, names = _numeric_matrix(_load(args.csv, columns), columns)
    if args.algo == "kmeans":
        if args.k is None:
            raise ValueError("kmeans needs --k")
        result = cluster.kmeans(data, args.k, args.seed)
        payload = {"algo": "kmeans", "columns": names, **result.to_dict()}
    elif args.algo == "hier":
        dend = cluster.agglomerative(data, cluster.Linkage(args.linkage))
        payload = {"algo": "hier", "columns": names, **dend.to_dict()}
        if args.k is not None:
            payload["labels"] = list(cluster.cut(dend, args.k))
    elif args.algo == "dbscan":
        if args.eps is None or args.min_pts is None:
            raise ValueError("dbscan needs --eps and --min-pts")
        result = cluster.dbscan(data, args.eps, args.min_pts)
        payload = {"algo": "dbscan", "columns": names, **result.to_dict()}
    elif args.algo == "gmm":
        if args.k is None:
            raise ValueError("gmm needs --k")
        model = cluster.gmm(data, args.k, args.seed)
        labels, _ = cluster.gmm_predict(model, data)
        payload = {"algo": "gmm", "columns": names, "labels": list(labels), **model.to_dict()}
    else:  # pragma: no cover - argparse rejects other values
        raise ValueError(f"unknown algorithm {args.algo!r}")
    _print_json(payload)
    return 0


def cmd_pca(args) -> int:
    columns = _split(args.columns)
    data, names = _numeric_matrix(_load(args.csv, columns), columns)
    model = pca.fit_pca(data, args.components, standardize=args.standardize)
    _print_json({"columns": names, **model.to_dict()})
    return 0


def cmd_timeseries(args) -> int:
    t = _load(args.csv, [args.column])
    c = t.column(args.column)
    if c.kind is not table.Kind.NUMERIC:
        raise ValueError(f"column {args.column!r} is not numeric")
    if c.null_count:
        raise ValueError(f"column {args.column!r} has missing cells; impute first")
    s = timeseries.series(table.numeric_values(c))
    op = args.op
    if op == "ma":
        out = {"op": op, "values": timeseries.moving_average(s, args.window).values.tolist()}
    elif op == "smooth":
        out = {"op": op, "values": timeseries.exp_smoothing(s, args.alpha).values.tolist()}
    elif op == "diff":
        out = {"op": op, "values": timeseries.difference(s, args.lag).values.tolist()}
    elif op == "acf":
        out = {"op": op, "values": list(timeseries.acf(s, args.max_lag))}
    elif op == "pacf":
        out = {"op": op, "values": list(timeseries.pacf(s, args.max_lag))}
    elif op == "decompose":
        if args.period is None:
            raise ValueError("decompose needs --period")
        out = {"op": op, **timeseries.decompose_additive(s, args.period).to_dict()}
    elif op == "stationarity":
        out = {
            "op": op,
            **timeseries.stationarity_check(s, args.segments, args.rel_tol).to_dict(),
        }
    else:  # pragma: no cover
        raise ValueError(f"unknown op {op!r}")
    _print_json(out)
    return 0


def cmd_plot(args) -> int:
    kind = args.kind
    t = _load(args.csv, None if kind == "heatmap" else [args.column, args.x, args.y])
    if kind == "hist":
        c = t.column(_require(args.column, "--column"))
        bins = stats.BinCount(args.bins) if args.bins is not None else stats.AutoBins()
        doc = viz.plot_histogram(stats.histogram(c, bins), args.title or c.name)
    elif kind == "box":
        c = t.column(_require(args.column, "--column"))
        summary = stats.summarize(c)
        rep = cleanse.detect_outliers(c, cleanse.Iqr())
        beyond = table.numeric_with_mask(c)[0][list(rep.outlier_row_indices)].tolist()
        doc = viz.plot_box(summary, points_beyond=beyond, title=args.title or c.name)
    elif kind == "bar":
        c = t.column(_require(args.column, "--column"))
        doc = viz.plot_bar(table.value_counts(c), args.title or c.name)
    elif kind == "scatter":
        cx = t.column(_require(args.x, "--x"))
        cy = t.column(_require(args.y, "--y"))
        doc = viz.plot_scatter(cx, cy, args.title or f"{cx.name} vs {cy.name}")
    elif kind == "heatmap":
        matrix = assoc.correlation_matrix(t, assoc.CorrMethod(args.method))
        doc = viz.plot_heatmap(matrix, args.title or f"{args.method} correlation")
    else:  # pragma: no cover
        raise ValueError(f"unknown plot kind {kind!r}")
    doc.write(args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _require(value, flag: str):
    if value is None:
        raise ValueError(f"this plot kind needs {flag}")
    return value


# --evaluate choice -> churn_pipeline's evaluate_findings
_EVALUATE = {"auto": None, "always": True, "never": False}


def cmd_churn_report(args) -> int:
    # step 1 of the pipeline drops the identifier columns, so they are never typed
    t = table.read_csv(args.csv, keep=lambda name: name not in report.DROPPABLE)
    rep = report.churn_pipeline(t, evaluate_findings=_EVALUATE[args.evaluate])
    fmt = report.ReportFormat(args.format)
    written = report.render_report(rep, fmt, args.out)
    for path in written:
        print(f"wrote {path}", file=sys.stderr)
    full = rep.to_json_dict()
    _print_json({k: full[k] for k in ("row_count", "churn_rate", "hascrcard_rate", "findings")})
    return report.exit_code(rep)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eda", description="exploratory data analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="schema and null counts, or one column's summary stats")
    p.add_argument("csv")
    one = p.add_mutually_exclusive_group()
    one.add_argument("--column")
    one.add_argument("--outliers", metavar="COL", help="emit an outlier report for this column")
    p.add_argument("--method", choices=["iqr", "zscore"], default="iqr")
    p.add_argument("--k", type=float, default=1.5, help="IQR fence multiplier")
    p.add_argument("--threshold", type=float, default=3.0, help="z-score threshold")
    p.set_defaults(fn=cmd_describe)

    p = sub.add_parser("clean", help="impute, clip outliers, encode; emits cleaned CSV")
    p.add_argument("csv")
    p.add_argument("--drop", help="comma-separated columns to drop")
    p.add_argument("--impute", action="append", metavar="COL=STRATEGY",
                   help="mean|median|mode|constant:VALUE|regress:PREDICTOR; repeatable, "
                        "applied left to right, so a regress: fit sees predictor cells "
                        "filled by an earlier --impute")
    p.add_argument("--clip-outliers", action="append", metavar="COL[:K]",
                   help="clip IQR outliers (default k=1.5)")
    p.add_argument("--encode", action="append", metavar="COL=KIND", help="onehot|label")
    p.add_argument("--out", default="-", help="output CSV path, '-' for stdout")
    p.set_defaults(fn=cmd_clean)

    p = sub.add_parser("corr", help="correlation matrix, optionally with a heatmap")
    p.add_argument("csv")
    p.add_argument("--method", choices=[m.value for m in assoc.CorrMethod], default="pearson")
    p.add_argument("--columns", help="comma-separated column subset")
    p.add_argument("--heatmap", metavar="OUT_SVG")
    p.set_defaults(fn=cmd_corr)

    p = sub.add_parser("cluster", help="kmeans | hier | dbscan | gmm")
    p.add_argument("csv")
    p.add_argument("--algo", choices=["kmeans", "hier", "dbscan", "gmm"], required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--min-pts", type=int, dest="min_pts")
    p.add_argument("--linkage", choices=[m.value for m in cluster.Linkage], default="average")
    # argparse applies type=int to a string default only for the subcommand that runs
    p.add_argument("--seed", type=int, default=os.environ.get("EDA_SEED", str(DEFAULT_SEED)))
    p.add_argument("--columns", help="comma-separated column subset")
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser("pca", help="principal component analysis")
    p.add_argument("csv")
    p.add_argument("--components", type=int, required=True)
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--columns", help="comma-separated column subset")
    p.set_defaults(fn=cmd_pca)

    p = sub.add_parser("timeseries", help="ma | smooth | diff | acf | pacf | decompose | stationarity")
    p.add_argument("csv")
    p.add_argument("--column", required=True)
    p.add_argument("--op", required=True,
                   choices=["ma", "smooth", "diff", "acf", "pacf", "decompose", "stationarity"])
    p.add_argument("--window", type=int, default=3)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--lag", type=int, default=1)
    p.add_argument("--max-lag", type=int, default=10, dest="max_lag")
    p.add_argument("--period", type=int)
    p.add_argument("--segments", type=int, default=4)
    p.add_argument("--rel-tol", type=float, default=0.25, dest="rel_tol")
    p.set_defaults(fn=cmd_timeseries)

    p = sub.add_parser("plot", help="hist | box | bar | scatter | heatmap to an SVG file")
    p.add_argument("csv")
    p.add_argument("--kind", choices=["hist", "box", "bar", "scatter", "heatmap"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--column")
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--bins", type=int)
    p.add_argument("--method", choices=[m.value for m in assoc.CorrMethod], default="pearson")
    p.add_argument("--title")
    p.set_defaults(fn=cmd_plot)

    p = sub.add_parser("churn-report", help="run the churn case-study pipeline")
    p.add_argument("csv")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", choices=[f.value for f in report.ReportFormat], default="markdown")
    p.add_argument("--evaluate", choices=list(_EVALUATE), default="auto",
                   help="auto: assert findings only on the full-scale dataset")
    p.set_defaults(fn=cmd_churn_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
