"""Command-line front end.

Subcommands: describe, clean, corr, cluster, pca, timeseries, plot,
churn-report. Machine-readable JSON goes to stdout, diagnostics to stderr.
Exit codes: 0 success, 1 stdout closed by its reader (``eda ... | head``), 2
usage/input error, 3 findings failure (churn-report only). A float overflow,
invalid value or division by zero is exit 2 with a hint to rescale the data;
library callers get numpy's ``RuntimeWarning`` instead. Seeded subcommands
default to DEFAULT_SEED, overridable with the EDA_SEED environment variable
and the --seed flag; identical seed and input give byte-identical output.

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


# Each mode of describe, cluster, timeseries and plot -> the options it reads and
# their defaults, _NEEDED where it cannot run without one. These options default
# to argparse.SUPPRESS, so a namespace holds only the given ones. describe's modes
# are a schema listing, one --column's summary, and an outlier report by --method.
_NEEDED = object()
_DESCRIBE = {"schema": {}, "--column": {}, "iqr": {"method": "iqr", "k": 1.5},
             "zscore": {"method": "zscore", "threshold": 3.0}}
_CLUSTER = {"kmeans": {"k": _NEEDED}, "hier": {"linkage": "average", "k": None},
            "dbscan": {"eps": _NEEDED, "min_pts": _NEEDED}, "gmm": {"k": _NEEDED}}
_TIMESERIES = {"ma": {"window": 3}, "smooth": {"alpha": 0.5}, "diff": {"lag": 1},
               "acf": {"max_lag": 10}, "pacf": {"max_lag": 10}, "decompose": {"period": _NEEDED},
               "stationarity": {"segments": 4, "rel_tol": 0.25}}
_PLOT = {"hist": {"column": _NEEDED, "bins": None}, "box": {"column": _NEEDED},
         "bar": {"column": _NEEDED}, "scatter": {"x": _NEEDED, "y": _NEEDED},
         "heatmap": {"method": "pearson"}}


def _flags(dests, word: str) -> str:
    return f" {word} ".join("--" + d.replace("_", "-") for d in dests)


def _mode_options(args, modes: dict[str, dict], mode: str) -> None:
    """Refuse an option given to ``mode`` that only other ``modes`` read, and
    name every needed option when one is missing; then fill in the mode's
    defaults."""
    given, own = vars(args), modes[mode]
    foreign = [d for d in given if d not in own and any(d in m for m in modes.values())]
    if foreign:
        raise ValueError(f"{mode} does not read {_flags(foreign, 'or')}")
    needed = [d for d, default in own.items() if default is _NEEDED]
    if any(d not in given for d in needed):
        raise ValueError(f"{mode} needs {_flags(needed, 'and')}")
    for dest, default in own.items():
        given.setdefault(dest, default)


def cmd_describe(args) -> int:
    mode = getattr(args, "method", "iqr") if args.outliers else "--column" if args.column else "schema"
    _mode_options(args, _DESCRIBE, mode)
    t = _load(args.csv, None if mode == "schema" else [args.outliers or args.column])
    if args.outliers:
        method = cleanse.Iqr(args.k) if mode == "iqr" else cleanse.ZScore(args.threshold)
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
    _mode_options(args, _CLUSTER, args.algo)
    columns = _split(args.columns)
    data, names = _numeric_matrix(_load(args.csv, columns), columns)
    if args.algo == "kmeans":
        result = cluster.kmeans(data, args.k, args.seed)
        payload = {"algo": "kmeans", "columns": names, **result.to_dict()}
    elif args.algo == "hier":
        dend = cluster.agglomerative(data, cluster.Linkage(args.linkage))
        payload = {"algo": "hier", "columns": names, **dend.to_dict()}
        if args.k is not None:
            payload["labels"] = cluster.cut(dend, args.k).tolist()
    elif args.algo == "dbscan":
        result = cluster.dbscan(data, args.eps, args.min_pts)
        payload = {"algo": "dbscan", "columns": names, **result.to_dict()}
    else:
        model = cluster.gmm(data, args.k, args.seed)
        labels, _ = cluster.gmm_predict(model, data)
        payload = {"algo": "gmm", "columns": names, "labels": labels.tolist(), **model.to_dict()}
    _print_json(payload)
    return 0


def cmd_pca(args) -> int:
    columns = _split(args.columns)
    data, names = _numeric_matrix(_load(args.csv, columns), columns)
    model = pca.fit_pca(data, args.components, standardize=args.standardize)
    _print_json({"columns": names, **model.to_dict()})
    return 0


def cmd_timeseries(args) -> int:
    _mode_options(args, _TIMESERIES, args.op)
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
        out = {"op": op, **timeseries.decompose_additive(s, args.period).to_dict()}
    else:
        out = {"op": op, **timeseries.stationarity_check(s, args.segments, args.rel_tol).to_dict()}
    _print_json(out)
    return 0


def cmd_plot(args) -> int:
    kind = args.kind
    _mode_options(args, _PLOT, kind)
    t = _load(args.csv, None if kind == "heatmap" else [args.x, args.y] if kind == "scatter" else [args.column])
    if kind == "hist":
        c = t.column(args.column)
        bins = stats.BinCount(args.bins) if args.bins is not None else stats.AutoBins()
        doc = viz.plot_histogram(stats.histogram(c, bins), args.title or c.name)
    elif kind == "box":
        c = t.column(args.column)
        summary = stats.summarize(c)
        rep = cleanse.detect_outliers(c, cleanse.Iqr())
        beyond = table.numeric_with_mask(c)[0][list(rep.outlier_row_indices)].tolist()
        doc = viz.plot_box(summary, points_beyond=beyond, title=args.title or c.name)
    elif kind == "bar":
        c = t.column(args.column)
        doc = viz.plot_bar(table.value_counts(c), args.title or c.name)
    elif kind == "scatter":
        cx = t.column(args.x)
        cy = t.column(args.y)
        doc = viz.plot_scatter(cx, cy, args.title or f"{cx.name} vs {cy.name}")
    else:
        matrix = assoc.correlation_matrix(t, assoc.CorrMethod(args.method))
        doc = viz.plot_heatmap(matrix, args.title or f"{args.method} correlation")
    doc.write(args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


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

    p = sub.add_parser("describe", help="schema and null counts, or one column's summary stats",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("csv")
    one = p.add_mutually_exclusive_group()
    one.add_argument("--column", default=None)
    one.add_argument("--outliers", metavar="COL", default=None, help="emit an outlier report for this column")
    p.add_argument("--method", choices=["iqr", "zscore"], help="outlier method, default iqr")
    p.add_argument("--k", type=float, help="IQR fence multiplier, default 1.5")
    p.add_argument("--threshold", type=float, help="z-score threshold, default 3.0")
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

    p = sub.add_parser("cluster", help=" | ".join(_CLUSTER), argument_default=argparse.SUPPRESS)
    p.add_argument("csv")
    p.add_argument("--algo", choices=list(_CLUSTER), required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--min-pts", type=int, dest="min_pts")
    p.add_argument("--linkage", choices=[m.value for m in cluster.Linkage])
    # argparse applies type=int to a string default only for the subcommand that runs
    p.add_argument("--seed", type=int, default=os.environ.get("EDA_SEED", str(DEFAULT_SEED)))
    p.add_argument("--columns", default=None, help="comma-separated column subset")
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser("pca", help="principal component analysis")
    p.add_argument("csv")
    p.add_argument("--components", type=int, required=True)
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--columns", help="comma-separated column subset")
    p.set_defaults(fn=cmd_pca)

    p = sub.add_parser("timeseries", help=" | ".join(_TIMESERIES), argument_default=argparse.SUPPRESS)
    p.add_argument("csv")
    p.add_argument("--column", required=True)
    p.add_argument("--op", required=True, choices=list(_TIMESERIES))
    p.add_argument("--window", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--lag", type=int)
    p.add_argument("--max-lag", type=int, dest="max_lag")
    p.add_argument("--period", type=int)
    p.add_argument("--segments", type=int)
    p.add_argument("--rel-tol", type=float, dest="rel_tol")
    p.set_defaults(fn=cmd_timeseries)

    p = sub.add_parser("plot", help=" | ".join(_PLOT) + " to an SVG file", argument_default=argparse.SUPPRESS)
    p.add_argument("csv")
    p.add_argument("--kind", choices=list(_PLOT), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--column")
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--bins", type=int)
    p.add_argument("--method", choices=[m.value for m in assoc.CorrMethod])
    p.add_argument("--title", default=None)
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
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            code = args.fn(args)
        sys.stdout.flush()  # so a reader that closed stdout early shows here, not at exit
        return code
    except BrokenPipeError:
        _drop_stdout()  # the reader closed stdout
        return 1
    except (ValueError, KeyError, OSError, RuntimeError, FloatingPointError) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        if isinstance(exc, FloatingPointError):
            message = f"{args.command}: float64 {exc}; rescale the data"
        print(f"error: {message}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:
            _drop_stdout()  # stdout itself failed, a full disk say
        return 2


def _drop_stdout() -> None:
    """Point stdout at devnull, so the flush at exit cannot raise again on
    what a failed write left in its buffer."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


if __name__ == "__main__":
    sys.exit(main())
