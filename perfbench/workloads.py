"""The benchmark's workloads: seeded input CSVs and ``eda`` command sequences.

Inputs come from the repository's own fixture generator,
``scripts/make_fixture.build_fixture``, with its ``N`` and ``SEED`` module
globals set from here, and are written with ``edakit.table.write_csv``. Only
the generated CSVs are passed to ``eda``.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

# Cells are blanked from a SplitMix64 stream of their own, seeded from the
# workload seed plus this offset, so blanking never shifts the fixture draws.
BLANK_STREAM = 0x5EED_B1A7
BLANK_SHARE = 0.02
BLANK_COLUMNS = ("Age", "Balance", "HasCrCard", "Geography")

KENDALL_COLUMNS = "CreditScore,Age,Tenure,Balance,EstimatedSalary"
PCA_COLUMNS = "CreditScore,Age,Tenure,Balance,NumOfProducts,EstimatedSalary"
CLUSTER_COLUMNS = "CreditScore,Age"
# Balance is 0 for about 30% of rows and uniform on [20000, 200000] otherwise,
# so eps=500 separates the zero-balance block from the rest: at least two
# clusters and few noise points at any seed.
DBSCAN = {"columns": "Balance,Age", "eps": 500.0, "min_pts": 10}


@dataclass(frozen=True)
class Command:
    """One ``eda`` invocation. ``{name}`` in argv is an input CSV, ``{out}``
    the command's output path (a file or directory, or None for stdout only)."""

    argv: tuple[str, ...]
    check: Callable
    out: str | None = None


@dataclass(frozen=True)
class Input:
    """One generated CSV: ``rows`` fixture rows, optionally only ``columns``,
    optionally with BLANK_SHARE of the cells of BLANK_COLUMNS blanked."""

    rows: int
    columns: tuple[str, ...] = ()
    blank: bool = False


@dataclass(frozen=True)
class Workload:
    """A named input set and command sequence; BENCHMARK.json says why each exists."""

    name: str
    inputs: dict  # input name -> Input
    commands: tuple[Command, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="churn_report",
            inputs={"churn": Input(100_000)},
            commands=(
                Command(("churn-report", "{churn}", "--out", "{out}", "--format", "markdown"),
                        checks.churn_report, out="report"),
            ),
        ),
        Workload(
            name="clean_roundtrip",
            inputs={"clean_in": Input(50_000, blank=True)},
            commands=(
                Command(("clean", "{clean_in}",
                         "--impute", "Age=median", "--impute", "Balance=mean",
                         "--impute", "HasCrCard=mode", "--impute", "Geography=mode",
                         "--clip-outliers", "CreditScore", "--encode", "Geography=onehot",
                         "--out", "{out}"),
                        checks.clean, out="clean.csv"),
            ),
        ),
        Workload(
            name="analysis_suite",
            inputs={"main": Input(5_000), "hier": Input(1_000, columns=("CreditScore", "Age"))},
            commands=(
                Command(("corr", "{main}", "--method", "spearman"), checks.corr("spearman")),
                Command(("corr", "{main}", "--method", "kendall", "--columns", KENDALL_COLUMNS),
                        checks.corr("kendall")),
                Command(("cluster", "{hier}", "--algo", "hier", "--k", "4"), checks.hier(4)),
                Command(("cluster", "{main}", "--algo", "dbscan", "--columns", DBSCAN["columns"],
                         "--eps", str(DBSCAN["eps"]), "--min-pts", str(DBSCAN["min_pts"])),
                        checks.dbscan(DBSCAN["eps"], DBSCAN["min_pts"])),
                Command(("cluster", "{main}", "--algo", "gmm", "--k", "3", "--columns", CLUSTER_COLUMNS),
                        checks.gmm),
                Command(("cluster", "{main}", "--algo", "kmeans", "--k", "5", "--columns", CLUSTER_COLUMNS),
                        checks.kmeans),
                Command(("pca", "{main}", "--components", "2", "--standardize", "--columns", PCA_COLUMNS),
                        checks.pca),
                Command(("timeseries", "{main}", "--column", "EstimatedSalary", "--op", "decompose",
                         "--period", "12"),
                        checks.decompose("EstimatedSalary", 12)),
            ),
        ),
    )
}


def load_fixture_module(root: Path):
    """Import scripts/make_fixture.py from the checkout (it puts src/ on sys.path)."""
    spec = importlib.util.spec_from_file_location("make_fixture", root / "scripts" / "make_fixture.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build_table(fixture, rows: int, seed: int):
    fixture.N, fixture.SEED = rows, seed
    return fixture.build_fixture()


def blank_cells(t, seed: int):
    """Copy of ``t`` with about BLANK_SHARE of the cells of BLANK_COLUMNS missing."""
    from edakit.rng import SplitMix64
    from edakit.table import boolean_column, categorical_column, numeric_column

    build = {"numeric": numeric_column, "categorical": categorical_column, "boolean": boolean_column}
    rng = SplitMix64(seed + BLANK_STREAM)
    for name in BLANK_COLUMNS:
        c = t.column(name)
        cells = [None if rng.random() < BLANK_SHARE else v for v in c.values]
        t = t.replace_column(build[c.kind.value](name, cells))
    return t


def make_inputs(w: Workload, fixture, seed: int, in_dir: Path) -> tuple[dict, dict]:
    """Generate and write the workload's CSVs; returns (tables, paths) by input name."""
    from edakit.table import select_columns, write_csv

    tables, paths = {}, {}
    for name, spec in w.inputs.items():
        t = build_table(fixture, spec.rows, seed)
        if spec.columns:
            t = select_columns(t, list(spec.columns))
        if spec.blank:
            t = blank_cells(t, seed)
        paths[name] = in_dir / f"{name}.csv"
        write_csv(t, paths[name])
        tables[name] = t
    return tables, paths
