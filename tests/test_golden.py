"""Golden byte snapshots of the ``eda`` CLI on the committed fixtures.

Each case runs one ``eda`` command in-process against
``data/churn_fixture.csv`` or its copy with missing cells,
``data/churn_fixture_blanks.csv``, and compares its stdout and every file it
writes with ``tests/golden/<case>/``, byte for byte. Refactors must leave these
bytes alone. The stdout-only numeric cases also run as a fresh
``python -m edakit.cli`` process, under the BLAS thread setting ``eda`` gives
itself. A change that alters output on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from edakit.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "data" / "churn_fixture.csv"
BLANKS = ROOT / "data" / "churn_fixture_blanks.csv"
GOLDEN = Path(__file__).resolve().parent / "golden"

NUMERIC_SUBSET = "CreditScore,Age,Tenure,Balance,NumOfProducts,EstimatedSalary"

# case name -> argv; "{csv}" is the fixture, "{blanks}" the fixture with
# missing cells, "{out}" a path in the case's output directory. Stdout is
# kept as "stdout" next to the written files.
CASES: dict[str, list[str]] = {
    "churn_markdown": ["churn-report", "{csv}", "--out", "{out}", "--format", "markdown"],
    "churn_html": ["churn-report", "{csv}", "--out", "{out}", "--format", "html"],
    "describe_schema": ["describe", "{csv}"],
    "describe_column_age": ["describe", "{csv}", "--column", "Age"],
    "describe_outliers_balance": ["describe", "{csv}", "--outliers", "Balance"],
    "clean_clip_onehot": [
        "clean", "{csv}", "--drop", "RowNumber,CustomerId,Surname",
        "--clip-outliers", "Age", "--clip-outliers", "CreditScore:1.0",
        "--encode", "Geography=onehot",
    ],
    "corr_pearson": ["corr", "{csv}", "--method", "pearson", "--columns", NUMERIC_SUBSET],
    "corr_spearman": ["corr", "{csv}", "--method", "spearman", "--columns", NUMERIC_SUBSET],
    "corr_kendall": ["corr", "{csv}", "--method", "kendall", "--columns", NUMERIC_SUBSET],
    "cluster_kmeans": [
        "cluster", "{csv}", "--algo", "kmeans", "--k", "3", "--seed", "7",
        "--columns", "CreditScore,Age,Balance",
    ],
    "cluster_hier": [
        "cluster", "{csv}", "--algo", "hier", "--k", "4", "--seed", "7",
        "--columns", "CreditScore,Age",
    ],
    "cluster_dbscan": [
        "cluster", "{csv}", "--algo", "dbscan", "--eps", "500", "--min-pts", "5",
        "--seed", "7", "--columns", "Balance,Age",
    ],
    "cluster_gmm": [
        "cluster", "{csv}", "--algo", "gmm", "--k", "2", "--seed", "7",
        "--columns", "CreditScore,Age",
    ],
    "pca_standardize": [
        "pca", "{csv}", "--components", "2", "--standardize", "--columns", NUMERIC_SUBSET,
    ],
    "timeseries_decompose": [
        "timeseries", "{csv}", "--column", "EstimatedSalary", "--op", "decompose", "--period", "12",
    ],
    "timeseries_acf": [
        "timeseries", "{csv}", "--column", "EstimatedSalary", "--op", "acf", "--max-lag", "10",
    ],
    "timeseries_ma": [
        "timeseries", "{csv}", "--column", "Balance", "--op", "ma", "--window", "7",
    ],
    "timeseries_smooth": [
        "timeseries", "{csv}", "--column", "Balance", "--op", "smooth", "--alpha", "0.3",
    ],
    "timeseries_diff": [
        "timeseries", "{csv}", "--column", "Balance", "--op", "diff", "--lag", "1",
    ],
    "timeseries_pacf": [
        "timeseries", "{csv}", "--column", "EstimatedSalary", "--op", "pacf", "--max-lag", "10",
    ],
    "timeseries_stationarity": [
        "timeseries", "{csv}", "--column", "EstimatedSalary", "--op", "stationarity",
    ],
    "plot_hist": ["plot", "{csv}", "--kind", "hist", "--column", "CreditScore", "--out", "{out}/hist.svg"],
    "plot_box": ["plot", "{csv}", "--kind", "box", "--column", "Age", "--out", "{out}/box.svg"],
    "plot_bar": ["plot", "{csv}", "--kind", "bar", "--column", "Geography", "--out", "{out}/bar.svg"],
    "plot_scatter": [
        "plot", "{csv}", "--kind", "scatter", "--x", "CreditScore", "--y", "Age",
        "--out", "{out}/scatter.svg",
    ],
    "plot_heatmap": [
        "plot", "{csv}", "--kind", "heatmap", "--method", "spearman",
        "--out", "{out}/heatmap.svg",
    ],
    # missing cells: null counts, pairwise deletion, imputation
    "blanks_describe_schema": ["describe", "{blanks}"],
    "blanks_describe_column_age": ["describe", "{blanks}", "--column", "Age"],
    "blanks_churn_markdown": ["churn-report", "{blanks}", "--out", "{out}", "--format", "markdown"],
    "blanks_churn_html": ["churn-report", "{blanks}", "--out", "{out}", "--format", "html"],
    "blanks_corr_pearson": ["corr", "{blanks}", "--method", "pearson", "--columns", NUMERIC_SUBSET],
    "blanks_corr_spearman": ["corr", "{blanks}", "--method", "spearman", "--columns", NUMERIC_SUBSET],
    "blanks_corr_kendall": ["corr", "{blanks}", "--method", "kendall", "--columns", NUMERIC_SUBSET],
    "blanks_plot_scatter": [
        "plot", "{blanks}", "--kind", "scatter", "--x", "Age", "--y", "Balance",
        "--out", "{out}/scatter.svg",
    ],
    "blanks_clean_impute": [
        "clean", "{blanks}", "--impute", "Age=median", "--impute", "Balance=regress:Age",
        "--impute", "HasCrCard=mode", "--impute", "Geography=constant:Unknown",
        "--clip-outliers", "CreditScore", "--encode", "Geography=onehot",
    ],
}


def run_case(name: str, out_dir: Path) -> dict[str, bytes]:
    """Run one case into out_dir; return {relative path: bytes}, stdout included."""
    out_dir.mkdir(parents=True, exist_ok=True)
    argv = [a.format(csv=FIXTURE, blanks=BLANKS, out=out_dir) for a in CASES[name]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"case {name!r} exited {code}")
    files = {
        p.relative_to(out_dir).as_posix(): p.read_bytes()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }
    files["stdout"] = stdout.getvalue().encode("utf-8")
    return files


def read_golden(name: str) -> dict[str, bytes]:
    case_dir = GOLDEN / name
    return {
        p.relative_to(case_dir).as_posix(): p.read_bytes()
        for p in sorted(case_dir.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    expected = read_golden(name)
    assert expected, f"no golden files for {name!r}; regenerate them"
    actual = run_case(name, tmp_path / "out")
    assert sorted(actual) == sorted(expected)
    for rel in expected:
        assert actual[rel] == expected[rel], f"{name}/{rel} differs from its golden copy"


# stdout-only cases whose numbers go through numpy's BLAS
PROCESS_CASES = sorted(
    n for n in CASES
    if n.startswith("corr_")
    or n in ("cluster_kmeans", "cluster_gmm", "cluster_hier", "cluster_dbscan",
             "pca_standardize", "timeseries_decompose")
)


def _child_env(**extra: str) -> dict[str, str]:
    """This process's environment without OPENBLAS_NUM_THREADS, with src/ importable."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return {**env, **extra}


@pytest.mark.parametrize("name", PROCESS_CASES)
def test_fresh_process_stdout_matches_golden(name):
    argv = [a.format(csv=FIXTURE, blanks=BLANKS) for a in CASES[name]]
    done = subprocess.run(
        [sys.executable, "-m", "edakit.cli", *argv], env=_child_env(), capture_output=True, check=True,
    )
    assert done.stdout == read_golden(name)["stdout"]


def test_cli_keeps_a_set_blas_thread_count():
    code = "import os, edakit.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    done = subprocess.run(
        [sys.executable, "-c", code], env=_child_env(OPENBLAS_NUM_THREADS="2"),
        capture_output=True, text=True, check=True,
    )
    assert done.stdout == "2\n"


def regenerate() -> None:
    """Rewrite tests/golden/ from the current code."""
    if GOLDEN.exists():
        shutil.rmtree(GOLDEN)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            for rel, data in run_case(name, Path(tmp) / name).items():
                target = GOLDEN / name / rel
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(data)


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
