"""Golden byte snapshots of the ``eda`` CLI on the committed fixture.

Each case runs one ``eda`` command in-process against
``data/churn_fixture.csv`` and compares its stdout and every file it writes
with ``tests/golden/<case>/``, byte for byte. Refactors must leave these
bytes alone. A change that alters output on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from edakit.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "data" / "churn_fixture.csv"
GOLDEN = Path(__file__).resolve().parent / "golden"

NUMERIC_SUBSET = "CreditScore,Age,Tenure,Balance,NumOfProducts,EstimatedSalary"

# case name -> argv; "{csv}" is the fixture, "{out}" a path in the case's
# output directory. Stdout is kept as "stdout" next to the written files.
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
}


def run_case(name: str, out_dir: Path) -> dict[str, bytes]:
    """Run one case into out_dir; return {relative path: bytes}, stdout included."""
    out_dir.mkdir(parents=True, exist_ok=True)
    argv = [a.format(csv=FIXTURE, out=out_dir) for a in CASES[name]]
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
