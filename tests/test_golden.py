"""Golden byte snapshots of the ``eda`` CLI on the committed fixtures.

Each case runs one ``eda`` command in-process against
``data/churn_fixture.csv`` or its copy with missing cells,
``data/churn_fixture_blanks.csv``, and compares its stdout and every file it
writes with ``tests/golden/<case>/``, byte for byte. Refactors must leave these
bytes alone. The stdout-only numeric cases also run as a fresh
``python -m edakit.cli`` process, under the BLAS thread setting ``eda`` gives
itself, and with the churn reports and ``describe_column_age`` under numpy and
OpenBLAS kernel choices other than this host's. A change that alters output on
purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np
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


# Kernel choices that change the rounding of numpy's ufuncs or of OpenBLAS,
# each set only in a child process's environment: numpy without its dispatch
# targets above the baseline, and OpenBLAS forced to older x86 kernel sets.
# The child runs every DISPATCH_CASES case in-process and reports which match.
DISPATCH_CASES = PROCESS_CASES + [
    "blanks_churn_html", "blanks_churn_markdown", "churn_html", "churn_markdown", "describe_column_age",
]
DISPATCH_SETTINGS = ("numpy-baseline", "openblas-Haswell", "openblas-SandyBridge")
# OpenBLAS kernel set -> the CPU feature it needs
_OPENBLAS_CORES = {"Haswell": "AVX2", "SandyBridge": "AVX"}
# Cases whose bytes still move under a setting on a host that dispatches to
# AVX-512 with OpenBLAS's SkylakeX kernels, where the golden files were made.
KNOWN_DISPATCH_FAILURES = {
    "numpy-baseline": {"cluster_gmm"},
    "openblas-Haswell": set(),
    "openblas-SandyBridge": set(),
}


def _umath():
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    return _multiarray_umath


def _openblas_core() -> Optional[str]:
    """The kernel set that the OpenBLAS bundled with numpy chose for this CPU,
    or None when no such library answers."""
    base = Path(np.__file__).parent
    for lib in sorted([*base.parent.glob("numpy.libs/*openblas*"), *base.glob(".dylibs/*openblas*")]):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_char_p
                return getter().decode()
    return None


@functools.cache
def _dispatch_env(setting: str) -> Optional[dict[str, str]]:
    """The environment of ``setting``, or None when this host lacks the
    features it turns off or forces, or (for OpenBLAS) already runs it or
    has no OpenBLAS that names its kernels."""
    umath = _umath()
    if setting == "numpy-baseline":
        above = [t for t in umath.__cpu_dispatch__
                 if t not in umath.__cpu_baseline__ and umath.__cpu_features__.get(t)]
        return {"NPY_DISABLE_CPU_FEATURES": ",".join(above)} if above else None
    core = setting.removeprefix("openblas-")
    if not umath.__cpu_features__.get(_OPENBLAS_CORES[core]) or _openblas_core() in (None, core):
        return None
    return {"OPENBLAS_CORETYPE": core}


_CHILD = """
import json, sys, tempfile
from pathlib import Path
import test_golden as g
with tempfile.TemporaryDirectory() as tmp:
    print(json.dumps({n: g.run_case(n, Path(tmp) / n) == g.read_golden(n) for n in g.DISPATCH_CASES}))
"""


@functools.cache
def _matches_under(setting: str) -> dict[str, bool]:
    """Case name -> whether its bytes equal the golden copy in one child run under ``setting``."""
    env = _child_env(**_dispatch_env(setting))
    env["PYTHONPATH"] = os.pathsep.join((str(Path(__file__).parent), env["PYTHONPATH"]))
    done = subprocess.run([sys.executable, "-c", _CHILD], env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


@pytest.mark.parametrize("setting, name", [
    pytest.param(setting, name, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=f"bytes move under {setting} (ROADMAP item 1)",
    ) if name in KNOWN_DISPATCH_FAILURES[setting] else ())
    for setting in DISPATCH_SETTINGS for name in DISPATCH_CASES
])
def test_output_matches_golden_under_other_kernels(setting, name):
    if _dispatch_env(setting) is None:
        pytest.skip(f"{setting} would change nothing known on this host")
    assert _matches_under(setting)[name], f"{name} differs from its golden copy under {setting}"


# Snapshots regenerated when summarize formed its third and fourth powers by
# multiplication, which rounds alike under every kernel: case -> the sha256 of
# the earlier stdout and the skew_moment text it held.
REGENERATED = {
    "describe_column_age": (
        "a8c97c116584de40d3a35e5d8efe26e157ce2414b8155e08a61e819da2024685", "-0.03297249889193122",
    ),
    "blanks_describe_column_age": (
        "cf58ad7193689122f24d82cf616989b13fe30618b8dea91bce480ac15a01a9f7", "0.013017587911855028",
    ),
}


@pytest.mark.parametrize("name", sorted(REGENERATED))
def test_regenerated_snapshot_moved_only_in_skew_moment(name):
    old_hash, old = REGENERATED[name]
    text = read_golden(name)["stdout"].decode()
    now = json.loads(text)["skew_moment"]
    assert now != float(old) and math.isclose(now, float(old), rel_tol=1e-14)
    restored = text.replace(f'"skew_moment": {now!r},', f'"skew_moment": {old},')
    assert hashlib.sha256(restored.encode()).hexdigest() == old_hash


# pca_standardize as it was when fit_pca formed its covariance with BLAS
# (centered.T @ centered): the sha256 of its stdout and the fitted numbers
# that moved when the covariance went through pca._gram.
PCA_BLAS = {
    "sha256": "c41334d1e1bb4f337a1d1c9340cf2db422a6f8b8535505ab7e94208c0a71f943",
    "components": [
        [-0.5151272740989034, -0.13910971915289455, -0.039774190938393635,
         0.4739139968923975, 0.6731787441504148, -0.18959507700722386],
        [-0.36239744171462623, -0.35339043933540154, 0.7841045143791361,
         0.08036301757861979, -0.32184585113257524, 0.13755157458092296],
    ],
    "explained_variance": [1.1766040779094555, 1.096432495911539],
    "explained_ratio": [0.19610067965157574, 0.18273874931858966],
}


def test_pca_snapshot_moved_only_in_fitted_numbers():
    text = read_golden("pca_standardize")["stdout"].decode()
    doc = json.loads(text)
    assert np.allclose(doc["components"], PCA_BLAS["components"], rtol=0, atol=6e-12)
    for key in ("explained_variance", "explained_ratio"):
        assert np.allclose(doc[key], PCA_BLAS[key], rtol=4e-16, atol=0), key
    # every other key (columns, means, scales) keeps the earlier bytes
    restored = json.dumps({**doc, **{k: v for k, v in PCA_BLAS.items() if k != "sha256"}}, indent=2) + "\n"
    assert text == json.dumps(doc, indent=2) + "\n"
    assert hashlib.sha256(restored.encode()).hexdigest() == PCA_BLAS["sha256"]


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
