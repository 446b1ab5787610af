import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ROOT
from edakit import assoc, cli, report, table
from edakit.cli import main


SVG = "{http://www.w3.org/2000/svg}"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDescribe:
    def test_schema_listing(self, capsys, fixture_csv):
        code, out, _ = run(capsys, "describe", str(fixture_csv))
        assert code == 0
        payload = json.loads(out)
        assert payload["row_count"] == 200
        assert len(payload["columns"]) == 14

    def test_column_summary_fields(self, capsys, fixture_csv):
        code, out, _ = run(capsys, "describe", str(fixture_csv), "--column", "Age")
        assert code == 0
        payload = json.loads(out)
        for key in ("count", "mean", "median", "q1", "q3", "skew_pearson", "kurtosis_class"):
            assert key in payload

    def test_bad_seed_env_ignored_without_seed(self, capsys, fixture_csv, monkeypatch):
        monkeypatch.setenv("EDA_SEED", "abc")
        code, _, _ = run(capsys, "describe", str(fixture_csv))
        assert code == 0

    def test_missing_file_exit_2(self, capsys):
        code, out, err = run(capsys, "describe", "/no/such/file.csv")
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_column_case_hint(self, capsys, fixture_csv):
        code, out, err = run(capsys, "describe", str(fixture_csv), "--column", "age")
        assert (code, out) == (2, "")
        assert err == "error: no column named 'age'; did you mean 'Age'?\n"

    def test_no_hint_without_case_match(self, capsys, fixture_csv):
        code, _, err = run(capsys, "describe", str(fixture_csv), "--column", "agee")
        assert code == 2
        assert "no column named 'agee'" in err and "did you mean" not in err

    def test_categorical_column_rejected(self, capsys, fixture_csv):
        code, _, err = run(capsys, "describe", str(fixture_csv), "--column", "Geography")
        assert code == 2
        assert "numeric" in err

    def test_outlier_report_json(self, capsys, tmp_path):
        src = tmp_path / "o.csv"
        src.write_text("v\n1\n2\n3\n4\n100\n", encoding="utf-8")
        code, out, _ = run(capsys, "describe", str(src), "--outliers", "v")
        assert code == 0
        payload = json.loads(out)
        assert payload["column"] == "v"
        assert payload["method"] == {"name": "iqr", "k": 1.5}
        assert payload["bounds"] == {"lower": -1.0, "upper": 7.0}
        assert payload["outlier_row_indices"] == [4]

    def test_column_with_outliers_is_a_usage_error(self, capsys, fixture_csv):
        # one report per call: --column was once ignored beside --outliers
        with pytest.raises(SystemExit) as exit_info:
            main(["describe", str(fixture_csv), "--column", "Age", "--outliers", "Balance"])
        captured = capsys.readouterr()
        assert (exit_info.value.code, captured.out) == (2, "")
        assert "eda describe: error: argument --outliers: not allowed with argument --column" in captured.err

    @pytest.mark.parametrize("options, message", [
        (["--outliers", "Balance", "--k", "nan"], "IQR multiplier must be finite and >= 0"),
        (["--outliers", "Balance", "--k", "inf"], "IQR multiplier must be finite and >= 0"),
        (["--outliers", "CreditScore", "--method", "zscore", "--threshold", "inf"],
         "z-score threshold must be finite and > 0"),
    ])
    def test_non_finite_fence_exit_2(self, capsys, fixture_csv, options, message):
        code, out, err = run(capsys, "describe", str(fixture_csv), *options)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestClean:
    def test_impute_zeroes_nulls(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("Age,Name\n30,a\n,b\n50,c\n", encoding="utf-8")
        out_csv = tmp_path / "out.csv"
        code, _, _ = run(capsys, "clean", str(src), "--impute", "Age=mean", "--out", str(out_csv))
        assert code == 0
        from edakit.table import read_csv

        t = read_csv(out_csv)
        assert t.column("Age").null_count == 0
        assert t.column("Age").values[1] == 40.0

    def test_stdout_round_trips(self, capsys, tmp_path, fixture_csv):
        code, out, _ = run(capsys, "clean", str(fixture_csv), "--drop", "Surname")
        assert code == 0
        echo = tmp_path / "echo.csv"
        echo.write_text(out, encoding="utf-8")
        from edakit.table import read_csv

        t = read_csv(echo)
        assert t.row_count == 200
        assert not t.has_column("Surname")

    def test_padded_constant_exit_2(self, capsys, tmp_path):
        blanks = ROOT / "data" / "churn_fixture_blanks.csv"
        argv = ("clean", str(blanks), "--impute", "Geography=constant: x", "--out", str(tmp_path / "o.csv"))
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "column 'Geography': values [' x'] would read back trimmed" in err

    def test_refused_write_keeps_existing_out(self, capsys, tmp_path):
        out_csv = tmp_path / "out.csv"
        out_csv.write_bytes(b"kept\n")
        code, _, err = run(capsys, "clean", str(ROOT / "data" / "churn_fixture_blanks.csv"),
                           "--impute", "Geography=constant: x", "--out", str(out_csv))
        assert code == 2
        assert "would read back trimmed" in err
        assert out_csv.read_bytes() == b"kept\n"

    def test_non_finite_clip_multiplier_exit_2(self, capsys, fixture_csv, tmp_path):
        out_csv = tmp_path / "x.csv"
        code, out, err = run(capsys, "clean", str(fixture_csv), "--clip-outliers", "CreditScore:nan",
                             "--out", str(out_csv))
        assert (code, out, err) == (2, "", "error: IQR multiplier must be finite and >= 0\n")
        assert not out_csv.exists()

    def test_clip_multiplier_not_a_number_exit_2(self, capsys, fixture_csv, tmp_path):
        out_csv = tmp_path / "x.csv"
        code, out, err = run(capsys, "clean", str(fixture_csv), "--clip-outliers", "Age:abc",
                             "--out", str(out_csv))
        assert (code, out) == (2, "")
        assert err == "error: bad --clip-outliers 'Age:abc'; expected COL[:K] with K a number\n"
        assert not out_csv.exists()

    def test_unknown_strategy(self, capsys, fixture_csv):
        code, _, err = run(capsys, "clean", str(fixture_csv), "--impute", "Age=bogus")
        assert code == 2
        assert "bogus" in err

    def test_impute_regress_keeps_predictor_case(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("Age,EstimatedSalary\n10,1\n,2\n30,3\n", encoding="utf-8")
        code, out, err = run(capsys, "clean", str(src), "--impute", "Age=regress:EstimatedSalary")
        assert code == 0, err
        assert out.splitlines()[2] == "20,2"

    def test_impute_text_constant_keeps_case(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("Gender,Age\nFemale,1\n,2\nMale,3\n", encoding="utf-8")
        code, out, err = run(capsys, "clean", str(src), "--impute", "Gender=constant:Male")
        assert code == 0, err
        assert out.splitlines()[2] == "Male,2"

    @pytest.mark.parametrize("text", ["1", "007"])
    def test_impute_constant_keeps_text_as_typed(self, capsys, tmp_path, text):
        src = tmp_path / "in.csv"
        src.write_text("Code,Age\nA7,1\n,\nB3,3\n", encoding="utf-8")
        code, out, err = run(capsys, "clean", str(src),
                             "--impute", f"Code=constant:{text}", "--impute", "Age=constant:2.5")
        assert code == 0, err
        assert out.splitlines()[2] == f"{text},2.5"

    def test_impute_boolean_constant_other_than_0_or_1_exit_2(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("b,Age\n1,1\n,2\n0,3\n", encoding="utf-8")
        code, out, err = run(capsys, "clean", str(src), "--impute", "b=constant:0.5")
        assert code == 2
        assert out == ""
        assert err == "error: column 'b' row 1: boolean cell must be int 0 or 1\n"
        code, out, err = run(capsys, "clean", str(src), "--impute", "b=constant:1")
        assert code == 0, err
        assert out.splitlines()[2] == "1,2"

    def test_impute_constant_missing_token_is_refused(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("Gender,Age\nFemale,1\n,2\n", encoding="utf-8")
        code, out, err = run(capsys, "clean", str(src), "--impute", "Gender=constant:NA")
        assert code == 2
        assert out == ""
        assert "'Gender'" in err and "missing" in err

    def test_impute_specs_apply_left_to_right(self, capsys, tmp_path):
        # row 2 misses both Age and Balance: a regress: fit sees Age's filled
        # cell only when Age was imputed by an earlier --impute
        src = tmp_path / "in.csv"
        src.write_text("Age,Balance\n10,100\n20,\n,\n40,400\n", encoding="utf-8")
        code, out, err = run(capsys, "clean", str(src),
                             "--impute", "Balance=regress:Age", "--impute", "Age=median")
        assert code == 2
        assert out == ""
        assert "'Age' is missing at row 2" in err
        code, out, err = run(capsys, "clean", str(src),
                             "--impute", "Age=median", "--impute", "Balance=regress:Age")
        assert code == 0, err
        assert out.splitlines()[3] == "20,200"

    def test_impute_keyword_case_insensitive(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("Age,Name\n30,a\n,b\n50,c\n", encoding="utf-8")
        code, out, err = run(capsys, "clean", str(src), "--impute", "Age=MEAN")
        assert code == 0, err
        assert out.splitlines()[2] == "40,b"


class TestCorr:
    def test_matrix_json(self, capsys, fixture_csv):
        code, out, _ = run(capsys, "corr", str(fixture_csv), "--method", "pearson")
        assert code == 0
        payload = json.loads(out)
        k = len(payload["labels"])
        values = payload["values"]
        assert all(values[i][j] == values[j][i] for i in range(k) for j in range(k))

    def test_columns_case_hint(self, capsys, fixture_csv):
        code, out, err = run(capsys, "corr", str(fixture_csv), "--columns", "age,Balance")
        assert (code, out) == (2, "")
        assert "unknown columns: ['age']; did you mean 'Age'?" in err

    def test_heatmap_written(self, capsys, fixture_csv, tmp_path):
        svg = tmp_path / "m.svg"
        code, _, err = run(capsys, "corr", str(fixture_csv), "--heatmap", str(svg))
        assert code == 0
        assert svg.exists()
        import xml.etree.ElementTree as ET

        ET.parse(svg)

    def test_bogus_method_usage_error(self, fixture_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["corr", str(fixture_csv), "--method", "bogus"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err


class TestCluster:
    def test_kmeans_deterministic_stdout(self, capsys, fixture_csv):
        argv = ["cluster", str(fixture_csv), "--algo", "kmeans", "--k", "2",
                "--seed", "7", "--columns", "CreditScore,Age"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_dbscan_allows_noise_label(self, capsys, fixture_csv):
        code, out, _ = run(capsys, "cluster", str(fixture_csv), "--algo", "dbscan",
                           "--eps", "0.5", "--min-pts", "4",
                           "--columns", "CreditScore,Age")
        assert code == 0
        labels = json.loads(out)["labels"]
        assert all(isinstance(v, int) and v >= -1 for v in labels)

    def test_k_zero_exit_2(self, capsys, fixture_csv):
        code, _, err = run(capsys, "cluster", str(fixture_csv), "--algo", "kmeans",
                           "--k", "0", "--columns", "CreditScore,Age")
        assert code == 2
        assert "error" in err

    def test_gmm_seed_env_override(self, capsys, fixture_csv, monkeypatch):
        monkeypatch.setenv("EDA_SEED", "99")
        code, out, _ = run(capsys, "cluster", str(fixture_csv), "--algo", "gmm",
                           "--k", "2", "--columns", "CreditScore,Age")
        assert code == 0
        assert json.loads(out)["seed"] == 99

    def test_bad_seed_env_is_a_usage_error(self, capsys, fixture_csv, monkeypatch):
        monkeypatch.setenv("EDA_SEED", "abc")
        with pytest.raises(SystemExit) as exit_info:
            main(["cluster", str(fixture_csv), "--algo", "kmeans", "--k", "2",
                  "--columns", "CreditScore,Age"])
        err = capsys.readouterr().err
        assert exit_info.value.code == 2
        assert [line for line in err.splitlines() if "error" in line] == [
            "eda cluster: error: argument --seed: invalid int value: 'abc'"
        ]
        assert "Traceback" not in err

    def test_categorical_columns_rejected_without_selection(self, capsys, fixture_csv):
        code, _, err = run(capsys, "cluster", str(fixture_csv), "--algo", "kmeans", "--k", "2")
        assert code == 2
        assert "encode" in err

    def test_columns_case_hint(self, capsys, fixture_csv):
        code, out, err = run(capsys, "cluster", str(fixture_csv), "--algo", "kmeans", "--k", "3",
                             "--columns", "age,balance")
        assert (code, out) == (2, "")
        assert err == "error: unknown columns: ['age', 'balance']; did you mean 'Age', 'Balance'?\n"

    @pytest.mark.parametrize("options, message", [
        (["--algo", "kmeans"], "kmeans needs --k"),
        (["--algo", "gmm"], "gmm needs --k"),
        (["--algo", "dbscan", "--min-pts", "4"], "dbscan needs --eps and --min-pts"),
        (["--algo", "dbscan", "--eps", "0.5"], "dbscan needs --eps and --min-pts"),
    ])
    def test_missing_algorithm_parameter_exit_2(self, capsys, fixture_csv, options, message):
        code, out, err = run(capsys, "cluster", str(fixture_csv), *options, "--columns", "CreditScore,Age")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_hier_labels(self, capsys, tmp_path):
        src = tmp_path / "pts.csv"
        src.write_text("x,y\n0,0\n0,1\n10,0\n10,1\n", encoding="utf-8")
        code, out, _ = run(capsys, "cluster", str(src), "--algo", "hier",
                           "--linkage", "single", "--k", "2")
        labels = json.loads(out)["labels"]
        assert labels[0] == labels[1] != labels[2] == labels[3]


class TestPcaCommand:
    def test_full_rank_ratios_sum_to_one(self, capsys, fixture_csv):
        code, out, _ = run(capsys, "pca", str(fixture_csv), "--components", "3",
                           "--columns", "CreditScore,Age,Balance")
        assert code == 0
        ratios = json.loads(out)["explained_ratio"]
        assert abs(sum(ratios) - 1.0) < 1e-10

    def test_component_mismatch_exit_2(self, capsys, fixture_csv):
        code, _, _ = run(capsys, "pca", str(fixture_csv), "--components", "99",
                         "--columns", "CreditScore,Age")
        assert code == 2


class TestTimeseriesCommand:
    def test_acf_lag_zero(self, capsys, fixture_csv):
        code, out, _ = run(capsys, "timeseries", str(fixture_csv), "--column",
                           "EstimatedSalary", "--op", "acf", "--max-lag", "0")
        assert code == 0
        assert json.loads(out)["values"] == [1.0]

    def test_column_case_hint(self, capsys, fixture_csv):
        code, out, err = run(capsys, "timeseries", str(fixture_csv), "--column", "age", "--op", "acf")
        assert (code, out) == (2, "")
        assert err == "error: no column named 'age'; did you mean 'Age'?\n"

    def test_categorical_column_exit_2(self, capsys, fixture_csv):
        code, out, err = run(capsys, "timeseries", str(fixture_csv), "--column", "Geography", "--op", "acf")
        assert (code, out, err) == (2, "", "error: column 'Geography' is not numeric\n")

    def test_missing_cells_exit_2(self, capsys):
        blanks = ROOT / "data" / "churn_fixture_blanks.csv"
        code, out, err = run(capsys, "timeseries", str(blanks), "--column", "Age", "--op", "acf")
        assert (code, out, err) == (2, "", "error: column 'Age' has missing cells; impute first\n")

    def test_decompose_needs_period(self, capsys, fixture_csv):
        code, _, err = run(capsys, "timeseries", str(fixture_csv), "--column",
                           "EstimatedSalary", "--op", "decompose")
        assert code == 2
        assert "period" in err


    @pytest.mark.parametrize("rel_tol", ["nan", "-1"])
    def test_stationarity_refuses_nan_or_negative_tolerance(self, capsys, fixture_csv, rel_tol):
        code, out, err = run(capsys, "timeseries", str(fixture_csv), "--column", "Balance",
                             "--op", "stationarity", "--rel-tol", rel_tol)
        assert (code, out, err) == (2, "", "error: rel_tol must be >= 0\n")


class TestPlotCommand:
    @pytest.mark.parametrize(
        "argv",
        [
            ("--kind", "hist", "--column", "CreditScore", "--bins", "10"),
            ("--kind", "box", "--column", "Age"),
            ("--kind", "bar", "--column", "Geography"),
            ("--kind", "scatter", "--x", "CreditScore", "--y", "Age"),
            ("--kind", "heatmap"),
        ],
    )
    def test_kinds_write_valid_svg(self, capsys, fixture_csv, tmp_path, argv):
        out_svg = tmp_path / "plot.svg"
        code, _, _ = run(capsys, "plot", str(fixture_csv), *argv, "--out", str(out_svg))
        assert code == 0
        import xml.etree.ElementTree as ET

        ET.parse(out_svg)

    def test_zero_bins_exit_2(self, capsys, fixture_csv, tmp_path):
        out_svg = tmp_path / "h.svg"
        code, _, err = run(capsys, "plot", str(fixture_csv), "--kind", "hist", "--column", "Age",
                           "--bins", "0", "--out", str(out_svg))
        assert code == 2
        assert err == "error: bin count must be >= 1\n"
        assert not out_svg.exists()

    @pytest.mark.parametrize("csv", ["churn_fixture.csv", "churn_fixture_blanks.csv"])
    def test_box_draws_the_outlier_report(self, capsys, tmp_path, csv):
        # markers come from the report describe --outliers prints, and whiskers
        # end at the most extreme values inside its bounds
        src = ROOT / "data" / csv
        counts = {}
        for c in table.read_csv(src).columns:
            if c.kind is not table.Kind.NUMERIC:
                continue
            out_svg = tmp_path / f"{c.name}.svg"
            assert run(capsys, "plot", str(src), "--kind", "box", "--column", c.name, "--out", str(out_svg))[0] == 0
            report = json.loads(run(capsys, "describe", str(src), "--outliers", c.name)[1])
            summary = json.loads(run(capsys, "describe", str(src), "--column", c.name)[1])
            root = ElementTree.parse(out_svg).getroot()
            circles = [e for e in root.iter(f"{SVG}circle") if e.get("class") == "outlier"]
            counts[c.name] = len(circles)
            assert len(circles) == len(report["outlier_row_indices"])
            lo, hi = summary["min"], summary["max"]
            pad = 0.05 * (hi - lo) if hi > lo else 0.5

            def pixel(v):  # the padded value range onto the 480 px plot area, whose bottom is y = 540
                return 540 - (v - lo + pad) / (hi - lo + 2 * pad) * 480

            # the whisker-end caps span x 360..440, lower cap first
            ends = [float(e.get("y1")) for e in root.iter(f"{SVG}line") if e.get("x1") == "360"]
            outliers = set(report["outlier_row_indices"])
            inside = [v for i, v in enumerate(c.values) if v is not None and i not in outliers]
            assert report["bounds"]["lower"] <= min(inside) <= max(inside) <= report["bounds"]["upper"]
            expected = [pixel(min(inside)), pixel(max(inside))]
            assert ends == pytest.approx(expected, abs=1e-3)
        assert len(counts) == 8
        if csv == "churn_fixture.csv":
            assert (counts["CreditScore"], counts["Age"], counts["NumOfProducts"]) == (1, 1, 4)

    def test_scatter_needs_axes(self, capsys, fixture_csv, tmp_path):
        code, _, err = run(capsys, "plot", str(fixture_csv), "--kind", "scatter",
                           "--out", str(tmp_path / "x.svg"))
        assert code == 2
        assert "--x" in err


class TestChurnReportCommand:
    def test_fixture_run(self, capsys, fixture_csv, tmp_path):
        out_dir = tmp_path / "rep"
        code, out, _ = run(capsys, "churn-report", str(fixture_csv), "--out", str(out_dir))
        assert code == 0
        payload = json.loads(out)
        assert payload["row_count"] == 200
        assert all(f["verdict"] == "NOT-EVALUATED" for f in payload["findings"])
        assert (out_dir / "report.md").exists()
        assert (out_dir / "report.json").exists()
        assert sorted(p.name for p in (out_dir / "plots").iterdir())[0] == "01_geography_bar.svg"

    def test_forced_evaluation_exit_code(self, capsys, fixture_csv, tmp_path):
        code, out, _ = run(capsys, "churn-report", str(fixture_csv), "--out",
                           str(tmp_path / "rep"), "--evaluate", "always")
        payload = json.loads(out)
        failed = any(f["verdict"] == "FAIL" for f in payload["findings"])
        assert code == (3 if failed else 0)

    def test_malformed_csv_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1\n", encoding="utf-8")
        code, _, err = run(capsys, "churn-report", str(bad), "--out", str(tmp_path / "rep"))
        assert code == 2
        assert "error" in err

    def test_schema_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n", encoding="utf-8")
        code, _, err = run(capsys, "churn-report", str(bad), "--out", str(tmp_path / "rep"))
        assert code == 2
        assert "schema" in err

    def test_extra_numeric_column_is_reported(self, capsys, fixture_csv, tmp_path):
        lines = fixture_csv.read_text(encoding="utf-8").splitlines()
        src = tmp_path / "extra.csv"
        src.write_text("\n".join([lines[0] + ",Extra"] + [f"{row},{i % 7}" for i, row in enumerate(lines[1:])]) + "\n",
                       encoding="utf-8")
        code, _, _ = run(capsys, "churn-report", str(src), "--out", str(tmp_path / "rep"))
        assert code == 0
        written = json.loads((tmp_path / "rep" / "report.json").read_text(encoding="utf-8"))
        assert list(written["null_counts"])[-1] == "Extra"
        assert "Extra" in written["correlation_matrix"]["labels"]
        assert not {"RowNumber", "CustomerId", "Surname"} & set(written["null_counts"])
        # the same files as the library pipeline writes from a full read
        report.render_report(report.churn_pipeline(table.read_csv(src)), report.ReportFormat.MARKDOWN, tmp_path / "lib")
        for name in ("report.json", "report.md", "plots/03_correlation_heatmap.svg"):
            assert (tmp_path / "rep" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes(), name

    def test_missing_required_column_error(self, capsys, fixture_csv, tmp_path):
        lines = fixture_csv.read_text(encoding="utf-8").splitlines()
        age = lines[0].split(",").index("Age")
        src = tmp_path / "no_age.csv"
        src.write_text("".join(",".join(r.split(",")[:age] + r.split(",")[age + 1:]) + "\n" for r in lines),
                       encoding="utf-8")
        code, out, err = run(capsys, "churn-report", str(src), "--out", str(tmp_path / "rep"))
        assert (code, out) == (2, "")
        assert err == "error: churn schema mismatch: missing required column 'Age'\n"

    def test_artifacts_byte_identical_across_runs(self, capsys, fixture_csv, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        code1, out1, _ = run(capsys, "churn-report", str(fixture_csv), "--out", str(d1))
        code2, out2, _ = run(capsys, "churn-report", str(fixture_csv), "--out", str(d2))
        assert code1 == code2 == 0
        assert out1 == out2
        files1 = sorted(p.relative_to(d1) for p in d1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(d2) for p in d2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes(), str(rel)


HEADER = ["RowNumber", "CustomerId", "Surname", "CreditScore", "Geography", "Gender", "Age", "Tenure",
          "Balance", "NumOfProducts", "HasCrCard", "IsActiveMember", "EstimatedSalary", "Exited"]


@pytest.mark.parametrize("argv, typed", [
    (["churn-report", "--out", "{tmp}"], HEADER[3:]),
    (["describe"], HEADER),
    (["describe", "--column", "Age"], ["Age"]),
    (["describe", "--outliers", "Balance"], ["Balance"]),
    (["corr", "--columns", "Tenure,CreditScore"], ["CreditScore", "Tenure"]),
    (["cluster", "--algo", "kmeans", "--k", "2", "--columns", "Age,CreditScore"], ["CreditScore", "Age"]),
    (["pca", "--components", "1", "--columns", "Age,Balance"], ["Age", "Balance"]),
    (["timeseries", "--column", "EstimatedSalary", "--op", "acf"], ["EstimatedSalary"]),
    (["plot", "--kind", "hist", "--column", "Age", "--out", "{tmp}/p.svg"], ["Age"]),
    (["plot", "--kind", "scatter", "--x", "Age", "--y", "CreditScore", "--out", "{tmp}/p.svg"],
     ["CreditScore", "Age"]),
    (["plot", "--kind", "heatmap", "--out", "{tmp}/p.svg"], HEADER),
])
def test_commands_type_only_the_columns_they_read(capsys, fixture_csv, tmp_path, monkeypatch, argv, typed):
    seen = []
    real = table._ColumnTyper

    def spy(name, *args):
        seen.append(name)
        return real(name, *args)

    monkeypatch.setattr(table, "_ColumnTyper", spy)
    argv = [argv[0], str(fixture_csv)] + [a.replace("{tmp}", str(tmp_path)) for a in argv[1:]]
    code, _, err = run(capsys, *argv)
    assert (code, err.startswith("error")) == (0, False)
    assert seen == typed


def test_start_up_loads_no_xml_or_network_modules():
    # xml.sax.saxutils pulls in urllib.request, http.client, ssl and email
    code = "import sys, edakit.cli; print(sorted({'xml.sax', 'urllib.request', 'ssl'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads through Linux /proc")
def test_start_up_runs_blas_on_one_thread():
    code = "import os, edakit.cli; print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "1 1\n"


@pytest.mark.parametrize("argv, message", [
    (["describe", "--column", "Age", "--method", "zscore", "--threshold", "9"],
     "--column does not read --method or --threshold"),
    (["describe", "--k", "2"], "schema does not read --k"),
    (["describe", "--outliers", "Age", "--threshold", "2"], "iqr does not read --threshold"),
    (["describe", "--outliers", "Age", "--k", "2", "--method", "zscore"], "zscore does not read --k"),
    (["cluster", "--algo", "kmeans", "--k", "2", "--eps", "3", "--linkage", "single"],
     "kmeans does not read --eps or --linkage"),
    (["cluster", "--algo", "gmm", "--k", "2", "--min-pts", "3"], "gmm does not read --min-pts"),
    (["cluster", "--algo", "dbscan", "--eps", "1", "--min-pts", "3", "--k", "2"], "dbscan does not read --k"),
    (["cluster", "--algo", "hier", "--eps", "1"], "hier does not read --eps"),
    (["timeseries", "--column", "Age", "--op", "acf", "--window", "3"], "acf does not read --window"),
    (["timeseries", "--column", "Age", "--op", "ma", "--max-lag", "3", "--period", "12"],
     "ma does not read --max-lag or --period"),
    (["timeseries", "--column", "Age", "--op", "stationarity", "--alpha", "0.3"],
     "stationarity does not read --alpha"),
    (["timeseries", "--column", "Age", "--op", "decompose"], "decompose needs --period"),
    (["plot", "--kind", "heatmap", "--column", "Age"], "heatmap does not read --column"),
    (["plot", "--kind", "box", "--column", "Age", "--bins", "5"], "box does not read --bins"),
    (["plot", "--kind", "hist", "--column", "Age", "--method", "kendall"], "hist does not read --method"),
    (["plot", "--kind", "scatter", "--x", "Age"], "scatter needs --x and --y"),
    (["plot", "--kind", "bar"], "bar needs --column"),
])
def test_mode_refuses_options_it_does_not_read(capsys, fixture_csv, tmp_path, argv, message):
    extra = {"cluster": ["--columns", "Age,CreditScore"], "plot": ["--out", str(tmp_path / "p.svg")]}
    code, out, err = run(capsys, argv[0], str(fixture_csv), *argv[1:], *extra.get(argv[0], []))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "p.svg").exists()


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_exits_1_quietly(tmp_path, unbuffered):
    # the output is several pipe buffers long, so writing it fails once the reader is gone
    src = tmp_path / "long.csv"
    src.write_text("v\n" + "".join(f"{i % 97}.5\n" for i in range(20_000)), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONUNBUFFERED": unbuffered}
    argv = [sys.executable, "-m", "edakit.cli", "timeseries", str(src), "--column", "v", "--op", "ma", "--window", "1"]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(16)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_full_stdout_is_an_error(fixture_csv, unbuffered):
    # buffered, the failed write stays in the buffer for the flush at exit
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONUNBUFFERED": unbuffered}
    with open("/dev/full", "wb") as full:
        done = subprocess.run([sys.executable, "-m", "edakit.cli", "describe", str(fixture_csv), "--column", "Age"],
                              env=env, stdout=full, stderr=subprocess.PIPE, text=True)
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


# columns of 1e200 scale, whose squares overflow float64, and a column whose sum does
@pytest.mark.parametrize("csv, argv", [
    ("a,b\n1e200,1\n2e200,2\n3e200,3\n4e200,5\n", ["corr"]),
    ("a,b\n1e200,1\n2e200,2\n3e200,3\n4e200,5\n", ["describe", "--column", "a"]),
    ("a,b\n1e200,1\n2e200,2\n3e200,3\n4e200,5\n", ["pca", "--components", "1"]),
    ("a\n1e308\n1e308\n", ["describe", "--column", "a"]),
], ids=["corr", "describe", "pca", "sum_overflows"])
def test_overflow_is_an_error(capsys, tmp_path, csv, argv):
    src = tmp_path / "big.csv"
    src.write_text(csv, encoding="utf-8")
    code, out, err = run(capsys, argv[0], str(src), *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {argv[0]}: float64 overflow encountered in ")
    assert err.endswith("; rescale the data\n") and err.count("\n") == 1


def test_library_callers_keep_numpys_warning():
    big = table.numeric_column("a", [1e200, 2e200, 3e200, 4e200])
    with pytest.warns(RuntimeWarning, match="overflow"):
        assoc.pearson(big, table.numeric_column("b", [1, 2, 3, 5]))


_SMALL = ["0", "1", "-2.5", "3", "7", "0.1", "1e-300", "5e-324"]
_CELL_POOLS = [_SMALL, _SMALL, _SMALL + ["1e200", "1e308", "-1e308"], _SMALL + ["", "NA"], ["x", "y", ""]]


@st.composite
def _small_csv(draw):
    """Columns a, b and c of up to 12 rows, each drawn from one pool: small
    numbers, with huge ones, with blanks, or labels."""
    n = draw(st.integers(1, 12))
    columns = [draw(st.lists(st.sampled_from(draw(st.sampled_from(_CELL_POOLS))), min_size=n, max_size=n))
               for _ in "abc"]
    return "a,b,c\n" + "".join(",".join(row) + "\n" for row in zip(*columns))


# values for a mode's options: a needed option always gets one, another one half the time
_OPTION_VALUES = {
    "k": ["1", "2", "3"], "eps": ["0.5", "2", "1e300"], "min_pts": ["1", "2", "3"], "period": ["2", "3"],
    "column": list("abc"), "x": list("abc"), "y": list("abc"), "max_lag": ["0", "1", "3"],
    "window": ["1", "2"], "lag": ["1", "2"], "segments": ["2", "3"],
}
_MODES = (
    [("describe", mode) for mode in cli._DESCRIBE] + [("cluster", mode) for mode in cli._CLUSTER]
    + [("timeseries", mode) for mode in cli._TIMESERIES] + [("plot", mode) for mode in cli._PLOT]
    + [("corr", method) for method in ("pearson", "spearman", "kendall")]
    + [("pca", "plain"), ("pca", "standardize")]
)


def _mode_argv(draw, command: str, mode: str) -> list[str]:
    column = draw(st.sampled_from("abc"))
    if command == "describe":
        return {"schema": [], "--column": ["--column", column]}.get(
            mode, ["--outliers", column, "--method", mode])
    if command == "corr":
        return ["--method", mode]
    if command == "pca":
        return ["--components", "1", "--columns", "a,b", *(["--standardize"] if mode == "standardize" else [])]
    flag = {"cluster": "--algo", "timeseries": "--op", "plot": "--kind"}[command]
    argv = [flag, mode, *({"cluster": ["--columns", "a,b"], "timeseries": ["--column", column]}.get(command, []))]
    modes = {"cluster": cli._CLUSTER, "timeseries": cli._TIMESERIES, "plot": cli._PLOT}[command]
    for dest, default in modes[mode].items():
        if dest in _OPTION_VALUES and (default is cli._NEEDED or draw(st.booleans())):
            argv += ["--" + dest.replace("_", "-"), draw(st.sampled_from(_OPTION_VALUES[dest]))]
    return argv


@pytest.mark.parametrize("command, mode", _MODES, ids=[f"{c}-{m}" for c, m in _MODES])
@settings(max_examples=25)
@given(data=st.data())
def test_every_mode_succeeds_or_refuses_in_one_line(command, mode, data):
    csv = data.draw(_small_csv())
    argv = _mode_argv(data.draw, command, mode)
    with tempfile.TemporaryDirectory() as tmp:
        src, svg = Path(tmp) / "in.csv", Path(tmp) / "out.svg"
        src.write_text(csv, encoding="utf-8")
        if command == "plot":
            argv += ["--out", str(svg)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(src), *argv])
        if code == 2:
            assert out.getvalue() == "" and not svg.exists()
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        else:
            assert code == 0, err.getvalue()
            if command == "plot":
                ElementTree.parse(svg)
            else:
                json.loads(out.getvalue())
