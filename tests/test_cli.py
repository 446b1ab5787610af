import json
import os
import subprocess
import sys

import pytest

from conftest import ROOT
from edakit.cli import main


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

    def test_missing_file_exit_2(self, capsys):
        code, out, err = run(capsys, "describe", "/no/such/file.csv")
        assert code == 2
        assert out == ""
        assert "error:" in err

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

    def test_categorical_columns_rejected_without_selection(self, capsys, fixture_csv):
        code, _, err = run(capsys, "cluster", str(fixture_csv), "--algo", "kmeans", "--k", "2")
        assert code == 2
        assert "encode" in err

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

    def test_decompose_needs_period(self, capsys, fixture_csv):
        code, _, err = run(capsys, "timeseries", str(fixture_csv), "--column",
                           "EstimatedSalary", "--op", "decompose")
        assert code == 2
        assert "period" in err


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


def test_start_up_loads_no_xml_or_network_modules():
    # xml.sax.saxutils pulls in urllib.request, http.client, ssl and email
    code = "import sys, edakit.cli; print(sorted({'xml.sax', 'urllib.request', 'ssl'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
