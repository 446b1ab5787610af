import csv
import json
import math
import re
from html.parser import HTMLParser
from pathlib import Path

import numpy as np
import pytest

from edakit.report import (
    ReportFormat,
    Verdict,
    churn_pipeline,
    exit_code,
    render_report,
    validate_schema,
)
from edakit.table import (
    Kind,
    Table,
    boolean_column,
    categorical_column,
    drop_columns,
    numeric_column,
    numeric_with_mask,
    read_csv,
)

from conftest import ROOT


@pytest.fixture(scope="module")
def fixture_table(fixture_csv):
    return read_csv(fixture_csv)


def raw_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return list(reader)


def markdown_tables(text):
    """{"## " heading: rows of cell text} for each Markdown table, ``\\|`` read as ``|``."""
    tables, heading = {}, None
    for line in text.splitlines():
        if line.startswith("## "):
            heading = line[3:]
        elif line.startswith("| ") and not line.startswith("| --- "):
            cells = re.split(r"(?<!\\)\|", line)[1:-1]
            tables.setdefault(heading, []).append([c.strip().replace("\\|", "|") for c in cells])
    return tables


class _HtmlTables(HTMLParser):
    """{<h2> heading: rows of cell text} for each HTML table, entities decoded."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.tables, self.heading, self.in_heading, self.cell = {}, None, False, None

    def handle_starttag(self, tag, attrs):
        if tag == "h2":
            self.heading, self.in_heading = "", True
        elif tag == "tr":
            self.tables.setdefault(self.heading, []).append([])
        elif tag in ("td", "th"):
            self.cell = ""

    def handle_endtag(self, tag):
        if tag == "h2":
            self.in_heading = False
        elif tag in ("td", "th"):
            self.tables[self.heading][-1].append(self.cell)
            self.cell = None

    def handle_data(self, data):
        if self.cell is not None:
            self.cell += data
        elif self.in_heading:
            self.heading += data


def html_tables(text):
    parser = _HtmlTables()
    parser.feed(text)
    return parser.tables


class TestValidateSchema:
    def test_fixture_is_valid(self, fixture_table):
        schema = validate_schema(fixture_table)
        assert schema.droppable_present == ("RowNumber", "CustomerId", "Surname")

    def test_missing_column_named(self, fixture_table):
        broken = drop_columns(fixture_table, ["Exited"])
        with pytest.raises(ValueError, match="Exited"):
            validate_schema(broken)

    def test_wrong_kind_reported(self, fixture_table):
        kept = drop_columns(fixture_table, ["Geography"])
        bad = kept.with_columns(kept.columns + (numeric_column("Geography", [1.0] * kept.row_count),))
        with pytest.raises(ValueError, match="Geography.*numeric"):
            validate_schema(bad)

    def test_all_mismatches_enumerated(self, fixture_table):
        broken = drop_columns(fixture_table, ["Exited", "Age"])
        with pytest.raises(ValueError) as err:
            validate_schema(broken)
        assert "Exited" in str(err.value) and "Age" in str(err.value)


class TestPipeline:
    def test_row_count_and_rates_match_raw_tally(self, fixture_table, fixture_csv):
        r = churn_pipeline(fixture_table)
        rows = raw_rows(fixture_csv)
        assert r.row_count == len(rows)
        exited = sum(int(row["Exited"]) for row in rows)
        cards = sum(int(row["HasCrCard"]) for row in rows)
        assert math.isclose(r.churn_rate, exited / len(rows), rel_tol=1e-12)
        assert math.isclose(r.hascrcard_rate, cards / len(rows), rel_tol=1e-12)

    def test_geography_counts_match_raw_tally(self, fixture_table, fixture_csv):
        r = churn_pipeline(fixture_table)
        rows = raw_rows(fixture_csv)
        want = {}
        for row in rows:
            want[row["Geography"]] = want.get(row["Geography"], 0) + 1
        got = {x.label: x.count for x in r.geography_counts.rows}
        assert got == want

    def test_churn_rate_complement_identity(self, fixture_table):
        r = churn_pipeline(fixture_table)
        exited = fixture_table.column("Exited")
        stayed = sum(1 for v, m in zip(exited.values, exited.missing) if not m and v == 0)
        present = len(exited) - exited.null_count
        assert math.isclose(r.churn_rate, 1.0 - stayed / present, rel_tol=1e-12)

    def test_fixture_not_evaluated_by_default(self, fixture_table):
        r = churn_pipeline(fixture_table)
        assert not r.evaluated
        assert {f.verdict for f in r.findings} == {Verdict.NOT_EVALUATED}
        assert exit_code(r) == 0

    def test_forced_evaluation_produces_verdicts(self, fixture_table):
        r = churn_pipeline(fixture_table, evaluate_findings=True)
        assert r.evaluated
        verdicts = {f.claim_id: f.verdict for f in r.findings}
        assert verdicts["F12"] is Verdict.NOT_EVALUATED  # reported, never asserted
        assert any(v in (Verdict.PASS, Verdict.FAIL) for v in verdicts.values())

    def test_correlation_grid_covers_numeric_and_boolean(self, fixture_table):
        r = churn_pipeline(fixture_table)
        assert len(r.correlation_heatmap.labels) == 9
        assert "Exited" in r.correlation_heatmap.labels
        assert "Geography" not in r.correlation_heatmap.labels

    def test_findings_reproducible_from_measured_values(self, fixture_table):
        r = churn_pipeline(fixture_table, evaluate_findings=True)
        by_id = {f.claim_id: f for f in r.findings}
        f9 = by_id["F9"]
        expected = Verdict.PASS if 0.70 <= f9.measured["hascrcard_rate"] <= 0.72 else Verdict.FAIL
        assert f9.verdict is expected
        f10 = by_id["F10"]
        expected = Verdict.PASS if 0.19 <= f10.measured["churn_rate"] <= 0.21 else Verdict.FAIL
        assert f10.verdict is expected

    def test_pipeline_is_pure(self, fixture_table):
        a = churn_pipeline(fixture_table)
        b = churn_pipeline(fixture_table)
        assert a.to_json_dict() == b.to_json_dict()
        assert [(n, d.body) for n, d in a.plots] == [(n, d.body) for n, d in b.plots]

    def test_schema_error_raised_before_steps(self, fixture_table):
        with pytest.raises(ValueError, match="schema"):
            churn_pipeline(drop_columns(fixture_table, ["Balance"]))

    # each case blanks one column, keeping the cells in `kept`; a CreditScore
    # with a single present value passes schema validation but cannot be summarized
    STEP_FAILURES = [
        ("CreditScore", [700.0], r"step 5 \(credit score summary\)"),
        ("Geography", [], r"step 3 \(geography and gender counts\) failed: .*Geography"),
        ("Gender", [], r"step 3 \(geography and gender counts\) failed: .*Gender"),
        ("Age", [], r"step 6 \(credit score vs age\) failed: .*Age"),
        ("Tenure", [], r"step 7 \(tenure counts\) failed: .*Tenure"),
        ("Exited", [], r"step 8 \(churn by geography\) failed: .*Exited"),
        ("Balance", [], r"step 11 \(findings\) failed: .*Balance"),
        ("NumOfProducts", [], r"step 11 \(findings\) failed: .*NumOfProducts"),
        ("EstimatedSalary", [], r"step 11 \(findings\)"),
        ("HasCrCard", [], r"step 9 \(overall rates\) failed: .*HasCrCard"),
        ("Age", [-1.0, 30.0], r"step 10 \(churn by age band and gender\) failed: .*Age"),
    ]

    # a negative kept value gets its own id suffix, so "Age" stays the blanked-Age case
    @pytest.mark.parametrize(
        "name, kept, step", STEP_FAILURES,
        ids=[c[0] + ("-negative" if any(v < 0 for v in c[1]) else "") for c in STEP_FAILURES],
    )
    def test_step_error_names_step(self, fixture_table, name, kept, step):
        n = fixture_table.row_count
        build = {Kind.NUMERIC: numeric_column, Kind.CATEGORICAL: categorical_column,
                 Kind.BOOLEAN: boolean_column}[fixture_table.column(name).kind]
        broken = fixture_table.replace_column(build(name, kept + [None] * (n - len(kept))))
        with pytest.raises(RuntimeError, match=step):
            churn_pipeline(broken)

    def test_tiny_schema_conformant_table(self):
        n = 8
        t = Table(
            "mini",
            (
                numeric_column("CreditScore", [600, 650, 700, 850, 620, 640, 660, 680]),
                categorical_column("Geography", ["France", "France", "Spain", "Germany"] * 2),
                categorical_column("Gender", ["Male", "Female"] * 4),
                numeric_column("Age", [30, 40, 50, 35, 45, 28, 33, 61]),
                numeric_column("Tenure", [0, 1, 2, 3, 4, 5, 6, 7]),
                numeric_column("Balance", [0, 0, 100.5, 200.25, 0, 50, 75, 125]),
                numeric_column("NumOfProducts", [1, 2, 1, 2, 1, 2, 3, 1]),
                boolean_column("HasCrCard", [1, 1, 0, 1, 1, 0, 1, 1]),
                boolean_column("IsActiveMember", [0, 1, 0, 1, 1, 0, 1, 0]),
                numeric_column("EstimatedSalary", [5e4, 6e4, 7e4, 8e4, 9e4, 1e5, 2e5, 3e4]),
                boolean_column("Exited", [0, 0, 1, 0, 0, 1, 0, 0]),
            ),
            n,
        )
        r = churn_pipeline(t)
        assert r.row_count == n
        assert math.isclose(r.churn_rate, 0.25, rel_tol=1e-12)


    def test_tenure_counts_are_plain_ints_ascending(self, fixture_table):
        rows = churn_pipeline(fixture_table).tenure_counts.rows
        assert all(type(row.count) is int for row in rows)
        years = [float(row.label) for row in rows]
        assert years == sorted(years)

    def test_churn_by_geography_without_exits(self, fixture_table):
        # no "1" column in the Geography x Exited table, one Geography cell missing
        n = fixture_table.row_count
        geo = fixture_table.column("Geography").values
        t = fixture_table.replace_column(boolean_column("Exited", [0] * n))
        t = t.replace_column(categorical_column("Geography", [None, *geo[1:]]))
        r = churn_pipeline(t)
        assert r.churn_by_geography == {g: 0.0 for g in sorted(set(geo[1:]))}
        bar = dict(r.plots)["07_churn_by_geography_bar.svg"].body
        assert "France/stayed" in bar and "exited" not in bar


class TestChurnByAgeBandAndGender:
    AGE_EDGES = [0.0, 30.0, 40.0, 50.0, 60.0, math.inf]
    AGE_LABELS = ["[0,30)", "[30,40)", "[40,50)", "[50,60)", "[60,inf]"]

    @staticmethod
    def rates(keys, exited):
        """Churn rate per distinct key, over rows where the key is not None."""
        keys = np.array(keys, dtype=object)
        return {k: float(exited[keys == k].mean()) for k in sorted(set(keys.tolist()) - {None})}

    @pytest.mark.parametrize("csv_name", ["churn_fixture.csv", "churn_fixture_blanks.csv"])
    def test_rates_match_numpy(self, csv_name):
        t = read_csv(ROOT / "data" / csv_name)
        r = churn_pipeline(t)
        age, age_ok = numeric_with_mask(t.column("Age"))
        exited, exited_ok = numeric_with_mask(t.column("Exited"))
        band = np.searchsorted(self.AGE_EDGES, age, side="right") - 1
        bands = [self.AGE_LABELS[b] if ok else None for b, ok in zip(band.tolist(), age_ok & exited_ok)]
        gender = [g if ok else None for g, ok in zip(t.column("Gender").values, exited_ok)]
        want_bands = self.rates(bands, exited)
        want_gender = self.rates(gender, exited)
        assert list(r.churn_by_age_band) == [k for k in self.AGE_LABELS if k in want_bands]
        assert r.churn_by_age_band == pytest.approx(want_bands, rel=1e-12)
        assert r.churn_by_gender == pytest.approx(want_gender, rel=1e-12)

    def test_f13_never_evaluated(self, fixture_table):
        r = churn_pipeline(fixture_table, evaluate_findings=True)
        f13 = {f.claim_id: f for f in r.findings}["F13"]
        assert f13.verdict is Verdict.NOT_EVALUATED
        assert f13.measured == {"churn_by_age_band": r.churn_by_age_band, "churn_by_gender": r.churn_by_gender}


class TestRender:
    def test_markdown_references_exactly_written_svgs(self, fixture_table, tmp_path):
        r = churn_pipeline(fixture_table)
        render_report(r, ReportFormat.MARKDOWN, tmp_path)
        text = (tmp_path / "report.md").read_text(encoding="utf-8")
        on_disk = sorted(p.name for p in (tmp_path / "plots").iterdir())
        referenced = sorted(
            line.split("(plots/")[1].rstrip(")")
            for line in text.splitlines()
            if "(plots/" in line
        )
        assert referenced == on_disk

    def test_byte_identical_across_runs(self, fixture_table, tmp_path):
        r = churn_pipeline(fixture_table)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        render_report(r, ReportFormat.MARKDOWN, d1)
        render_report(r, ReportFormat.MARKDOWN, d2)
        for p1 in sorted(d1.rglob("*")):
            if p1.is_dir():
                continue
            p2 = d2 / p1.relative_to(d1)
            assert p1.read_bytes() == p2.read_bytes(), p1.name

    def test_json_payload_shape(self, fixture_table, tmp_path):
        r = churn_pipeline(fixture_table)
        render_report(r, ReportFormat.MARKDOWN, tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert payload["row_count"] == r.row_count
        assert len(payload["findings"]) == 13
        assert payload["correlation_matrix"]["labels"] == list(r.correlation_heatmap.labels)

    def test_html_output(self, fixture_table, tmp_path):
        r = churn_pipeline(fixture_table)
        render_report(r, ReportFormat.HTML, tmp_path)
        html = (tmp_path / "report.html").read_text(encoding="utf-8")
        assert html.startswith("<!DOCTYPE html>")
        assert "NOT-EVALUATED" in html

    def test_markdown_escapes_pipes_in_cells(self, fixture_table, tmp_path):
        geo = [{"Spain": "Spain|Islands"}.get(g, g) for g in fixture_table.column("Geography").values]
        t = fixture_table.replace_column(categorical_column("Geography", geo))
        t = t.with_columns(t.columns + (categorical_column("Sur|name", ["x"] * t.row_count),))
        render_report(churn_pipeline(t), ReportFormat.MARKDOWN, tmp_path)
        lines = (tmp_path / "report.md").read_text(encoding="utf-8").splitlines()
        assert "| Sur\\|name | 0 |" in lines
        assert any(line.startswith("| Spain\\|Islands | ") for line in lines)
        f12 = next(line for line in lines if line.startswith("| F12 |"))
        assert "Spain\\|Islands=" in f12 and "Spain|" not in f12

    def test_markdown_and_html_hold_the_same_tables(self, fixture_table, tmp_path):
        # "<b>" and "&amp;" read back as written only when HTML escapes < and &
        label, column = "Spain|Isles<b> &amp; Co", "Sur|name&amp;"
        geo = [{"Spain": label}.get(g, g) for g in fixture_table.column("Geography").values]
        t = fixture_table.replace_column(categorical_column("Geography", geo))
        t = t.with_columns(t.columns + (categorical_column(column, ["x"] * t.row_count),))
        r = churn_pipeline(t)
        render_report(r, ReportFormat.MARKDOWN, tmp_path / "md")
        render_report(r, ReportFormat.HTML, tmp_path / "html")
        md = markdown_tables((tmp_path / "md" / "report.md").read_text(encoding="utf-8"))
        html = html_tables((tmp_path / "html" / "report.html").read_text(encoding="utf-8"))
        cuts = ("geography", "age band", "gender")
        assert list(md) == ["Null counts", *(f"Churn rate by {c}" for c in cuts), "Findings"]
        for c in cuts:
            heading = f"Churn rate by {c}"
            assert md[heading][0] == [c, "churn rate"] and html[heading][0] == [c, "rate"]
            md[heading][0][1] = "rate"
        assert md == html
        assert [column, "0"] in md["Null counts"]
        assert any(row[0] == label for row in md["Churn rate by geography"])
        assert f"{label}=" in next(row for row in md["Findings"] if row[0] == "F12")[2]

    def test_empty_findings_edge(self, fixture_table, tmp_path):
        r = churn_pipeline(fixture_table)
        object.__setattr__(r, "findings", ())
        render_report(r, ReportFormat.MARKDOWN, tmp_path)
        text = (tmp_path / "report.md").read_text(encoding="utf-8")
        assert "| id | claim | measured | verdict |" in text
