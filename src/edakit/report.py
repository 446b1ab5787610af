"""Bank-churn case-study pipeline: schema validation, a fixed sequence of
analysis steps over the churn table, findings evaluation, and rendering to
Markdown/HTML with SVG artifacts.

Findings F1..F11 assert dataset-level claims with explicit tolerances; they
are only evaluated when the input is the real 10000-row dataset (or the
caller forces evaluation), because a small synthetic fixture cannot be
expected to satisfy dataset-level claims. F12 is always reported without a
verdict: per-geography churn similarity is a qualitative reading that this
pipeline measures but does not assert.
"""

from __future__ import annotations

import enum
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from html import escape
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import assoc, stats, table, viz
from .table import FreqRow, FrequencyTable, Kind, Table

REQUIRED_KINDS = {
    "CreditScore": Kind.NUMERIC,
    "Geography": Kind.CATEGORICAL,
    "Gender": Kind.CATEGORICAL,
    "Age": Kind.NUMERIC,
    "Tenure": Kind.NUMERIC,
    "Balance": Kind.NUMERIC,
    "NumOfProducts": Kind.NUMERIC,
    "HasCrCard": Kind.BOOLEAN,
    "IsActiveMember": Kind.BOOLEAN,
    "EstimatedSalary": Kind.NUMERIC,
    "Exited": Kind.BOOLEAN,
}

DROPPABLE = ("RowNumber", "CustomerId", "Surname")

# row count of the reference dataset; findings auto-evaluate only at full scale
REFERENCE_ROW_COUNT = 10000


class Verdict(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    NOT_EVALUATED = "NOT-EVALUATED"


@dataclass(frozen=True)
class Finding:
    claim_id: str
    claim: str
    measured: dict
    verdict: Verdict

    def to_dict(self) -> dict:
        return {
            "id": self.claim_id,
            "claim": self.claim,
            "measured": self.measured,
            "verdict": self.verdict.value,
        }


@dataclass(frozen=True)
class ChurnSchema:
    """Successful validation result; names the optional id columns found."""

    droppable_present: tuple[str, ...]


def validate_schema(t: Table) -> ChurnSchema:
    """Check the churn table shape, reporting every mismatch at once."""
    problems = []
    for name, kind in REQUIRED_KINDS.items():
        if not t.has_column(name):
            problems.append(f"missing required column {name!r}")
        else:
            actual = t.column(name).kind
            if actual is not kind:
                problems.append(
                    f"column {name!r} has kind {actual.value}, expected {kind.value}"
                )
    if problems:
        raise ValueError("churn schema mismatch: " + "; ".join(problems))
    return ChurnSchema(tuple(n for n in DROPPABLE if t.has_column(n)))


@dataclass(frozen=True)
class ChurnReport:
    row_count: int
    null_counts: dict
    geography_counts: FrequencyTable
    gender_counts: FrequencyTable
    churn_rate: float
    hascrcard_rate: float
    churn_by_geography: dict
    credit_score_stats: stats.SummaryStats
    credit_age_pearson: float
    tenure_counts: FrequencyTable
    correlation_heatmap: assoc.CorrelationMatrix
    findings: tuple[Finding, ...]
    evaluated: bool
    plots: tuple[tuple[str, viz.SvgDoc], ...]

    def to_json_dict(self) -> dict:
        return {
            "row_count": self.row_count,
            "evaluated": self.evaluated,
            "null_counts": self.null_counts,
            "geography_counts": self.geography_counts.to_dict(),
            "gender_counts": self.gender_counts.to_dict(),
            "churn_rate": self.churn_rate,
            "hascrcard_rate": self.hascrcard_rate,
            "churn_by_geography": self.churn_by_geography,
            "credit_score_stats": self.credit_score_stats.to_dict(),
            "credit_age_pearson": self.credit_age_pearson,
            "tenure_counts": self.tenure_counts.to_dict(),
            "correlation_matrix": self.correlation_heatmap.to_dict(),
            "findings": [f.to_dict() for f in self.findings],
        }


@contextmanager
def _step(num: int, name: str):
    """Name the churn pipeline step in any error raised inside the block."""
    try:
        yield
    except Exception as exc:
        raise RuntimeError(f"churn pipeline step {num} ({name}) failed: {exc}") from exc


def churn_pipeline(t: Table, evaluate_findings: Optional[bool] = None) -> ChurnReport:
    """Run the fixed churn analysis sequence and evaluate the findings.

    evaluate_findings=None auto-detects: claims get PASS/FAIL verdicts only
    on a full-scale (10000-row) table and NOT-EVALUATED otherwise. Any
    failing step, the findings (step 10) included, aborts with the step
    number and name.
    """
    schema = validate_schema(t)
    evaluated = (
        evaluate_findings
        if evaluate_findings is not None
        else t.row_count == REFERENCE_ROW_COUNT
    )
    plots: list[tuple[str, viz.SvgDoc]] = []

    with _step(1, "drop identifier columns"):
        if schema.droppable_present:
            t = table.drop_columns(t, schema.droppable_present)

    with _step(2, "null counts"):
        null_counts = {e.name: e.null_count for e in table.null_counts(t).entries}

    with _step(3, "geography and gender counts"):
        geo = table.value_counts(t.column("Geography"))
        gender = table.value_counts(t.column("Gender"))
        plots.append(("01_geography_bar.svg", viz.plot_bar(geo, "Customers by geography")))
        plots.append(("02_gender_bar.svg", viz.plot_bar(gender, "Customers by gender")))

    with _step(4, "correlation matrix"):
        corr = assoc.correlation_matrix(t, assoc.CorrMethod.PEARSON)
        plots.append(("03_correlation_heatmap.svg", viz.plot_heatmap(corr, "Correlation heatmap")))

    with _step(5, "credit score summary"):
        cs = t.column("CreditScore")
        cs_stats = stats.summarize(cs)
        cs_hist = stats.histogram(cs)
        plots.append(("04_credit_score_hist.svg", viz.plot_histogram(cs_hist, "Credit score distribution")))

    with _step(6, "credit score vs age"):
        age = t.column("Age")
        cs_age_r = assoc.pearson(cs, age)
        plots.append(("05_credit_age_scatter.svg", viz.plot_scatter(cs, age, "Credit score vs age")))

    with _step(7, "tenure counts"):
        years, counts = np.unique(table.numeric_values(t.column("Tenure")), return_counts=True)  # ascending
        total = int(counts.sum())
        rows = (FreqRow(f"{y:g}", n, n / total) for y, n in zip(years.tolist(), counts.tolist()))
        tenure = FrequencyTable(tuple(rows))
        plots.append(("06_tenure_bar.svg", viz.plot_bar(tenure, "Customers by tenure")))

    with _step(8, "churn by geography"):
        ct = assoc.contingency(t.column("Geography"), t.column("Exited"))
        by_geo = [(g, dict(zip(ct.col_labels, row))) for g, row in zip(ct.row_labels, ct.counts)]
        churn_by_geo = {g: cells.get("1", 0) / sum(cells.values()) for g, cells in by_geo}
        # flattened grouped bar: stayed/exited counts per geography, zero cells omitted
        outcome = {"0": "stayed", "1": "exited"}
        pairs = sorted((f"{g}/{outcome[e]}", k) for g, cells in by_geo for e, k in cells.items() if k)
        bars = FrequencyTable(tuple(FreqRow(label, k, k / ct.total) for label, k in pairs))
        plots.append(("07_churn_by_geography_bar.svg", viz.plot_bar(bars, "Churn by geography")))

    with _step(9, "overall rates"):
        churn_rate = float(table.numeric_values(t.column("Exited")).mean())  # step 8 needs Exited present
        has_card = table.numeric_values(t.column("HasCrCard"))
        if not has_card.size:
            raise ValueError("column 'HasCrCard' has no present values")
        hascrcard_rate = float(has_card.mean())

    report = ChurnReport(
        row_count=t.row_count,
        null_counts=null_counts,
        geography_counts=geo,
        gender_counts=gender,
        churn_rate=churn_rate,
        hascrcard_rate=hascrcard_rate,
        churn_by_geography=churn_by_geo,
        credit_score_stats=cs_stats,
        credit_age_pearson=cs_age_r,
        tenure_counts=tenure,
        correlation_heatmap=corr,
        findings=(),
        evaluated=evaluated,
        plots=tuple(plots),
    )
    with _step(10, "findings"):
        return replace(report, findings=_evaluate_findings(report, t, cs_hist))


def _modal_bin_center(h: stats.Histogram) -> float:
    i = max(range(len(h.counts)), key=lambda j: (h.counts[j], -j))
    return (h.edges[i] + h.edges[i + 1]) / 2.0


def _evaluate_findings(r: ChurnReport, t: Table, cs_hist: stats.Histogram) -> tuple[Finding, ...]:
    """Findings F1..F12 read from the report, the analysed table ``t`` and
    the credit-score histogram."""
    cs = r.credit_score_stats
    out: list[Finding] = []

    def add(claim_id: str, claim: str, measured: dict, ok: Optional[bool]) -> None:
        if not r.evaluated or ok is None:
            verdict = Verdict.NOT_EVALUATED
        else:
            verdict = Verdict.PASS if ok else Verdict.FAIL
        out.append(Finding(claim_id, claim, measured, verdict))

    add("F1", "credit score outlier at the maximum value 850",
        {"credit_score_max": cs.max}, cs.max == 850.0)

    center = _modal_bin_center(cs_hist)
    add("F2", "credit scores concentrate between 600 and 700",
        {"modal_bin_center": center}, 600.0 <= center <= 700.0)

    add("F3", "no correlation between age and credit score (abs r < 0.1)",
        {"pearson": r.credit_age_pearson}, abs(r.credit_age_pearson) < 0.1)

    tenure_rows = r.tenure_counts.rows
    if len(tenure_rows) > 2:
        interior = tenure_rows[1:-1]
        mean_count = sum(row.count for row in interior) / len(interior)
        max_dev = max(abs(row.count - mean_count) for row in interior)
        ok4: Optional[bool] = max_dev <= 0.3 * mean_count
        measured4 = {"interior_mean_count": mean_count, "max_abs_deviation": max_dev}
    else:
        ok4, measured4 = None, {"interior_mean_count": None, "max_abs_deviation": None}
    add("F4", "tenure approximately uniform (interior year counts within 30% of mean)",
        measured4, ok4)

    balance = table.numeric_values(t.column("Balance"))
    zero_share = float((balance == 0.0).sum()) / len(balance)
    add("F5", "significant concentration of exactly-zero balances (> 20%)",
        {"zero_balance_share": zero_share}, zero_share > 0.2)

    products = table.numeric_values(t.column("NumOfProducts"))
    share12 = float(((products == 1.0) | (products == 2.0)).sum()) / len(products)
    add("F6", "most customers hold 1 or 2 products (> 90%)",
        {"share_one_or_two_products": share12}, share12 > 0.9)

    salary_hist = stats.histogram(t.column("EstimatedSalary"), stats.BinCount(10))
    lo_count = min(salary_hist.counts)
    hi_count = max(salary_hist.counts)
    ratio = hi_count / lo_count if lo_count else math.inf
    add("F7", "estimated salary approximately uniform (10-bin max/min ratio < 1.5)",
        {"bin_count_ratio": ratio if math.isfinite(ratio) else None}, ratio < 1.5)

    gender_shares = {row.label: row.proportion for row in r.gender_counts.rows}
    ok8 = bool(gender_shares) and all(0.4 <= p <= 0.6 for p in gender_shares.values())
    add("F8", "roughly equal numbers of male and female customers (shares in [0.4, 0.6])",
        {"gender_shares": gender_shares}, ok8)

    add("F9", "about 71% of customers hold a credit card (rate in [0.70, 0.72])",
        {"hascrcard_rate": r.hascrcard_rate}, 0.70 <= r.hascrcard_rate <= 0.72)

    add("F10", "about 20% of customers churned (rate in [0.19, 0.21])",
        {"churn_rate": r.churn_rate}, 0.19 <= r.churn_rate <= 0.21)

    geo_rows = r.geography_counts.rows
    modal_geo = geo_rows[0].label if geo_rows else None
    add("F11", "France is the modal geography",
        {"modal_geography": modal_geo}, modal_geo == "France")

    # F12 is measured but never asserted: "similar churn across geographies"
    # is a qualitative figure reading, not a checkable tolerance.
    add("F12", "geographies show a similar pattern of exiting (reported, not asserted)",
        {"churn_by_geography": r.churn_by_geography}, None)
    return tuple(out)


class ReportFormat(enum.Enum):
    MARKDOWN = "markdown"
    HTML = "html"


def _fmt_measure(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, dict):
        return ", ".join(f"{k}={_fmt_measure(v)}" for k, v in value.items())
    return str(value)


def render_report(
    r: ChurnReport, fmt: ReportFormat, out_dir: Union[str, Path]
) -> list[Path]:
    """Write report.{md|html}, report.json and plots/*.svg under out_dir.

    File contents are a pure function of the report, so repeated runs
    produce byte-identical output. Returns the written paths.
    """
    out = Path(out_dir)
    plots_dir = out / "plots"
    plots_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    for fname, doc in r.plots:
        path = plots_dir / fname
        doc.write(path)
        written.append(path)

    json_path = out / "report.json"
    json_path.write_text(
        json.dumps(stats._json_ready(r.to_json_dict()), indent=2) + "\n", encoding="utf-8"
    )
    written.append(json_path)

    if fmt is ReportFormat.MARKDOWN:
        doc_path = out / "report.md"
        doc_path.write_text(_render_markdown(r), encoding="utf-8")
    else:
        doc_path = out / "report.html"
        doc_path.write_text(_render_html(r), encoding="utf-8")
    written.append(doc_path)
    return written


def _md(text: str) -> str:
    """A markdown table cell: an unescaped ``|`` would split the cell."""
    return text.replace("|", "\\|")


def _render_markdown(r: ChurnReport) -> str:
    lines = ["# Bank churn analysis report", ""]
    lines.append(f"Rows analyzed: {r.row_count}")
    lines.append("")
    lines.append(f"- Churn rate: {r.churn_rate:.4f}")
    lines.append(f"- Credit card holder rate: {r.hascrcard_rate:.4f}")
    lines.append(f"- Credit score vs age Pearson r: {r.credit_age_pearson:.4f}")
    lines.append("")
    lines.append("## Null counts")
    lines.append("")
    lines.append("| column | nulls |")
    lines.append("| --- | --- |")
    for name, count in r.null_counts.items():
        lines.append(f"| {_md(name)} | {count} |")
    lines.append("")
    lines.append("## Churn rate by geography")
    lines.append("")
    lines.append("| geography | churn rate |")
    lines.append("| --- | --- |")
    for label, rate in r.churn_by_geography.items():
        lines.append(f"| {_md(label)} | {rate:.4f} |")
    lines.append("")
    lines.append("## Findings")
    lines.append("")
    lines.append("| id | claim | measured | verdict |")
    lines.append("| --- | --- | --- | --- |")
    for f in r.findings:
        lines.append(f"| {f.claim_id} | {_md(f.claim)} | {_md(_fmt_measure(f.measured))} | {f.verdict.value} |")
    lines.append("")
    lines.append("## Plots")
    lines.append("")
    for fname, _ in r.plots:
        title = fname.split("_", 1)[1].rsplit(".", 1)[0].replace("_", " ")
        lines.append(f"![{title}](plots/{fname})")
    lines.append("")
    return "\n".join(lines)


def _render_html(r: ChurnReport) -> str:
    rows = "".join(
        f"<tr><td>{f.claim_id}</td><td>{escape(f.claim, quote=False)}</td>"
        f"<td>{escape(_fmt_measure(f.measured), quote=False)}</td><td>{f.verdict.value}</td></tr>"
        for f in r.findings
    )
    nulls = "".join(
        f"<tr><td>{escape(name, quote=False)}</td><td>{count}</td></tr>"
        for name, count in r.null_counts.items()
    )
    geo = "".join(
        f"<tr><td>{escape(label, quote=False)}</td><td>{rate:.4f}</td></tr>"
        for label, rate in r.churn_by_geography.items()
    )
    imgs = "".join(
        f'<figure><img src="plots/{fname}" alt="{fname}"/></figure>' for fname, _ in r.plots
    )
    return (
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"/>"
        "<title>Bank churn analysis report</title></head><body>"
        "<h1>Bank churn analysis report</h1>"
        f"<p>Rows analyzed: {r.row_count}</p>"
        f"<ul><li>Churn rate: {r.churn_rate:.4f}</li>"
        f"<li>Credit card holder rate: {r.hascrcard_rate:.4f}</li>"
        f"<li>Credit score vs age Pearson r: {r.credit_age_pearson:.4f}</li></ul>"
        "<h2>Null counts</h2><table><tr><th>column</th><th>nulls</th></tr>"
        f"{nulls}</table>"
        "<h2>Churn rate by geography</h2><table><tr><th>geography</th><th>rate</th></tr>"
        f"{geo}</table>"
        "<h2>Findings</h2><table><tr><th>id</th><th>claim</th><th>measured</th><th>verdict</th></tr>"
        f"{rows}</table>"
        f"<h2>Plots</h2>{imgs}"
        "</body></html>\n"
    )


def exit_code(r: ChurnReport) -> int:
    """0 when nothing failed, 3 when any finding failed."""
    return 3 if any(f.verdict is Verdict.FAIL for f in r.findings) else 0
