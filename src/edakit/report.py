"""Bank-churn case-study pipeline: schema validation, a fixed sequence of
analysis steps over the churn table, findings evaluation, and rendering to
Markdown/HTML with SVG artifacts.

Findings F1..F11 assert dataset-level claims with explicit tolerances; they
are only evaluated when the input is the real 10000-row dataset (or the
caller forces evaluation), because a small synthetic fixture cannot be
expected to satisfy dataset-level claims. F12 and F13 are always reported
without a verdict: churn by geography, age band and gender is a qualitative
reading that this pipeline measures but does not assert.
"""

from __future__ import annotations

import enum
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from html import escape
from pathlib import Path
from typing import Iterator, Optional, Union

import numpy as np

from . import assoc, cleanse, stats, table, viz
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

# Age bands for the churn-by-age cut: under 30, each decade to 60, and 60 or
# over. A negative age fails the step.
AGE_BANDS = cleanse.Edges((0.0, 30.0, 40.0, 50.0, 60.0, math.inf))


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
    churn_by_age_band: dict
    churn_by_gender: dict
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
            "churn_by_age_band": self.churn_by_age_band,
            "churn_by_gender": self.churn_by_gender,
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


def _churn_rates(ct: assoc.ContingencyTable) -> dict:
    """Per row label of a table against ``Exited``, the share of its rows with ``Exited`` 1."""
    return {g: dict(zip(ct.col_labels, row)).get("1", 0) / sum(row) for g, row in zip(ct.row_labels, ct.counts)}


def _present_column(t: Table, name: str) -> table.Column:
    """Column ``name`` of t, which must have a present value."""
    c = t.column(name)
    if c.null_count == len(c):
        raise ValueError(f"column {name!r} has no present values")
    return c


def _present_values(t: Table, name: str) -> np.ndarray:
    """The present values of a numeric or boolean column, which must have some."""
    return table.numeric_values(_present_column(t, name))


def churn_pipeline(t: Table, evaluate_findings: Optional[bool] = None) -> ChurnReport:
    """Run the fixed churn analysis sequence and evaluate the findings.

    evaluate_findings=None auto-detects: claims get PASS/FAIL verdicts only
    on a full-scale (10000-row) table and NOT-EVALUATED otherwise. Any
    failing step, the findings (step 11) included, aborts with the step
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
        geo = table.value_counts(_present_column(t, "Geography"))
        gender = table.value_counts(_present_column(t, "Gender"))
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
        age = _present_column(t, "Age")
        cs_age_r = assoc.pearson(cs, age)
        plots.append(("05_credit_age_scatter.svg", viz.plot_scatter(cs, age, "Credit score vs age")))

    with _step(7, "tenure counts"):
        years, counts = np.unique(_present_values(t, "Tenure"), return_counts=True)  # ascending
        total = int(counts.sum())
        rows = (FreqRow(f"{y:g}", n, n / total) for y, n in zip(years.tolist(), counts.tolist()))
        tenure = FrequencyTable(tuple(rows))
        plots.append(("06_tenure_bar.svg", viz.plot_bar(tenure, "Customers by tenure")))

    with _step(8, "churn by geography"):
        exited = _present_column(t, "Exited")
        ct = assoc.contingency(t.column("Geography"), exited)
        churn_by_geo = _churn_rates(ct)
        # flattened grouped bar: stayed/exited counts per geography, zero cells omitted
        outcome = {"0": "stayed", "1": "exited"}
        pairs = sorted(
            (f"{g}/{outcome[e]}", k)
            for g, row in zip(ct.row_labels, ct.counts)
            for e, k in zip(ct.col_labels, row)
            if k
        )
        bars = FrequencyTable(tuple(FreqRow(label, k, k / ct.total) for label, k in pairs))
        plots.append(("07_churn_by_geography_bar.svg", viz.plot_bar(bars, "Churn by geography")))

    with _step(9, "overall rates"):
        churn_rate = float(table.numeric_values(exited).mean())  # step 8 needs Exited present
        hascrcard_rate = float(_present_values(t, "HasCrCard").mean())

    with _step(10, "churn by age band and gender"):
        # labels "[0,30)" .. "[60,inf]" sort in age order as text, the order
        # contingency gives its row labels
        bands = cleanse.bin_column(age, AGE_BANDS)
        churn_by_age_band = _churn_rates(assoc.contingency(bands, exited))
        churn_by_gender = _churn_rates(assoc.contingency(t.column("Gender"), exited))

    report = ChurnReport(
        row_count=t.row_count,
        null_counts=null_counts,
        geography_counts=geo,
        gender_counts=gender,
        churn_rate=churn_rate,
        hascrcard_rate=hascrcard_rate,
        churn_by_geography=churn_by_geo,
        churn_by_age_band=churn_by_age_band,
        churn_by_gender=churn_by_gender,
        credit_score_stats=cs_stats,
        credit_age_pearson=cs_age_r,
        tenure_counts=tenure,
        correlation_heatmap=corr,
        findings=(),
        evaluated=evaluated,
        plots=tuple(plots),
    )
    with _step(11, "findings"):
        return replace(report, findings=_evaluate_findings(report, t, cs_hist))


def _modal_bin_center(h: stats.Histogram) -> float:
    i = max(range(len(h.counts)), key=lambda j: (h.counts[j], -j))
    return (h.edges[i] + h.edges[i + 1]) / 2.0


def _evaluate_findings(r: ChurnReport, t: Table, cs_hist: stats.Histogram) -> tuple[Finding, ...]:
    """Findings F1..F13 read from the report, the analysed table ``t`` and
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

    balance = _present_values(t, "Balance")
    zero_share = float((balance == 0.0).sum()) / len(balance)
    add("F5", "significant concentration of exactly-zero balances (> 20%)",
        {"zero_balance_share": zero_share}, zero_share > 0.2)

    products = _present_values(t, "NumOfProducts")
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

    # F12 and F13 are measured but never asserted: "similar churn across
    # geographies" and churn by demographics are qualitative figure readings,
    # not checkable tolerances.
    add("F12", "geographies show a similar pattern of exiting (reported, not asserted)",
        {"churn_by_geography": r.churn_by_geography}, None)
    add("F13", "churn varies with customer age and gender (reported, not asserted)",
        {"churn_by_age_band": r.churn_by_age_band, "churn_by_gender": r.churn_by_gender}, None)
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

    Both formats render the same list of tables; the one difference is the
    churn-rate column's header, ``churn rate`` in Markdown and ``rate`` in
    HTML. File contents are a pure function of the report, so repeated runs
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
    with open(json_path, "w", encoding="utf-8") as fh:
        stats._write_json(r.to_json_dict(), fh)
    written.append(json_path)

    name, render = _DOCUMENTS[fmt]
    doc_path = out / name
    doc_path.write_text(render(r), encoding="utf-8")
    written.append(doc_path)
    return written


def _headline(r: ChurnReport) -> tuple[str, ...]:
    """The report's headline figures, one bullet each."""
    return (
        f"Churn rate: {r.churn_rate:.4f}",
        f"Credit card holder rate: {r.hascrcard_rate:.4f}",
        f"Credit score vs age Pearson r: {r.credit_age_pearson:.4f}",
    )


def _tables(r: ChurnReport, rate_heading: str) -> Iterator[tuple[str, tuple, list[tuple]]]:
    """(heading, header cells, rows of cell text) for each table, in report
    order; ``rate_heading`` heads the churn-rate column."""
    yield "Null counts", ("column", "nulls"), [(name, str(count)) for name, count in r.null_counts.items()]
    cuts = {"geography": r.churn_by_geography, "age band": r.churn_by_age_band, "gender": r.churn_by_gender}
    for what, rates in cuts.items():
        yield f"Churn rate by {what}", (what, rate_heading), [(k, f"{v:.4f}") for k, v in rates.items()]
    findings = [(f.claim_id, f.claim, _fmt_measure(f.measured), f.verdict.value) for f in r.findings]
    yield "Findings", ("id", "claim", "measured", "verdict"), findings


def _render_markdown(r: ChurnReport) -> str:
    def row(cells: tuple) -> str:
        # an unescaped "|" would split the cell
        return "| " + " | ".join(c.replace("|", "\\|") for c in cells) + " |"

    lines = ["# Bank churn analysis report", "", f"Rows analyzed: {r.row_count}", ""]
    lines += [f"- {item}" for item in _headline(r)] + [""]
    for heading, header, rows in _tables(r, "churn rate"):
        lines += [f"## {heading}", "", row(header), row(("---",) * len(header))] + [row(c) for c in rows] + [""]
    lines += ["## Plots", ""]
    for fname, _ in r.plots:
        title = fname.split("_", 1)[1].rsplit(".", 1)[0].replace("_", " ")
        lines.append(f"![{title}](plots/{fname})")
    return "\n".join(lines + [""])


def _render_html(r: ChurnReport) -> str:
    def row(tag: str, cells: tuple) -> str:
        return "<tr>" + "".join(f"<{tag}>{escape(c, quote=False)}</{tag}>" for c in cells) + "</tr>"

    head = '<!DOCTYPE html>\n<html><head><meta charset="utf-8"/><title>Bank churn analysis report</title></head>'
    parts = [head, f"<body><h1>Bank churn analysis report</h1><p>Rows analyzed: {r.row_count}</p><ul>"]
    parts += [f"<li>{item}</li>" for item in _headline(r)] + ["</ul>"]
    for heading, header, rows in _tables(r, "rate"):
        parts += [f"<h2>{heading}</h2><table>", row("th", header)] + [row("td", c) for c in rows] + ["</table>"]
    imgs = [f'<figure><img src="plots/{fname}" alt="{fname}"/></figure>' for fname, _ in r.plots]
    return "".join(parts + ["<h2>Plots</h2>", *imgs, "</body></html>\n"])


_DOCUMENTS = {
    ReportFormat.MARKDOWN: ("report.md", _render_markdown),
    ReportFormat.HTML: ("report.html", _render_html),
}


def exit_code(r: ChurnReport) -> int:
    """0 when nothing failed, 3 when any finding failed."""
    return 3 if any(f.verdict is Verdict.FAIL for f in r.findings) else 0
