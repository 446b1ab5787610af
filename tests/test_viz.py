import math
import xml.etree.ElementTree as ET

import pytest

from edakit.assoc import CorrMethod, CorrelationMatrix, correlation_matrix
from edakit.stats import BinCount, Edges, Histogram, histogram, summarize
from edakit.table import FreqRow, FrequencyTable, Table, numeric_column, value_counts, categorical_column
from edakit.viz import (
    diverging_color,
    plot_bar,
    plot_box,
    plot_heatmap,
    plot_histogram,
    plot_scatter,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse(doc):
    return ET.fromstring(doc.body)


def elements_with_class(doc, cls, tag="rect"):
    root = parse(doc)
    return [e for e in root.iter(f"{SVG_NS}{tag}") if e.get("class") == cls]


class TestHistogramPlot:
    def test_one_rect_per_bin(self):
        h = histogram(numeric_column("v", [1, 2, 3, 9]), BinCount(4))
        doc = plot_histogram(h, "demo")
        assert len(elements_with_class(doc, "bar")) == 4

    def test_single_bin(self):
        h = Histogram(edges=(1.0, 1.0), counts=(5,))
        doc = plot_histogram(h)
        assert len(elements_with_class(doc, "bar")) == 1

    def test_infinite_edge_refused(self):
        h = histogram(numeric_column("Age", [20, 35, 70]), Edges((0.0, 30.0, 60.0, math.inf)))
        with pytest.raises(ValueError, match="infinite edge"):
            plot_histogram(h)

    def test_equal_counts_equal_heights(self):
        h = Histogram(edges=(0.0, 1.0, 2.0, 3.0), counts=(4, 4, 4))
        bars = elements_with_class(plot_histogram(h), "bar")
        heights = {b.get("height") for b in bars}
        assert len(heights) == 1

    def test_doubling_count_doubles_height(self):
        h1 = Histogram(edges=(0.0, 1.0, 2.0), counts=(1, 4))
        h2 = Histogram(edges=(0.0, 1.0, 2.0), counts=(2, 4))
        b1 = elements_with_class(plot_histogram(h1), "bar")
        b2 = elements_with_class(plot_histogram(h2), "bar")
        assert float(b2[0].get("height")) == 2 * float(b1[0].get("height"))

    def test_well_formed_and_deterministic(self):
        h = Histogram(edges=(0.0, 2.5, 5.0), counts=(3, 7))
        a = plot_histogram(h, "title with <angle> & amp")
        b = plot_histogram(h, "title with <angle> & amp")
        parse(a)
        assert a.body == b.body


class TestBoxPlot:
    def stats(self):
        return summarize(numeric_column("v", [1, 2, 3, 4, 100]))

    def test_outlier_marker(self):
        doc = plot_box(self.stats(), points_beyond=[100.0])
        assert len(elements_with_class(doc, "outlier", tag="circle")) == 1

    def test_no_outliers_no_markers(self):
        s = summarize(numeric_column("v", [1, 2, 3, 4]))
        doc = plot_box(s)
        assert elements_with_class(doc, "outlier", tag="circle") == []

    def test_median_centered_for_symmetric_data(self):
        s = summarize(numeric_column("v", [1, 2, 3, 4, 5]))
        doc = plot_box(s)
        box = elements_with_class(doc, "box")[0]
        top = float(box.get("y"))
        mid = top + float(box.get("height")) / 2
        median_line = [
            line for line in parse(doc).iter(f"{SVG_NS}line")
            if line.get("stroke-width") == "2"
        ][0]
        assert abs(float(median_line.get("y1")) - mid) < 1e-6

    def test_well_formed(self):
        parse(plot_box(self.stats(), points_beyond=[100.0]))


class TestBarPlot:
    def freq(self):
        return value_counts(
            categorical_column("g", ["France"] * 5 + ["Spain"] * 2 + ["Germany"] * 3)
        )

    def test_bars_in_row_order_first_tallest(self):
        doc = plot_bar(self.freq(), "geo")
        bars = elements_with_class(doc, "bar")
        heights = [float(b.get("height")) for b in bars]
        assert heights == sorted(heights, reverse=True)
        assert len(bars) == 3

    def test_single_category_full_height(self):
        f = FrequencyTable((FreqRow("only", 7, 1.0),))
        bars = elements_with_class(plot_bar(f), "bar")
        assert len(bars) == 1
        assert float(bars[0].get("height")) == 480.0  # plot area height

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            plot_bar(FrequencyTable(()))

    def test_label_escaping(self):
        f = FrequencyTable((FreqRow('a"&<b>', 1, 1.0),))
        parse(plot_bar(f))  # must stay well-formed


class TestScatterPlot:
    def test_marker_per_joint_pair(self):
        x = numeric_column("x", [1, 2, None, 4])
        y = numeric_column("y", [2, None, 5, 8])
        doc = plot_scatter(x, y)
        assert len(elements_with_class(doc, "pt", tag="circle")) == 2

    def test_identical_points_coincide(self):
        x = numeric_column("x", [3, 3])
        y = numeric_column("y", [4, 4])
        pts = elements_with_class(plot_scatter(x, y), "pt", tag="circle")
        assert pts[0].get("cx") == pts[1].get("cx")
        assert pts[0].get("cy") == pts[1].get("cy")

    def test_no_pairs_rejected(self):
        x = numeric_column("x", [1, None])
        y = numeric_column("y", [None, 2])
        with pytest.raises(ValueError, match="jointly present"):
            plot_scatter(x, y)

    def test_deterministic(self):
        x = numeric_column("x", [1, 2, 3])
        y = numeric_column("y", [4, 5, 6])
        assert plot_scatter(x, y).body == plot_scatter(x, y).body


class TestHeatmap:
    def matrix(self):
        t = Table(
            "t",
            (numeric_column("x", [1, 2, 3]), numeric_column("y", [2, 4, 6])),
            3,
        )
        return correlation_matrix(t, CorrMethod.PEARSON)

    def test_collinear_cells_max_red(self):
        doc = plot_heatmap(self.matrix())
        cells = elements_with_class(doc, "cell")
        assert len(cells) == 4
        assert {c.get("fill") for c in cells} == {"#ff0000"}

    def test_midpoint_color_exact_white(self):
        assert diverging_color(0.0) == "#ffffff"
        assert diverging_color(1.0) == "#ff0000"
        assert diverging_color(-1.0) == "#0000ff"

    def test_undefined_cell_gray(self):
        m = CorrelationMatrix(
            CorrMethod.PEARSON, ("a", "b"), ((1.0, None), (None, 1.0))
        )
        doc = plot_heatmap(m)
        fills = [c.get("fill") for c in elements_with_class(doc, "cell")]
        assert fills.count("#808080") == 2
        assert "NA" in doc.body

    def test_annotations_two_decimals(self):
        doc = plot_heatmap(self.matrix())
        assert "1.00" in doc.body

    def test_empty_rejected(self):
        m = CorrelationMatrix(CorrMethod.PEARSON, (), ())
        with pytest.raises(ValueError, match="empty"):
            plot_heatmap(m)


class TestDocumentProperties:
    def docs(self, suffix=""):
        h = Histogram(edges=(0.0, 1.0, 2.0), counts=(3, 5))
        x = numeric_column("x", [1, 2, 3])
        y = numeric_column("y", [4, 5, 6])
        return [
            plot_histogram(h, "h" + suffix),
            plot_bar(FrequencyTable((FreqRow("a", 2, 0.5), FreqRow("b", 2, 0.5))), "b" + suffix),
            plot_scatter(x, y, "s" + suffix),
            plot_heatmap(self_matrix(), "m" + suffix),
            plot_box(summarize(numeric_column("v", [1, 2, 3, 9])), title="bx" + suffix),
        ]

    def test_all_parse_as_xml(self):
        for doc in self.docs():
            parse(doc)

    def test_svg_root_and_size(self):
        for doc in self.docs():
            root = parse(doc)
            assert root.tag == f"{SVG_NS}svg"
            assert root.get("width") == "800"
            assert root.get("height") == "600"
            assert root.get("version") == "1.1"

    def test_no_external_references(self):
        for doc in self.docs():
            assert "http://" not in doc.body.replace("http://www.w3.org", "")
            assert "href" not in doc.body

    def test_byte_determinism(self):
        first = [d.body for d in self.docs()]
        second = [d.body for d in self.docs()]
        assert first == second

    def test_tick_labels_four_significant_digits(self):
        h = Histogram(edges=(0.123456, 1.234567, 2.345678), counts=(1, 2))
        doc = plot_histogram(h)
        assert "0.1235" in doc.body

    def test_write(self, tmp_path):
        path = tmp_path / "out.svg"
        for doc in self.docs() + self.docs(" Überblick – ü"):
            doc.write(path)
            assert path.read_bytes() == doc.body.encode("utf-8")
            assert path.read_bytes().startswith(b"<?xml")

    def test_scatter_document_holds_no_marker_text(self, tmp_path):
        import tracemalloc

        import numpy as np

        from edakit.table import Column, Kind

        # the churn report's scatter: 100k integer credit scores against ages
        rng = np.random.default_rng(19)
        present = np.ones(100_000, dtype=bool)
        x = Column.from_floats("CreditScore", Kind.NUMERIC, rng.integers(350, 851, 100_000), present)
        y = Column.from_floats("Age", Kind.NUMERIC, rng.integers(18, 93, 100_000), present)
        tracemalloc.start()
        try:
            doc = plot_scatter(x, y)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        body = doc.body
        assert len(body) > 6_000_000
        assert retained < len(body) / 5
        # the markers are laid out anew on each expansion, to the same bytes
        assert doc.body == body
        doc.write(tmp_path / "a.svg")
        doc.write(tmp_path / "b.svg")
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes() == body.encode("utf-8")

    def test_finish_makes_no_copy_of_the_text(self):
        import tracemalloc

        import numpy as np

        from edakit import viz

        cv = viz._Canvas("t")
        cv.circles(np.arange(20_000) * 1.0001, np.arange(20_000)[::-1] * 0.0137, identity, identity, 2, "#4878a8", "pt")
        tracemalloc.start()
        try:
            doc = cv.finish()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = len(doc.body.encode("utf-8"))
        assert size > 1_000_000
        assert peak < size / 10


def self_matrix():
    t = Table(
        "t",
        (numeric_column("x", [1, 2, 3]), numeric_column("y", [3, 1, 2])),
        3,
    )
    return correlation_matrix(t, CorrMethod.PEARSON)


def scatter_reference(x, y, title=""):
    """plot_scatter's document built one point at a time, with Python's min
    and max, the scale arithmetic written out per point and each marker
    line written with ``_fmt``, not through ``_Canvas.circles``."""
    from edakit import viz

    pairs = [(a, b) for a, b in zip(x.values, y.values) if a is not None and b is not None]
    w, h, m = viz.WIDTH, viz.HEIGHT, viz.MARGIN
    cv = viz._Canvas(title)
    cv.axes()

    def padded(vals):
        lo, hi = float(min(vals)), float(max(vals))
        pad = 0.05 * (hi - lo) if hi > lo else 0.5
        return lo - pad, hi + pad

    xlo, xhi = padded([a for a, _ in pairs])
    ylo, yhi = padded([b for _, b in pairs])

    def sx(v):
        if xhi - xlo == 0:
            return m + (w - 2 * m) / 2
        return m + (v - xlo) / (xhi - xlo) * (w - 2 * m)

    def sy(v):
        if yhi - ylo == 0:
            return h - m - (h - 2 * m) / 2
        return h - m - (v - ylo) / (yhi - ylo) * (h - 2 * m)

    for a, b in pairs:
        cv.parts.append(f'<circle cx="{viz._fmt(sx(a))}" cy="{viz._fmt(sy(b))}" r="2" fill="#4878a8" class="pt"/>\n')
    cv.text(w / 2, h - m / 4, x.name, anchor="middle")
    cv.text(m / 4, h / 2, y.name, anchor="middle")
    for v in (xlo, xhi):
        cv.text(sx(v), h - m + 16, viz._tick(v), anchor="middle")
    for v in (ylo, yhi):
        cv.text(m - 6, sy(v) + 4, viz._tick(v), anchor="end")
    return cv.finish().body


class TestScatterMatchesPerPoint:
    @staticmethod
    def check(xs, ys):
        x, y = numeric_column("x", xs), numeric_column("y", ys)
        assert plot_scatter(x, y, "s").body == scatter_reference(x, y, "s")

    def test_random_floats(self):
        import random

        rng = random.Random(55)
        for _ in range(60):
            n = rng.randint(1, 300)
            scale = rng.choice([1e-3, 1.0, 650.0, 1e6])
            draw = lambda: None if rng.random() < 0.1 else round(rng.gauss(0, scale), rng.randint(0, 6))
            self.check([draw() for _ in range(n)], [draw() for _ in range(n)])

    def test_one_distinct_value(self):
        self.check([3.0] * 5, [1.0, 2.0, 2.0, 7.5, -1.0])
        self.check([1.0, 2.0, 2.0, 7.5, -1.0], [-4.0] * 5)
        self.check([2.0], [2.0])

    def test_zero_span_after_padding(self):
        # 1e300 - 0.5 == 1e300, so the padded span is 0 and the centre is used
        self.check([1e300] * 3, [0.0, 1.0, 2.0])
        self.check([0.0, 1.0, 2.0], [-1e300] * 3)

    def test_signed_zeros_and_minus_zero_ticks(self):
        # pad underflows to 0, so the first of -0.0 and 0.0 becomes the
        # low tick, which prints "-0" or "0"
        self.check([-0.0, 5e-324, 0.0], [0.0, -0.0, 5e-324])
        self.check([0.0, 5e-324, -0.0], [5e-324, 0.0, -0.0])
        self.check([-0.0, 0.0, -1e-9, 1e-9], [-0.0, -0.0, 0.0, 0.0])

    def test_heavily_repeated_coordinates(self):
        import random

        rng = random.Random(14)
        xs = [rng.choice([1.5, -2.0, 7.25, 1e3]) for _ in range(3000)]
        ys = [rng.choice([0.0, 1.0, 4.0]) for _ in range(3000)]
        self.check(xs, ys)
        self.check([5.0] * 3000, ys)

    def test_signed_zero_data(self):
        self.check([0.0, -0.0] * 40 + [1.0], [-0.0, 0.0, 0.0] * 27)
        self.check([-0.0, 0.0] * 40, [0.0, 2.0] * 40)


def identity(v):
    return v


def circles_reference(cxs, cys, r, fill, cls):
    """The marker lines of ``_Canvas.circles``, written one point at a time."""
    from edakit import viz

    return "".join(
        f'<circle cx="{viz._fmt(a)}" cy="{viz._fmt(b)}" r="{viz._fmt(r)}" fill="{fill}" class="{cls}"/>\n'
        for a, b in zip(cxs, cys)
    )


class TestCirclesMatchPerPoint:
    @staticmethod
    def check(cxs, cys, r=2, fill="#4878a8", cls="pt", sx=identity, sy=identity):
        import numpy as np

        from edakit import viz

        expected = circles_reference([sx(a) for a in cxs], [sy(b) for b in cys], r, fill, cls)
        for make in (list, np.array):
            cv = viz._Canvas("")
            start = len(cv.parts)
            cv.circles(make(cxs), make(cys), sx, sy, r, fill, cls)
            assert viz.SvgDoc(tuple(cv.parts[start:])).body == expected

    def test_scales_of_distinct_values(self):
        from edakit import viz

        zeros = [0.0, -0.0, 5e-324, -5e-324, 1.0, -0.0]
        self.check(zeros, zeros[::-1], sx=viz._scale(-0.0, 1.0, *viz._X_AXIS), sy=viz._scale(0.0, 1.0, *viz._Y_AXIS))
        # a zero span centres every marker, from one scalar
        self.check([3.0, -1.0, 3.0], [2.0, 2.0, 7.0], sx=viz._scale(2.0, 2.0, *viz._X_AXIS),
                   sy=viz._scale(1e300, 1e300, *viz._Y_AXIS))

    def test_signed_zeros(self):
        zeros = [0.0, -0.0, -0.0, 0.0, 1e-5, -1e-5, -4e-5, -5e-5, 5e-5, -6e-5]
        self.check(zeros, zeros[::-1])
        self.check([-0.0] * 7, [0.0] * 7)

    def test_four_decimal_ties(self):
        # k/32 ends in 5 at the fifth decimal exactly; .4f rounds such ties to even
        ties = [k / 32 for k in range(-96, 97)] + [1024 + k / 32 for k in range(64)]
        self.check(ties, ties[::-1])
        self.check(ties, [60.0] * len(ties), r=1 / 32, fill="#c03028", cls="outlier")

    def test_special_values(self):
        import math

        vals = [math.nan, math.inf, -math.inf, 1e300, -1e300, 5e-324, -5e-324, 123456.78915, 0.1]
        self.check(vals, vals[3:] + vals[:3])

    def test_repeated_and_distinct(self):
        import random

        rng = random.Random(140)
        for _ in range(20):
            n = rng.randint(0, 500)
            pool = [rng.uniform(-50, 850) for _ in range(rng.randint(1, 40))]
            cxs = [rng.choice(pool) for _ in range(n)]
            cys = [rng.uniform(60, 540) for _ in range(n)]
            self.check(cxs, cys)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_block_edges(self, monkeypatch, n):
        from edakit import viz

        monkeypatch.setattr(viz, "_CIRCLE_ROWS", 4)
        self.check([60 + k / 32 for k in range(n)], [540 - k / 32 for k in range(n)])
        self.check([float(k % 2) for k in range(n)], [7.0] * n)
        TestScatterMatchesPerPoint.check([k * 1.25 for k in range(n)], [(k * 7) % 3 for k in range(n)])


def test_scatter_formats_each_distinct_coordinate_once(monkeypatch):
    from test_column_arrays import load_make_fixture

    from edakit import viz

    fixture = load_make_fixture()
    fixture.N = 20_000
    t = fixture.build_fixture()
    x, y = t.column("CreditScore"), t.column("Age")
    fmt, calls = viz._fmt, []
    monkeypatch.setattr(viz, "_fmt", lambda v: calls.append(v) or fmt(v))
    doc = plot_scatter(x, y)
    assert len(elements_with_class(doc, "pt", tag="circle")) == 20_000
    # axes, labels, ticks and the radius take 23 calls
    assert len(calls) <= len(set(x.values)) + len(set(y.values)) + 32
