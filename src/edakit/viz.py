"""Deterministic SVG charts: histogram, box plot, bar chart, scatter, heatmap.

Identical inputs produce byte-identical documents: no timestamps, no
generated ids, fixed number formatting, fonts referenced by generic family
only. Output is well-formed SVG 1.1 / XML.
"""

from __future__ import annotations

from dataclasses import dataclass
from html import escape
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .assoc import CorrelationMatrix, _joint_present
from .stats import Histogram, SummaryStats
from .table import Column, FrequencyTable

WIDTH = 800
HEIGHT = 600
MARGIN = 60
# (origin, extent) of each plot axis for _scale; y runs up the page, so its extent is negative
_X_AXIS = (MARGIN, WIDTH - 2 * MARGIN)
_Y_AXIS = (HEIGHT - MARGIN, -(HEIGHT - 2 * MARGIN))

_UNDEFINED_FILL = "#808080"

# markers laid out per block of a _Markers part, and values per _encoded_fmt slice,
# which bounds the bytes held at once
_CIRCLE_ROWS = 8192


class _Markers:
    """Circle markers, laid out ``_CIRCLE_ROWS`` at a time each time they are iterated.

    Holds, for each marker, the row of its cx and cy text in ``tx`` and
    ``ty`` (the distinct coordinate texts as NUL-padded uint8 rows) and the
    text after cy that every marker shares. The canvas makes every array
    here itself and nothing else refers to them, so each iteration yields
    the same blocks. A block is the UTF-8 bytes of its markers, as a uint8
    array: their rows gathered into one matrix with the fixed texts, then
    compacted with the padding dropped, so no Python object is made per
    point.
    """

    def __init__(self, ix: np.ndarray, iy: np.ndarray, tx: np.ndarray, ty: np.ndarray, tail: str) -> None:
        self.ix, self.iy, self.tx, self.ty = ix, iy, tx, ty
        # the padding NULs are dropped from each block, so no fixed text may hold one
        self.fixed = [np.frombuffer(s.encode("utf-8"), np.uint8) for s in ('<circle cx="', '" cy="', tail)]

    def __iter__(self) -> Iterator[np.ndarray]:
        return map(self._block, range(0, len(self.ix), _CIRCLE_ROWS))

    def _block(self, start: int) -> np.ndarray:
        bx = self.tx[self.ix[start:start + _CIRCLE_ROWS]]
        by = self.ty[self.iy[start:start + _CIRCLE_ROWS]]
        head, mid, tail = (np.broadcast_to(f, (len(bx), len(f))) for f in self.fixed)
        rows = np.concatenate([head, bx, mid, by, tail], axis=1)
        return rows[rows != 0]


@dataclass(frozen=True)
class SvgDoc:
    """A complete SVG 1.1 document, kept as the parts its canvas appended.

    A part is text, or a ``_Markers`` part that lays out its circles a block
    at a time when it is iterated. ``write`` and ``body`` are the only
    readers that expand the parts, so the marker text is never held whole
    unless ``body`` is asked for.
    """

    parts: tuple[Union[str, _Markers], ...]

    def _chunks(self) -> Iterator[Union[bytes, np.ndarray]]:
        """The document's UTF-8 bytes, one text part or marker block at a time."""
        for part in self.parts:
            if isinstance(part, str):
                yield part.encode("utf-8")
            else:
                yield from part

    @property
    def body(self) -> str:
        """The document text, expanded from ``parts`` on each access."""
        return b"".join(self._chunks()).decode("utf-8")

    def write(self, path: Union[str, Path]) -> None:
        """Write the document as UTF-8, one text part or marker block at a time."""
        with open(path, "wb") as fh:
            for chunk in self._chunks():
                fh.write(chunk)


def _fmt(x: float) -> str:
    # fixed 4-decimal coordinates with trailing zeros trimmed; stable bytes
    s = f"{x:.4f}".rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


def _tick(x: float) -> str:
    return f"{x:.4g}"


def _encoded_fmt(values: np.ndarray) -> np.ndarray:
    """Rows of a NUL-padded uint8 matrix: the UTF-8 bytes of ``_fmt`` of each value."""
    texts = np.concatenate([
        np.array([_fmt(v) for v in values[start:start + _CIRCLE_ROWS].tolist()], dtype=bytes)
        for start in range(0, len(values), _CIRCLE_ROWS)
    ])
    return texts.view(np.uint8).reshape(len(texts), texts.itemsize)


class _Canvas:
    """Accumulates SVG elements; geometry helpers map data to pixels."""

    def __init__(self, title: str) -> None:
        self.parts: list[Union[str, _Markers]] = [
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n',
            f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n',
        ]
        if title:
            self.text(WIDTH / 2, MARGIN / 2, title, anchor="middle", size=16)

    def rect(self, x: float, y: float, w: float, h: float, fill: str, cls: Optional[str] = None) -> None:
        c = f' class="{cls}"' if cls else ""
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}"'
            f' fill="{fill}" stroke="black" stroke-width="0.5"{c}/>\n'
        )

    def line(self, x1: float, y1: float, x2: float, y2: float, width: float = 1.0) -> None:
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"'
            f' stroke="black" stroke-width="{_fmt(width)}"/>\n'
        )

    def circles(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        sx: Callable,
        sy: Callable,
        r: float,
        fill: str,
        cls: Optional[str] = None,
    ) -> None:
        """One circle at (sx(x), sy(y)) per data pair, with the bytes of one ``_fmt`` per coordinate.

        The scales and ``_fmt`` run once per distinct data value of each
        array, never per point. Each scale maps the distinct values as one
        array, element by element in scalar arithmetic order, and equal
        inputs to equal pixels: a ``_scale`` adds a nonzero origin, so 0.0
        and -0.0 land on one pixel. So each marker's bytes are those of its
        own value. A zero-span scale returns one scalar, broadcast to every
        value. The markers are laid out only when the document is expanded
        (see ``_Markers``).
        """
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        if len(xs) == 0:
            return
        c = f' class="{cls}"' if cls else ""
        ux, ix = np.unique(xs, return_inverse=True)
        uy, iy = np.unique(ys, return_inverse=True)
        tx = _encoded_fmt(np.broadcast_to(sx(ux), ux.shape))
        ty = _encoded_fmt(np.broadcast_to(sy(uy), uy.shape))
        # the indices are all a document keeps per marker, so in the smallest type that holds them
        self.parts.append(_Markers(
            ix.astype(np.min_scalar_type(len(ux) - 1)), iy.astype(np.min_scalar_type(len(uy) - 1)),
            tx, ty, f'" r="{_fmt(r)}" fill="{fill}"{c}/>\n',
        ))

    def text(self, x: float, y: float, s: str, anchor: str = "start", size: int = 11) -> None:
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif"'
            f' font-size="{size}" text-anchor="{anchor}">{escape(s, quote=False)}</text>\n'
        )

    def axes(self) -> None:
        self.line(MARGIN, HEIGHT - MARGIN, WIDTH - MARGIN, HEIGHT - MARGIN)
        self.line(MARGIN, MARGIN, MARGIN, HEIGHT - MARGIN)

    def finish(self) -> SvgDoc:
        self.parts.append("</svg>\n")
        return SvgDoc(tuple(self.parts))


def _scale(lo: float, hi: float, origin: float, extent: float):
    """Map [lo, hi] onto [origin, origin + extent], as given by _X_AXIS or _Y_AXIS."""
    span = hi - lo

    def s(v):
        if span == 0:
            return origin + extent / 2
        return origin + (v - lo) / span * extent

    return s


def plot_histogram(h: Histogram, title: str = "") -> SvgDoc:
    """One bar per bin; widths track bin width, heights are linear in count."""
    if not np.isfinite(h.edges).all():  # explicit Edges may end at +-inf, which has no x position
        raise ValueError("cannot plot a histogram with an infinite edge")
    cv = _Canvas(title)
    cv.axes()
    lo, hi = h.edges[0], h.edges[-1]
    max_count = max(h.counts) if h.counts else 1
    sx = _scale(lo, hi, *_X_AXIS)
    plot_h = HEIGHT - 2 * MARGIN
    if lo == hi:
        # single zero-width bin: render one full-width bar
        bar_h = plot_h
        cv.rect(MARGIN, HEIGHT - MARGIN - bar_h, WIDTH - 2 * MARGIN, bar_h, "#4878a8", cls="bar")
    else:
        for i, count in enumerate(h.counts):
            x0, x1 = sx(h.edges[i]), sx(h.edges[i + 1])
            bar_h = count / max_count * plot_h
            cv.rect(x0, HEIGHT - MARGIN - bar_h, x1 - x0, bar_h, "#4878a8", cls="bar")
    step = max(1, len(h.edges) // 8)
    for i in range(0, len(h.edges), step):
        cv.text(sx(h.edges[i]), HEIGHT - MARGIN + 16, _tick(h.edges[i]), anchor="middle")
    for frac in (0.0, 0.5, 1.0):
        cv.text(MARGIN - 6, HEIGHT - MARGIN - frac * plot_h + 4, _tick(frac * max_count), anchor="end")
    return cv.finish()


def plot_box(
    stats: SummaryStats,
    whisker_k: float = 1.5,
    points_beyond: Sequence[float] = (),
    title: str = "",
) -> SvgDoc:
    """Box q1..q3 with median line, fence-clamped whiskers, outlier markers.

    Whisker ends clamp the observed min/max to the k*IQR fences (the
    summary alone does not retain individual in-fence extremes); values in
    ``points_beyond`` are drawn as markers.
    """
    cv = _Canvas(title)
    lo_fence = stats.q1 - whisker_k * stats.iqr
    hi_fence = stats.q3 + whisker_k * stats.iqr
    w_lo = max(stats.min, lo_fence)
    w_hi = min(stats.max, hi_fence)
    values = [stats.min, stats.max, w_lo, w_hi, *points_beyond]
    vlo, vhi = min(values), max(values)
    pad = 0.05 * (vhi - vlo) if vhi > vlo else 0.5
    sy = _scale(vlo - pad, vhi + pad, *_Y_AXIS)
    cx = WIDTH / 2
    box_w = 160.0
    cv.line(cx, sy(w_lo), cx, sy(stats.q1))
    cv.line(cx, sy(stats.q3), cx, sy(w_hi))
    cv.line(cx - box_w / 4, sy(w_lo), cx + box_w / 4, sy(w_lo))
    cv.line(cx - box_w / 4, sy(w_hi), cx + box_w / 4, sy(w_hi))
    cv.rect(cx - box_w / 2, sy(stats.q3), box_w, sy(stats.q1) - sy(stats.q3), "#a8c4e0", cls="box")
    cv.line(cx - box_w / 2, sy(stats.median), cx + box_w / 2, sy(stats.median), width=2.0)
    # a zero-span x scale puts every marker at the centre, cx
    cv.circles(points_beyond, points_beyond, _scale(0.0, 0.0, *_X_AXIS), sy, 3, "#c03028", cls="outlier")
    for v in (vlo, stats.median, vhi):
        cv.text(MARGIN - 6, sy(v) + 4, _tick(v), anchor="end")
    cv.line(MARGIN, MARGIN, MARGIN, HEIGHT - MARGIN)
    return cv.finish()


def plot_bar(f: FrequencyTable, title: str = "") -> SvgDoc:
    """Bars in FrequencyTable row order, heights linear in count."""
    if not f.rows:
        raise ValueError("cannot plot an empty frequency table")
    cv = _Canvas(title)
    cv.axes()
    n = len(f.rows)
    max_count = max(r.count for r in f.rows)
    plot_w = WIDTH - 2 * MARGIN
    plot_h = HEIGHT - 2 * MARGIN
    slot = plot_w / n
    bar_w = slot * 0.7
    for i, row in enumerate(f.rows):
        bar_h = row.count / max_count * plot_h if max_count else 0.0
        x = MARGIN + i * slot + (slot - bar_w) / 2
        cv.rect(x, HEIGHT - MARGIN - bar_h, bar_w, bar_h, "#4878a8", cls="bar")
        cv.text(MARGIN + (i + 0.5) * slot, HEIGHT - MARGIN + 16, row.label, anchor="middle")
        cv.text(MARGIN + (i + 0.5) * slot, HEIGHT - MARGIN - bar_h - 4, str(row.count), anchor="middle")
    for frac in (0.0, 0.5, 1.0):
        cv.text(MARGIN - 6, HEIGHT - MARGIN - frac * plot_h + 4, _tick(frac * max_count), anchor="end")
    return cv.finish()


def plot_scatter(x: Column, y: Column, title: str = "") -> SvgDoc:
    """One marker per jointly present pair; axes autoscale with 5% padding.

    The markers cost one scale and one ``_fmt`` per distinct coordinate (see
    ``_Canvas.circles``), not two per point, and are laid out as the
    document is written.
    """
    xs, ys = _joint_present(x, y)
    if len(xs) == 0:
        raise ValueError("no jointly present pairs to plot")
    cv = _Canvas(title)
    cv.axes()

    def padded(vals):
        # the first of equal extremes, as min() and max() pick (0.0 vs -0.0)
        lo, hi = float(vals[np.argmin(vals)]), float(vals[np.argmax(vals)])
        pad = 0.05 * (hi - lo) if hi > lo else 0.5
        return lo - pad, hi + pad

    xlo, xhi = padded(xs)
    ylo, yhi = padded(ys)
    sx = _scale(xlo, xhi, *_X_AXIS)
    sy = _scale(ylo, yhi, *_Y_AXIS)
    cv.circles(xs, ys, sx, sy, 2, "#4878a8", cls="pt")
    cv.text(WIDTH / 2, HEIGHT - MARGIN / 4, x.name, anchor="middle")
    cv.text(MARGIN / 4, HEIGHT / 2, y.name, anchor="middle")
    for v in (xlo, xhi):
        cv.text(sx(v), HEIGHT - MARGIN + 16, _tick(v), anchor="middle")
    for v in (ylo, yhi):
        cv.text(MARGIN - 6, sy(v) + 4, _tick(v), anchor="end")
    return cv.finish()


def diverging_color(v: Optional[float]) -> str:
    """Blue-white-red over [-1, 1]; exact white at 0; gray for undefined."""
    if v is None:
        return _UNDEFINED_FILL
    v = max(-1.0, min(1.0, v))
    if v >= 0:
        level = round(255 * (1 - v))
        return f"#ff{level:02x}{level:02x}"
    level = round(255 * (1 + v))
    return f"#{level:02x}{level:02x}ff"


def plot_heatmap(m: CorrelationMatrix, title: str = "") -> SvgDoc:
    """Correlation cells on a fixed diverging scale, annotated to 2 decimals."""
    k = len(m.labels)
    if k == 0:
        raise ValueError("cannot plot an empty matrix")
    cv = _Canvas(title)
    grid = min(WIDTH, HEIGHT) - 2 * MARGIN
    cell = grid / k
    x0 = (WIDTH - grid) / 2
    y0 = MARGIN
    for i in range(k):
        for j in range(k):
            v = m.values[i][j]
            cv.rect(x0 + j * cell, y0 + i * cell, cell, cell, diverging_color(v), cls="cell")
            label = "NA" if v is None else f"{v:.2f}"
            cv.text(x0 + (j + 0.5) * cell, y0 + (i + 0.5) * cell + 4, label, anchor="middle")
    for i, name in enumerate(m.labels):
        cv.text(x0 - 6, y0 + (i + 0.5) * cell + 4, name, anchor="end")
        cv.text(x0 + (i + 0.5) * cell, y0 + grid + 14, name, anchor="middle")
    return cv.finish()
