"""Outside-in tracer for edakit: spans at layer boundaries, kept in memory.

``Tracer.install()`` replaces every public edakit function, in every edakit
module namespace that binds it, with one wrapper per function. A wrapper
opens a span only when the call crosses into another layer (module), so the
calls a layer makes within itself, public or private, count toward the
calling span's self time. Every call is counted, span or not.

Spans hold references to their arguments and result; the counts derived from
them (cells, merges, pairs, bytes, iterations) are computed in ``dump``,
after the command has finished, so that work lands in no span.

``layer_metrics`` turns the span files of one traced command sequence into
per-layer self times, counts and rates.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "table", "cleanse", "stats", "assoc", "pca", "cluster", "timeseries", "viz", "report", "cli",
)


class _Span:
    __slots__ = ("id", "parent", "name", "layer", "start", "end", "args", "kwargs", "result")

    def __init__(self, span_id, parent, name, layer, args, kwargs):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.layer = layer
        self.args = args
        self.kwargs = kwargs
        self.result = None
        self.start = time.perf_counter_ns()
        self.end = None


class Tracer:
    """Span recorder for one process; spans share one run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[_Span] = []
        self.stack: list[_Span] = []
        self.calls: Counter = Counter()

    @classmethod
    def install(cls, run_id: str) -> "Tracer":
        """Wrap the public functions of every imported edakit module."""
        tracer = cls(run_id)
        modules = [m for n, m in sorted(sys.modules.items()) if n == "edakit" or n.startswith("edakit.")]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("edakit."):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = tracer._wrap(obj)
                setattr(module, attr, wrappers[obj])
        return tracer

    def _wrap(self, fn):
        layer = fn.__module__.split(".", 1)[1]
        name = f"{layer}.{fn.__name__}"
        spans, stack, calls = self.spans, self.stack, self.calls

        def traced(*args, **kwargs):
            calls[name] += 1
            if stack and stack[-1].layer == layer:
                return fn(*args, **kwargs)
            span = _Span(len(spans), stack[-1].id if stack else None, name, layer, args, kwargs)
            spans.append(span)
            stack.append(span)
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()

        return traced

    def dump(self, path: str) -> None:
        """Write spans, derived counts and call counts as one JSON document."""
        records = []
        for s in self.spans:
            records.append({
                "run": self.run_id,
                "id": s.id,
                "parent": s.parent,
                "name": s.name,
                "start_ns": s.start,
                "end_ns": s.end,
                "counts": _counts(s),
            })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "spans": records, "calls": dict(self.calls)}, fh)


def _counts(span: _Span) -> dict:
    """Work counts of one span, read from its arguments and result."""
    r, name = span.result, span.name
    if name in ("table.write_csv", "table.write_csv_to"):  # these return None
        t = span.args[0]
        return {"cells": t.row_count * len(t.columns)}
    if r is None:
        return {}
    if name == "table.read_csv":
        return {"cells": r.row_count * len(r.columns)}
    if name == "assoc.correlation_matrix":
        method = span.args[1] if len(span.args) > 1 else span.kwargs.get("method")
        method = "pearson" if method is None else method.value
        counts = {
            "method": method,
            "cells": len(r.labels) ** 2,
            "null_cells": sum(v is None for row in r.values for v in row),
        }
        if method == "kendall":
            counts["pairs"] = _kendall_pairs(span.args[0])
        return counts
    if name == "cluster.agglomerative":
        return {"merges": len(r.merges)}
    if name in ("cluster.kmeans", "cluster.gmm"):
        return {"iterations": r.iterations}
    if span.layer == "viz" and hasattr(r, "body"):
        return {"bytes": len(r.body.encode("utf-8"))}
    if name == "report.render_report":
        return {"bytes": sum(os.path.getsize(p) for p in r)}
    return {}


def _kendall_pairs(t) -> int:
    """Sum over computed cells (i <= j) of n(n-1)/2, n = jointly present rows."""
    eligible = [c for c in t.columns if c.kind.value in ("numeric", "boolean")]
    total = 0
    for i, a in enumerate(eligible):
        for b in eligible[i:]:
            n = sum(1 for ma, mb in zip(a.missing, b.missing) if not ma and not mb)
            total += n * (n - 1) // 2
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct child spans cover, in s."""
    own = {s["id"]: s["end_ns"] - s["start_ns"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end_ns"] - s["start_ns"]
    return {k: v / 1e9 for k, v in own.items()}


def layer_metrics(docs: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced command sequence (one doc per command)."""
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for doc in docs:
        calls.update(doc["calls"])
        own = self_times(doc["spans"])
        for s in doc["spans"]:
            name, c, t = s["name"], s["counts"], own[s["id"]]
            counted = name
            if name == "assoc.correlation_matrix":
                name = f"{name}.{c['method']}"
            elif name == "table.write_csv_to":
                name = counted = "table.write_csv"
            self_s[name] += t
            self_s[name.split(".", 1)[0]] += t
            for key, value in c.items():
                if key != "method":
                    counts[f"{counted}.{key}"] += value

    def rate(seconds: float, work: float) -> float:
        return seconds * 1e9 / work if work else 0.0

    m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    for name in (
        "table.read_csv", "table.write_csv", "table.numeric_with_mask", "table.numeric_values",
        "table.value_counts", "cleanse.impute", "cleanse.detect_outliers",
        "cleanse.handle_outliers", "cleanse.encode", "stats.summarize", "stats.histogram",
        "assoc.correlation_matrix.pearson", "assoc.correlation_matrix.spearman",
        "assoc.correlation_matrix.kendall", "pca.fit_pca", "cluster.agglomerative",
        "cluster.dbscan", "cluster.gmm", "cluster.kmeans", "timeseries.decompose_additive",
        "viz.plot_scatter", "viz.plot_heatmap", "viz.plot_bar", "report.churn_pipeline",
        "report.render_report", "cli.main",
    ):
        m[f"{name}.self_s"] = self_s[name]
    m["table.read_csv.ns_per_cell"] = rate(self_s["table.read_csv"], counts["table.read_csv.cells"])
    m["table.write_csv.ns_per_cell"] = rate(self_s["table.write_csv"], counts["table.write_csv.cells"])
    m["table.numeric_with_mask.calls"] = calls["table.numeric_with_mask"]
    m["table.numeric_values.calls"] = calls["table.numeric_values"]
    m["assoc.correlation_matrix.cells"] = counts["assoc.correlation_matrix.cells"]
    m["assoc.correlation_matrix.null_cells"] = counts["assoc.correlation_matrix.null_cells"]
    m["assoc.average_ranks.calls"] = calls["assoc.average_ranks"]
    m["assoc.kendall_tau.ns_per_pair"] = rate(
        self_s["assoc.correlation_matrix.kendall"], counts["assoc.correlation_matrix.pairs"]
    )
    m["cluster.agglomerative.ns_per_merge"] = rate(
        self_s["cluster.agglomerative"], counts["cluster.agglomerative.merges"]
    )
    m["cluster.gmm.iterations"] = counts["cluster.gmm.iterations"]
    m["cluster.kmeans.iterations"] = counts["cluster.kmeans.iterations"]
    m["viz.svg_bytes"] = sum(
        v for k, v in counts.items() if k.startswith("viz.") and k.endswith(".bytes")
    )
    m["report.bytes_written"] = counts["report.render_report.bytes"]
    m["trace.spans"] = sum(len(doc["spans"]) for doc in docs)
    return m
