"""Spans around the benchmark's calls into the library, and the per-layer
metrics derived from them.

A span is ``[name, case, parent, start, end]``.  Spans are kept in memory
and written out once, when the run ends.  The untraced run uses
``NullTracer``, whose ``call`` only calls through.
"""

from __future__ import annotations

import json
from time import perf_counter

# Span name -> per-layer metric that its self time is added to.
SELF_TIME_METRIC = {
    "jsonio.load_document": "jsonio.parse_s",
    "jsonio.parse_curve": "jsonio.parse_s",
    "jsonio.parse_graph": "jsonio.parse_s",
    "jsonio.dumps": "jsonio.emit_s",
    "jsonio.tower_to_json": "jsonio.emit_s",
    "jsonio.graph_to_json": "jsonio.emit_s",
    "to_json": "jsonio.emit_s",
    "strands.contact_matrix": "strands.contacts_s",
    "strands.check_ultrametric": "strands.ultrametric_s",
    "carrousel.build_carrousel_tree": "carrousel.build_s",
    "carrousel.decorate": "carrousel.build_s",
    "carrousel.reduce_to_eggers": "carrousel.build_s",
    "carrousel.leaf_contacts": "carrousel.roundtrip_s",
    "tower.resolve_curve": "tower.resolve_s",
    "tower.verify_tower": "tower.verify_s",
    "surfgraph.laufer_parity_prepare": "surfgraph.cover_s",
    "surfgraph.laufer_double_cover": "surfgraph.cover_s",
    "surfgraph.is_connected": "surfgraph.checks_s",
    "surfgraph.laufer_residuals": "surfgraph.checks_s",
    "surfgraph.is_negative_definite": "surfgraph.negdef_s",
    "surfgraph.determinant": "surfgraph.det_s",
    "surfgraph.solve_multiplicities": "surfgraph.solve_s",
    "surfgraph.pencil_min": "surfgraph.pencil_s",
    "surfgraph.has_base_point": "surfgraph.pencil_s",
    "surfgraph.resolve_pencil": "surfgraph.pencil_s",
    "decomp.csquare_decomposition": "decomp.decompose_s",
    "decomp.amalgamate": "decomp.decompose_s",
    "decomp.build_decomposition": "decomp.decompose_s",
    "decomp.thick_thin": "decomp.thickthin_s",
    "decomp.inner_signature": "decomp.signature_s",
    "decomp.outer_signature": "decomp.signature_s",
    "decomp.signatures_equal": "decomp.iso_s",
    "cli.call": "cli.call_s",
}

# Every per-layer metric, in BENCHMARK.json order, with its unit.
LAYER_METRICS = [
    ("jsonio.parse_s", "s"), ("jsonio.emit_s", "s"), ("jsonio.bytes", "count"),
    ("strands.contacts_s", "s"), ("strands.ultrametric_s", "s"),
    ("strands.strands", "count"), ("strands.pairs", "count"),
    ("strands.order_max", "count"),
    ("carrousel.build_s", "s"), ("carrousel.roundtrip_s", "s"),
    ("carrousel.nodes", "count"),
    ("tower.resolve_s", "s"), ("tower.verify_s", "s"), ("tower.events", "count"),
    ("tower.vertices", "count"), ("tower.mult_max", "count"),
    ("surfgraph.cover_s", "s"), ("surfgraph.cover_attempts", "count"),
    ("surfgraph.cover_refused", "count"),
    ("surfgraph.checks_s", "s"), ("surfgraph.negdef_s", "s"),
    ("surfgraph.solve_s", "s"), ("surfgraph.det_s", "s"),
    ("surfgraph.pencil_s", "s"), ("surfgraph.vertices", "count"),
    ("surfgraph.vertices_max", "count"),
    ("decomp.thickthin_s", "s"), ("decomp.decompose_s", "s"),
    ("decomp.signature_s", "s"), ("decomp.iso_s", "s"),
    ("decomp.pieces", "count"),
    ("cli.import_ms", "ms"), ("cli.interp_ms", "ms"), ("cli.calls", "count"),
    ("cli.call_s", "s"), ("cli.malformed", "count"),
    ("cli.malformed_exit2", "count"),
    ("trace.overhead_share", "ratio"),
]
MAX_COUNTERS = {"strands.order_max", "tower.mult_max", "surfgraph.vertices_max"}


class NullTracer:
    """Untraced runs: no spans, no counters."""

    enabled = False

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, k=1):
        pass

    def begin_case(self, case_id):
        pass

    def end_case(self):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list = []
        self.counters: dict = {}
        self._stack: list = []
        self._case = None
        self._case_first = 0

    def call(self, name, fn, *args):
        span = [name, self._case, self._stack[-1] if self._stack else -1,
                perf_counter(), None]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            return fn(*args)
        finally:
            span[4] = perf_counter()
            self._stack.pop()

    def count(self, name, k=1):
        if name in MAX_COUNTERS:
            self.counters[name] = max(self.counters.get(name, 0), k)
        else:
            self.counters[name] = self.counters.get(name, 0) + k

    def begin_case(self, case_id):
        self._case = case_id
        self._case_first = len(self.spans)
        self._stack.clear()

    def end_case(self):
        """Close the spans a budget interrupt left open."""
        now = perf_counter()
        for span in self.spans[self._case_first:]:
            if span[4] is None:
                span[4] = now
        self._stack.clear()
        self._case = None

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "case", "parent", "start", "end"],
                       "spans": self.spans}, fh)


def self_times(spans) -> list:
    """Self time of every span: its duration minus the part of its
    interval covered by its children (the union of their intervals)."""
    children: dict = {}
    for i, (_, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out = []
    for i, (_, _, _, start, end) in enumerate(spans):
        covered = 0.0
        cursor = start
        for s, e in sorted((spans[c][3], spans[c][4]) for c in children.get(i, ())):
            s, e = max(s, cursor), min(e, end)
            if e > s:
                covered += e - s
                cursor = e
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """Self seconds per layer metric plus the counters; zero for layers the
    workload does not reach."""
    out = {name: 0 for name, _ in LAYER_METRICS}
    for (name, *_), own in zip(tracer.spans, self_times(tracer.spans)):
        metric = SELF_TIME_METRIC.get(name)
        if metric is not None:
            out[metric] += own
    for name, value in tracer.counters.items():
        out[name] = value
    return out
