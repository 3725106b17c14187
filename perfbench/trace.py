"""Spans around the calls into each layer of ``toshi_ray``.

The library is left untouched: ``instrument`` wraps public functions
and methods from here, records one span per call, and ``restore`` puts
the originals back. A span is ``(name, start, end, parent, request)``:
``parent`` is the index of the enclosing span (-1 at the top) and
``request`` the id of the operation that caused it. Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter

from perfbench.common import LoopStats, Metric, Outcome, closed_loop, dir_bytes

# (module, owner class or None, attribute, span name). Wrapping a
# module-level function also rebinds every toshi_ray module that
# imported it by name.
TARGETS = [
    ("toshi_ray.query", "Search", "from_json", "query.parse"),
    ("toshi_ray.search", "Searcher", "__init__", "search.searcher_open"),
    ("toshi_ray.search", "Searcher", "refresh", "search.refresh"),
    ("toshi_ray.search", "Searcher", "multi_search", "search.multi_search"),
    ("toshi_ray.search", "SegmentGroupScorer", "term_dfs", "search.stats"),
    ("toshi_ray.search", "SegmentGroupScorer", "score_topk_many", "search.score"),
    ("toshi_ray.search", "SegmentGroupScorer", "fetch_docs", "search.fetch"),
    ("toshi_ray.segments", "SegmentReader", "__init__", "segments.reader_open"),
    ("toshi_ray.segments", "SegmentReader", "postings_for_terms", "segments.postings"),
    ("toshi_ray.segments", "SegmentReader", "df_for_terms", "segments.df"),
    ("toshi_ray.segments", "SegmentReader", "docvalues", "segments.docvalues"),
    ("toshi_ray.segments", "SegmentReader", "store", "segments.store"),
    ("toshi_ray.segments", None, "build_segment_tables", "segments.build_tables"),
    ("toshi_ray.segments", None, "write_segment", "segments.write"),
    ("toshi_ray.analyzer", "DefaultAnalyzer", "tokenize_column", "analyzer.tokenize"),
    ("toshi_ray.termbloom", None, "build_term_blooms", "termbloom.build"),
    ("toshi_ray.codecs", None, "decode_doc_ids_blocked", "codecs.decode"),
    ("toshi_ray.codecs", None, "varint_decode", "codecs.decode"),
    ("toshi_ray.storage", "LocalFileStorage", "publish_file", "storage.publish"),
    ("toshi_ray.storage", "LocalFileStorage", "publish_dir", "storage.publish"),
    ("toshi_ray.pipelines.build", None, "publish_manifest", "storage.publish"),
    ("toshi_ray.pipelines.build", None, "build_index", "build.build_index"),
    ("toshi_ray.pipelines.merge", None, "merge_segments", "merge.merge_segments"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.counters: Counter = Counter()
        self.request: int | None = None
        self._open: list[int] = []
        self._undo: list[tuple] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def traced(self, fn, name: str):
        before, after = ACCOUNTING.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(self.counters, args, result, state)
            return result

        return wrapper

    def instrument(self, targets=TARGETS) -> None:
        for mod_name, owner_name, attr, name in targets:
            mod = importlib.import_module(mod_name)
            if owner_name is None:
                orig = getattr(mod, attr)
                wrapped = self.traced(orig, name)
                for m in list(sys.modules.values()):
                    if getattr(m, "__name__", "").startswith("toshi_ray") and (
                        getattr(m, attr, None) is orig
                    ):
                        self._undo.append((m, attr, orig))
                        setattr(m, attr, wrapped)
                continue
            owner = getattr(mod, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.traced(raw.__func__, name))
            else:
                wrapped = self.traced(raw, name)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def restore(self) -> None:
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, req in self.spans:
                f.write(json.dumps([name, start, end, parent, req]) + "\n")


def _store_rows(counters: Counter, args, result, _) -> None:
    counters["store.rows_returned"] += result.num_rows
    counters["store.rows_opened"] += args[0].num_docs


def _written_bytes(counters: Counter, args, result, _) -> None:
    counters["write.bytes"] += dir_bytes(os.path.join(args[0], result["name"]))
    counters["write.docs"] += result["num_docs"]


def _blocks(counters: Counter, args, _, before: dict) -> None:
    now = args[0].perf_counters()
    for k in ("blocks_decoded", "blocks_total"):
        counters[k] += now[k] - before[k]


# span name -> (snapshot before the call, accounting after it)
ACCOUNTING = {
    "segments.store": (None, _store_rows),
    "segments.write": (None, _written_bytes),
    "search.score": (lambda args: args[0].perf_counters(), _blocks),
}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval that its
    child spans cover (children may overlap; the union is taken)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for cs, ce in sorted(children.get(i, [])):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((end - start) - covered)
    return out


def totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self seconds and inclusive seconds. A span
    nested in one of the same name adds no inclusive time."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        t = out.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        t["calls"] += 1
        t["self_s"] += selfs[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            t["incl_s"] += end - start
    return out


def within(spans: list[list], outer: str, inner: set[str]) -> float:
    """Inclusive seconds of ``inner`` spans that run inside an ``outer``
    span (outermost inner span only)."""
    total = 0.0
    for name, start, end, parent, _ in spans:
        if name not in inner:
            continue
        p, inside = parent, False
        while p >= 0:
            if spans[p][0] in inner:
                break
            inside = inside or spans[p][0] == outer
            p = spans[p][3]
        else:
            if inside:
                total += end - start
    return total


def traced_windows(out: Outcome, tracer: Tracer, op, n_ops: int, whole: int = 1,
                   probes_per_op: int = 1) -> tuple[LoopStats, LoopStats]:
    """About ``n_ops`` ops in alternating blocks of ``whole``, untraced and
    traced, so both halves see the same machine. The per-layer metrics
    come from the traced blocks, the overhead from the difference of the
    two p50s; → (untraced, traced) ops."""
    base, traced = LoopStats(), LoopStats()
    for _ in range(max(1, n_ops // whole // 2)):
        closed_loop(op, whole, base, probes_per_op)
        tracer.instrument()
        try:
            closed_loop(op, whole, traced, probes_per_op)
        finally:
            tracer.restore()
    out.metrics.update(layer_metrics(tracer, traced.attempted))
    out.metrics["trace.overhead_ms"] = Metric(traced.p50() - base.p50(), "ms")
    out.metrics["trace.overhead_ratio"] = Metric(traced.p50() / base.p50() - 1.0, "ratio")
    out.attempted = base.attempted + traced.attempted
    out.failed = base.failed + traced.failed
    return base, traced


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, Metric]:
    """Per-layer metrics of one traced window of ``n_ops`` operations.
    Phase times (``search.stats/score/fetch_ms``) include the segment
    reads they trigger; every other ``_ms`` is self time. Times and
    counts are per operation."""
    t = totals(tracer.spans)
    c = tracer.counters
    n = max(n_ops, 1)

    def ms(*names: str, kind: str = "self_s") -> Metric:
        return Metric(1e3 * sum(t.get(x, {}).get(kind, 0.0) for x in names) / n, "ms")

    def calls(name: str) -> Metric:
        return Metric(t.get(name, {}).get("calls", 0) / n, "count")

    def ratio(a: float, b: float) -> Metric:
        return Metric(a / b if b else 0.0, "ratio")

    return {
        "query.parse_ms": ms("query.parse"),
        "search.stats_ms": ms("search.stats", kind="incl_s"),
        "search.stats_roundtrips_per_query": calls("search.stats"),
        "search.score_ms": ms("search.score", kind="incl_s"),
        "search.blocks_decoded_ratio": ratio(c["blocks_decoded"], c["blocks_total"]),
        "search.fetch_ms": ms("search.fetch", kind="incl_s"),
        "search.merge_self_ms": ms("search.multi_search"),
        "search.searcher_open_ms": ms("search.searcher_open", "search.refresh"),
        "segments.readers_opened": calls("segments.reader_open"),
        "segments.reader_open_ms": ms("segments.reader_open"),
        "segments.postings_ms": ms("segments.postings"),
        "segments.postings_calls_per_query": calls("segments.postings"),
        "segments.df_ms": ms("segments.df"),
        "segments.docvalues_ms": ms("segments.docvalues"),
        "segments.store_ms": ms("segments.store"),
        "segments.store_calls_per_query": calls("segments.store"),
        "segments.fetch_useful_ratio": ratio(c["store.rows_returned"], c["store.rows_opened"]),
        "segments.build_tables_ms": ms("segments.build_tables"),
        "segments.write_ms": ms("segments.write"),
        "segments.bytes_written_per_doc": Metric(
            c["write.bytes"] / c["write.docs"] if c["write.docs"] else 0.0, "B"
        ),
        "analyzer.tokenize_ms": ms("analyzer.tokenize"),
        "termbloom.build_ms": ms("termbloom.build"),
        "codecs.decode_calls": calls("codecs.decode"),
        "codecs.decode_ms": ms("codecs.decode"),
        "storage.publish_ms": ms("storage.publish"),
    }
