"""Shared pieces of the benchmark: seeded inputs, the page schema,
local index builds, the corpus-side facts the output checks use, and
the op-time statistics every workload reports."""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from perfbench import speed
from toshi_ray.schema import FieldDef, Schema
from toshi_ray.sources.webpages import make_pages_batch

# Every doc-id range starts on a multiple of this, so two seeds never
# share a page.
SEED_STRIDE = 1 << 24

PAGE_COLUMNS = ["doc_id", "url", "text", "lang"]


def pages_schema() -> Schema:
    return Schema.build(
        FieldDef("doc_id", "u64", fast=True),
        FieldDef("url", "text", indexed=False),
        FieldDef("text", "text"),
        FieldDef("lang", "facet"),
    )


def rng(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, purpose)."""
    return np.random.default_rng([seed, *stream.encode()])


def doc_id_base(seed: int) -> int:
    """The seed picks the doc-id range; page text is a pure function of
    the doc id, so this alone decides the corpus."""
    return (1 + seed % 4096) * SEED_STRIDE


def make_corpus(seed: int, n_docs: int, first: int = 0) -> pa.Table:
    """Pages ``first .. first + n_docs`` of this seed's range. ``lang``
    becomes a facet path (``/en``) so facet queries count real children."""
    lo = doc_id_base(seed) + first
    ids = np.arange(lo, lo + n_docs, dtype=np.uint64)
    t = make_pages_batch(ids).select(PAGE_COLUMNS)
    lang = pc.binary_join_element_wise("/", t["lang"], "")
    return t.set_column(t.schema.get_field_index("lang"), "lang", lang)


def dir_bytes(*paths: str) -> int:
    """Bytes of the files under ``paths``; a file hard-linked in several
    places counts once."""
    seen: dict[tuple[int, int], int] = {}
    for path in paths:
        for dp, _, fs in os.walk(path):
            for f in fs:
                st = os.stat(os.path.join(dp, f))
                seen[(st.st_dev, st.st_ino)] = st.st_size
    return sum(seen.values())


def build_local_index(root: str, corpus: pa.Table, docs_per_segment: int) -> dict:
    """Build an index in-process: one segment per ``docs_per_segment``
    slice, then one manifest commit. The same per-batch path as the Ray
    build's SegmentBuilder, without Ray."""
    from toshi_ray.pipelines.build import SCHEMA_FILE, SEGMENTS_DIR, publish_manifest
    from toshi_ray.segments import build_segment_tables, write_segment

    schema = pages_schema()
    seg_dir = os.path.join(root, SEGMENTS_DIR)
    os.makedirs(seg_dir, exist_ok=True)
    with open(os.path.join(root, SCHEMA_FILE), "w") as f:
        f.write(schema.dumps())
    metas = []
    for lo in range(0, corpus.num_rows, docs_per_segment):
        tables = build_segment_tables(corpus.slice(lo, docs_per_segment), schema)
        metas.append(write_segment(seg_dir, *tables))
    return publish_manifest(root, metas)


class CorpusTerms:
    """Which docs hold which terms, from one vectorized pass of the
    analyzer (the analyzer defines the vocabulary, so engine and checks
    must share it). Serves term sampling by frequency band and the
    whole-corpus statistics the output checks score with."""

    def __init__(self, corpus: pa.Table):
        from toshi_ray.analyzer import get_analyzer

        tc = get_analyzer("default").tokenize_column(corpus["text"])
        term_ids, vocab = tc.term_ids()
        self.doc_ids = corpus["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        self.n_docs = corpus.num_rows
        self.total_tokens = int(tc.norms.sum())
        self.vocab = np.asarray(vocab.to_pylist(), dtype=object)
        self._id = {t: i for i, t in enumerate(self.vocab)}
        pair = np.unique(term_ids.astype(np.int64) * self.n_docs + tc.doc_index)
        self._pair_term = pair // self.n_docs
        self._pair_doc = pair % self.n_docs
        self.df = np.bincount(self._pair_term, minlength=len(self.vocab))
        self._starts = np.concatenate([[0], np.cumsum(self.df)])
        self.langs = corpus["lang"].to_numpy(zero_copy_only=False)

    def doc_rows(self, term: str) -> np.ndarray:
        """Row indices (ascending) of the docs containing ``term``."""
        i = self._id.get(term)
        if i is None:
            return np.empty(0, np.int64)
        return self._pair_doc[self._starts[i] : self._starts[i + 1]]

    def df_of(self, term: str) -> int:
        i = self._id.get(term)
        return 0 if i is None else int(self.df[i])

    def band(self, lo: float, hi: float) -> np.ndarray:
        """Terms held by a share of docs in [lo, hi), sorted."""
        share = self.df / self.n_docs
        return np.sort(self.vocab[(share >= lo) & (share < hi)])


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, n): the highest percentile with at least 10
    samples above it. Below 11 samples no percentile qualifies, and the
    maximum is reported as percentile 100."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return 100.0, xs[-1], n
    return 100.0 * (n - 10) / n, xs[n - 11], n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Metric:
    value: float
    unit: str
    note: str = ""


@dataclass
class Outcome:
    """What one workload run produced."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, Metric] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


@dataclass
class LoopStats:
    """Op CPU times of one closed-loop window (1 client), scaled to the
    reference speed (``perfbench.speed``), and the unscaled ones."""

    op_ms: list[float] = field(default_factory=list)
    unscaled_ms: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    failed: int = 0
    busy_s: float = 0.0  # scaled time spent in ops

    @property
    def attempted(self) -> int:
        return len(self.op_ms)

    def add(self, kind: str, ms: float, unscaled_ms: float, ok: bool) -> None:
        # a failed op counts as missing any time limit
        self.kinds.append(kind)
        self.op_ms.append(ms if ok else math.inf)
        self.unscaled_ms.append(unscaled_ms if ok else math.inf)
        self.failed += 0 if ok else 1
        self.busy_s += ms / 1e3

    def p50(self) -> float:
        return statistics.median(self.op_ms)

    def p50_by_kind(self) -> dict[str, float]:
        by: dict[str, list[float]] = {}
        for k, ms in zip(self.kinds, self.op_ms):
            by.setdefault(k, []).append(ms)
        return {k: statistics.median(v) for k, v in by.items()}


def window_ops(seconds: float, ops_per_s: float, whole: int = 1) -> int:
    """The ops one window measures: ``seconds`` worth at the workload's
    nominal rate, in whole units of ``whole``, at least one unit.

    A window is a fixed amount of work, not a fixed time: the tail
    percentile picks the 11th-slowest op, and which kind of op that is
    must not change with how fast the run goes."""
    return whole * max(1, round(seconds * ops_per_s / whole))


def closed_loop(op, n_ops: int, stats: LoopStats | None = None,
                probes_per_op: int = 1) -> LoopStats:
    """Call ``op(i)`` ``n_ops`` times; the next call starts only when the
    previous one returned. ``op`` returns ``(kind, ok)``, and its CPU
    time is taken here, or ``(kind, ok, seconds)`` when it measures its
    own CPU seconds. An op that raises counts as failed.
    ``probes_per_op`` speed probes run before each op and after the
    last, and each op's time is scaled by the probes around it
    (``perfbench.speed``)."""
    stats = stats or LoopStats()
    groups: list[list[float]] = []
    ran: list[tuple[str, bool, float]] = []
    for _ in range(n_ops):
        groups.append(speed.probes(probes_per_op))
        c0 = time.process_time()
        try:
            kind, ok, *took = op(stats.attempted + len(ran))
        except Exception:
            traceback.print_exc()
            kind, ok, took = "raised", False, []
        ran.append((kind, ok, took[0] if took else time.process_time() - c0))
    groups.append(speed.probes(probes_per_op))
    for i, (kind, ok, s) in enumerate(ran):
        stats.add(kind, 1e3 * speed.scale(s, speed.around(groups, i)), 1e3 * s, ok)
    return stats


def loop_metrics(out: Outcome, loop: LoopStats) -> None:
    """The op counts and the op CPU-time and rate metrics of one window,
    at the reference speed; the unscaled figures go in the notes."""
    out.attempted, out.failed = loop.attempted, loop.failed
    pct, tail, n = tail_percentile(loop.op_ms)
    raw = f"unscaled {statistics.median(loop.unscaled_ms):.1f} ms"
    out.metrics["op_p50_cpu_ms"] = Metric(loop.p50(), "ms", f"n={n}, {raw}")
    raw = f"unscaled {tail_percentile(loop.unscaled_ms)[1]:.1f} ms"
    out.metrics["op_tail_cpu_ms"] = Metric(tail, "ms", f"p{pct:.1f} of n={n}, {raw}")
    out.metrics["ops_per_cpu_s"] = Metric(loop.attempted / loop.busy_s, "1/s")


def setup_metric(scaled_s: list[float], raw_s: list[float], what: str) -> Metric:
    """``setup_s``: the median CPU time of a run's set-ups, at the
    reference speed."""
    return Metric(statistics.median(scaled_s), "s",
                  f"median of {len(scaled_s)}{what}, unscaled {statistics.median(raw_s):.3f} s")
