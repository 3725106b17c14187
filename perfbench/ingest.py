"""ingest_visible: one client writing and reading the same index.

``IndexCatalog`` in its default publish-on-write mode, starting from an
empty index. Each cycle bulk-inserts a batch of NDJSON pages that all
carry one unique marker token, then searches for the marker until the
whole batch is visible; the op time is the CPU time to visible. Every
10th cycle also deletes an earlier marker and confirms it returns no
hits. Each cycle adds a segment, so commit and refresh costs that grow
with segment count show up here. After EPOCH cycles the next cycle
starts a new empty index, and a window is whole epochs: every run
measures the same segment counts.
"""

from __future__ import annotations

import json
import os
import shutil
import time

from perfbench import speed
from perfbench.common import (
    Metric,
    Outcome,
    closed_loop,
    window_ops,
    dir_bytes,
    loop_metrics,
    make_corpus,
    pages_schema,
    peak_rss_mb,
    setup_metric,
)
from perfbench.trace import traced_windows

BATCH_DOCS = 64
DELETE_EVERY = 10
EPOCH = 30
CYCLES_PER_S = 15.0  # nominal: a 10 s window is 5 epochs
SETUPS = 15  # set-ups per run; setup_s is their median
VISIBLE_WITHIN_S = 10.0
WARM_CYCLE = 1 << 20  # pages far past any measured cycle's


class Ingest:
    """One index, filled from empty one cycle at a time."""

    def __init__(self, catalog, seed: int):
        self.catalog = catalog
        self.seed = seed
        self.live: list[str] = []
        self.deleted: list[str] = []
        self.cycles = 0

    def marker(self, cycle: int) -> str:
        return f"mk{self.seed:x}c{cycle}"

    def ndjson(self, cycle: int) -> str:
        # cycle c holds pages [c * BATCH_DOCS, (c + 1) * BATCH_DOCS) of the
        # seed's doc-id range, each tagged with the cycle's marker
        pages = make_corpus(self.seed, BATCH_DOCS, first=cycle * BATCH_DOCS)
        m = self.marker(cycle)
        return "\n".join(
            json.dumps({"url": u, "text": f"{t} {m}", "lang": g})
            for u, t, g in zip(*(pages[c].to_pylist() for c in ("url", "text", "lang")))
        )

    def hits(self, *markers: str) -> int:
        """Docs holding any of the markers (one search)."""
        should = [{"term": {"text": m}} for m in markers]
        q = should[0] if len(should) == 1 else {"bool": {"should": should}}
        return self.catalog.search("bench", {"query": q, "limit": BATCH_DOCS * len(markers)})["hits"]

    def cycle(self, cycle: int, ndjson: str) -> tuple[bool, float]:
        """bulk → visible; → (visible, CPU seconds to visible)."""
        m = self.marker(cycle)
        self.cycles += 1
        c0, t0 = time.process_time(), time.perf_counter()
        self.catalog.bulk_insert("bench", ndjson)
        while self.hits(m) < BATCH_DOCS:
            if time.perf_counter() - t0 > VISIBLE_WITHIN_S:
                return False, time.process_time() - c0
        self.live.append(m)
        return True, time.process_time() - c0

    def delete_one(self) -> bool:
        """Delete the oldest live marker; it must then return 0 hits."""
        m = self.live.pop(0)
        self.catalog.delete_term("bench", {"text": m})
        self.deleted.append(m)
        return self.hits(m) == 0

    def verify(self, out: Outcome) -> None:
        """Every batch still live is fully visible, every deleted one gone."""
        out.check(not self.live or self.hits(*self.live) == BATCH_DOCS * len(self.live),
                  "a live marker lost docs")
        out.check(not self.deleted or self.hits(*self.deleted) == 0, "a deleted marker has hits")


def new_catalog(base: str):
    from toshi_ray.api import IndexCatalog

    catalog = IndexCatalog(base)
    catalog.create_index("bench", pages_schema().to_json())
    return catalog


def run(name: str, seed: int, seconds: float, tracer, workdir: str) -> Outcome:
    out = Outcome()
    warm_batch = Ingest(None, seed).ndjson(WARM_CYCLE)
    setup_s, raw_s = [], []
    for i in range(SETUPS):
        base = os.path.join(workdir, f"setup-{i}")
        # a new catalog and index plus one warm cycle: the first-call costs
        _, scaled, raw = speed.timed(
            lambda: Ingest(new_catalog(base), seed).cycle(WARM_CYCLE, warm_batch))
        setup_s.append(scaled)
        raw_s.append(raw)
        shutil.rmtree(base)

    indexes: list[Ingest] = []
    n_ops = window_ops(seconds, CYCLES_PER_S, EPOCH)

    def op(_):
        if not indexes or indexes[-1].cycles == EPOCH:
            indexes.append(Ingest(new_catalog(os.path.join(workdir, f"epoch-{len(indexes)}")), seed))
        ing = indexes[-1]
        c = sum(ix.cycles for ix in indexes)
        ndjson = ing.ndjson(c)  # input prep: outside the op time
        if tracer is not None:
            tracer.request = c
        ok, took = ing.cycle(c, ndjson)
        if ok and ing.cycles % DELETE_EVERY == 0:
            ok = ing.delete_one()
        return "cycle", ok, took

    if tracer is None:
        loop_metrics(out, closed_loop(op, n_ops))
        out.metrics["setup_s"] = setup_metric(setup_s, raw_s, "")
        out.metrics["index_bytes_per_doc"] = Metric(
            dir_bytes(os.path.join(workdir, "epoch-0", "bench")) / (EPOCH * BATCH_DOCS), "B"
        )
        out.metrics["peak_rss_mb"] = Metric(peak_rss_mb(), "MB")
    else:
        traced_windows(out, tracer, op, n_ops, whole=EPOCH)
    for ix in indexes:
        ix.verify(out)
    return out
