"""batch_pipelines: the Ray Data build, merge and dedup pipelines.

The batch chain runs over a seeded parquet corpus with injected exact
and near duplicates: ``build_index`` (12 segments) → ``merge_segments``
over 8 of them → ``exact_dedup`` → ``minhash_lsh_pairs``. One op is one
stage of the chain, timed in CPU seconds of the whole process tree
(Ray's processes included), so a window of one chain is four ops of
four kinds: ``op_tail_cpu_ms`` is the costliest stage (the merge),
``op_p50_cpu_ms`` the mean of the middle two and ``ops_per_cpu_s``
stages per CPU-second of the whole chain. A stage is too long for one
speed probe beside it, so PROBES_PER_STAGE probes run before each stage
and after the last, and a stage is scaled by the median of those just
before and after it. Ray runs with one CPU; ``ray.init`` is part of
set-up. This is the only workload that
runs pipelines/build, pipelines/merge and ops/dedup.
"""

from __future__ import annotations

import logging
import os
import shutil
import statistics
import tempfile
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from perfbench import speed
from perfbench.common import (
    CorpusTerms,
    Metric,
    Outcome,
    closed_loop,
    window_ops,
    dir_bytes,
    loop_metrics,
    make_corpus,
    pages_schema,
    peak_rss_mb,
    rng,
    setup_metric,
)
from perfbench.trace import traced_windows, within

N_DOCS = 6_144
SEGMENTS = 12
MERGED = 8
EXACT_DUPS = 96  # docs that copy another doc's text verbatim
NEAR_DUPS = 96  # docs that copy another doc's text with a few words replaced
NEAR_EDIT_SHARE = 0.04
OBJECT_STORE_BYTES = 256 << 20
RECALL_FLOOR = 0.9
SAMPLE_QUERIES = 12
STAGES = ("build", "merge", "exact_dedup", "minhash")
STAGES_PER_S = 0.4  # nominal: a 10 s window is one chain
SETUPS = 2  # set-ups per run; setup_s is their median
PROBES_PER_STAGE = 16
WARM_DOCS = 768  # the set-up's warm chain: starts the worker, loads every stage's code

# AF_UNIX socket paths are limited to 107 bytes; Ray nests them ~62
# bytes below its temp dir
RAY_TMP_MAX = 44


def make_dup_corpus(seed: int) -> tuple[pa.Table, list[list[int]], list[tuple[int, int]]]:
    """→ (corpus, exact groups of doc ids, near-duplicate id pairs)."""
    t = make_corpus(seed, N_DOCS)
    r = rng(seed, "dups")
    rows = r.permutation(N_DOCS)
    src_exact, dst_exact = rows[:EXACT_DUPS], rows[EXACT_DUPS : 2 * EXACT_DUPS]
    src_near, dst_near = rows[2 * EXACT_DUPS : 2 * EXACT_DUPS + NEAR_DUPS], rows[-NEAR_DUPS:]
    texts = t["text"].to_pylist()
    for s, d in zip(src_exact, dst_exact):
        texts[d] = texts[s]
    for s, d in zip(src_near, dst_near):
        words = texts[s].split(" ")
        for i in r.choice(len(words), max(1, int(len(words) * NEAR_EDIT_SHARE)), replace=False):
            words[i] = f"nd{r.integers(1 << 30):x}"
        texts[d] = " ".join(words)
    t = t.set_column(t.schema.get_field_index("text"), "text", pa.array(texts, pa.large_string()))
    ids = t["doc_id"].to_numpy()
    exact = [sorted([int(ids[s]), int(ids[d])]) for s, d in zip(src_exact, dst_exact)]
    near = [tuple(sorted((int(ids[s]), int(ids[d])))) for s, d in zip(src_near, dst_near)]
    return t, exact, near


def busy_cpu_s() -> float:
    """Busy time of the CPUs this process may run on, from /proc/stat."""
    mine = {f"cpu{i}" for i in os.sched_getaffinity(0)}
    busy = 0
    with open("/proc/stat") as f:
        for line in f:
            parts = line.split()
            if parts and parts[0] in mine:
                user, nice, system, idle, iowait, irq, softirq = map(int, parts[1:8])
                busy += user + nice + system + irq + softirq
    return busy / os.sysconf("SC_CLK_TCK")


def ray_temp_dir(workdir: str) -> str:
    d = os.path.join(os.path.dirname(workdir), f"ray{os.getpid()}")
    if len(d) > RAY_TMP_MAX:  # a deep checkout: fall back to a short temp dir
        return tempfile.mkdtemp(prefix="tr-ray-", dir="/tmp")
    os.makedirs(d)
    return d


def rewritten_bytes(root: str, merged: str, sources: list[str]) -> int:
    """Bytes the merge wrote: files of the merged segment that are not
    hard links to a source segment's files."""
    seg = os.path.join(root, "segments")
    linked = set()
    for name in sources:
        for dp, _, fs in os.walk(os.path.join(seg, name)):
            linked.update((st.st_dev, st.st_ino) for st in (os.stat(os.path.join(dp, f)) for f in fs))
    total = 0
    for dp, _, fs in os.walk(os.path.join(seg, merged)):
        for f in fs:
            st = os.stat(os.path.join(dp, f))
            total += 0 if (st.st_dev, st.st_ino) in linked else st.st_size
    return total


def live_bytes(root: str, manifest: dict) -> int:
    """Bytes of the live index: the segments the manifest lists and the
    files at the index root, each file once. Replaced segments and merge
    checkpoints that nothing has collected yet are left out."""
    top = [os.path.join(root, f) for f in os.listdir(root)]
    files = sum(os.path.getsize(f) for f in top if os.path.isfile(f))
    return files + dir_bytes(*(os.path.join(root, "segments", s["name"]) for s in manifest["segments"]))


class Chain:
    """Runs the batch chain one stage per op and keeps what the output
    checks need."""

    def __init__(self, pages: str, workdir: str, n_docs: int):
        self.pages = pages
        self.workdir = workdir
        self.n_docs = n_docs
        self.layer: dict[str, list[float]] = {}
        self.cur: dict = {}  # the chain in progress
        self.last: dict = {}  # the last complete chain
        self.runs = 0

    def note(self, name: str, value: float) -> None:
        self.layer.setdefault(name, []).append(value)

    def stage(self, i: int) -> tuple[str, bool, float]:
        kind = STAGES[i % len(STAGES)]
        ok, took = getattr(self, kind)()
        return kind, ok, took

    def build(self) -> tuple[bool, float]:
        import ray.data

        from toshi_ray.pipelines.build import build_index

        self.runs += 1
        root = os.path.join(self.workdir, f"index-{self.runs}")
        pre = os.path.join(self.workdir, f"pre-{self.runs}")
        ds = ray.data.read_parquet(self.pages, override_num_blocks=SEGMENTS)
        c0, t0 = speed.tree_cpu_s(), time.perf_counter()
        manifest = build_index(ds, pages_schema(), root, docs_per_segment=self.n_docs // SEGMENTS)
        wall, cpu = time.perf_counter() - t0, speed.tree_cpu_s() - c0
        task_cpu = manifest["metrics"]["cpu_secs"]
        self.note("build.wall_s", wall)
        self.note("build.task_cpu_s", task_cpu)
        self.note("build.overhead_s", wall - task_cpu)
        shutil.copytree(root, pre, copy_function=os.link)  # the pre-merge view, untimed
        self.cur = {"root": root, "pre": pre, "manifest": manifest}
        return len(manifest["segments"]) == SEGMENTS, cpu

    def merge(self) -> tuple[bool, float]:
        from toshi_ray.pipelines.merge import merge_segments

        root = self.cur["root"]
        sources = [s["name"] for s in self.cur["manifest"]["segments"][:MERGED]]
        busy0, c0, t0 = busy_cpu_s(), speed.tree_cpu_s(), time.perf_counter()
        merged = merge_segments(root, sources)
        wall, cpu = time.perf_counter() - t0, speed.tree_cpu_s() - c0
        self.note("merge.wall_s", wall)
        self.note("merge.machine_cpu_s", busy_cpu_s() - busy0)
        seg = next(s for s in merged["segments"] if s.get("merged_from"))
        self.note("merge.bytes_rewritten", rewritten_bytes(root, seg["name"], sources))
        self.cur["bytes_per_doc"] = live_bytes(root, merged) / self.n_docs
        return len(merged["segments"]) == SEGMENTS - MERGED + 1, cpu

    def exact_dedup(self) -> tuple[bool, float]:
        import ray.data

        from toshi_ray.ops.dedup import exact_dedup

        texts = ray.data.read_parquet(self.pages, columns=["doc_id", "text"])
        c0, t0 = speed.tree_cpu_s(), time.perf_counter()
        self.cur["exact"] = exact_dedup(texts).take_all()
        wall, cpu = time.perf_counter() - t0, speed.tree_cpu_s() - c0
        self.note("dedup.exact_s", wall)
        return bool(self.cur["exact"]), cpu

    def minhash(self) -> tuple[bool, float]:
        import ray.data

        from toshi_ray.ops.dedup import minhash_lsh_pairs

        texts = ray.data.read_parquet(self.pages, columns=["doc_id", "text"])
        c0, t0 = speed.tree_cpu_s(), time.perf_counter()
        pairs = minhash_lsh_pairs(texts).take_all()
        wall, cpu = time.perf_counter() - t0, speed.tree_cpu_s() - c0
        self.note("dedup.minhash_s", wall)
        self.note("dedup.pairs_found", len(pairs))
        # the chain is complete: it replaces the one the checks look at
        for d in (self.last.get("root"), self.last.get("pre")):
            if d:
                shutil.rmtree(d, ignore_errors=True)
        self.last, self.cur = {**self.cur, "pairs": pairs}, {}
        return True, cpu


def check(out: Outcome, chain: Chain, seed: int, corpus: pa.Table,
          exact: list[list[int]], near: list[tuple[int, int]]) -> float:
    """Output checks on the last chain; → near-duplicate recall."""
    from perfbench.query import QueryStream
    from toshi_ray.search import Searcher

    last = chain.last
    terms = CorpusTerms(corpus)
    stream = QueryStream(seed, terms, corpus["text"].to_pylist(), "merge-sample")
    bodies = [stream.of_kind(k)[1] for k in ("term_rare", "term_mid", "phrase", "bool",
                                             "range", "sort", "facet", "term_hot")]
    bodies += [stream.next()[1] for _ in range(SAMPLE_QUERIES - len(bodies))]
    before, after = Searcher(last["pre"], distributed=False), Searcher(last["root"], distributed=False)
    for b in bodies:
        x, y = before.search(b), after.search(b)
        same = [(d["doc"]["doc_id"], round(d["score"], 9)) for d in x["docs"]] == [
            (d["doc"]["doc_id"], round(d["score"], 9)) for d in y["docs"]
        ] and x.get("facets") == y.get("facets")
        out.check(same, f"merged index answers {b['query']} differently")
    before.close()
    after.close()

    groups = {r["doc_id"]: r["n_copies"] for r in last["exact"] if r["n_copies"] > 1}
    for g in exact:
        out.check(groups.get(g[0]) == len(g), f"exact duplicate group {g} not found")
    found = {(min(p["id_a"], p["id_b"]), max(p["id_a"], p["id_b"])) for p in last["pairs"]}
    recall = sum(p in found for p in near) / len(near)
    out.check(recall >= RECALL_FLOOR, f"minhash found {recall:.2f} of the near duplicates")
    return recall


def start_ray(tmp: str) -> None:
    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             object_store_memory=OBJECT_STORE_BYTES, log_to_driver=False,
             logging_level="ERROR", _temp_dir=tmp)
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def run(name: str, seed: int, seconds: float, tracer, workdir: str) -> Outcome:
    import ray

    out = Outcome()
    corpus, exact, near = make_dup_corpus(seed)
    pages = os.path.join(workdir, "pages.parquet")
    pq.write_table(corpus, pages, row_group_size=N_DOCS // SEGMENTS)
    warm_pages = os.path.join(workdir, "warm.parquet")
    pq.write_table(make_corpus(seed, WARM_DOCS, first=N_DOCS), warm_pages,
                   row_group_size=WARM_DOCS // SEGMENTS)
    tmp = ray_temp_dir(workdir)
    try:
        # a set-up is ray.init plus one small chain that starts the
        # worker and loads every stage's code; the last one stays up
        init_s = []

        def set_up(warm: Chain) -> None:
            t0 = time.perf_counter()
            start_ray(tmp)
            init_s.append(time.perf_counter() - t0)
            for k in range(len(STAGES)):
                _, ok, _ = warm.stage(k)
                out.check(ok, f"warm-up {STAGES[k]} failed")

        setup_s, raw_s = [], []
        for i in range(SETUPS):
            if i:
                ray.shutdown()
            warm = Chain(warm_pages, os.path.join(workdir, f"warm-{i}"), WARM_DOCS)
            _, scaled, raw = speed.timed(lambda: set_up(warm), speed.tree_cpu_s)
            setup_s.append(scaled)
            raw_s.append(raw)
            shutil.rmtree(warm.workdir, ignore_errors=True)

        chain = Chain(pages, workdir, N_DOCS)
        n_ops = window_ops(seconds, STAGES_PER_S, len(STAGES))
        if tracer is None:
            loop_metrics(out, closed_loop(chain.stage, n_ops, probes_per_op=PROBES_PER_STAGE))
            out.metrics["setup_s"] = setup_metric(setup_s, raw_s, ": ray.init plus a warm chain")
            out.metrics["index_bytes_per_doc"] = Metric(chain.last["bytes_per_doc"], "B")
            out.metrics["peak_rss_mb"] = Metric(peak_rss_mb(), "MB", "main process")
        else:
            _, traced = traced_windows(out, tracer, chain.stage, n_ops, whole=len(STAGES),
                                       probes_per_op=PROBES_PER_STAGE)
            for k, v in chain.layer.items():
                out.metrics[k] = Metric(float(np.median(v)), "")
            out.metrics["merge.driver_tail_s"] = Metric(
                within(tracer.spans, "merge.merge_segments", {"termbloom.build", "storage.publish"})
                / max(1, traced.attempted // len(STAGES)), "s")
            out.metrics["ray.init_s"] = Metric(statistics.median(init_s), "s")
        recall = check(out, chain, seed, corpus, exact, near)
        if tracer is not None:
            out.metrics["dedup.injected_recall"] = Metric(recall, "ratio")
    finally:
        ray.shutdown()
        shutil.rmtree(tmp, ignore_errors=True)
    return out
