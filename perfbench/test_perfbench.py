"""Tests of the benchmark's own code. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import batch, child, ingest, query, run, speed
from perfbench.common import (
    CorpusTerms,
    closed_loop,
    dir_bytes,
    make_corpus,
    tail_percentile,
    window_ops,
)
from perfbench.trace import Tracer, self_times, totals, within

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
DECLARED = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
# the rare-term band holds no term in a corpus of a few hundred docs
TINY_RARE = (0.001, 0.004)


def _queries(seed: int, n: int = 40) -> list:
    corpus = make_corpus(seed, 2048)
    stream = query.QueryStream(seed, CorpusTerms(corpus), corpus["text"].to_pylist(), "queries")
    return [stream.next() for _ in range(n)]


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert make_corpus(7, 256).equals(make_corpus(7, 256))
    assert not make_corpus(7, 256)["text"].equals(make_corpus(8, 256)["text"])
    assert _queries(7) == _queries(7)
    assert _queries(7) != _queries(8)
    assert ingest.Ingest(None, 7).ndjson(3) == ingest.Ingest(None, 7).ndjson(3)
    assert ingest.Ingest(None, 7).ndjson(3) != ingest.Ingest(None, 8).ndjson(3)
    a, b = batch.make_dup_corpus(7), batch.make_dup_corpus(7)
    assert a[0].equals(b[0]) and a[1:] == b[1:]
    assert batch.make_dup_corpus(8)[1] != a[1]


def test_query_stream_keeps_the_mix():
    deck = sum(query.MIX.values())
    kinds = [k for k, _ in _queries(3, 2 * deck)]
    assert {k: kinds.count(k) for k in query.MIX} == {k: 2 * w for k, w in query.MIX.items()}


def test_tail_percentile_rule():
    xs = [float(i) for i in range(1, 101)]
    assert tail_percentile(xs) == (90.0, 90.0, 100)  # 10 samples above 90
    assert tail_percentile(xs[:11]) == (100 / 11, 1.0, 11)
    assert tail_percentile(xs[:10]) == (100.0, 10.0, 10)  # none qualifies: the max
    assert tail_percentile(list(reversed(xs)))[1] == 90.0


def test_window_is_whole_units_of_work():
    assert window_ops(10, 19.2, 16) == 192
    assert window_ops(10, 3.2, 16) == 32
    assert window_ops(10, 0.1) == 1
    assert window_ops(0.1, 3.2, 16) == 16  # never empty


def test_a_raising_op_counts_as_failed_and_misses_the_tail():
    def op(i):
        if i == 1:
            raise RuntimeError("boom")
        return "q", True

    loop = closed_loop(op, 3)
    assert (loop.attempted, loop.failed) == (3, 1)
    assert loop.op_ms[1] == float("inf")


def test_ops_are_scaled_by_the_probes_around_them():
    groups = [[1.0], [1.0], [2.0], [2.0], [2.0]]
    assert speed.around(groups, 0, want=2) == 1.0  # the probes just before and after
    assert speed.around(groups, 3, want=2) == 2.0
    assert speed.around(groups, 1, want=4) == 1.5  # widened to groups 0..3
    assert speed.around([[3.0, 1.0, 2.0]], 0) == 2.0  # fewer than wanted: all of them
    assert speed.scale(0.2, 2 * speed.REFERENCE_S) == pytest.approx(0.1)


def test_tree_cpu_counts_a_child_process():
    before = speed.tree_cpu_s()
    child = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        time.sleep(0.5)
        assert speed.tree_cpu_s() - before >= 0.2
    finally:
        child.kill()
        child.wait()


def test_hard_linked_files_count_once(tmp_path):
    a, b = tmp_path / "segments" / "a", tmp_path / "segments" / "b"
    a.mkdir(parents=True)
    b.mkdir()
    (a / "f").write_bytes(b"x" * 100)
    (a / "g").write_bytes(b"y" * 10)
    os.link(a / "f", b / "f")
    assert dir_bytes(str(tmp_path)) == 110
    assert dir_bytes(str(a), str(b)) == 110
    # the merge wrote nothing of b: its one file links to a source's
    assert batch.rewritten_bytes(str(tmp_path), "b", ["a"]) == 0
    (b / "h").write_bytes(b"z" * 7)
    assert batch.rewritten_bytes(str(tmp_path), "b", ["a"]) == 7


def test_self_time_on_a_hand_built_tree():
    # root 0..10 holds a 1..4 and b 3..6 (overlapping), a holds c 2..3
    spans = [
        ["root", 0.0, 10.0, -1, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["c", 2.0, 3.0, 1, 1],
        ["b", 3.0, 6.0, 0, 1],
        ["a", 7.0, 8.0, 0, 1],
    ]
    assert self_times(spans) == [4.0, 2.0, 1.0, 3.0, 1.0]
    t = totals(spans)
    assert t["a"] == {"calls": 2, "self_s": 3.0, "incl_s": 4.0}
    assert within(spans, "root", {"c", "b"}) == 4.0
    assert within(spans, "a", {"c"}) == 1.0


def test_tracer_wraps_and_restores_library_functions(tmp_path):
    import toshi_ray.api
    from perfbench.common import build_local_index
    from toshi_ray import segments

    orig = segments.build_segment_tables
    tracer = Tracer()
    tracer.instrument()
    try:
        # a name another module imported is rebound too
        assert toshi_ray.api.build_segment_tables is not orig
        build_local_index(str(tmp_path / "idx"), make_corpus(1, 64), 32)
    finally:
        tracer.restore()
    assert segments.build_segment_tables is orig
    assert toshi_ray.api.build_segment_tables is orig
    names = {s[0] for s in tracer.spans}
    assert {"segments.build_tables", "segments.write", "termbloom.build", "storage.publish"} <= names
    assert tracer.counters["write.docs"] == 64


@pytest.fixture
def workdir(tmp_path):
    d = tmp_path / "work"
    d.mkdir()
    return str(d)


@pytest.mark.parametrize("traced", [False, True])
def test_query_smoke(monkeypatch, workdir, traced):
    monkeypatch.setattr(query, "N_DOCS", 1024)
    monkeypatch.setattr(query, "RARE", TINY_RARE)
    monkeypatch.setattr(query, "SEGMENT_DOCS", 256)
    out = query.run("query_merged", 5, 0.5, Tracer() if traced else None, workdir)
    assert out.correct and out.attempted > 0, out.problems
    want = "search.fetch_ms" if traced else "op_p50_cpu_ms"
    assert out.metrics[want].value > 0
    assert set(out.metrics) <= DECLARED


def test_query_check_catches_a_wrong_answer(monkeypatch, workdir):
    class Wrong:
        def search(self, body):
            return {"hits": 1, "docs": [{"score": 1.0, "doc": {"doc_id": 0}}], "facets": {}}

    monkeypatch.setattr(query, "RARE", TINY_RARE)
    corpus = make_corpus(5, 512)
    terms = CorpusTerms(corpus)
    texts = corpus["text"].to_pylist()
    stream = query.QueryStream(5, terms, texts, "queries")
    out = query.Outcome()
    query.check_sample(out, Wrong(), [stream.next() for _ in range(32)], 5, terms, texts)
    assert not out.correct


def test_ingest_smoke(monkeypatch, workdir):
    monkeypatch.setattr(ingest, "BATCH_DOCS", 8)
    monkeypatch.setattr(ingest, "DELETE_EVERY", 2)
    monkeypatch.setattr(ingest, "EPOCH", 4)
    out = ingest.run("ingest_visible", 5, 0.5, None, workdir)
    assert out.correct and out.attempted > 0, out.problems
    assert out.metrics["index_bytes_per_doc"].value > 0
    assert set(out.metrics) <= DECLARED


def test_batch_smoke(monkeypatch, workdir):
    for k, v in dict(N_DOCS=768, SEGMENTS=6, MERGED=4, EXACT_DUPS=8, NEAR_DUPS=8,
                     SETUPS=2, WARM_DOCS=96).items():
        monkeypatch.setattr(batch, k, v)
    out = batch.run("batch_pipelines", 5, 0.1, None, workdir)
    assert out.correct and out.attempted == len(batch.STAGES), out.problems
    assert set(out.metrics) <= DECLARED


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(child.MODULES)


def test_fails_without_the_library(tmp_path):
    """In a directory holding only the benchmark, the run exits non-zero
    and prints no result."""
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest_visible", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert p.returncode != 0
    assert "correct" not in p.stdout


def test_watchdog_kills_an_overrunning_run(capsys):
    args = run.parse_args(["--workload", "ingest_visible", "--seed", "1", "--seconds", "10"])
    code, last = run.run_child(ROOT, "ingest_visible", args, deadline_s=1.0)
    assert code == 124 and last == ""
    assert not any(d.startswith("ingest_visible-1-") for d in os.listdir(os.path.join(ROOT, ".bench_tmp")))
    assert "process group killed" in capsys.readouterr().err
