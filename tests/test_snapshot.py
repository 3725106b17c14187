"""One `Searcher` snapshot per manifest version: `refresh` builds it
whole and swaps it in, keeping the readers of unchanged segments, and
a query takes every phase from the one snapshot it holds."""

import json
import os
import shutil
import tempfile
import threading
import time
import weakref

import numpy as np
import pyarrow as pa
import pytest

from toshi_ray import segments
from toshi_ray.api import IndexCatalog
from toshi_ray.pipelines.build import MANIFEST_FILE, build_index, commit, load_manifest
from toshi_ray.pipelines.merge import delete_by_term
from toshi_ray.query import QueryError
from toshi_ray.schema import FieldDef, Schema
from toshi_ray.search import Searcher, SegmentGroupScorer

SCHEMA = [
    {"name": "text", "type": "text",
     "options": {"indexing": {"record": "position", "tokenizer": "default"}, "stored": True}},
]
Q = {"query": {"term": {"text": "common"}}, "limit": 10}


def _catalog(n_docs: int) -> tuple[IndexCatalog, str]:
    """A catalog index of ``n_docs`` one-doc segments; doc i holds "doc{i}"."""
    c = IndexCatalog(tempfile.mkdtemp(prefix="toshi_snap_"))
    c.create_index("ix", SCHEMA)
    for i in range(n_docs):
        c.add_document("ix", {"document": {"text": f"common doc{i}"}})
    return c, c._root("ix")


def test_refresh_between_stats_and_scoring_changes_nothing_the_query_sees(monkeypatch):
    """A refresh that lands after a query's stats phase, before its
    scoring: the query still scores the segments its stats came from,
    and equals a fresh searcher's answer at that manifest version."""
    c, root = _catalog(3)
    want = Searcher(root, distributed=False).search(Q)
    s = Searcher(root, distributed=False)
    real = SegmentGroupScorer.term_dfs
    fired = []

    def term_dfs(self, pairs):
        if not fired:
            fired.append(True)
            c.add_document("ix", {"document": {"text": "common common late"}})
            s.refresh()
        return real(self, pairs)

    monkeypatch.setattr(SegmentGroupScorer, "term_dfs", term_dfs)
    assert s.search(Q) == want
    assert fired and s.n_docs == 4
    assert s.search(Q) == Searcher(root, distributed=False).search(Q)


def test_refused_format_is_refused_on_every_search():
    """A manifest rewritten in an older format at a higher version makes
    every catalog search raise; none serves the old snapshot."""
    c, root = _catalog(1)
    assert c.search("ix", Q)["hits"] == 1  # the catalog now caches a searcher
    path = os.path.join(root, MANIFEST_FILE)
    with open(path) as f:
        manifest = json.load(f)
    manifest.update(format=7, version=manifest["version"] + 1)
    with open(path, "w") as f:
        json.dump(manifest, f)
    for _ in range(3):
        with pytest.raises(QueryError, match="rebuild the index"):
            c.search("ix", Q)


def test_retired_pool_dies_with_its_own_last_query(monkeypatch, free_cpus):
    """Two queries in flight, one on each side of a refresh: the old
    snapshot's scorer actor holds its CPU while the old query runs, and
    frees it as soon as that query ends and drops the snapshot, while
    the new query's actor still runs."""
    c, root = _catalog(1)
    idle = free_cpus.idle
    s = Searcher(root, distributed=True, parallelism=1)
    gates: dict[str, dict] = {}
    real_dispatch = Searcher._dispatch

    def dispatch(groups, method, *args):
        gate = gates.get(threading.current_thread().name)
        if gate is not None and method == "score_topk_many":
            gate["entered"].set()
            assert gate["release"].wait(60)
        return real_dispatch(groups, method, *args)

    monkeypatch.setattr(Searcher, "_dispatch", staticmethod(dispatch))
    hits: dict[str, int] = {}

    def start(name: str) -> threading.Thread:
        gates[name] = {"entered": threading.Event(), "release": threading.Event()}
        t = threading.Thread(name=name, target=lambda: hits.__setitem__(name, s.search(Q)["hits"]))
        t.start()
        assert gates[name]["entered"].wait(60)
        return t

    old = start("old")
    old_snap = weakref.ref(s._snap)
    c.add_document("ix", {"document": {"text": "common late"}})
    s.refresh()
    assert old_snap() is not None  # the old query still holds it
    new = start("new")
    try:
        # both pools hold a CPU: the old one outlived the refresh
        assert free_cpus(lambda n: n == idle - 2) == idle - 2
        gates["old"]["release"].set()
        old.join(60)
        assert not old.is_alive()
        assert old_snap() is None
        assert free_cpus(lambda n: n == idle - 1) == idle - 1
        assert new.is_alive()
    finally:
        gates["old"]["release"].set()
        gates["new"]["release"].set()
        new.join(60)
    assert not new.is_alive()
    assert hits == {"old": 1, "new": 2}
    s.close()
    assert free_cpus(lambda n: n == idle) == idle


def test_catalog_opens_a_reader_only_for_each_new_segment(monkeypatch):
    """N appends, each followed by a search, and a delete: every refresh
    keeps the readers of unchanged segments, and the delete matches on
    the catalog's searcher, so N segments cost N reader opens."""
    opened = []
    real = segments.SegmentReader.__init__

    def init(self, seg_dir):
        opened.append(seg_dir)
        real(self, seg_dir)

    monkeypatch.setattr(segments.SegmentReader, "__init__", init)
    c, _ = _catalog(0)
    for i in range(6):
        c.add_document("ix", {"document": {"text": f"common doc{i}"}})
        assert c.search("ix", Q)["hits"] == i + 1
    assert c.delete_term("ix", {"text": "doc0"}) == {"docs_affected": 1}
    assert c.search("ix", Q)["hits"] == 5
    assert len(opened) == len(set(opened)) == 6


def test_overwrite_rebuild_serves_the_new_text(tmp_path):
    """An overwrite rebuild reuses the segment names of the same doc
    layout for new content: a refreshed searcher must not keep the old
    readers under those names."""
    import ray

    root = str(tmp_path / "ix")
    schema = Schema.build(FieldDef("doc_id", "u64", fast=True), FieldDef("text", "text"))

    def build(words: str) -> list[str]:
        tbl = pa.table({"doc_id": pa.array(range(4), pa.uint64()),
                        "text": [f"{words} x{i}" for i in range(4)]})
        build_index(ray.data.from_arrow(tbl), schema, root, docs_per_segment=2, overwrite=True)
        return [seg["name"] for seg in load_manifest(root)["segments"]]

    names = build("alpha")
    s = Searcher(root, distributed=False)
    assert s.count({"query": {"term": {"text": "alpha"}}}) == 4  # readers loaded
    assert build("beta gamma") == names
    s.refresh()
    assert s.count({"query": {"term": {"text": "alpha"}}}) == 0
    docs = s.search({"query": {"term": {"text": "beta"}}, "limit": 10})["docs"]
    assert sorted(d["doc"]["text"] for d in docs) == [f"beta gamma x{i}" for i in range(4)]


def _build_text(root: str, words: str, overwrite: bool = True) -> dict:
    """4 docs as 2 segments, doc i holds "<words> x<i>"."""
    import ray

    schema = Schema.build(FieldDef("doc_id", "u64", fast=True), FieldDef("text", "text"))
    tbl = pa.table({"doc_id": pa.array(range(4), pa.uint64()),
                    "text": [f"{words} x{i}" for i in range(4)]})
    return build_index(ray.data.from_arrow(tbl), schema, root, docs_per_segment=2,
                       overwrite=overwrite)


def test_catalog_search_after_an_overwrite_rebuild_serves_the_new_text():
    """An overwrite rebuild continues the manifest's version sequence, so
    a catalog's cached searcher sees it; restarting at version 1 left it
    reading the rewritten files of its old snapshot."""
    c = IndexCatalog(tempfile.mkdtemp(prefix="toshi_snap_"))
    root = os.path.join(c.base_path, "ix")
    v1 = _build_text(root, "alpha")["version"]
    assert c.search("ix", {"query": {"term": {"text": "alpha"}}})["hits"] == 4
    assert _build_text(root, "beta gamma")["version"] > v1
    assert c.search("ix", {"query": {"term": {"text": "alpha"}}})["hits"] == 0
    docs = c.search("ix", {"query": {"term": {"text": "beta"}}, "limit": 10})["docs"]
    assert sorted(d["doc"]["text"] for d in docs) == [f"beta gamma x{i}" for i in range(4)]


def test_build_resumes_an_overwrite_that_did_not_publish(tmp_path):
    """A crash after an overwrite's empty commit, before the old segments
    are removed, leaves a manifest marked as rebuilding: a rerun without
    overwrite rebuilds from scratch, neither returning the empty index
    nor republishing the old segments that share the new names."""
    root = str(tmp_path / "ix")
    _build_text(root, "alpha")
    commit(root, lambda _: {"segments": [], "rebuilding": True})
    m = _build_text(root, "beta", overwrite=False)
    assert "rebuilding" not in m and len(m["segments"]) == 2
    s = Searcher(root, distributed=False)
    assert s.count({"query": {"term": {"text": "beta"}}}) == 4
    assert s.count({"query": {"term": {"text": "alpha"}}}) == 0


def test_index_made_again_with_the_same_layout_serves_the_new_text():
    """An index removed and created again at the same path, with text of
    the same shape: its segments' names, doc ids, token totals and term
    counts all equal the old ones', and a refreshed searcher must still
    read the new segments (the old bloom would reject "beta")."""
    c, root = _catalog(2)
    s = Searcher(root, distributed=False)
    assert s.search(Q)["hits"] == 2  # readers loaded, blooms read
    shutil.rmtree(root)
    c.create_index("ix", SCHEMA)
    for i in range(2):
        c.add_document("ix", {"document": {"text": f"beta doc{i}"}})
    s.refresh()
    assert s.count({"query": {"term": {"text": "beta"}}}) == 2  # before any dictionary loads
    assert s.search(Q)["hits"] == 0
    docs = s.search({"query": {"term": {"text": "beta"}}, "limit": 10})["docs"]
    assert sorted(d["doc"]["text"] for d in docs) == ["beta doc0", "beta doc1"]


def test_delete_on_a_stale_searcher_matches_the_latest_commit():
    """A delete through a searcher opened before later commits: it
    tombstones a doc added since, and does not count again a doc that a
    delete through another searcher already removed."""
    c, root = _catalog(1)
    s = Searcher(root, distributed=False)
    other = Searcher(root, distributed=False)
    c.add_document("ix", {"document": {"text": "common late"}})
    assert delete_by_term(s, "text", "late") == 1
    assert delete_by_term(other, "text", "late") == 0
    assert Searcher(root, distributed=False).search(Q)["hits"] == 1


def test_query_after_close_keeps_the_pool_it_builds():
    """close() reaps the pool; a later query builds one, and it serves
    every following query until the next refresh or close."""
    c, root = _catalog(2)
    s = Searcher(root, distributed=False)
    assert s.search(Q)["hits"] == 2
    s.close()
    assert s._snap.pool is None
    assert s.search(Q)["hits"] == 2
    pool = s._snap.pool
    assert pool is not None
    assert s.search(Q)["hits"] == 2
    assert s._snap.pool is pool


def test_queries_racing_refreshes_build_one_pool_per_snapshot(monkeypatch):
    """Eight query threads race a thread that commits and refreshes,
    with a short switch interval: no snapshot builds its pool twice, and
    every query answers from one snapshot (the docs of the manifest
    version its hit count names, each once), never from an older one
    than its thread saw before."""
    import sys

    c, root = _catalog(1)
    s = Searcher(root, distributed=False)
    built = []  # every snapshot a pool was built for, kept alive so ids stay unique
    real_build = Searcher._build_pool

    def build(self, snap):
        built.append(snap)
        return real_build(self, snap)

    monkeypatch.setattr(Searcher, "_build_pool", build)
    body = {"query": {"term": {"text": "common"}}, "limit": 100}
    stop = threading.Event()
    seen: dict[int, list[int]] = {}
    errors = []

    def query(i: int) -> None:
        try:
            while not stop.is_set():
                r = s.search(body)
                texts = {d["doc"]["text"] for d in r["docs"]}
                assert texts == {f"common doc{j}" for j in range(r["hits"])}
                seen.setdefault(i, []).append(r["hits"])
        except Exception as e:  # noqa: BLE001 — reported by the assert below
            errors.append(e)

    def write() -> None:
        try:
            for i in range(1, 13):
                c.add_document("ix", {"document": {"text": f"common doc{i}"}})
                s.refresh()
        except Exception as e:  # noqa: BLE001 — reported by the assert below
            errors.append(e)
        finally:
            stop.set()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=query, args=(i,)) for i in range(8)]
        threads.append(threading.Thread(target=write))
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        stop.set()
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len({id(snap) for snap in built}) == len(built)
    assert all(hits == sorted(hits) and 1 <= hits[0] and hits[-1] <= 13
               for hits in seen.values()) and seen
    assert s.search(body)["hits"] == 13


def test_auto_refresh_records_a_failed_refresh(caplog):
    """A commit naming a delete file that is not on disk: the ticker's
    refresh fails, the failure is stored and logged, and the searcher
    keeps serving the snapshot it had."""
    c, root = _catalog(1)
    s = Searcher(root, distributed=False)
    s.start_auto_refresh(every_s=0.05)
    try:
        commit(root, lambda m: {**m, "tombstones": ["del-missing.parquet"]})
        deadline = time.time() + 10
        while time.time() < deadline and s.last_refresh_error is None:
            time.sleep(0.05)
    finally:
        s.stop_auto_refresh()
    assert s.last_refresh_error is not None
    assert any("auto-refresh failed" in r.getMessage() for r in caplog.records)
    assert s.search(Q)["hits"] == 1


def test_concurrent_docvalues_misses_add_the_column_once(tmp_path, monkeypatch):
    """Two threads miss the same docvalues column at once and both read
    it: the reader's cache must still hold it once, or every later
    read of the column raises."""
    schema = Schema.build(FieldDef("doc_id", "u64", fast=True), FieldDef("n", "u64", fast=True),
                          FieldDef("text", "text"))
    batch = pa.table({"doc_id": pa.array(range(8), pa.uint64()),
                      "n": pa.array(range(8), pa.uint64()), "text": ["a"] * 8})
    meta = segments.write_segment(str(tmp_path), *segments.build_segment_tables(batch, schema))
    reader = segments.SegmentReader(os.path.join(tmp_path, meta["name"]))
    reader.doc_ids()  # a cache exists, so each miss adds to it
    barrier = threading.Barrier(2, timeout=30)
    real = segments.pq.read_table

    def read_table(*args, **kwargs):
        t = real(*args, **kwargs)
        barrier.wait()  # both threads have read before either adds
        return t

    monkeypatch.setattr(segments.pq, "read_table", read_table)
    errors = []

    def miss():
        try:
            reader.docvalues(["n"])
        except Exception as e:  # noqa: BLE001 — reported by the assert below
            errors.append(e)

    threads = [threading.Thread(target=miss) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert not any(t.is_alive() for t in threads)
    monkeypatch.setattr(segments.pq, "read_table", real)
    assert errors == []
    assert reader.docvalues(["n"])["n"].to_pylist() == list(range(8))
    assert reader.docvalues(["doc_id", "n"]).num_columns == 2


def _reader_of(c: IndexCatalog, write_id: str) -> segments.SegmentReader:
    """The catalog searcher's current reader of one write."""
    (r,) = [r for r in c._searchers["ix"]._snap.readers.values()
            if r.meta["write_id"] == write_id]
    return r


def test_a_commit_hands_its_searcher_the_segment_it_wrote(monkeypatch):
    """After an append, the next search opens the new segment with the
    tables the catalog built: neither its postings nor its docvalues
    are read back, and the answers equal a fresh searcher's."""
    c, root = _catalog(2)
    assert c.search("ix", Q)["hits"] == 2
    reads: list[str] = []
    real = segments.pq.read_table

    def spy(path, *a, **kw):
        reads.append(str(path))
        return real(path, *a, **kw)

    monkeypatch.setattr(segments.pq, "read_table", spy)
    seg = c._append_docs("ix", [{"text": "common fresh"}])["segments"][-1]
    got = c.search("ix", {"query": {"term": {"text": "fresh"}}, "limit": 10})
    assert got["hits"] == 1 and c.search("ix", Q)["hits"] == 3
    assert not [p for p in reads if seg["name"] in p]
    r = _reader_of(c, seg["write_id"])
    assert r.postings_loads == 0 and r._dv is not None
    monkeypatch.setattr(segments.pq, "read_table", real)
    assert got == Searcher(root, distributed=False).search(
        {"query": {"term": {"text": "fresh"}}, "limit": 10})
    assert "ix" not in c._primed


def test_only_the_latest_write_is_held_for_priming():
    """A write-only client pins at most one write's tables per index,
    and the first search after many appends is still right."""
    c, _ = _catalog(1)
    assert c.search("ix", Q)["hits"] == 1
    ids = []
    for i in range(20):
        ids.append(c._append_docs("ix", [{"text": f"common more{i}"}])["segments"][-1]["write_id"])
        assert list(c._primed) == ["ix"] and c._primed["ix"][0] == ids[-1]
    assert c.search("ix", Q)["hits"] == 10  # the limit
    assert c._searchers["ix"].count(Q) == 21
    assert c.search("ix", {"query": {"term": {"text": "more0"}}})["hits"] == 1
    assert c.search("ix", {"query": {"term": {"text": "more19"}}})["hits"] == 1
    assert c._primed == {}
    assert _reader_of(c, ids[-1]).postings_loads == 0
    assert _reader_of(c, ids[0]).postings_loads == 1


def test_a_refresh_holds_exactly_the_listed_deletes():
    """A refresh after two deletes holds both; after a full merge
    unlists the delete files it holds only what the new list names. No
    deleted doc comes back either way."""
    from toshi_ray.pipelines.merge import merge_segments

    c, root = _catalog(6)
    s = Searcher(root, distributed=False)
    for i in (0, 1):
        assert c.delete_term("ix", {"text": f"doc{i}"}) == {"docs_affected": 1}
        s.refresh()
    both = s.tombstones
    assert both.size == 2 and np.array_equal(both, np.unique(both))
    assert s.count(Q) == 4
    for i in (0, 1):
        assert s.count({"query": {"term": {"text": f"doc{i}"}}}) == 0

    merge_segments(root)
    assert load_manifest(root).get("tombstones", []) == []
    s.refresh()
    assert s.tombstones.size == 0
    assert c.delete_term("ix", {"text": "doc2"}) == {"docs_affected": 1}
    s.refresh()
    assert s.tombstones.size == 1 and s.count(Q) == 3
    for i in (0, 1, 2):
        assert s.count({"query": {"term": {"text": f"doc{i}"}}}) == 0
        assert c.search("ix", {"query": {"term": {"text": f"doc{i}"}}})["hits"] == 0
