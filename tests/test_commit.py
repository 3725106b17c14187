"""The one commit path (`pipelines.build.commit`): every manifest writer
— catalog append/flush/create, delete, merge, gc — publishes under the
index's writer lock from a re-read of the latest manifest, so no writer
can drop another's acknowledged commit."""

import json
import os
import tempfile
import threading
import time

import pytest

from toshi_ray.api import IndexCatalog
from toshi_ray.pipelines.build import commit, load_manifest
from toshi_ray.pipelines.merge import gc_segments, merge_segments
from toshi_ray.query import QueryError
from toshi_ray.search import Searcher

SCHEMA = [
    {"name": "text", "type": "text",
     "options": {"indexing": {"record": "position", "tokenizer": "default"}, "stored": True}},
]


def _catalog(n_docs: int = 3) -> tuple[IndexCatalog, str]:
    """A catalog index of ``n_docs`` one-doc segments; doc i holds "doc{i}"."""
    c = IndexCatalog(tempfile.mkdtemp(prefix="toshi_commit_"))
    c.create_index("ix", SCHEMA)
    for i in range(n_docs):
        c.add_document("ix", {"document": {"text": f"common doc{i}"}})
    return c, c._root("ix")


def _hits(c: IndexCatalog, token: str) -> int:
    return c.search("ix", {"query": {"term": {"text": token}}})["hits"]


@pytest.fixture()
def mid_merge(monkeypatch):
    """Run a callable once, inside the next merge, between its manifest
    read and its publish (merge_segments imports read_parquet_sized at
    call time, before the shuffle)."""
    from toshi_ray.ops import _read

    real = _read.read_parquet_sized
    pending = []

    def hooked(*args, **kwargs):
        while pending:
            pending.pop()()
        return real(*args, **kwargs)

    monkeypatch.setattr(_read, "read_parquet_sized", hooked)
    return pending.append


def test_append_committed_mid_merge_survives_the_merge(mid_merge):
    c, root = _catalog()
    mid_merge(lambda: c.add_document("ix", {"document": {"text": "common late"}}))
    m = merge_segments(root)
    assert _hits(c, "late") == 1
    assert _hits(c, "common") == 4
    assert sum(s["num_docs"] for s in m["segments"]) == 4
    assert len(m["segments"]) == 2  # the merged segment + the late append


def test_merge_whose_source_was_consumed_publishes_nothing(mid_merge):
    c, root = _catalog()
    names = [s["name"] for s in load_manifest(root)["segments"]]
    mid_merge(lambda: merge_segments(root, names[1:]))  # takes names[1] first
    with pytest.raises(RuntimeError, match="left the manifest"):
        merge_segments(root, names[:2])
    m = load_manifest(root)
    assert [s["name"] for s in m["segments"]][0] == names[0]
    assert m["segments"][1]["merged_from"] == names[1:]
    assert len(m["segments"]) == 2
    assert _hits(c, "common") == 3
    seg_dir = os.path.join(root, "segments")
    assert not [d for d in os.listdir(seg_dir) if d.startswith(".tmp")]


def test_auto_refresh_sees_a_delete_with_no_other_commit():
    c, root = _catalog()
    s = Searcher(root, distributed=False)
    assert s.count({"query": {"term": {"text": "doc1"}}}) == 1
    s.start_auto_refresh(0.1)
    try:
        assert c.delete_term("ix", {"text": "doc1"})["docs_affected"] == 1
        deadline = time.time() + 10
        while time.time() < deadline and s.count({"query": {"term": {"text": "doc1"}}}):
            time.sleep(0.1)
        assert s.count({"query": {"term": {"text": "doc1"}}}) == 0
        assert s.count(None) == 2
    finally:
        s.stop_auto_refresh()


def test_delete_committed_mid_merge_stays_deleted(mid_merge):
    c, root = _catalog()
    mid_merge(lambda: c.delete_term("ix", {"text": "doc1"}))
    m = merge_segments(root)
    assert m["tombstones"], "the rebase dropped the delete's tombstone list"
    assert _hits(c, "doc1") == 0
    assert _hits(c, "common") == 2


def test_full_merge_unlists_the_delete_files_it_applied():
    c, root = _catalog()
    c.delete_term("ix", {"text": "doc1"})
    assert load_manifest(root)["tombstones"]
    m = merge_segments(root)
    assert m["tombstones"] == []
    assert _hits(c, "doc1") == 0
    assert _hits(c, "common") == 2
    s = Searcher(root, distributed=False)
    assert s.tombstones.size == 0
    assert s.count({"query": {"term": {"text": "doc1"}}}) == 0
    s.close()


def test_partial_merge_keeps_the_delete_files_listed():
    c, root = _catalog()
    c.delete_term("ix", {"text": "doc1"})
    before = load_manifest(root)
    m = merge_segments(root, [s["name"] for s in before["segments"]][:2])
    assert m["tombstones"] == before["tombstones"]
    assert _hits(c, "doc1") == 0
    assert _hits(c, "common") == 2


def test_append_after_the_top_doc_is_deleted_and_merged_is_visible():
    """A merge drops deleted docs physically, but a delete file can stay
    listed (a partial merge keeps it, and one committed mid-merge outlives
    the merge), so doc-id allocation must not reissue a deleted doc's id."""
    c, root = _catalog()
    c.delete_term("ix", {"text": "doc2"})
    merge_segments(root)
    c.add_document("ix", {"document": {"text": "common fresh"}})
    assert _hits(c, "fresh") == 1
    assert _hits(c, "common") == 3


def test_appends_racing_merge_and_gc_keep_every_acknowledged_doc(mid_merge):
    c, root = _catalog(2)
    acked: list[str] = []
    errors: list[Exception] = []
    stop = threading.Event()

    def await_an_append():
        """Hold the merge between its read and publish until a writer
        acknowledges one more doc."""
        n, deadline = len(acked), time.time() + 10
        while len(acked) == n and time.time() < deadline:
            time.sleep(0.01)
        assert len(acked) > n, "no append landed mid-merge"

    def writer(t: int):
        i = 0
        while not stop.is_set():
            tok = f"w{t}n{i}"
            try:
                c.add_document("ix", {"document": {"text": f"common {tok}"}})
            except Exception as e:  # surfaced by the assertion below
                errors.append(e)
                return
            acked.append(tok)
            i += 1
            time.sleep(0.2)

    threads = [threading.Thread(target=writer, args=(t,)) for t in range(2)]
    for t in threads:
        t.start()
    try:
        for _ in range(2):
            mid_merge(await_an_append)
            merge_segments(root)
            gc_segments(root)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    m = load_manifest(root)
    for s in m["segments"]:
        assert os.path.isdir(os.path.join(root, "segments", s["name"])), s["name"]
    assert c.index_summary("ix")["summaries"]["num_docs"] == 2 + len(acked)
    docs = c.search("ix", {"query": {"term": {"text": "common"}}, "limit": 10_000})["docs"]
    found = sorted(d["doc"]["text"].split()[1] for d in docs)
    assert found == sorted(["doc0", "doc1", *acked])


def _bulk_catalog(texts: list[str]) -> tuple[IndexCatalog, str, list[str]]:
    """A catalog index of one one-doc segment per text, each appended
    through ``bulk_insert``; returns the segment names too."""
    c = IndexCatalog(tempfile.mkdtemp(prefix="toshi_commit_"))
    c.create_index("ix", SCHEMA)
    for t in texts:
        c.bulk_insert("ix", json.dumps({"text": t}) + "\n")
    root = c._root("ix")
    return c, root, [s["name"] for s in load_manifest(root)["segments"]]


@pytest.mark.parametrize("kept", [2, 0])
def test_partial_merge_of_fully_deleted_segments_publishes_no_segment(kept):
    """Merging two fully deleted one-doc segments publishes no segment.
    With ``kept=0`` they held the highest doc ids, and their delete file
    stays listed (a partial merge): an append that reissued one of those
    ids would be tombstoned on arrival."""
    texts = ["common gone"] * 3
    texts[kept] = "common kept"
    c, root, names = _bulk_catalog(texts)
    c.delete_term("ix", {"text": "gone"})
    before = load_manifest(root)
    gone = [n for i, n in enumerate(names) if i != kept]
    m = merge_segments(root, gone)
    assert [s["name"] for s in m["segments"]] == [names[kept]]
    assert set(gone) <= set(m["garbage"])
    assert m["tombstones"] == before["tombstones"]  # a partial merge keeps them
    assert m["version"] == before["version"] + 1
    assert m["max_doc_id"] == max(s["max_doc_id"] for s in before["segments"]
                                  if s["name"] in gone)
    assert not [d for d in os.listdir(os.path.join(root, "segments")) if d.startswith(".tmp")]
    gc_segments(root)
    assert _hits(c, "common") == 1
    assert _hits(c, "kept") == 1
    c.bulk_insert("ix", json.dumps({"text": "common fresh"}) + "\n")
    assert _hits(c, "fresh") == 1
    merge_segments(root)  # a full merge applies and unlists the delete file
    c.bulk_insert("ix", json.dumps({"text": "common later"}) + "\n")
    assert _hits(c, "later") == 1
    assert _hits(c, "common") == 3


def test_catalog_search_sees_a_merge_and_gc_run_outside_it():
    c, root, names = _bulk_catalog(["common one", "common two"])
    assert _hits(c, "common") == 2  # the catalog now caches a searcher
    merge_segments(root, names)
    gc_segments(root)
    assert not any(os.path.isdir(os.path.join(root, "segments", n)) for n in names)
    assert _hits(c, "common") == 2
    docs = c.search("ix", {"query": {"term": {"text": "two"}}})["docs"]
    assert [d["doc"]["text"] for d in docs] == ["common two"]


def test_gc_reclaims_checkpoint_dirs_without_sources_but_not_tmp_ones():
    """A merge publishes its checkpoint dir with `sources.json` already
    inside, so gc reclaims any checkpoint dir without one, and skips the
    `.tmp-` dirs a merge is still assembling."""
    c, root = _catalog(2)
    merge_segments(root)
    ckpt = os.path.join(root, ".merge-ckpt")
    (key,) = os.listdir(ckpt)
    assert os.path.exists(os.path.join(ckpt, key, "sources.json"))
    for d in ("stray", ".tmp-stray-0123abcd"):
        os.makedirs(os.path.join(ckpt, d))
        open(os.path.join(ckpt, d, "part-00000.parquet"), "wb").close()
    gc_segments(root)
    assert os.listdir(ckpt) == [".tmp-stray-0123abcd"]
    assert _hits(c, "common") == 2


def test_commit_inside_a_mutate_raises_at_once():
    c, root = _catalog(1)
    v = load_manifest(root)["version"]
    out: list = []

    def nested():
        try:
            commit(root, lambda m: commit(root, lambda inner: inner))
        except RuntimeError as e:
            out.append(e)

    t = threading.Thread(target=nested, daemon=True)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive(), "nested commit deadlocked"
    assert out and "inside a commit mutate" in str(out[0])
    assert load_manifest(root)["version"] == v
    assert c.flush("ix")["opstamp"] == v + 1  # the lock was released


def test_racing_creates_give_one_winner():
    c = IndexCatalog(tempfile.mkdtemp(prefix="toshi_create_race_"))
    barrier = threading.Barrier(2)
    results: list = []

    def create():
        barrier.wait()
        try:
            results.append(c.create_index("ix", SCHEMA))
        except QueryError as e:
            results.append(e)

    threads = [threading.Thread(target=create) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert sum(r == {"created": "ix"} for r in results) == 1
    errs = [r for r in results if isinstance(r, QueryError)]
    assert len(errs) == 1 and "already exists" in str(errs[0])
    assert load_manifest(c._root("ix"))["version"] == 1
