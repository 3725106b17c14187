"""Catalog/handler surface tests — FIXTURES.md §F3 (bulk + rollback) and
the create → add → search lifecycle (§F4)."""

import tempfile

import pytest

from toshi_ray.api import IndexCatalog
from toshi_ray.query import QueryError

F2_SCHEMA = [
    {"name": "test_text", "type": "text",
     "options": {"indexing": {"record": "position", "tokenizer": "default"}, "stored": True}},
    {"name": "test_i64", "type": "i64", "options": {"indexed": True, "stored": True, "fast": True}},
    {"name": "test_u64", "type": "u64", "options": {"indexed": True, "stored": True, "fast": True}},
    {"name": "test_unindex", "type": "text", "options": {"stored": True}},
    {"name": "test_facet", "type": "facet", "options": {"stored": True}},
]

F2_DOCS = [
    {"test_text": "Test Document 1", "test_i64": 2014, "test_u64": 10, "test_unindex": "no", "test_facet": "/cat/cat2"},
    {"test_text": "Test Dockument 2", "test_i64": -2015, "test_u64": 11, "test_unindex": "yes", "test_facet": "/cat/cat2"},
    {"test_text": "Test Duckiment 3", "test_i64": 2016, "test_u64": 12, "test_unindex": "noo", "test_facet": "/cat/cat3"},
    {"test_text": "Test Document 4", "test_i64": -2017, "test_u64": 13, "test_unindex": "yess", "test_facet": "/cat/cat4"},
    {"test_text": "Test Document 5", "test_i64": 2018, "test_u64": 14, "test_unindex": "nooo", "test_facet": "/dog/cat2"},
]

BULK_OK = "\n".join(
    [
        '{"test_text": "asdf1234", "test_i64": 123, "test_u64": 321, "test_unindex": "asdf", "test_facet": "/cat/cat4"}',
        '{"test_text": "asdf5678", "test_i64": 456, "test_u64": 678, "test_unindex": "asdf", "test_facet": "/cat/cat4"}',
        '{"test_text": "asdf9012", "test_i64": -12, "test_u64": 901, "test_unindex": "asdf", "test_facet": "/cat/cat4"}',
    ]
)
BULK_BAD = BULK_OK.replace('"test_u64": 901', '"test_u64": -9')


@pytest.fixture()
def catalog(ray_session):
    c = IndexCatalog(tempfile.mkdtemp(prefix="toshi_cat_"))
    c.create_index("test_index", F2_SCHEMA)
    for d in F2_DOCS:
        c.add_document("test_index", {"document": d})
    return c


def test_create_list_summary(catalog):
    assert catalog.list_indexes() == ["test_index"]
    with pytest.raises(QueryError):
        catalog.create_index("test_index", F2_SCHEMA)  # already exists
    s = catalog.index_summary("test_index", include_sizes=True)
    assert s["summaries"]["num_docs"] == 5
    assert all(v > 0 for v in s["summaries"]["segment_sizes"].values())


def test_all_docs_and_search(catalog):
    assert catalog.all_docs("test_index")["hits"] == 5
    r = catalog.search("test_index", {"query": {"term": {"test_text": "document"}}})
    assert r["hits"] == 3


def test_bulk_then_flush_total_8(catalog):  # bulk.rs:149-172
    assert catalog.bulk_insert("test_index", BULK_OK)["docs"] == 3
    catalog.flush("test_index")
    assert catalog.all_docs("test_index")["hits"] == 8
    r = catalog.search("test_index", {"query": {"term": {"test_text": "asdf1234"}}})
    assert r["hits"] == 1


def test_bulk_rollback_on_bad_u64(catalog):  # bulk.rs:174-189
    with pytest.raises(QueryError) as e:
        catalog.bulk_insert("test_index", BULK_BAD)
    assert "expected u64" in str(e.value)
    assert catalog.all_docs("test_index")["hits"] == 5  # nothing visible


def test_bulk_u64_full_range(catalog):
    """Legitimate u64 values >= 2^63 must ingest (tantivy u64 fields
    cover the full 64-bit range); only negatives fail the bulk."""
    import json as _json

    big = (1 << 63) + 7
    line = _json.dumps({"test_text": "big u64 doc", "test_i64": 1,
                        "test_u64": big, "test_unindex": "x",
                        "test_facet": "/cat/cat9"})
    r = catalog.bulk_insert("test_index", line)
    assert r["docs"] == 1
    catalog.flush("test_index")
    hits = catalog.search(
        "test_index", {"query": {"term": {"test_text": "big"}}, "limit": 5}
    )
    assert hits["hits"] == 1
    assert int(hits["docs"][0]["doc"]["test_u64"]) == big


def test_add_doc_commit_then_visible(catalog):  # commit.rs:96-108
    catalog.add_document(
        "test_index",
        {"options": {"commit": True},
         "document": {"test_text": "Test Document 6", "test_i64": 2019, "test_u64": 15,
                      "test_unindex": "!", "test_facet": "/cat/cat5"}},
    )
    assert catalog.all_docs("test_index")["hits"] == 6


def test_add_non_object_errors(catalog):  # handlers/index.rs:150-169
    with pytest.raises(QueryError) as e:
        catalog.add_document("test_index", {"document": "not an object"})
    assert str(e.value) == "Error in Index: 'The provided string is not valid JSON'"


@pytest.mark.parametrize("value, kind", [(["a b", "c"], "sequence"), ({"a": "c"}, "map")])
def test_a_list_or_map_in_a_string_field_is_refused(catalog, value, kind):
    """A text or facet field holds one string: a list or a map is a
    JSON type error (serde's wording), not its Python repr indexed."""
    import json

    want = f"Error Parsing Json: 'invalid type: {kind}, expected a string'"
    with pytest.raises(QueryError) as e:
        catalog.add_document("test_index", {"document": {"test_text": value}})
    assert str(e.value) == want
    with pytest.raises(QueryError) as e:
        catalog.bulk_insert("test_index", json.dumps({"test_facet": value}))
    assert str(e.value) == want
    assert catalog.search("test_index", {"query": {"term": {"test_text": "c"}}})["hits"] == 0
    assert catalog.all_docs("test_index")["hits"] == 5


def test_delete_term(catalog):
    r = catalog.delete_term("test_index", {"test_text": "duckiment"})
    assert r["docs_affected"] == 1
    assert catalog.all_docs("test_index")["hits"] == 4


def test_unknown_index():
    c = IndexCatalog(tempfile.mkdtemp())
    with pytest.raises(QueryError):
        c.search("nope", None)


F4_LYRICS_SCHEMA = [  # FIXTURES.md §F4 — the reference's documented example schema
    {"name": "lyrics", "type": "text",
     "options": {"indexing": {"record": "position", "tokenizer": "default"}, "stored": True}},
    {"name": "year", "type": "i64", "options": {"indexed": True, "stored": True, "fast": True}},
    {"name": "idx", "type": "u64", "options": {"indexed": True, "stored": True, "fast": True}},
    {"name": "artist", "type": "text",
     "options": {"indexing": {"record": "position", "tokenizer": "default"}, "stored": True}},
    {"name": "genre", "type": "text",
     "options": {"indexing": {"record": "position", "tokenizer": "default"}, "stored": True}},
    {"name": "song", "type": "text",
     "options": {"indexing": {"record": "position", "tokenizer": "default"}, "stored": True}},
]


def test_lyrics_lifecycle(ray_session):  # _create → _summary → add → search
    c = IndexCatalog(tempfile.mkdtemp(prefix="toshi_lyrics_"))
    c.create_index("lyrics", F4_LYRICS_SCHEMA)
    # search on an EMPTY index returns cleanly
    assert c.search("lyrics", {"query": {"term": {"lyrics": "here"}}})["hits"] == 0
    c.add_document("lyrics", {"options": {"commit": True}, "document": {
        "song": "he-still-loves-me-f-choir-from-fighting-temptations",
        "year": 2007, "artist": "beyonce-knowles", "genre": "Pop",
        "lyrics": "Took me a while but I'm finally here", "idx": 23}})
    assert c.index_summary("lyrics")["summaries"]["num_docs"] == 1
    r = c.search("lyrics", {"query": {"phrase": {"lyrics": {"terms": ["finally", "here"]}}}})
    assert r["hits"] == 1 and r["docs"][0]["doc"]["genre"] == "Pop"
    # multi-text-field raw query over all default fields
    r = c.search("lyrics", {"query": {"raw": "artist:beyonce"}})
    assert r["hits"] == 1
    # range over the i64 fast field
    r = c.search("lyrics", {"query": {"range": {"year": {"gte": 2007, "lte": 2007}}}})
    assert r["hits"] == 1


def test_cjk_analyzer_index(ray_session):
    from toshi_ray.analyzer import get_analyzer

    assert get_analyzer("cjk").tokens("Hello 世界和平") == ["hello", "世", "界", "和", "平"]
    c = IndexCatalog(tempfile.mkdtemp(prefix="toshi_cjk_"))
    c.create_index("zh", [
        {"name": "body", "type": "text",
         "options": {"indexing": {"record": "position", "tokenizer": "cjk"}, "stored": True}},
    ])
    c.add_document("zh", {"document": {"body": "世界和平 peace"}})
    c.add_document("zh", {"document": {"body": "世上无难事"}})
    assert c.search("zh", {"query": {"term": {"body": "界"}}})["hits"] == 1
    assert c.search("zh", {"query": {"term": {"body": "世"}}})["hits"] == 2
    assert c.search("zh", {"query": {"phrase": {"body": {"terms": ["世", "界"]}}}})["hits"] == 1


def test_auto_commit_ticker(ray_session):  # commit.rs:88-109
    """Buffered-writes mode: an added doc stays invisible until the
    auto-commit ticker fires (reference default cadence 10 s)."""
    import time

    c = IndexCatalog(tempfile.mkdtemp(prefix="toshi_tick_"), buffered_writes=True)
    c.create_index("test_index", F2_SCHEMA)
    c.add_document("test_index", {"document": F2_DOCS[0]})
    assert c.all_docs("test_index")["hits"] == 0  # staged, not committed
    w = c.start_auto_commit(every_s=0.2)
    deadline = time.time() + 10
    while time.time() < deadline and c.all_docs("test_index")["hits"] == 0:
        time.sleep(0.1)
    c.stop_auto_commit()
    assert c.all_docs("test_index")["hits"] == 1


def test_auto_commit_suppressed_during_bulk(ray_session):  # bulk.rs:67, commit.rs:19
    from toshi_ray.api import AutoCommitWatcher

    c = IndexCatalog(tempfile.mkdtemp(prefix="toshi_supp_"), buffered_writes=True)
    c.create_index("test_index", F2_SCHEMA)
    c.add_document("test_index", {"document": F2_DOCS[0]})
    w = AutoCommitWatcher(c, every_s=999)  # never started; tick manually
    c._bulk_lock.set()  # a bulk is in flight
    assert w.tick() == []
    assert c.all_docs("test_index")["hits"] == 0
    c._bulk_lock.clear()
    assert w.tick() == ["test_index"]
    assert c.all_docs("test_index")["hits"] == 1


def test_buffered_bulk_then_flush(ray_session):
    """Buffered mode: bulk stages docs; flush commits them; a bad bulk
    stages nothing (whole-batch rollback still holds)."""
    c = IndexCatalog(tempfile.mkdtemp(prefix="toshi_buf_"), buffered_writes=True)
    c.create_index("test_index", F2_SCHEMA)
    assert c.bulk_insert("test_index", BULK_OK)["docs"] == 3
    assert c.all_docs("test_index")["hits"] == 0
    c.flush("test_index")
    assert c.all_docs("test_index")["hits"] == 3
    with pytest.raises(QueryError):
        c.bulk_insert("test_index", BULK_BAD)
    c.flush("test_index")
    assert c.all_docs("test_index")["hits"] == 3


def test_bulk_index_ndjson_distributed(ray_session, tmp_path):
    """Distributed NDJSON ingest: files → validated Dataset → index;
    a bad value anywhere aborts the job with nothing published."""
    import json
    import os

    from toshi_ray.schema import FieldDef, Schema
    from toshi_ray.search import Searcher
    from toshi_ray.sources.ndjson import bulk_index_ndjson

    schema = Schema.build(
        FieldDef("doc_id", "u64", fast=True),
        FieldDef("url", "text", indexed=False),
        FieldDef("text", "text"),
        FieldDef("n", "u64", fast=True),
    )
    good = tmp_path / "good.ndjson"
    with open(good, "w") as f:
        for i in range(20):
            f.write(json.dumps({"url": f"http://x/{i}", "text": f"alpha doc {i}",
                                "n": i}) + "\n")
    root = str(tmp_path / "idx")
    m = bulk_index_ndjson([str(good)], schema, root, id_col="url",
                          docs_per_segment=8)
    assert m["metrics"]["num_docs"] == 20
    s = Searcher(root, distributed=False)
    assert s.count({"query": {"term": {"text": "alpha"}}}) == 20
    # ids are stable: re-ingest to a fresh root gives identical doc ids
    root2 = str(tmp_path / "idx2")
    bulk_index_ndjson([str(good)], schema, root2, id_col="url",
                      docs_per_segment=5)
    s2 = Searcher(root2, distributed=False)
    a = sorted(s.match_doc_ids({"query": {"term": {"text": "alpha"}}}).tolist())
    b = sorted(s2.match_doc_ids({"query": {"term": {"text": "alpha"}}}).tolist())
    assert a == b

    # rollback: a negative u64 anywhere fails the job, nothing published
    bad = tmp_path / "bad.ndjson"
    with open(bad, "w") as f:
        f.write(json.dumps({"url": "http://x/bad", "text": "beta", "n": -5}) + "\n")
    root3 = str(tmp_path / "idx3")
    with pytest.raises(Exception) as e:
        bulk_index_ndjson([str(good), str(bad)], schema, root3, id_col="url")
    assert "expected u64" in str(e.value)
    assert not os.path.exists(os.path.join(root3, "manifest.json"))


def test_searcher_auto_refresh_on_commit(ray_session):
    """ReloadPolicy::OnCommit analogue: a polling Searcher picks up a
    new commit without an explicit refresh call."""
    import time

    from toshi_ray.search import Searcher

    c = IndexCatalog(tempfile.mkdtemp(prefix="toshi_refresh_"))
    c.create_index("test_index", F2_SCHEMA)
    c.add_document("test_index", {"document": F2_DOCS[0]})
    s = Searcher(c._root("test_index"), distributed=False)
    assert s.n_docs == 1
    s.start_auto_refresh(every_s=0.1)
    try:
        c.add_document("test_index", {"document": F2_DOCS[1]})
        deadline = time.time() + 10
        while time.time() < deadline and s.n_docs != 2:
            time.sleep(0.1)
        assert s.n_docs == 2
        assert s.search(None)["hits"] == 2
    finally:
        s.stop_auto_refresh()


def test_buffered_add_validates_and_ticker_survives(ray_session):
    """A bad doc fails at ADD time on the buffered path (never staged),
    so a later ticker commit can't blow up and lose the batch."""
    from toshi_ray.api import AutoCommitWatcher

    c = IndexCatalog(tempfile.mkdtemp(prefix="toshi_val_"), buffered_writes=True)
    c.create_index("test_index", F2_SCHEMA)
    with pytest.raises(QueryError):
        c.add_document("test_index", {"document": {"test_i64": "not-a-number"}})
    c.add_document("test_index", {"document": F2_DOCS[0]})
    w = AutoCommitWatcher(c, every_s=999)
    assert w.tick() == ["test_index"]
    assert c.all_docs("test_index")["hits"] == 1


def test_refresh_kills_distributed_scorer_actors(free_cpus):
    """A refresh with no query in flight frees the replaced snapshot, and
    Ray ends its scorer actor with the last handle: the pool's CPU comes
    back. A leaked pool would pin one CPU per commit until the cluster
    starves."""
    from toshi_ray.search import Searcher

    c = IndexCatalog(tempfile.mkdtemp(prefix="toshi_kill_"))
    c.create_index("test_index", F2_SCHEMA)
    c.add_document("test_index", {"document": F2_DOCS[0]})
    s = Searcher(c._root("test_index"), distributed=True, parallelism=1)
    s.search({"query": {"term": {"test_text": "document"}}})
    assert [kind for kind, _ in s._groups] == ["ray"]
    idle = free_cpus.idle
    assert free_cpus(lambda n: n == idle - 1) == idle - 1  # the actor holds its CPU
    s.refresh()
    assert free_cpus(lambda n: n == idle) == idle
    assert s.search({"query": {"term": {"test_text": "document"}}})["hits"] == 1
    s.close()
    assert free_cpus(lambda n: n == idle) == idle


def test_ndjson_missing_field_fills_nulls(ray_session, tmp_path):
    """Files with differing key sets unify to one schema (typed nulls),
    instead of crashing schema unification mid-job."""
    import json

    from toshi_ray.schema import FieldDef, Schema
    from toshi_ray.search import Searcher
    from toshi_ray.sources.ndjson import bulk_index_ndjson

    schema = Schema.build(
        FieldDef("doc_id", "u64", fast=True),
        FieldDef("text", "text"),
        FieldDef("n", "i64", fast=True),
    )
    a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    with open(a, "w") as f:
        f.write(json.dumps({"doc_id": 0, "text": "alpha one", "n": 5}) + "\n")
    with open(b, "w") as f:
        f.write(json.dumps({"doc_id": 1, "text": "alpha two"}) + "\n")  # no "n"
    root = str(tmp_path / "idx")
    m = bulk_index_ndjson([str(a), str(b)], schema, root, docs_per_segment=10)
    assert m["metrics"]["num_docs"] == 2
    s = Searcher(root, distributed=False)
    assert s.count({"query": {"term": {"text": "alpha"}}}) == 2


def test_unbuffered_add_bad_value_is_query_error(ray_session):
    """Both write modes must surface a bad typed value as QueryError."""
    c = IndexCatalog(tempfile.mkdtemp(prefix="toshi_ubval_"))
    c.create_index("test_index", F2_SCHEMA)
    with pytest.raises(QueryError):
        c.add_document("test_index", {"document": {"test_i64": "not-a-number"}})
    assert c.all_docs("test_index")["hits"] == 0


def test_root_banner():  # handlers/root.rs:9-14
    c = IndexCatalog(tempfile.mkdtemp(prefix="toshi_root_"))
    out = c.root()
    assert out["name"] == "toshi-ray" and out["version"]


def test_concurrent_publish_on_write_appends_keep_every_doc(ray_session, monkeypatch):
    """Two publish-on-write appends racing through the segment build
    must both stay visible: each picks its doc ids from the manifest,
    so without one commit lock around the whole append both take the
    same ids and segment name and one acknowledged doc is lost."""
    import threading

    from toshi_ray import api

    c = IndexCatalog(tempfile.mkdtemp(prefix="toshi_race_"))
    c.create_index("race", F2_SCHEMA)
    # both builds meet here when they can overlap; under the lock the
    # first gives up waiting and the second finds the barrier broken
    barrier = threading.Barrier(2, timeout=2)
    real_build = api.build_segment_tables

    def build_at_barrier(*args, **kwargs):
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            pass
        return real_build(*args, **kwargs)

    monkeypatch.setattr(api, "build_segment_tables", build_at_barrier)
    results, errors = [], []

    def add(i):
        try:
            results.append(c.add_document("race", {"document": F2_DOCS[i]}))
        except Exception as e:  # surfaced by the assertion below
            errors.append(e)

    threads = [threading.Thread(target=add, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert results == [{"created": True}] * 2
    assert c.all_docs("race")["hits"] == 2
    assert c.index_summary("race")["summaries"]["num_docs"] == 2


def test_a_failed_commit_never_serves_its_docs(monkeypatch):
    """A commit that published its segment directory but failed to write
    the manifest: the next append of the same doc ids must list its own
    segment, not the failed write's."""
    from toshi_ray.pipelines import build

    c = IndexCatalog(tempfile.mkdtemp(prefix="toshi_cat_"))
    c.create_index("ix", F2_SCHEMA)
    real = build._atomic_write
    failed = []

    def flaky(path, payload):
        if path.endswith(build.MANIFEST_FILE) and not failed:
            failed.append(path)
            raise OSError("no space left on device")
        return real(path, payload)

    monkeypatch.setattr(build, "_atomic_write", flaky)
    with pytest.raises(OSError):
        c.bulk_insert("ix", '{"test_text": "never one"}\n{"test_text": "never two"}')
    assert c.bulk_insert("ix", '{"test_text": "apple one"}\n{"test_text": "apple two"}') == {"docs": 2}
    assert c.search("ix", {"query": {"term": {"test_text": "apple"}}})["hits"] == 2
    assert c.search("ix", {"query": {"term": {"test_text": "never"}}})["hits"] == 0


DATE_SCHEMA = [
    {"name": "ts", "type": "date", "options": {"indexed": True, "stored": True, "fast": True}},
    {"name": "body", "type": "text",
     "options": {"indexing": {"record": "position", "tokenizer": "default"}, "stored": True}},
]


def test_a_date_field_takes_an_rfc3339_string():
    """A date is written as RFC 3339, through one add and a bulk: the
    store gives the string back unchanged and the fast field holds its
    UTC instant. Any other value is a QueryError, and a bulk holding one
    publishes nothing."""
    import json

    c = IndexCatalog(tempfile.mkdtemp(prefix="toshi_cat_"))
    c.create_index("ix", DATE_SCHEMA)
    given = ["2021-03-04T05:06:07.000891Z", "2021-03-04T07:06:08.000891+02:00",
             "2021-03-05t05:06:07z"]
    c.add_document("ix", {"document": {"ts": given[0], "body": "alpha"}})
    c.bulk_insert("ix", "\n".join(json.dumps({"ts": t, "body": "alpha"}) for t in given[1:]))
    out = json.loads(c.search("ix", {"query": {"term": {"body": "alpha"}}, "limit": 10},
                              pretty=True))
    assert sorted(d["doc"]["ts"] for d in out["docs"]) == sorted(given)
    r = c.search("ix", {"query": None, "sort_by": "ts", "limit": 3})
    # 2021-03-04T05:06:07Z is 1614834367 s after the epoch
    assert [d["score"] for d in r["docs"]] == [1614920767e6, 1614834368000891.0, 1614834367000891.0]
    for bad in ("not a date", 1614834367, "2021-03-04", "2021-02-30T00:00:00Z", True,
                ["2021-03-04T05:06:07Z"]):
        with pytest.raises(QueryError, match="Error Parsing Json"):
            c.add_document("ix", {"document": {"ts": bad, "body": "beta"}})
        with pytest.raises(QueryError, match="Error Parsing Json"):
            c.bulk_insert("ix", '{"ts": "2021-03-04T05:06:07Z", "body": "beta"}\n'
                          + json.dumps({"ts": bad, "body": "beta"}))
    assert c.search("ix", {"query": {"term": {"body": "beta"}}})["hits"] == 0
    assert c.all_docs("ix")["hits"] == 3
