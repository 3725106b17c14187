"""Rank-identity + pipeline tests over the synthetic web-page table (F1/F6).

The engine (any partitioning, before or after merge) must match the
brute-force NumPy oracle rank-identically with equal scores.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toshi_ray.functions.oracle import BruteForceIndex
from toshi_ray.pipelines.build import build_index
from toshi_ray.pipelines.merge import delete_by_term, gc_segments, merge_segments
from toshi_ray.schema import FieldDef, Schema
from toshi_ray.search import Searcher
from toshi_ray.sources.webpages import extract_text, make_pages_batch, pages_dataset

N_DOCS = 1500


def page_schema() -> Schema:
    return Schema.build(
        FieldDef("doc_id", "u64", fast=True),
        FieldDef("url", "text", indexed=False),
        FieldDef("text", "text"),
        FieldDef("lang", "facet"),
    )


@pytest.fixture(scope="module")
def oracle():
    tbl = make_pages_batch(np.arange(N_DOCS))
    docs = [
        {"doc_id": i, "text": t}
        for i, t in zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist())
    ]
    return BruteForceIndex(docs, {"text": "default"})


@pytest.fixture(scope="module", params=[1, 7])
def searcher(request, ray_session):
    """The same corpus at 1 segment and at 7 segments."""
    root = tempfile.mkdtemp(prefix=f"toshi_rank_{request.param}_")
    per_seg = -(-N_DOCS // request.param)
    build_index(pages_dataset(N_DOCS, parallelism=4), page_schema(), root,
                docs_per_segment=per_seg)
    return Searcher(root, distributed=False)


QUERY_TERMS = ["the", "www", "w00042", "w00100", "w01000", "w19999", "missingterm"]
PHRASES = [["the", "of"], ["w00042", "the"], ["page", "home"]]


def engine_topk(searcher, q, k=20):
    r = searcher.search({"query": q, "limit": k})
    return [(d["doc"]["doc_id"], d["score"]) for d in r["docs"]]


def test_term_rank_identity(searcher, oracle):
    for t in QUERY_TERMS:
        got = engine_topk(searcher, {"term": {"text": t}})
        want = oracle.topk(oracle.term_scores("text", t), 20)
        assert [g[0] for g in got] == [w[0] for w in want], t
        np.testing.assert_allclose([g[1] for g in got], [w[1] for w in want], rtol=1e-12)


def test_phrase_rank_identity(searcher, oracle):
    for terms in PHRASES:
        got = engine_topk(searcher, {"phrase": {"text": {"terms": terms}}})
        want = oracle.topk(oracle.phrase_scores("text", terms), 20)
        assert [g[0] for g in got] == [w[0] for w in want], terms
        np.testing.assert_allclose([g[1] for g in got], [w[1] for w in want], rtol=1e-12)


def test_bool_rank_identity(searcher, oracle):
    q = {
        "bool": {
            "must": [{"term": {"text": "w00042"}}],
            "should": [{"term": {"text": "the"}}],
            "must_not": [{"term": {"text": "w00100"}}],
        }
    }
    got = engine_topk(searcher, q, 30)
    m = oracle.term_scores("text", "w00042")
    s = oracle.term_scores("text", "the")
    n = oracle.term_scores("text", "w00100")
    comb = {i: sc + s.get(i, 0.0) for i, sc in m.items() if i not in n}
    want = oracle.topk(comb, 30)
    assert [g[0] for g in got] == [w[0] for w in want]
    np.testing.assert_allclose([g[1] for g in got], [w[1] for w in want], rtol=1e-12)


def test_rank_identity_survives_merge(searcher, oracle, tmp_path):
    if len(searcher.manifest["segments"]) == 1:
        pytest.skip("single segment — merge is a no-op")
    before = {t: engine_topk(searcher, {"term": {"text": t}}) for t in QUERY_TERMS}
    merge_segments(searcher.index_root, hot_df_threshold=200, shard_span=500)
    s2 = Searcher(searcher.index_root, distributed=False)
    for t in QUERY_TERMS:
        assert engine_topk(s2, {"term": {"text": t}}) == before[t], t


def test_extract_invariant_and_determinism():
    tbl = make_pages_batch(np.arange(0, 400))
    assert extract_text(tbl["html"]).to_pylist() == tbl["text"].to_pylist()
    # regeneration at a different batching is byte-identical
    part = make_pages_batch(np.arange(100, 200))
    assert tbl.slice(100, 100).equals(part)


def test_delete_by_term(ray_session):
    root = tempfile.mkdtemp(prefix="toshi_del_")
    build_index(pages_dataset(600, parallelism=2), page_schema(), root,
                docs_per_segment=200)
    s = Searcher(root, distributed=False)
    n_before = s.count({"query": {"term": {"text": "w00050"}}})
    assert n_before > 0
    n_del = delete_by_term(Searcher(root, distributed=False), "text", "w00050")
    assert n_del == n_before
    s2 = Searcher(root, distributed=False)
    assert s2.count({"query": {"term": {"text": "w00050"}}}) == 0
    # all-docs view also excludes tombstoned docs
    assert s2.count(None) == 600 - n_del
    # merge applies physically
    merge_segments(root)
    s3 = Searcher(root, distributed=False)
    assert s3.count({"query": {"term": {"text": "w00050"}}}) == 0
    assert s3.n_docs == 600 - n_del
    gc_segments(root)


def multi_field_batch(n: int = 120):
    """``n`` docs of non-ASCII text in 3 text fields, declared out of
    name order (one without positions), and their schema."""
    import pyarrow as pa

    words = ["café", "naïve", "日本語", "Москва", "😀x", "Straße", "İstanbul", "ΟΔΟΣ",
             "x\u0301y", "a\u3000b", "the", "w00042", "Ⅻ"]
    rng = np.random.default_rng(3)

    def texts(k):
        return [" ".join(rng.choice(words, k)) + ", «ok»." for _ in range(n)]

    batch = pa.table({"doc_id": pa.array(np.arange(n), pa.uint64()),
                      "title": texts(4), "body": texts(30), "abstract": texts(10)})
    schema = Schema.build(FieldDef("doc_id", "u64", fast=True), FieldDef("title", "text"),
                          FieldDef("body", "text"), FieldDef("abstract", "text", positions=False))
    return batch, schema


def test_build_postings_come_in_dictionary_order():
    """The build joins each field's term-ordered rows in field-name
    order, with no sort over the joined table: the result equals its
    own (field, term, shard) sort, whatever order the schema declares
    its text fields in."""
    from toshi_ray.segments import build_segment_tables

    postings = build_segment_tables(*multi_field_batch())[0]
    assert set(postings["field"].to_pylist()) == {"title", "body", "abstract"}
    key = [("field", "ascending"), ("term", "ascending"), ("shard", "ascending")]
    assert postings.equals(postings.sort_by(key))


def test_reader_postings_match_disk(ray_session):
    """A SegmentReader's one postings table answers every term lookup
    as the segment's part files do — on a fresh segment and on a merged
    one whose hot terms' shard rows lie out of doc order across part
    files: `postings_for_terms` gives the on-disk rows sorted by (field,
    term, first_doc), so each term's shard rows come in doc order, and
    `df_for_terms` and `term_dict` give the on-disk df sums and
    dictionary. A reader primed with the tables that wrote a fresh
    segment answers the same, and its docvalues and store equal a disk
    reader's, with no postings read."""
    import os
    from collections import Counter

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from toshi_ray.pipelines.build import load_manifest
    from toshi_ray.segments import SegmentReader, build_segment_tables, write_segment

    def seg_dirs(n_docs, **merge_kw):
        root = tempfile.mkdtemp(prefix="toshi_cache_")
        build_index(pages_dataset(n_docs, parallelism=2), page_schema(), root,
                    docs_per_segment=400)
        if merge_kw:
            merge_segments(root, **merge_kw)
        return [os.path.join(root, "segments", s["name"]) for s in load_manifest(root)["segments"]]

    def on_disk(seg_dir):
        """The field's postings rows straight from the part files."""
        path = os.path.join(seg_dir, "postings.parquet")
        t = pq.read_table(path if os.path.exists(path) else os.path.join(seg_dir, "postings"))
        return t.filter(pc.equal(t["field"], "text"))

    def first_docs_ascend(t):
        fd = t["first_doc"].to_pylist()
        return fd == sorted(fd) and len(set(fd)) == len(fd)

    (fresh_dir,) = seg_dirs(400)
    (merged_dir,) = seg_dirs(1200, hot_df_threshold=100, shard_span=200)
    assert os.path.isdir(os.path.join(merged_dir, "postings"))  # part files

    merged_disk = on_disk(merged_dir)
    hot = sorted(t for t, n in Counter(merged_disk["term"].to_pylist()).items() if n > 1)
    assert hot
    # at least one hot term's shard rows are out of doc order on disk,
    # so only the reader's ordering puts them right
    assert any(
        not first_docs_ascend(merged_disk.filter(pc.equal(merged_disk["term"], t)))
        for t in hot
    )

    tables = build_segment_tables(make_pages_batch(np.arange(400)), page_schema())
    primed_dir = tempfile.mkdtemp(prefix="toshi_primed_")
    primed_dir = os.path.join(primed_dir, write_segment(primed_dir, *tables)["name"])

    def primed(seg_dir):
        r = SegmentReader(seg_dir)
        r.prime(tables[0], tables[1])
        return r

    key = [("field", "ascending"), ("term", "ascending"), ("first_doc", "ascending")]
    scoring = ["df", "doc_ids", "tfs"]
    for seg_dir, extra, open_reader in ((fresh_dir, [], SegmentReader),
                                        (merged_dir, [hot[:3], hot], SegmentReader),
                                        (primed_dir, [], primed)):
        disk = on_disk(seg_dir).sort_by(key)
        df: dict[str, int] = {}
        for t, n in zip(disk["term"].to_pylist(), disk["df"].to_pylist()):
            df[t] = df.get(t, 0) + n
        r = open_reader(seg_dir)
        for terms in (["the"], ["the", "w00042"], ["missingterm"], *extra):
            want = disk.filter(pc.is_in(disk["term"], pa.array(terms)))
            assert r.postings_for_terms("text", terms).equals(want), terms
            assert r.postings_for_terms("text", terms, scoring).equals(want.select(scoring)), terms
            assert r.df_for_terms("text", terms) == {t: df[t] for t in terms if t in df}, terms
        for t in hot if seg_dir == merged_dir else ["the"]:
            assert first_docs_ascend(r.postings_for_terms("text", [t], ["first_doc"])), t
        assert r.term_dict("text").equals(disk.select(["field", "term", "df", "first_doc"]))

    warm, cold = primed(primed_dir), SegmentReader(primed_dir)
    cols = cold.dv_column_names()
    assert warm.dv_column_names() == cols
    assert warm.docvalues(cols).equals(cold.docvalues(cols))
    assert warm.docvalues(cols[::-1]).equals(cold.docvalues(cols[::-1]))
    ids = cold.doc_ids()
    assert warm.store(ids) == cold.store(ids)
    assert warm.term_dict("text").equals(cold.term_dict("text"))
    assert warm.postings_loads == 0 and cold.postings_loads == 1

    # a primed multi-field segment: the build's table is taken in
    # dictionary order as it is, and answers as the disk reader does
    tables = build_segment_tables(*multi_field_batch())
    multi_dir = tempfile.mkdtemp(prefix="toshi_primed_multi_")
    multi_dir = os.path.join(multi_dir, write_segment(multi_dir, *tables)["name"])
    warm, cold = primed(multi_dir), SegmentReader(multi_dir)
    for field in ("abstract", "body", "title"):
        disk = cold.term_dict(field)
        assert disk.num_rows and warm.term_dict(field).equals(disk), field
        terms = disk["term"].to_pylist()
        for want in (terms[:1], terms[::3], ["the", "日本語", "absent"]):
            assert warm.postings_for_terms(field, want).equals(
                cold.postings_for_terms(field, want)), (field, want)
            assert warm.df_for_terms(field, want) == cold.df_for_terms(field, want)
    assert warm.postings_loads == 0


def test_reader_loads_postings_once():
    """A reader reads its postings table once, whatever lookups it
    answers; a carried copy for a newer snapshot reads it once more, on
    first use, and leaves the original's table alone."""
    import os

    from toshi_ray.segments import SegmentReader, build_segment_tables, write_segment

    seg_dir = tempfile.mkdtemp(prefix="toshi_loads_")
    meta = write_segment(seg_dir, *build_segment_tables(make_pages_batch(np.arange(200)),
                                                        page_schema()))
    r = SegmentReader(os.path.join(seg_dir, meta["name"]))
    assert r.postings_loads == 0
    assert r.df_for_terms("text", ["the"])
    assert r.postings_for_terms("text", ["the", "w00042"]).num_rows
    assert r.term_dict("text").num_rows
    assert r.df_for_terms("text", ["the", "missingterm"])
    assert r.postings_loads == 1
    c = r.carry()
    assert c.postings_loads == 1  # the count carries over; the table does not
    assert c.postings_for_terms("text", ["the"]).num_rows
    assert c.term_dict("text").equals(r.term_dict("text"))
    assert c.postings_loads == 2 and r.postings_loads == 1


def test_fuzzy_const_scorer(ray_session, tmp_path):
    """Fuzzy is an automaton query in tantivy 0.19: AutomatonWeight unions
    matching terms into one BitSetDocSet wrapped in ConstScorer(1.0), so a
    doc containing TWO distance-1 variants still scores 1.0 (fuzzy.rs:31)."""
    import pyarrow as pa
    import ray

    schema = Schema.build(FieldDef("doc_id", "u64", fast=True), FieldDef("text", "text"))
    t = pa.table(
        {
            "doc_id": pa.array([0, 1], pa.uint64()),
            "text": ["spark spork", "spark only here"],
        }
    )
    root = str(tmp_path / "fz")
    build_index(ray.data.from_arrow(t), schema, root)
    s = Searcher(root, distributed=False)
    r = s.search(
        {"query": {"fuzzy": {"text": {"value": "spark", "distance": 1,
                                      "transposition": False}}}}
    )
    assert {d["doc"]["doc_id"]: d["score"] for d in r["docs"]} == {0: 1.0, 1: 1.0}


def test_merge_partition_drops_tombstones():
    """The partition merge must drop exactly the tombstoned docs from
    every merged posting list, keep positions of surviving docs exact,
    and recompute df and each list's first doc — on a schema with mixed
    positions/no-positions fields, over three sources whose rows of one
    term concatenate."""
    import pyarrow as pa

    from toshi_ray.pipelines.merge import _merge_partition
    from toshi_ray.schema import FieldDef, Schema
    from toshi_ray.segments import (
        build_segment_tables,
        decode_positions,
        decode_postings,
    )

    rng = np.random.default_rng(3)
    n = 300
    words = [f"w{i:03d}" for i in range(40)]
    texts = [" ".join(rng.choice(words, size=rng.integers(5, 30))) for _ in range(n)]
    tags = [" ".join(rng.choice(["a", "b", "c"], size=2)) for _ in range(n)]
    schema = Schema.build(
        FieldDef("doc_id", "u64", fast=True),
        FieldDef("text", "text"),
        FieldDef("tags", "text", positions=False),
    )
    tbl = pa.table(
        {"doc_id": pa.array(np.arange(n, dtype=np.uint64)), "text": texts, "tags": tags}
    )
    # three sources over disjoint doc ranges, every row in shard 0
    postings = pa.concat_tables(
        [build_segment_tables(tbl.slice(lo, 100), schema)[0] for lo in (200, 0, 100)]
    )
    postings = postings.append_column(
        "shard_out", pa.array(np.zeros(postings.num_rows, np.int64)))

    def decode_all(p):
        """(field, term) → (doc ids, tfs, {doc: positions} or None, rows):
        the key's rows concatenated in doc order."""
        out = {}
        p = p.sort_by([("first_doc", "ascending")])
        for i, r in enumerate(p.to_pylist()):
            ids, tfs, _ = decode_postings(p.slice(i, 1))
            posmap = None
            if r["positions"] is not None:
                pos, offs = decode_positions(p.slice(i, 1), tfs)
                posmap = {
                    int(i): pos[offs[j] : offs[j + 1]].tolist()
                    for j, i in enumerate(ids)
                }
            k = (r["field"], r["term"])
            if k in out:
                pids, ptfs, pposmap, rows = out[k]
                out[k] = (np.concatenate([pids, ids]), np.concatenate([ptfs, tfs]),
                          None if posmap is None else {**pposmap, **posmap}, rows + [r])
            else:
                out[k] = (ids, tfs, posmap, [r])
        return out

    tombs = np.array([3, 57, 58, 123, 299], dtype=np.uint64)
    out = _merge_partition(postings, tombs)
    orig, new = decode_all(postings), decode_all(out)
    assert max(len(rows) for *_, rows in orig.values()) == 3

    exp_keys = set()
    for k, (ids, tfs, posmap, _) in orig.items():
        keep = ~np.isin(ids, tombs)
        if not keep.any():
            continue
        exp_keys.add(k)
        nids, ntfs, nposmap, (row,) = new[k]
        np.testing.assert_array_equal(nids, ids[keep])
        np.testing.assert_array_equal(ntfs, tfs[keep])
        assert row["df"] == int(keep.sum())
        assert row["first_doc"] == int(ids[keep][0])
        if posmap is not None:
            assert nposmap == {int(i): posmap[int(i)] for i in ids[keep]}
        else:
            assert nposmap is None
    assert set(new) == exp_keys

    # a tombstone outside every row merges as if there were none
    far = np.array([10_000_000], dtype=np.uint64)
    assert _merge_partition(postings, far).equals(
        _merge_partition(postings, np.empty(0, np.uint64)))

    # every doc deleted: a zero-row table with the postings schema
    gone = _merge_partition(postings, np.arange(n, dtype=np.uint64))
    assert gone.num_rows == 0
    assert gone.schema == out.schema


def test_build_with_another_doc_id_column_searches_by_doc_id(ray_session):
    """``doc_id_col="id"`` names the source's id column; the segments key
    on ``doc_id`` like any other, so the meta counts the docs and hits
    carry the source ids."""
    import pyarrow as pa
    import ray.data

    from toshi_ray.pipelines.build import load_manifest
    from toshi_ray.segments import build_segment_tables

    ids = [30, 10, 20, 50, 40]
    texts = ["red fox", "blue fox", "red hen", "red cat", "green fox"]
    schema = Schema.build(FieldDef("text", "text"))
    root = tempfile.mkdtemp(prefix="toshi_idcol_")
    build_index(ray.data.from_arrow(pa.table({"id": pa.array(ids, pa.uint64()), "text": texts})),
                schema, root, doc_id_col="id", docs_per_segment=3)
    segs = load_manifest(root)["segments"]
    assert sorted(s["num_docs"] for s in segs) == [2, 3]
    assert sorted(s["min_doc_id"] for s in segs) == [10, 40]
    s = Searcher(root, distributed=False)
    r = s.search({"query": {"term": {"text": "red"}}, "limit": 10})
    assert sorted(d["doc"]["doc_id"] for d in r["docs"]) == [20, 30, 50]
    assert {d["doc"]["doc_id"]: d["doc"]["text"] for d in r["docs"]}[50] == "red cat"
    assert s.count({"query": {"term": {"text": "fox"}}}) == 3
    s.close()
    # a batch that carries a different doc_id column too is refused
    both = pa.table({"id": [1], "doc_id": [2], "text": ["x"]})
    with pytest.raises(ValueError, match="both 'id'"):
        build_segment_tables(both, schema, "id")


def test_build_is_resumable(ray_session):
    root = tempfile.mkdtemp(prefix="toshi_resume_")
    m1 = build_index(pages_dataset(300, parallelism=2), page_schema(), root,
                     docs_per_segment=100)
    # second call with same root: returns existing manifest, no rebuild
    m2 = build_index(pages_dataset(300, parallelism=2), page_schema(), root,
                     docs_per_segment=100)
    assert m2["version"] == m1["version"]
    assert [s["name"] for s in m2["segments"]] == [s["name"] for s in m1["segments"]]


def test_overwrite_rebuild_serves_fresh_postings(ray_session, tmp_path):
    """overwrite=True must not republish stale segments: segment names
    are keyed by (min_doc_id, num_docs) only, so a rebuild over CHANGED
    text with the same doc-id layout would otherwise serve old postings."""
    import pyarrow as pa
    import ray

    root = str(tmp_path / "ow")
    schema = Schema.build(
        FieldDef("doc_id", "u64", fast=True), FieldDef("text", "text")
    )
    t1 = pa.table({"doc_id": pa.array([0, 1], pa.uint64()),
                   "text": ["alpha beta", "alpha gamma"]})
    build_index(ray.data.from_arrow(t1), schema, root)
    assert Searcher(root, distributed=False).count(
        {"query": {"term": {"text": "alpha"}}}) == 2

    t2 = pa.table({"doc_id": pa.array([0, 1], pa.uint64()),
                   "text": ["delta beta", "delta gamma"]})  # same layout, new text
    build_index(ray.data.from_arrow(t2), schema, root, overwrite=True)
    s = Searcher(root, distributed=False)
    assert s.count({"query": {"term": {"text": "alpha"}}}) == 0
    assert s.count({"query": {"term": {"text": "delta"}}}) == 2


def test_format_6_index_is_refused(tmp_path):
    """An index of an older format — 6 (postings with per-block score
    bounds) or 7 (per-block skip tables) — is refused loudly, never read
    with the format-8 layout."""
    import json
    import os

    from toshi_ray.api import IndexCatalog
    from toshi_ray.pipelines.build import MANIFEST_FILE
    from toshi_ray.query import QueryError

    c = IndexCatalog(str(tmp_path))
    c.create_index("ix", [{"name": "text", "type": "text", "options": {
        "indexing": {"record": "position", "tokenizer": "default"}, "stored": True}}])
    c.add_document("ix", {"document": {"text": "alpha beta"}})
    path = os.path.join(c._root("ix"), MANIFEST_FILE)
    for old_format in (6, 7):
        with open(path) as f:
            manifest = json.load(f)
        manifest["format"] = old_format
        with open(path, "w") as f:
            json.dump(manifest, f)
        with pytest.raises(QueryError, match="rebuild the index"):
            Searcher(c._root("ix"), distributed=False)


def test_blockmax_prunes_and_stays_exact(ray_session):
    """Skewed-tf corpus (high-tf docs bunched in a few 128-doc blocks):
    the public search returns exactly the exhaustive top-k, ids and
    scores."""
    import pyarrow as pa
    import ray

    from toshi_ray.search import SegmentGroupScorer

    n = 4000
    # the high-tf docs of "hot" sit in every tenth 128-doc block, so a
    # small k is decided by a few blocks
    texts = []
    for i in range(n):
        tf = 40 if (i // 128) % 10 == 0 else 1
        texts.append(" ".join(["hot"] * tf + ["w%04d" % (i % 97)] * 3))
    tbl = pa.table({"doc_id": pa.array(range(n), pa.uint64()), "text": texts})
    root = tempfile.mkdtemp(prefix="toshi_bmw_")
    build_index(ray.data.from_arrow(tbl), Schema.build(
        FieldDef("doc_id", "u64", fast=True), FieldDef("text", "text")), root,
        docs_per_segment=n)

    s = Searcher(root, distributed=False)
    snap = s._pin()
    scorer: SegmentGroupScorer = snap.pool[0][1]
    plan = s._plan({"query": {"term": {"text": "hot"}}}, snap.schema).query
    stats = snap.stats([plan])

    exhaustive_ids, exhaustive_scores, _ = scorer._eval(plan, stats, [0])
    order = np.lexsort((exhaustive_ids, -exhaustive_scores))[:10]
    want = list(zip(exhaustive_ids[order].tolist(),
                    np.round(exhaustive_scores[order], 12).tolist()))

    got = [(i, round(sc, 12)) for i, sc in engine_topk(s, {"term": {"text": "hot"}}, 10)]
    assert got == want


def test_union_blockmax_exact_and_prunes(ray_session):
    """Pure-disjunction (should-only) query on a skewed corpus: the
    public search returns exactly the exhaustive top-k, before and
    after a delete."""
    import pyarrow as pa
    import ray

    from toshi_ray.search import SegmentGroupScorer

    n = 4000
    texts = []
    for i in range(n):
        tf_a = 40 if (i // 128) % 10 == 0 else 1
        tf_b = 30 if (i // 128) % 7 == 3 else 1
        texts.append(" ".join(["hot"] * tf_a + ["warm"] * tf_b
                              + ["w%04d" % (i % 97)] * 2))
    tbl = pa.table({"doc_id": pa.array(range(n), pa.uint64()), "text": texts})
    root = tempfile.mkdtemp(prefix="toshi_ubmw_")
    build_index(ray.data.from_arrow(tbl), Schema.build(
        FieldDef("doc_id", "u64", fast=True), FieldDef("text", "text")), root,
        docs_per_segment=n)

    s = Searcher(root, distributed=False)
    snap = s._pin()
    scorer: SegmentGroupScorer = snap.pool[0][1]
    q = {"bool": {"should": [{"term": {"text": "hot"}},
                             {"term": {"text": "warm"}}]}}
    plan = s._plan({"query": q}, snap.schema).query
    stats = snap.stats([plan])

    ex_ids, ex_scores, _ = scorer._eval(plan, stats, [0])
    order = np.lexsort((ex_ids, -ex_scores))[:10]
    want = list(zip(ex_ids[order].tolist(),
                    np.round(ex_scores[order], 12).tolist()))
    got = [(i, round(sc, 12)) for i, sc in engine_topk(s, q, 10)]
    assert got == want
    # the union + tombstones agrees with generic eval after a delete
    delete_by_term(Searcher(root, distributed=False), "text", "w0000")
    s2 = Searcher(root, distributed=False)
    r2 = s2.search({"query": q, "limit": 10})
    snap2 = s2._pin()
    sc2: SegmentGroupScorer = snap2.pool[0][1]
    st2 = snap2.stats([s2._plan({"query": q}, snap2.schema).query])
    e_ids, e_sc, _ = sc2._eval(s2._plan({"query": q}, snap2.schema).query, st2, [0])
    if st2.tombstones is not None:
        keep = ~np.isin(e_ids, st2.tombstones)
        e_ids, e_sc = e_ids[keep], e_sc[keep]
    o2 = np.lexsort((e_ids, -e_sc))[:10]
    assert [d["doc"]["doc_id"] for d in r2["docs"]] == e_ids[o2].tolist()


BLOCKMAX_POOL = ["the", "of", "www", "page", "w00018", "w00042", "w00100",
                 "w00964", "w01000", "w05338", "missingterm", "zzabsent"]


@pytest.fixture(scope="module")
def blockmax_states(ray_session):
    """One corpus in three states: fresh (4 segments), merged with hot
    terms split into several `shard` rows, and that merged index after
    a delete_by_term (tombstones applied at query time)."""
    import shutil

    fresh = tempfile.mkdtemp(prefix="toshi_bm_fresh_")
    build_index(pages_dataset(3000, parallelism=2), page_schema(), fresh,
                docs_per_segment=750)
    merged = tempfile.mkdtemp(prefix="toshi_bm_merged_")
    shutil.copytree(fresh, merged, dirs_exist_ok=True)
    merge_segments(merged, hot_df_threshold=200, shard_span=500)
    deleted = tempfile.mkdtemp(prefix="toshi_bm_deleted_")
    shutil.copytree(merged, deleted, dirs_exist_ok=True)
    assert delete_by_term(Searcher(deleted, distributed=False), "text", "w00201") > 0
    return {name: Searcher(root, distributed=False)
            for name, root in [("fresh", fresh), ("merged", merged), ("deleted", deleted)]}


def test_blockmax_states_cover_shards_and_tombstones(blockmax_states):
    merged = blockmax_states["merged"]
    snap = merged._pin()
    reader = snap.pool[0][1].readers[0]
    assert reader.postings_for_terms("text", ["the"], ["shard"]).num_rows > 1
    assert blockmax_states["deleted"]._snap.tombstones.size > 0


@pytest.fixture(scope="module")
def blockmax_oracle():
    """The brute-force scorer over the corpus of `blockmax_states`: its
    stats are theirs in every state (deleted docs count until a merge)."""
    tbl = make_pages_batch(np.arange(3000))
    docs = [{"doc_id": i, "text": t}
            for i, t in zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist())]
    return BruteForceIndex(docs, {"text": "default"})


@settings(max_examples=60, deadline=None)
@given(
    state=st.sampled_from(["fresh", "merged", "deleted"]),
    words=st.lists(st.sampled_from(BLOCKMAX_POOL), min_size=1, max_size=4),
    k=st.sampled_from([0, 1, 10, 100]),
    clause=st.sampled_from(["should", "must"]),
)
def test_blockmax_equals_exhaustive_topk(blockmax_states, blockmax_oracle, state, words, k,
                                         clause):
    """`Searcher.search` over 1-4 text terms, as a union (should) or a
    conjunction (must), returns exactly the brute-force ranking of
    `match_doc_ids` (tombstoned docs excluded) scored by the oracle: the
    same ids in the same order, the same scores."""
    s = blockmax_states[state]
    q = ({"term": {"text": words[0]}} if len(words) == 1
         else {"bool": {clause: [{"term": {"text": w}} for w in words]}})
    per_word = [blockmax_oracle.term_scores("text", w) for w in words]
    matched = (set.intersection(*(set(m) for m in per_word)) if clause == "must"
               else set().union(*per_word))
    # the matched clauses' sum, in clause order
    scores = {i: sum(m[i] for m in per_word if i in m) for i in matched}
    live = set(s.match_doc_ids({"query": q}).tolist())
    tombs = set(s._snap.tombstones.tolist())
    assert live == {int(blockmax_oracle.doc_ids[i]) for i in scores} - tombs
    want = blockmax_oracle.topk(
        {i: sc for i, sc in scores.items() if int(blockmax_oracle.doc_ids[i]) in live}, k)
    got = engine_topk(s, q, k)
    assert [g[0] for g in got] == [w[0] for w in want], (state, clause, words, k)
    np.testing.assert_allclose([g[1] for g in got], [w[1] for w in want], rtol=1e-12)


def test_single_should_equals_bare_term(blockmax_states):
    for s in blockmax_states.values():
        for t in ["the", "w00042", "w01000", "missingterm"]:
            for k in (10, 100):
                bare = s.search({"query": {"term": {"text": t}}, "limit": k})
                one = s.search({"query": {"bool": {"should": [{"term": {"text": t}}]}},
                                "limit": k})
                assert one["hits"] == bare["hits"], t
                assert one["docs"] == bare["docs"], t


def test_conjunction_skip_exact_and_prunes(ray_session):
    """must-AND of a rare and a hot term equals the per-term evaluations
    intersected by hand, through the scorer and the public search."""
    root = tempfile.mkdtemp(prefix="toshi_and_")
    build_index(pages_dataset(3000, parallelism=2), page_schema(), root,
                docs_per_segment=3000)
    s = Searcher(root, distributed=False)
    snap = s._pin()
    scorer = snap.pool[0][1]
    q = {"bool": {"must": [{"term": {"text": "w01000"}}, {"term": {"text": "the"}}]}}
    plan = s._plan({"query": q}, snap.schema).query
    stats = snap.stats([plan])
    # expected result: per-term exhaustive evals intersected by hand
    a = scorer._eval(plan.must[0], stats, [0])
    b = scorer._eval(plan.must[1], stats, [0])
    common, ia, ib = np.intersect1d(a[0], b[0], assume_unique=True, return_indices=True)
    want_ids, want_scores = common, a[1][ia] + b[1][ib]

    got_ids, got_scores, _ = scorer._eval(plan, stats, [0])
    assert got_ids.tolist() == want_ids.tolist()
    np.testing.assert_allclose(got_scores, want_scores, rtol=1e-12)
    # and through the public search API
    r = s.search({"query": q, "limit": 5})
    order = np.lexsort((want_ids, -want_scores))[:5]
    assert [d["doc"]["doc_id"] for d in r["docs"]] == want_ids[order].tolist()


def test_conjunction_stops_reading_once_empty(ray_session, monkeypatch):
    """In a segment where the two rarest musts share no doc, the
    conjunction returns before it reads the hottest must's postings or a
    range must's docvalues; a clause it skips still fails the query on
    a schema error."""
    import pyarrow as pa
    import ray

    from toshi_ray.query import QueryError
    from toshi_ray.segments import SegmentReader

    n = 400
    texts = ["hot" + (" ra" if i < 5 else "") + (" rb" if 10 <= i < 15 else "")
             + (" rc" if i < 12 else "") for i in range(n)]
    tbl = pa.table({"doc_id": pa.array(range(n), pa.uint64()), "text": texts,
                    "n": pa.array(range(n), pa.uint64())})
    root = tempfile.mkdtemp(prefix="toshi_and_empty_")
    build_index(ray.data.from_arrow(tbl), Schema.build(
        FieldDef("doc_id", "u64", fast=True), FieldDef("text", "text"),
        FieldDef("n", "u64", fast=True)), root, docs_per_segment=n)
    s = Searcher(root, distributed=False)

    terms_read, columns_read = [], []
    postings, docvalues = SegmentReader.postings_for_terms, SegmentReader.docvalues

    def spy_postings(self, field, terms, columns=None):
        terms_read.extend(terms)
        return postings(self, field, terms, columns)

    def spy_docvalues(self, columns=None):
        columns_read.extend(columns or ["*"])
        return docvalues(self, columns)

    monkeypatch.setattr(SegmentReader, "postings_for_terms", spy_postings)
    monkeypatch.setattr(SegmentReader, "docvalues", spy_docvalues)
    T = lambda t: {"term": {"text": t}}  # noqa: E731
    rng = {"range": {"n": {"gte": 0, "lte": n}}}

    # sanity: each must matches on its own, and ra ∧ rc does too
    assert s.count({"query": T("ra")}) == 5 and s.count({"query": rng}) == n
    assert s.count({"query": {"bool": {"must": [T("rc"), T("ra"), T("hot")]}}}) == 5
    terms_read.clear()
    columns_read.clear()

    assert s.count({"query": {"bool": {"must": [T("hot"), T("ra"), T("rb")]}}}) == 0
    assert "hot" not in terms_read and {"ra", "rb"} <= set(terms_read)
    assert s.count({"query": {"bool": {"must": [rng, T("ra"), T("rb")],
                                       "should": [T("hot")], "must_not": [rng]}}}) == 0
    assert "n" not in columns_read and "*" not in columns_read
    assert "hot" not in terms_read
    # schema errors in skipped clauses still fail the query
    for skipped, error in [({"term": {"asdf": "x"}}, "Unknown field: asdf"),
                           ({"range": {"text": {"gte": 1}}}, "only supported for i64 and u64"),
                           ({"range": {"n": {"gte": -1}}}, "expected u64")]:
        with pytest.raises(QueryError, match=error):
            s.count({"query": {"bool": {"must": [T("ra"), T("rb")], "should": [skipped]}}})
        with pytest.raises(QueryError, match=error):
            s.count({"query": {"bool": {"must": [T("ra"), T("rb"), skipped]}}})


def _py_lev(a: str, b: str, transposition: bool) -> int:
    """Independent reference Levenshtein (test-local, not engine code)."""
    prev2, prev = None, list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, 1):
            cur[j] = min(cur[j - 1] + 1, prev[j] + 1, prev[j - 1] + (ca != cb))
            if transposition and i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                cur[j] = min(cur[j], prev2[j - 2] + 1)
        prev2, prev = prev, cur
    return prev[len(b)]


def test_reference_query_set_rank_identity(searcher, oracle):
    """FIXTURES.md §F6: the fixed query set in tests/queries.json,
    rank-identical (scored kinds) / set-identical (const-score kinds)."""
    import json as _json
    import os
    import re as _re

    with open(os.path.join(os.path.dirname(__file__), "queries.json")) as f:
        qs = _json.load(f)

    def ids_of(q, k=10_000):
        return sorted(int(i) for i in searcher.match_doc_ids({"query": q}))

    for q in qs["term"]:
        t = q["term"]["text"]
        got = engine_topk(searcher, q, 30)
        want = oracle.topk(oracle.term_scores("text", t), 30)
        assert got == [(d, pytest.approx(s, rel=1e-12)) for d, s in want], t

    for q in qs["phrase"]:
        terms = q["phrase"]["text"]["terms"]
        got = engine_topk(searcher, q, 30)
        want = oracle.topk(oracle.phrase_scores("text", terms), 30)
        assert [g[0] for g in got] == [w[0] for w in want], terms
        np.testing.assert_allclose([g[1] for g in got], [w[1] for w in want], rtol=1e-12)

    all_terms = set(oracle.postings["text"])

    for q in qs["fuzzy"]:
        spec = q["fuzzy"]["text"]
        matched = {t for t in all_terms
                   if _py_lev(t, spec["value"], spec["transposition"]) <= spec["distance"]}
        want = sorted({int(oracle.doc_ids[i]) for t in matched
                       for i, _, _ in oracle.postings["text"][t]})
        assert ids_of(q) == want, spec

    for q in qs["regex"]:
        pat = _re.compile(q["regex"]["text"])
        matched = {t for t in all_terms if pat.fullmatch(t)}
        want = sorted({int(oracle.doc_ids[i]) for t in matched
                       for i, _, _ in oracle.postings["text"][t]})
        assert ids_of(q) == want, q

    for q in qs["range"]:
        b = q["range"]["doc_id"]
        lo = b.get("gt", b.get("gte", -1) - 1) + 1 if ("gt" in b or "gte" in b) else 0
        hi = b.get("lt", b.get("lte", 10**18) + 1) - 1 if ("lt" in b or "lte" in b) else 10**18
        want = [d for d in range(N_DOCS) if lo <= d <= hi]
        assert ids_of(q) == want, b

    for q in qs["bool"]:
        spec = q["bool"]
        def scores_for(sub):
            return oracle.term_scores("text", sub["term"]["text"])
        musts = [scores_for(s) for s in spec.get("must", [])]
        shoulds = [scores_for(s) for s in spec.get("should", [])]
        nots = [scores_for(s) for s in spec.get("must_not", [])]
        if musts:
            docs = set(musts[0])
            for m in musts[1:]:
                docs &= set(m)
        else:
            docs = set().union(*[set(s) for s in shoulds])
        for n_ in nots:
            docs -= set(n_)
        comb = {i: sum(m.get(i, 0.0) for m in musts) + sum(s.get(i, 0.0) for s in shoulds)
                for i in docs}
        got = engine_topk(searcher, q, 30)
        want = oracle.topk(comb, 30)
        assert [g[0] for g in got] == [w[0] for w in want], spec
        np.testing.assert_allclose([g[1] for g in got], [w[1] for w in want], rtol=1e-12)


def test_partial_build_resume_reuses_segments(ray_session):
    """north_rule resumability: after losing the manifest mid-build, a
    rerun must reuse finished segment dirs (idempotent writes) and only
    republish the manifest."""
    import json
    import os

    root = tempfile.mkdtemp(prefix="toshi_partial_")
    build_index(pages_dataset(300, parallelism=3), page_schema(), root,
                docs_per_segment=100)
    seg_dir = os.path.join(root, "segments")
    segs = sorted(os.listdir(seg_dir))
    assert len(segs) == 3
    # simulate a crash before commit: manifest lost, one partition unfinished
    os.remove(os.path.join(root, "manifest.json"))
    import shutil

    shutil.rmtree(os.path.join(seg_dir, segs[1]))
    mtimes = {s: os.path.getmtime(os.path.join(seg_dir, s, "meta.json"))
              for s in (segs[0], segs[2])}

    m = build_index(pages_dataset(300, parallelism=3), page_schema(), root,
                    docs_per_segment=100)
    assert sorted(s["name"] for s in m["segments"]) == segs
    for s, old in mtimes.items():  # finished partitions were NOT rewritten
        assert os.path.getmtime(os.path.join(seg_dir, s, "meta.json")) == old
    searcher = Searcher(root, distributed=False)
    assert searcher.count(None) == 300


def test_log_merge_policy_buckets():
    """Tantivy LogMergePolicy semantics (reference config 8/10k/0.75):
    segments in the same log-size level merge once the level holds
    min_merge_size of them; everything under min_layer_size shares the
    bottom level."""
    from toshi_ray.pipelines.merge import log_merge_candidates

    small = [{"name": f"s{i}", "num_docs": 100 + i} for i in range(8)]
    assert log_merge_candidates(small) == [[s["name"] for s in small]]
    # 7 small segments: below min_merge_size → no candidates
    assert log_merge_candidates(small[:7]) == []
    # two distinct levels, each with 8 members, merge independently
    big = [{"name": f"b{i}", "num_docs": 3_000_000 + i} for i in range(8)]
    cands = log_merge_candidates(small + big)
    assert sorted(map(len, cands)) == [8, 8]
    names = {n for c in cands for n in c}
    assert names == {s["name"] for s in small + big}
    # a level with 8 small + a lone huge segment: only the small level merges
    cands = log_merge_candidates(small + big[:1])
    assert cands == [[s["name"] for s in small]]


def test_maybe_merge_applies_policy(ray_session):
    """maybe_merge consolidates every candidate bucket and publishes a
    manifest whose doc count is unchanged."""
    from toshi_ray.pipelines.build import load_manifest
    from toshi_ray.pipelines.merge import maybe_merge

    root = tempfile.mkdtemp(prefix="toshi_policy_")
    build_index(pages_dataset(900, parallelism=3), page_schema(), root,
                docs_per_segment=100)  # 9 segments, all bottom level
    before = load_manifest(root)
    assert len(before["segments"]) >= 8
    merged = maybe_merge(root)
    assert len(merged) == 1  # one bucket fired
    after = load_manifest(root)
    assert len(after["segments"]) < len(before["segments"])
    assert sum(s["num_docs"] for s in after["segments"]) == 900
    s = Searcher(root, distributed=False)
    assert s.n_docs == 900
    assert s.count({"query": {"term": {"text": "w00042"}}}) > 0


def test_log_merge_level_band_semantics():
    """Bands are anchored at each level's largest segment with width
    level_log_size in log2 space (tantivy semantics) — a fixed grid
    would split 1.1M/2.0M differently."""
    from toshi_ray.pipelines.merge import log_merge_candidates

    # 8 segments spread within one 0.75-wide band from the head → merge
    head = 2_000_000
    close = [{"name": f"c{i}", "num_docs": int(head / (1.06 ** i))} for i in range(8)]
    assert log_merge_candidates(close) == [[s["name"] for s in close]]
    # a segment more than level_log_size below the head opens a new level
    far = [{"name": "far", "num_docs": int(head / 2.0)}]  # 1.0 > 0.75 below
    cands = log_merge_candidates(close[:1] * 1 + far * 1 + close[1:])
    # 7 close + head in band one... construct explicitly: head + 7 close are
    # within 0.42 of head; far sits 1.0 below head → two levels, neither full
    assert log_merge_candidates([close[0]] + far) == []


def test_zone_map_prunes_disjoint_segments(ray_session, monkeypatch):
    """Per-segment [min, max] zone maps: a range / numeric-term query
    whose bounds are disjoint with a segment's fast-field bounds must
    skip that segment's docvalues entirely (no data-page reads)."""
    import toshi_ray.segments as segments

    root = tempfile.mkdtemp(prefix="toshi_zone_")
    build_index(pages_dataset(400, parallelism=4), page_schema(), root,
                docs_per_segment=100)
    s = Searcher(root, distributed=False)
    assert len(s.segments) == 4
    for seg in s.segments:
        z = seg["fastfield_stats"]["doc_id"]
        assert z == [seg["min_doc_id"], seg["max_doc_id"], seg["num_docs"]]

    reads: list[str] = []
    orig = segments.pq.read_table

    def spy(path, *a, **kw):
        reads.append(str(path))
        return orig(path, *a, **kw)

    monkeypatch.setattr(segments.pq, "read_table", spy)
    # range inside ONE segment's doc-id span → exactly one segment's
    # docvalues open
    ids = s.match_doc_ids({"query": {"range": {"doc_id": {"gte": 150, "lt": 180}}}})
    assert sorted(int(i) for i in ids) == list(range(150, 180))
    dv_dirs = {p for p in reads if "docvalues" in p}
    assert len(dv_dirs) == 1, dv_dirs
    # range above every segment → zero reads of any kind
    reads.clear()
    ids = s.match_doc_ids({"query": {"range": {"doc_id": {"gte": 5000}}}})
    assert ids.size == 0 and reads == []
    # numeric-term equality outside the corpus → zero reads
    ids = s.match_doc_ids({"query": {"term": {"doc_id": 5001}}})
    assert ids.size == 0 and reads == []
    # sort-by top-k: the zmax-desc visit order fills k rows from the
    # top segment, and the running-kth threshold prunes the other three
    reads.clear()
    r = s.search({"query": None, "sort_by": "doc_id", "limit": 5})
    assert [d["doc"]["doc_id"] for d in r["docs"]] == [399, 398, 397, 396, 395]
    assert len({p for p in reads if "docvalues" in p}) == 1
    monkeypatch.setattr(segments.pq, "read_table", orig)

    # correctness guard: a straddling range with stats stripped gives the
    # identical answer (pruning is an optimization, never a filter)
    body = {"query": {"range": {"doc_id": {"gte": 95, "lte": 205}}}}
    with_stats = sorted(int(i) for i in s.match_doc_ids(body))
    assert s._groups, "groups must be materialized by the queries above"
    for _, scorer in s._groups:
        for r in scorer.readers:
            r.meta.pop("fastfield_stats")
    assert sorted(int(i) for i in s.match_doc_ids(body)) == with_stats
    assert with_stats == list(range(95, 206))


def _same_on_one_segment_groups(s: Searcher, bodies: list[dict]) -> None:
    """Each body gives the same response over Ray scorer groups of one
    segment each as in-process, where one group walks every segment."""
    n = len(s.segments)
    remote = Searcher(s.index_root, distributed=True, parallelism=n)
    try:
        for body in bodies:
            # compared as repr: a NULL sort value's score is NaN, never equal to itself
            assert repr(remote.search(body)) == repr(s.search(body)), body
        assert len(remote._groups) == n
    finally:
        remote.close()


def test_sort_prune_respects_tombstones(ray_session):
    """A match-all sort's pruning counts LIVE docs only: with 3 of the
    top segment's 100 docs tombstoned and k=100, the k-th row comes
    from the next segment down, which a bound taken from the top
    segment's raw doc count would prune, silently dropping 3 rows."""
    root = tempfile.mkdtemp(prefix="toshi_sort_tomb_")
    build_index(pages_dataset(400, parallelism=4), page_schema(), root,
                docs_per_segment=100)
    for victim in (399, 398, 397):
        assert delete_by_term(Searcher(root, distributed=False), "doc_id", victim) == 1
    s = Searcher(root, distributed=False)
    body = {"query": None, "sort_by": "doc_id", "limit": 100}
    r = s.search(body)
    got = [d["doc"]["doc_id"] for d in r["docs"]]
    assert got == list(range(396, 296, -1))
    assert len(s.segments) == 4
    _same_on_one_segment_groups(s, [body])


def test_zone_map_survives_merge(ray_session):
    """A merged segment's zone maps come from its docvalues part footers
    through the same `finish_segment` as a built one's; pruning +
    results stay exact post-merge."""
    root = tempfile.mkdtemp(prefix="toshi_zone_merge_")
    build_index(pages_dataset(400, parallelism=4), page_schema(), root,
                docs_per_segment=50)
    merge_segments(root)
    s = Searcher(root, distributed=False)
    metas = s.segments
    assert any("merged" in m["name"] for m in metas)
    for m in metas:
        z = m["fastfield_stats"]["doc_id"]
        assert z[0] == m["min_doc_id"] and z[1] == m["max_doc_id"]
        # merged segments carry the valid-count too (footer null counts)
        assert len(z) == 3 and z[2] == m["num_docs"]
    ids = s.match_doc_ids({"query": {"range": {"doc_id": {"gte": 150, "lt": 180}}}})
    assert sorted(int(i) for i in ids) == list(range(150, 180))


def test_zone_maps_equal_the_docvalues_fresh_merged_and_after_delete(ray_session):
    """Every segment's zone maps are [min, max, non-null count] of its
    docvalues, and absent exactly when a column has no value: fresh, after
    a full merge, and after a merge that applies a delete. ``val`` is an
    optional i64, all null in one source (its merged zone map must still
    cover the other sources); ``big`` is a u64 above 2^63."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from toshi_ray.pipelines.build import SCHEMA_FILE, load_manifest, publish_manifest
    from toshi_ray.segments import (
        DOCVALUES_FILE,
        build_segment_tables,
        segment_parts,
        write_segment,
    )

    schema = Schema.build(
        FieldDef("doc_id", "u64", fast=True),
        FieldDef("val", "i64", fast=True),
        FieldDef("big", "u64", fast=True),
        FieldDef("text", "text"),
    )
    gone = {0, 60, 61, 199}  # the lowest id, a max ``val`` and the max ``big``
    ids = range(200)  # Python ints: 2**63 + a numpy int64 would round through float
    corpus = pa.table({
        "doc_id": pa.array(ids, pa.uint64()),
        "val": pa.array([None if i < 50 or i % 7 == 3 else (i % 61) - 30 for i in ids],
                        pa.int64()),
        "big": pa.array([None if i % 5 == 1 else 2**63 + 3 * i for i in ids], pa.uint64()),
        "text": [f"doc {'gone' if i in gone else 'kept'}" for i in ids],
    })

    def build() -> str:
        root = tempfile.mkdtemp(prefix="toshi_zone_parity_")
        os.makedirs(os.path.join(root, "segments"))
        with open(os.path.join(root, SCHEMA_FILE), "w") as f:
            f.write(schema.dumps())
        publish_manifest(root, [
            write_segment(os.path.join(root, "segments"),
                          *build_segment_tables(corpus.slice(lo, 50), schema))
            for lo in range(0, 200, 50)])
        return root

    def check(root: str, n_segments: int) -> None:
        segs = load_manifest(root)["segments"]
        assert len(segs) == n_segments
        for seg in segs:
            dv = pq.read_table(segment_parts(os.path.join(root, "segments", seg["name"]),
                                             DOCVALUES_FILE))
            want = {}
            for col in ("doc_id", "val", "big"):
                vals = [v for v in dv[col].to_pylist() if v is not None]
                if vals:
                    want[col] = [min(vals), max(vals), len(vals)]
            assert seg["fastfield_stats"] == want, seg["name"]
            assert [seg["min_doc_id"], seg["num_docs"]] == [want["doc_id"][0], dv.num_rows]

    root = build()
    check(root, 4)
    assert "val" not in load_manifest(root)["segments"][0]["fastfield_stats"]
    merge_segments(root)
    check(root, 1)
    root = build()
    assert delete_by_term(Searcher(root, distributed=False), "text", "gone") == len(gone)
    merge_segments(root)
    check(root, 1)
    (seg,) = load_manifest(root)["segments"]
    assert seg["min_doc_id"] == 1 and seg["max_doc_id"] == 199
    assert seg["fastfield_stats"]["big"][1] == 2**63 + 3 * 198


def test_finish_segment_reads_a_column_whose_footer_has_no_bounds(tmp_path):
    """A docvalues part written without column statistics still gets
    exact zone maps: `finish_segment` reads that column of that part."""
    import pyarrow.parquet as pq

    from toshi_ray.segments import (
        DOCVALUES_FILE,
        POSTINGS_FILE,
        build_segment_tables,
        finish_segment,
        write_segment,
    )

    meta = write_segment(str(tmp_path), *build_segment_tables(
        make_pages_batch(np.arange(5, 105)), page_schema()))
    seg = tmp_path / meta["name"]
    pq.write_table(pq.read_table(seg / DOCVALUES_FILE), seg / DOCVALUES_FILE,
                   write_statistics=False)
    assert pq.read_metadata(seg / DOCVALUES_FILE).row_group(0).column(0).statistics is None
    terms = pq.read_table(seg / POSTINGS_FILE, columns=["field", "term"])
    again = finish_segment(str(seg), {"name": meta["name"]}, terms)
    assert again["fastfield_stats"] == meta["fastfield_stats"] == {"doc_id": [5, 104, 100]}
    assert (again["num_docs"], again["min_doc_id"]) == (100, 5)
    assert again["term_bloom"] == meta["term_bloom"]


def test_zone_map_numeric_field(ray_session, monkeypatch):
    """Zone maps on a non-doc_id i64 fast field, correlated with the
    segment layout: disjoint segments are skipped, straddling ranges
    stay exact."""
    import pyarrow as pa
    import ray.data

    import toshi_ray.segments as segments

    n = 300
    tbl = pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.uint64)),
        "val": pa.array(np.arange(n, dtype=np.int64) * 3 - 50),
        "text": pa.array([f"doc number {i}" for i in range(n)]),
    })
    schema = Schema.build(
        FieldDef("doc_id", "u64", fast=True),
        FieldDef("val", "i64", fast=True),
        FieldDef("text", "text"),
    )
    root = tempfile.mkdtemp(prefix="toshi_zone_val_")
    build_index(ray.data.from_arrow(tbl), schema, root, docs_per_segment=100)
    s = Searcher(root, distributed=False)

    reads: list[str] = []
    orig = segments.pq.read_table

    def spy(path, *a, **kw):
        reads.append(str(path))
        return orig(path, *a, **kw)

    monkeypatch.setattr(segments.pq, "read_table", spy)
    # val in [400, 500] → docs 150..183 → only the middle segment
    ids = s.match_doc_ids({"query": {"range": {"val": {"gte": 400, "lte": 500}}}})
    expect = [i for i in range(n) if 400 <= i * 3 - 50 <= 500]
    assert sorted(int(i) for i in ids) == expect
    assert len({p for p in reads if "docvalues" in p}) == 1
    # exclusive bounds at the exact segment edge: seg0 max val = 99*3-50
    # = 247; gt=247 must exclude seg0, lte=250 keeps seg1 (min val 250)
    reads.clear()
    ids = s.match_doc_ids({"query": {"range": {"val": {"gt": 247, "lte": 250}}}})
    assert sorted(int(i) for i in ids) == [100]  # only val 250 (doc 100)
    # seg1's val column is already in the reader's partial cache from the
    # first query; seg0/seg2 are zone-pruned — so no new reads at all
    assert [p for p in reads if "docvalues" in p] == []
    # fully disjoint exclusive window between segments → all pruned
    reads.clear()
    ids = s.match_doc_ids({"query": {"range": {"val": {"gt": 247, "lt": 250}}}})
    assert ids.size == 0 and reads == []


def test_sort_prune_null_values(ray_session, monkeypatch):
    """NULL sort values sort LAST and never bound the pruning: a
    segment of 100 docs where only ONE carries the sort field has a
    tight zone map ([1000, 1000]) but just one valued doc, so it places
    one row; a k=10 sort must still read the segment holding the real
    runners-up, and only a k=1 sort may skip it."""
    import pyarrow as pa
    import ray.data

    from toshi_ray.segments import SegmentReader

    # segment A: docs 0..99, val null except doc 7 -> 1000
    # segment B: docs 100..199, val 500..599
    vals = [None] * 100 + list(range(500, 600))
    vals[7] = 1000
    tbl = pa.table({
        "doc_id": pa.array(np.arange(200, dtype=np.uint64)),
        "val": pa.array(vals, type=pa.int64()),
        "text": pa.array([f"doc number {i}" for i in range(200)]),
    })
    schema = Schema.build(
        FieldDef("doc_id", "u64", fast=True),
        FieldDef("val", "i64", fast=True),
        FieldDef("text", "text"),
    )
    root = tempfile.mkdtemp(prefix="toshi_null_sort_")
    build_index(ray.data.from_arrow(tbl), schema, root, docs_per_segment=100)
    s = Searcher(root, distributed=False)
    za = s.segments[0]["fastfield_stats"]["val"]
    assert za == [1000, 1000, 1]
    seg_a, seg_b = (g["name"] for g in s.segments)
    # k=10: segment B is read (A holds only 1 valued doc)
    r = s.search({"query": None, "sort_by": "val", "limit": 10})
    got = [d["doc"]["doc_id"] for d in r["docs"]]
    assert got == [7] + list(range(199, 190, -1))
    # k=1: A's single valued doc places the one row, so B is never read
    seen = []
    docvalues = SegmentReader.docvalues

    def spy(self, columns):
        seen.append((os.path.basename(self.dir), tuple(columns)))
        return docvalues(self, columns)

    monkeypatch.setattr(SegmentReader, "docvalues", spy)
    r = s.search({"query": None, "sort_by": "val", "limit": 1})
    assert [d["doc"]["doc_id"] for d in r["docs"]] == [7]
    assert (seg_a, ("val",)) in seen and not [c for name, c in seen if name == seg_b]
    monkeypatch.undo()
    # nulls last, doc_id ascending among them; past-the-end k is exact
    r = s.search({"query": None, "sort_by": "val", "limit": 200})
    got = [d["doc"]["doc_id"] for d in r["docs"]]
    valued = [7] + list(range(199, 99, -1))
    assert got == valued + [i for i in range(100) if i != 7]
    # limit 0 returns no rows (and must not crash the prune threshold)
    r = s.search({"query": None, "sort_by": "val", "limit": 0})
    assert r["hits"] == 0 and r["docs"] == []
    _same_on_one_segment_groups(s, [{"query": None, "sort_by": "val", "limit": k}
                                    for k in (10, 1, 200, 0)])


def test_fastfield_reads_are_column_pruned(ray_session, monkeypatch):
    """Range and sort queries must fetch ONLY the fast-field columns
    they touch from docvalues — never the whole docvalues table, and
    (for pure range/all-sort queries) no postings payloads at all."""
    import json
    import os
    import struct

    import pyarrow as pa

    import toshi_ray.segments as segments

    root = tempfile.mkdtemp(prefix="toshi_prune_")
    build_index(pages_dataset(400, parallelism=2), page_schema(), root,
                docs_per_segment=200)

    reads: list[tuple[str, tuple | None]] = []
    orig = segments.pq.read_table

    def spy(path, *a, columns=None, **kw):
        reads.append((str(path), tuple(columns) if columns is not None else None))
        if columns is not None:
            return orig(path, *a, columns=list(columns), **kw)
        return orig(path, *a, **kw)

    monkeypatch.setattr(segments.pq, "read_table", spy)
    try:
        s = Searcher(root, distributed=False)
        ids = s.match_doc_ids({"query": {"range": {"doc_id": {"gte": 5, "lt": 50}}}})
        assert len(ids) == 45
        r = s.search({"query": None, "sort_by": "doc_id", "limit": 7})
        assert [d["doc"]["doc_id"] for d in r["docs"]] == list(range(399, 392, -1))
    finally:
        monkeypatch.setattr(segments.pq, "read_table", orig)

    dv_reads = [(p, c) for p, c in reads if "docvalues" in os.path.basename(p)
                or "docvalues" in p]
    post_reads = [(p, c) for p, c in reads if "postings" in p]
    assert dv_reads, "queries must have read docvalues"
    for p, c in dv_reads:
        assert c is not None, f"unprojected docvalues read: {p}"
        assert set(c) <= {"doc_id"}, f"over-wide docvalues read: {c}"
    # a pure range / match-all-sort query never opens postings payloads
    assert post_reads == [], post_reads
    # doc retrieval for the sort's top-k hits the store — that's the
    # requested payload, not waste — and decompresses exactly the frames
    # holding the 7 winners: each part is its zstd frames, cut by the
    # footer's offsets (before the raw sizes, the schema bytes and the
    # 20-byte trailer), each frame one JSON doc per line
    readers = [r for _, g in s._groups for r in g.readers]
    holding = 0
    for r in readers:
        for path in segments.segment_parts(r.dir, segments.STORE_FILE):
            data = open(path, "rb").read()
            _, n_frames, n_schema, _ = struct.unpack("<QII4s", data[-20:])
            foot = len(data) - 20 - n_schema - 12 * n_frames - 8
            offsets = np.frombuffer(data, "<u8", n_frames + 1, foot).tolist()
            raw = np.frombuffer(data, "<u4", n_frames, foot + 8 * (n_frames + 1)).tolist()
            for a, b, n in zip(offsets[:-1], offsets[1:], raw):
                frame = pa.Codec("zstd").decompress(data[a:b], decompressed_size=n, asbytes=True)
                ids = {json.loads(line)["doc_id"] for line in frame.split(b"\n")}
                holding += bool(ids & set(range(393, 400)))
    frames_read = sum(r.store_frames_read for r in readers)
    assert frames_read == holding > 0, (frames_read, holding)


def test_copy_only_storage_backend(ray_session):
    """Build → merge → search with the object-store-shaped backend
    (no hard links, copies only — toshi_ray.storage.CopyOnlyStorage):
    results must be identical to the hard-link default. Pins the
    storage shim every publish/link site routes through."""
    import os

    from toshi_ray.storage import CopyOnlyStorage, LocalFileStorage, set_storage

    prev = set_storage(CopyOnlyStorage())
    try:
        root = tempfile.mkdtemp(prefix="toshi_copyonly_")
        build_index(pages_dataset(600, parallelism=2), page_schema(), root,
                    docs_per_segment=100)
        merge_segments(root, hot_df_threshold=300, shard_span=400)
        s = Searcher(root, distributed=False)
        res_copy = {t: engine_topk(s, {"term": {"text": t}}) for t in QUERY_TERMS}
    finally:
        set_storage(prev)

    root2 = tempfile.mkdtemp(prefix="toshi_hardlink_")
    assert isinstance(prev, LocalFileStorage)
    build_index(pages_dataset(600, parallelism=2), page_schema(), root2,
                docs_per_segment=100)
    merge_segments(root2, hot_df_threshold=300, shard_span=400)
    s2 = Searcher(root2, distributed=False)
    for t, want in res_copy.items():
        assert engine_topk(s2, {"term": {"text": t}}) == want, t
    # the copy-only run produced real (non-hard-linked) side files
    merged = [n for n in os.listdir(os.path.join(root, "segments"))
              if n.startswith("seg-merged")]
    assert merged, "merge must have published a segment"
    for dirpath, _dirs, files in os.walk(os.path.join(root, "segments", merged[0])):
        for f in files:
            assert os.stat(os.path.join(dirpath, f)).st_nlink == 1, (dirpath, f)


def test_merge_resumes_from_partition_checkpoints(ray_session):
    """A merge rerun after a simulated crash (manifest rolled back,
    final segment dir lost) must reuse every finished partition
    checkpoint and produce identical search results."""
    import json
    import os
    import shutil

    from toshi_ray.pipelines.build import load_manifest

    root = tempfile.mkdtemp(prefix="toshi_resume_merge_")
    build_index(pages_dataset(800, parallelism=2), page_schema(), root,
                docs_per_segment=100)
    mpath = os.path.join(root, "manifest.json")
    manifest_before = open(mpath).read()

    merge_segments(root, hot_df_threshold=300, shard_span=400)
    merged = [s for s in load_manifest(root)["segments"]
              if s["name"].startswith("seg-merged")][0]
    assert merged["metrics"]["parts_resumed"] == 0
    assert merged["metrics"]["parts"] > 0
    s1 = Searcher(root, distributed=False)
    res1 = {t: engine_topk(s1, {"term": {"text": t}}) for t in QUERY_TERMS}

    # simulated crash BEFORE publish: old manifest back, final dir gone,
    # checkpoints intact
    shutil.rmtree(os.path.join(root, "segments", merged["name"]))
    with open(mpath, "w") as f:
        f.write(manifest_before)

    merge_segments(root, hot_df_threshold=300, shard_span=400)
    merged2 = [s for s in load_manifest(root)["segments"]
               if s["name"].startswith("seg-merged")][0]
    assert merged2["name"] == merged["name"]  # content-keyed identity
    assert merged2["metrics"]["parts_resumed"] == merged2["metrics"]["parts"]
    s2 = Searcher(root, distributed=False)
    for t, want in res1.items():
        assert engine_topk(s2, {"term": {"text": t}}) == want, t

    # gc reclaims the checkpoints
    from toshi_ray.pipelines.merge import gc_segments

    gc_segments(root)
    ck = os.path.join(root, ".merge-ckpt")
    assert (not os.path.isdir(ck)) or os.listdir(ck) == []
    # fresh checkpoints survive a default-grace gc (in-flight protection)


def _postings_by_term(tables, tombs=np.empty(0, np.uint64)) -> dict:
    """(field, term) → (doc ids, tfs, flat positions): every row of the
    key concatenated in doc order, tombstoned postings dropped, keys
    left with no posting dropped. Also checks each row's first doc
    against its decoded list."""
    import pyarrow as pa

    from toshi_ray import codecs
    from toshi_ray.segments import decode_positions, decode_postings

    t = pa.concat_tables(tables).sort_by(
        [("field", "ascending"), ("term", "ascending"), ("first_doc", "ascending")]
    ).combine_chunks()
    doc_ids, tfs, offs = decode_postings(t)
    first = t["first_doc"].to_numpy(zero_copy_only=False)
    assert np.array_equal(first, doc_ids[offs[:-1]])
    has_pos = t["positions"].is_valid().to_numpy(zero_copy_only=False)
    pos_rows = np.nonzero(has_pos)[0]
    pos_tfs = codecs.take_ranges(tfs, offs[:-1][pos_rows], np.diff(offs)[pos_rows])
    flat_pos, _ = decode_positions(t.take(pa.array(pos_rows)), pos_tfs)
    pos_counts = np.where(np.repeat(has_pos, np.diff(offs)), tfs.astype(np.int64), 0)
    pos_offs = np.concatenate([[0], np.cumsum(pos_counts)])
    keep = ~np.isin(doc_ids, tombs)
    fields = t["field"].to_pylist()
    terms = t["term"].to_pylist()
    out: dict = {}
    row = 0
    while row < t.num_rows:
        end = row
        while end < t.num_rows and (fields[end], terms[end]) == (fields[row], terms[row]):
            end += 1
        idx = np.arange(offs[row], offs[end])[keep[offs[row]:offs[end]]]
        if idx.size:
            out[(fields[row], terms[row])] = (
                doc_ids[idx], tfs[idx],
                codecs.take_ranges(flat_pos, pos_offs[idx], pos_counts[idx]),
            )
        row = end
    return out


@pytest.mark.parametrize("hot_df_threshold,shard_span", [(100_000, 1_000_000), (50, 150)])
@pytest.mark.parametrize("with_delete", [False, True, "hot_shard", "spread"])
def test_merge_equals_sources_concatenated_minus_tombstones(
        ray_session, tmp_path, hot_df_threshold, shard_span, with_delete):
    """The merged postings of every (field, term) are its sources'
    postings concatenated in doc order, minus the tombstoned docs — with
    salting off and on, and with no delete file, a delete by term
    (True), every doc of one 150-doc shard of a hot term deleted
    ("hot_shard": with salting on, that whole group empties) or a seeded
    1% of the docs deleted, one in every source ("spread")."""
    import os

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from toshi_ray.pipelines.build import load_manifest, load_tombstones
    from toshi_ray.pipelines.merge import commit_tombstones
    from toshi_ray.segments import POSTINGS_FILE, decode_postings, segment_parts

    root = str(tmp_path / "ix")
    build_index(pages_dataset(600, parallelism=3), page_schema(), root, docs_per_segment=100)

    def postings(name):
        return [pq.read_table(f) for f in
                segment_parts(os.path.join(root, "segments", name), POSTINGS_FILE)]

    sources = load_manifest(root)["segments"]
    if with_delete is True:
        assert delete_by_term(Searcher(root, distributed=False), "text", "w00050") > 0
    elif with_delete == "hot_shard":
        # the least frequent hot term, and its source rows in one shard
        t = pa.concat_tables(p for s in sources for p in postings(s["name"]))
        t = t.filter(pc.field("field") == "text")
        terms, df = t["term"].to_numpy(zero_copy_only=False), t["df"].to_numpy()
        hot = min(np.unique(terms[df > 50]), key=lambda w: df[terms == w].sum())
        rows = t.filter(pc.field("term") == hot)
        shard = rows["first_doc"].to_numpy() // 150
        emptied = int(shard.max())
        assert shard.min() < emptied
        commit_tombstones(root, decode_postings(rows.filter(pa.array(shard == emptied)))[0])
    elif with_delete == "spread":
        rng = np.random.default_rng(11)
        commit_tombstones(root, np.array(
            [rng.integers(s["min_doc_id"], s["max_doc_id"] + 1) for s in sources], np.uint64))
    manifest = load_manifest(root)
    tombs = load_tombstones(root, manifest)
    assert (tombs.size == 0) == (not with_delete)

    want = _postings_by_term(
        [t for s in manifest["segments"] for t in postings(s["name"])], tombs)
    merge_segments(root, hot_df_threshold=hot_df_threshold, shard_span=shard_span)
    (merged,) = load_manifest(root)["segments"]
    tables = postings(merged["name"])
    got = _postings_by_term(tables)
    assert got.keys() == want.keys()
    for key, (ids, tfs, pos) in want.items():
        g_ids, g_tfs, g_pos = got[key]
        assert np.array_equal(g_ids, ids), key
        assert np.array_equal(g_tfs, tfs), key
        assert np.array_equal(g_pos, pos), key
    if with_delete == "hot_shard" and hot_df_threshold < 100_000:
        hot_rows = pa.concat_tables(tables).filter(
            (pc.field("field") == "text") & (pc.field("term") == hot))
        assert 0 < hot_rows.num_rows and emptied not in hot_rows["shard"].to_pylist()
    salted = max(int(t["shard"].to_numpy().max()) for t in tables if t.num_rows)
    assert (salted > 0) == (hot_df_threshold < 100_000)


def test_merge_reads_its_postings_once_in_sized_blocks(ray_session, monkeypatch):
    """On a 1-CPU cluster, 8 small sources' postings are read as one
    block (Ray's default read gave one or more per file), recorded in the
    merged segment's metrics; hot-term detection runs on the driver, so
    the read dataset sees one map_batches, the tag stage."""
    import ray
    import ray.data

    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1.0})
    real = ray.data.Dataset.map_batches
    calls = []

    def map_batches(self, fn, *args, **kwargs):
        calls.append(fn)
        return real(self, fn, *args, **kwargs)

    monkeypatch.setattr(ray.data.Dataset, "map_batches", map_batches)
    root = tempfile.mkdtemp(prefix="toshi_sized_merge_")
    build_index(pages_dataset(800, parallelism=2), page_schema(), root, docs_per_segment=100)
    calls.clear()
    out = merge_segments(root, hot_df_threshold=50, shard_span=300)
    (merged,) = out["segments"]
    assert len(merged["merged_from"]) == 8
    assert merged["metrics"]["shuffle_input_blocks"] == 1
    assert len(calls) == 1


def test_gc_keeps_resumable_checkpoints(ray_session):
    """gc must NOT discard a crashed merge's checkpoints while every
    source segment is still live/unchanged — a retry (even after a
    scheduled gc with zero grace) resumes all partitions. Once the
    merge publishes and its sources leave the manifest, the same gc
    reclaims the checkpoint immediately."""
    import os
    import shutil

    from toshi_ray.pipelines.build import load_manifest
    from toshi_ray.pipelines.merge import gc_segments

    root = tempfile.mkdtemp(prefix="toshi_gc_resume_")
    build_index(pages_dataset(600, parallelism=2), page_schema(), root,
                docs_per_segment=100)
    mpath = os.path.join(root, "manifest.json")
    manifest_before = open(mpath).read()

    merge_segments(root, hot_df_threshold=300, shard_span=400)
    merged = [s for s in load_manifest(root)["segments"]
              if s["name"].startswith("seg-merged")][0]
    # crash before publish: manifest rolled back, final dir gone,
    # sources live again, checkpoints on disk
    shutil.rmtree(os.path.join(root, "segments", merged["name"]))
    with open(mpath, "w") as f:
        f.write(manifest_before)

    gc_segments(root)  # aggressive scheduled gc
    ck = os.path.join(root, ".merge-ckpt")
    assert os.path.isdir(ck) and os.listdir(ck), "resumable ckpt was gc'ed"

    merge_segments(root, hot_df_threshold=300, shard_span=400)
    merged2 = [s for s in load_manifest(root)["segments"]
               if s["name"].startswith("seg-merged")][0]
    assert merged2["metrics"]["parts_resumed"] == merged2["metrics"]["parts"]

    # after publish the sources are dead → the same gc reclaims it
    gc_segments(root)
    assert (not os.path.isdir(ck)) or os.listdir(ck) == []


def test_merge_checkpoints_invalidate_on_rebuild(ray_session, tmp_path):
    """A leftover merge checkpoint must NOT be resumed after an
    overwrite rebuild that reproduces the same segment names over
    different text — the content-keyed merge identity (file size +
    mtime) invalidates it."""
    import pyarrow as pa
    import ray

    from toshi_ray.pipelines.build import load_manifest

    schema = Schema.build(FieldDef("doc_id", "u64", fast=True),
                          FieldDef("text", "text"))

    def corpus(word):
        return pa.table({
            "doc_id": pa.array(np.arange(400, dtype=np.uint64)),
            "text": [f"{word} tok{i % 7} filler" for i in range(400)],
        })

    root = str(tmp_path / "ck")
    build_index(ray.data.from_arrow(corpus("alpha")).repartition(4), schema,
                root, docs_per_segment=50)
    merge_segments(root)  # completes; its checkpoint dir stays until gc

    build_index(ray.data.from_arrow(corpus("delta")).repartition(4), schema,
                root, overwrite=True, docs_per_segment=50)
    merge_segments(root)
    merged = [s for s in load_manifest(root)["segments"]
              if s["name"].startswith("seg-merged")][0]
    assert merged["metrics"]["parts_resumed"] == 0  # stale ckpt NOT reused
    s = Searcher(root, distributed=False)
    assert s.count({"query": {"term": {"text": "alpha"}}}) == 0
    assert s.count({"query": {"term": {"text": "delta"}}}) == 400


def test_numeric_term_query_with_null_docvalues(ray_session, tmp_path):
    """A doc omitting an optional numeric field stores a null — an
    equality term query must treat null as non-matching, not crash on
    an object-dtype mask."""
    import pyarrow as pa
    import ray

    schema = Schema.build(FieldDef("doc_id", "u64", fast=True),
                          FieldDef("text", "text"),
                          FieldDef("year", "i64", fast=False))
    t = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.uint64()),
        "text": ["has year", "no year here", "same year"],
        "year": pa.array([2020, None, 2020], pa.int64()),
    })
    root = str(tmp_path / "nulls")
    build_index(ray.data.from_arrow(t), schema, root)
    s = Searcher(root, distributed=False)
    r = s.search({"query": {"term": {"year": "2020"}}})
    assert sorted(d["doc"]["doc_id"] for d in r["docs"]) == [0, 2]


def test_limit_zero_returns_empty(ray_session, tmp_path):
    """limit=0 returns zero docs for a term, a union and match-all
    instead of a numpy partition error."""
    import pyarrow as pa
    import ray

    schema = Schema.build(FieldDef("doc_id", "u64", fast=True),
                          FieldDef("text", "text"))
    t = pa.table({"doc_id": pa.array(range(50), pa.uint64()),
                  "text": ["common word here"] * 50})
    root = str(tmp_path / "lim0")
    build_index(ray.data.from_arrow(t), schema, root)
    s = Searcher(root, distributed=False)
    for q in [{"term": {"text": "common"}},
              {"bool": {"should": [{"term": {"text": "common"}},
                                   {"term": {"text": "word"}}]}},
              None]:
        r = s.search({"query": q, "limit": 0})
        assert r["docs"] == [], q


def test_regex_validated_by_executing_engine(ray_session, tmp_path):
    """Regex validity is decided by the EXECUTING engine (Arrow RE2):
    Python-only syntax (lookahead) raises the golden error; RE2-only
    syntax (POSIX classes) is accepted."""
    import pyarrow as pa
    import ray

    from toshi_ray.query import QueryError

    schema = Schema.build(FieldDef("doc_id", "u64", fast=True),
                          FieldDef("text", "text"))
    t = pa.table({"doc_id": pa.array([0, 1], pa.uint64()),
                  "text": ["alpha beta", "gamma delta"]})
    root = str(tmp_path / "re2")
    build_index(ray.data.from_arrow(t), schema, root)
    s = Searcher(root, distributed=False)
    with pytest.raises(QueryError) as e:
        s.search({"query": {"regex": {"text": "foo(?=bar)"}}})
    assert str(e.value).startswith("Error in query execution: 'Invalid regex:")
    # RE2 accepts POSIX character classes Python's `re` rejects
    r = s.search({"query": {"regex": {"text": "[[:alpha:]]+"}}})
    assert r["hits"] == 2


def test_make_snippet_contract():
    """1-based first_pos, start clamp, window width, all-occurrence
    highlight, absent-term sentinel."""
    from toshi_ray.search import make_snippet

    pos, frag = make_snippet("The SPARK engine spark.", "spark")
    assert pos == 5  # 1-based, on the lowercased text
    assert frag == "the <b>spark</b> engine <b>spark</b>."
    # window clamps at text start and cuts at width
    text = "x" * 30 + " spark " + "y" * 200
    pos, frag = make_snippet(text, "spark", context=20, width=40)
    assert pos == 32
    assert frag == text.lower()[11:51].replace("spark", "<b>spark</b>")
    assert make_snippet("no match", "spark") == (0, "")


def test_suggest_prefix_topk(ray_session):
    """Index-backed prefix suggest: df-ranked completions match a
    brute-force tokenization at multiple segment counts, and (like
    Lucene) tombstoned docs still count until a merge."""
    import re
    from collections import Counter

    from toshi_ray.pipelines.merge import delete_by_term
    from toshi_ray.sources.webpages import make_pages_batch

    root = tempfile.mkdtemp(prefix="toshi_sug_")
    build_index(pages_dataset(300, parallelism=2), page_schema(), root,
                docs_per_segment=100)
    s = Searcher(root, distributed=False)

    tbl = make_pages_batch(np.arange(300))
    df = Counter()
    for txt in tbl["text"].to_pylist():
        toks = {w for w in re.split(r"[^0-9a-z]+", txt.lower())
                if w and len(w) < 40 and w.startswith("w0001")}
        df.update(toks)
    want = sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    assert s.suggest("text", "w0001", k=5) == want

    # tombstones do not change df until merge
    victim = want[0][0]
    delete_by_term(Searcher(root, distributed=False), "text", victim)
    s2 = Searcher(root, distributed=False)
    assert s2.suggest("text", "w0001", k=5) == want
