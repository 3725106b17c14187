"""Per-segment term bloom filters (toshi_ray.termbloom): segments that
provably lack every query term are skipped without opening postings —
the textual analogue of the fastfield zone maps, with the same contract
(pruning is an optimization, never a filter)."""

import tempfile

import numpy as np
import pyarrow as pa
import pytest

from toshi_ray import termbloom
from toshi_ray.pipelines.build import build_index
from toshi_ray.pipelines.merge import merge_segments
from toshi_ray.schema import FieldDef, Schema
from toshi_ray.search import Searcher


def test_termbloom_unit():
    terms = [f"term{i}" for i in range(5000)] + ["ünïcode", ""]
    tbl = pa.table({"field": ["body"] * len(terms), "term": terms})
    payload, meta = termbloom.build_term_blooms(tbl)
    bits = np.frombuffer(payload, np.uint8)
    fm = meta["fields"]["body"]
    # zero false negatives, by construction
    assert termbloom.may_contain(bits, fm, terms, meta["k"]).all()
    # false-positive rate near the design point (~0.8% at 10 bits/term)
    absent = [f"absent{i}" for i in range(5000)]
    fpr = termbloom.may_contain(bits, fm, absent, meta["k"]).mean()
    assert fpr < 0.03, fpr
    # per-field isolation: a term of field a is (almost surely) not in b
    tbl2 = pa.table({"field": ["a", "a", "b"], "term": ["xx", "yy", "zz"]})
    p2, m2 = termbloom.build_term_blooms(tbl2)
    b2 = np.frombuffer(p2, np.uint8)
    assert termbloom.may_contain(b2, m2["fields"]["a"], ["xx", "yy"], m2["k"]).all()
    assert termbloom.may_contain(b2, m2["fields"]["b"], ["zz"], m2["k"]).all()
    assert not termbloom.may_contain(b2, m2["fields"]["b"], ["xx"], m2["k"]).any()
    # empty term dict → no bloom (readers then simply don't prune)
    assert termbloom.build_term_blooms(tbl2.slice(0, 0)) is None


def _per_field_blooms(postings: pa.Table) -> tuple[bytes, dict]:
    """The oracle: each field's distinct terms filtered out of the whole
    term column, one field at a time, in first-appearance field order."""
    import pyarrow.compute as pc

    fields = postings["field"].combine_chunks()
    terms = postings["term"].combine_chunks()
    parts, meta, off = [], {"k": termbloom.BLOOM_K, "file": termbloom.TERMBLOOM_FILE,
                            "fields": {}}, 0
    for f in pc.unique(fields).to_pylist():
        ft = pc.unique(terms.filter(pc.equal(fields, f)))
        m = 1 << int(np.ceil(np.log2(max(termbloom.MIN_BITS, termbloom.BITS_PER_TERM * len(ft)))))
        m = min(m, termbloom.MAX_BITS)
        bits = termbloom._fill_bloom(termbloom._term_hashes(ft), m)
        parts.append(bits.tobytes())
        meta["fields"][f] = {"m": m, "off": off, "len": bits.nbytes, "n": len(ft)}
        off += bits.nbytes
    return b"".join(parts), meta


def test_one_grouping_pass_equals_the_per_field_filter():
    """Three text fields: the blooms built from one grouping pass equal
    the per-field filter's, byte for byte and in the meta's field order,
    for a build's postings (sorted by field) and for the same rows with
    some repeated (a term in several rows) and shuffled (fields
    interleaved)."""
    import json

    from toshi_ray.segments import build_segment_tables

    schema = Schema.build(FieldDef("doc_id", "u64", fast=True), FieldDef("title", "text"),
                          FieldDef("body", "text"), FieldDef("anchor", "text"))
    rng = np.random.default_rng(7)
    words = np.array([f"w{i}" for i in range(3000)])
    n = 400
    batch = pa.table({
        "doc_id": pa.array(range(n), pa.uint64()),
        "title": [" ".join(rng.choice(words[:50], 3)) for _ in range(n)],
        "body": [" ".join(rng.choice(words, 40)) for _ in range(n)],
        "anchor": [" ".join(rng.choice(words[2500:], 5)) for _ in range(n)],
    })
    postings = build_segment_tables(batch, schema)[0].select(["field", "term"])
    repeated = pa.concat_tables([postings, postings.slice(0, 200)])
    shuffled = repeated.take(rng.permutation(repeated.num_rows))
    for tbl in (postings, shuffled):
        payload, meta = termbloom.build_term_blooms(tbl)
        want_payload, want_meta = _per_field_blooms(tbl)
        assert payload == want_payload
        assert json.dumps(meta) == json.dumps(want_meta)


def _marker_index(n=300, per_seg=100):
    tbl = pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.uint64)),
        "text": pa.array(
            [f"common w{i:05d} marker{i // per_seg}" for i in range(n)]
        ),
    })
    schema = Schema.build(
        FieldDef("doc_id", "u64", fast=True),
        FieldDef("text", "text"),
    )
    import ray.data

    root = tempfile.mkdtemp(prefix="toshi_bloom_")
    build_index(ray.data.from_arrow(tbl), schema, root, docs_per_segment=per_seg)
    return root


def test_termbloom_prunes_absent_term_segments(ray_session, monkeypatch):
    import toshi_ray.segments as segments

    root = _marker_index()
    s = Searcher(root, distributed=False)
    assert len(s.segments) == 3
    for seg in s.segments:
        assert "text" in seg["term_bloom"]["fields"]

    reads: list[str] = []
    orig = segments.pq.read_table

    def spy(path, *a, **kw):
        reads.append(str(path))
        return orig(path, *a, **kw)

    monkeypatch.setattr(segments.pq, "read_table", spy)
    readers = list(s._snap.readers.values())

    def loads():
        return sum(rd.postings_loads for rd in readers)

    # a term absent from the whole corpus → ZERO postings reads
    r = s.search({"query": {"term": {"text": "nosuchtoken"}}, "limit": 10})
    assert r["hits"] == 0
    assert [p for p in reads if "postings" in p] == []
    assert len(readers) == 3 and loads() == 0

    # marker1 lives only in docs 100-199 → segment 1: exactly ONE
    # segment's postings open (stats phase + scoring share the reader)
    reads.clear()
    r = s.search({"query": {"term": {"text": "marker1"}}, "limit": 200})
    assert sorted(d["doc"]["doc_id"] for d in r["docs"]) == list(range(100, 200))
    assert len({p for p in reads if "postings" in p}) == 1, reads
    assert loads() == 1

    # phrase with one absent word → no postings read from bloom-pruned
    # segments (the absent word empties every segment's conjunction)
    reads.clear()
    r = s.search(
        {"query": {"phrase": {"text": {"terms": ["common", "nosuchtoken"]}}},
         "limit": 10}
    )
    assert r["hits"] == 0

    monkeypatch.setattr(segments.pq, "read_table", orig)

    # correctness guard: stripping the blooms changes nothing
    with_bloom = [
        (d["doc"]["doc_id"], d["score"])
        for d in s.search({"query": {"term": {"text": "common"}}, "limit": 50})["docs"]
    ]
    assert s._groups
    for _, scorer in s._groups:
        for rd in scorer.readers:
            rd.meta.pop("term_bloom")
    without = [
        (d["doc"]["doc_id"], d["score"])
        for d in s.search({"query": {"term": {"text": "common"}}, "limit": 50})["docs"]
    ]
    assert with_bloom == without and len(with_bloom) == 50


def test_termbloom_reflects_deletes_after_merge(ray_session, monkeypatch):
    """A term whose every doc is tombstoned vanishes from the merged
    postings (zero-survivor rows are dropped), so the rebuilt bloom
    lacks it and the post-merge query does zero postings I/O; before
    the merge the bloom correctly still contains it (tombstones never
    remove terms — the bloom is a superset of the live vocabulary)."""
    import toshi_ray.segments as segments
    from toshi_ray.pipelines.merge import delete_by_term

    root = _marker_index()
    assert delete_by_term(Searcher(root, distributed=False), "text", "marker1") == 100
    # pre-merge: term still in the bloom → postings probed, 0 live hits
    s0 = Searcher(root, distributed=False)
    assert s0.search({"query": {"term": {"text": "marker1"}}, "limit": 5})["hits"] == 0
    merge_segments(root)

    s = Searcher(root, distributed=False)
    reads: list[str] = []
    orig = segments.pq.read_table

    def spy(path, *a, **kw):
        reads.append(str(path))
        return orig(path, *a, **kw)

    monkeypatch.setattr(segments.pq, "read_table", spy)
    r = s.search({"query": {"term": {"text": "marker1"}}, "limit": 5})
    assert r["hits"] == 0
    assert [p for p in reads if "postings" in p] == []
    monkeypatch.setattr(segments.pq, "read_table", orig)
    # surviving vocabulary unaffected
    got = sorted(
        d["doc"]["doc_id"]
        for d in s.search({"query": {"term": {"text": "marker0"}}, "limit": 200})["docs"]
    )
    assert got == list(range(0, 100))


def test_termbloom_survives_merge(ray_session):
    root = _marker_index()
    before = Searcher(root, distributed=False)
    want = sorted(
        d["doc"]["doc_id"]
        for d in before.search({"query": {"term": {"text": "marker2"}}, "limit": 200})["docs"]
    )
    merge_segments(root)
    s = Searcher(root, distributed=False)
    assert any("merged" in m["name"] for m in s.segments)
    for m in s.segments:
        assert "text" in m["term_bloom"]["fields"]
    got = sorted(
        d["doc"]["doc_id"]
        for d in s.search({"query": {"term": {"text": "marker2"}}, "limit": 200})["docs"]
    )
    assert got == want == list(range(200, 300))
    # and the miss path still returns clean empties post-merge
    assert s.search({"query": {"term": {"text": "nosuchtoken"}}, "limit": 5})["hits"] == 0


def test_warm_reader_answers_from_its_dictionary(ray_session, monkeypatch):
    """Once a lookup has built a reader's term dictionary, the exact
    dictionary answers every later lookup: no bloom probe, and the same
    answers as a cold reader (which still asks the bloom first)."""
    import os

    from toshi_ray.segments import SegmentReader

    root = _marker_index()
    seg = Searcher(root, distributed=False).segments[1]  # docs 100-199
    seg_dir = os.path.join(root, "segments", seg["name"])
    probes: list[list[str]] = []
    orig = termbloom.may_contain

    def spy(bits, field_meta, terms, k=termbloom.BLOOM_K):
        probes.append(list(terms))
        return orig(bits, field_meta, terms, k)

    monkeypatch.setattr(termbloom, "may_contain", spy)
    warm = SegmentReader(seg_dir)
    assert warm.df_for_terms("text", ["marker1"]) == {"marker1": 100}
    assert probes == [["marker1"]]  # cold: the bloom answers first

    probes.clear()
    terms = ["marker1", "nosuchtoken"]
    df = warm.df_for_terms("text", terms)
    rows = warm.postings_for_terms("text", terms)
    assert probes == []
    assert df == {"marker1": 100}
    assert rows["term"].to_pylist() == ["marker1"]
    assert warm.df_for_terms("text", ["nosuchtoken"]) == {}
    assert warm.postings_for_terms("text", ["nosuchtoken"]).num_rows == 0
    assert probes == []

    cold = SegmentReader(seg_dir)
    assert cold.df_for_terms("text", terms) == df
    assert cold.postings_for_terms("text", terms).equals(rows)


def _seeded_strings(n: int = 2000, seed: int = 20261019) -> list[str]:
    """Deterministic strings from a 64-bit LCG (no library RNG whose
    stream could change): 0-159 characters from an alphabet with 1- to
    4-byte UTF-8 letters and NUL, so some are empty and about half are
    over 100 bytes."""
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 -_éüßç€中文\U0001f600\x00"
    x, out = seed, []
    for _ in range(n):
        x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
        chars = []
        for _ in range((x >> 33) % 160):
            x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
            chars.append(alphabet[(x >> 33) % len(alphabet)])
        out.append("".join(chars))
    return out


def test_string_hash_values_are_frozen():
    """Bloom bits on disk and exact-dedup groups are keyed by
    `_hash_strings`: any change to its values gives existing segments'
    blooms false negatives. The digest pins all 2,000 values."""
    import hashlib

    from toshi_ray.ops.dedup import _hash_strings

    strings = _seeded_strings()
    assert "" in strings and sum(len(t.encode()) > 100 for t in strings) > 500
    h = _hash_strings(pa.array(strings))
    assert hashlib.sha256(h.astype("<u8").tobytes()).hexdigest() == (
        "495e2643c77b42eb1d0b28b0d1e00e068dd672ab07f94755c0e892f1105adea0"
    )
    assert [hex(int(v)) for v in _hash_strings(pa.array(["", "a", "w09870", "ü" * 60]))] == [
        "0xe220a8397b1dcdaf", "0x61e48524296221d4", "0x309fc975a13504a0", "0xa1cda7300441d398",
    ]
    # the same values from a large_string array and from a slice
    assert (_hash_strings(pa.array(strings, pa.large_string())) == h).all()
    assert (_hash_strings(pa.array(strings).slice(1000, 50)) == h[1000:1050]).all()


def test_probe_hashes_come_from_one_bounded_memo(monkeypatch):
    """`may_contain` hashes a term once: the memo gives the frozen
    `_hash_strings` values cold and warm, hashes only what it lacks in
    one call, and past its bound still answers correctly, also under
    concurrent probes."""
    import threading

    from toshi_ray.ops.dedup import _hash_strings

    strings = _seeded_strings()
    want = _hash_strings(pa.array(strings))
    monkeypatch.setattr(termbloom, "_HASH_MEMO", {})
    calls: list[int] = []
    real = termbloom._term_hashes

    def spy(terms):
        calls.append(len(terms))
        return real(terms)

    monkeypatch.setattr(termbloom, "_term_hashes", spy)
    assert (termbloom._memo_hashes(strings) == want).all()  # cold
    assert calls == [len(strings)]
    assert (termbloom._memo_hashes(strings) == want).all()  # warm
    assert (termbloom._memo_hashes(strings[::-1]) == want[::-1]).all()
    assert calls == [len(strings)]
    assert (termbloom._memo_hashes(strings[:5] + ["zq-new"]) ==
            _hash_strings(pa.array(strings[:5] + ["zq-new"]))).all()
    assert calls == [len(strings), 1]

    monkeypatch.setattr(termbloom, "_HASH_MEMO_MAX", 64)
    termbloom._HASH_MEMO.clear()
    for a in range(0, len(strings), 50):
        assert (termbloom._memo_hashes(strings[a : a + 50]) == want[a : a + 50]).all()
        assert len(termbloom._HASH_MEMO) <= 64
    assert (termbloom._memo_hashes(strings) == want).all()  # one call past the bound
    assert len(termbloom._HASH_MEMO) <= 64

    payload, meta = termbloom.build_term_blooms(
        pa.table({"field": ["t"] * 300, "term": strings[:300]}))
    bits, fm = np.frombuffer(payload, np.uint8), meta["fields"]["t"]
    bad = []

    def probe(seed: int) -> None:
        rng = np.random.default_rng(seed)
        for _ in range(40):
            pick = [strings[i] for i in rng.integers(0, 300, 20)]
            if not termbloom.may_contain(bits, fm, pick, meta["k"]).all():
                bad.append(pick)

    threads = [threading.Thread(target=probe, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert bad == []
