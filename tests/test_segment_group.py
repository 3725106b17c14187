"""One scorer group evaluates each query leaf once over all its segments.

Results must not depend on how the corpus is cut into segments: not
when the segments' doc-id spans interleave (a merge of non-adjacent
segments) or overlap, not at 64 segments, not in-process against Ray
scorer groups. A text leaf reads only the segments whose bloom admits
its term, and range and sort read the docvalues of zone-kept segments
only.
"""

import os
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from toshi_ray.functions.oracle import BruteForceIndex
from toshi_ray.pipelines.build import SCHEMA_FILE, SEGMENTS_DIR, publish_manifest
from toshi_ray.pipelines.merge import merge_segments
from toshi_ray.schema import FieldDef, Schema
from toshi_ray.search import Searcher
from toshi_ray.segments import SegmentReader, build_segment_tables, write_segment
from toshi_ray.sources.webpages import make_pages_batch

SCHEMA = Schema.build(
    FieldDef("doc_id", "u64", fast=True),
    FieldDef("text", "text"),
    FieldDef("lang", "facet"),
)


def _pages(n: int) -> pa.Table:
    """``n`` pages; ``lang`` becomes a two-level facet path (``/de/1``)."""
    t = make_pages_batch(np.arange(n, dtype=np.uint64))
    digit = pa.array([str(i % 3) for i in range(n)])
    return pa.table({"doc_id": t["doc_id"], "text": t["text"].cast(pa.string()),
                     "lang": pc.binary_join_element_wise("/", t["lang"], "/", digit, "")})


def _write_index(table: pa.Table, cuts: list[int], schema: Schema = SCHEMA) -> str:
    """An index of one segment per ``[cuts[i], cuts[i + 1])`` row slice of
    ``table``, written in-process and published in one commit."""
    root = tempfile.mkdtemp(prefix="toshi_group_")
    seg_dir = os.path.join(root, SEGMENTS_DIR)
    os.makedirs(seg_dir)
    with open(os.path.join(root, SCHEMA_FILE), "w") as f:
        f.write(schema.dumps())
    publish_manifest(root, [
        write_segment(seg_dir, *build_segment_tables(table.slice(lo, hi - lo), schema))
        for lo, hi in zip(cuts[:-1], cuts[1:])
    ])
    return root


T = lambda t: {"term": {"text": t}}  # noqa: E731


def _bodies(n_docs: int) -> list[dict]:
    """Term, bool, phrase, range, sort and facet queries, at two limits."""
    qs = [
        T("the"), T("w00042"), T("w01000"), T("missingterm"),
        {"bool": {"must": [T("the")], "should": [T("w00042")], "must_not": [T("w00100")]}},
        {"bool": {"must": [T("of"), T("the"), T("w00020")]}},
        {"bool": {"should": [T("w00042"), T("w00100"), T("home")]}},
        {"phrase": {"text": {"terms": ["the", "of"]}}},
        {"phrase": {"text": {"terms": ["w00042", "the"]}}},
        {"range": {"doc_id": {"gte": n_docs // 4, "lte": n_docs * 4 // 5}}},
        {"fuzzy": {"text": {"value": "w00042", "distance": 1}}},
    ]
    out = [{"query": q, "limit": k} for q in qs for k in (10, 100)]
    out += [{"query": {"all": {}}, "sort_by": "doc_id", "limit": k} for k in (7, 100)]
    out += [{"query": T("the"), "sort_by": "doc_id", "limit": 10}]
    out += [{"query": q, "facets": {"lang": [root]}, "limit": 10}
            for q in (T("the"), T("w00042"), {"all": {}}) for root in ("/", "/de")]
    return out


def _results(s: Searcher, bodies: list[dict]) -> list:
    return [(s.search(b), s.count(b), s.match_doc_ids(b).tolist()) for b in bodies]


def _check_states(roots: dict, want: list, bodies: list[dict]) -> None:
    for name, root in roots.items():
        local = Searcher(root, distributed=False)
        assert _results(local, bodies) == want, name
        assert len(local._groups) == 1, name  # one in-process group
        remote = Searcher(root, distributed=True, parallelism=2)
        try:
            assert _results(remote, bodies) == want, name
            assert len(remote._groups) == 2, name
        finally:
            remote.close()


def test_interleaved_and_overlapping_spans_equal_one_segment(ray_session):
    """600 docs as 6 segments of 100, then segments 0, 2 and 4 merged (the
    merged segment's span interleaves with 1 and 3); and even ids, then
    odd ids, as 2 segments whose spans overlap. Every query equals a
    1-segment build, in-process and over 2 Ray scorer groups."""
    n = 600
    pages = _pages(n)
    bodies = _bodies(n)
    one = Searcher(_write_index(pages, [0, n]), distributed=False)
    want = _results(one, bodies)
    assert sum(r[1] for r in want) > 0 and any(r[0]["facets"] for r in want if "facets" in r[0])

    six = _write_index(pages, list(range(0, n + 1, 100)))
    ids = np.arange(n)
    even_odd = _write_index(pages.take(np.concatenate([ids[::2], ids[1::2]])), [0, n // 2, n])
    _check_states({"six": six, "even_odd": even_odd}, want, bodies)

    names = [s["name"] for s in Searcher(six, distributed=False).segments]
    merge_segments(six, [names[0], names[2], names[4]])
    segs = Searcher(six, distributed=False).segments
    (merged,) = [s for s in segs if s.get("merged_from")]
    assert len(segs) == 4 and (merged["min_doc_id"], merged["max_doc_id"]) == (0, 499)
    _check_states({"six_merged": six}, want, bodies)


def _tree(root: str) -> dict:
    """Every file under ``root`` with its bytes."""
    out = {}
    for dp, _, fs in os.walk(root):
        for f in fs:
            with open(os.path.join(dp, f), "rb") as fh:
                out[os.path.relpath(os.path.join(dp, f), root)] = fh.read()
    return out


def test_merge_refuses_overlapping_doc_id_ranges(ray_session):
    """A merge whose sources' [min_doc_id, max_doc_id] ranges overlap
    raises before it writes anything: even ids then odd ids ([0, 598]
    and [1, 599]), and a merged 0/2/4 segment ([0, 499]) with segment 1
    ([100, 199]). The index is left byte for byte as it was. Disjoint
    sources still merge, their spans interleaving or not."""
    n = 600
    pages = _pages(n)
    ids = np.arange(n)
    even_odd = _write_index(pages.take(np.concatenate([ids[::2], ids[1::2]])), [0, n // 2, n])
    before = _tree(even_odd)
    with pytest.raises(ValueError, match="overlap"):
        merge_segments(even_odd)
    assert _tree(even_odd) == before

    six = _write_index(pages, list(range(0, n + 1, 100)))
    names = [s["name"] for s in Searcher(six, distributed=False).segments]
    merge_segments(six, [names[0], names[2], names[4]])
    (merged,) = [s["name"] for s in Searcher(six, distributed=False).segments
                 if s.get("merged_from")]
    before = _tree(six)
    with pytest.raises(ValueError, match="overlap"):
        merge_segments(six, [merged, names[1]])
    assert _tree(six) == before
    merge_segments(six, [names[1], names[3]])
    assert len(Searcher(six, distributed=False).segments) == 3


def test_merge_policy_merges_disjoint_runs_of_an_overlapping_bucket(ray_session):
    """Even ids in 4 segments, then odd ids in 4: one policy bucket of 8
    whose ranges overlap. `maybe_merge` merges its runs of disjoint
    ranges instead ([1, 149] with [150, 298], and so on), and every
    query still equals a 1-segment build."""
    from toshi_ray.pipelines.merge import maybe_merge

    n = 600
    pages = _pages(n)
    bodies = _bodies(n)[::3]
    want = _results(Searcher(_write_index(pages, [0, n]), distributed=False), bodies)
    ids = np.arange(n)
    root = _write_index(pages.take(np.concatenate([ids[::2], ids[1::2]])),
                        list(range(0, n + 1, n // 8)))
    assert len(maybe_merge(root)) == 3
    segs = Searcher(root, distributed=False).segments
    assert sorted(len(s.get("merged_from", [s["name"]])) for s in segs) == [1, 1, 2, 2, 2]
    assert _results(Searcher(root, distributed=False), bodies) == want


def test_facet_counts_over_segments():
    """Facet counts over several segments: multi-level paths, a doc with
    no facet, the root ``/`` and a deeper root ``/de``; each count
    equals a per-doc count of the matched docs."""
    values = ["/de/berlin/mitte", "/de/berlin", "/de/hamburg", "/en/london", "/en", None,
              "/de", "/fr/paris/x/y", "/de/", "/dex/a"]
    n = 200
    texts = [f"alpha w{i % 7}" + (" beta" if i % 3 else "") for i in range(n)]
    table = pa.table({"doc_id": pa.array(np.arange(n), pa.uint64()), "text": texts,
                      "lang": pa.array([values[i % len(values)] for i in range(n)], pa.string())})
    s = Searcher(_write_index(table, [0, 37, 80, 81, 150, n]), distributed=False)
    assert len(s.segments) == 5

    def expected(matched, root):
        prefix = root.rstrip("/") + "/"
        acc = {}
        for i in matched:
            v = values[i % len(values)]
            if isinstance(v, str) and v.startswith(prefix):
                child = prefix + v[len(prefix):].split("/")[0]
                acc[child] = acc.get(child, 0) + 1
        return acc

    for q, matched in ((T("alpha"), range(n)), (T("beta"), [i for i in range(n) if i % 3]),
                       (T("w3"), range(3, n, 7)), (T("gamma"), [])):
        for root in ("/", "/de", "/de/berlin", "/nope"):
            got = s.search({"query": q, "facets": {"lang": [root]}, "limit": 3})["facets"]
            assert got == expected(matched, root), (q, root)
    assert s.search({"query": T("alpha"), "facets": {"lang": ["/"]}})["facets"] == {
        "/de": 100, "/en": 40, "/fr": 20, "/dex": 20}


def test_64_segments_equal_one_segment_and_read_only_what_they_need(monkeypatch):
    """64 in-process segments against a 1-segment build: equal results for
    every query kind, rank identity with the brute-force oracle, a term
    loads the postings tables of the segments its bloom admits only
    (none that lacks it but a false positive: an absent term loads
    next to none, a rare one at most df plus those), and range and sort
    read the docvalues of zone-kept segments only."""
    n, per = 1280, 20
    pages = _pages(n)
    bodies = _bodies(n)
    one = Searcher(_write_index(pages, [0, n]), distributed=False)
    root = _write_index(pages, list(range(0, n + 1, per)))
    s = Searcher(root, distributed=False)
    assert len(s.segments) == 64
    assert _results(s, bodies) == _results(one, bodies)
    assert len(s._groups) == 1

    oracle = BruteForceIndex([{"doc_id": i, "text": t} for i, t in enumerate(
        pages["text"].to_pylist())], {"text": "default"})
    for t in ("the", "w00042", "home"):
        want = oracle.topk(oracle.term_scores("text", t), 30)
        got = [(d["doc"]["doc_id"], d["score"])
               for d in s.search({"query": T(t), "limit": 30})["docs"]]
        assert [g[0] for g in got] == [w[0] for w in want], t
        np.testing.assert_allclose([g[1] for g in got], [w[1] for w in want], rtol=1e-12)

    # a reader loads its postings table only if its bloom admits the
    # term: every reader that holds it, plus the bloom's false positives
    # (about 0.8% of the readers that lack it)
    for t in ("zzabsent", "qqnothere", "w01188", "w01419", "w01033"):
        fresh = Searcher(root, distributed=False)
        readers = list(fresh._snap.readers.values())
        docs = oracle.term_scores("text", t)  # keyed by row, which is the doc id
        holding = {d // per for d in docs}  # reader i holds doc ids [i * per, (i + 1) * per)
        admitted = {i for i, r in enumerate(readers) if r._bloom_surviving("text", [t])}
        assert fresh.count({"query": T(t)}) == len(docs)
        loaded = {i for i, r in enumerate(readers) if r.postings_loads}
        assert holding <= admitted and loaded == admitted, t
        assert len(holding) <= len(docs) < 5 and len(loaded - holding) <= 2, t

    seen: list[str] = []
    docvalues = SegmentReader.docvalues

    def spy(self, columns):
        seen.append(self.dir)
        return docvalues(self, columns)

    cold = Searcher(root, distributed=False)
    monkeypatch.setattr(SegmentReader, "docvalues", spy)
    ids = cold.match_doc_ids({"query": {"range": {"doc_id": {"gte": 130, "lte": 170}}}})
    assert ids.tolist() == list(range(130, 171))
    segs = cold.segments
    kept = {os.path.basename(d) for d in seen}
    assert kept == {g["name"] for g in segs if g["max_doc_id"] >= 130 and g["min_doc_id"] <= 170}
    seen.clear()
    r = cold.search({"query": {"all": {}}, "sort_by": "doc_id", "limit": 5})
    assert [d["doc"]["doc_id"] for d in r["docs"]] == [n - 1 - i for i in range(5)]
    assert {os.path.basename(d) for d in seen} == {segs[-1]["name"]}
    # a filtered sort walks down from the top segment and stops below
    # the one that supplies its 5th match
    seen.clear()
    matches = sorted(oracle.term_scores("text", "the"), reverse=True)
    r = cold.search({"query": T("the"), "sort_by": "doc_id", "limit": 5})
    assert [d["doc"]["doc_id"] for d in r["docs"]] == matches[:5]
    walked = {d // per for d in matches if d // per >= matches[4] // per}
    assert {os.path.basename(d) for d in seen} == {segs[i]["name"] for i in walked}
    assert len(walked) < len(segs)


@pytest.mark.parametrize("terms", [["b", "a", "c", "a"], ["a", "b", "c"], ["c"], []])
def test_lookup_takes_terms_in_any_order(terms):
    """`_SortedPostings.lookup` returns present terms sorted and unique,
    whether the caller sent them sorted (as a rewritten fuzzy query does)
    or not."""
    table = pa.table({"doc_id": pa.array([1, 2, 3], pa.uint64()), "text": ["a b", "c d", "a"]})
    root = _write_index(table, [0, 3], Schema.build(FieldDef("doc_id", "u64", fast=True),
                                                    FieldDef("text", "text")))
    (r,) = Searcher(root, distributed=False)._snap.readers.values()
    got = r._sorted_postings().lookup("text", terms)[0].tolist() if terms else []
    assert got == sorted(set(terms))
