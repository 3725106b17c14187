"""Fuzzy and regex queries: the banded edit-distance kernel against a
plain reference, and the searcher's once-per-query rewrite against the
pinned snapshot's term union."""

import re
import tempfile

import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toshi_ray import search as search_mod
from toshi_ray.api import IndexCatalog
from toshi_ray.pipelines.merge import delete_by_term, merge_segments
from toshi_ray.query import QueryError
from toshi_ray.search import Searcher, _levenshtein_filter


def _osa(a: str, b: str, transposition: bool) -> int:
    """Edit distance by the textbook full-matrix DP; with
    ``transposition``, optimal string alignment (a swapped adjacent
    pair costs one edit and is not edited again)."""
    d = [[i + j if i * j == 0 else 0 for j in range(len(b) + 1)] for i in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
            if (transposition and i > 1 and j > 1
                    and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]):
                d[i][j] = min(d[i][j], d[i - 2][j - 2] + 1)
    return d[len(a)][len(b)]


# a small alphabet makes near matches common; the multi-byte letters
# take 2, 3 and 4 UTF-8 bytes
_CHARS = st.sampled_from("abcab" + "é€\U0001f600")
_WORD = st.text(_CHARS, max_size=9)
_LONG = st.text(_CHARS, min_size=60, max_size=80)


def _edited(word: str, ops: list[tuple[int, int, str]]) -> str:
    """``word`` after a few swaps of adjacent letters, deletions,
    insertions and substitutions, so terms near the band's edge and
    transposed pairs turn up far more often than in random text."""
    w = list(word)
    for op, at, ch in ops:
        i = at % (len(w) + 1)
        if op == 0 and i + 1 < len(w):
            w[i], w[i + 1] = w[i + 1], w[i]
        elif op == 1 and i < len(w):
            del w[i]
        elif op == 2:
            w.insert(i, ch)
        elif i < len(w):
            w[i] = ch
    return "".join(w)


_OPS = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 99), _CHARS), max_size=4)


@settings(max_examples=300, deadline=None)
@given(
    query=st.one_of(_WORD, _LONG),
    edits=st.lists(_OPS, max_size=20),
    others=st.lists(st.one_of(_WORD, _LONG), max_size=20),
    distance=st.integers(0, 3),
    transposition=st.booleans(),
    sliced=st.booleans(),
)
def test_levenshtein_filter_equals_reference(query, edits, others, distance, transposition, sliced):
    """Every term within ``distance`` of ``query``, in input order:
    empty, multi-byte and longer-than-64 terms, lengths inside and
    outside the |len − qlen| ≤ d window, on an array that may start at
    a nonzero offset."""
    terms = [_edited(query, ops) for ops in edits] + others
    arr = pa.array(["pad"] + terms if sliced else terms, pa.string())
    if sliced:
        arr = arr.slice(1)
    want = [t for t in terms if _osa(query, t, transposition) <= distance]
    assert _levenshtein_filter(arr, query, distance, transposition) == want


def test_levenshtein_filter_distance_beyond_every_length():
    """A distance larger than any term needs no wider band: all terms
    of the window match."""
    terms = pa.array(["", "ab", "zzzzzz"])
    assert _levenshtein_filter(terms, "abc", 10**9, True) == ["", "ab", "zzzzzz"]
    assert _levenshtein_filter(pa.chunked_array([terms]), "", 2, False) == ["", "ab"]


def test_levenshtein_filter_wide_band_does_not_wrap():
    """Distances near 255 need cells wider than a byte."""
    q = "a" * 260
    terms = ["b" * 7 + "a" * 253, "b" * 8 + "a" * 252, "b" * 254, "a" * 6]
    for d in (252, 253, 254):
        want = [t for t in terms if _osa(q, t, False) <= d]
        assert _levenshtein_filter(pa.array(terms), q, d, False) == want, d


SCHEMA = [
    {"name": "text", "type": "text",
     "options": {"indexing": {"record": "position", "tokenizer": "default"}, "stored": True}},
]
TEXTS = ["spark plug", "sparks fly", "the spork", "a spar mast", "park bench", "alpha spank"]
FUZZY = {"fuzzy": {"text": {"value": "spark", "distance": 1, "transposition": True}}}
REGEX = {"regex": {"text": "sp.*k"}}


def _expected(s: Searcher, matches) -> set[str]:
    """The live docs with a token that ``matches``: the stored text,
    split as the default analyzer splits ASCII."""
    docs = s.search({"query": {"all": {}}, "limit": 100})["docs"]
    return {d["doc"]["text"] for d in docs
            if any(matches(t) for t in re.split(r"[^a-z0-9]+", d["doc"]["text"].lower()) if t)}


def _hits(s: Searcher, q: dict) -> set[str]:
    out = s.search({"query": q, "limit": 100})
    assert all(d["score"] == 1.0 for d in out["docs"])
    assert s.count({"query": q}) == len(out["docs"]) == s.match_doc_ids({"query": q}).size
    return {d["doc"]["text"] for d in out["docs"]}


def _check(s: Searcher) -> None:
    assert _hits(s, FUZZY) == _expected(s, lambda t: _osa("spark", t, True) <= 1)
    assert _hits(s, REGEX) == _expected(s, lambda t: re.fullmatch("sp.*k", t) is not None)


def test_automaton_queries_expand_once_per_query_over_the_snapshot_union(monkeypatch):
    """On a 6-segment index a fuzzy and a regex query each run the
    matcher once, not once per segment; the union of a field is
    gathered once per snapshot; a refresh gathers it again, so a term
    that only a new segment holds is found; and results equal a Ray
    searcher's and a plain-Python oracle's on the fresh, merged and
    post-delete index."""
    c = IndexCatalog(tempfile.mkdtemp(prefix="toshi_auto_"))
    c.create_index("ix", SCHEMA)
    for t in TEXTS:
        c.add_document("ix", {"document": {"text": t}})
    root = c._root("ix")

    calls = {"lev": 0, "regex": 0, "union": 0}
    real_lev, real_regex = search_mod._levenshtein_filter, pc.match_substring_regex
    real_dispatch = Searcher._dispatch

    def lev(*a, **kw):
        calls["lev"] += 1
        return real_lev(*a, **kw)

    def regex(*a, **kw):
        calls["regex"] += 1
        return real_regex(*a, **kw)

    def dispatch(groups, method, *args):
        if method == "unique_terms":
            calls["union"] += 1
        return real_dispatch(groups, method, *args)

    monkeypatch.setattr(search_mod, "_levenshtein_filter", lev)
    monkeypatch.setattr(pc, "match_substring_regex", regex)
    monkeypatch.setattr(Searcher, "_dispatch", staticmethod(dispatch))

    s = Searcher(root, distributed=False)
    s.search({"query": FUZZY})
    assert len(s.segments) == 6 and len(s._groups) == 1  # one scorer over six segments
    assert calls == {"lev": 1, "regex": 0, "union": 1}
    s.search({"query": REGEX})
    assert calls == {"lev": 1, "regex": 1, "union": 1}
    # search, count and match_doc_ids all rewrite through the same path
    assert _hits(s, FUZZY) == set(TEXTS)  # spark, sparks, spork, spar, park, spank
    assert _hits(s, REGEX) == {"spark plug", "the spork", "alpha spank"}
    assert calls == {"lev": 4, "regex": 4, "union": 1}

    # a term only the new segment holds: a union kept past its
    # snapshot would miss it
    c.add_document("ix", {"document": {"text": "sparx only"}})
    s.refresh()
    assert "sparx only" in _hits(s, FUZZY)
    assert calls["union"] == 2
    monkeypatch.undo()

    _check(s)
    ray_s = Searcher(root, distributed=True, parallelism=2)
    try:
        for q in (FUZZY, REGEX):
            assert ray_s.search({"query": q, "limit": 100}) == s.search({"query": q, "limit": 100})
    finally:
        ray_s.close()

    merge_segments(root)
    s.refresh()
    assert len(s.segments) == 1
    _check(s)
    assert delete_by_term(s, "text", "spork") == 1
    s.refresh()
    _check(s)
    assert "the spork" not in _hits(s, FUZZY)


def test_automaton_query_errors_keep_their_types_and_messages():
    c = IndexCatalog(tempfile.mkdtemp(prefix="toshi_auto_"))
    c.create_index("ix", SCHEMA)
    c.add_document("ix", {"document": {"text": "spark"}})
    s = Searcher(c._root("ix"), distributed=False)
    with pytest.raises(QueryError) as e:
        s.search({"query": {"fuzzy": {"nope": {"value": "spark", "distance": 1}}}})
    assert str(e.value) == "Error in query execution: 'Unknown field: nope'"
    with pytest.raises(QueryError) as e:
        s.count({"query": {"bool": {"must": [{"regex": {"text": "sp(?=a)"}}]}}})
    assert str(e.value) == "Error in query execution: 'Invalid regex: sp(?=a)'"
