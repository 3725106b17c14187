"""Conformance suite — exact mirror of the reference's handler tests.

Corpus and expectations from FIXTURES.md §F2 (reference
`toshi-server/src/commit.rs:44-64` schema+docs, assertions from
`toshi-server/src/handlers/search.rs:59-197`).
"""

import tempfile
import weakref

import pyarrow as pa
import pytest

from toshi_ray.pipelines.build import build_index
from toshi_ray.query import QueryError, parse_query
from toshi_ray.schema import FieldDef, Schema
from toshi_ray.search import Searcher


def corpus_schema() -> Schema:
    return Schema.build(
        FieldDef("doc_id", "u64", fast=True),
        FieldDef("test_text", "text"),
        FieldDef("test_i64", "i64", fast=True),
        FieldDef("test_u64", "u64", fast=True),
        FieldDef("test_unindex", "text", indexed=False),
        FieldDef("test_facet", "facet"),
    )


def corpus_table() -> pa.Table:
    return pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3, 4], pa.uint64()),
            "test_text": [
                "Test Document 1",
                "Test Dockument 2",
                "Test Duckiment 3",
                "Test Document 4",
                "Test Document 5",
            ],
            "test_i64": [2014, -2015, 2016, -2017, 2018],
            "test_u64": pa.array([10, 11, 12, 13, 14], pa.uint64()),
            "test_unindex": ["no", "yes", "noo", "yess", "nooo"],
            "test_facet": ["/cat/cat2", "/cat/cat2", "/cat/cat3", "/cat/cat4", "/dog/cat2"],
        }
    )


@pytest.fixture(scope="module")
def searcher(ray_session):
    import ray

    root = tempfile.mkdtemp(prefix="toshi_conformance_")
    build_index(ray.data.from_arrow(corpus_table()), corpus_schema(), root)
    return Searcher(root, distributed=False)


def hits(searcher, q, **kw):
    return searcher.search({"query": q, **kw})


def test_term_query(searcher):  # search.rs:60-68
    r = hits(searcher, {"term": {"test_text": "document"}})
    assert r["hits"] == 3
    assert [d["doc"]["doc_id"] for d in r["docs"]] == [0, 3, 4]


def test_phrase_query(searcher):  # search.rs:71-80
    r = hits(searcher, {"phrase": {"test_text": {"terms": ["test", "document"]}}})
    assert r["hits"] == 3


def test_phrase_with_offsets(searcher):
    r = hits(
        searcher,
        {"phrase": {"test_text": {"terms": ["test", "1"], "offsets": [0, 2]}}},
    )
    assert [d["doc"]["doc_id"] for d in r["docs"]] == [0]


def test_fuzzy_query(searcher):  # search.rs:141-152
    r = hits(
        searcher,
        {"fuzzy": {"test_text": {"value": "document", "distance": 0, "transposition": False}}},
    )
    assert r["hits"] == 3
    r = hits(
        searcher,
        {"fuzzy": {"test_text": {"value": "document", "distance": 1, "transposition": False}}},
    )
    assert r["hits"] == 4  # adds "dockument"


def test_regex_query(searcher):  # search.rs:177-184
    r = hits(searcher, {"regex": {"test_text": "d[ou]{1}c[k]?ument"}})
    assert r["hits"] == 4


def test_bool_query(searcher):  # search.rs:187-197
    r = hits(
        searcher,
        {
            "bool": {
                "must": [{"term": {"test_text": "document"}}],
                "must_not": [{"range": {"test_i64": {"gt": 2017}}}],
            }
        },
    )
    assert r["hits"] == 2


def test_bool_minimum_should_match_ignored(searcher):  # boolean.rs:47-60 quirk
    r = hits(
        searcher,
        {
            "bool": {
                "should": [{"term": {"test_text": "document"}}],
                "minimum_should_match": 99,
                "boost": 5.0,
            }
        },
    )
    assert r["hits"] == 3


def test_range_inclusive(searcher):  # search.rs:155-163
    r = hits(searcher, {"range": {"test_i64": {"gte": 2012, "lte": 2015}}})
    assert r["hits"] == 1
    assert r["docs"][0]["score"] == 1.0


def test_range_exclusive(searcher):  # search.rs:166-174
    r = hits(searcher, {"range": {"test_i64": {"gt": 2012, "lt": 2015}}})
    assert r["hits"] == 1
    assert r["docs"][0]["score"] == 1.0


def test_range_impossible_is_empty(searcher):  # range.rs:221-229 quirk
    assert hits(searcher, {"range": {"test_i64": {"gte": 10, "lte": 1}}})["hits"] == 0


def test_raw_query(searcher):  # search.rs:127-138
    r = hits(searcher, {"raw": 'test_text:"Duckiment"'})
    assert r["docs"][0]["doc"]["test_text"] == "Test Duckiment 3"


def test_raw_parens_grouping(searcher):
    r = hits(searcher, {"raw": "(dockument OR duckiment)"})
    assert sorted(d["doc"]["doc_id"] for d in r["docs"]) == [1, 2]
    r = hits(searcher, {"raw": "document AND (dockument OR 1)"})
    assert [d["doc"]["doc_id"] for d in r["docs"]] == [0]
    r = hits(searcher, {"raw": "document NOT 1"})
    assert sorted(d["doc"]["doc_id"] for d in r["docs"]) == [3, 4]


def test_raw_range(searcher):
    r = hits(searcher, {"raw": "test_i64:[2014 TO 2016]"})
    assert sorted(d["doc"]["doc_id"] for d in r["docs"]) == [0, 2]
    assert hits(searcher, {"raw": "test_i64:{2014 TO 2016}"})["hits"] == 0
    r = hits(searcher, {"raw": "test_u64:[12 TO *]"})
    assert sorted(d["doc"]["doc_id"] for d in r["docs"]) == [2, 3, 4]
    # combined with a text clause at the same level
    r = hits(searcher, {"raw": "document AND test_i64:[2014 TO 2016]"})
    assert [d["doc"]["doc_id"] for d in r["docs"]] == [0]


def test_raw_boost_multiplies_score(searcher):
    import math

    base = hits(searcher, {"raw": "test_text:document"})
    boosted = hits(searcher, {"raw": "test_text:document^2"})
    assert [d["doc"]["doc_id"] for d in boosted["docs"]] == [
        d["doc"]["doc_id"] for d in base["docs"]
    ]
    for b, a in zip(boosted["docs"], base["docs"]):
        assert abs(b["score"] - 2.0 * a["score"]) < 1e-12
    expected = math.log(1 + 2.5 / 3.5)
    assert abs(base["docs"][0]["score"] - expected) < 1e-9


def test_raw_star_matches_all(searcher):
    assert hits(searcher, {"raw": "*"})["hits"] == 5


def test_raw_negative_numeric_term(searcher):
    r = hits(searcher, {"raw": "test_i64:-2015"})
    assert [d["doc"]["doc_id"] for d in r["docs"]] == [1]


def test_raw_new_syntax_errors(searcher):
    for bad in ["(document", "document)", "test_i64:[1 TO", "()", "AND", "doc*ment"]:
        with pytest.raises(QueryError) as e:
            hits(searcher, {"raw": bad})
        assert str(e.value) == f"Error in Index: 'Syntax Error: {bad}'", bad


def test_fuzzy_scores_const_one(searcher):
    # tantivy 0.19: fuzzy is an automaton query — AutomatonWeight wraps a
    # BitSetDocSet in ConstScorer(1.0); every matching doc scores 1.0
    r = hits(
        searcher,
        {"fuzzy": {"test_text": {"value": "document", "distance": 1, "transposition": False}}},
    )
    assert r["hits"] == 4
    assert all(d["score"] == 1.0 for d in r["docs"])


def test_term_not_analyzed_at_query_time(searcher):  # mod.rs:216-222 quirk
    assert hits(searcher, {"term": {"test_text": "Document"}})["hits"] == 0


def test_facets(searcher):  # search.rs:114-123
    r = searcher.search(
        {"query": {"term": {"test_text": "document"}}, "facets": {"test_facet": ["/cat"]}}
    )
    assert r["facets"] == {"/cat/cat2": 1, "/cat/cat4": 1}


def test_all_docs(searcher):  # search.rs:17, commit.rs:96-108
    assert searcher.search(None)["hits"] == 5
    assert searcher.search({"limit": 2})["hits"] == 2


def test_sort_by_fast_field(searcher):  # handle.rs:82-92,127-134
    r = searcher.search({"query": None, "sort_by": "test_u64", "limit": 3})
    assert [d["doc"]["doc_id"] for d in r["docs"]] == [4, 3, 2]
    assert [d["score"] for d in r["docs"]] == [14.0, 13.0, 12.0]  # value reported as score


def test_bm25_score_value(searcher):
    # hand-computed per SURVEY.md §2.5: idf=ln(1+2.5/3.5), tf=1, dl=avgdl=3
    import math

    r = hits(searcher, {"term": {"test_text": "document"}})
    expected = math.log(1 + 2.5 / 3.5)
    for d in r["docs"]:
        assert abs(d["score"] - expected) < 1e-9


# ---- golden error strings (FIXTURES.md §F2) ----

def test_error_unknown_field(searcher):  # search.rs:104-111
    with pytest.raises(QueryError) as e:
        hits(searcher, {"term": {"asdf": "document"}})
    assert str(e.value) == "Error in query execution: 'Unknown field: asdf'"


def test_error_raw_syntax(searcher):  # search.rs:83-90
    with pytest.raises(QueryError) as e:
        hits(searcher, {"raw": "asd*(@sq__"})
    assert str(e.value) == "Error in Index: 'Syntax Error: asd*(@sq__'"


def test_error_unindexed_field(searcher):  # search.rs:93-101
    with pytest.raises(QueryError) as e:
        hits(searcher, {"raw": "test_unindex:yes"})
    assert (
        str(e.value)
        == "Error in Index: 'The field 'test_unindex' is not declared as indexed'"
    )


def test_error_phrase_single_term():  # phrase.rs:84-97
    with pytest.raises(QueryError) as e:
        parse_query({"phrase": {"test_text": {"terms": ["x"]}}})
    assert str(e.value) == "Error in query execution: 'Phrase Query must have more than 1 term'"


def test_error_phrase_offsets_mismatch():  # phrase.rs:100-113
    with pytest.raises(QueryError) as e:
        parse_query({"phrase": {"test_text": {"terms": ["x", "y"], "offsets": [1]}}})
    assert (
        str(e.value)
        == "Error in query execution: 'Differing numbers of offsets and query terms (2 and 1)'"
    )


def test_error_range_float():  # range.rs:191-203
    with pytest.raises(QueryError) as e:
        parse_query({"range": {"test_i64": {"gte": 3.14, "lte": 10}}})
    assert (
        str(e.value)
        == "Error Parsing Json: 'invalid type: floating point `3.14`, expected i64'"
    )


@pytest.mark.parametrize("bound, unexpected", [("3", 'string "3"'), (True, "boolean `true`")])
def test_error_range_bound_not_an_integer(bound, unexpected):  # serde wording, unverified
    with pytest.raises(QueryError) as e:
        parse_query({"range": {"test_i64": {"gte": bound}}})
    assert str(e.value) == f"Error Parsing Json: 'invalid type: {unexpected}, expected i64'"


def test_error_range_negative_u64(searcher):  # range.rs:206-218
    with pytest.raises(QueryError) as e:
        hits(searcher, {"range": {"test_u64": {"gte": -1, "lte": 10}}})
    assert str(e.value) == "Error Parsing Json: 'invalid value: integer `-1`, expected u64'"


def test_limit_is_a_usize(searcher):  # mod.rs:106-118, serde `limit: usize`
    q = {"term": {"test_text": "document"}}
    r = hits(searcher, q, limit=0)
    assert r["hits"] == 0 and r["docs"] == []
    assert hits(searcher, q, limit=(1 << 64) - 1)["hits"] == 3
    for limit in (-1, -3, 1 << 64):
        with pytest.raises(QueryError) as e:
            hits(searcher, q, limit=limit)
        assert str(e.value) == f"Error Parsing Json: 'invalid value: integer `{limit}`, expected usize'"


# The integer and floating point forms are the reference's goldens; the
# others follow serde's `Unexpected` wording, unchecked against it.
@pytest.mark.parametrize("limit, unexpected", [
    (1.7, "floating point `1.7`"),
    (2.0, "floating point `2.0`"),
    (True, "boolean `true`"),
    ("2", 'string "2"'),
    ("x", 'string "x"'),
    (None, "unit value"),
    ([5], "sequence"),
])
def test_error_limit_not_an_integer(searcher, limit, unexpected):
    with pytest.raises(QueryError) as e:
        hits(searcher, None, limit=limit)
    assert str(e.value) == f"Error Parsing Json: 'invalid type: {unexpected}, expected usize'"


@pytest.mark.parametrize("body, error", [
    ([{"query": None}], "invalid type: sequence, expected struct Search"),
    ("x", 'invalid type: string "x", expected struct Search'),
    ({"facets": ["test_facet"]}, "invalid type: sequence, expected a map"),
    ({"facets": {"test_facet": "/"}}, 'invalid type: string "/", expected a sequence'),
    ({"facets": {"test_facet": [1]}}, "invalid type: integer `1`, expected a string"),
    ({"sort_by": 5}, "invalid type: integer `5`, expected a string"),
])
def test_error_search_body_shape(searcher, body, error):  # serde `Search` (unverified wording)
    with pytest.raises(QueryError) as e:
        searcher.search(body)
    assert str(e.value) == f"Error Parsing Json: '{error}'"


def test_error_nested_bool_golden():  # boolean.rs parse_queries golden string
    with pytest.raises(QueryError) as e:
        parse_query({"bool": {"must": [{"bool": {"must": []}}]}})
    assert str(e.value) == "Error in query execution: 'Invalid type for boolean query'"


def test_error_numeric_term_non_integer(searcher):
    # executor totality: a non-integer value on a numeric field must be a
    # QueryError, not a bare ValueError escaping from int()
    with pytest.raises(QueryError) as e:
        hits(searcher, {"term": {"test_i64": "abc"}})
    assert "Invalid value for numeric field" in str(e.value)


def test_error_range_on_date_field(ray_session, tmp_path):
    # date is stored/fast but the reference's range path only builds
    # i64/u64 ranges — must raise QueryError, not numpy UFuncTypeError
    import ray

    schema = Schema.build(
        FieldDef("doc_id", "u64", fast=True),
        FieldDef("ts", "date", fast=True),
    )
    t = pa.table(
        {
            "doc_id": pa.array([0, 1], pa.uint64()),
            "ts": pa.array([1_000_000, 2_000_000], pa.timestamp("us")),
        }
    )
    root = str(tmp_path / "dateidx")
    build_index(ray.data.from_arrow(t), schema, root)
    s = Searcher(root, distributed=False)
    with pytest.raises(QueryError) as e:
        s.search({"query": {"range": {"ts": {"gte": 0, "lte": 10}}}})
    assert "Range queries are only supported for i64 and u64 fields" in str(e.value)
    # sort-by on a date fast field works (value-as-score = epoch micros)
    r = s.search({"query": None, "sort_by": "ts", "limit": 2})
    assert [d["doc"]["doc_id"] for d in r["docs"]] == [1, 0]
    assert [d["score"] for d in r["docs"]] == [2_000_000.0, 1_000_000.0]


def test_distributed_matches_local(searcher):
    sd = Searcher(searcher.index_root, distributed=True)
    for q in [
        {"term": {"test_text": "document"}},
        {"phrase": {"test_text": {"terms": ["test", "document"]}}},
        {"regex": {"test_text": "d[ou]{1}c[k]?ument"}},
    ]:
        a, b = searcher.search({"query": q}), sd.search({"query": q})
        assert a == b


def test_close_defers_retired_pools_while_inflight(searcher):
    """close() swaps in a snapshot with no pool and leaves the old one
    whole: a query still holding it (a concurrent thread mid ray.get)
    keeps scoring on it, and it is freed once that query drops it."""
    s = Searcher(searcher.index_root, distributed=False)
    body = {"query": {"term": {"test_text": "document"}}}
    assert s.count(body) == 3
    held = s._pin()
    pool = held.pool
    s.close()
    assert s._snap is not held and s._snap.pool is None
    assert held.pool is pool
    plan = held.plan(body)
    assert sum(Searcher._dispatch(held.pool, "count_matches", plan.query,
                                  held.stats([plan.query]))) == 3
    gone = weakref.ref(held)
    del held, pool
    assert gone() is None
    assert s.count(body) == 3  # a later query builds a pool on the new snapshot


def test_multi_search_matches_single(searcher):
    bodies = [
        {"query": {"term": {"test_text": "document"}}},
        {"query": {"phrase": {"test_text": {"terms": ["test", "document"]}}}, "limit": 2},
        {"query": {"term": {"test_text": "document"}}, "facets": {"test_facet": ["/cat"]}},
        {"query": None, "sort_by": "test_u64", "limit": 3},
    ]
    batch = searcher.multi_search(bodies)
    singles = [searcher.search(b) for b in bodies]
    assert batch == singles


def test_raw_dangling_operator_and_detached_boost(searcher):
    # tantivy's QueryParser rejects trailing operators and a
    # whitespace-separated caret; so do we (golden syntax error)
    for bad in ["document NOT", "document +", "document ^2", "NOT",
                "document AND", "document OR", "AND document", "OR document"]:
        with pytest.raises(QueryError) as e:
            hits(searcher, {"raw": bad})
        assert str(e.value) == f"Error in Index: 'Syntax Error: {bad}'", bad
    # adjacent boost still works
    assert hits(searcher, {"raw": "document^2"})["hits"] == 3


def test_levenshtein_transposition_is_restricted_damerau():
    """Tantivy's automaton treats a transposition as ONE primitive edit
    but never edits a transposed pair again (OSA / restricted Damerau):
    d("ab","ba")=1 with transposition, 2 without; d("ca","abc") stays 3
    under OSA (full Damerau would give 2)."""
    from toshi_ray.search import _levenshtein_filter

    assert _levenshtein_filter(pa.array(["ba"]), "ab", 1, True) == ["ba"]
    assert _levenshtein_filter(pa.array(["ba"]), "ab", 1, False) == []
    assert _levenshtein_filter(pa.array(["ba"]), "ab", 2, False) == ["ba"]
    assert _levenshtein_filter(pa.array(["abc"]), "ca", 2, True) == []   # OSA: 3
    assert _levenshtein_filter(pa.array(["abc"]), "ca", 3, True) == ["abc"]
