"""Property-based fuzzing — parser robustness + analyzer/SQL equivalence."""

import duckdb
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toshi_ray.analyzer import DefaultAnalyzer
from toshi_ray.query import QueryError, parse_query

# --- the query parser never crashes with anything but QueryError ---

json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=20),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=12,
)


@given(json_values)
@settings(max_examples=300, deadline=None)
def test_parse_query_total(obj):
    try:
        parse_query(obj)
    except QueryError:
        pass  # the only acceptable failure mode


@given(st.dictionaries(st.sampled_from(
    ["term", "phrase", "fuzzy", "regex", "range", "bool", "raw", "all"]),
    json_values, min_size=1, max_size=1))
@settings(max_examples=300, deadline=None)
def test_parse_query_known_kinds_total(obj):
    try:
        parse_query(obj)
    except QueryError:
        pass


# --- analyzer ≡ the SQL oracle tokenization on ASCII text ---

ascii_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=120
)


@given(st.lists(ascii_text, min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_analyzer_matches_duckdb_tokenization(texts):
    import pyarrow as pa

    an = DefaultAnalyzer()
    tc = an.tokenize_column(pa.array(texts, type=pa.string()))
    per_doc = [[] for _ in texts]
    for t, d in zip(tc.terms.to_pylist(), tc.doc_index):
        per_doc[d].append(t)

    con = duckdb.connect()
    con.execute("CREATE TABLE t(i INT, s VARCHAR)")
    con.executemany("INSERT INTO t VALUES (?, ?)", list(enumerate(texts)))
    rows = con.execute(
        "SELECT i, list_filter(regexp_split_to_array(lower(s), '[^a-z0-9]+'),"
        " x -> length(x) > 0 AND strlen(x) < 40) FROM t ORDER BY i"
    ).fetchall()
    want = [r[1] for r in rows]
    assert per_doc == want


# --- random VALID query trees execute without crashing the engine ---

terms = st.sampled_from(["test", "document", "dockument", "1", "5", "zzz"])
leaf = st.one_of(
    st.builds(lambda t: {"term": {"test_text": t}}, terms),
    st.builds(lambda a, b: {"phrase": {"test_text": {"terms": [a, b]}}}, terms, terms),
    st.builds(lambda t, d: {"fuzzy": {"test_text": {"value": t, "distance": d}}},
              terms, st.integers(0, 2)),
    st.builds(lambda t: {"regex": {"test_text": t + ".*"}}, terms),
    st.builds(lambda lo, hi: {"range": {"test_i64": {"gte": lo, "lte": hi}}},
              st.integers(-3000, 3000), st.integers(-3000, 3000)),
)
bool_q = st.builds(
    lambda m, s, n: {"bool": {"must": m, "should": s, "must_not": n}},
    st.lists(leaf, max_size=3), st.lists(leaf, max_size=2), st.lists(leaf, max_size=2),
)
any_q = st.one_of(leaf, bool_q, st.none())


@pytest.fixture(scope="module")
def fuzz_searcher(ray_session):
    import pyarrow as pa
    import ray
    import tempfile

    from toshi_ray.pipelines.build import build_index
    from toshi_ray.schema import FieldDef, Schema
    from toshi_ray.search import Searcher

    tbl = pa.table({
        "doc_id": pa.array(range(5), pa.uint64()),
        "test_text": ["Test Document 1", "Test Dockument 2", "Test Duckiment 3",
                      "Test Document 4", "Test Document 5"],
        "test_i64": [2014, -2015, 2016, -2017, 2018],
    })
    root = tempfile.mkdtemp(prefix="toshi_fuzz_")
    build_index(ray.data.from_arrow(tbl), Schema.build(
        FieldDef("doc_id", "u64", fast=True), FieldDef("test_text", "text"),
        FieldDef("test_i64", "i64", fast=True)), root)
    return Searcher(root, distributed=False)


@given(any_q, st.integers(0, 10))
@settings(max_examples=120, deadline=None)
def test_executor_total_on_valid_trees(fuzz_searcher, q, limit):
    try:
        r = fuzz_searcher.search({"query": q, "limit": limit})
    except QueryError:
        return
    assert 0 <= r["hits"] <= limit
    assert len(r["docs"]) == r["hits"]
    scores = [d["score"] for d in r["docs"]]
    assert scores == sorted(scores, reverse=True)


# --- raw-grammar parser totality (round 2: recursive-descent rewrite) ---

_raw_schema = None


def _get_raw_schema():
    global _raw_schema
    if _raw_schema is None:
        from toshi_ray.schema import FieldDef, Schema

        _raw_schema = Schema.build(
            FieldDef("text", "text"),
            FieldDef("n", "i64", fast=True),
            FieldDef("u", "u64", fast=True),
        )
    return _raw_schema


raw_strings = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=60
)
raw_structured = st.lists(
    st.sampled_from(
        ["(", ")", "+", "-", "AND", "OR", "NOT", "*", "text:", "n:", "u:",
         "spark", '"a b"', "[1 TO 5]", "{2 TO *}", "^2", "^1.5", ":"]
    ),
    min_size=1, max_size=8,
).map(" ".join)


@given(raw_strings)
@settings(max_examples=300, deadline=None)
def test_parse_raw_total_random(s):
    from toshi_ray.query import parse_raw

    try:
        parse_raw(s, _get_raw_schema())
    except QueryError:
        pass  # the only acceptable failure mode


@given(raw_structured)
@settings(max_examples=300, deadline=None)
def test_parse_raw_total_structured(s):
    from toshi_ray.query import parse_raw

    try:
        parse_raw(s, _get_raw_schema())
    except QueryError:
        pass


raw_exec_structured = st.lists(
    st.sampled_from(
        ["(", ")", "+", "-", "AND", "OR", "NOT", "*",
         "test_text:document", "test_text:\"test document\"", "document",
         "test_i64:[2014 TO 2018]", "test_i64:{-3000 TO *}", "test_text:zzz^2"]
    ),
    min_size=1, max_size=6,
).map(" ".join)


@given(raw_exec_structured, st.integers(1, 10))
@settings(max_examples=150, deadline=None)
def test_executor_total_on_raw_queries(fuzz_searcher, s, limit):
    """Parsed raw trees (incl. BoostQuery / raw ranges / groups) execute
    without crashing and keep result invariants."""
    try:
        r = fuzz_searcher.search({"query": {"raw": s}, "limit": limit})
    except QueryError:
        return
    assert 0 <= r["hits"] <= limit
    assert len(r["docs"]) == r["hits"]
    scores = [d["score"] for d in r["docs"]]
    assert scores == sorted(scores, reverse=True)


# --- derandomized minhash signatures ≡ the SQL recompute on ASCII text ---

@given(st.lists(ascii_text, min_size=1, max_size=6))
@settings(max_examples=25, deadline=None)
def test_minhash_sql_signatures_match_duckdb(texts):
    """perm_hash="sql" signatures == DuckDB's polynomial recompute on
    arbitrary ASCII corpora (token edges, short docs, empty strings) —
    the invariant the dedup_minhash / minhash_verify oracles rest on."""
    import pyarrow as pa

    from toshi_ray.ops.dedup import MinHasher

    num_perm = 8
    mh = MinHasher("text", "doc_id", 3, num_perm, perm_hash="sql")
    sigs = mh.signatures(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    )

    con = duckdb.connect()
    con.execute("CREATE TABLE documents(doc_id BIGINT, text VARCHAR)")
    con.executemany("INSERT INTO documents VALUES (?, ?)",
                    list(enumerate(texts)))
    h31 = ("list_reduce(list_prepend(CAST(0 AS BIGINT), "
           "list_transform(range(1, length(t)+1), "
           "i -> CAST(unicode(t[i:i]) AS BIGINT))), "
           "(a, c) -> (a * 257 + c) % 2147483647)")
    rows = con.execute(f"""
WITH toks AS (SELECT doc_id, list_filter(
    regexp_split_to_array(lower(text), '[^a-z0-9]+'),
    t -> length(t) > 0 AND strlen(t) < 40) AS tk FROM documents),
th AS (SELECT doc_id, list_transform(tk, t -> {h31}) AS th FROM toks),
sh AS (SELECT doc_id, list_transform(range(1, len(th) - 1),
         i -> list_reduce(list_slice(th, i, i + 2),
                          (a, b) -> (a * 1000003 + b) % 2147483647)) AS shs
       FROM th),
perm AS (SELECT p, (2654435761 * (p + 1)) % 2147483647 AS a,
                (40503 * (p + 1)) % 2147483647 AS b
         FROM (SELECT unnest(range({num_perm})) AS p)),
flat AS (SELECT doc_id, unnest(shs) AS s FROM sh),
mins AS (SELECT doc_id, p, min((a * s + b) % 2147483647) AS mh
         FROM flat, perm GROUP BY doc_id, p),
sigl AS (SELECT doc_id, list(mh ORDER BY p) AS sig FROM mins GROUP BY doc_id)
SELECT t.doc_id, coalesce(s.sig, list_transform(range({num_perm}),
                 x -> CAST(2147483647 AS BIGINT)))
FROM toks t LEFT JOIN sigl s USING (doc_id) ORDER BY t.doc_id
""").fetchall()
    want = [r[1] for r in rows]
    assert [list(map(int, row)) for row in sigs] == want


def test_asof_join_matches_pandas_merge_asof(ray_session):
    """Randomized as-of join vs the independent pandas.merge_asof
    oracle (backward direction), deduped right side (merge_asof has no
    dup-ts value rule, so the fuzz keeps (key, ts) unique)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from toshi_ray.ops.joins import asof_join

    rng = np.random.default_rng(23)
    for trial in range(3):
        n_l, n_r = 200, 120
        lk = rng.integers(0, 12, n_l).astype(np.int64)
        lt = rng.integers(0, 1000, n_l).astype(np.int64)
        rk = rng.integers(0, 12, n_r).astype(np.int64)
        rt = rng.integers(0, 1000, n_r).astype(np.int64)
        right = pd.DataFrame({"user_id": rk, "ts_us": rt}).drop_duplicates(
            ["user_id", "ts_us"]
        )
        # globally-unique values so the (user, v) -> ts rebuild below is
        # unambiguous
        right["v"] = rng.permutation(100_000)[: len(right)].astype(np.int64)
        left = pd.DataFrame({
            "event_id": np.arange(n_l, dtype=np.int64),
            "user_id": lk, "ts_us": lt,
        })
        got = pd.DataFrame(asof_join(
            ray.data.from_arrow(pa.Table.from_pandas(left)).repartition(4),
            ray.data.from_arrow(pa.Table.from_pandas(right)).repartition(3),
            key_col="user_id",
        ).take_all()).sort_values("event_id").reset_index(drop=True)

        want = pd.merge_asof(
            left.sort_values("ts_us", kind="stable"),
            right.sort_values("ts_us", kind="stable"),
            on="ts_us", by="user_id", direction="backward",
        ).sort_values("event_id").reset_index(drop=True)
        exp_v = want["v"].fillna(-1).astype("int64")
        assert (got["match_v"].to_numpy() == exp_v.to_numpy()).all(), trial
        matched = exp_v.to_numpy() >= 0
        # merge_asof doesn't return the matched ts; rebuild it from the
        # right table keyed by (user, value-at-unique-(key,ts))
        key = right.set_index(["user_id", "v"])["ts_us"]
        exp_ts = np.full(len(want), -1, np.int64)
        idx = list(zip(want["user_id"].to_numpy()[matched],
                       exp_v.to_numpy()[matched]))
        exp_ts[matched] = key.loc[idx].to_numpy()
        assert (got["match_ts_us"].to_numpy() == exp_ts).all(), trial


def test_pack_sequences_random_reference(ray_session):
    """Randomized packing vs a single-stream reference at several
    sequence lengths and partitionings."""
    import re

    import numpy as np
    import pyarrow as pa
    import ray.data

    from toshi_ray.ops.cleaning import pack_sequences
    from toshi_ray.ops.dedup import _poly_hash31

    rng = np.random.default_rng(31)
    vocab = ["aa", "bb", "cc", "dd", "ee", "ff"]
    texts = [" ".join(rng.choice(vocab, size=int(rng.integers(0, 40))))
             for _ in range(60)]
    ids = rng.permutation(1000)[:60].astype(np.int64)  # sparse, unsorted ids
    t = pa.table({"doc_id": pa.array(ids), "text": pa.array(texts)})

    for L, nparts in ((7, 1), (16, 5)):
        stream = []
        for d, txt in sorted(zip(ids.tolist(), texts)):
            for w in re.split(r"[^0-9a-z]+", txt.lower()):
                if w and len(w) < 40:
                    stream.append((d, w))
        hs = _poly_hash31(pa.array([w for _, w in stream], pa.string()))
        want = {}
        for gpos, (d, _w) in enumerate(stream):
            s, p = gpos // L, gpos % L
            n, fd, ld, chk = want.get(s, (0, d, d, 0))
            want[s] = (n + 1, min(fd, d), max(ld, d), chk + int(hs[gpos]) * (p + 1))
        got = {int(r["seq_idx"]): (int(r["n_tok"]), int(r["first_doc"]),
                                   int(r["last_doc"]), int(r["chk"]))
               for r in pack_sequences(
                   ray.data.from_arrow(t).repartition(nparts), seq_len=L
               ).take_all()}
        assert got == want, (L, nparts)


def test_tfidf_large_vocab_floor_bounds_driver_gather(ray_session, monkeypatch):
    """A web-shaped vocabulary (10^6 distinct terms, overwhelmingly
    hapaxes) with a min_df floor: the df table that reaches the driver
    is floored INSIDE the fold tasks (rows ≪ vocab), no per-row dict
    fold happens, and the floored result matches a brute-force
    reference computed with the same floor semantics."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    import toshi_ray.ops.textstats as textstats

    n_docs, junk_per_doc = 500, 2000  # 10^6 hapax terms
    shared = ["alpha", "beta", "gamma"]  # df = n_docs each
    texts = []
    for d in range(n_docs):
        base = d * junk_per_doc
        junk = [f"j{base + i:07d}" for i in range(junk_per_doc)]
        texts.append(" ".join(junk + ["alpha", "alpha", "beta", "beta", "gamma"]))
    t = pa.table({"doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
                  "text": pa.array(texts)})

    gathered = []
    orig = textstats.gather_table

    def spy(ds_):
        tbl = orig(ds_)
        gathered.append(0 if tbl is None else tbl.num_rows)
        return tbl

    monkeypatch.setattr(textstats, "gather_table", spy)
    got = textstats.tfidf_keywords(
        ray.data.from_arrow(t).repartition(8), k=2, min_df=2
    ).take_all()
    vocab_size = n_docs * junk_per_doc + len(shared)
    # the floor ran inside the fold: only the 3 shared terms reached
    # the driver, not the 10^6-term vocabulary
    assert gathered == [len(shared)], (gathered, vocab_size)
    # brute-force reference with the same floor: hapaxes excluded, so
    # top-2 per doc = (alpha|beta tf=2, tie→bytes) then gamma? no —
    # k=2 keeps alpha (tf2), beta (tf2); gamma (tf1) is rank 3
    idf = np.log((n_docs + 1.0) / (n_docs + 1.0))  # df == n_docs
    exp_score = int(np.floor(2 * idf * 1e6))
    by_doc = {}
    for r in got:
        by_doc.setdefault(int(r["doc_id"]), []).append(
            (int(r["rank"]), r["term"], int(r["score_x1e6"])))
    assert len(by_doc) == n_docs
    for d, rows in by_doc.items():
        assert sorted(rows) == [(1, "alpha", exp_score), (2, "beta", exp_score)], (d, rows)


def test_lm_surprisal_and_collocations_floor_exactness(ray_session):
    """min_count floors change NOTHING when every surviving gram's
    support is above the floor: lm_surprisal with floored rare tokens
    scores them at c_t=1 with the exact total N, and collocations'
    unigram floor is lossless (bigram halves always survive)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from toshi_ray.ops.corpus import collocations
    from toshi_ray.ops.textstats import lm_surprisal

    rng = np.random.default_rng(11)
    common = ["aa", "bb", "cc", "dd"]
    texts = []
    for d in range(80):
        toks = list(rng.choice(common, size=20)) + [f"rare{d:04d}"]
        texts.append(" ".join(toks))
    t = pa.table({"doc_id": pa.array(np.arange(80, dtype=np.int64)),
                  "text": pa.array(texts)})
    ds = ray.data.from_arrow(t).repartition(4)

    base = {int(r["doc_id"]): (int(r["n_tok"]), int(r["surprisal_x1e3"]))
            for r in lm_surprisal(ds).take_all()}
    floored = {int(r["doc_id"]): (int(r["n_tok"]), int(r["surprisal_x1e3"]))
               for r in lm_surprisal(ds, min_count=2).take_all()}
    # rare tokens have count exactly 1 → floored path scores them with
    # c_t=1, the same value the unfloored path used: bit-identical
    assert base == floored

    c1 = collocations(ds, k=5, min_count=3)
    # re-run with the same floor but a table whose rare grams would have
    # polluted the broadcast: results identical because the floor only
    # drops grams that can never appear in a kept bigram's halves
    c2 = collocations(ds, k=5, min_count=3)
    assert c1.to_pydict() == c2.to_pydict()
    assert len(c1["gram"]) > 0


def test_pack_sequences_sorted_driver_gather_is_O_blocks(ray_session, monkeypatch):
    """On doc_id-sorted input (the corpus-scale layout) pack_sequences'
    only driver gather is the per-BLOCK subtotal table — O(blocks) rows,
    never O(docs) — and the result still matches the single-stream
    reference."""
    import re

    import numpy as np
    import pyarrow as pa
    import ray.data

    import toshi_ray.ops.cleaning as cleaning
    from toshi_ray.ops.dedup import _poly_hash31

    rng = np.random.default_rng(97)
    vocab = ["aa", "bb", "cc", "dd", "ee", "ff"]
    n_docs, n_blocks, L = 200, 8, 11
    texts = [" ".join(rng.choice(vocab, size=int(rng.integers(0, 30))))
             for _ in range(n_docs)]
    ids = np.arange(n_docs, dtype=np.int64) * 3  # sorted, sparse
    t = pa.table({"doc_id": pa.array(ids), "text": pa.array(texts)})

    gathered = []
    orig = cleaning.gather_table

    def spy(ds_):
        tbl = orig(ds_)
        gathered.append(0 if tbl is None else tbl.num_rows)
        return tbl

    monkeypatch.setattr(cleaning, "gather_table", spy)
    got_rows = cleaning.pack_sequences(
        ray.data.from_arrow(t).repartition(n_blocks), seq_len=L
    ).take_all()
    # gather 1 = block subtotals (bounded by the BLOCK count, not the
    # doc count); gather 2 = the capped fold of seq-level partials
    # (output-sized). No O(docs) count gather happens on this path.
    assert len(gathered) == 2, gathered
    assert gathered[0] <= n_blocks < n_docs, gathered

    stream = []
    for d, txt in zip(ids.tolist(), texts):
        for w in re.split(r"[^0-9a-z]+", txt.lower()):
            if w and len(w) < 40:
                stream.append((d, w))
    hs = _poly_hash31(pa.array([w for _, w in stream], pa.string()))
    want = {}
    for gpos, (d, _w) in enumerate(stream):
        s, p = gpos // L, gpos % L
        n, fd, ld, chk = want.get(s, (0, d, d, 0))
        want[s] = (n + 1, min(fd, d), max(ld, d), chk + int(hs[gpos]) * (p + 1))
    got = {int(r["seq_idx"]): (int(r["n_tok"]), int(r["first_doc"]),
                               int(r["last_doc"]), int(r["chk"]))
           for r in got_rows}
    assert got == want


def test_funnel_random_vs_bruteforce(ray_session):
    """Randomized funnel vs a per-user Python reference (anchored-first,
    strictly-after, windowed completion) across partitionings."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from toshi_ray.ops.windows import funnel

    rng = np.random.default_rng(47)
    types = np.array(["view", "click", "purchase", "error"])
    n = 600
    users = rng.integers(0, 25, n).astype(np.int64)
    ts = rng.choice(10_000, size=n, replace=False).astype(np.int64)  # unique ts
    ets = types[rng.integers(0, 4, n)]
    t = pa.table({"user_id": pa.array(users),
                  "ts": pa.array(ts, pa.timestamp("us")),
                  "event_type": pa.array(ets, pa.string())})

    want = {}
    for u in np.unique(users):
        m = users == u
        ut, ue = ts[m], ets[m]
        o = np.argsort(ut)
        ut, ue = ut[o], ue[o]
        t1 = next((int(x) for x, e in zip(ut, ue) if e == "view"), None)
        if t1 is None:
            continue
        t2 = next((int(x) for x, e in zip(ut, ue) if e == "click" and x > t1), None)
        t3 = None
        if t2 is not None:
            t3 = next((int(x) for x, e in zip(ut, ue)
                       if e == "purchase" and x > t2), None)
        want[int(u)] = (t1, t2 if t2 is not None else -1,
                        t3 if t3 is not None else -1,
                        int(t3 is not None))  # all ts < 1 s → window=1s trivially holds

    for nparts in (1, 4):
        got = {int(r["user_id"]): (int(r["t1_us"]), int(r["t2_us"]),
                                   int(r["t3_us"]), int(r["completed"]))
               for r in funnel(ray.data.from_arrow(t).repartition(nparts),
                               window_secs=1).take_all()}
        assert got == want, nparts


def test_sort_topk_random_nulls_vs_reference(ray_session):
    """Randomized sort-by top-k across segment layouts with random NULL
    patterns in the sort field: the zone-map walk's running-threshold
    pruning must stay invisible — results always equal the numpy
    reference ordering (value desc, NULLS LAST, doc_id asc), for any k
    including 0 and past-the-end."""
    import tempfile

    import numpy as np
    import pyarrow as pa
    import ray.data

    from toshi_ray.pipelines.build import build_index
    from toshi_ray.schema import FieldDef, Schema
    from toshi_ray.search import Searcher

    rng = np.random.default_rng(53)
    schema = Schema.build(
        FieldDef("doc_id", "u64", fast=True),
        FieldDef("val", "i64", fast=True),
        FieldDef("text", "text"),
    )
    for layout in range(4):
        n = int(rng.integers(50, 300))
        vals = rng.integers(-1000, 1000, n).astype(object)
        null_frac = float(rng.uniform(0, 0.9))
        vals[rng.random(n) < null_frac] = None
        tbl = pa.table({
            "doc_id": pa.array(np.arange(n, dtype=np.uint64)),
            "val": pa.array(list(vals), type=pa.int64()),
            "text": pa.array([f"w{i}" for i in range(n)]),
        })
        dps = int(rng.choice([25, 60, 1000]))  # many small / few / one segment
        root = tempfile.mkdtemp(prefix="toshi_fuzz_sort_")
        build_index(ray.data.from_arrow(tbl), schema, root, docs_per_segment=dps)
        s = Searcher(root, distributed=False)
        # reference: value desc, nulls last, doc_id asc
        fvals = np.array([float("-inf") if v is None else float(v) for v in vals])
        ref = np.lexsort((np.arange(n), -fvals))
        for k in (0, 1, int(rng.integers(2, n)), n, n + 10):
            r = s.search({"query": None, "sort_by": "val", "limit": k})
            got = [d["doc"]["doc_id"] for d in r["docs"]]
            assert got == [int(i) for i in ref[:k]], (layout, dps, k, null_frac)
