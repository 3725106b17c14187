"""Training-data ops tests — verified against in-process DuckDB / numpy
oracles on the real sf0.001 tables."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs(ray_session):
    import ray.data

    return ray.data.read_parquet(f"{SF}/documents.parquet")


@pytest.fixture(scope="module")
def emb(ray_session):
    import ray.data

    return ray.data.read_parquet(f"{SF}/embeddings.parquet")


def test_exact_dedup_matches_sql(docs):
    from toshi_ray.ops.dedup import exact_dedup

    got = pd.DataFrame(exact_dedup(docs).take_all()).sort_values("doc_id").reset_index(drop=True)
    want = duckdb.sql(
        f"SELECT min(doc_id) AS doc_id, count(*) AS n_copies "
        f"FROM read_parquet('{SF}/documents.parquet') GROUP BY text ORDER BY doc_id"
    ).df()
    pd.testing.assert_frame_equal(got.astype("int64"), want.astype("int64"))


def test_exact_dedup_finds_injected_dups(ray_session):
    import ray.data

    t = pa.table({"doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                  "text": ["same text", "other", "same text", "same text"]})
    from toshi_ray.ops.dedup import exact_dedup

    got = {r["doc_id"]: r["n_copies"] for r in exact_dedup(ray.data.from_arrow(t)).take_all()}
    assert got == {1: 3, 2: 1}


def test_minhash_estimates_jaccard(ray_session):
    import ray.data

    from toshi_ray.ops.dedup import minhash_lsh_pairs

    base = "the quick brown fox jumps over the lazy dog " * 5
    near = base.replace("lazy", "sleepy")
    far = "completely different words entirely unrelated content here now " * 5
    t = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()), "text": [base, near, far]})
    # 2-row bands: detection prob for J≈0.5 is 1-(1-J²)³² ≈ 1.0
    pairs = minhash_lsh_pairs(
        ray.data.from_arrow(t), threshold=0.3, num_perm=64, bands=32
    ).take_all()
    keys = {(r["id_a"], r["id_b"]) for r in pairs}
    assert (0, 1) in keys
    assert (0, 2) not in keys and (1, 2) not in keys


def test_simhash_near_dup(ray_session):
    import ray.data

    from toshi_ray.ops.dedup import simhash_near_dup_pairs, simhash_signatures

    base = "alpha beta gamma delta epsilon zeta eta theta " * 10
    near = base.replace("zeta", "zzeta")
    t = pa.table({"doc_id": pa.array([0, 1], pa.int64()), "text": [base, near]})
    sigs = {r["doc_id"]: r["simhash"] for r in simhash_signatures(ray.data.from_arrow(t)).take_all()}
    ham = bin(int(sigs[0]) ^ int(sigs[1])).count("1")
    assert ham <= 12
    pairs = simhash_near_dup_pairs(ray.data.from_arrow(t), max_hamming=12).take_all()
    assert {(r["id_a"], r["id_b"]) for r in pairs} == {(0, 1)}


def test_brute_force_ann_matches_numpy(emb):
    from toshi_ray.ops.similarity import brute_force_topk

    rows = emb.take_all()
    vecs = np.stack([r["embedding"] for r in rows]).astype(np.float64)
    ids = np.array([r["vec_id"] for r in rows])
    q = vecs[:3]
    got = brute_force_topk(emb, q, k=5, query_ids=ids[:3])
    vn = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sims = (q / np.linalg.norm(q, axis=1, keepdims=True)) @ vn.T
    for qi in range(3):
        order = np.lexsort((ids, -sims[qi]))[:5]
        want = ids[order].tolist()
        sub = got[got.query_id == ids[qi]]
        assert sub["vec_id"].tolist() == want


def test_ivf_recall_reasonable(emb, tmp_path):
    from toshi_ray.ops.similarity import (
        brute_force_topk,
        build_ivf_index,
        ivf_index_topk,
        train_ivf_centroids,
    )

    head = emb.limit(5).take_all()
    q = np.stack([r["embedding"] for r in head])
    bf = brute_force_topk(emb, q, k=10)
    cent = train_ivf_centroids(emb, n_cells=8)
    path = build_ivf_index(emb, cent, str(tmp_path / "ivf"))
    iv = ivf_index_topk(path, q, cent, k=10, nprobe=4)
    bs = set(map(tuple, bf[["query_id", "vec_id"]].values.tolist()))
    is_ = set(map(tuple, iv[["query_id", "vec_id"]].values.tolist()))
    assert len(bs & is_) / len(bs) >= 0.5  # nprobe=4 of 8 cells


@pytest.mark.parametrize("kind", ["ivf_index", "lsh", "pq"])
def test_ann_ties_at_the_cut_keep_the_lowest_ids(ray_session, tmp_path, kind):
    """Bit-equal scores at the k-th place keep the lowest ids, whatever
    the kernel and however the rows fall into blocks: 20 copies of query
    0's 5th-best vector, with ids that run down the row order, spread
    over 3 blocks (and, for IVF, into one of 4 cells)."""
    import ray.data

    from toshi_ray.ops.similarity import (
        _normalize,
        brute_force_topk,
        build_ivf_index,
        hash_pq_codebook,
        ivf_index_topk,
        lsh_topk,
        pq_topk,
        train_ivf_centroids,
    )

    rng = np.random.default_rng(5)
    n, d, k = 240, 8, 5
    v = rng.standard_normal((n, d))
    q = rng.standard_normal((2, d))
    ids = np.arange(n)[::-1].copy()
    fifth = np.argsort(-(_normalize(q[:1]) @ _normalize(v).T)[0], kind="stable")[k - 1]
    others = np.setdiff1d(np.arange(n), [fifth])
    v[rng.choice(others, 20, replace=False)] = v[fifth]
    t = pa.table({"vec_id": pa.array(ids, pa.int64()),
                  "embedding": pa.FixedSizeListArray.from_arrays(pa.array(v.reshape(-1)), d)})
    ds = ray.data.from_arrow(t).repartition(3)
    qids = np.array([7, 8])

    if kind == "pq":
        book = hash_pq_codebook(4, 16, 2)
        got = pq_topk(ds, q, book, k=k, query_ids=qids)
        one = pq_topk(ray.data.from_arrow(t).repartition(1), q, book, k=k, query_ids=qids)
        pd.testing.assert_frame_equal(got, one)
        return
    if kind == "ivf_index":
        cent = train_ivf_centroids(ds, n_cells=4)
        path = build_ivf_index(ds, cent, str(tmp_path / "ivf"))
        got = ivf_index_topk(path, q, cent, k=k, nprobe=4, query_ids=qids)
    else:
        got = lsh_topk(ds, q, k=k, n_planes=d, probe_hamming=d, query_ids=qids)
    want = brute_force_topk(ds, q, k=k, query_ids=qids)
    assert (got[["query_id", "vec_id"]].values.tolist()
            == want[["query_id", "vec_id"]].values.tolist())
    np.testing.assert_allclose(got["score"], want["score"], rtol=1e-12)


def test_token_stats_matches_sql(docs):
    from toshi_ray.ops.textstats import token_stats

    got = pd.DataFrame(token_stats(docs).take_all()).sort_values("doc_id").reset_index(drop=True)
    want = duckdb.sql(f"""
        WITH toks AS (SELECT doc_id, text, list_filter(regexp_split_to_array(lower(text),'[^a-z0-9]+'),
                      t -> length(t)>0 AND strlen(t)<40) tk
                      FROM read_parquet('{SF}/documents.parquet'))
        SELECT doc_id, len(tk) n_tokens, len(list_distinct(tk)) n_uniq,
               len(list_filter(regexp_split_to_array(text,'\\s+'), t->length(t)>0)) n_ws_tokens,
               length(text) text_chars
        FROM toks ORDER BY doc_id""").df()
    pd.testing.assert_frame_equal(got.astype("int64"), want.astype("int64"))


def test_lang_id_prefers_matching_stopwords(ray_session):
    import ray.data

    from toshi_ray.ops.textstats import lang_id

    t = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                  "text": ["the cat is on the mat", "der hund ist nicht mit der katze",
                           "xyz qrs tuv"]})
    got = {r["doc_id"]: r["pred_lang"] for r in lang_id(ray.data.from_arrow(t)).take_all()}
    assert got == {0: "en", 1: "de", 2: "en"}


def test_fingerprint_order_sensitive(ray_session):
    import ray.data

    from toshi_ray.ops.textstats import fingerprint

    t = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                  "text": ["a b c", "c b a", "a b c"]})
    got = {r["doc_id"]: r["fp"] for r in fingerprint(ray.data.from_arrow(t)).take_all()}
    assert got[0] == got[2] != got[1]


def test_multimodal_stub_plumbing(ray_session):
    import ray.data

    from toshi_ray.ops.multimodal import FrameSampleStage, decode_images

    imgs = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                     "data": pa.array([b"payload-1", b"payload-2"], pa.binary())})
    rows = decode_images(ray.data.from_arrow(imgs), concurrency=1, batch_size=2).take_all()
    assert len(rows) == 2 and len(rows[0]["feature"]) == 16
    assert rows[0]["width"] >= 1 and rows[0]["mode"] in ("RGB", "L")
    # deterministic: same payload → same fake decode
    rows2 = decode_images(ray.data.from_arrow(imgs), concurrency=1, batch_size=1).take_all()
    assert rows == rows2

    fs = FrameSampleStage()(pa.table({"doc_id": pa.array([7], pa.int64()),
                                      "duration_ms": pa.array([2500], pa.int64())}))
    assert fs["frame_ms"].to_pylist() == [0, 1000, 2000]


def test_tumbling_window_matches_sql(ray_session):
    import ray.data

    from toshi_ray.ops.windows import tumbling_window_agg

    ds = ray.data.read_parquet(f"{SF}/events.parquet")
    got = (pd.DataFrame(tumbling_window_agg(ds).take_all())
           .sort_values(["event_type", "window_start_s"]).reset_index(drop=True))
    want = duckdb.sql(f"""
        SELECT event_type, CAST(floor(epoch(ts)/3600)*3600 AS BIGINT) window_start_s,
               count(*) n, sum(CAST(floor(value*1000) AS BIGINT)) sum_value_x1e3
        FROM read_parquet('{SF}/events.parquet')
        GROUP BY 1, 2 ORDER BY 1, 2""").df()
    pd.testing.assert_frame_equal(
        got.astype({"n": "int64", "sum_value_x1e3": "int64"}),
        want.astype({"n": "int64", "sum_value_x1e3": "int64"}),
        check_dtype=False,
    )


def test_content_hash_batch_invariant():
    """Regression: equal strings must hash equal regardless of which
    batch (and which batch max-length) they appear in."""
    import pyarrow as pa

    from toshi_ray.ops.dedup import _hash_strings

    strs = ["short", "a" * 100, "short", "", "medium length string here", "a" * 100]
    full = _hash_strings(pa.array(strs, pa.large_binary()))
    b1 = _hash_strings(pa.array(["short", ""], pa.large_binary()))
    b2 = _hash_strings(pa.array(["a" * 100, "short"], pa.large_binary()))
    assert full[0] == full[2] == b1[0] == b2[1]
    assert full[1] == full[5] == b2[0]
    assert full[3] == b1[1]
    assert len(set(full.tolist())) == 4


def test_exact_dedup_across_batches(ray_session):
    """Duplicates must collapse even when copies land in different blocks."""
    import pyarrow as pa
    import ray.data

    from toshi_ray.ops.dedup import exact_dedup

    long = "x" * 500
    t1 = pa.table({"doc_id": pa.array([1, 2], pa.int64()), "text": ["dup me", long]})
    t2 = pa.table({"doc_id": pa.array([3, 4], pa.int64()), "text": ["dup me", "unique"]})
    ds = ray.data.from_arrow(t1).union(ray.data.from_arrow(t2))
    got = {r["doc_id"]: r["n_copies"] for r in exact_dedup(ds).take_all()}
    assert got == {1: 2, 2: 1, 4: 1}


def test_ivf_partitioned_index(emb, tmp_path):
    """The partitioned IVF index reads only the probed cells, and each
    query gets the exact (score desc, id asc) top-k over the vectors of
    its own probed cells."""
    import glob
    import os

    import pyarrow.parquet as pq

    from toshi_ray.ops.similarity import (
        _normalize,
        _vec_matrix,
        build_ivf_index,
        ivf_index_topk,
        train_ivf_centroids,
    )

    cent = train_ivf_centroids(emb, n_cells=8)
    path = build_ivf_index(emb, cent, str(tmp_path / "ivf"))
    cells_on_disk = [d for d in os.listdir(path) if d.startswith("cell=")]
    assert len(cells_on_disk) == 8

    head = emb.limit(4).take_all()
    q = np.stack([r["embedding"] for r in head])
    qids = np.array([r["vec_id"] for r in head])
    got, stats = ivf_index_topk(path, q, cent, k=8, nprobe=3, query_ids=qids,
                                return_stats=True)

    qn = _normalize(q.astype(np.float64))
    probes = np.argsort(-(qn @ cent.T), axis=1)[:, :3]
    probed_files = {f for c in np.unique(probes)
                    for f in glob.glob(os.path.join(path, f"cell={c}", "*.parquet"))}
    assert stats["files_read"] == len(probed_files) < stats["files_total"]

    index = pq.read_table(path, columns=["vec_id", "embedding", "cell_id"])
    ids = index["vec_id"].to_numpy()
    cell = index["cell_id"].to_numpy()
    sims = qn @ _normalize(_vec_matrix(index["embedding"])).T
    want = []
    for qi in range(len(qids)):
        own = np.flatnonzero(np.isin(cell, probes[qi]))
        top = own[np.lexsort((ids[own], -sims[qi, own]))[:8]]
        want += [[qids[qi], i] for i in ids[top]]
    want.sort(key=lambda r: r[0])  # stable: the result is in query_id order
    assert got[["query_id", "vec_id"]].values.tolist() == want


def test_sliding_window_matches_sql(ray_session):
    import ray.data

    from toshi_ray.ops.windows import sliding_window_agg

    ds = ray.data.read_parquet(f"{SF}/events.parquet")
    got = (pd.DataFrame(sliding_window_agg(ds, window_secs=3600, slide_secs=1800).take_all())
           .sort_values(["event_type", "window_start_s"]).reset_index(drop=True))
    want = duckdb.sql(f"""
        WITH e AS (SELECT event_type, CAST(floor(epoch(ts)/1800)*1800 AS BIGINT) top,
                          CAST(floor(value*1000) AS BIGINT) v
                   FROM read_parquet('{SF}/events.parquet')),
        x AS (SELECT event_type, v, unnest([top, top - 1800]) ws FROM e)
        SELECT event_type, ws window_start_s, count(*) n, sum(v) sum_value_x1e3
        FROM x GROUP BY 1,2 ORDER BY 1,2""").df()
    pd.testing.assert_frame_equal(
        got.astype({"n": "int64", "sum_value_x1e3": "int64", "window_start_s": "int64"}),
        want.astype({"n": "int64", "sum_value_x1e3": "int64", "window_start_s": "int64"}),
        check_dtype=False,
    )


def test_session_window_matches_sql(ray_session):
    import ray.data

    from toshi_ray.ops.windows import session_window_agg

    ds = ray.data.read_parquet(f"{SF}/events.parquet")
    got = (pd.DataFrame(session_window_agg(ds, gap_secs=1800).take_all())
           .sort_values(["user_id", "session_start_us"]).reset_index(drop=True))
    want = duckdb.sql(f"""
        WITH e AS (SELECT user_id, event_id, epoch_us(ts) ts_us,
                          CAST(floor(value*1000) AS BIGINT) v
                   FROM read_parquet('{SF}/events.parquet')),
        m AS (SELECT *, CASE WHEN lag(ts_us) OVER w IS NULL
                               OR ts_us - lag(ts_us) OVER w > 1800*1000000
                             THEN 1 ELSE 0 END brk
              FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ts_us, event_id)),
        s AS (SELECT *, sum(brk) OVER (PARTITION BY user_id ORDER BY ts_us, event_id
                                       ROWS UNBOUNDED PRECEDING) sid FROM m)
        SELECT user_id, min(ts_us) session_start_us, count(*) n, sum(v) sum_value_x1e3
        FROM s GROUP BY user_id, sid ORDER BY 1, 2""").df()
    pd.testing.assert_frame_equal(
        got.astype("int64"), want.astype("int64"), check_dtype=False)


def test_simhash_pairs_match_bruteforce_with_cap(ray_session):
    """Banded SimHash pairs == a brute-force reference over the same
    signatures: per (band, 16-bit chunk) bucket, all pairs at or under
    bucket_cap, a star to the min id above it, deduped across bands,
    kept at hamming <= max_hamming. The corpus holds buckets of 2, 3 and
    more than bucket_cap rows."""
    from itertools import combinations

    import ray.data

    from toshi_ray.ops.dedup import simhash_near_dup_pairs, simhash_signatures

    rng = np.random.default_rng(41)

    def doc(tag, n=40):
        return " ".join(f"{tag}{w}" for w in rng.integers(0, 60, size=n))

    a, b, c = doc("a"), doc("b"), doc("c")
    texts = [doc(f"r{i}_") for i in range(20)]
    texts += [a] * 2 + [b] * 3 + [c] * 6
    texts += [b + " tailword", c[: len(c) // 2]]
    ids = np.arange(len(texts), dtype=np.int64) * 7 + 3  # non-positional ids
    t = pa.table({"doc_id": pa.array(ids), "text": texts})
    cap, max_ham = 4, 10

    sigs = {int(r["doc_id"]): int(r["simhash"])
            for r in simhash_signatures(ray.data.from_arrow(t)).take_all()}
    buckets = {}
    for d, sh in sigs.items():
        for band in range(4):
            buckets.setdefault((band, (sh >> (16 * band)) & 0xFFFF), []).append(d)
    sizes = {len(m) for m in buckets.values()}
    assert {2, 3} <= sizes and max(sizes) > cap
    want = {}
    for members in buckets.values():
        members = sorted(members)
        if len(members) <= cap:
            cand = combinations(members, 2)
        else:
            cand = ((members[0], m) for m in members[1:])
        for x, y in cand:
            ham = bin(sigs[x] ^ sigs[y]).count("1")
            if ham <= max_ham:
                want[(x, y)] = ham

    got_rows = simhash_near_dup_pairs(
        ray.data.from_arrow(t).repartition(3), max_hamming=max_ham, bucket_cap=cap
    ).take_all()
    got = {(int(r["id_a"]), int(r["id_b"])): int(r["hamming"]) for r in got_rows}
    assert len(got_rows) == len(got)  # deduped across bands
    assert got == want
    assert len(want) > 5


# ---- round-2 additions: bucket caps, vectorized jaccard, sql hashes ----

def test_minhash_skew_corpus_capped_star(ray_session, caplog):
    """1k identical docs land in one LSH bucket; the cap must prevent
    the O(n²) blowup while keeping all docs in ONE connected component
    (star pairing), and must be logged, never silent."""
    import logging

    import ray.data

    from toshi_ray.ops.dedup import minhash_lsh_pairs

    n = 1000
    t = pa.table({"doc_id": pa.array(np.arange(n), pa.int64()),
                  "text": ["identical content repeated many times over " * 3] * n})
    with caplog.at_level(logging.WARNING, logger="toshi_ray.dedup"):
        pairs = minhash_lsh_pairs(
            ray.data.from_arrow(t), threshold=0.3, num_perm=16, bands=4,
            bucket_cap=64,
        ).take_all()
    # union-find: all docs must connect through the star representative
    parent = np.arange(n)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r in pairs:
        parent[find(int(r["id_a"]))] = find(int(r["id_b"]))
    assert len({find(i) for i in range(n)}) == 1
    assert len(pairs) < n * 8  # star-bounded, nowhere near n²/2
    # the oversized-bucket warning fires inside Ray workers (visible in
    # their logs); assert the logging contract in-process instead
    from toshi_ray.ops.dedup import _pair_index

    with caplog.at_level(logging.WARNING, logger="toshi_ray.dedup"):
        ia, ib = _pair_index([100], 64)
    assert ia.size == 99 and (ia == 0).all()
    assert any("exceeds cap" in r.message for r in caplog.records)


def _runs_reference(sizes, run_pairs):
    """Concatenate per-run (ia, ib) position pairs, offset by run start."""
    ra, rb, start = [], [], 0
    for i, s in enumerate(sizes):
        a, b = run_pairs(i, s)
        ra.append(np.asarray(a, np.int64) + start)
        rb.append(np.asarray(b, np.int64) + start)
        start += s
    return np.concatenate([np.empty(0, np.int64), *ra]), np.concatenate(
        [np.empty(0, np.int64), *rb])


def test_pair_index_matches_triu_and_star_reference(caplog):
    """The vectorized all-runs enumerator == per-run np.triu_indices (at
    or under cap) or a star to the run's first row (above cap), in the
    same order, with one warning per capped run."""
    import logging

    from toshi_ray.ops.dedup import _pair_index

    rng = np.random.default_rng(23)
    for _ in range(200):
        sizes = rng.integers(0, 14, size=rng.integers(0, 9))
        cap = int(rng.integers(0, 12))
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="toshi_ray.dedup"):
            ia, ib = _pair_index(sizes, cap)
        want_a, want_b = _runs_reference(
            sizes,
            lambda i, s: np.triu_indices(s, k=1) if s <= cap
            else (np.zeros(s - 1), np.arange(1, s)),
        )
        np.testing.assert_array_equal(ia, want_a)
        np.testing.assert_array_equal(ib, want_b)
        n_warn = sum("exceeds cap" in r.message for r in caplog.records)
        assert n_warn == int((sizes > cap).sum())


def test_cross_index_matches_product_and_star_reference(caplog):
    """The vectorized cross-side enumerator == per-run ref x new product
    (at or under pair_cap) or every new row paired with the run's first
    ref row (above it), logged per capped run."""
    import logging

    from toshi_ray.ops.dedup import _cross_index

    rng = np.random.default_rng(29)
    for _ in range(200):
        sizes = rng.integers(0, 12, size=rng.integers(0, 9))
        sides = [np.sort(rng.integers(0, 2, size=s)) for s in sizes]
        side = np.concatenate([np.empty(0, np.int64), *sides]).astype(np.int64)
        pair_cap = int(rng.integers(0, 20))

        def run_pairs(i, s):
            ref = np.flatnonzero(sides[i] == 0)
            new = np.flatnonzero(sides[i] == 1)
            if ref.size * new.size > pair_cap:
                return np.full(new.size, ref[0]), new
            return np.repeat(ref, new.size), np.tile(new, ref.size)

        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="toshi_ray.dedup"):
            ia, ib = _cross_index(sizes, side, pair_cap)
        want_a, want_b = _runs_reference(sizes, run_pairs)
        np.testing.assert_array_equal(ia, want_a)
        np.testing.assert_array_equal(ib, want_b)
        n_capped = sum(
            (s == 0).sum() * (s == 1).sum() > pair_cap for s in sides
        )
        assert sum("exceeds pair_cap" in r.message for r in caplog.records) == n_capped


def test_ngram_jaccard_matches_bruteforce(ray_session):
    """Vectorized inverted-shingle jaccard == naive tuple-set jaccard."""
    import ray.data

    from toshi_ray.analyzer import DefaultAnalyzer
    from toshi_ray.ops.dedup import ngram_jaccard_pairs

    rng = np.random.default_rng(5)
    words = [f"tok{i}" for i in range(30)]
    texts = [" ".join(rng.choice(words, size=rng.integers(6, 25))) for _ in range(40)]
    buckets = [f"s{i % 3}" for i in range(40)]
    t = pa.table({"doc_id": pa.array(np.arange(40), pa.int64()),
                  "text": texts, "source": buckets})
    got = pd.DataFrame(
        ngram_jaccard_pairs(ray.data.from_arrow(t), "source", threshold=0.05).take_all()
    )
    got = got.sort_values(["id_a", "id_b"]).reset_index(drop=True) if len(got) else got

    an = DefaultAnalyzer()
    sets = []
    for tx in texts:
        toks = an.tokens(tx)
        sets.append({tuple(toks[i:i + 3]) for i in range(len(toks) - 2)})
    rows = []
    for i in range(40):
        for j in range(i + 1, 40):
            if buckets[i] != buckets[j]:
                continue
            u = len(sets[i] | sets[j])
            jac = len(sets[i] & sets[j]) / u if u else 0.0
            if jac >= 0.05:
                rows.append((i, j, jac))
    want = pd.DataFrame(rows, columns=["id_a", "id_b", "jaccard"])
    assert len(got) == len(want)
    if len(want):
        np.testing.assert_array_equal(got["id_a"].to_numpy(), want["id_a"].to_numpy())
        np.testing.assert_array_equal(got["id_b"].to_numpy(), want["id_b"].to_numpy())
        np.testing.assert_allclose(got["jaccard"].to_numpy(), want["jaccard"].to_numpy())


def test_ngram_jaccard_verify_pairs(ray_session):
    """The LSH-candidate verify stage computes exact jaccard for an
    explicit pair list (minhash → verify composition)."""
    import ray.data

    from toshi_ray.analyzer import DefaultAnalyzer
    from toshi_ray.ops.dedup import ngram_jaccard_verify_pairs

    texts = ["the quick brown fox jumps over the lazy dog again and again",
             "the quick brown fox jumps over the sleepy dog again and again",
             "entirely different content with no shared trigram phrases at all"]
    t = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()), "text": texts})
    pairs = pd.DataFrame({"id_a": [0, 0], "id_b": [1, 2]})
    out = ngram_jaccard_verify_pairs(ray.data.from_arrow(t), pairs)

    an = DefaultAnalyzer()
    sets = [
        {tuple(an.tokens(tx)[i:i + 3]) for i in range(len(an.tokens(tx)) - 2)}
        for tx in texts
    ]
    for _, r in out.iterrows():
        a, b = sets[int(r["id_a"])], sets[int(r["id_b"])]
        assert abs(r["jaccard"] - len(a & b) / len(a | b)) < 1e-12


def test_embedding_near_dup_axis_planes_exact(ray_session):
    """Partitioned embedding near-dup == direct numpy same-bucket +
    cosine>=threshold check (axis planes are fully deterministic)."""
    import ray.data

    from toshi_ray.ops.dedup import embedding_near_dup_pairs

    rng = np.random.default_rng(9)
    n, d = 200, 16
    v = rng.standard_normal((n, d))
    t = pa.table({"vec_id": pa.array(np.arange(n), pa.int64()),
                  "embedding": pa.FixedSizeListArray.from_arrays(
                      pa.array(v.reshape(-1)), d)})
    th, npl = 0.30, 4
    got = pd.DataFrame(
        embedding_near_dup_pairs(
            ray.data.from_arrow(t), threshold=th, n_planes=npl, planes="axis"
        ).take_all()
    )
    gk = set(zip(got["id_a"].astype(int), got["id_b"].astype(int))) if len(got) else set()

    vn = v / np.linalg.norm(v, axis=1, keepdims=True)
    bucket = ((vn[:, :npl] > 0) @ (1 << np.arange(npl))).astype(int)
    sims = vn @ vn.T
    want = {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if bucket[i] == bucket[j] and sims[i, j] >= th
    }
    assert gk == want


def test_poly_hash31_matches_duckdb(ray_session):
    """Engine token hash == the DuckDB expression used by the oracles."""
    from toshi_ray.ops.dedup import _poly_hash31

    toks = ["spark", "a", "xyz123", "zzz", "ünïcode"]
    got = _poly_hash31(pa.array(toks)).tolist()
    want = duckdb.sql(
        "SELECT list_transform(" + str(toks) + ", t -> "
        "list_reduce(list_prepend(CAST(0 AS BIGINT), "
        "list_transform(range(1, length(t)+1), i -> CAST(unicode(t[i:i]) AS BIGINT))), "
        "(a, c) -> (a * 257 + c) % 2147483647))"
    ).fetchone()[0]
    assert got == want


def test_ivf_realistic_cells_prunes_and_recalls(ray_session, tmp_path):
    """VERDICT round-1 item 10: n_cells ~ √N with the streamed sketch
    k-means. 100k vectors / 256 cells: a probe must touch only the
    probed cells' bytes, and recall@10 vs brute force stays high."""
    import ray.data

    from toshi_ray.ops.similarity import (
        brute_force_topk,
        build_ivf_index,
        ivf_index_topk,
        train_ivf_centroids_distributed,
    )

    rng = np.random.default_rng(17)
    n, d, n_cells = 100_000, 16, 256
    centers = rng.standard_normal((300, d)) * 3.0
    v = centers[rng.integers(0, 300, n)] + rng.standard_normal((n, d)) * 0.35
    t = pa.table({"vec_id": pa.array(np.arange(n), pa.int64()),
                  "embedding": pa.FixedSizeListArray.from_arrays(
                      pa.array(v.reshape(-1)), d)})
    ds = ray.data.from_arrow(t).repartition(16)

    cent = train_ivf_centroids_distributed(ds, n_cells=n_cells, sketch_per_block=64)
    assert cent.shape == (n_cells, d)
    path = str(tmp_path / "ivf256")
    build_ivf_index(ds, cent, path)

    # pruning: ONE query probing 8 of 256 cells reads a bounded fraction
    nprobe = 8
    _, stats = ivf_index_topk(path, v[:1], cent, k=10, nprobe=nprobe,
                              query_ids=np.arange(1), return_stats=True)
    assert stats["files_read"] < stats["files_total"]
    assert stats["bytes_read"] <= stats["bytes_total"] * (nprobe / n_cells) * 3.0

    # recall@10 over 20 queries
    q = v[:20]
    got = ivf_index_topk(path, q, cent, k=10, nprobe=nprobe,
                         query_ids=np.arange(20))
    bf = brute_force_topk(ds, q, k=10, query_ids=np.arange(20))
    bs = set(map(tuple, bf[["query_id", "vec_id"]].values.tolist()))
    is_ = set(map(tuple, got[["query_id", "vec_id"]].values.tolist()))
    assert len(bs & is_) / len(bs) >= 0.8


def test_exact_dedup_drop_survivors(docs):
    """Materializing dedup keeps exactly the min-id row per distinct
    text, with full row content preserved."""
    from toshi_ray.ops.dedup import exact_dedup_drop

    rows = exact_dedup_drop(docs).take_all()
    got_ids = sorted(int(r["doc_id"]) for r in rows)
    want = duckdb.sql(
        f"SELECT min(doc_id) FROM read_parquet('{SF}/documents.parquet') "
        f"GROUP BY text ORDER BY 1"
    ).df().iloc[:, 0].tolist()
    assert got_ids == want
    # survivors carry their original text
    src = duckdb.sql(
        f"SELECT doc_id, text FROM read_parquet('{SF}/documents.parquet')"
    ).df().set_index("doc_id")["text"].to_dict()
    for r in rows:
        assert r["text"] == src[r["doc_id"]]


def test_cleaning_ops(ray_session):
    import ray.data

    from toshi_ray.ops.cleaning import decontaminate, normalize_text, redact_pii

    t = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": ["  hello   world\t\nagain ",
                 "mail me at bob.smith+x@example.co.uk or 123456789012",
                 "the quick brown fox jumps over the lazy dog"],
    })
    ds = ray.data.from_arrow(t)

    norm = {r["doc_id"]: r for r in normalize_text(ds).take_all()}
    assert norm[0]["text_norm"] == "hello world again"
    assert norm[0]["chars_after"] == len("hello world again")

    red = {r["doc_id"]: r for r in redact_pii(ds).take_all()}
    assert red[1]["text_redacted"] == "mail me at <EMAIL> or <NUM>"
    assert red[1]["n_emails"] == 1 and red[1]["n_long_numbers"] == 1
    assert red[2]["n_emails"] == 0

    # doc 2 shares trigrams with the reference; docs 0/1 do not
    out = {r["doc_id"]: r for r in decontaminate(
        ds, ["the quick brown fox is here"], n=3).take_all()}
    assert out[2]["contaminated"] and out[2]["n_hit_ngrams"] == 2
    assert not out[0]["contaminated"] and not out[1]["contaminated"]


def test_audio_stage_plumbing(ray_session):
    import ray.data

    from toshi_ray.ops.multimodal import extract_audio_features

    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "data": pa.array([b"wav-1", b"wav-2"], pa.binary())})
    rows = extract_audio_features(ray.data.from_arrow(t), concurrency=1,
                                  batch_size=2).take_all()
    assert len(rows) == 2 and len(rows[0]["feature"]) == 8
    assert rows[0]["n_samples"] >= 1 and rows[0]["sample_rate"] in (16_000, 44_100)
    # deterministic across batchings
    rows2 = extract_audio_features(ray.data.from_arrow(t), concurrency=1,
                                   batch_size=1).take_all()
    assert rows == rows2


def test_multimodal_empty_batch_safe():
    """Every multimodal stage must pass an empty batch through cleanly
    (upstream filters can empty a block)."""
    from toshi_ray.ops.multimodal import (
        AudioFeatureStage,
        FrameSampleStage,
        ImageDecodeStage,
    )

    empty_bin = pa.table({"doc_id": pa.array([], pa.int64()),
                          "data": pa.array([], pa.binary())})
    assert ImageDecodeStage()(empty_bin).num_rows == 0
    assert AudioFeatureStage()(empty_bin).num_rows == 0
    empty_dur = pa.table({"doc_id": pa.array([], pa.int64()),
                          "duration_ms": pa.array([], pa.int64())})
    assert FrameSampleStage()(empty_dur).num_rows == 0


def test_image_dims_header_parsers():
    """Header-only geometry from the published container formats —
    handcrafted byte payloads, no image libraries involved."""
    import struct

    from toshi_ray.ops.codecs import encode_pnm, image_dims

    png = (b"\x89PNG\r\n\x1a\n" + struct.pack(">I", 13) + b"IHDR"
           + struct.pack(">II", 640, 480) + b"\x08\x02\x00\x00\x00")
    assert image_dims(png) == ("png", 640, 480)

    gif = b"GIF89a" + struct.pack("<HH", 320, 200) + b"\xf7\x00\x00"
    assert image_dims(gif) == ("gif", 320, 200)

    # JPEG: SOI → APP0 (JFIF) → DQT filler → SOF0 carrying 480x640
    app0 = b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00" + bytes(9)
    dqt = b"\xff\xdb" + struct.pack(">H", 5) + bytes(3)
    sof0 = (b"\xff\xc0" + struct.pack(">H", 17) + b"\x08"
            + struct.pack(">HH", 480, 640) + b"\x03" + bytes(9))
    assert image_dims(b"\xff\xd8" + app0 + dqt + sof0) == ("jpeg", 640, 480)
    # progressive JPEG (SOF2) and fill-byte padding before markers
    sof2 = (b"\xff\xc2" + struct.pack(">H", 17) + b"\x08"
            + struct.pack(">HH", 10, 20) + b"\x03" + bytes(9))
    assert image_dims(b"\xff\xd8\xff" + app0[1:] + sof2) == ("jpeg", 20, 10)

    pnm = encode_pnm(np.arange(12, dtype=np.uint8).reshape(3, 4))
    assert image_dims(pnm) == ("pnm", 4, 3)

    assert image_dims(b"\xff\xd8\x00garbage") is None  # corrupt JPEG
    # SOS (start-of-scan) with no SOF before it: the header section has
    # no geometry — the scan must stop, not walk entropy-coded data
    # where stuffed FF bytes could mimic an SOF with garbage dims
    sos = b"\xff\xda" + struct.pack(">H", 8) + bytes(6)
    fake_sof_in_scan = (b"\xff\xc0" + struct.pack(">H", 17) + b"\x08"
                        + struct.pack(">HH", 9999, 9999) + b"\x03" + bytes(9))
    assert image_dims(b"\xff\xd8" + app0 + sos + fake_sof_in_scan) is None
    # EOI before any SOF likewise terminates
    assert image_dims(b"\xff\xd8" + app0 + b"\xff\xd9") is None
    assert image_dims(b"not an image") is None
    # hostile/corrupt headers with dims outside (0, 2^31) are rejected,
    # never wrapped into negative int32 geometry downstream
    huge = (b"\x89PNG\r\n\x1a\n" + struct.pack(">I", 13) + b"IHDR"
            + struct.pack(">II", 3_000_000_000, 10) + b"\x08\x02\x00\x00\x00")
    assert image_dims(huge) is None
    zero = (b"\x89PNG\r\n\x1a\n" + struct.pack(">I", 13) + b"IHDR"
            + struct.pack(">II", 0, 10) + b"\x08\x02\x00\x00\x00")
    assert image_dims(zero) is None


def test_image_decode_stage_header_geometry():
    """PNG/GIF/JPEG payloads get REAL header geometry (mode '<fmt>-header',
    real_decode=False since no raster was decoded); unknown payloads keep
    the deterministic fake path; PNM stays a full real decode."""
    import struct

    from toshi_ray.ops.codecs import encode_pnm
    from toshi_ray.ops.multimodal import ImageDecodeStage

    png = (b"\x89PNG\r\n\x1a\n" + struct.pack(">I", 13) + b"IHDR"
           + struct.pack(">II", 99, 77) + b"\x08\x02\x00\x00\x00")
    pnm = encode_pnm(np.arange(12, dtype=np.uint8).reshape(3, 4))
    t = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                  "data": pa.array([png, pnm, b"opaque"], pa.binary())})
    stage = ImageDecodeStage()
    if not stage.stubbed:
        import pytest

        pytest.skip("PIL available — header fallback path not taken")
    out = {r["doc_id"]: r for r in stage(t).to_pylist()}
    assert (out[1]["width"], out[1]["height"]) == (99, 77)
    assert out[1]["mode"] == "png-header" and not out[1]["real_decode"]
    assert (out[2]["width"], out[2]["height"]) == (4, 3) and out[2]["real_decode"]
    assert out[3]["mode"] in ("RGB", "L") and not out[3]["real_decode"]
    # batch-invariance of the whole stage output
    solo = {r["doc_id"]: r
            for i in range(3)
            for r in stage(t.slice(i, 1)).to_pylist()}
    assert solo == out


# ---- round-3 additions: sql-perm minhash, run caps, distributed verify ----

def test_minhash_sql_perm_batch_invariant():
    """perm_hash="sql" signatures are deterministic and batch-invariant:
    a doc's signature never depends on which batch it arrived in."""
    from toshi_ray.ops.dedup import MinHasher

    texts = ["alpha beta gamma delta epsilon zeta", "one two three four five six",
             "alpha beta gamma delta epsilon zeta"]
    mh = MinHasher("text", "doc_id", 3, 16, perm_hash="sql")
    full = mh.signatures(pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                                   "text": texts}))
    solo = mh.signatures(pa.table({"doc_id": pa.array([9], pa.int64()),
                                   "text": [texts[0]]}))
    np.testing.assert_array_equal(full[0], full[2])
    np.testing.assert_array_equal(full[0], solo[0])
    assert full.dtype == np.int64 and (full < (1 << 31)).all() and (full >= 0).all()
    # an under-3-token doc gets the all-sentinel signature
    empty = mh.signatures(pa.table({"doc_id": pa.array([0], pa.int64()),
                                    "text": ["one two"]}))
    assert (empty == (1 << 31) - 1).all()


def test_minhash_sql_mode_pairs(ray_session):
    """End-to-end perm_hash="sql" LSH finds the near-dup pair and
    reports est_jaccard as an exact multiple of 1/num_perm."""
    import ray.data

    from toshi_ray.ops.dedup import minhash_lsh_pairs

    base = "the quick brown fox jumps over the lazy dog " * 5
    near = base.replace("lazy", "sleepy")
    far = "completely different words entirely unrelated content here now " * 5
    t = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                  "text": [base, near, far]})
    pairs = minhash_lsh_pairs(
        ray.data.from_arrow(t), threshold=0.3, num_perm=64, bands=32,
        perm_hash="sql",
    ).take_all()
    keys = {(r["id_a"], r["id_b"]) for r in pairs}
    assert (0, 1) in keys and (0, 2) not in keys
    for r in pairs:
        n_agree = r["est_jaccard"] * 64
        assert abs(n_agree - round(n_agree)) < 1e-12


def test_ngram_jaccard_hot_shingle_run_capped(caplog):
    """A shingle shared by more docs than max_run must be skipped (with
    a log), bounding pair count far below the quadratic blowup."""
    import logging

    from toshi_ray.ops.dedup import _jaccard_pairs_in_group

    n_docs = 500
    # every doc shares one stock phrase (the hot run) + has unique tail
    texts = [f"breaking news update today item{i} detail{i} extra{i}"
             for i in range(n_docs)]
    ids = np.arange(n_docs)
    with caplog.at_level(logging.WARNING, logger="toshi_ray.dedup"):
        out = _jaccard_pairs_in_group(texts, ids, 3, 0.01, max_run=64)
    assert any("shingle runs longer than" in r.message for r in caplog.records)
    # the hot runs ("breaking news update", "news update today") are
    # skipped, so no quadratic 500*499/2 pair explosion
    assert len(out) < n_docs * 10


def test_ngram_jaccard_verify_distributed_matches_local(ray_session):
    """The distributed reduce-side verify == direct python set jaccard,
    including pairs referencing ids absent from the corpus (0.0)."""
    import ray.data

    from toshi_ray.analyzer import DefaultAnalyzer
    from toshi_ray.ops.dedup import ngram_jaccard_verify_pairs

    rng = np.random.default_rng(17)
    words = [f"w{i}" for i in range(40)]
    texts = [" ".join(rng.choice(words, size=rng.integers(8, 30))) for _ in range(30)]
    t = pa.table({"doc_id": pa.array(np.arange(30), pa.int64()), "text": texts})
    pairs = pd.DataFrame({
        "id_a": [0, 3, 7, 11, 2, 28],
        "id_b": [1, 4, 9, 15, 99, 29],  # 99 missing from corpus
    })
    out = ngram_jaccard_verify_pairs(
        ray.data.from_arrow(t).repartition(4), pairs)

    an = DefaultAnalyzer()
    sets = []
    for tx in texts:
        toks = an.tokens(tx)
        sets.append({tuple(toks[i:i + 3]) for i in range(len(toks) - 2)})
    for _, r in out.iterrows():
        a, b = int(r["id_a"]), int(r["id_b"])
        if b == 99:
            assert r["jaccard"] == 0.0
            continue
        u = len(sets[a] | sets[b])
        want = len(sets[a] & sets[b]) / u if u else 0.0
        assert abs(r["jaccard"] - want) < 1e-12, (a, b)


def test_attach_blob_preserves_big_ids(ray_session):
    """Reduce-side join must carry hash-derived doc ids > 2^53 exactly
    (a pandas float64 round-trip would corrupt them silently)."""
    import ray.data

    from toshi_ray.ops.dedup import _attach_blob

    big_a = (1 << 60) + 3
    big_b = (1 << 62) + 11
    pairs = ray.data.from_arrow(pa.table({
        "id_a": pa.array([big_a], pa.int64()),
        "id_b": pa.array([big_b], pa.int64()),
    }))
    blobs = ray.data.from_arrow(pa.table({
        "k": pa.array([big_a, big_b], pa.int64()),
        "blob": pa.array([b"A" * 16, b"B" * 16], pa.large_binary()),
    }))
    with_a = _attach_blob(pairs, blobs, "id_a", {"id_b": pa.int64()}, "sh_a")
    with_b = _attach_blob(
        with_a, blobs, "id_b",
        {"id_a": pa.int64(), "sh_a": pa.large_binary()}, "sh_b",
    )
    rows = with_b.take_all()
    assert len(rows) == 1
    r = rows[0]
    assert int(r["id_a"]) == big_a and int(r["id_b"]) == big_b
    assert bytes(r["sh_a"]) == b"A" * 16 and bytes(r["sh_b"]) == b"B" * 16


def test_minhash_distributed_fallback_matches_driver_path(ray_session, monkeypatch):
    """The fully distributed estimate path (candidates too many to
    gather) must produce exactly the driver-path pairs."""
    import ray.data

    import toshi_ray.ops.dedup as dd

    rng = np.random.default_rng(3)
    words = [f"tok{i}" for i in range(50)]
    base = " ".join(rng.choice(words, size=60))
    texts = [base, base.replace("tok1", "tok2"),
             " ".join(rng.choice(words, size=60)),
             base + " extra tail words here"]
    t = pa.table({"doc_id": pa.array(np.arange(4), pa.int64()), "text": texts})

    def run():
        got = dd.minhash_lsh_pairs(
            ray.data.from_arrow(t), threshold=0.2, num_perm=32, bands=16
        ).take_all()
        return sorted((int(r["id_a"]), int(r["id_b"]),
                       round(float(r["est_jaccard"]), 10)) for r in got)

    want = run()
    assert want, "corpus should produce at least one candidate pair"
    monkeypatch.setattr(dd, "PAIR_DRIVER_CAP", 0)
    assert run() == want


def test_lsh_topk_prunes_and_reranks_exactly(ray_session):
    """Sign-LSH ANN must (a) score strictly fewer vectors than the
    corpus (candidate pruning), (b) equal brute force restricted to the
    candidate rule (Hamming(code) <= h), and (c) reach full recall when
    probing every bucket (h = n_planes)."""
    import ray.data

    from toshi_ray.ops.similarity import (
        brute_force_topk,
        lsh_bucket_codes,
        lsh_topk,
        _normalize,
    )

    rng = np.random.default_rng(9)
    d, n = 16, 400
    centers = rng.standard_normal((4, d)) * 3
    vecs = np.concatenate([c + rng.standard_normal((n // 4, d)) * 0.3
                           for c in centers])
    ids = np.arange(n)
    t = pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(vecs.reshape(-1)), d),
    })
    ds = ray.data.from_arrow(t).repartition(4)
    q, qids = vecs[:3], ids[:3]

    out, stats = lsh_topk(ds, q, k=5, n_planes=8, probe_hamming=1,
                          query_ids=qids, planes="axis", return_stats=True)
    # pruning is real: scored (query, vector) pairs ≪ the full n_q × N
    # scan brute force would do
    assert stats["candidate_pairs"] < stats["total_pairs"]
    assert stats["total_vectors"] == n

    # exactness on the candidate set: recompute the rule in numpy
    vn = _normalize(vecs)
    qn = _normalize(q)
    vcodes = lsh_bucket_codes(vn, 8, "axis")
    qcodes = lsh_bucket_codes(qn, 8, "axis")
    pop = np.array([bin(i).count("1") for i in range(256)])
    sims = qn @ vn.T
    for qi in range(3):
        cand = pop[(vcodes ^ qcodes[qi]).astype(np.int64)] <= 1
        order = np.lexsort((ids[cand], -sims[qi][cand]))[:5]
        want = ids[cand][order].tolist()
        got = out[out.query_id == qids[qi]]["vec_id"].tolist()
        assert got == want, qi

    # probing every bucket == brute force (full recall)
    full = lsh_topk(ds, q, k=5, n_planes=8, probe_hamming=8,
                    query_ids=qids, planes="axis")
    bf = brute_force_topk(ds, q, k=5, query_ids=qids)
    assert full["vec_id"].tolist() == bf["vec_id"].tolist()


def test_dup_components_resolves_transitive_chains(ray_session):
    """Near-dup pairs are not transitive — the component operator must
    chase chains: 1-2, 2-3, 3-4 is ONE cluster keyed by 1, even though
    (1,4) never paired. Singletons (docs in no pair) are omitted."""
    import ray.data

    from toshi_ray.ops.dedup import dup_components

    pairs = pd.DataFrame(
        {"id_a": [1, 2, 3, 20, 21, 5], "id_b": [2, 3, 4, 21, 22, 100]}
    )
    got = {r["doc_id"]: r["component"] for r in dup_components(pairs).take_all()}
    assert got == {1: 1, 2: 1, 3: 1, 4: 1, 20: 20, 21: 20, 22: 20, 5: 5, 100: 5}


def test_dup_components_distributed_matches_driver(ray_session):
    """The distributed label-propagation path (forced via driver_cap=0)
    must produce exactly the driver union-find's output, including on a
    long chain (worst-case diameter) with shuffled, non-contiguous ids
    spanning > 2^53 (pandas float64 would corrupt them)."""
    from toshi_ray.ops.dedup import dup_components

    rng = np.random.default_rng(7)
    ids = rng.choice(np.arange(1, 1 << 62, (1 << 62) // 500, dtype=np.int64),
                     size=40, replace=False)
    chain = pd.DataFrame({"id_a": ids[:-1], "id_b": ids[1:]})  # one 40-node path
    ring = pd.DataFrame({"id_a": [1000, 1001, 1002], "id_b": [1001, 1002, 1000]})
    pairs = pd.concat([chain, ring], ignore_index=True)

    drv = pd.DataFrame(dup_components(pairs).take_all())
    dist = pd.DataFrame(dup_components(pairs, driver_cap=0).take_all())
    drv = drv.sort_values("doc_id").reset_index(drop=True)
    dist = dist.sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(drv, dist)
    assert set(drv["component"]) == {int(ids.min()), 1000}


def test_dup_components_empty(ray_session):
    from toshi_ray.ops.dedup import dup_components

    out = dup_components(pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                                       "id_b": pd.Series(dtype="int64")}))
    assert out.take_all() == []


def test_repetition_stats_brute_force(ray_session):
    """Handcrafted corpus vs a per-doc Python reference: duplicate
    trigrams, a bigram-count tie (broken by the bytewise-smaller
    bigram), a one-token doc and an empty doc."""
    import re
    from collections import Counter

    import ray.data

    from toshi_ray.ops.textstats import repetition_stats

    texts = [
        "a b a b c a b",              # top bigram (a,b) x3; dup trigram (a,b,?)...
        "x y z x y z x y z",          # heavy repetition
        "b a b a c c b a",            # tie shapes
        "zz aa zz aa",                # tie between (zz,aa) and (aa,zz) -> aa zz? counts differ
        "solo",                        # one token: no bigrams
        "",                            # empty
        "Tie tie TIE tie",            # lowercasing collapses everything
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    got = {r["doc_id"]: r for r in repetition_stats(ray.data.from_arrow(t)).take_all()}

    for did, txt in enumerate(texts):
        tk = [w for w in re.split(r"[^a-z0-9]+", txt.lower()) if 0 < len(w) < 40]
        den = sum(map(len, tk))
        big = Counter(zip(tk, tk[1:]))
        if big:
            # explicit tie-break: max count, then bytewise-smallest "w1 w2"
            best = sorted(big.items(), key=lambda kv: (-kv[1], f"{kv[0][0]} {kv[0][1]}"))[0]
            top, cnt = best
            num2 = cnt * (len(top[0]) + len(top[1]))
        else:
            cnt, num2 = 0, 0
        tri = Counter(zip(tk, tk[1:], tk[2:]))
        num3 = sum(c * sum(map(len, g)) for g, c in tri.items() if c > 1)
        r = got[did]
        assert r["tok_chars"] == den, did
        assert r["top2_cnt"] == cnt, did
        assert r["top2_ppm"] == num2 * 1_000_000 // max(den, 1), did
        assert r["dup3_ppm"] == num3 * 1_000_000 // max(den, 1), did


def test_sampling_deterministic_and_nested(ray_session):
    """hash_sample must be batch-invariant and NESTED: the 10% sample
    is a strict subset of the 30% sample (monotone keep-rule), so rate
    sweeps are reproducible. stratified_sample honors per-stratum rates
    incl. a hard 0 (stratum fully excluded) and the default rate."""
    import ray.data

    from toshi_ray.ops.sampling import hash_sample, stratified_sample

    n = 5000
    t = pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64) * 7919 + 13),
        "lang": pa.array(["en", "de", "zh", "fr"] * (n // 4)),
    })
    ds_big = ray.data.from_arrow(t)  # one block
    ds_small = ray.data.from_arrow(t).repartition(17)  # many blocks

    s10_a = sorted(r["doc_id"] for r in hash_sample(ds_big, 100_000).take_all())
    s10_b = sorted(r["doc_id"] for r in hash_sample(ds_small, 100_000).take_all())
    assert s10_a == s10_b  # batch/partition invariant
    s30 = set(r["doc_id"] for r in hash_sample(ds_big, 300_000).take_all())
    assert set(s10_a) <= s30  # nested
    assert 0.05 < len(s10_a) / n < 0.15  # roughly the configured rate

    kept = stratified_sample(
        ds_big, {"zh": 0, "en": 1_000_000}, strata_col="lang", default_ppm=200_000
    ).take_all()
    by_lang = {}
    for r in kept:
        by_lang.setdefault(r["lang"], 0)
        by_lang[r["lang"]] += 1
    assert "zh" not in by_lang            # rate 0 → fully excluded
    assert by_lang["en"] == n // 4        # rate 1e6 → fully kept
    for lg in ("de", "fr"):               # default rate ~20%
        assert 0.1 < by_lang[lg] / (n // 4) < 0.3


def test_assign_split_stable(ray_session):
    import ray.data

    from toshi_ray.ops.sampling import assign_split

    t = pa.table({"doc_id": pa.array(np.arange(2000, dtype=np.int64))})
    a = {r["doc_id"]: r["split"] for r in assign_split(ray.data.from_arrow(t)).take_all()}
    b = {r["doc_id"]: r["split"]
         for r in assign_split(ray.data.from_arrow(t).repartition(11)).take_all()}
    assert a == b
    n_eval = sum(1 for v in a.values() if v == "eval")
    assert 0 < n_eval < 100  # ~1% of 2000


def test_source_stats_injected_dups_and_langs(ray_session):
    """Handcrafted corpus: cross-partition distinct counting must see
    the same text duplicated across batches as ONE unique text, count
    distinct langs per source, and keep sources independent."""
    import ray.data

    from toshi_ray.ops.corpus import source_stats

    t = pa.table({
        "doc_id": pa.array(range(7), pa.int64()),
        "source": ["a", "a", "a", "b", "b", "b", "b"],
        "lang": ["en", "de", "en", "en", "en", "fr", "fr"],
        "text": ["dup", "dup", "uniq", "x", "x", "x", "y"],
        "n_chars": pa.array([3, 3, 4, 1, 1, 1, 1], pa.int64()),
    })
    got = {r["source"]: r
           for r in source_stats(ray.data.from_arrow(t).repartition(4)).take_all()}
    a, b = got["a"], got["b"]
    assert (a["n_docs"], a["n_uniq_texts"], a["dup_docs"], a["n_langs"],
            a["chars_total"]) == (3, 2, 1, 2, 10)
    assert (b["n_docs"], b["n_uniq_texts"], b["dup_docs"], b["n_langs"],
            b["chars_total"]) == (4, 2, 2, 2, 4)


def test_tfidf_keywords_brute_force(ray_session):
    """Rare term beats common term; ranks deterministic; ties broken
    by term bytes; repartitioning (different df partials) is invariant."""
    import math

    import ray.data

    from toshi_ray.ops.textstats import tfidf_keywords

    t = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": ["common rare common zebra",
                 "common common plain",
                 "common plain plain"],
    })
    got = pd.DataFrame(tfidf_keywords(ray.data.from_arrow(t), k=2).take_all())
    got = got.sort_values(["doc_id", "rank"]).reset_index(drop=True)
    # doc 0: rare/zebra df=1 idf=ln(4/2); common df=3 idf=ln(4/4)=0
    idf1 = math.log(4 / 2)
    assert got[got.doc_id == 0]["term"].tolist() == ["rare", "zebra"]  # tie → bytes
    assert got[got.doc_id == 0]["score_x1e6"].tolist() == [
        int(math.floor(1 * idf1 * 1e6))] * 2
    # doc 1: plain (df=2) over common (idf 0)
    assert got[got.doc_id == 1]["term"].tolist()[0] == "plain"
    got2 = pd.DataFrame(
        tfidf_keywords(ray.data.from_arrow(t).repartition(3), k=2).take_all()
    ).sort_values(["doc_id", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, got2)


def test_top_ngrams_exact_merge(ray_session):
    """Per-partition top-k + driver merge must equal a global count:
    counts split across partitions/batches still sum, ties break by
    gram bytes."""
    import ray.data

    from toshi_ray.ops.corpus import top_ngrams

    texts = ["a b a b", "a b c d", "c d c d", "b a b a"]
    t = pa.table({"doc_id": pa.array(range(4), pa.int64()), "text": pa.array(texts)})
    got = top_ngrams(ray.data.from_arrow(t).repartition(4), n=2, k=3)
    # global counts: "a b"=4 ("a b a b" has 2 + 1 + ... ), compute manually:
    from collections import Counter
    c = Counter()
    for txt in texts:
        tk = txt.split()
        c.update(f"{x} {y}" for x, y in zip(tk, tk[1:]))
    want = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
    assert list(zip(got["gram"].to_pylist(), got["cnt"].to_pylist())) == want


def _brute_dup_spans(texts, width):
    """Reference: per-doc (n_spans, n_dup_spans) over raw token tuples."""
    import re
    from collections import Counter

    toks = []
    for txt in texts:
        tk = [w.lower() for w in re.split(r"[^0-9A-Za-z]+", txt) if w and len(w) < 40]
        toks.append(tk)
    allspans = Counter()
    per_doc = []
    for tk in toks:
        spans = [tuple(tk[i : i + width]) for i in range(len(tk) - width + 1)]
        per_doc.append(spans)
        allspans.update(spans)
    out = {}
    for i, spans in enumerate(per_doc):
        if not spans:
            continue
        out[i] = (len(spans), sum(1 for s in spans if allspans[s] >= 2))
    return out


def test_dup_spans_matches_brute_force(ray_session):
    import ray.data

    from toshi_ray.ops.dedup import dup_spans

    shared = "alpha beta gamma delta epsilon zeta eta theta"
    texts = [
        f"intro one two {shared} tail words here",          # shares the 8-span
        f"other prefix {shared} and a different suffix",    # shares the 8-span
        "completely unrelated text with no duplicated span at all ok",
        f"{shared} {shared}",                                # self-repeat counts
        "short doc",                                         # < 8 tokens: no row
    ]
    t = pa.table({"doc_id": pa.array(range(5), pa.int64()),
                  "text": pa.array(texts)})
    got = {
        int(r["doc_id"]): (int(r["n_spans"]), int(r["n_dup_spans"]))
        for r in dup_spans(ray.data.from_arrow(t).repartition(3), width=8).take_all()
    }
    assert got == _brute_dup_spans(texts, 8)
    # batch layout must not change any count
    got1 = {
        int(r["doc_id"]): (int(r["n_spans"]), int(r["n_dup_spans"]))
        for r in dup_spans(ray.data.from_arrow(t), width=8).take_all()
    }
    assert got1 == got


def test_dup_span_drop_keeps_short_and_clean(ray_session):
    import ray.data

    from toshi_ray.ops.dedup import dup_span_drop

    shared = "one two three four five six seven eight"
    texts = [
        f"{shared} unique tail a b c d e f g h i j k l m n o p",  # low dup frac
        f"{shared}",   # 100% duplicated spans -> dropped
        f"{shared}",   # 100% duplicated spans -> dropped
        "tiny",        # < 8 tokens -> kept by definition
    ]
    t = pa.table({"doc_id": pa.array(range(4), pa.int64()),
                  "text": pa.array(texts)})
    kept = sorted(
        int(r["doc_id"])
        for r in dup_span_drop(
            ray.data.from_arrow(t).repartition(2), width=8, max_num=1, max_den=5
        ).take_all()
    )
    assert kept == [0, 3]


def test_winnow_matches_brute_force(ray_session):
    """Window-min fingerprint SET per doc equals a per-doc Python
    reference over the same derandomized hashes."""
    import re

    import ray.data

    from toshi_ray.ops.textstats import winnow

    M = 2147483647

    def tok_hash(t):
        h = 0
        for ch in t:
            h = (h * 257 + ord(ch)) % M
        return h

    def brute(txt, k=5, window=4):
        tk = [w.lower() for w in re.split(r"[^0-9A-Za-z]+", txt) if w and len(w) < 40]
        th = [tok_hash(t) for t in tk]
        hs = []
        for i in range(len(th) - k + 1):
            h = th[i]
            for j in range(1, k):
                h = (h * 1000003 + th[i + j]) % M
            hs.append(h)
        if not hs:
            return None
        if len(hs) >= window:
            fp = {min(hs[i : i + window]) for i in range(len(hs) - window + 1)}
        else:
            fp = {min(hs)}
        return (len(hs), len(fp), sum(fp))

    texts = [
        "the quick brown fox jumps over the lazy dog again and again and again",
        "a b c d e",            # exactly one shingle -> short-doc path
        "a b c d e f g",        # 3 shingles < window
        "tiny",                 # no shingle -> no row
        "one two three four five six seven eight nine ten eleven twelve",
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    got = {
        int(r["doc_id"]): (int(r["n_grams"]), int(r["n_fp"]), int(r["fp_sum"]))
        for r in winnow(ray.data.from_arrow(t).repartition(2)).take_all()
    }
    want = {i: brute(txt) for i, txt in enumerate(texts) if brute(txt) is not None}
    assert got == want


def test_collocations_brute_force(ray_session):
    """PMI top-k equals a pandas reference computed from global counts;
    repartitioning must not change anything."""
    import ray.data

    from toshi_ray.ops.corpus import collocations

    rng_texts = [
        "strong coffee strong coffee strong coffee",
        "black coffee and strong tea every day",
        "new york new york new york city",
        "the city of new york is big",
        "every day the big dog runs",
        "strong coffee in new york every day",
    ]
    t = pa.table({"doc_id": pa.array(range(len(rng_texts)), pa.int64()),
                  "text": pa.array(rng_texts)})
    got = collocations(
        ray.data.from_arrow(t).repartition(3), k=5, min_count=2
    ).to_pandas()

    # brute force
    from collections import Counter
    uni, big = Counter(), Counter()
    for txt in rng_texts:
        tk = txt.split()
        uni.update(tk)
        big.update(f"{a} {b}" for a, b in zip(tk, tk[1:]))
    N = float(sum(uni.values()))
    rows = []
    for gram, cnt in big.items():
        if cnt < 2:
            continue
        a, b = gram.split(" ")
        pmi = np.log((np.float64(cnt) * N) / (np.float64(uni[a]) * np.float64(uni[b])))
        rows.append((gram, cnt, uni[a], uni[b], pmi))
    rows.sort(key=lambda r: (-r[4], r[0]))
    want = pd.DataFrame(
        [(g, c, ca, cb, int(np.floor(p * 1000000.0))) for g, c, ca, cb, p in rows[:5]],
        columns=["gram", "cnt", "cnt_a", "cnt_b", "pmi_x1e6"],
    )
    pd.testing.assert_frame_equal(
        got.astype({c: "int64" for c in ["cnt", "cnt_a", "cnt_b", "pmi_x1e6"]}),
        want.astype({c: "int64" for c in ["cnt", "cnt_a", "cnt_b", "pmi_x1e6"]}),
    )


def test_length_stats_exact_percentiles(ray_session):
    """Histogram-derived percentiles equal a direct sorted-array lookup,
    including the degenerate all-equal and single-doc cases."""
    import re

    import ray.data

    from toshi_ray.ops.corpus import length_stats

    def brute(texts):
        lens = sorted(
            len([w for w in re.split(r"[^0-9A-Za-z]+", t.lower()) if w and len(w) < 40])
            for t in texts
        )
        n = len(lens)

        def pct(num, den):
            thr = (n * num + den - 1) // den
            return lens[thr - 1]

        return (n, sum(lens), pct(1, 2), pct(9, 10), pct(99, 100), lens[-1])

    texts = ["one two three", "a b", "x " * 50, "single", "a b c d e f g", ""]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    got = length_stats(ray.data.from_arrow(t).repartition(3)).to_pandas().iloc[0]
    want = brute(texts)
    assert (int(got["n_docs"]), int(got["total_tokens"]), int(got["p50"]),
            int(got["p90"]), int(got["p99"]), int(got["max_tokens"])) == want


def test_lm_surprisal_brute_force(ray_session):
    """Integer-quantized unigram surprisal equals a per-doc Python
    reference; rare tokens must score higher than common ones."""
    import re

    import ray.data

    from toshi_ray.ops.textstats import lm_surprisal

    texts = [
        "the the the the rare",
        "the common words here",
        "zyzzyva qwertyish",
        "",
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    got = {
        int(r["doc_id"]): (int(r["n_tok"]), int(r["surprisal_x1e3"]), int(r["mean_x1e3"]))
        for r in lm_surprisal(ray.data.from_arrow(t).repartition(2)).take_all()
    }

    from collections import Counter
    toks = [
        [w for w in re.split(r"[^0-9a-z]+", txt.lower()) if w and len(w) < 40]
        for txt in texts
    ]
    uni = Counter(w for tk in toks for w in tk)
    N = float(sum(uni.values()))
    want = {}
    for i, tk in enumerate(toks):
        if not tk:
            continue
        s = sum(int(np.floor(np.log(N / np.float64(uni[w])) * 1000.0)) for w in tk)
        want[i] = (len(tk), s, s // len(tk))
    assert got == want
    # doc 2 (hapax tokens) must out-score doc 1 (common tokens) on mean
    assert got[2][2] > got[1][2]


def test_dup_span_scrub_brute_force(ray_session):
    """Coverage removal equals a per-doc Python reference: a token goes
    iff a duplicated span starts within the preceding width-1 positions."""
    import re
    from collections import Counter

    import ray.data

    from toshi_ray.ops.dedup import dup_span_scrub

    W = 8
    shared = "alpha beta gamma delta epsilon zeta eta theta"
    texts = [
        f"keep these words {shared} and keep these too",
        f"prefix {shared} suffix words go here now",
        "no duplication in this document at all whatsoever today",
        "tiny",
    ]

    def brute(texts):
        toks = [
            [w for w in re.split(r"[^0-9a-z]+", t.lower()) if w and len(w) < 40]
            for t in texts
        ]
        spans = Counter()
        for tk in toks:
            spans.update(tuple(tk[i : i + W]) for i in range(len(tk) - W + 1))
        out = {}
        for d, tk in enumerate(toks):
            starts = [
                i for i in range(len(tk) - W + 1)
                if spans[tuple(tk[i : i + W])] >= 2
            ]
            covered = set()
            for s in starts:
                covered.update(range(s, s + W))
            kept = [t for j, t in enumerate(tk) if j not in covered]
            out[d] = (" ".join(kept), len(kept), len(tk) - len(kept))
        return out

    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    got = {
        int(r["doc_id"]): (r["clean_text"], int(r["n_kept"]), int(r["n_removed"]))
        for r in dup_span_scrub(
            ray.data.from_arrow(t).repartition(2), width=W
        ).take_all()
    }
    assert got == brute(texts)
    # the shared run must actually be gone
    assert "alpha" not in got[0][0] and got[0][2] >= W


def test_vocab_and_lang_length_stats(ray_session):
    import re

    import ray.data

    from toshi_ray.ops.corpus import lang_length_stats, vocab_stats

    texts = ["the cat sat", "the dog ran far", "ein hund lief", "", "la la la"]
    langs = ["en", "en", "de", "de", "fr"]
    t = pa.table({"doc_id": pa.array(range(5), pa.int64()),
                  "text": pa.array(texts), "lang": pa.array(langs)})
    ds = ray.data.from_arrow(t).repartition(3)

    vs = vocab_stats(ds).to_pandas().iloc[0]
    from collections import Counter
    uni = Counter(
        w for txt in texts
        for w in re.split(r"[^0-9a-z]+", txt.lower()) if w and len(w) < 40
    )
    assert int(vs["n_tokens"]) == sum(uni.values())
    assert int(vs["n_distinct"]) == len(uni)
    assert int(vs["n_hapax"]) == sum(1 for c in uni.values() if c == 1)

    ls = lang_length_stats(ds).to_pandas()
    # de: lengths [3, 0] -> n=2, total=3, p50 = len at ceil(2/2)=1st = 0
    de = ls[ls["lang"] == "de"].iloc[0]
    assert (int(de["n_docs"]), int(de["total_tokens"]), int(de["p50"]),
            int(de["max_tokens"])) == (2, 3, 0, 3)
    fr = ls[ls["lang"] == "fr"].iloc[0]
    assert (int(fr["n_docs"]), int(fr["total_tokens"]), int(fr["p50"])) == (1, 3, 3)
    assert list(ls["lang"]) == sorted(ls["lang"])


# ---- round-3: builtin PNM / WAV codecs (real decode without PIL/soundfile) --


def _ppm_bytes(w, h, seed=0):
    arr = ((np.arange(h * w * 3) * 37 + seed) % 256).astype(np.uint8).reshape(h, w, 3)
    from toshi_ray.ops.codecs import encode_pnm

    return arr, encode_pnm(arr)


def test_codec_pnm_roundtrip_and_ascii():
    from toshi_ray.ops.codecs import decode_pnm, encode_pnm

    arr, enc = _ppm_bytes(5, 3)
    dec, mode = decode_pnm(enc)
    assert mode == "RGB" and (dec == arr).all()
    g16 = (np.arange(4 * 6).reshape(4, 6) * 901 % 65536).astype(np.uint16)
    dec, mode = decode_pnm(encode_pnm(g16))
    assert mode == "L" and (dec[:, :, 0] == g16).all()
    # ASCII P2 with a comment line
    dec, mode = decode_pnm(b"P2\n# c\n3 2\n255\n0 10 20\n30 40 50\n")
    assert mode == "L" and dec[:, :, 0].tolist() == [[0, 10, 20], [30, 40, 50]]


def test_codec_wav_roundtrip_widths():
    import io
    import wave as wave_mod

    from toshi_ray.ops.codecs import decode_wav, encode_wav, sniff

    t = np.linspace(0, 1, 400)
    sig = np.stack([np.sin(2 * np.pi * 3 * t), np.cos(2 * np.pi * 3 * t)], 1) * 0.5
    payload = encode_wav(sig, 8000)
    assert sniff(payload) == "wav"
    x, rate = decode_wav(payload)
    assert rate == 8000 and x.shape == (400, 2)
    assert np.abs(x - sig).max() < 1e-3
    # 24-bit path (stdlib wave can't be round-tripped at 24-bit via encode_wav)
    buf = io.BytesIO()
    with wave_mod.open(buf, "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(3)
        f.setframerate(16000)
        f.writeframes(int.to_bytes((-(1 << 22)) & 0xFFFFFF, 3, "little"))
    x, rate = decode_wav(buf.getvalue())
    assert rate == 16000 and abs(x[0, 0] + (1 << 22) / (1 << 23)) < 1e-12


def test_image_decode_real_pnm_and_mixed_batch(ray_session):
    """PNM payloads must REALLY decode (true geometry + pixel feature);
    undecodable payloads in the same batch fall to the marked fake."""
    import ray.data

    from toshi_ray.ops.multimodal import decode_images

    arr, ppm = _ppm_bytes(8, 4, seed=9)
    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "data": pa.array([ppm, b"not-an-image"], pa.binary())})
    rows = {r["doc_id"]: r
            for r in decode_images(ray.data.from_arrow(t), concurrency=1,
                                   batch_size=2).take_all()}
    assert rows[1]["real_decode"] and (rows[1]["width"], rows[1]["height"]) == (8, 4)
    assert rows[1]["mode"] == "RGB"
    from toshi_ray.ops.codecs import image_feature

    assert np.allclose(rows[1]["feature"], image_feature(arr, 16))
    assert not rows[2]["real_decode"]
    # batch-size invariance still holds with the mixed dispatch
    rows2 = {r["doc_id"]: r
             for r in decode_images(ray.data.from_arrow(t), concurrency=1,
                                    batch_size=1).take_all()}
    assert rows == rows2


def test_audio_decode_real_wav(ray_session):
    import ray.data

    from toshi_ray.ops.codecs import encode_wav
    from toshi_ray.ops.multimodal import extract_audio_features

    sig = np.sin(np.linspace(0, 20, 1600))[:, None] * 0.25
    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "data": pa.array([encode_wav(sig, 16000), b"junk"], pa.binary())})
    rows = {r["doc_id"]: r
            for r in extract_audio_features(ray.data.from_arrow(t), concurrency=1,
                                            batch_size=2).take_all()}
    assert rows[1]["real_decode"]
    assert rows[1]["n_samples"] == 1600 and rows[1]["sample_rate"] == 16000
    assert all(f > 0 for f in rows[1]["feature"])
    assert not rows[2]["real_decode"]


def test_image_resize_builtin_pnm():
    from toshi_ray.ops.codecs import decode_pnm
    from toshi_ray.ops.multimodal import ImageResizeStage

    _, ppm = _ppm_bytes(8, 8)
    t = pa.table({"doc_id": pa.array([1], pa.int64()),
                  "data": pa.array([ppm], pa.binary())})
    stage = ImageResizeStage(size=(4, 2))
    if stage._Image is not None:  # PIL present: builtin path not exercised
        return
    out = stage(t)
    arr, mode = decode_pnm(out["data"][0].as_py())
    assert mode == "RGB" and arr.shape == (2, 4, 3)
    # non-PNM payload must still refuse rather than fake
    bad = pa.table({"doc_id": pa.array([1], pa.int64()),
                    "data": pa.array([b"zzz"], pa.binary())})
    import pytest as _pytest

    with _pytest.raises(NotImplementedError):
        stage(bad)


def test_frame_sample_query_matches_sql(ray_session):
    import duckdb

    from toshi_ray.pipelines.queries import QUERIES, oracle_sql_map

    got = QUERIES["frame_sample"](SF)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    want = con.execute(oracle_sql_map()["frame_sample"]).df().astype(
        {"doc_id": "int64", "frame_ms": "int64"}
    )
    pd.testing.assert_frame_equal(got, want)


def test_binary_decode_queries_match_sql(ray_session):
    """image_meta / audio_meta prove the REAL PNM/WAV decode paths under
    the driver's hash-match gate: geometry comes from parsing payload
    bytes, checksums from the decoded feature vectors."""
    import duckdb

    from toshi_ray.pipelines.queries import QUERIES, oracle_sql_map

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    for k in ("image_meta", "audio_meta"):
        got = QUERIES[k](SF)
        want = con.execute(oracle_sql_map()[k]).df()
        for c in want.columns:
            if want[c].dtype != object:
                want[c] = want[c].astype("int64")
        pd.testing.assert_frame_equal(got, want)


def test_gopher_quality_rules(ray_session):
    """Each Gopher rule flips keep on a targeted synthetic doc; the
    integer cross-multiplied thresholds match a per-rule reference."""
    import ray.data

    from toshi_ray.ops.textstats import gopher_quality

    good = ("the code and data that we have built with care " * 6).strip()  # 60 words
    texts = [
        good,                                   # passes everything
        "the of and short",                     # word count < 50
        good + " " + "a " * 200,                # mean word len < 3 (tok_chars < 3n)
        good.replace(" ", " # # ")[:2000],      # symbol ratio > 0.1
        ("42 7 " * 30 + "the of").strip(),      # alpha fraction < 0.8
        good.replace("the", "xxx").replace("and", "yyy").replace("that", "zzz")
            .replace("with", "www").replace("have", "vvv"),  # stopwords < 2
        "",                                     # empty
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    rows = {int(r["doc_id"]): r
            for r in gopher_quality(ray.data.from_arrow(t).repartition(2),
                                    min_words=50).take_all()}
    assert rows[0]["keep"] == 1
    for i in range(1, 7):
        assert rows[i]["keep"] == 0, f"doc {i} should be dropped"
    # counts spot-check on the clean doc: 10 words repeated 6x
    assert rows[0]["n_words"] == 60
    assert rows[0]["n_stop"] == 6 * 5  # the, and, that, have, with per repeat
    assert rows[0]["n_alpha"] == 60
    assert rows[0]["n_sym"] == 0


def test_semantic_decontam_tiebreak_and_threshold(ray_session):
    """Duplicate eval vectors (exact cosine tie) must resolve to the
    SMALLEST eval id even when ids arrive unsorted, and the contaminated
    flag compares on the quantized value."""
    import ray.data

    from toshi_ray.ops.similarity import semantic_decontam

    rng = np.random.default_rng(7)
    ev = rng.normal(size=(3, 8))
    ev[2] = ev[0]  # ids 90 and 10 tie exactly on every train vec
    train = np.vstack([ev[0] * 2.0, rng.normal(size=(4, 8))])
    t = pa.table({
        "vec_id": pa.array(range(100, 105), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in train],
                              pa.list_(pa.float32())),
    })
    got = pd.DataFrame(
        semantic_decontam(
            ray.data.from_arrow(t).repartition(2),
            ev, np.array([90, 50, 10]),  # unsorted on purpose
            threshold_x1e3=990,
        ).take_all()
    ).sort_values("vec_id").reset_index(drop=True)
    # train[0] is colinear with ev[0]==ev[2] → cos 1.0 under both ids
    row = got[got.vec_id == 100].iloc[0]
    assert row.nearest_eval_id == 10 and row.cos_x1e3 == 1000
    assert row.contaminated == 1
    # brute-force check of every row (float32 storage → recompute the
    # same way: cast to float64 AFTER the float32 round-trip)
    tr32 = train.astype(np.float32).astype(np.float64)
    tr32 /= np.linalg.norm(tr32, axis=1, keepdims=True)
    evn = ev / np.linalg.norm(ev, axis=1, keepdims=True)
    order = np.argsort([90, 50, 10], kind="stable")
    evs, eids = evn[order], np.array([90, 50, 10])[order]
    simq = np.floor(tr32 @ evs.T * 1000.0 + 0.5).astype(np.int64)
    for i, vid in enumerate(range(100, 105)):
        r = got[got.vec_id == vid].iloc[0]
        b = simq[i].argmax()
        assert r.nearest_eval_id == eids[b]
        assert r.cos_x1e3 == simq[i, b]
        assert r.contaminated == int(simq[i, b] >= 990)


def test_hll_vocab_registers_and_accuracy(ray_session):
    """HLL registers equal a brute-force per-token computation, are
    partition-invariant (max-merge), and the estimate lands within the
    sketch's expected error band on a known-cardinality vocabulary."""
    import ray.data

    from toshi_ray.ops.corpus import hll_vocab
    from toshi_ray.ops.dedup import _poly_hash31

    rng = np.random.default_rng(11)
    vocab = [f"w{i}x{i * 7}" for i in range(1000)]
    texts = [" ".join(rng.choice(vocab, size=80)) for _ in range(200)]
    t = pa.table({"doc_id": pa.array(range(200), pa.int64()),
                  "text": pa.array(texts)})

    got1 = hll_vocab(ray.data.from_arrow(t).repartition(1))
    got7 = hll_vocab(ray.data.from_arrow(t).repartition(7))
    assert got1.equals(got7)  # partition-invariant

    toks = [w for s in texts for w in s.split()]
    arr = pa.array(toks, pa.string())
    h = _poly_hash31(arr, 257) + _poly_hash31(arr, 131) * np.int64(1 << 31)
    bucket, w = h % 64, h // 64
    bitlen = np.zeros(w.size, np.int64)
    for i in range(57):
        bitlen += (w >> i) > 0
    want = np.zeros(64, np.int64)
    np.maximum.at(want, bucket, 57 - bitlen)
    regs = got1["register"].to_numpy()
    assert (regs == want).all()

    n_true = len(set(toks))
    est = got1["est_x100"][0].as_py() / 100.0
    assert abs(est - n_true) / n_true < 0.45  # m=64 → ~13% std error


def test_funnel_semantics(ray_session):
    """Anchored-first funnel: strictly-after matching, unreached-step
    sentinel, inclusive window boundary, and no re-anchoring when a
    later start would complete faster."""
    import ray.data

    from toshi_ray.ops.windows import funnel

    US = 1_000_000
    rows = [
        # user 1: clean complete within window
        (1, 0, "view"), (1, 10 * US, "click"), (1, 20 * US, "purchase"),
        # user 2: purchase BEFORE click → t3 unreached
        (2, 0, "view"), (2, 5 * US, "purchase"), (2, 10 * US, "click"),
        # user 3: click at exactly t1 (not strictly after) → t2 unreached
        (3, 7 * US, "view"), (3, 7 * US, "click"),
        # user 4: completes at exactly the window bound (inclusive)
        (4, 0, "view"), (4, US, "click"), (4, 100 * US, "purchase"),
        # user 5: first view anchors; completion exceeds window even
        # though a later view would fit — anchored semantics
        (5, 0, "view"), (5, 200 * US, "view"),
        (5, 201 * US, "click"), (5, 202 * US, "purchase"),
        # user 6: no view at all → absent from output
        (6, 0, "click"), (6, US, "purchase"),
    ]
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "event_type": pa.array([r[2] for r in rows], pa.string()),
    })
    got = {int(r["user_id"]): r for r in funnel(
        ray.data.from_arrow(t).repartition(3), window_secs=100).take_all()}
    assert set(got) == {1, 2, 3, 4, 5}
    assert (got[1]["t1_us"], got[1]["t2_us"], got[1]["t3_us"],
            got[1]["completed"]) == (0, 10 * US, 20 * US, 1)
    assert got[2]["t3_us"] == -1 and got[2]["completed"] == 0
    assert got[3]["t2_us"] == -1 and got[3]["t3_us"] == -1
    assert got[4]["completed"] == 1  # t3 - t1 == window exactly
    assert got[5]["t1_us"] == 0 and got[5]["completed"] == 0


def test_asof_join_semantics(ray_session):
    """Backward as-of: latest right <= left (equal ts visible), strict
    variant excludes equal ts, -1 sentinels, partition-invariant."""
    import ray.data

    from toshi_ray.ops.joins import asof_join

    def tbl(rows, cols, types):
        return pa.table({c: pa.array([r[i] for r in rows], ty)
                         for i, (c, ty) in enumerate(zip(cols, types))})

    left = tbl([(1, 7, 100), (2, 7, 50), (3, 7, 200), (4, 9, 10), (5, 8, 100)],
               ["event_id", "user_id", "ts_us"],
               [pa.int64()] * 3)
    # user 8 has DUPLICATE (key, ts) right rows at ts 90 — the engine's
    # deterministic rule (max v wins) must hold at any partition count
    right = tbl([(7, 100, 11), (7, 150, 22), (8, 40, 33), (8, 90, 44),
                 (8, 90, 29)],
                ["user_id", "ts_us", "v"], [pa.int64()] * 3)

    for nparts in (1, 3):
        got = {int(r["event_id"]): r for r in asof_join(
            ray.data.from_arrow(left).repartition(nparts),
            ray.data.from_arrow(right).repartition(nparts),
            key_col="user_id").take_all()}
        assert (got[1]["match_ts_us"], got[1]["match_v"]) == (100, 11)  # equal ts
        assert (got[2]["match_ts_us"], got[2]["match_v"]) == (-1, -1)   # too early
        assert (got[3]["match_ts_us"], got[3]["match_v"]) == (150, 22)  # latest
        assert (got[4]["match_ts_us"], got[4]["match_v"]) == (-1, -1)   # no key
        assert (got[5]["match_ts_us"], got[5]["match_v"]) == (90, 44)

    strict = {int(r["event_id"]): r for r in asof_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right),
        key_col="user_id", strict=True).take_all()}
    assert (strict[1]["match_ts_us"], strict[1]["match_v"]) == (-1, -1)
    assert (strict[3]["match_ts_us"], strict[3]["match_v"]) == (150, 22)


def test_range_join_bounds(ray_session):
    """Half-open [lo, hi): lo inclusive, hi exclusive, gaps and
    out-of-range values take the miss label; overlap rejected."""
    import ray.data

    from toshi_ray.ops.joins import range_join

    t = pa.table({"doc_id": pa.array(range(6), pa.int64()),
                  "n_chars": pa.array([0, 149, 150, 249, 275, 301], pa.int64())})
    iv = [(0, 150, "xs"), (150, 250, "s"), (300, 1000, "l")]
    got = {int(r["doc_id"]): r["bucket"] for r in range_join(
        ray.data.from_arrow(t).repartition(2), iv, value_col="n_chars").take_all()}
    assert got == {0: "xs", 1: "xs", 2: "s", 3: "s", 4: "none", 5: "l"}
    with pytest.raises(ValueError):
        range_join(ray.data.from_arrow(t), [(0, 10, "a"), (5, 20, "b")],
                   value_col="n_chars")


def test_retention_cohorts_brute_force(ray_session):
    """Partition-additive cohort counts equal a per-user Python
    reference, including multi-event days (distinct) and gap days."""
    import ray.data

    from toshi_ray.ops.windows import retention_cohorts

    D = 86_400_000_000
    rows = [  # (user, day): user 1 cohort d0 active d0,d2; user 2 cohort d0
        (1, 0), (1, 0), (1, 2),       # same-day dup must count once
        (2, 0), (2, 1),
        (3, 2), (3, 2), (3, 5),       # cohort d2
    ]
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] * D + 777 for r in rows], pa.timestamp("us")),
    })
    got = {(int(c), int(o)): int(n)
           for c, o, n in retention_cohorts(
               ray.data.from_arrow(t).repartition(3)
           ).to_pandas().itertuples(index=False, name=None)}
    assert got == {(0, 0): 2, (0, 1): 1, (0, 2): 1, (2, 0): 1, (2, 3): 1}


def test_chunk_tokens_geometry_and_text(ray_session):
    """Chunk starts/lengths/text equal a per-doc Python reference,
    including overlap, a doc shorter than one window, and empty docs."""
    import re

    import ray.data

    from toshi_ray.ops.cleaning import chunk_tokens

    texts = [
        " ".join(f"t{i}" for i in range(70)),  # 3 chunks at size 32 / stride 24
        "one two three",                       # single short chunk
        "",                                    # emits nothing
        " ".join(f"u{i}" for i in range(24)),  # exactly one stride → 1 chunk
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    got = pd.DataFrame(
        chunk_tokens(ray.data.from_arrow(t).repartition(2),
                     size=32, stride=24).take_all()
    ).sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)

    want = []
    for d, txt in enumerate(texts):
        tk = [w for w in re.split(r"[^0-9a-z]+", txt.lower()) if w and len(w) < 40]
        n = len(tk)
        for j in range((n + 23) // 24):
            s = j * 24
            e = min(s + 32, n)
            want.append((d, j, s, e - s, " ".join(tk[s:e])))
    want = pd.DataFrame(want, columns=["doc_id", "chunk_idx", "start_tok",
                                       "n_tok", "chunk_text"])
    pd.testing.assert_frame_equal(
        got.astype({"doc_id": "int64", "chunk_idx": "int64",
                    "start_tok": "int64", "n_tok": "int64"}), want)
    assert (got[got.doc_id == 0].n_tok.tolist() == [32, 32, 22])


def test_pack_sequences_reference(ray_session):
    """Packing equals a single-stream Python reference: sequences cross
    doc boundaries, short tail, empty docs skipped, partition-invariant."""
    import re

    import ray.data

    from toshi_ray.ops.cleaning import pack_sequences
    from toshi_ray.ops.dedup import _poly_hash31

    texts = ["alpha beta gamma delta", "", "one two three", "x y z w v u"]
    t = pa.table({"doc_id": pa.array([3, 5, 9, 11], pa.int64()),
                  "text": pa.array(texts)})

    stream = []  # (doc_id, token)
    for d, txt in zip([3, 5, 9, 11], texts):
        for w in re.split(r"[^0-9a-z]+", txt.lower()):
            if w and len(w) < 40:
                stream.append((d, w))
    L = 5
    want = {}
    toks = pa.array([w for _, w in stream], pa.string())
    hs = _poly_hash31(toks)
    for gpos, (d, _w) in enumerate(stream):
        s, p = gpos // L, gpos % L
        n, fd, ld, chk = want.get(s, (0, d, d, 0))
        want[s] = (n + 1, min(fd, d), max(ld, d), chk + int(hs[gpos]) * (p + 1))

    for nparts in (1, 3):
        got = {int(r["seq_idx"]): (int(r["n_tok"]), int(r["first_doc"]),
                                   int(r["last_doc"]), int(r["chk"]))
               for r in pack_sequences(
                   ray.data.from_arrow(t).repartition(nparts), seq_len=L
               ).take_all()}
        assert got == want
    assert want[2][0] == 3  # 13 tokens → last sequence is short


def test_cms_topterms_overestimates_and_exact_top(ray_session):
    """CMS estimates are >= true counts (never under), the true top-k
    ranking equals a brute-force count, and the result is
    partition-invariant."""
    import re

    import ray.data

    from toshi_ray.ops.corpus import cms_topterms

    rng = np.random.default_rng(13)
    vocab = [f"v{i}" for i in range(300)]
    weights = np.array([1.0 / (i + 1) for i in range(300)])  # zipf-ish
    weights /= weights.sum()
    texts = [" ".join(rng.choice(vocab, size=60, p=weights)) for _ in range(150)]
    t = pa.table({"doc_id": pa.array(range(150), pa.int64()),
                  "text": pa.array(texts)})

    from collections import Counter
    true = Counter()
    for s in texts:
        true.update(w for w in re.split(r"[^0-9a-z]+", s.lower())
                    if w and len(w) < 40)
    want = sorted(true.items(), key=lambda kv: (-kv[1], kv[0]))[:8]

    r1 = cms_topterms(ray.data.from_arrow(t).repartition(1), k=8)
    r5 = cms_topterms(ray.data.from_arrow(t).repartition(5), k=8)
    assert r1.equals(r5)
    got = list(zip(r1["term"].to_pylist(), r1["cnt"].to_pylist()))
    assert got == want
    est = r1["est"].to_numpy()
    cnt = r1["cnt"].to_numpy()
    assert (est >= cnt).all()  # the CMS one-sided error guarantee


def test_minhash_probe_equals_oneshot_cross_pairs(ray_session, docs):
    """Probing a persisted index with a new batch finds exactly the
    cross-side subset of the one-shot LSH pipeline over the union, with
    identical agreement estimates — and never re-reads the ref text."""
    import tempfile

    import pyarrow.compute as pc
    import ray.data

    from toshi_ray.ops.dedup import (
        build_minhash_index,
        minhash_lsh_pairs,
        minhash_probe,
    )

    split = 25

    def side(lo):
        def f(t):
            ids = t["doc_id"].combine_chunks().cast(pa.int64())
            return t.filter(pc.less(ids, split) if lo else pc.greater_equal(ids, split))
        return f

    path = tempfile.mkdtemp(prefix="toshi_mhidx_")
    build_minhash_index(docs.map_batches(side(True), batch_format="pyarrow"), path)
    got = pd.DataFrame(minhash_probe(
        docs.map_batches(side(False), batch_format="pyarrow"), path,
        threshold=0.3).take_all())
    got = (got.sort_values(["id_a", "id_b"]).reset_index(drop=True)
           if len(got) else got)

    ref = pd.DataFrame(minhash_lsh_pairs(docs, threshold=0.3).take_all())
    ref = ref[(ref.id_a < split) & (ref.id_b >= split)]
    ref = ref.sort_values(["id_a", "id_b"]).reset_index(drop=True)
    assert len(got) == len(ref) and len(ref) > 0
    assert (got[["id_a", "id_b"]].to_numpy() == ref[["id_a", "id_b"]].to_numpy()).all()
    assert np.allclose(got["est_jaccard"], ref["est_jaccard"])


def test_minhash_probe_pair_cap_star_fallback(ray_session):
    """A bucket whose ref x new product exceeds pair_cap pairs every new
    doc with the bucket's minimum ref id only; at or under the cap it
    pairs every ref doc with every new doc."""
    import tempfile

    import ray.data

    from toshi_ray.ops.dedup import build_minhash_index, minhash_probe

    dup = " ".join(f"dup{i}" for i in range(40))

    def uniq(tag):
        return " ".join(f"{tag}w{i}" for i in range(40))

    ref = pa.table({"doc_id": pa.array([5, 2, 9, 11], pa.int64()),
                    "text": [dup, dup, dup, uniq("r")]})
    new = pa.table({"doc_id": pa.array([100, 101, 102], pa.int64()),
                    "text": [dup, dup, uniq("n")]})
    path = tempfile.mkdtemp(prefix="toshi_mhidx_cap_")
    build_minhash_index(ray.data.from_arrow(ref), path)

    def probe(pair_cap):
        rows = minhash_probe(ray.data.from_arrow(new), path, pair_cap=pair_cap).take_all()
        assert all(r["est_jaccard"] == 1.0 for r in rows)
        return sorted((int(r["id_a"]), int(r["id_b"])) for r in rows)

    # 3 ref x 2 new = 6 pairs per bucket of the duplicated text
    assert probe(6) == [(2, 100), (2, 101), (5, 100), (5, 101), (9, 100), (9, 101)]
    assert probe(5) == [(2, 100), (2, 101)]


def test_pq_trained_recall_beats_hash_codebook(ray_session, emb):
    """The trained per-subspace codebook must recover most exact
    top-10 neighbors (recall@10) and beat the data-free hash codebook;
    results are partition-invariant."""
    from toshi_ray.ops.similarity import (
        brute_force_topk,
        hash_pq_codebook,
        pq_topk,
        train_pq_codebook,
    )

    head = emb.limit(5).take_all()
    q = np.stack([r["embedding"] for r in head])
    qids = np.array([r["vec_id"] for r in head])

    exact = brute_force_topk(emb, q, k=10, query_ids=qids)
    trained = train_pq_codebook(emb, n_sub=8, n_cent=16)
    got_t = pq_topk(emb, q, trained, k=10, query_ids=qids)
    got_h = pq_topk(emb.repartition(4), q, hash_pq_codebook(), k=10, query_ids=qids)
    got_h1 = pq_topk(emb.repartition(1), q, hash_pq_codebook(), k=10, query_ids=qids)
    pd.testing.assert_frame_equal(
        got_h.reset_index(drop=True), got_h1.reset_index(drop=True))

    def recall(approx):
        r = 0.0
        for qid in qids:
            a = set(approx[approx.query_id == qid].vec_id)
            e = set(exact[exact.query_id == qid].vec_id)
            r += len(a & e) / len(e)
        return r / len(qids)

    r_t, r_h = recall(got_t), recall(got_h)
    # synthetic gaussian embeddings have little cluster structure — an
    # 8x16 codebook is coarse; the property is that training HELPS
    assert r_t >= 0.3, r_t
    assert r_t >= r_h + 0.1, (r_t, r_h)


def test_minhash_index_rebuild_clears_stale(ray_session, docs):
    """Rebuilding into the same path must fully replace the old index —
    no mixed-scheme band/sig rows — and version-mismatched indexes are
    refused by the probe."""
    import json
    import tempfile

    import pyarrow.parquet as pq
    import ray.data

    from toshi_ray.ops.dedup import build_minhash_index, minhash_probe

    ref = docs.limit(30)
    path = tempfile.mkdtemp(prefix="toshi_mhidx2_")
    build_minhash_index(ref, path, num_perm=32, bands=8)
    build_minhash_index(ref, path)  # rebuild with defaults 64/16
    import glob
    n_band_rows = sum(pq.ParquetFile(f).metadata.num_rows
                      for f in glob.glob(f"{path}/bands/*.parquet"))
    assert n_band_rows == 30 * 16  # only the second build's rows
    with open(f"{path}/meta.json") as f:
        meta = json.load(f)
    assert meta["num_perm"] == 64 and "version" in meta

    meta["version"] = -1
    with open(f"{path}/meta.json", "w") as f:
        json.dump(meta, f)
    with pytest.raises(ValueError, match="version"):
        minhash_probe(docs.limit(5), path)


def test_top_key_per_window_argmax_ties(ray_session):
    """Grouped argmax: per-window winner by count, exact ties to the
    bytewise-smallest key, partition-invariant."""
    import ray.data

    from toshi_ray.ops.windows import top_key_per_window

    D = 86_400_000_000
    rows = [  # day 0: a x2, b x2 (tie → 'a'); day 1: b x3, a x1
        (0, "a"), (0, "a"), (0, "b"), (0, "b"),
        (1, "b"), (1, "b"), (1, "b"), (1, "a"),
    ]
    t = pa.table({
        "ts": pa.array([r[0] * D + 5 for r in rows], pa.timestamp("us")),
        "event_type": pa.array([r[1] for r in rows], pa.string()),
        "value": pa.array([1.0] * len(rows)),
    })
    for nparts in (1, 3):
        got = top_key_per_window(
            ray.data.from_arrow(t).repartition(nparts), window_secs=86_400
        ).to_pandas()
        assert got.values.tolist() == [[0, "a", 2], [86_400, "b", 3]]


def test_value_stats_exact_percentiles(ray_session):
    """Per-key histogram percentiles equal a brute-force reference,
    incl. even/odd counts, negative values and partition invariance."""
    import ray.data

    from toshi_ray.ops.windows import value_stats

    rng = np.random.default_rng(3)
    keys = np.array(["a", "b", "c"])[rng.integers(0, 3, 501)]
    vals = np.round(rng.normal(scale=50, size=501), 2)
    t = pa.table({"event_type": pa.array(keys, pa.string()),
                  "value": pa.array(vals)})

    got1 = value_stats(ray.data.from_arrow(t).repartition(1))
    got5 = value_stats(ray.data.from_arrow(t).repartition(5))
    assert got1.equals(got5)
    df = got1.to_pandas().set_index("event_type")
    for k in "abc":
        v = np.sort(np.floor(vals[keys == k] * 100.0).astype(np.int64))
        n = v.size
        assert df.loc[k, "n"] == n
        assert df.loc[k, "sum_x100"] == int(v.sum())
        assert df.loc[k, "p50_x100"] == int(v[(n + 1) // 2 - 1])
        assert df.loc[k, "min_x100"] == int(v[0])
        assert df.loc[k, "max_x100"] == int(v[-1])


def test_value_stats_wide_range_distributed_fold(ray_session):
    """Wide-range float column (≈1M possible distinct hundredths) with
    many keys: the percentile fold must finish inside the tasks — the
    driver gathers exactly one finished row per key, never the O(keys ×
    distinct hundredths) histogram (the round-3 verdict's unbounded-
    driver-gather finding). Values checked against brute force."""
    import ray.data

    from toshi_ray.ops.windows import value_stats

    rng = np.random.default_rng(11)
    n_rows, n_keys = 200_000, 157
    keys = np.array([f"k{i:03d}" for i in range(n_keys)])[
        rng.integers(0, n_keys, n_rows)
    ]
    vals = rng.uniform(0.0, 10_000.0, n_rows)  # hundredths span [0, 1e6)
    t = pa.table({"event_type": pa.array(keys, pa.string()),
                  "value": pa.array(vals)})
    got = value_stats(ray.data.from_arrow(t).repartition(8))
    assert got.num_rows == n_keys  # one finished row per key, sorted
    df = got.to_pandas().set_index("event_type")
    assert list(df.index) == sorted(df.index)
    q = np.floor(vals * 100.0).astype(np.int64)
    for k in ("k000", "k042", "k156"):
        v = np.sort(q[keys == k])
        n = v.size
        assert df.loc[k, "n"] == n
        assert df.loc[k, "sum_x100"] == int(v.sum())
        assert df.loc[k, "p50_x100"] == int(v[(n + 1) // 2 - 1])
        assert df.loc[k, "min_x100"] == int(v[0])
        assert df.loc[k, "max_x100"] == int(v[-1])


def test_gather_table_runs_the_pipeline_once(ray_session, tmp_path):
    """A lazy Dataset runs once through `gather_table`: each map call
    leaves one marker file, so there are exactly as many as blocks."""
    import os
    import uuid

    import ray.data

    from toshi_ray.ops._gather import gather_table

    def mark(t: pa.Table) -> pa.Table:
        open(os.path.join(tmp_path, uuid.uuid4().hex), "w").close()
        return t

    ds = ray.data.range(40, override_num_blocks=4).map_batches(
        mark, batch_format="pyarrow", batch_size=None)
    assert gather_table(ds).num_rows == 40
    assert len(os.listdir(tmp_path)) == 4


def test_gather_table_contract(ray_session):
    """gather_table: None on empty datasets (callers keep their explicit
    empty-schema branches), single combined-chunk Arrow table otherwise —
    the capped driver folds view its columns as contiguous numpy without
    per-row dict materialization."""
    import ray.data

    from toshi_ray.ops._gather import col_i64, gather_table

    empty = ray.data.from_arrow(pa.table({"x": pa.array([], pa.int64())}))
    assert gather_table(empty) is None

    t = pa.table({"x": pa.array(np.arange(1000, dtype=np.int64)),
                  "y": pa.array(np.arange(1000)[::-1].astype(np.float64))})
    got = gather_table(ray.data.from_arrow(t).repartition(7))
    assert got.num_rows == 1000
    # combined chunks -> zero-copy numpy view per column
    assert all(len(got[c].chunks) <= 1 for c in got.column_names)
    x = col_i64(got, "x")
    assert x.dtype == np.int64 and set(x.tolist()) == set(range(1000))
    # ids above 2^53 survive exactly (the Arrow->pandas float64 hazard)
    big = pa.table({"x": pa.array([2**53 + 1, 2**62], pa.int64())})
    gb = gather_table(ray.data.from_arrow(big))
    assert col_i64(gb, "x").tolist() == [2**53 + 1, 2**62]
