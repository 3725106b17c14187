"""Approximate-nearest-neighbor search over an embedding column.

One scan, four kernels. `_scan_topk` runs every embedding top-k: a
batch's kernel returns only its (n_q × batch rows) score matrix, −inf
for a pair that is not a candidate; the scan makes the one local cut
(`_local_topk_rows`, score desc then id asc, so bit-equal scores at the
k-th place keep the lowest ids), drops −inf, gathers the blocks as
Arrow (`gather_table`) and cuts k per query with one lexsort.

Kernels: brute force (one matmul against the query matrix, broadcast
ONCE with `ray.put`); IVF (a coarse centroid codebook trained on a
driver-side sample assigns each vector to a cell, the index is written
partitioned by cell, a probe reads only its `nprobe` cells' files, and
a row outside a query's probed cells scores −inf); sign-LSH (the matmul
touches only columns within h bits of some query's code); PQ (ADC: a
per-query lookup table gathered by the batch's codes).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _vec_matrix(col) -> np.ndarray:
    """Zero-copy (n, d) float64 matrix from a FixedSizeList / List
    embedding column — flatten + reshape, no per-row Python."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if pa.types.is_fixed_size_list(col.type):
        d = col.type.list_size
        return col.flatten().to_numpy(zero_copy_only=False).reshape(n, d).astype(np.float64)
    flat = col.flatten().to_numpy(zero_copy_only=False)
    if n == 0:
        return flat.reshape(0, 0).astype(np.float64)
    offs = col.offsets.to_numpy(zero_copy_only=False)
    lens = np.diff(offs)
    if not (lens == lens[0]).all():
        raise ValueError("embedding column has ragged list lengths")
    return flat.reshape(n, int(lens[0])).astype(np.float64)


def _normalize(v: np.ndarray) -> np.ndarray:
    return v / np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-12)


def _local_topk_rows(sims: np.ndarray, ids: np.ndarray, k: int):
    """Per-query local top-k with the DETERMINISTIC (score desc, id asc)
    tie-break: argpartition alone splits bit-equal scores arbitrarily
    (exact duplicate embeddings), which could drop the lower id locally
    while the SQL oracle keeps it. → (rows_q, col_idx) flat selection."""
    n_q, n = sims.shape
    kk = min(k, n)
    if kk == 0:  # an empty batch
        return np.empty(0, np.int64), np.empty(0, np.int64)
    part = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
    rows_out, cols_out = [], []
    for qi in range(n_q):
        thresh = sims[qi, part[qi]].min()
        cand = np.nonzero(sims[qi] >= thresh)[0]  # ALL ties at the boundary
        order = np.lexsort((ids[cand], -sims[qi, cand]))[:kk]
        sel = cand[order]
        rows_out.append(np.full(sel.size, qi, np.int64))
        cols_out.append(sel)
    return np.concatenate(rows_out), np.concatenate(cols_out)


def _scan_topk(ds, n_q: int, k: int, id_col: str, query_ids, score_batch):
    """The one embedding top-k scan → (DataFrame (query_id, <id_col>,
    score) in (query_id, score desc, id asc) order, (candidate pairs,
    vectors)).

    ``score_batch(t)`` → the (n_q × t.num_rows) score matrix of a batch,
    −inf where a (query, row) pair is not a candidate. Each batch emits
    its local top-k rows plus one tally row (null query_id) holding its
    finite-score pair count and its row count, so the totals need no
    second execution."""
    from toshi_ray.ops._gather import col_i64, gather_table

    qids = np.asarray(query_ids if query_ids is not None else np.arange(n_q)).astype(np.int64)

    def scan(t: pa.Table) -> pa.Table:
        sims = score_batch(t) if t.num_rows else np.empty((n_q, 0))
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        rows_q, cols = _local_topk_rows(sims, ids, k)
        sc = sims[rows_q, cols]
        hit = sc > -np.inf
        rows_q, cols, sc = rows_q[hit], cols[hit], sc[hit]
        tally = np.arange(sc.size + 1) == sc.size  # the last row
        zeros = np.zeros(sc.size, np.int64)
        return pa.table({
            "query_id": pa.array(np.append(qids[rows_q], 0), mask=tally),
            id_col: pa.array(np.append(ids[cols], 0), mask=tally),
            "score": pa.array(np.append(sc, 0.0), mask=tally),
            "pairs": pa.array(np.append(zeros, np.isfinite(sims).sum())),
            "vecs": pa.array(np.append(zeros, t.num_rows)),
        })

    t = gather_table(ds.map_batches(scan, batch_format="pyarrow"))
    if t is None:
        q = ids = np.empty(0, np.int64)
        s, tally = np.empty(0), (0, 0)
    else:
        tally = (int(pc.sum(t["pairs"]).as_py()), int(pc.sum(t["vecs"]).as_py()))
        t = t.filter(pc.is_valid(t["query_id"]))
        q, ids = col_i64(t, "query_id"), col_i64(t, id_col)
        s = t["score"].to_numpy()
        order = np.lexsort((ids, -s, q))
        q, ids, s = q[order], ids[order], s[order]
        top = np.arange(q.size) - np.searchsorted(q, q) < k  # rank within query
        q, ids, s = q[top], ids[top], s[top]
    return pd.DataFrame({"query_id": q, id_col: ids, "score": s}), tally


def brute_force_topk(
    ds,
    query_vecs: np.ndarray,
    *,
    k: int = 10,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    query_ids: np.ndarray | None = None,
):
    """→ pandas DataFrame (query_id, vec_id, score) — exact cosine top-k.

    The kernel is one matmul of the batch against the broadcast query
    matrix."""
    import ray

    q = _normalize(np.asarray(query_vecs, dtype=np.float64))
    q_ref = ray.put(q)

    def score(t: pa.Table) -> np.ndarray:
        return ray.get(q_ref) @ _normalize(_vec_matrix(t[vec_col])).T

    return _scan_topk(ds, q.shape[0], k, id_col, query_ids, score)[0]


def train_ivf_centroids(
    ds,
    *,
    n_cells: int = 16,
    vec_col: str = "embedding",
    sample: int = 2048,
    iters: int = 10,
    seed: int = 5,
) -> np.ndarray:
    """Tiny deterministic k-means on a driver-side sample (the codebook
    is small by design — this is the one legitimately driver-side step)."""
    head = ds.limit(sample).take_all()
    v = _normalize(np.stack([r[vec_col] for r in head]).astype(np.float64))
    rng = np.random.default_rng(seed)
    cent = v[rng.choice(v.shape[0], size=min(n_cells, v.shape[0]), replace=False)]
    for _ in range(iters):
        assign = np.argmax(v @ cent.T, axis=1)
        for c in range(cent.shape[0]):
            m = assign == c
            if m.any():
                cent[c] = _normalize(v[m].mean(axis=0, keepdims=True))[0]
    return cent


def train_ivf_centroids_distributed(
    ds,
    *,
    n_cells: int = 256,
    vec_col: str = "embedding",
    sketch_per_block: int = 64,
    iters: int = 12,
    seed: int = 5,
) -> np.ndarray:
    """Streamed k-means for REALISTIC cell counts (n_cells ~ √N).

    Phase 1 (distributed, one pass): every block runs a small LOCAL
    k-means over its own vectors and emits ≤ ``sketch_per_block``
    (centroid, weight) rows — the classic scalable-k-means sketch. Only
    the sketch (blocks × sketch_per_block points, KBs) reaches the
    driver, never the vectors.
    Phase 2 (driver): weighted k-means over the sketch down to
    ``n_cells``. Deterministic: seeded init, stride-sampled local
    starts."""

    def sketch(t: pa.Table) -> pa.Table:
        v = _normalize(_vec_matrix(t[vec_col]))
        n, d = v.shape
        k = min(sketch_per_block, n)
        if k == 0:
            return pa.table({"c": pa.array([], pa.large_list(pa.float64())),
                             "w": pa.array([], pa.int64())})
        cent = v[np.linspace(0, n - 1, k).astype(np.int64)]  # deterministic init
        for _ in range(4):
            assign = np.argmax(v @ cent.T, axis=1)
            for c in range(k):
                m = assign == c
                if m.any():
                    cent[c] = v[m].mean(axis=0)
            cent = _normalize(cent)
        assign = np.argmax(v @ cent.T, axis=1)
        w = np.bincount(assign, minlength=k)
        keep = w > 0
        offs = np.arange(int(keep.sum()) + 1, dtype=np.int64) * d
        return pa.table(
            {
                "c": pa.LargeListArray.from_arrays(
                    pa.array(offs), pa.array(cent[keep].reshape(-1))
                ),
                "w": pa.array(w[keep].astype(np.int64)),
            }
        )

    rows = ds.map_batches(sketch, batch_format="pyarrow").take_all()
    pts = np.stack([np.asarray(r["c"], np.float64) for r in rows])
    wts = np.array([r["w"] for r in rows], dtype=np.float64)
    k = min(n_cells, pts.shape[0])
    rng = np.random.default_rng(seed)
    cent = pts[rng.choice(pts.shape[0], size=k, replace=False,
                          p=wts / wts.sum())]
    for _ in range(iters):  # weighted lloyd over the sketch
        assign = np.argmax(pts @ cent.T, axis=1)
        for c in range(k):
            m = assign == c
            if m.any():
                cent[c] = (pts[m] * wts[m, None]).sum(axis=0) / wts[m].sum()
        cent = _normalize(cent)
    return cent


def build_ivf_index(
    ds,
    centroids: np.ndarray,
    path: str,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> str:
    """Materialize an IVF index: vectors written as parquet PARTITIONED
    BY cell (hive layout), so a probe reads only its cells' files —
    the true scale path (brute_force touches every byte; this touches
    nprobe/n_cells of them).

    Blocks are repartitioned by cell hash before the write so each
    output block holds few cells: without it, every input block writes
    a sliver into every cell dir (blocks × n_cells tiny files at
    n_cells=256+); with it the file count stays O(blocks)."""
    import ray

    cent_ref = ray.put(centroids)

    def assign(t: pa.Table) -> pa.Table:
        cent = ray.get(cent_ref)
        v = _normalize(_vec_matrix(t[vec_col]))
        cell = np.argmax(v @ cent.T, axis=1).astype(np.int32)
        # `cell` becomes the hive partition dir; `cell_id` stays physical
        # so per-row cells survive a manually-pruned read
        t = t.append_column("cell", pa.array(cell))
        return t.append_column("cell_id", pa.array(cell))

    assigned = ds.map_batches(assign, batch_format="pyarrow")
    if centroids.shape[0] > 16:
        # co-locate cells → O(blocks) files. A HASH repartition on the
        # cell key suffices (cells only need to share a block, not be
        # globally ordered) — a range sort here would be a needless
        # all-to-all with sampling + range exchange.
        n_out = max(4, min(64, centroids.shape[0] // 4))

        def cell_part(t: pa.Table) -> pa.Table:
            c = t["cell"].to_numpy(zero_copy_only=False).astype(np.uint64)
            z = c + np.uint64(0x9E3779B97F4A7C15)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            return t.append_column(
                "_cp", pa.array((z % np.uint64(n_out)).astype(np.int64))
            )

        assigned = (
            assigned.map_batches(cell_part, batch_format="pyarrow")
            .groupby("_cp")
            .map_groups(
                lambda t: t.drop_columns(["_cp"]), batch_format="pyarrow"
            )
        )
    assigned.write_parquet(path, partition_cols=["cell"])
    return path


def ivf_index_topk(
    index_path: str,
    query_vecs: np.ndarray,
    centroids: np.ndarray,
    *,
    k: int = 10,
    nprobe: int = 4,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    query_ids: np.ndarray | None = None,
    return_stats: bool = False,
):
    """ANN over a partitioned IVF index: reads ONLY the probed cells
    (parquet partition pruning), then exact cosine within them; a row
    outside a query's own probed cells scores −inf for that query.

    ``return_stats=True`` additionally returns
    {files_read, bytes_read, files_total, bytes_total} so callers (and
    tests) can assert the probe touched ≤ nprobe/n_cells of the index."""
    import glob
    import os

    import ray

    q = _normalize(np.asarray(query_vecs, dtype=np.float64))
    probes = np.argsort(-(q @ centroids.T), axis=1)[:, :nprobe]
    probed = np.zeros((q.shape[0], centroids.shape[0]), bool)  # (n_q, n_cells)
    probed[np.arange(q.shape[0])[:, None], probes] = True
    # manual partition pruning: only the probed cells' directories are
    # even LISTED, let alone read
    paths = [
        f
        for c in np.flatnonzero(probed.any(axis=0))
        for f in sorted(glob.glob(os.path.join(index_path, f"cell={c}", "*.parquet")))
    ]
    stats = None
    if return_stats:
        all_files = glob.glob(os.path.join(index_path, "cell=*", "*.parquet"))
        stats = {
            "files_read": len(paths),
            "bytes_read": sum(os.path.getsize(p) for p in paths),
            "files_total": len(all_files),
            "bytes_total": sum(os.path.getsize(p) for p in all_files),
        }
    if paths:
        ref = ray.put((q, probed))

        def score(t: pa.Table) -> np.ndarray:
            qm, probed_b = ray.get(ref)
            sims = qm @ _normalize(_vec_matrix(t[vec_col])).T
            cell = t["cell_id"].to_numpy(zero_copy_only=False)
            sims[~probed_b[:, cell]] = -np.inf
            return sims

        df = _scan_topk(ray.data.read_parquet(paths), q.shape[0], k, id_col,
                        query_ids, score)[0]
    else:
        none = np.empty(0, np.int64)
        df = pd.DataFrame({"query_id": none, id_col: none, "score": np.empty(0)})
    return (df, stats) if return_stats else df


# ---------------------------------------------------------------------------
# Sign-LSH bucketed ANN — the shuffle-free scale path alongside IVF
# ---------------------------------------------------------------------------

MAX_LSH_PLANES = 20  # popcount table is 2^n_planes entries


def lsh_bucket_codes(v: np.ndarray, n_planes: int, planes: str = "axis",
                     seed: int = 11) -> np.ndarray:
    """Sign-LSH bucket code per (already-normalized or raw) vector:
    bit j = <v, plane_j> > 0 → uint64 in [0, 2^n_planes).

    ``planes="axis"``: plane_j is the j-th coordinate axis — bit j =
    v[j] > 0, fully deterministic AND recomputable in ANSI SQL
    (normalization never flips a sign). ``planes="random"``: seeded
    Gaussian hyperplanes (production default for isotropic codes)."""
    if planes == "axis":
        if v.shape[1] < n_planes:
            raise ValueError(
                f"axis-plane LSH needs embedding dim >= n_planes "
                f"(dim {v.shape[1]} < {n_planes}); use planes='random'"
            )
        bits = (v[:, :n_planes] > 0).astype(np.uint64)
    else:
        rng = np.random.default_rng(seed)
        p = rng.standard_normal((v.shape[1], n_planes))
        bits = (v @ p > 0).astype(np.uint64)
    return bits @ (np.uint64(1) << np.arange(n_planes, dtype=np.uint64))


def lsh_topk(
    ds,
    query_vecs: np.ndarray,
    *,
    k: int = 10,
    n_planes: int = 8,
    probe_hamming: int = 1,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    query_ids: np.ndarray | None = None,
    planes: str = "axis",
    seed: int = 11,
    return_stats: bool = False,
):
    """ANN via sign-LSH buckets: each query scores ONLY corpus vectors
    whose bucket code is within `probe_hamming` bits of its own —
    candidate fraction ≈ Σ_{i<=h} C(n_planes,i) / 2^n_planes of the
    corpus (n_planes=8, h=1 → 3.5%) — then exact cosine rerank.

    Same map-only shape as `brute_force_topk` (query matrix + codes
    broadcast once, one masked matmul per batch, local top-k rows out);
    unlike IVF it needs no trained codebook and no repartitioned index,
    so it composes with any live Dataset. Approximation contract: a
    true neighbor whose code differs in > probe_hamming bits is missed
    (recall is pinned by test against brute force on clustered data).

    ``return_stats=True`` → (df, {"candidate_pairs", "total_pairs",
    "total_vectors"}): scored (query, vector) pairs vs the n_q × N a
    brute-force scan would score, summed from the scan's per-batch
    tally rows — no second dataset execution.
    """
    import ray

    if n_planes > MAX_LSH_PLANES:
        raise ValueError(f"n_planes {n_planes} > {MAX_LSH_PLANES} "
                         "(popcount table is 2^n_planes entries)")
    q = _normalize(np.asarray(query_vecs, dtype=np.float64))
    qb = lsh_bucket_codes(q, n_planes, planes, seed)
    pop = np.array([bin(i).count("1") for i in range(1 << n_planes)], dtype=np.int64)
    q_ref = ray.put((q, qb))

    def score(t: pa.Table) -> np.ndarray:
        qm, qcodes = ray.get(q_ref)
        v = _normalize(_vec_matrix(t[vec_col]))
        codes = lsh_bucket_codes(v, n_planes, planes, seed)
        mask = pop[(qcodes[:, None] ^ codes[None, :]).astype(np.int64)] <= probe_hamming
        cols = mask.any(axis=0)
        sims = np.full(mask.shape, -np.inf)  # non-candidates never rank
        # the matmul touches ONLY candidate columns — this is the point
        # of the bucket prune (brute force scores every pair)
        sims[:, cols] = np.where(mask[:, cols], qm @ v[cols].T, -np.inf)
        return sims

    out, (pairs, vecs) = _scan_topk(ds, q.shape[0], k, id_col, query_ids, score)
    if not return_stats:
        return out
    return out, {"candidate_pairs": pairs, "total_pairs": vecs * q.shape[0],
                 "total_vectors": vecs}


def semantic_decontam(
    train_ds,
    eval_vecs: np.ndarray,
    eval_ids: np.ndarray,
    *,
    threshold_x1e3: int = 400,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
):
    """→ Dataset of (vec_id, nearest_eval_id, cos_x1e3, contaminated):
    EMBEDDING-space benchmark decontamination — flag every training
    vector whose max cosine against ANY eval/benchmark vector reaches
    the threshold (the semantic complement of the n-gram `decontam` op
    in ops/cleaning.py).

    Scale shape: the eval matrix is the SMALL side (benchmarks are
    thousands of rows) — normalized once on the driver and `ray.put`
    broadcast; each training batch does a single (batch × eval) matmul
    and emits one row per vector. Map-only, zero shuffle, the training
    corpus streams.

    Determinism contract: cosines are quantized to 1e-3 BEFORE both the
    argmax and the threshold compare, and eval columns are ordered by
    ascending eval id, so `nearest_eval_id` ties break to the smallest
    id and row membership cannot flip on an ulp — the DuckDB twin
    (row_number over (cos_x1e3 DESC, eval_id)) reproduces every value
    exactly.
    """
    import ray

    ev = np.asarray(eval_vecs, dtype=np.float64)
    ids = np.asarray(eval_ids, dtype=np.int64)
    order = np.argsort(ids, kind="stable")  # ascending ids → argmax tie-break
    ev, ids = ev[order], ids[order]
    ref = ray.put((_normalize(ev), ids))

    def f(t: pa.Table) -> pa.Table:
        em, eids = ray.get(ref)
        v = _normalize(_vec_matrix(t[vec_col]))
        simq = np.floor((v @ em.T) * 1000.0 + 0.5).astype(np.int64)
        best = simq.argmax(axis=1)  # first max = smallest eval id
        rows = np.arange(simq.shape[0])
        cos = simq[rows, best]
        return pa.table(
            {
                id_col: t[id_col].combine_chunks().cast(pa.int64()),
                "nearest_eval_id": pa.array(eids[best]),
                "cos_x1e3": pa.array(cos),
                "contaminated": pa.array(
                    (cos >= threshold_x1e3).astype(np.int64)
                ),
            }
        )

    return train_ds.select_columns([id_col, vec_col]).map_batches(
        f, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# Product quantization (Jégou et al. 2011) — the vector-MEMORY scale path:
# 64-dim float32 vectors compress to n_sub uint8 codes (8 B/vec here), and
# queries scan codes against a tiny per-query lookup table (ADC) instead of
# touching raw vectors.
# ---------------------------------------------------------------------------


def _normalize_seq(v: np.ndarray) -> np.ndarray:
    """L2-normalize with a SEQUENTIAL sum-of-squares fold (dim order) so
    the SQL twin's list_reduce reproduces the exact doubles — np.linalg
    .norm's pairwise summation would differ in the last ulp."""
    n2 = np.zeros(v.shape[0], np.float64)
    for j in range(v.shape[1]):
        n2 = n2 + v[:, j] * v[:, j]
    return v / np.sqrt(np.maximum(n2, 1e-24))[:, None]


def hash_pq_codebook(n_sub: int = 8, n_cent: int = 16, sub_dim: int = 8) -> np.ndarray:
    """Deterministic DATA-FREE codebook: b[s,c,j] = ((s·1009 + c·101 +
    j·17 + 1)·2654435761 mod 2³¹−1)/(2³¹−1) − 0.5 — integer arithmetic
    both engines compute bit-identically, so the DuckDB twin derives the
    whole codebook in a CTE (the `token_hash="sql"` pattern). Production
    uses `train_pq_codebook`; this mode exists so the ADC machinery sits
    under the hash gate at ANY scale factor."""
    s = np.arange(n_sub, dtype=np.int64)[:, None, None]
    c = np.arange(n_cent, dtype=np.int64)[None, :, None]
    j = np.arange(sub_dim, dtype=np.int64)[None, None, :]
    a = ((s * 1009 + c * 101 + j * 17 + 1) * 2654435761) % 2147483647
    return a / 2147483647.0 - 0.5


def train_pq_codebook(
    ds,
    *,
    n_sub: int = 8,
    n_cent: int = 16,
    vec_col: str = "embedding",
    sample: int = 2048,
    iters: int = 10,
    seed: int = 5,
) -> np.ndarray:
    """Per-subspace k-means on a driver-side sample of the normalized
    vectors → (n_sub, n_cent, sub_dim) codebook. Deterministic (seeded
    init); the codebook is KBs — the one legitimately driver-side step,
    broadcast once."""
    head = ds.limit(sample).take_all()
    v = _normalize_seq(np.stack([r[vec_col] for r in head]).astype(np.float64))
    d = v.shape[1]
    assert d % n_sub == 0, "dim must divide into subspaces"
    sub = d // n_sub
    rng = np.random.default_rng(seed)
    book = np.zeros((n_sub, n_cent, sub), np.float64)
    for s in range(n_sub):
        x = v[:, s * sub : (s + 1) * sub]
        k = min(n_cent, x.shape[0])
        cent = x[rng.choice(x.shape[0], size=k, replace=False)].copy()
        for _ in range(iters):
            d2 = ((x[:, None, :] - cent[None]) ** 2).sum(-1)
            a = np.argmin(d2, axis=1)
            for c in range(k):
                m = a == c
                if m.any():
                    cent[c] = x[m].mean(axis=0)
        book[s, :k] = cent
    return book


def pq_assign(v: np.ndarray, book: np.ndarray) -> np.ndarray:
    """→ (n, n_sub) int64 codes: per subspace the L2-nearest centroid,
    ties to the smallest index. Distances accumulate SEQUENTIALLY over
    dims (matching the SQL fold), vectorized across vectors/centroids."""
    n_sub, n_cent, sub = book.shape
    codes = np.empty((v.shape[0], n_sub), np.int64)
    for s in range(n_sub):
        x = v[:, s * sub : (s + 1) * sub]
        dist = np.zeros((v.shape[0], n_cent), np.float64)
        for j in range(sub):
            diff = x[:, j, None] - book[s, :, j][None, :]
            dist = dist + diff * diff
        codes[:, s] = np.argmin(dist, axis=1)
    return codes


def pq_topk(
    ds,
    query_vecs: np.ndarray,
    codebook: np.ndarray,
    *,
    k: int = 10,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    query_ids: np.ndarray | None = None,
) -> pd.DataFrame:
    """→ (query_id, vec_id, score): ADC top-k — every batch quantizes
    its vectors to codes and scores them by LUT GATHER, never a matmul
    against raw floats. The per-query LUT (n_sub × n_cent inner
    products) and the codebook broadcast once; per batch the work is
    one code assignment + n_sub gathers. At 100 TB the codes table is
    ~8 B/vector — object-store resident where raw vectors are not.

    Determinism contract: normalization, LUT entries and the final
    score all use sequential dim-order folds, so the DuckDB twin (which
    derives the `hash_pq_codebook` in SQL) reproduces every score
    bit-for-bit. Production accuracy comes from `train_pq_codebook`
    (recall pinned by pytest); the hash codebook exists for the oracle.
    """
    import ray

    n_sub, n_cent, sub = codebook.shape
    q = _normalize_seq(np.asarray(query_vecs, dtype=np.float64))
    # LUT[qi, s, c] = q_s · book[s, c], sequential over j
    lut = np.zeros((q.shape[0], n_sub, n_cent), np.float64)
    for s in range(n_sub):
        for j in range(sub):
            lut[:, s, :] = lut[:, s, :] + (
                q[:, s * sub + j, None] * codebook[s, :, j][None, :]
            )
    ref = ray.put((codebook, lut))

    def score(t: pa.Table) -> np.ndarray:
        book, lut_b = ray.get(ref)
        codes = pq_assign(_normalize_seq(_vec_matrix(t[vec_col])), book)
        sc = np.zeros((lut_b.shape[0], codes.shape[0]), np.float64)
        for s in range(book.shape[0]):
            sc = sc + lut_b[:, s, :][:, codes[:, s]]
        return sc

    return _scan_topk(ds, q.shape[0], k, id_col, query_ids, score)[0]
