"""Deduplication operators for large-scale training-data pipelines.

All operators are Ray-Data-native: vectorized `map_batches` stages for
signatures, `groupby` only over small keys (hashes / band buckets),
never over raw text. Designed so the shuffle payload is O(docs), not
O(bytes): signatures travel, documents don't.

Exact dedup  : content hash → groupby(hash) → keep min doc_id
MinHash LSH  : word shingles → minhash sigs → band buckets → candidate
               pairs → exact-Jaccard verify (the standard near-dup
               pipeline of web-scale corpora, e.g. Lee et al. 2021
               "Deduplicating Training Data Makes LMs Better")
SimHash      : 64-bit weighted fingerprint + banded near-dup candidates
N-gram Jaccard: exact pairwise verify within candidate buckets
Embedding    : cosine near-dup via sign-LSH buckets over normalized vecs
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa

from toshi_ray.analyzer import DefaultAnalyzer
from toshi_ray.codecs import _hash_strings, _mix
from toshi_ray.ops._gather import col_i64, gather_table

_U = np.uint64
_MERSENNE = _U((1 << 61) - 1)
_M31 = np.int64((1 << 31) - 1)  # Mersenne-31 — BIGINT-safe in the SQL twins

_LOG = logging.getLogger("toshi_ray.dedup")

DEFAULT_BUCKET_CAP = 512

# persisted minhash-index layout version (meta.json): bump on any change
# to the signature scheme, band hashing or blob layout — probes hard-fail
# on mismatch instead of comparing incompatible signatures
MINHASH_INDEX_VERSION = 1
# minhash raw candidate pairs are gathered to the driver for the
# single-shuffle estimate path only below this count (~16 B/pair →
# ~80 MB at the cap); above it the fully distributed dedupe + reduce-
# side-join estimate runs instead and nothing touches the driver
PAIR_DRIVER_CAP = 5_000_000


def _poly_hash31(col: pa.Array, base: int = 257) -> np.ndarray:
    """Char-code polynomial hash mod 2^31-1 — deliberately mirrorable in
    ANSI SQL (DuckDB: list_reduce over unicode(t[i:i]) with BIGINT
    arithmetic, no overflow). Horner loop bounded by max token length
    (< 40 bytes), vectorized across tokens. Batch-invariant."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    import pyarrow.compute as pc

    lens = pc.utf8_length(col.cast(pa.string())).to_numpy(zero_copy_only=False).astype(np.int64)
    n = len(col)
    if n == 0 or lens.sum() == 0:
        return np.zeros(n, np.int64)
    codes = np.frombuffer(
        "".join(col.to_pylist()).encode("utf-32-le"), np.uint32
    ).astype(np.int64)
    offs = np.zeros(n, np.int64)
    np.cumsum(lens[:-1], out=offs[1:])
    out = np.zeros(n, np.int64)
    b = np.int64(base)
    for j in range(int(lens.max())):
        sel = lens > j
        out[sel] = (out[sel] * b + codes[offs[sel] + j]) % _M31
    return out


def token_hash62(col: pa.Array) -> np.ndarray:
    """62-bit SQL-mirrorable token hash: two 31-bit polynomial hashes
    (bases 257 / 131) concatenated."""
    h1 = _poly_hash31(col, 257).astype(np.uint64)
    h2 = _poly_hash31(col, 131).astype(np.uint64)
    return h1 | (h2 << _U(31))


def _pair_schema(metric: str | None = None, typ: pa.DataType = pa.float64()) -> pa.Schema:
    """The fixed (id_a, id_b[, metric]) schema of every pair table."""
    fields = [("id_a", pa.int64()), ("id_b", pa.int64())]
    if metric is not None:
        fields.append((metric, typ))
    return pa.schema(fields)


_EST_SCHEMA = _pair_schema("est_jaccard")

N_PAIR_PARTS = 64  # coarse shuffle partitions for bucket-pair generation


def _bucket_runs(keys: list[np.ndarray], within: list[np.ndarray]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """One lexsort over (keys..., within...) turns every bucket (rows of
    equal keys) into a run. → (rows, sizes): the sorted row indices of
    every run with >= 2 rows and those runs' sizes. Singleton buckets
    (the overwhelming majority) can emit no pair and are dropped."""
    order = np.lexsort(tuple(reversed(keys + within)))
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for k in keys:
        ks = k[order]
        new[1:] |= ks[1:] != ks[:-1]
    starts = np.flatnonzero(new)
    sizes = np.diff(np.append(starts, order.size))
    multi = sizes >= 2
    return order[np.repeat(multi, sizes)], sizes[multi]


def _fan_out(cnt: np.ndarray, partner0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position i pairs with the cnt[i] consecutive positions starting
    at partner0[i] — every pair of every run in one vectorized pass."""
    ia = np.repeat(np.arange(cnt.size, dtype=np.int64), cnt)
    off = np.arange(ia.size, dtype=np.int64) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    return ia, partner0[ia] + off


def _pair_index(sizes, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair positions for consecutive runs of ``sizes`` rows, each run
    sorted by id: every pair (i < j) of a run of at most ``cap`` rows,
    else a STAR from the run's first (min-id) row to each other row. An
    oversized bucket is by construction a near-identical cluster; star
    edges preserve its connected component for dedup clustering at O(n)
    pairs instead of O(n²). Never silent: every capped bucket is logged
    with its size."""
    sizes = np.asarray(sizes, dtype=np.int64)
    for n in sizes[sizes > cap]:
        _LOG.warning(
            "LSH bucket with %d rows exceeds cap %d; emitting star pairs only", n, cap
        )
    size = np.repeat(sizes, sizes)
    local = np.arange(size.size, dtype=np.int64) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    cnt = np.where(size <= cap, size - 1 - local, np.where(local == 0, size - 1, 0))
    return _fan_out(cnt, np.arange(1, size.size + 1, dtype=np.int64))


def _cross_index(sizes, side: np.ndarray, pair_cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Cross-side pair positions for consecutive runs of ``sizes`` rows,
    each run sorted by (side, id): every side-0 (reference) row × every
    side-1 (new) row of its run. A run whose ref × new PRODUCT exceeds
    ``pair_cap`` pairs every new row with the run's first (min-id)
    reference row only — logged, never silent."""
    sizes = np.asarray(sizes, dtype=np.int64)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    seen_new = np.concatenate([[0], np.cumsum(side)])
    n_new = seen_new[ends] - seen_new[starts]
    n_ref = sizes - n_new
    capped = n_ref * n_new > pair_cap
    for r, nw in zip(n_ref[capped], n_new[capped]):
        _LOG.warning(
            "minhash_probe: bucket of %d ref x %d new exceeds pair_cap=%d; "
            "star fallback to min ref id", r, nw, pair_cap,
        )
    local = np.arange(side.size, dtype=np.int64) - np.repeat(starts, sizes)
    pairs_out = (side == 0) & (~np.repeat(capped, sizes) | (local == 0))
    cnt = np.where(pairs_out, np.repeat(n_new, sizes), 0)
    return _fan_out(cnt, np.repeat(starts + n_ref, sizes))


def _pairs_by_partition(exploded, bucket_cols: list[str], id_col: str, schema: pa.Schema,
                        *, cap: int | None = None, cross_cap: int | None = None,
                        kernel=None, dedupe_stage: bool = True):
    """groupby a COARSE partition of the bucket hash (64 groups, not one
    Ray group per LSH bucket — per-group Python overhead would dominate
    at millions of buckets), enumerate the pairs of every bucket inside
    it at once, then dedupe pairs the same way. ``dedupe_stage=False``
    skips the pair-dedupe shuffle for callers that dedupe downstream
    (e.g. on the collected candidate list).

    One enumerator, no pandas and no per-bucket Python call: the
    partition arrives as zero-copy Arrow, `_bucket_runs` sorts it into
    one run per bucket, and `_pair_index` (all pairs, star above
    ``cap``) — or, when ``cross_cap`` is set, `_cross_index` (reference
    × new rows by a ``side`` column, star above the product cap) —
    emits the row pairs of all runs in one vectorized pass. The family
    ``kernel(t, ia, ib) → (keep, {metric: values})`` then scores every
    pair at once (None keeps all pairs). Output tables carry the fixed
    ``schema``, empty ones included."""

    def gen(t: pa.Table) -> pa.Table:
        if t.num_rows < 2:
            return schema.empty_table()
        ids = col_i64(t, id_col)
        keys = [t[c].to_numpy(zero_copy_only=False) for c in bucket_cols]
        if cross_cap is None:
            rows, sizes = _bucket_runs(keys, [ids])
            ia, ib = _pair_index(sizes, cap)
        else:
            side = col_i64(t, "side")
            rows, sizes = _bucket_runs(keys, [side, ids])
            ia, ib = _cross_index(sizes, side[rows], cross_cap)
        ia, ib = rows[ia], rows[ib]
        metrics = {}
        if kernel is not None:
            keep, metrics = kernel(t, ia, ib)
            ia, ib = ia[keep], ib[keep]
            metrics = {k: v[keep] for k, v in metrics.items()}
        return pa.table({"id_a": ids[ia], "id_b": ids[ib], **metrics}, schema=schema)

    pairs = exploded.groupby("part").map_groups(gen, batch_format="pyarrow")
    if not dedupe_stage:
        return pairs
    return _dedupe_pairs_stage(pairs)


def _unique_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row indices of the first copy of each distinct (a, b) pair, in
    (a, b) order (one exact lexsort)."""
    order = np.lexsort((b, a))
    aa, bb = a[order], b[order]
    first = np.ones(aa.size, dtype=bool)
    first[1:] = (aa[1:] != aa[:-1]) | (bb[1:] != bb[:-1])
    return order[first]


def _dedupe_pairs_stage(pairs):
    """Distributed (id_a, id_b) pair dedupe: coarse pair-hash shuffle +
    per-partition `_unique_pairs`."""

    def add_pair_part(t: pa.Table) -> pa.Table:
        a = t["id_a"].to_numpy(zero_copy_only=False).astype(_U)
        b = t["id_b"].to_numpy(zero_copy_only=False).astype(_U)
        return t.append_column(
            "ppart", pa.array((_mix(a * _U(31) + b) % _U(N_PAIR_PARTS)).astype(np.int64))
        )

    def dedupe(g: pa.Table) -> pa.Table:
        keep = _unique_pairs(col_i64(g, "id_a"), col_i64(g, "id_b"))
        return g.take(pa.array(keep)).drop_columns(["ppart"])

    return (
        pairs.map_batches(add_pair_part, batch_format="pyarrow")
        .groupby("ppart")
        .map_groups(dedupe, batch_format="pyarrow")
    )


def exact_dedup(ds, col: str = "text", id_col: str = "doc_id"):
    """→ Dataset of (doc_id of kept representative, n_copies).

    Hash shuffle carries only (hash, doc_id); within a hash bucket the
    representative is the minimum doc_id (ties on full text equality are
    collapsed; a 64-bit collision across distinct texts is accepted at
    these scales and would only over-merge one pair).
    """
    ds = ds.select_columns([id_col, col])  # prune at the read
    from ray.data.aggregate import Min, Sum

    def sig(t: pa.Table) -> pa.Table:
        """Hash + per-batch partial reduce: one (h, min_id, n) row per
        distinct hash per batch — the combiner before the shuffle."""
        h = _hash_strings(t[col].combine_chunks())
        ids = t[id_col].to_numpy(zero_copy_only=False)
        order = np.argsort(h, kind="stable")
        h, ids = h[order], ids[order]
        new = np.ones(h.size, dtype=bool)
        new[1:] = h[1:] != h[:-1]
        starts = np.nonzero(new)[0]
        min_ids = np.minimum.reduceat(ids, starts)
        counts = np.diff(np.concatenate([starts, [h.size]]))
        return pa.table(
            {
                # int64 key: Ray's aggregate planner round-trips uint64
                # group keys through a pickled extension type
                "h": pa.array((h[starts] >> _U(1)).astype(np.int64)),
                id_col: pa.array(min_ids),
                "n": pa.array(counts.astype(np.int64)),
            }
        )

    out = (
        ds.map_batches(sig, batch_format="pyarrow")
        .groupby("h")
        .aggregate(Min(on=id_col, alias_name=id_col), Sum(on="n", alias_name="n_copies"))
    )
    return out.select_columns([id_col, "n_copies"])


def exact_dedup_drop(ds, col: str = "text", id_col: str = "doc_id"):
    """→ Dataset of SURVIVING rows (min doc_id per distinct content) —
    the materializing variant of `exact_dedup` for corpus cleaning.

    Full rows must co-locate by content hash, so this shuffles the
    documents themselves (inherent to materializing a deduped corpus);
    the shuffle key is a 64-partition coarse hash, winner selection is
    a vectorized idxmin per hash inside each partition."""

    def tag(t: pa.Table) -> pa.Table:
        h = _hash_strings(t[col].combine_chunks().cast(pa.large_binary()))
        t = t.append_column("_h", pa.array((h >> _U(1)).astype(np.int64)))
        return t.append_column(
            "_part", pa.array((h % _U(N_PAIR_PARTS)).astype(np.int64))
        )

    def keep(g: pa.Table) -> pa.Table:
        h = g["_h"].to_numpy(zero_copy_only=False)
        ids = g[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, h))  # min id wins within each hash run
        hh = h[order]
        first = np.ones(hh.size, dtype=bool)
        if hh.size > 1:
            first[1:] = hh[1:] != hh[:-1]
        return g.take(pa.array(order[first])).drop_columns(["_h", "_part"])

    return ds.map_batches(tag, batch_format="pyarrow").groupby("_part").map_groups(
        keep, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------

_SHINGLE_B = np.int64(1000003)  # Horner base of the SQL-mirrorable shingle hash


def _shingle_hashes(
    tc, n_docs: int, k: int, token_hash: str = "fast"
) -> tuple[np.ndarray, np.ndarray]:
    """Rolling k-token shingle hashes from a TokenizedColumn →
    (flat hashes, per-doc offsets). Shared by minhash + jaccard verify.

    ``token_hash="fast"`` (default): 64-bit FNV content hash + mix.
    ``token_hash="sql"``: 31-bit polynomial token hash folded with a
    Horner step mod 2^31-1 — every step BIGINT-expressible in ANSI SQL
    (DuckDB: ``list_reduce(list_slice(th, i, i+k-1), (a,b) ->
    (a*1000003+b) % 2147483647)``), so an oracle can recompute each
    shingle hash value-for-value."""
    counts = np.bincount(tc.doc_index, minlength=n_docs)
    offs = np.zeros(n_docs + 1, np.int64)
    np.cumsum(counts, out=offs[1:])
    # rolling combine of k consecutive token hashes within each doc
    if token_hash == "sql":
        tok_hash = _poly_hash31(tc.terms)  # int64 < 2^31
        h = tok_hash.copy()
        for j in range(1, k):
            shifted = np.roll(tok_hash, -j)
            h = (h * _SHINGLE_B + shifted) % _M31  # < 2^51 pre-mod
    else:
        tok_hash = _hash_strings(tc.terms)
        h = tok_hash.copy()
        for j in range(1, k):
            shifted = np.roll(tok_hash, -j)
            h = _mix(h * _U(0x100000001B3) + shifted)
    # drop the last min(k-1, count) positions of each doc — those
    # shingles would cross the doc boundary (clamped to doc start)
    keep = np.ones(h.size, dtype=bool)
    starts = offs[:-1]
    for j in range(1, k):
        ends = offs[1:] - j
        valid = ends >= starts
        keep[ends[valid]] = False
    new_counts = np.maximum(counts - (k - 1), 0)
    new_offs = np.zeros(n_docs + 1, np.int64)
    np.cumsum(new_counts, out=new_offs[1:])
    return h[keep], new_offs


def _unique_shingle_sets(col: pa.Array, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc SORTED UNIQUE shingle-hash sets → (flat, offsets)."""
    an = DefaultAnalyzer()
    tc = an.tokenize_column(col)
    n = len(col)
    h, offs = _shingle_hashes(tc, n, k)
    if h.size == 0:
        return h, np.zeros(n + 1, np.int64)
    doc_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(offs))
    first = _unique_pairs(doc_of, h)
    uniq_h, uniq_d = h[first], doc_of[first]
    counts = np.bincount(uniq_d, minlength=n)
    uoffs = np.zeros(n + 1, np.int64)
    np.cumsum(counts, out=uoffs[1:])
    return uniq_h, uoffs


def _bin_array(mat_or_rows) -> pa.Array:
    """Vectorized large_binary array: one blob per row of a 2-D uint64
    matrix, or per (offsets, flat) pair for ragged rows."""
    if isinstance(mat_or_rows, tuple):
        offs, flat = mat_or_rows
        byte_offs = (offs.astype(np.int64) * 8).tobytes()
        data = np.ascontiguousarray(flat).view(np.uint64).tobytes()
        n = len(offs) - 1
    else:
        mat = np.ascontiguousarray(mat_or_rows)
        n, w = mat.shape
        byte_offs = (np.arange(n + 1, dtype=np.int64) * (w * 8)).tobytes()
        data = mat.tobytes()
    return pa.Array.from_buffers(
        pa.large_binary(), n, [None, pa.py_buffer(byte_offs), pa.py_buffer(data)]
    )


def _blob_offsets_flat(col, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode a large_binary column of uint64-blob rows → (element
    offsets, flat uint64 values), vectorized (no per-row Python)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if arr.type != pa.large_binary():
        arr = arr.cast(pa.large_binary())
    byte_offs = np.frombuffer(arr.buffers()[1], np.int64)[arr.offset : arr.offset + n + 1]
    data = np.frombuffer(arr.buffers()[2], np.uint8)
    flat = np.ascontiguousarray(data[byte_offs[0] : byte_offs[-1]]).view(np.uint64)
    return ((byte_offs - byte_offs[0]) // 8), flat


def _blob_fixed_matrix(col, width: int) -> np.ndarray:
    """Decode a large_binary column of FIXED-width uint64 blobs to an
    (n, width) matrix. Handles non-contiguous row storage (post-merge
    object round-trips) via a vectorized gather."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(arr)
    offs, flat = _blob_offsets_flat(arr, n)
    if n == 0:
        return np.empty((0, width), np.uint64)
    idx = offs[:-1][:, None] + np.arange(width)
    return flat[idx]


def _attach_blob(pairs, blobs, key: str, carry: dict, out_col: str):
    """Distributed reduce-side INNER join: attach `blobs`' binary blob
    to each `pairs` row on pairs[key] == blobs.k, shuffled through the
    module's standard 64 coarse hash partitions (union + groupby —
    Ray 2.49's Dataset.join chain breaks on schema-less empty
    partitions, and this keeps the whole file on one shuffle
    primitive). `carry` maps the pair columns to preserve → their Arrow
    types. Payload through the shuffle is O(pairs + docs), each doc's
    blob shipped exactly once."""
    carry_names = list(carry)

    def tag_pairs(t: pa.Table) -> pa.Table:
        k = t[key].to_numpy(zero_copy_only=False).astype(np.int64)
        cols = {"k": pa.array(k)}
        for c in carry_names:
            cols[c] = t[c].combine_chunks().cast(carry[c])
        cols[out_col] = pa.nulls(len(k), pa.large_binary())
        cols["role"] = pa.array(np.ones(len(k), np.int8))
        cols["part"] = pa.array((_mix(k.astype(_U)) % _U(N_PAIR_PARTS)).astype(np.int64))
        return pa.table(cols)

    def tag_blobs(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy(zero_copy_only=False).astype(np.int64)
        cols = {"k": pa.array(k)}
        for c in carry_names:
            cols[c] = pa.nulls(len(k), carry[c])
        cols[out_col] = t["blob"].combine_chunks().cast(pa.large_binary())
        cols["role"] = pa.array(np.zeros(len(k), np.int8))
        cols["part"] = pa.array((_mix(k.astype(_U)) % _U(N_PAIR_PARTS)).astype(np.int64))
        return pa.table(cols)

    out_schema = pa.schema(
        [(key, pa.int64())]
        + [(c, carry[c]) for c in carry_names]
        + [(out_col, pa.large_binary())]
    )

    def join_group(t: pa.Table) -> pa.Table:
        # pure Arrow/numpy — a pandas round-trip would promote the
        # carried int64 columns (NULL on blob rows) to float64 and
        # silently corrupt doc ids above 2^53 (hash-derived bulk ids)
        role = t["role"].to_numpy(zero_copy_only=False)
        pr = t.filter(pa.array(role == 1))
        sig = t.filter(pa.array(role == 0))
        if pr.num_rows == 0 or sig.num_rows == 0:
            return out_schema.empty_table()
        sk = sig["k"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(sk, kind="stable")
        sk_sorted = sk[order]
        pk = pr["k"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(sk_sorted, pk)
        pos_c = np.minimum(pos, sk_sorted.size - 1)
        valid = sk_sorted[pos_c] == pk  # inner-join semantics
        if not valid.any():
            return out_schema.empty_table()
        pr_v = pr.filter(pa.array(valid))
        take_idx = pa.array(order[pos_c[valid]])
        cols = {key: pr_v["k"].combine_chunks().cast(pa.int64())}
        for c in carry_names:
            cols[c] = pr_v[c].combine_chunks().cast(carry[c])
        cols[out_col] = (
            sig[out_col].combine_chunks().cast(pa.large_binary()).take(take_idx)
        )
        return pa.table(cols)

    tagged = pairs.map_batches(tag_pairs, batch_format="pyarrow").union(
        blobs.map_batches(tag_blobs, batch_format="pyarrow")
    )
    return tagged.groupby("part").map_groups(join_group, batch_format="pyarrow")


_PERM_A31 = 2654435761  # Knuth multiplier — derandomized perm coefficients
_PERM_B31 = 40503


class MinHasher:
    """Stateful map_batches stage: word-shingle minhash signatures.

    ``perm_hash="fast"`` (default, production): num_perm seeded random
    permutations via (a*h+b) mod 2^61-1 universal hashing over 64-bit
    shingle hashes.
    ``perm_hash="sql"``: derandomized permutations over the 31-bit
    polynomial shingle hash — perm p uses a_p=(2654435761*(p+1)) mod
    2^31-1, b_p=(40503*(p+1)) mod 2^31-1, all arithmetic BIGINT-safe
    and recomputable in ANSI SQL, so a DuckDB oracle can re-derive
    every signature, band bucket and agreement count value-for-value
    (the same trick that made simhash/fingerprint SQL-checkable)."""

    def __init__(
        self,
        col: str,
        id_col: str,
        shingle: int,
        num_perm: int,
        seed: int = 7,
        perm_hash: str = "fast",
    ):
        self.col, self.id_col, self.k, self.n = col, id_col, shingle, num_perm
        self.perm_hash = perm_hash
        if perm_hash == "sql":
            p1 = np.arange(1, num_perm + 1, dtype=np.int64)
            # M31 is prime and the multipliers are coprime to it, so
            # a_p != 0 for every p < M31 (a_p=0 would be a degenerate perm)
            self.a31 = (_PERM_A31 * p1) % _M31
            self.b31 = (_PERM_B31 * p1) % _M31
        else:
            rng = np.random.default_rng(seed)
            self.a = rng.integers(1, (1 << 61) - 1, num_perm, dtype=np.uint64)
            self.b = rng.integers(0, (1 << 61) - 1, num_perm, dtype=np.uint64)
        self.an = DefaultAnalyzer()

    def shingle_hashes(self, t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        """flat shingle hashes + per-doc offsets"""
        tc = self.an.tokenize_column(t[self.col].combine_chunks())
        return _shingle_hashes(
            tc, t.num_rows, self.k,
            token_hash="sql" if self.perm_hash == "sql" else "fast",
        )

    def signatures(self, t: pa.Table) -> np.ndarray:
        """(n_docs, num_perm) minhash matrix: uint64 for perm_hash="fast",
        int64 (< 2^31) for "sql". Empty docs get the hash-space max as
        sentinel in every position."""
        h, offs = self.shingle_hashes(t)
        n_docs = t.num_rows
        if self.perm_hash == "sql":
            sigs = np.full((n_docs, self.n), int(_M31), dtype=np.int64)
        else:
            sigs = np.full((n_docs, self.n), np.iinfo(np.uint64).max, dtype=np.uint64)
        if h.size == 0:
            return sigs
        nonempty = np.diff(offs) > 0
        starts = offs[:-1][nonempty]
        if not starts.size:
            return sigs
        for p in range(self.n):  # loop over perms, vectorized over shingles
            if self.perm_hash == "sql":
                ph = (self.a31[p] * h + self.b31[p]) % _M31  # < 2^62 pre-mod
            else:
                ph = (self.a[p] * h + self.b[p]) & _MERSENNE
            sigs[nonempty, p] = np.minimum.reduceat(ph, starts)
        return sigs

    def __call__(self, t: pa.Table) -> pa.Table:
        sigs = self.signatures(t)
        return pa.table(
            {
                self.id_col: t[self.id_col],
                "sig": pa.FixedSizeListArray.from_arrays(
                    pa.array(sigs.reshape(-1)), self.n
                ),
            }
        )


def _band_rows(sigs: np.ndarray, ids: np.ndarray, bands: int,
               rows_per_band: int, perm_hash: str, id_col: str) -> pa.Table:
    """(band, band_hash, part, id) rows from a signature matrix — the
    slim LSH shuffle payload (~24 B/doc/band)."""
    n = sigs.shape[0]
    band_view = sigs.reshape(n, bands, rows_per_band)
    if perm_hash == "sql":
        # 62-bit double polynomial over band values (< 2^31 each):
        # collision-free enough to mirror SQL's exact slice grouping
        v = band_view.astype(np.int64)
        b1, b2 = v[:, :, 0].copy(), v[:, :, 0].copy()
        for j in range(1, rows_per_band):
            b1 = (b1 * _SHINGLE_B + v[:, :, j]) % _M31
            b2 = (b2 * np.int64(131) + v[:, :, j]) % _M31
        bh = b1.astype(np.uint64) | (b2.astype(np.uint64) << _U(31))
    else:
        bh = band_view[:, :, 0].astype(np.uint64)
        for j in range(1, rows_per_band):
            bh = _mix(bh * _U(0x100000001B3) + band_view[:, :, j])
    bh_flat = bh.reshape(-1)
    return pa.table(
        {
            "band": pa.array(np.tile(np.arange(bands, dtype=np.int32), n)),
            "bh": pa.array(bh_flat),
            "part": pa.array((bh_flat % _U(N_PAIR_PARTS)).astype(np.int64)),
            id_col: pa.array(np.repeat(ids, bands)),
        }
    )


def _band_explode_fn(mh: "MinHasher", bands: int, rows_per_band: int,
                     perm_hash: str, id_col: str):
    """The band-row builder over raw documents, shared by
    `minhash_lsh_pairs` and `minhash_probe`'s new-batch side."""

    def explode(t: pa.Table) -> pa.Table:
        return _band_rows(
            mh.signatures(t), t[id_col].to_numpy(zero_copy_only=False),
            bands, rows_per_band, perm_hash, id_col,
        )

    return explode


def _sig_blob_fn(mh: "MinHasher", id_col: str, wanted=None):
    """(k, blob) signature-blob rows — the reduce-side join payload
    shared by the one-shot estimate, `build_minhash_index` and
    `minhash_probe` (one definition so the blob layout can never
    drift between writer and prober). With ``wanted`` (an object ref to
    an id array) only those docs are signatured: MinHasher is
    batch-invariant, so each blob equals the signature the LSH pass
    derived (byte equality == value equality for the agreement test)."""

    def to_blob(t: pa.Table) -> pa.Table:
        ids = col_i64(t, id_col)
        if wanted is not None:
            import ray

            mask = np.isin(ids, ray.get(wanted))
            if not mask.any():
                return pa.table({"k": pa.array([], pa.int64()),
                                 "blob": pa.array([], pa.large_binary())})
            t, ids = t.filter(pa.array(mask)), ids[mask]
        sigs = np.ascontiguousarray(mh.signatures(t)).view(np.uint64)
        return pa.table({"k": pa.array(ids), "blob": _bin_array(sigs)})

    return to_blob


def _bands_from_blobs(bands: int, rows_per_band: int, perm_hash: str,
                      num_perm: int, id_col: str):
    """Band rows derived from persisted (k, blob) signature rows — lets
    the index build and the probe signature every doc exactly ONCE."""

    def explode(t: pa.Table) -> pa.Table:
        sigs = _blob_fixed_matrix(t["blob"], num_perm)
        ids = t["k"].to_numpy(zero_copy_only=False)
        return _band_rows(sigs, ids, bands, rows_per_band, perm_hash, id_col)

    return explode


def _est_table(id_a: np.ndarray, id_b: np.ndarray, sa: np.ndarray, sb: np.ndarray,
               threshold: float) -> pa.Table:
    """Signature-agreement estimate per pair, kept at >= threshold."""
    est = (sa == sb).mean(axis=1)
    keep = est >= threshold
    return pa.table({"id_a": id_a[keep], "id_b": id_b[keep], "est_jaccard": est[keep]},
                    schema=_EST_SCHEMA)


def _estimate_fn(num_perm: int, threshold: float):
    """The estimate step over (id_a, id_b, sig_a, sig_b) blob-joined
    pairs, shared by the distributed `minhash_lsh_pairs` path and
    `minhash_probe`."""

    def estimate(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return _EST_SCHEMA.empty_table()
        return _est_table(
            col_i64(t, "id_a"), col_i64(t, "id_b"),
            _blob_fixed_matrix(t["sig_a"], num_perm),
            _blob_fixed_matrix(t["sig_b"], num_perm), threshold,
        )

    return estimate


def minhash_lsh_pairs(
    ds,
    col: str = "text",
    id_col: str = "doc_id",
    *,
    shingle: int = 3,
    num_perm: int = 64,
    bands: int = 16,
    threshold: float = 0.5,
    bucket_cap: int = DEFAULT_BUCKET_CAP,
    perm_hash: str = "fast",
):
    """→ Dataset of candidate near-dup pairs (id_a < id_b, est_jaccard).

    Pipeline: one pass over the corpus computes minhash sigs in-batch
    and emits ONLY (band, band_hash, part, doc_id) into the LSH shuffle
    — ~24 B/doc/band instead of the full num_perm*8 B signature per
    band row. Candidate pairs come out of the coarse bucket groupby;
    the signature agreement estimate then RECOMPUTES signatures for
    just the candidate docs (MinHasher is batch-invariant, candidates
    are output-bounded) instead of materializing or re-shuffling the
    full signature table. The final exact verify (token-shingle
    Jaccard) is `ngram_jaccard_verify_pairs`.

    ``perm_hash="sql"`` switches to the derandomized 31-bit permutation
    scheme (see MinHasher) whose signatures, buckets and agreement
    counts a DuckDB oracle recomputes exactly.
    """
    rows_per_band = num_perm // bands
    ds = ds.select_columns([id_col, col])  # projection pushes into the read
    mh = MinHasher(col, id_col, shingle, num_perm, perm_hash=perm_hash)
    explode = _band_explode_fn(mh, bands, rows_per_band, perm_hash, id_col)

    exploded = ds.map_batches(explode, batch_format="pyarrow")
    cand = _pairs_by_partition(
        exploded, ["band", "bh"], id_col, _pair_schema(), cap=bucket_cap,
        dedupe_stage=False,
    ).materialize()

    import ray
    import ray.data

    n_cand = cand.count()
    if n_cand > PAIR_DRIVER_CAP:
        # fully distributed path: the raw candidate list (pre-threshold,
        # bounded only by bucket structure) is too large to gather —
        # dedupe pairs with the coarse pair-hash shuffle, ship every
        # doc's signature blob once through the reduce-side join, and
        # estimate per partition. Nothing touches the driver.
        _LOG.warning(
            "minhash: %d raw candidate pairs exceed PAIR_DRIVER_CAP=%d; "
            "using the fully distributed estimate path", n_cand, PAIR_DRIVER_CAP,
        )
        cand_d = _dedupe_pairs_stage(cand)

        blob_all = ds.map_batches(
            _sig_blob_fn(mh, id_col), batch_format="pyarrow"
        ).materialize()
        with_a = _attach_blob(cand_d, blob_all, "id_a", {"id_b": pa.int64()}, "sig_a")
        with_b = _attach_blob(
            with_a, blob_all, "id_b",
            {"id_a": pa.int64(), "sig_a": pa.large_binary()}, "sig_b",
        )
        return with_b.map_batches(_estimate_fn(num_perm, threshold),
                                  batch_format="pyarrow")

    # common case: candidates fit on the driver — dedupe with one
    # lexsort, broadcast the candidate-doc id set, recompute signatures
    # for just those docs (batch-invariant, so identical to the LSH
    # pass), and estimate agreement in one vectorized pass. One shuffle
    # total.
    pair_tbl = gather_table(cand)  # Arrow blocks, no per-row dicts
    if pair_tbl is None:
        return ray.data.from_arrow(_EST_SCHEMA.empty_table())
    raw_a = col_i64(pair_tbl, "id_a")
    raw_b = col_i64(pair_tbl, "id_b")
    # dedupe pairs generated by multiple agreeing bands
    first = _unique_pairs(raw_a, raw_b)
    ids_a, ids_b = raw_a[first], raw_b[first]
    # one binary blob per CANDIDATE doc (the driver-bounded subset)
    ref = ray.put(np.unique(np.concatenate([ids_a, ids_b])))
    blob_tbl = gather_table(
        ds.map_batches(_sig_blob_fn(mh, id_col, ref), batch_format="pyarrow")
    )
    if blob_tbl is not None:
        ids = col_i64(blob_tbl, "k")
        mat = _blob_fixed_matrix(blob_tbl["blob"], num_perm)
    else:
        ids = np.empty(0, np.int64)
        mat = np.empty((0, num_perm), np.uint64)
    order = np.argsort(ids)
    ids_sorted, mat = ids[order], mat[order]
    sa = mat[np.searchsorted(ids_sorted, ids_a)]
    sb = mat[np.searchsorted(ids_sorted, ids_b)]
    return ray.data.from_arrow(_est_table(ids_a, ids_b, sa, sb, threshold))


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

def simhash_signatures(ds, col: str = "text", id_col: str = "doc_id",
                       token_hash: str = "fast"):
    """→ Dataset of (doc_id, simhash uint64): tf-weighted simhash.

    ``token_hash="fast"`` (default) mixes the 64-bit FNV content hash —
    the production near-dup path. ``token_hash="sql"`` uses the 62-bit
    polynomial hash (`token_hash62`) whose every step is expressible in
    ANSI SQL, so the DuckDB oracle can recompute the signature
    value-for-value (bits 62-63 are then always 0)."""
    ds = ds.select_columns([id_col, col])  # prune at the read

    def sig(t: pa.Table) -> pa.Table:
        an = DefaultAnalyzer()
        tc = an.tokenize_column(t[col].combine_chunks())
        if token_hash == "sql":
            th = token_hash62(tc.terms)
        else:
            th = _mix(_hash_strings(tc.terms))
        n = t.num_rows
        acc = np.zeros((n, 64), dtype=np.int64)
        bits = ((th[:, None] >> np.arange(64, dtype=_U)) & _U(1)).astype(np.int64) * 2 - 1
        np.add.at(acc, tc.doc_index, bits)
        sh = (acc > 0).astype(np.uint64) @ (np.uint64(1) << np.arange(64, dtype=_U))
        return pa.table({id_col: t[id_col], "simhash": pa.array(sh)})

    return ds.map_batches(sig, batch_format="pyarrow")


def simhash_near_dup_pairs(
    ds, col="text", id_col="doc_id", max_hamming: int = 3,
    bucket_cap: int = DEFAULT_BUCKET_CAP,
):
    """Banded candidate generation over 4×16-bit chunks (any identical
    chunk ⇒ candidate when hamming ≤ 3 by pigeonhole), exact verify."""
    sigs = simhash_signatures(ds, col, id_col)

    def explode(t: pa.Table) -> pa.Table:
        sh = t["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        n = len(sh)
        parts = [(sh >> _U(16 * i)) & _U(0xFFFF) for i in range(4)]
        bh_flat = np.concatenate(parts)
        return pa.table(
            {
                "band": pa.array(np.repeat(np.arange(4, dtype=np.int32), n)),
                "bh": pa.array(bh_flat),
                "part": pa.array((bh_flat % _U(N_PAIR_PARTS)).astype(np.int64)),
                id_col: pa.array(np.tile(t[id_col].to_numpy(zero_copy_only=False), 4)),
                "simhash": pa.array(np.tile(sh, 4)),
            }
        )

    def hamming(t: pa.Table, ia: np.ndarray, ib: np.ndarray):
        sh = t["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        x = sh[ia] ^ sh[ib]
        ham = np.zeros(x.size, dtype=np.int64)
        for i in range(64):
            ham += ((x >> _U(i)) & _U(1)).astype(np.int64)
        return ham <= max_hamming, {"hamming": ham}

    exploded = sigs.map_batches(explode, batch_format="pyarrow")
    return _pairs_by_partition(exploded, ["band", "bh"], id_col,
                               _pair_schema("hamming", pa.int64()),
                               cap=bucket_cap, kernel=hamming)


# ---------------------------------------------------------------------------
# Exact n-gram Jaccard verify (within candidate buckets)
# ---------------------------------------------------------------------------

MAX_SHINGLE_RUN = 256  # docs sharing one shingle before it's skipped
_JACCARD_SCHEMA = _pair_schema("jaccard")


def _jaccard_pairs_in_group(
    texts: list, ids: np.ndarray, n: int, threshold: float,
    max_run: int | None = MAX_SHINGLE_RUN,
) -> pa.Table:
    """Exact n-gram Jaccard for all pairs of one bucket, vectorized:
    per-doc sorted-unique shingle-hash sets, then an inverted pass over
    shared shingles (output-sensitive — cost ~ Σ per-shingle pairs, not
    m² string-set work). 64-bit shingle hashes stand in for exact tuple
    sets; a cross-doc collision would need ~2^32 shingles.

    Runs longer than ``max_run`` (a shingle shared by hundreds of docs —
    boilerplate, stock phrases) are SKIPPED, never silently: each skip
    is logged. Such a shingle contributes O(L²) candidate pairs but
    almost no per-pair Jaccard signal, and one hot phrase in a popular
    bucket would otherwise go quadratic. The skip makes reported
    jaccard a lower bound for pairs sharing that shingle; production
    near-dup flows should prefer the LSH-candidate verify
    (`ngram_jaccard_verify_pairs`), which is exact per pair."""
    m = len(ids)
    flat, offs = _unique_shingle_sets(pa.array(texts, type=pa.string()), n)
    sizes = np.diff(offs)
    if flat.size == 0:
        return _JACCARD_SCHEMA.empty_table()
    doc_of = np.repeat(np.arange(m, dtype=np.int64), sizes)
    order = np.argsort(flat, kind="stable")
    hs, ds_ = flat[order], doc_of[order]
    new = np.ones(hs.size, bool)
    new[1:] = hs[1:] != hs[:-1]
    run_starts = np.nonzero(new)[0]
    run_ends = np.append(run_starts[1:], hs.size)
    keys = []
    n_skipped = 0
    for s, e in zip(run_starts, run_ends):  # loop count = n shared shingles
        L = e - s
        if L < 2:
            continue
        if max_run is not None and L > max_run:
            n_skipped += 1
            continue
        docs = np.sort(ds_[s:e])
        ia, ib = np.triu_indices(L, k=1)
        keys.append(docs[ia] * m + docs[ib])
    if n_skipped:
        _LOG.warning(
            "ngram-jaccard: skipped %d shingle runs longer than %d docs "
            "(pair jaccard is a lower bound for docs sharing them)",
            n_skipped, max_run,
        )
    if not keys:
        return _JACCARD_SCHEMA.empty_table()
    pair_keys, inter = np.unique(np.concatenate(keys), return_counts=True)
    a, b = pair_keys // m, pair_keys % m
    union = sizes[a] + sizes[b] - inter
    jac = inter / np.maximum(union, 1)
    keep = jac >= threshold
    return pa.table(
        {"id_a": ids[a[keep]], "id_b": ids[b[keep]], "jaccard": jac[keep]},
        schema=_JACCARD_SCHEMA,
    )


def ngram_jaccard_pairs(
    ds,
    bucket_col: str,
    col: str = "text",
    id_col: str = "doc_id",
    *,
    n: int = 3,
    threshold: float = 0.2,
    max_run: int | None = MAX_SHINGLE_RUN,
):
    """Exact token-n-gram Jaccard for every pair within a bucket
    (e.g. bucket = source or an LSH bucket). Buckets shuffle via 64
    coarse hash partitions (never one Ray group per bucket); inside,
    the pair verify is the vectorized inverted-shingle pass with the
    `max_run` skew cap (see `_jaccard_pairs_in_group`)."""

    def add_part(t: pa.Table) -> pa.Table:
        b = t[bucket_col].combine_chunks().cast(pa.string()).cast(pa.large_binary())
        part = (_hash_strings(b) % _U(N_PAIR_PARTS)).astype(np.int64)
        return t.append_column("part", pa.array(part))

    def gen(t: pa.Table) -> pa.Table:
        """Zero-copy Arrow in; `_bucket_runs` drops singleton buckets so
        only genuinely colliding texts are ever pylist'ed."""
        if t.num_rows < 2:
            return _JACCARD_SCHEMA.empty_table()
        bc = (
            t[bucket_col].combine_chunks().dictionary_encode()
            .indices.to_numpy(zero_copy_only=False)
        )
        ids = col_i64(t, id_col)
        rows, sizes = _bucket_runs([bc], [ids])  # id-ascending within each bucket
        ends = np.cumsum(sizes)
        texts = (
            t[col].combine_chunks().fill_null("").take(pa.array(rows)).to_pylist()
        )
        ids_sel = ids[rows]
        outs = [
            _jaccard_pairs_in_group(texts[s:e], ids_sel[s:e], n, threshold, max_run)
            for s, e in zip(ends - sizes, ends)
        ]
        return pa.concat_tables([_JACCARD_SCHEMA.empty_table(), *outs])

    return (
        ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(gen, batch_format="pyarrow")
    )


def ngram_jaccard_verify_pairs(
    ds,
    pairs: pd.DataFrame,
    col: str = "text",
    id_col: str = "doc_id",
    *,
    n: int = 3,
) -> pd.DataFrame:
    """Exact-Jaccard verify for an EXPLICIT candidate-pair list (the
    stage after `minhash_lsh_pairs`), fully distributed: only docs
    appearing in a pair are shingled (id set broadcast once via
    ray.put), each doc's sorted-unique shingle-hash set travels the
    shuffle exactly once as a binary blob, pairs co-shuffle with both
    blobs through the module's 64-partition reduce-side join, and the
    per-partition intersection count is one vectorized sort pass over
    (pair, hash) — no driver materialization, no per-pair Python loop.
    Cost ~ O(candidate docs + Σ set sizes), independent of corpus size."""
    import ray
    import ray.data

    if not len(pairs):
        return pairs.assign(jaccard=pd.Series(dtype=float))
    wanted = np.unique(
        np.concatenate([pairs["id_a"].to_numpy(), pairs["id_b"].to_numpy()])
    ).astype(np.int64)
    ref = ray.put(wanted)

    def sigs(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        mask = np.isin(ids, ray.get(ref))
        if not mask.any():
            return pa.table(
                {"k": pa.array([], pa.int64()),
                 "blob": pa.array([], pa.large_binary())}
            )
        sub = t.filter(pa.array(mask))
        flat, offs = _unique_shingle_sets(
            sub[col].combine_chunks().cast(pa.string()), n
        )
        return pa.table({"k": pa.array(ids[mask]), "blob": _bin_array((offs, flat))})

    blob_ds = ds.map_batches(sigs, batch_format="pyarrow").materialize()
    pairs_ds = ray.data.from_arrow(
        pa.table(
            {
                "id_a": pa.array(pairs["id_a"].to_numpy().astype(np.int64)),
                "id_b": pa.array(pairs["id_b"].to_numpy().astype(np.int64)),
            }
        )
    )
    with_a = _attach_blob(pairs_ds, blob_ds, "id_a", {"id_b": pa.int64()}, "sh_a")
    with_b = _attach_blob(
        with_a, blob_ds, "id_b",
        {"id_a": pa.int64(), "sh_a": pa.large_binary()}, "sh_b",
    )

    def verify(t: pa.Table) -> pa.Table:
        m = t.num_rows
        if m == 0 or t.num_columns == 0:
            return _JACCARD_SCHEMA.empty_table()
        offs_a, flat_a = _blob_offsets_flat(t["sh_a"], m)
        offs_b, flat_b = _blob_offsets_flat(t["sh_b"], m)
        size_a, size_b = np.diff(offs_a), np.diff(offs_b)
        # vectorized per-pair intersection: tag every hash with its pair
        # index, sort (pair, hash) over both sides concatenated, count
        # adjacent duplicates per pair (sets are unique per side, so a
        # duplicate == one element present in both sets)
        pair_of = np.concatenate(
            [np.repeat(np.arange(m, dtype=np.int64), size_a),
             np.repeat(np.arange(m, dtype=np.int64), size_b)]
        )
        hval = np.concatenate([flat_a, flat_b])
        order = np.lexsort((hval, pair_of))
        p_s, h_s = pair_of[order], hval[order]
        dup = np.zeros(p_s.size, bool)
        if p_s.size > 1:
            dup[1:] = (p_s[1:] == p_s[:-1]) & (h_s[1:] == h_s[:-1])
        inter = np.bincount(p_s[dup], minlength=m) if p_s.size else np.zeros(m, np.int64)
        union = size_a + size_b - inter
        jac = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
        return pa.table(
            {
                "id_a": t["id_a"].combine_chunks().cast(pa.int64()),
                "id_b": t["id_b"].combine_chunks().cast(pa.int64()),
                "jaccard": pa.array(jac),
            }
        )

    vt = gather_table(with_b.map_batches(verify, batch_format="pyarrow"))
    out = pairs.copy()
    if vt is None:
        out["jaccard"] = 0.0
        return out
    # vectorized (id_a, id_b) -> jaccard lookup; pairs whose doc id is
    # missing from the corpus (no blob row) drop out of the inner join —
    # preserve the old contract: jaccard 0.0. Structured dtype keeps
    # >2^53 ids exact (no float key packing).
    key_t = np.dtype([("a", np.int64), ("b", np.int64)])
    kv = np.empty(vt.num_rows, key_t)
    kv["a"], kv["b"] = col_i64(vt, "id_a"), col_i64(vt, "id_b")
    jac_v = vt["jaccard"].to_numpy(zero_copy_only=False)
    order = np.argsort(kv)
    kv, jac_v = kv[order], jac_v[order]
    kq = np.empty(len(pairs), key_t)
    kq["a"] = pairs["id_a"].to_numpy().astype(np.int64)
    kq["b"] = pairs["id_b"].to_numpy().astype(np.int64)
    pos = np.searchsorted(kv, kq).clip(max=max(kv.size - 1, 0))
    hit = kv[pos] == kq if kv.size else np.zeros(kq.size, bool)
    out["jaccard"] = np.where(hit, jac_v[pos], 0.0)
    return out


# ---------------------------------------------------------------------------
# Embedding cosine near-dup
# ---------------------------------------------------------------------------

def embedding_near_dup_pairs(
    ds,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    *,
    threshold: float = 0.95,
    n_planes: int = 12,
    seed: int = 11,
    planes: str = "random",
    bucket_cap: int = DEFAULT_BUCKET_CAP,
):
    """Sign-LSH bucket over normalized vectors → exact cosine verify
    within bucket, via the same 64-partition pair scheme as the text
    LSH ops (never one Ray group per bucket), with the oversized-bucket
    star cap. Vectors convert zero-copy (FixedSizeList/List flatten →
    reshape, no per-row Python).

    ``planes="random"``: seeded Gaussian hyperplanes (production).
    ``planes="axis"``: the first n_planes coordinate axes — fully
    deterministic AND expressible in SQL (bucket bit j = v[j] > 0), so
    the DuckDB oracle can recompute bucket membership exactly."""
    from toshi_ray.ops.similarity import _vec_matrix

    def bucketize(t: pa.Table) -> pa.Table:
        v = _vec_matrix(t[vec_col])
        v = v / np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-12)
        if planes == "axis":
            bits = (v[:, :n_planes] > 0).astype(np.uint64)
        else:
            rng = np.random.default_rng(seed)
            p = rng.standard_normal((v.shape[1], n_planes))
            bits = (v @ p > 0).astype(np.uint64)
        bucket = bits @ (np.uint64(1) << np.arange(n_planes, dtype=np.uint64))
        return pa.table(
            {
                id_col: t[id_col],
                "bucket": pa.array(bucket),
                "part": pa.array((_mix(bucket) % _U(N_PAIR_PARTS)).astype(np.int64)),
                "vec": pa.FixedSizeListArray.from_arrays(
                    pa.array(v.reshape(-1)), v.shape[1]
                ),
            }
        )

    def cosine(t: pa.Table, ia: np.ndarray, ib: np.ndarray):
        v = _vec_matrix(t["vec"])
        sim = np.einsum("ij,ij->i", v[ia], v[ib])
        return sim >= threshold, {"cosine": sim}

    exploded = ds.map_batches(bucketize, batch_format="pyarrow")
    return _pairs_by_partition(exploded, ["bucket"], id_col, _pair_schema("cosine"),
                               cap=bucket_cap, kernel=cosine)


# ---------------------------------------------------------------------------
# Duplicate-cluster resolution (connected components over near-dup pairs)
# ---------------------------------------------------------------------------
# The last stage of the standard web-scale dedup pipeline (candidate
# pairs are not actionable on their own — near-duplication is not
# transitive, so a doc can pair with two docs that never paired with
# each other): resolve the pair graph into clusters and keep one
# canonical doc per cluster (the min doc_id, matching exact_dedup's
# keep-first rule).


def _components_driver(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized min-label connected components over edge arrays.
    Labels live in index space over the sorted unique node array; each
    round scatters the min across every edge (np.minimum.at) and then
    pointer-jumps (lbl = min(lbl, lbl[lbl])), so the round count is
    O(log diameter) and each round is O(E) numpy work — no Python loop
    over edges or nodes. At the fixpoint both endpoints of every edge
    carry the same label, and that label is the component's smallest
    node index (labels only decrease and only hold component members)."""
    nodes = np.unique(np.concatenate([a, b]))
    ia = np.searchsorted(nodes, a)
    ib = np.searchsorted(nodes, b)
    lbl = np.arange(nodes.size, dtype=np.int64)
    while True:
        new = lbl.copy()
        np.minimum.at(new, ia, lbl[ib])
        np.minimum.at(new, ib, lbl[ia])
        new = np.minimum(new, new[new])
        if np.array_equal(new, lbl):
            break
        lbl = new
    return nodes, nodes[lbl]


def dup_components(pairs, *, driver_cap: int = PAIR_DRIVER_CAP, max_rounds: int = 64):
    """Connected components over a near-dup pair set → Dataset of
    (doc_id, component) where component is the smallest doc_id reachable
    through the pair graph (the cluster canonical — ``doc_id ==
    component`` marks the row to keep). Only docs appearing in at least
    one pair are returned; every other doc is trivially its own
    component.

    Two paths, same contract as ``minhash_lsh_pairs``:

    - ``n_pairs <= driver_cap`` (16 B/pair → ~80 MB at the default):
      gather the edge list and run the vectorized pointer-jumping
      min-label loop on the driver (`_components_driver`).
    - above the cap: fully distributed hash-min label propagation.
      Edges (both directions, pre-keyed by source hash) are
      materialized ONCE; each round is one union+groupby reduce that
      joins every directed edge to its source's current label and a
      second reduce that takes the min per target node and counts
      changes. Converges in graph-diameter rounds — near-dup graphs
      are low-diameter by construction (LSH buckets emit cliques, and
      oversized buckets emit stars via `_pair_index`). Only the
      O(nodes) label table moves per round; documents never do.
    """
    import ray
    import ray.data

    if isinstance(pairs, pd.DataFrame):
        pairs = ray.data.from_pandas(pairs)
    elif isinstance(pairs, pa.Table):
        pairs = ray.data.from_arrow(pairs)

    out_schema = pa.schema([("doc_id", pa.int64()), ("component", pa.int64())])
    pairs = pairs.materialize()  # count + gather (or reuse per round) — execute once
    n_pairs = pairs.count()
    if n_pairs == 0:
        return ray.data.from_arrow(out_schema.empty_table())

    if n_pairs <= driver_cap:
        t = gather_table(pairs.select_columns(["id_a", "id_b"]))
        a = col_i64(t, "id_a")
        b = col_i64(t, "id_b")
        nodes, comp = _components_driver(a, b)
        return ray.data.from_arrow(
            pa.table({"doc_id": pa.array(nodes), "component": pa.array(comp)})
        )

    _LOG.warning(
        "dup_components: %d pairs exceed driver_cap=%d; "
        "running distributed label propagation", n_pairs, driver_cap,
    )

    def to_edges(t: pa.Table) -> pa.Table:
        a = t["id_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["id_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        return pa.table(
            {
                "src": pa.array(src),
                "dst": pa.array(dst),
                "lbl": pa.nulls(src.size, pa.int64()),
                "role": pa.array(np.zeros(src.size, np.int8)),
                "part": pa.array((_mix(src.astype(_U)) % _U(N_PAIR_PARTS)).astype(np.int64)),
            }
        )

    # one directed edge per (pair, direction), keyed by source — built
    # and shuffled once, reused every round
    edges = pairs.map_batches(to_edges, batch_format="pyarrow").materialize()

    def init_nodes(t: pa.Table) -> pa.Table:
        ids = np.unique(t["src"].to_numpy(zero_copy_only=False).astype(np.int64))
        return pa.table(
            {
                "node": pa.array(ids),
                "lbl": pa.array(ids),
                "is_old": pa.array(np.ones(ids.size, np.int8)),
                "part2": pa.array((_mix(ids.astype(_U)) % _U(N_PAIR_PARTS)).astype(np.int64)),
            }
        )

    red_schema = pa.schema(
        [("node", pa.int64()), ("lbl", pa.int64()), ("changed", pa.int64())]
    )

    def reduce_min(t: pa.Table) -> pa.Table:
        # pure Arrow/numpy (pandas would float64-promote the nullable
        # int64 lbl column and corrupt ids above 2^53)
        if t.num_rows == 0:
            return red_schema.empty_table()
        node = t["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        lbl = t["lbl"].to_numpy(zero_copy_only=False).astype(np.int64)
        is_old = t["is_old"].to_numpy(zero_copy_only=False).astype(bool)
        order = np.lexsort((~is_old, node))  # old row first per node
        node_s, lbl_s, old_s = node[order], lbl[order], is_old[order]
        starts = np.flatnonzero(np.r_[True, node_s[1:] != node_s[:-1]])
        mins = np.minimum.reduceat(lbl_s, starts)
        # every node has exactly one is_old row (the label table covers
        # all endpoints), sorted to the front of its run
        old = lbl_s[starts]
        assert old_s[starts].all(), "label table must cover every node"
        return pa.table(
            {
                "node": pa.array(node_s[starts]),
                "lbl": pa.array(mins),
                "changed": pa.array((mins < old).astype(np.int64)),
            }
        )

    labels = (
        edges.map_batches(init_nodes, batch_format="pyarrow")
        .groupby("part2")
        .map_groups(
            lambda t: reduce_min(t).drop_columns(["changed"]),
            batch_format="pyarrow",
        )
        .materialize()
    )

    prop_schema = pa.schema(
        [("node", pa.int64()), ("lbl", pa.int64()), ("is_old", pa.int8()),
         ("part2", pa.int64())]
    )

    def propagate(t: pa.Table) -> pa.Table:
        role = t["role"].to_numpy(zero_copy_only=False)
        ed = t.filter(pa.array(role == 0))
        lb = t.filter(pa.array(role == 1))
        lnode = lb["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        llbl = lb["lbl"].to_numpy(zero_copy_only=False).astype(np.int64)
        outs = []
        if lb.num_rows:
            outs.append((lnode, llbl, np.ones(lnode.size, np.int8)))
        if ed.num_rows and lb.num_rows:
            order = np.argsort(lnode, kind="stable")
            ln_s, ll_s = lnode[order], llbl[order]
            esrc = ed["src"].to_numpy(zero_copy_only=False).astype(np.int64)
            edst = ed["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
            pos = np.searchsorted(ln_s, esrc)
            # every edge source has a label row in its own partition
            outs.append((edst, ll_s[pos], np.zeros(edst.size, np.int8)))
        if not outs:
            return prop_schema.empty_table()
        node = np.concatenate([o[0] for o in outs])
        lbl = np.concatenate([o[1] for o in outs])
        old = np.concatenate([o[2] for o in outs])
        return pa.table(
            {
                "node": pa.array(node),
                "lbl": pa.array(lbl),
                "is_old": pa.array(old),
                "part2": pa.array((_mix(node.astype(_U)) % _U(N_PAIR_PARTS)).astype(np.int64)),
            }
        )

    def tag_labels(t: pa.Table) -> pa.Table:
        ids = t["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "src": pa.array(ids),
                "dst": pa.nulls(ids.size, pa.int64()),
                "lbl": t["lbl"].combine_chunks().cast(pa.int64()),
                "role": pa.array(np.ones(ids.size, np.int8)),
                "part": pa.array((_mix(ids.astype(_U)) % _U(N_PAIR_PARTS)).astype(np.int64)),
            }
        )

    for _ in range(max_rounds):
        cand = (
            edges.union(labels.map_batches(tag_labels, batch_format="pyarrow"))
            .groupby("part")
            .map_groups(propagate, batch_format="pyarrow")
        )
        new_labels = (
            cand.groupby("part2")
            .map_groups(reduce_min, batch_format="pyarrow")
            .materialize()
        )
        changed = new_labels.sum("changed")
        labels = new_labels.drop_columns(["changed"])
        if not changed:
            break
    else:
        _LOG.warning("dup_components: hit max_rounds=%d before convergence", max_rounds)

    return labels.map_batches(
        lambda t: pa.table(
            {
                "doc_id": t["node"].combine_chunks().cast(pa.int64()),
                "component": t["lbl"].combine_chunks().cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# Exact substring (span) duplication — Lee et al. 2021 §4.1 "ExactSubstr"
# ---------------------------------------------------------------------------
# The suffix-array dedup of "Deduplicating Training Data Makes Language
# Models Better", re-expressed for Ray Data: instead of one giant
# suffix array, every WIDTH-token span is hashed with the derandomized
# rolling polynomial (mod 2^31-1 — the same SQL-recomputable scheme as
# the minhash oracle), spans co-locate by hash through the module's 64
# coarse partitions, and a span is "duplicated" when its token sequence
# occurs >= 2 times corpus-wide (within-doc repeats count, matching the
# paper's suffix-array criterion). Shuffle payload is O(distinct spans
# per doc) slim integer rows; text never moves.


def dup_spans(ds, col: str = "text", id_col: str = "doc_id", *, width: int = 8):
    """→ Dataset of (doc_id, n_spans, n_dup_spans) for every doc with at
    least one `width`-token span.

    One slim shuffle co-locates span hashes so corpus-wide occurrence
    totals are exact per partition, emitting per-(partition, doc)
    partial sums; the partials (≤ 64 rows/doc, output-bounded) fold on
    the driver under PAIR_DRIVER_CAP, with a distributed Sum groupby
    fallback above it — the same cap pattern as minhash/components.
    Collisions are not a correctness concern for the oracle comparison:
    the SQL twin computes the identical hash, so both engines see the
    same (rare) collision."""
    import ray.data
    from ray.data.aggregate import Sum

    ds = ds.select_columns([id_col, col])

    part_schema = pa.schema(
        [("h", pa.int64()), ("doc_id", pa.int64()), ("c", pa.int64()),
         ("part", pa.int64())]
    )

    def spans(t: pa.Table) -> pa.Table:
        an = DefaultAnalyzer()
        tc = an.tokenize_column(t[col].combine_chunks())
        h, offs = _shingle_hashes(tc, t.num_rows, width, token_hash="sql")
        if h.size == 0:
            return part_schema.empty_table()
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        doc_of = np.repeat(np.arange(t.num_rows, dtype=np.int64), np.diff(offs))
        order = np.lexsort((h, doc_of))
        hs, dx = h[order], doc_of[order]
        new = np.ones(hs.size, bool)
        new[1:] = (dx[1:] != dx[:-1]) | (hs[1:] != hs[:-1])
        starts = np.flatnonzero(new)
        c = np.diff(np.r_[starts, hs.size]).astype(np.int64)
        hh = hs[starts]
        return pa.table(
            {
                "h": pa.array(hh),
                "doc_id": pa.array(ids[dx[starts]]),
                "c": pa.array(c),
                "part": pa.array((_mix(hh.astype(_U)) % _U(N_PAIR_PARTS)).astype(np.int64)),
            }
        )

    red_schema = pa.schema(
        [("doc_id", pa.int64()), ("sp", pa.int64()), ("dp", pa.int64())]
    )

    def reduce_part(t: pa.Table) -> pa.Table:
        # all rows of a hash live in this partition → the per-hash total
        # is corpus-global; fold into per-doc partials before the second
        # (tiny) shuffle
        if t.num_rows == 0:
            return red_schema.empty_table()
        h = t["h"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(h, kind="stable")
        hs, dsx, cs = h[order], d[order], c[order]
        new = np.ones(hs.size, bool)
        new[1:] = hs[1:] != hs[:-1]
        starts = np.flatnonzero(new)
        tot = np.add.reduceat(cs, starts)
        run_id = np.cumsum(new) - 1
        dup_row = tot[run_id] >= 2
        docs, inv = np.unique(dsx, return_inverse=True)
        sp = np.bincount(inv, weights=cs, minlength=docs.size).astype(np.int64)
        dp = np.bincount(
            inv[dup_row], weights=cs[dup_row], minlength=docs.size
        ).astype(np.int64)
        return pa.table(
            {"doc_id": pa.array(docs), "sp": pa.array(sp), "dp": pa.array(dp)}
        )

    out = (
        ds.map_batches(spans, batch_format="pyarrow")
        .groupby("part")
        .map_groups(reduce_part, batch_format="pyarrow")
        .materialize()  # slim (doc_id, sp, dp) partials, ≤ 64 rows/doc
    )
    if out.count() <= PAIR_DRIVER_CAP:
        # partials are output-bounded → one vectorized driver fold
        # replaces the second all-to-all (the ~1.5-3 s/groupby Ray
        # floor); above the cap the distributed Sum groupby still runs
        t = gather_table(out)  # Arrow blocks, no per-row dicts
        if t is None:
            return ray.data.from_arrow(
                pa.table({"doc_id": pa.array([], pa.int64()),
                          "n_spans": pa.array([], pa.int64()),
                          "n_dup_spans": pa.array([], pa.int64())})
            )
        d = col_i64(t, "doc_id")
        sp = col_i64(t, "sp")
        dp = col_i64(t, "dp")
        docs, inv = np.unique(d, return_inverse=True)
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(docs),
                    "n_spans": pa.array(
                        np.bincount(inv, weights=sp, minlength=docs.size).astype(np.int64)
                    ),
                    "n_dup_spans": pa.array(
                        np.bincount(inv, weights=dp, minlength=docs.size).astype(np.int64)
                    ),
                }
            )
        )
    out = out.groupby("doc_id").aggregate(
        Sum(on="sp", alias_name="n_spans"),
        Sum(on="dp", alias_name="n_dup_spans"),
    )
    return out.select_columns(["doc_id", "n_spans", "n_dup_spans"])


def dup_span_drop(ds, col: str = "text", id_col: str = "doc_id", *,
                  width: int = 8, max_num: int = 1, max_den: int = 5):
    """→ Dataset of surviving (doc_id): docs whose duplicated-span
    fraction is <= max_num/max_den (compared by integer cross-
    multiplication — no float threshold to drift between engines).
    Docs too short to have any span survive by definition."""
    stats = dup_spans(ds, col, id_col, width=width)

    def keep(t: pa.Table) -> pa.Table:
        sp = t["n_spans"].to_numpy(zero_copy_only=False).astype(np.int64)
        dp = t["n_dup_spans"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = dp * max_den <= sp * max_num
        return pa.table(
            {id_col: t[id_col].combine_chunks().cast(pa.int64()).filter(pa.array(m))}
        )

    kept = stats.map_batches(keep, batch_format="pyarrow")
    # docs with zero spans never entered the hash pipeline — union them
    # back (their dup fraction is vacuously 0)
    import ray.data  # noqa: F401

    def short_ids(t: pa.Table) -> pa.Table:
        an = DefaultAnalyzer()
        tc = an.tokenize_column(t[col].combine_chunks())
        n_tok = np.bincount(tc.doc_index, minlength=t.num_rows)
        m = n_tok < width
        return pa.table(
            {id_col: t[id_col].combine_chunks().cast(pa.int64()).filter(pa.array(m))}
        )

    short = ds.select_columns([id_col, col]).map_batches(
        short_ids, batch_format="pyarrow"
    )
    return kept.union(short)


def dup_span_scrub(ds, col: str = "text", id_col: str = "doc_id", *,
                   width: int = 8):
    """→ Dataset of (doc_id, clean_text, n_kept, n_removed): remove every
    token covered by a duplicated `width`-token span (the actual rewrite
    step of Lee et al.'s ExactSubstr dedup — `dup_spans` only reports).

    clean_text is the ANALYZED token stream (lowercased, punctuation
    collapsed) minus covered tokens, joined by single spaces — the
    canonical form downstream LM-data pipelines feed to tokenizers.

    Two passes over the corpus: pass 1 is `dup_spans`' hash-partitioned
    occurrence count, but emitting the (small) set of DUPLICATED hashes,
    gathered + broadcast via ray.put (the dup-hash set is bounded by
    actual duplication, orders of magnitude below the span count);
    pass 2 re-shingles each doc, marks covered token positions with a
    vectorized diff-array (+1 at span start, -1 at span end), and cuts.
    Text itself never shuffles."""
    import ray
    import ray.data  # noqa: F401
    import pyarrow.compute as pc

    ds = ds.select_columns([id_col, col])

    def spans(t: pa.Table) -> pa.Table:
        an = DefaultAnalyzer()
        tc = an.tokenize_column(t[col].combine_chunks())
        h, offs = _shingle_hashes(tc, t.num_rows, width, token_hash="sql")
        if h.size == 0:
            return pa.table({"h": pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64()),
                             "part": pa.array([], pa.int64())})
        hs, cnt = np.unique(h, return_counts=True)
        return pa.table(
            {
                "h": pa.array(hs),
                "c": pa.array(cnt.astype(np.int64)),
                "part": pa.array((_mix(hs.astype(_U)) % _U(N_PAIR_PARTS)).astype(np.int64)),
            }
        )

    def dup_only(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"h": pa.array([], pa.int64())})
        h = t["h"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        hs, inv = np.unique(h, return_inverse=True)
        tot = np.bincount(inv, weights=c, minlength=hs.size)
        return pa.table({"h": pa.array(hs[tot >= 2])})

    dup_tbl = gather_table(
        ds.map_batches(spans, batch_format="pyarrow")
        .groupby("part")
        .map_groups(lambda t: dup_only(t.drop_columns(["part"])),
                    batch_format="pyarrow")
    )
    dup_set = (np.sort(col_i64(dup_tbl, "h")) if dup_tbl is not None
               else np.empty(0, np.int64))
    _LOG.info("dup_span_scrub: %d duplicated span hashes broadcast", dup_set.size)
    ref = ray.put(dup_set)

    def scrub(t: pa.Table) -> pa.Table:
        an = DefaultAnalyzer()
        tc = an.tokenize_column(t[col].combine_chunks())
        n_docs = t.num_rows
        counts = np.bincount(tc.doc_index, minlength=n_docs).astype(np.int64)
        toffs = np.zeros(n_docs + 1, np.int64)
        np.cumsum(counts, out=toffs[1:])
        h, soffs = _shingle_hashes(tc, n_docs, width, token_hash="sql")
        dup = ray.get(ref)
        n_tok = int(counts.sum())
        # diff-array over GLOBAL token positions: +1 where a duplicated
        # span starts, -1 one past its end; cumsum > 0 == covered
        cover = np.zeros(n_tok + 1, np.int64)
        if h.size:
            pos = np.searchsorted(dup, h)
            isdup = (pos < dup.size) & (dup[np.minimum(pos, dup.size - 1)] == h)
            scnt = np.diff(soffs)
            # span j of doc d starts at token toffs[d] + (j - soffs[d])
            sdoc = np.repeat(np.arange(n_docs, dtype=np.int64), scnt)
            local = np.arange(h.size, dtype=np.int64) - soffs[:-1][sdoc]
            gstart = toffs[sdoc] + local
            gs = gstart[isdup]
            np.add.at(cover, gs, 1)
            np.add.at(cover, gs + width, -1)  # spans never cross docs
        covered = np.cumsum(cover[:-1]) > 0
        keep = ~covered
        terms = tc.terms
        kept_terms = terms.filter(pa.array(keep))
        kept_doc = tc.doc_index[keep]
        kept_cnt = np.bincount(kept_doc, minlength=n_docs).astype(np.int64)
        # per-doc ' '-join of kept tokens via a ListArray wrap (zero-copy)
        koffs = np.zeros(n_docs + 1, np.int64)
        np.cumsum(kept_cnt, out=koffs[1:])
        lst = pa.LargeListArray.from_arrays(
            pa.array(koffs, type=pa.int64()),
            kept_terms.combine_chunks() if isinstance(kept_terms, pa.ChunkedArray) else kept_terms,
        )
        clean = pc.binary_join(lst, " ")
        return pa.table(
            {
                "doc_id": t[id_col].combine_chunks().cast(pa.int64()),
                "clean_text": clean.cast(pa.string()),
                "n_kept": pa.array(kept_cnt),
                "n_removed": pa.array(counts - kept_cnt),
            }
        )

    return ds.map_batches(scrub, batch_format="pyarrow")


def build_minhash_index(
    ds,
    path: str,
    *,
    col: str = "text",
    id_col: str = "doc_id",
    shingle: int = 3,
    num_perm: int = 64,
    bands: int = 16,
    perm_hash: str = "fast",
) -> dict:
    """Persist a corpus's LSH band table + signature blobs so LATER
    batches can be near-dup-checked against it WITHOUT re-signaturing
    the corpus — the incremental-crawl dedup shape (every new crawl
    probes the standing index; the corpus is only ever signatured once).

    Layout: ``path/sigs/`` parquet (k, blob) signature blobs —
    signatured exactly ONCE, bands derive from the blobs; ``path/bands/``
    parquet (band, bh, part, id) — the same slim rows the one-shot LSH
    shuffle uses; ``path/meta.json`` is written LAST (the completion
    marker) and pins parameters + format version so a probe with
    mismatched hashing fails loudly instead of silently finding nothing.
    Any existing index at ``path`` is cleared first — a rebuild can
    never mix old and new rows.
    """
    import json
    import os
    import shutil

    import ray.data

    rows_per_band = num_perm // bands
    mh = MinHasher(col, id_col, shingle, num_perm, perm_hash=perm_hash)
    ds = ds.select_columns([id_col, col])

    for sub in ("bands", "sigs"):
        shutil.rmtree(os.path.join(path, sub), ignore_errors=True)
    meta_path = os.path.join(path, "meta.json")
    if os.path.exists(meta_path):
        os.unlink(meta_path)
    os.makedirs(path, exist_ok=True)

    sigs_path = os.path.join(path, "sigs")
    ds.map_batches(
        _sig_blob_fn(mh, id_col), batch_format="pyarrow"
    ).write_parquet(sigs_path)
    ray.data.read_parquet(sigs_path).map_batches(
        _bands_from_blobs(bands, rows_per_band, perm_hash, num_perm, id_col),
        batch_format="pyarrow",
    ).write_parquet(os.path.join(path, "bands"))
    meta = {"version": MINHASH_INDEX_VERSION, "col": col, "id_col": id_col,
            "shingle": shingle, "num_perm": num_perm, "bands": bands,
            "perm_hash": perm_hash}
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    return meta


def minhash_probe(
    new_ds,
    path: str,
    *,
    threshold: float = 0.5,
    pair_cap: int = DEFAULT_BUCKET_CAP * DEFAULT_BUCKET_CAP,
):
    """→ Dataset of (id_a, id_b, est_jaccard): near-dup candidates of
    the NEW batch against a persisted `build_minhash_index` corpus —
    id_a is the indexed (reference) doc, id_b the new doc.

    One LSH shuffle: the stored band table streams straight off parquet
    and unions with the new batch's bands (tagged by side); per-bucket
    pairs are CROSS-side only. The new batch is signatured exactly once
    (blob table materialized; its band rows derive from the blobs), the
    reference corpus is never read at all — its blobs join reduce-side.
    Buckets whose ref×new pair PRODUCT exceeds ``pair_cap`` fall back
    to pairing every new doc with the smallest reference id (logged
    star fallback, never silent).
    """
    import json
    import os

    import ray.data

    with open(os.path.join(path, "meta.json")) as f:
        meta = json.load(f)
    if meta.get("version") != MINHASH_INDEX_VERSION:
        raise ValueError(
            f"minhash index at {path} has version {meta.get('version')}, "
            f"this code expects {MINHASH_INDEX_VERSION} — rebuild with "
            "build_minhash_index"
        )
    col, id_col = meta["col"], meta["id_col"]
    num_perm, bands = meta["num_perm"], meta["bands"]
    rows_per_band = num_perm // bands
    mh = MinHasher(col, id_col, meta["shingle"], num_perm,
                   perm_hash=meta["perm_hash"])
    new_ds = new_ds.select_columns([id_col, col])

    def tag(side: int):
        def f(t: pa.Table) -> pa.Table:
            return t.append_column(
                "side", pa.array(np.full(t.num_rows, side, np.int8))
            )
        return f

    # signature the new batch ONCE; bands derive from the blob table
    new_blobs = new_ds.map_batches(
        _sig_blob_fn(mh, id_col), batch_format="pyarrow"
    ).materialize()
    ref_bands = ray.data.read_parquet(os.path.join(path, "bands")).map_batches(
        tag(0), batch_format="pyarrow"
    )
    new_bands = new_blobs.map_batches(
        _bands_from_blobs(bands, rows_per_band, meta["perm_hash"],
                          num_perm, id_col),
        batch_format="pyarrow",
    ).map_batches(tag(1), batch_format="pyarrow")

    cand = _pairs_by_partition(
        ref_bands.union(new_bands), ["band", "bh"], id_col, _pair_schema(),
        cross_cap=pair_cap,
    )

    ref_blobs = ray.data.read_parquet(os.path.join(path, "sigs"))
    with_a = _attach_blob(cand, ref_blobs, "id_a", {"id_b": pa.int64()}, "sig_a")
    with_b = _attach_blob(
        with_a, new_blobs, "id_b",
        {"id_a": pa.int64(), "sig_a": pa.large_binary()}, "sig_b",
    )

    return with_b.map_batches(_estimate_fn(num_perm, threshold), batch_format="pyarrow")
