"""Segment merge — the term-keyed shuffle with hot-term salting.

This is the consolidation analogue of tantivy's LogMergePolicy as
configured by the reference (`min_merge_size=8`, `min_layer_size=10_000`,
`level_log_size=0.75` — `toshi-server/src/settings.rs:47-49,190-201`,
SURVEY.md §2.6 A3), re-expressed as a Ray Data job:

    read_parquet([seg_i/postings])                    # one row per (term, shard)
      → map_batches(tag hot terms with doc-range salt)  # skew handling
      → groupby(hash(field,term,shard) % 64)          # the all-to-all shuffle
          .map_groups(vectorized partition merge)     # ONE decode_postings
                                                      #   + encode_postings
                                                      #   per partition
      → sort(field, term, shard) → write_parquet      # merged term dictionary

The shuffle key is a COARSE partition of the term hash (not one Ray
group per term — per-group Python overhead would dominate at millions
of terms); all (field, term, shard) groups inside a partition merge in
a single numpy pass (`_merge_partition`).

Salting (SURVEY.md §7.3/§7.4): a term whose df in ANY source segment
exceeds ``hot_df_threshold`` keeps per-doc-range shards
(``shard = first_doc // shard_span``) instead of collapsing into one
giant group — groups stay bounded, postings stay doc_id-sorted because
shards partition disjoint doc ranges, and readers already concatenate
multi-shard terms in shard order. Hot detection is a map-side filter
(no extra shuffle): at web scale the hot set is small by definition.

Doc-partitioned side files (docvalues / store) merge by plain
concatenation — doc ranges of input segments are disjoint.

Tombstones (delete-by-term, reference `handle.rs:184-210`, SURVEY.md
§2.2 T5) are applied physically here: tombstoned doc_ids drop out of
postings (re-encoded through the same `encode_postings`, so df and
each row's first/last doc id are recomputed), docvalues and store. A
merge of every segment then unlists the delete files it applied.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import time
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from toshi_ray import codecs
from toshi_ray.pipelines.build import (
    SEGMENTS_DIR,
    TOMBSTONES_DIR,
    commit,
    load_manifest,
    load_tombstones,
)
from toshi_ray.segments import (
    DOCVALUES_FILE,
    META_FILE,
    POSTINGS_FILE,
    STORE_BLOCK_ROWS,
    STORE_COMPRESSION,
    STORE_FILE,
    _binary_from_offsets,
    _binary_parts,
    decode_postings,
    empty_postings,
    encode_postings,
)
from toshi_ray.storage import get_storage

# reference defaults (config/config.toml:14-17)
MIN_MERGE_SIZE = 8
MIN_LAYER_SIZE = 10_000
LEVEL_LOG_SIZE = 0.75


def log_merge_candidates(
    segments: list[dict],
    min_merge_size: int = MIN_MERGE_SIZE,
    min_layer_size: int = MIN_LAYER_SIZE,
    level_log_size: float = LEVEL_LOG_SIZE,
) -> list[list[str]]:
    """Log-bucketed merge candidates — tantivy LogMergePolicy semantics:
    sort segments by log-size descending and open a NEW level whenever a
    segment's log2 size drops more than ``level_log_size`` below the
    current level head (bands of width level_log_size in log2 space,
    anchored at each band's largest segment — not a fixed grid);
    everything at or under ``min_layer_size`` is clipped up so it shares
    the bottom level. A level merges once it holds >= min_merge_size
    segments."""
    sized = sorted(
        ((math.log2(max(s["num_docs"], min_layer_size, 1)), s["name"]) for s in segments),
        key=lambda x: -x[0],
    )
    levels: list[list[str]] = []
    head_log: float | None = None
    for lg, name in sized:
        if head_log is None or lg < head_log - level_log_size:
            levels.append([])
            head_log = lg
        levels[-1].append(name)
    return [names for names in levels if len(names) >= min_merge_size]


def _merge_partition(t: pa.Table) -> pa.Table:
    """Vectorized merge of ALL posting rows in one coarse partition.

    The rows of one (field, term, shard_out) group concatenate in
    first_doc order (sources cover disjoint doc ranges): one
    `decode_postings` of every row, one `encode_postings` of every group
    — no per-term Python loop. Position
    streams restart per doc, so a group's positions are the byte
    concatenation of its rows', never re-encoded.
    """
    t = t.sort_by(
        [("field", "ascending"), ("term", "ascending"),
         ("shard_out", "ascending"), ("first_doc", "ascending")]
    ).combine_chunks()
    n = t.num_rows
    if n == 0:
        return empty_postings()
    fields = t["field"].to_numpy(zero_copy_only=False)
    terms = t["term"].to_numpy(zero_copy_only=False)
    shards = t["shard_out"].to_numpy(zero_copy_only=False)

    new_g = np.ones(n, dtype=bool)
    new_g[1:] = (
        (fields[1:] != fields[:-1]) | (terms[1:] != terms[:-1]) | (shards[1:] != shards[:-1])
    )
    g_starts = np.nonzero(new_g)[0]
    g_offsets = np.concatenate([g_starts, [n]]).astype(np.int64)

    doc_ids, tfs, row_offs = decode_postings(t)
    g_val_offs = row_offs[g_offsets]

    # a field records positions in all of its rows or in none
    take_starts = pa.array(g_starts)
    pos_col = t["positions"].combine_chunks()
    pos_big, pos_rel = _binary_parts(pos_col)
    pos_arr = _binary_from_offsets(pos_big.tobytes(), pos_rel[g_offsets])
    if pos_col.null_count:
        pos_arr = pa.compute.if_else(
            pos_col.is_valid().take(take_starts), pos_arr, pa.nulls(g_starts.size, pa.large_binary())
        )
    return encode_postings(
        t["field"].take(take_starts),
        t["term"].take(take_starts),
        shards[g_starts].astype(np.int32),
        doc_ids,
        tfs,
        g_val_offs,
        pos_arr,
    )


def apply_tombstones_to_postings(batch: pa.Table, tombs: np.ndarray) -> pa.Table:
    """Vectorized tombstone application for one postings batch.

    Reference semantics (`handle.rs:184-210`): deleted docs drop out of
    every posting row; df and the row's doc range recompute. Rows whose
    [first_doc, last_doc] range does not intersect the (sorted)
    tombstone set pass through UNTOUCHED — the common case at scale,
    where deletes hit a tiny doc-id range. Touched rows go decode →
    mask → encode: one `decode_postings`, the tombstoned postings
    dropped, one `encode_postings`.
    """
    n = batch.num_rows
    if n == 0 or tombs.size == 0:
        return batch
    batch = batch.combine_chunks()

    # ---- range pre-filter: which rows CAN contain a tombstone? ----
    first = batch["first_doc"].to_numpy(zero_copy_only=False).astype(np.uint64)
    row_last = batch["last_doc"].to_numpy(zero_copy_only=False).astype(np.uint64)
    pos_t = np.searchsorted(tombs, first)
    hit = (pos_t < tombs.size) & (
        tombs[np.minimum(pos_t, tombs.size - 1)] <= row_last
    )
    if not hit.any():
        return batch
    clean = batch.filter(pa.array(~hit))
    sub = batch.filter(pa.array(hit)).combine_chunks()

    doc_ids, tfs, row_offs = decode_postings(sub)
    keep = ~np.isin(doc_ids, tombs)
    if keep.all():  # range overlapped but no actual doc matched
        return batch
    kept_per_row = np.add.reduceat(keep, row_offs[:-1]).astype(np.int64)
    row_sel = np.nonzero(kept_per_row > 0)[0]
    if row_sel.size == 0:
        return clean
    new_offs = np.zeros(row_sel.size + 1, np.int64)
    np.cumsum(kept_per_row[row_sel], out=new_offs[1:])

    # ---- positions: per-doc gap spans survive doc drops unchanged ----
    pos_col = sub["positions"].combine_chunks()
    has_pos_row = ~pos_col.is_null().to_numpy(zero_copy_only=False)
    pos_counts = np.where(np.repeat(has_pos_row, np.diff(row_offs)), tfs.astype(np.int64), 0)
    pos_offs = np.zeros(pos_counts.size + 1, np.int64)
    np.cumsum(pos_counts, out=pos_offs[1:])
    kidx = np.nonzero(keep)[0]
    kept_pos_gaps = codecs.take_ranges(
        codecs.varint_decode(_binary_parts(pos_col)[0]), pos_offs[:-1][kidx], pos_counts[kidx]
    )
    new_pos_offs = np.zeros(row_sel.size + 1, np.int64)
    np.cumsum(np.add.reduceat(pos_counts * keep, row_offs[:-1])[row_sel], out=new_pos_offs[1:])
    pos_arr = _binary_from_offsets(
        *codecs.segmented_varint_encode(kept_pos_gaps, new_pos_offs)
    )
    if not has_pos_row.all():
        pos_arr = pa.compute.if_else(
            pa.array(has_pos_row[row_sel]), pos_arr,
            pa.nulls(row_sel.size, type=pa.large_binary()),
        )

    take = pa.array(row_sel)
    rebuilt = encode_postings(
        sub["field"].take(take),
        sub["term"].take(take),
        sub["shard"].take(take),
        doc_ids[keep],
        tfs[keep],
        new_offs,
        pos_arr,
    )
    rebuilt = rebuilt.select(batch.column_names).cast(batch.schema)
    return pa.concat_tables([clean, rebuilt])


def _segment_content_sig(seg_dir: str, name: str) -> str:
    """Content identity of one source segment's postings: file names +
    sizes + mtimes. Shared by merge-checkpoint keying and gc's
    resumability check — the two must agree exactly."""
    files = _resolve(os.path.join(seg_dir, name, POSTINGS_FILE))
    st = [(os.path.basename(f), os.path.getsize(f),
           os.stat(f).st_mtime_ns) for f in files]
    return f"{name}:{st}"


def merge_segments(
    index_root: str,
    seg_names: list[str] | None = None,
    *,
    hot_df_threshold: int = 100_000,
    shard_span: int = 1_000_000,
    apply_deletes: bool = True,
    n_parts: int = 64,
) -> dict:
    """Merge the named segments (default: all) into one; publish manifest.

    The publish rebases onto the LATEST manifest (its segments minus the
    sources), so commits made while the merge ran survive it; if a
    source has left the manifest meanwhile, it raises and publishes nothing.
    When the deletes leave no source doc, the sources leave the manifest
    and no segment takes their place.

    Resumable (north_rule): the merge identity is content-keyed
    (source set + tombstone state), every shuffle partition's merged
    postings write idempotently into a per-merge checkpoint dir, and a
    rerun after a crash reuses finished partitions (reported in the
    merged segment's ``metrics.parts_resumed``). Checkpoints are
    hard-linked into the final segment (no copy) and reclaimed by
    `gc_segments`."""
    import hashlib

    import ray.data

    manifest = load_manifest(index_root)
    assert manifest is not None, "no manifest at index root"
    segs = {s["name"]: s for s in manifest["segments"]}
    names = seg_names or list(segs)
    sources = [segs[n] for n in names]

    tombs = load_tombstones(index_root, manifest) if apply_deletes else np.empty(0, np.uint64)
    # a merge of every segment applies every delete file it read, and
    # doc ids are never reissued (the merged max_doc_id is the sources';
    # with no doc left, the manifest keeps it),
    # so the rebase unlists those files; files committed after this read
    # stay listed. The files stay on disk until a reader-safe gc.
    applied = (
        set(manifest.get("tombstones", []))
        if apply_deletes and set(names) == set(segs)
        else set()
    )

    seg_dir = os.path.join(index_root, SEGMENTS_DIR)

    # checkpoint identity must cover everything the partition contents
    # depend on: source CONTENT (names alone survive an overwrite
    # rebuild with the same doc layout — size+mtime invalidate that),
    # the shuffle/salting parameters, the on-disk format, and the
    # tombstone state. A false invalidation only costs a recompute;
    # a false HIT would resurrect another corpus's postings.
    from toshi_ray.pipelines.build import FORMAT_VERSION

    def _content_sig(name: str) -> str:
        return _segment_content_sig(seg_dir, name)

    merge_key = hashlib.sha1(
        "|".join(
            ["|".join(_content_sig(n) for n in sorted(names)),
             f"parts={n_parts}", f"span={shard_span}", f"hot={hot_df_threshold}",
             f"fmt={FORMAT_VERSION}",
             hashlib.sha1(tombs.tobytes()).hexdigest()]
        ).encode()
    ).hexdigest()[:12]
    post_paths = [f for n in names for f in _resolve(os.path.join(seg_dir, n, POSTINGS_FILE))]
    ds = ray.data.read_parquet(post_paths)

    # ---- hot-term detection: map-side, no shuffle ----
    from toshi_ray.ops._gather import gather_table

    hot_tbl = gather_table(
        ds.map_batches(
            lambda t: t.filter(
                pa.compute.greater(t["df"], hot_df_threshold)
            ).select(["field", "term"]),
            batch_format="pyarrow",
        )
    )
    # hot set as a joined field\x00term key array → vectorized is_in in
    # the tag stage (tokens can't contain \x00; fields are identifiers)
    if hot_tbl is None:
        hot_keys = pa.array([], type=pa.string())
    else:
        joined = pa.compute.binary_join_element_wise(
            hot_tbl["field"].combine_chunks().cast(pa.string()),
            hot_tbl["term"].combine_chunks().cast(pa.string()),
            "\x00",
        )
        hot_keys = pa.array(
            np.unique(joined.to_numpy(zero_copy_only=False)), type=pa.string()
        )

    # coarse shuffle partitions; each merges vectorized. 64 suits one
    # node; size ~2-4x the cluster's cores for a big merge so one
    # partition's postings fit a task heap while all cores stay busy.

    def tag(batch: pa.Table) -> pa.Table:
        from toshi_ray.ops.dedup import _hash_strings, _mix

        if tombs.size:
            batch = apply_tombstones_to_postings(batch, tombs)
        key = pa.compute.binary_join_element_wise(
            batch["field"].combine_chunks().cast(pa.string()),
            batch["term"].combine_chunks().cast(pa.string()),
            "\x00",
        )
        is_hot = pa.compute.is_in(key, value_set=hot_keys).to_numpy(
            zero_copy_only=False
        )
        fd = batch["first_doc"].to_numpy(zero_copy_only=False)
        shard_out = np.where(is_hot, (fd // shard_span).astype(np.int64), 0)
        batch = batch.append_column("shard_out", pa.array(shard_out, type=pa.int64()))
        th = _hash_strings(batch["term"].combine_chunks().cast(pa.large_binary()))
        part = (_mix(th ^ shard_out.astype(np.uint64)) % np.uint64(n_parts)).astype(np.int64)
        return batch.append_column("part", pa.array(part))

    # NOTE: no global sort after the partition merge — each partition's
    # output is already (field, term, shard)-sorted internally, so
    # parquet row-group stats prune term lookups per file, and a
    # reader's term dictionary orders each term's shard rows by
    # first_doc (shards partition disjoint doc ranges), whichever part
    # file holds them. A trailing .sort() here would be a second
    # all-to-all over the full merged postings for nothing.
    t0 = time.perf_counter()
    ckpt = os.path.join(index_root, ".merge-ckpt", merge_key)
    os.makedirs(ckpt, exist_ok=True)
    # record the checkpoint's source identity so gc can keep it exactly
    # as long as a retried merge of these segments could resume from it
    # (see gc_segments) — age alone must not discard resumability
    src_meta = os.path.join(ckpt, "sources.json")
    if not os.path.exists(src_meta):
        with open(src_meta + ".tmp", "w") as f:
            json.dump({"names": sorted(names),
                       "sigs": [_content_sig(n) for n in sorted(names)]}, f)
        get_storage().publish_file(src_meta + ".tmp", src_meta)

    def merge_and_write(t: pa.Table) -> pa.Table:
        """One shuffle partition → one idempotent checkpoint file."""
        if t.num_rows == 0:  # e.g. tombstones deleted every doc
            return pa.table({"part": pa.array([], pa.int64()),
                             "resumed": pa.array([], pa.bool_())})
        part = int(t["part"][0].as_py())
        out_path = os.path.join(ckpt, f"part-{part:05d}.parquet")
        if os.path.exists(out_path):  # per-partition checkpoint hit
            return pa.table({"part": [part], "resumed": [True]})
        merged = _merge_partition(t)
        tmp_path = f"{out_path}.tmp-{uuid.uuid4().hex[:8]}"
        pq.write_table(merged, tmp_path)
        get_storage().publish_file(tmp_path, out_path)
        return pa.table({"part": [part], "resumed": [False]})

    part_rows = (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("part")
        .map_groups(merge_and_write, batch_format="pyarrow")
        .take_all()
    )
    n_resumed = sum(1 for r in part_rows if r["resumed"])

    new_name = f"seg-merged-{merge_key}"
    final = os.path.join(seg_dir, new_name)
    tmp = os.path.join(seg_dir, f".tmp-{new_name}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(os.path.join(tmp, "postings"), exist_ok=True)
    for f in sorted(os.listdir(ckpt)):  # link checkpoints in: no copy
        if f.endswith(".parquet"):
            get_storage().link_or_copy(
                os.path.join(ckpt, f), os.path.join(tmp, "postings", f)
            )

    def rebase(latest: dict, meta: dict | None) -> dict:
        """Swap the sources for the merged segment (none when ``meta`` is
        None: every source doc was deleted) in the latest manifest."""
        gone = set(names) - {s["name"] for s in latest["segments"]}
        if gone:
            shutil.rmtree(tmp, ignore_errors=True)
            raise RuntimeError(f"merge sources left the manifest meanwhile: {sorted(gone)}")
        # publish the dir under the lock, or a gc in between would delete it;
        # False = an identical merge (same content key) already published
        merged = [] if meta is None else [meta]
        if merged and not get_storage().publish_dir(tmp, final, META_FILE):
            with open(os.path.join(final, META_FILE)) as f:
                merged = [json.load(f)]
        latest["segments"] = [s for s in latest["segments"] if s["name"] not in names] + merged
        if not merged:  # keep the sources' high-water mark: ids are never reissued
            latest["max_doc_id"] = max(latest.get("max_doc_id", -1),
                                       *(s["max_doc_id"] for s in sources))
        latest["garbage"] = latest.get("garbage", []) + names
        if applied:
            latest["tombstones"] = [f for f in latest.get("tombstones", []) if f not in applied]
        return latest

    # ---- docvalues + store: ORDERED concat of disjoint doc ranges ----
    # source segments cover disjoint doc-id intervals. Without
    # tombstones the side files need NO transform at all — hard-link
    # them into the merged segment with order-preserving name prefixes
    # (readers discover directory files lexicographically), skipping a
    # full decode/encode of the store (the largest payload in the
    # segment). With tombstones, stream-filter with preserve_order.
    ordered = sorted(names, key=lambda n: segs[n]["min_doc_id"])
    if tombs.size == 0:
        for fname in (DOCVALUES_FILE, STORE_FILE):
            dst = os.path.join(tmp, fname.replace(".parquet", ""))
            os.makedirs(dst, exist_ok=True)
            for i, n in enumerate(ordered):
                for j, sp in enumerate(_resolve(os.path.join(seg_dir, n, fname))):
                    dp = os.path.join(dst, f"{i:05d}-{j:04d}.parquet")
                    get_storage().link_or_copy(sp, dp)
    else:
        ctx = ray.data.DataContext.get_current()
        prev_preserve = ctx.execution_options.preserve_order
        ctx.execution_options.preserve_order = True
        try:
            for fname in (DOCVALUES_FILE, STORE_FILE):
                paths = [f for n in ordered for f in _resolve(os.path.join(seg_dir, n, fname))]
                side = ray.data.read_parquet(paths)
                tomb_sorted = tombs

                def drop(t: pa.Table) -> pa.Table:
                    ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
                    return t.filter(pa.array(~np.isin(ids, tomb_sorted)))

                side = side.map_batches(drop, batch_format="pyarrow")
                # the store keeps the fresh-segment block layout, so a
                # winner fetch decodes STORE_BLOCK_ROWS rows, not a Ray block
                layout = (
                    {"row_group_size": STORE_BLOCK_ROWS, "compression": STORE_COMPRESSION}
                    if fname == STORE_FILE
                    else {}
                )
                side.write_parquet(os.path.join(tmp, fname.replace(".parquet", "")), **layout)
        finally:
            ctx.execution_options.preserve_order = prev_preserve

    # num_docs / min / max come from parquet FOOTER metadata (row counts
    # + row-group statistics) — never a data-page read: at 10^9 docs the
    # doc_id column alone would be ~8 GB of driver RAM
    n_docs = 0
    # zone maps for EVERY integer fast-field column (doc_id + numerics)
    # from the same footer pass; a column with any stats-less row group
    # is dropped (bounds must never be narrower than the data)
    zone: dict[str, list[int]] = {}
    zone_bad: set[str] = set()
    # non-null value counts per column (the zone map's third element,
    # needed by the sort-by floor); a row group without a null_count
    # statistic poisons the column's count but keeps its [min, max]
    zone_valid: dict[str, int] = {}
    count_bad: set[str] = set()
    dv_dir = os.path.join(tmp, "docvalues")
    # Ray writes no directory for an empty dataset
    for fn in os.listdir(dv_dir) if os.path.isdir(dv_dir) else []:
        if not fn.endswith(".parquet"):
            continue
        md = pq.ParquetFile(os.path.join(dv_dir, fn)).metadata
        n_docs += md.num_rows
        col_names = [md.schema.column(i).name for i in range(md.num_columns)]
        for ci, name in enumerate(col_names):
            if name.startswith("norm_") or name.startswith("facet_"):
                continue
            for rg in range(md.num_row_groups):
                if not md.row_group(rg).num_rows:
                    continue
                st = md.row_group(rg).column(ci).statistics
                ok = (st is not None and isinstance(st.min, int)
                      and not isinstance(st.min, bool))
                if not ok:
                    zone_bad.add(name)
                    continue
                lo, hi = zone.get(name, (st.min, st.max))[:2]
                zone[name] = [min(lo, st.min), max(hi, st.max)]
                if st.has_null_count:
                    zone_valid[name] = zone_valid.get(name, 0) + (
                        md.row_group(rg).num_rows - st.null_count
                    )
                else:
                    count_bad.add(name)
    for name, z in zone.items():
        if name not in count_bad and name in zone_valid:
            z.append(int(zone_valid[name]))
    for name in zone_bad:
        zone.pop(name, None)
    if not n_docs:  # every source doc was deleted: publish no segment
        shutil.rmtree(tmp, ignore_errors=True)
        return commit(index_root, lambda latest: rebase(latest, None))
    stats_missing = "doc_id" in zone_bad
    id_min, id_max = zone.get("doc_id", (None, None))[:2]
    if stats_missing or id_min is None:
        # a writer without column statistics must not silently produce
        # min/max = 0 — doc-id allocation (_append_docs) and merge
        # ordering key off these; fall back to reading the column
        dv = pq.read_table(dv_dir, columns=["doc_id"])
        ids = dv["doc_id"].to_numpy(zero_copy_only=False)
        id_min, id_max = int(ids.min()), int(ids.max())
        zone["doc_id"] = [id_min, id_max, int(ids.size)]
    field_stats: dict[str, dict] = {}
    for s in sources:
        for f, st in s.get("field_stats", {}).items():
            field_stats.setdefault(f, {"total_tokens": 0})
            field_stats[f]["total_tokens"] += st["total_tokens"]
    # NOTE: token totals of deleted docs stay counted until their segment
    # fully merges away — same drift tantivy accepts between merges.
    # term bloom (toshi_ray.termbloom): rebuilt over the merged term
    # dictionary — a column-pruned read of (field, term) only, never the
    # posting payloads, so the cost is vocab-proportional (the dict is a
    # small fraction of the postings file; payload columns stay on disk).
    from toshi_ray import termbloom

    bloom = termbloom.build_term_blooms(
        pq.read_table(os.path.join(tmp, "postings"), columns=["field", "term"])
    )
    if bloom is not None:
        payload, bloom_meta = bloom
        with open(os.path.join(tmp, termbloom.TERMBLOOM_FILE), "wb") as f:
            f.write(payload)
    else:
        bloom_meta = None
    meta = {
        "name": new_name,
        "num_docs": int(n_docs),
        "min_doc_id": int(id_min) if id_min is not None else 0,
        # the sources' max: appends must never reissue a deleted doc's id
        "max_doc_id": max(s["max_doc_id"] for s in sources),
        "field_stats": field_stats,
        "fastfield_stats": zone,
        **({"term_bloom": bloom_meta} if bloom_meta is not None else {}),
        "merged_from": names,  # lineage
        "metrics": {
            "merge_secs": round(time.perf_counter() - t0, 3),
            "parts": len(part_rows),
            "parts_resumed": n_resumed,
        },
    }
    with open(os.path.join(tmp, META_FILE), "w") as f:
        json.dump(meta, f)

    return commit(index_root, lambda latest: rebase(latest, meta))


def maybe_merge(index_root: str, **kw) -> list[dict]:
    """Run the log policy over the manifest; merge every candidate bucket."""
    out = []
    manifest = load_manifest(index_root)
    for bucket in log_merge_candidates(manifest["segments"]):
        out.append(merge_segments(index_root, bucket, **kw))
    return out


def gc_segments(index_root: str, *, checkpoint_grace_s: float = 3600.0) -> int:
    """Delete segment dirs no longer referenced by the manifest, plus
    merge checkpoints that can no longer be resumed from.

    Checkpoint retention is decided by SOURCE LIVENESS, not age: each
    checkpoint records its source segments' content signatures
    (`sources.json`); as long as every source is still live with
    unchanged content, a crashed merge retried later — even days later
    — resumes from the per-partition files, so the checkpoint is KEPT.
    Once any source segment is gone or rewritten (e.g. the merge
    published and its inputs were gc'ed) no future merge can produce
    the same key, and the checkpoint is reclaimed immediately.
    ``checkpoint_grace_s`` only governs legacy checkpoints without a
    `sources.json` (pre-upgrade), where age is the only signal.

    In-flight protection: `.tmp-*` assembly dirs are never touched."""
    seg_dir = os.path.join(index_root, SEGMENTS_DIR)
    removed = []

    # the sweep runs inside the commit: no segment can be published
    # between reading the live set and deleting what it leaves out
    def sweep(manifest: dict) -> dict:
        live = {s["name"] for s in manifest["segments"]}
        for name in list(os.listdir(seg_dir)):
            if name not in live and not name.startswith(".tmp"):
                shutil.rmtree(os.path.join(seg_dir, name), ignore_errors=True)
                removed.append(name)
        ckpt_root = os.path.join(index_root, ".merge-ckpt")
        if os.path.isdir(ckpt_root):
            now = time.time()
            for key in list(os.listdir(ckpt_root)):
                d = os.path.join(ckpt_root, key)
                src_meta = os.path.join(d, "sources.json")
                if os.path.exists(src_meta):
                    try:
                        with open(src_meta) as f:
                            src = json.load(f)
                        resumable = all(nm in live for nm in src["names"]) and [
                            _segment_content_sig(seg_dir, nm) for nm in src["names"]
                        ] == src["sigs"]
                    except (OSError, ValueError, KeyError):
                        resumable = False
                    if not resumable:
                        shutil.rmtree(d, ignore_errors=True)
                    continue
                # legacy checkpoint without source metadata: age heuristic,
                # floored at 10 minutes — a merge that JUST created its dir
                # (window between makedirs and the sources.json rename) must
                # not be reaped by an aggressive checkpoint_grace_s=0 sweep
                try:
                    newest = max(
                        (os.path.getmtime(os.path.join(d, f)) for f in os.listdir(d)),
                        default=os.path.getmtime(d),
                    )
                except OSError:
                    continue
                if now - newest > max(checkpoint_grace_s, 600.0):
                    shutil.rmtree(d, ignore_errors=True)
        manifest["garbage"] = []
        return manifest

    commit(index_root, sweep)
    return len(removed)


# ---------------------------------------------------------------------------
# Delete-by-term (reference `handle.rs:184-210`): tombstones now, physical
# removal at merge. Readers subtract tombstones at query time.
# ---------------------------------------------------------------------------

def delete_by_term(index_root: str, field: str, term: str,
                   *, distributed: bool | None = None) -> int:
    """Tombstone every doc containing ``term``; returns docs_affected
    (counted before/after like the reference).

    Match evaluation goes through the regular Searcher, so on a big
    index it runs on the distributed scorer-actor pool; tiny indexes
    (≤ 8 segments) evaluate in-process to skip actor spin-up."""
    from toshi_ray.search import Searcher

    if distributed is None:
        import ray

        distributed = ray.is_initialized() and len(load_manifest(index_root)["segments"]) > 8
    s = Searcher(index_root, distributed=distributed)
    # match_doc_ids already subtracts existing tombstones → every id
    # returned is newly affected
    new = np.asarray(
        s.match_doc_ids({"query": {"term": {field: term}}}), dtype=np.uint64
    )
    s.close()
    if new.size:
        commit_tombstones(index_root, new)
    return int(new.size)


def commit_tombstones(index_root: str, doc_ids: np.ndarray) -> dict:
    """Write one delete file and commit it into the manifest's
    ``tombstones`` list: readers see the delete at the next version."""
    name = f"del-{uuid.uuid4().hex[:8]}.parquet"
    os.makedirs(os.path.join(index_root, TOMBSTONES_DIR), exist_ok=True)
    pq.write_table(pa.table({"doc_id": pa.array(doc_ids, type=pa.uint64())}),
                   os.path.join(index_root, TOMBSTONES_DIR, name))
    return commit(index_root, lambda m: {**m, "tombstones": m.get("tombstones", []) + [name]})


def _resolve(path: str) -> list[str]:
    """The files of one segment file: a single parquet file (fresh
    build) or the sorted part files of a directory (merged segment).
    Always files: Ray's read_parquet rejects a list mixing the two."""
    if os.path.exists(path):
        return [path]
    alt = path.replace(".parquet", "")
    if os.path.isdir(alt):
        return sorted(os.path.join(alt, f) for f in os.listdir(alt))
    raise FileNotFoundError(path)
