"""Segment merge — the term-keyed shuffle with hot-term salting.

This is the consolidation analogue of tantivy's LogMergePolicy as
configured by the reference (`min_merge_size=8`, `min_layer_size=10_000`,
`level_log_size=0.75` — `toshi-server/src/settings.rs:47-49,190-201`,
SURVEY.md §2.6 A3), re-expressed as a Ray Data job:

    hot set ← pq.read_table(postings, df > hot)       # driver; footer stats
                                                      #   skip cold groups
    read_parquet_sized([seg_i/postings])              # one row per (term, shard);
                                                      #   blocks sized from the
                                                      #   footers and the CPUs
      → map_batches(tag hot terms with doc-range salt)  # skew handling
      → groupby(hash(field,term,shard) % 64)          # the all-to-all shuffle
          .map_groups(vectorized partition merge)     # ONE decode_postings,
                                                      #   tombstones dropped,
                                                      #   + encode_postings
                                                      #   per partition
      → one checkpoint file per partition             # merged term dictionary

The shuffle key is a COARSE partition of the term hash (not one Ray
group per term — per-group Python overhead would dominate at millions
of terms); all (field, term, shard) groups inside a partition merge in
a single numpy pass (`_merge_partition`). The shuffle's cost follows
its input block count, so the postings read asks for as many blocks as
the cluster has CPUs or the bytes need (`ops._read.read_parquet_sized`),
not Ray's file-count default.

Salting (SURVEY.md §7.3/§7.4): a term whose df in ANY source segment
exceeds ``hot_df_threshold`` keeps per-doc-range shards
(``shard = first_doc // shard_span``) instead of collapsing into one
giant group — groups stay bounded, postings stay doc_id-sorted because
shards partition disjoint doc ranges, and readers already concatenate
multi-shard terms in shard order. Hot detection is one driver read of
the (field, term) columns filtered on df: parquet row-group statistics
on df skip every group without a hot term, and at web scale the hot set
is small by definition.

Doc-partitioned side files (docvalues / store) merge by concatenating
the sources' part files — doc ranges of input segments must be
disjoint, and `merge_segments` refuses sources whose ranges overlap. A
source's docvalues part and its paired store part are hard-linked
unless the docvalues footer's doc-id range holds a tombstone; only such
a pair is read on the driver (one pair at a time): the docvalues part is
filtered and rewritten, the store part re-framed with the same rows.
The merged directory is then finished like a built one
(`segments.finish_segment`: zone maps, term bloom, meta.json).

Tombstones (delete-by-term, reference `handle.rs:184-210`, SURVEY.md
§2.2 T5) are applied physically here: tombstoned doc_ids drop out of
postings inside the partition merge, the one place a merge rewrites
them (so df and each row's first doc id are recomputed, and a group
left with no posting goes), and out of docvalues and store. Salting
and hot-term detection read the sources as they are, deleted docs
included. A merge of every segment then unlists the delete files it
applied.
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
    STORE_FILE,
    _binary_from_offsets,
    _binary_parts,
    _footer_zone,
    decode_postings,
    empty_postings,
    encode_postings,
    filter_store_part,
    finish_segment,
    segment_parts,
)
from toshi_ray.storage import get_storage

# merge checkpoints: one dir per merge key under the index root, holding
# its source identity (CKPT_SOURCES) and one postings file per partition
CKPT_DIR = ".merge-ckpt"
CKPT_SOURCES = "sources.json"

# reference defaults (config/config.toml:14-17)
MIN_MERGE_SIZE = 8
MIN_LAYER_SIZE = 10_000
LEVEL_LOG_SIZE = 0.75

# coarse shuffle partitions; each merges vectorized. 64 suits one node;
# size ~2-4x the cluster's cores for a big merge so one partition's
# postings fit a task heap while all cores stay busy.
N_PARTS = 64


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


def _merge_partition(t: pa.Table, tombs: np.ndarray) -> pa.Table:
    """Vectorized merge of ALL posting rows in one coarse partition,
    minus the tombstoned docs.

    The rows of one (field, term, shard_out) group concatenate in
    first_doc order (sources cover disjoint doc ranges): one
    `decode_postings` of every row, one `np.isin` against ``tombs``, one
    `encode_postings` of every group left with a posting — no per-term
    Python loop. Position streams restart per doc, so a group's
    positions are the byte concatenation of its rows', never re-encoded:
    a deleted doc's positions are one run of its tf varints, cut out.
    """
    t = t.sort_by(
        [("field", "ascending"), ("term", "ascending"),
         ("shard_out", "ascending"), ("first_doc", "ascending")]
    ).combine_chunks()
    n = t.num_rows
    if n == 0:
        return empty_postings()
    doc_ids, tfs, row_offs = decode_postings(t)
    # a field records positions in all of its rows or in none
    pos_col = t["positions"].combine_chunks()
    pos_big, pos_rel = _binary_parts(pos_col)

    keep = ~np.isin(doc_ids, tombs)
    if not keep.all():
        n_pos = np.where(np.repeat(pos_col.is_valid().to_numpy(zero_copy_only=False),
                                   np.diff(row_offs)), tfs.astype(np.int64), 0)
        # each posting's byte end: a varint ends at a byte below 0x80
        pos_end = np.append(0, np.flatnonzero(pos_big < 0x80) + 1)[np.cumsum(n_pos)]
        pos_len = np.diff(pos_end, prepend=0)
        pos_big = pos_big[np.repeat(keep, pos_len)]
        pos_rel = np.append(0, np.cumsum(pos_len * keep))[row_offs]
        row_offs = np.append(0, np.cumsum(keep))[row_offs]
        doc_ids, tfs = doc_ids[keep], tfs[keep]

    fields = t["field"].to_numpy(zero_copy_only=False)
    terms = t["term"].to_numpy(zero_copy_only=False)
    shards = t["shard_out"].to_numpy(zero_copy_only=False)
    new_g = np.ones(n, dtype=bool)
    new_g[1:] = (
        (fields[1:] != fields[:-1]) | (terms[1:] != terms[:-1]) | (shards[1:] != shards[:-1])
    )
    g_starts = np.nonzero(new_g)[0]
    # a group whose every doc was deleted goes: its rows hold no posting
    # and no position byte, so the next group may start at them
    g_starts = g_starts[np.diff(row_offs[np.append(g_starts, n)]) > 0]
    g_offsets = np.append(g_starts, n)

    take_starts = pa.array(g_starts)
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
        row_offs[g_offsets],
        pos_arr,
    )


def _segment_content_sig(seg_dir: str, name: str) -> str:
    """Content identity of one source segment's postings: file names +
    sizes + mtimes. Shared by merge-checkpoint keying and gc's
    resumability check — the two must agree exactly."""
    files = segment_parts(os.path.join(seg_dir, name), POSTINGS_FILE)
    st = [(os.path.basename(f), os.path.getsize(f),
           os.stat(f).st_mtime_ns) for f in files]
    return f"{name}:{st}"


def _holds_tombstone(path: str, tombs: np.ndarray) -> bool:
    """True unless the part's footer doc-id range proves it holds no
    tombstoned doc (a footer without that range counts as holding one)."""
    if not tombs.size:
        return False
    md = pq.read_metadata(path)
    z = _footer_zone(md, md.schema.names.index("doc_id"))
    return not z or np.searchsorted(tombs, z[0]) < np.searchsorted(tombs, z[1], "right")


def _disjoint_runs(sources: list[dict]) -> list[list[str]]:
    """The names of ``sources`` in [min_doc_id, max_doc_id] order, cut
    into runs whose ranges are pairwise disjoint: a new run starts at a
    segment whose range begins inside the current run's (segments
    without docs cover no range). The merge links docvalues and store
    parts in source order and joins each term's rows by first_doc, so it
    takes one run only: overlapping sources would give an unsorted
    doc_id column, wrong norms and failed fetches."""
    runs: list[list[str]] = [[]]
    end = -1
    for lo, hi, name in sorted((s["min_doc_id"], s["max_doc_id"], s["name"]) for s in sources
                               if s.get("num_docs")):
        if lo <= end:
            runs.append([])
        runs[-1].append(name)
        end = max(end, hi)
    runs[0] += [s["name"] for s in sources if not s.get("num_docs")]
    return runs


def merge_segments(
    index_root: str,
    seg_names: list[str] | None = None,
    *,
    hot_df_threshold: int = 100_000,
    shard_span: int = 1_000_000,
) -> dict:
    """Merge the named segments (default: all) into one; publish manifest.

    The publish rebases onto the LATEST manifest (its segments minus the
    sources), so commits made while the merge ran survive it; if a
    source has left the manifest meanwhile, it raises and publishes nothing.
    When the deletes leave no source doc, the sources leave the manifest
    and no segment takes their place. Sources whose [min_doc_id,
    max_doc_id] ranges overlap raise ValueError before anything is
    written.

    Resumable (north_rule): the merge identity is content-keyed
    (source set + tombstone state), every shuffle partition's merged
    postings write idempotently into a per-merge checkpoint dir, and a
    rerun after a crash reuses finished partitions (reported in the
    merged segment's ``metrics.parts_resumed``). Checkpoints are
    hard-linked into the final segment (no copy) and reclaimed by
    `gc_segments`."""
    import hashlib

    manifest = load_manifest(index_root)
    assert manifest is not None, "no manifest at index root"
    segs = {s["name"]: s for s in manifest["segments"]}
    names = seg_names or list(segs)
    sources = [segs[n] for n in names]
    runs = _disjoint_runs(sources)
    if len(runs) > 1:
        raise ValueError(
            f"cannot merge {names}: doc-id ranges overlap ({runs[1][0]} starts inside"
            f" the range of {runs[0]})")

    tombs = load_tombstones(index_root, manifest)
    # a merge of every segment applies every delete file it read, and
    # doc ids are never reissued (the merged max_doc_id is the sources';
    # with no doc left, the manifest keeps it),
    # so the rebase unlists those files; files committed after this read
    # stay listed. The files stay on disk until a reader-safe gc.
    applied = set(manifest.get("tombstones", [])) if set(names) == set(segs) else set()

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
             f"parts={N_PARTS}", f"span={shard_span}", f"hot={hot_df_threshold}",
             f"fmt={FORMAT_VERSION}",
             hashlib.sha1(tombs.tobytes()).hexdigest()]
        ).encode()
    ).hexdigest()[:12]
    post_paths = [f for n in names for f in segment_parts(os.path.join(seg_dir, n), POSTINGS_FILE)]
    # imported at call time: tests hook the read to run a commit mid-merge
    from toshi_ray.ops._read import read_parquet_sized

    ds, n_blocks = read_parquet_sized(post_paths)

    # ---- hot-term detection: one driver read, no Ray pass ----
    # row-group statistics on df skip every group without a hot term
    hot_tbl = pq.read_table(
        post_paths, columns=["field", "term"], filters=[("df", ">", hot_df_threshold)]
    )
    # hot set as a joined field\x00term key array → vectorized is_in in
    # the tag stage (tokens can't contain \x00; fields are identifiers)
    joined = pa.compute.binary_join_element_wise(
        hot_tbl["field"].combine_chunks().cast(pa.string()),
        hot_tbl["term"].combine_chunks().cast(pa.string()),
        "\x00",
    )
    hot_keys = pa.array(np.unique(joined.to_numpy(zero_copy_only=False)), type=pa.string())

    def tag(batch: pa.Table) -> pa.Table:
        from toshi_ray.codecs import _hash_strings, _mix

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
        part = (_mix(th ^ shard_out.astype(np.uint64)) % np.uint64(N_PARTS)).astype(np.int64)
        return batch.append_column("part", pa.array(part))

    # NOTE: no global sort after the partition merge — each partition's
    # output is already (field, term, shard)-sorted internally, so
    # parquet row-group stats prune term lookups per file, and a
    # reader's term dictionary orders each term's shard rows by
    # first_doc (shards partition disjoint doc ranges), whichever part
    # file holds them. A trailing .sort() here would be a second
    # all-to-all over the full merged postings for nothing.
    t0 = time.perf_counter()
    ckpt = os.path.join(index_root, CKPT_DIR, merge_key)
    # the checkpoint dir appears with its source identity inside, so gc
    # keeps it exactly as long as a retried merge of these segments
    # could resume from it (see gc_segments)
    if not os.path.exists(os.path.join(ckpt, CKPT_SOURCES)):
        stage = os.path.join(index_root, CKPT_DIR, f".tmp-{merge_key}-{uuid.uuid4().hex[:8]}")
        os.makedirs(stage)
        with open(os.path.join(stage, CKPT_SOURCES), "w") as f:
            json.dump({"names": sorted(names),
                       "sigs": [_content_sig(n) for n in sorted(names)]}, f)
        get_storage().publish_dir(stage, ckpt, CKPT_SOURCES)

    def merge_and_write(t: pa.Table) -> pa.Table:
        """One shuffle partition → one idempotent checkpoint file."""
        # a zero-row block names no partition; every partition writes
        # its part file, empty when its every doc was deleted
        if t.num_rows == 0:
            return pa.table({"part": pa.array([], pa.int64()),
                             "resumed": pa.array([], pa.bool_())})
        part = int(t["part"][0].as_py())
        out_path = os.path.join(ckpt, f"part-{part:05d}.parquet")
        if os.path.exists(out_path):  # per-partition checkpoint hit
            return pa.table({"part": [part], "resumed": [True]})
        merged = _merge_partition(t, tombs)
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
    # source segments cover disjoint doc-id intervals, so each source
    # part keeps its order-preserving name (readers list part files
    # lexicographically). Docvalues part j and store part j of a source
    # hold the same docs, so one decision per pair, from the docvalues
    # part's footer, keeps them in step: a pair whose doc-id range holds
    # no tombstone is hard-linked, with no decode/encode of the store
    # (the largest payload in the segment); otherwise the docvalues part
    # is read on the driver and filtered by its own doc_id column, and
    # the store part re-framed with the same rows, or both are skipped
    # when no row is left.
    ordered = sorted(names, key=lambda n: segs[n]["min_doc_id"])
    dv_dir, store_dir = (os.path.join(tmp, os.path.splitext(f)[0])
                         for f in (DOCVALUES_FILE, STORE_FILE))
    os.makedirs(dv_dir)
    os.makedirs(store_dir)
    store_suffix = os.path.splitext(STORE_FILE)[1]
    for i, n in enumerate(ordered):
        src = os.path.join(seg_dir, n)
        pairs = zip(segment_parts(src, DOCVALUES_FILE), segment_parts(src, STORE_FILE), strict=True)
        for j, (dv_src, store_src) in enumerate(pairs):
            dv_dst = os.path.join(dv_dir, f"{i:05d}-{j:04d}.parquet")
            store_dst = os.path.join(store_dir, f"{i:05d}-{j:04d}{store_suffix}")
            if not _holds_tombstone(dv_src, tombs):
                get_storage().link_or_copy(dv_src, dv_dst)
                get_storage().link_or_copy(store_src, store_dst)
                continue
            t = pq.read_table(dv_src)
            keep = ~np.isin(t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64), tombs)
            if keep.any():
                pq.write_table(t.filter(pa.array(keep)), dv_dst)
                filter_store_part(store_src, keep, store_dst)
    if not segment_parts(tmp, DOCVALUES_FILE):  # every source doc was deleted
        shutil.rmtree(tmp, ignore_errors=True)
        return commit(index_root, lambda latest: rebase(latest, None))

    field_stats: dict[str, dict] = {}
    for s in sources:
        for f, st in s.get("field_stats", {}).items():
            field_stats.setdefault(f, {"total_tokens": 0})
            field_stats[f]["total_tokens"] += st["total_tokens"]
    # NOTE: token totals of deleted docs stay counted until their segment
    # fully merges away — same drift tantivy accepts between merges.
    # the bloom needs only the (field, term) columns: the posting
    # payloads stay on disk
    terms = pq.read_table(os.path.join(tmp, "postings"), columns=["field", "term"])
    meta = finish_segment(tmp, {
        "name": new_name,
        # the sources' max: appends must never reissue a deleted doc's id
        "max_doc_id": max(s["max_doc_id"] for s in sources),
        "field_stats": field_stats,
        "merged_from": names,  # lineage
        "metrics": {
            "merge_secs": round(time.perf_counter() - t0, 3),
            "parts": len(part_rows),
            "parts_resumed": n_resumed,
            "shuffle_input_blocks": n_blocks,
        },
    }, terms)
    return commit(index_root, lambda latest: rebase(latest, meta))


def maybe_merge(index_root: str) -> list[dict]:
    """Run the log policy over the manifest; merge every candidate
    bucket. A bucket whose doc-id ranges overlap (a Ray build bundles
    blocks in the order they finish, so its segments can interleave)
    merges as its runs of disjoint ranges, each run of two or more
    segments once: `merge_segments` refuses overlapping sources."""
    out = []
    manifest = load_manifest(index_root)
    segs = {s["name"]: s for s in manifest["segments"]}
    for bucket in log_merge_candidates(manifest["segments"]):
        for run in _disjoint_runs([segs[n] for n in bucket]):
            if len(run) > 1:
                out.append(merge_segments(index_root, run))
    return out


def gc_segments(index_root: str) -> int:
    """Delete segment dirs no longer referenced by the manifest, plus
    merge checkpoints that can no longer be resumed from.

    Checkpoint retention is decided by SOURCE LIVENESS, not age: each
    checkpoint dir is created with its source segments' content
    signatures inside (`sources.json`); as long as every source is still
    live with unchanged content, a crashed merge retried later — even
    days later — resumes from the per-partition files, so the
    checkpoint is KEPT. Once any source segment is gone or rewritten
    (e.g. the merge published and its inputs were gc'ed) no future merge
    can produce the same key, and the checkpoint is reclaimed at once,
    as is a checkpoint dir without `sources.json`.

    In-flight protection: `.tmp-*` dirs (segments and checkpoints still
    being assembled) are never touched."""
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
        ckpt_root = os.path.join(index_root, CKPT_DIR)
        for key in os.listdir(ckpt_root) if os.path.isdir(ckpt_root) else []:
            if key.startswith(".tmp-"):
                continue
            d = os.path.join(ckpt_root, key)
            try:
                with open(os.path.join(d, CKPT_SOURCES)) as f:
                    src = json.load(f)
                resumable = all(nm in live for nm in src["names"]) and [
                    _segment_content_sig(seg_dir, nm) for nm in src["names"]
                ] == src["sigs"]
            except (OSError, ValueError, KeyError):
                resumable = False
            if not resumable:
                shutil.rmtree(d, ignore_errors=True)
        manifest["garbage"] = []
        return manifest

    commit(index_root, sweep)
    return len(removed)


# ---------------------------------------------------------------------------
# Delete-by-term (reference `handle.rs:184-210`): tombstones now, physical
# removal at merge. Readers subtract tombstones at query time.
# ---------------------------------------------------------------------------

def delete_by_term(searcher, field: str, term: str) -> int:
    """Tombstone every doc that contains ``term``; returns docs_affected
    (counted before/after like the reference). The match runs on the
    caller's `Searcher`, refreshed first if a commit landed since its
    snapshot (a stale one would miss new docs and count deleted ones
    again), so it reuses the readers that searcher already holds."""
    if load_manifest(searcher.index_root)["version"] != searcher.manifest["version"]:
        searcher.refresh()
    # match_doc_ids already subtracts existing tombstones → every id
    # returned is newly affected
    new = np.asarray(
        searcher.match_doc_ids({"query": {"term": {field: term}}}), dtype=np.uint64
    )
    if new.size:
        commit_tombstones(searcher.index_root, new)
    return int(new.size)


def commit_tombstones(index_root: str, doc_ids: np.ndarray) -> dict:
    """Write one delete file and commit it into the manifest's
    ``tombstones`` list: readers see the delete at the next version."""
    name = f"del-{uuid.uuid4().hex[:8]}.parquet"
    os.makedirs(os.path.join(index_root, TOMBSTONES_DIR), exist_ok=True)
    pq.write_table(pa.table({"doc_id": pa.array(doc_ids, type=pa.uint64())}),
                   os.path.join(index_root, TOMBSTONES_DIR, name))
    return commit(index_root, lambda m: {**m, "tombstones": m.get("tombstones", []) + [name]})
