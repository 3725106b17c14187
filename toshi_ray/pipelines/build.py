"""Distributed index build — the bulk-ingest pipeline, Ray-Data-first.

The reference's bulk path (`POST /{idx}/_bulk`, SURVEY.md §3.2) is
line-framing → parser pool → single-writer arena → commit. Here the
same logical stages become:

    read_parquet(pages)                      # S1 (framing = streaming executor)
      → map_batches(SegmentBuilder, ...)     # S2+S4: analyze + build a whole
                                             #   mini-segment per batch; each
                                             #   task writes its segment dir
                                             #   atomically and emits meta
      → driver collects tiny metas           # "commit": atomic manifest swap
                                             #   under the index lock (`commit`;
                                             #   handle.rs:29's writer mutex,
                                             #   held for the swap only)

This is a map-only build: NO all-to-all shuffle — each input partition
becomes one immutable segment (doc-range partitioned, like shards of
any document-partitioned search index), so throughput scales linearly
with cores/nodes. The term-keyed shuffle (+ hot-term salting) lives in
the merge/consolidation pass (`toshi_ray.pipelines.merge`), where small
segment runs are combined per (field, term, doc-shard).

Resumability (north_rule): every segment write is atomic + idempotent
(content-keyed dir name); a rerun skips finished segments and the
manifest is only swapped once all partitions report. Lineage +
throughput metrics are recorded in the manifest.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from toshi_ray.schema import Schema
from toshi_ray.segments import build_segment_tables, write_segment
from toshi_ray.storage import get_storage

MANIFEST_FILE = "manifest.json"
SCHEMA_FILE = "schema.json"
SEGMENTS_DIR = "segments"
TOMBSTONES_DIR = "tombstones"

# bump when the segment layout OR the analyzer vocabulary changes
# incompatibly (readers check this; an index built under an older
# analyzer would silently miss terms the new analyzer produces).
# v2 = block-restart doc-id encoding + per-block skip offset tables
# v3 = analyzer full-lowercase parity (U+0130 expands to 'i'+U+0307,
#      matching Rust char::to_lowercase) — same layout as v2, but any
#      pre-v3 index of non-ASCII text disagrees with query-side analysis
# v4 = per-segment fastfield_stats zone maps ([min, max, n_valid] per
#      integer fast field) in segment meta — pre-v4 segments lack them,
#      so a stale cache would silently serve the unpruned read path
# v5 = per-segment per-field term bloom filters (termbloom.bin + meta
#      `term_bloom`) — term/phrase/bool queries and the stats phase
#      skip segments that provably lack every requested term without
#      opening postings; pre-v5 caches lack the side file
# v6 = deletes are committed: the manifest's `tombstones` list names the
#      live delete files under tombstones/ — a v5 reader would ignore
#      the list and serve deleted docs
# v7 = postings drop the per-block score bounds (block_max_tf,
#      block_min_norm): every top-k is exhaustive, so only the skip
#      tables the conjunction path reads stay
# v8 = postings drop the per-block skip tables (block_doc_offsets,
#      block_tf_offsets, block_last_doc) and total_tf / max_tf: doc-id
#      deltas restart per list, not per 128-doc block, and one last_doc
#      column per row serves the merge's tombstone range pre-filter
# v9 = the doc store is store.frames (16-doc zstd frames of JSON docs
#      plus a footer), not store.parquet: a v8 reader finds no store
# v10 = postings drop last_doc: the merge drops tombstoned docs inside
#      its one partition merge, so no range pre-filter reads it; a
#      postings row is 8 columns
FORMAT_VERSION = 10


class SegmentBuilder:
    """The map_batches stage: one call = one batch = one segment.

    The schema is parsed once, in `__init__` on the driver; per-batch
    work is the vectorized posting build in `toshi_ray.segments`.
    """

    def __init__(self, schema_json: list, segments_dir: str, doc_id_col: str):
        self.schema = Schema.from_json(schema_json)
        self.segments_dir = segments_dir
        self.doc_id_col = doc_id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"meta": pa.array([], type=pa.string())})
        c0 = time.process_time()
        postings, dv, store, meta = build_segment_tables(
            batch, self.schema, self.doc_id_col
        )
        meta["cpu_secs"] = round(time.process_time() - c0, 4)
        meta = write_segment(self.segments_dir, postings, dv, store, meta)
        return pa.table({"meta": [json.dumps(meta)]})


def _atomic_write(path: str, payload: str) -> None:
    tmp = f"{path}.tmp-{uuid.uuid4().hex[:8]}"
    with open(tmp, "w") as f:
        f.write(payload)
    get_storage().publish_file(tmp, path)


_in_commit = threading.local()


def commit(index_root: str, mutate) -> dict:
    """The one manifest writer (the opstamp analogue, SURVEY.md §4):
    under the index's writer lock (`storage.lock`) re-read the manifest
    (``{}`` if none), publish ``mutate(manifest)`` with the version
    bumped, the format stamped and the segments sorted. Keys ``mutate``
    leaves alone carry over; it may raise to publish nothing, and must
    not call ``commit`` (the lock is not re-entrant: refused, not hung)."""
    if getattr(_in_commit, "active", False):
        raise RuntimeError("commit() called from inside a commit mutate")
    mpath = os.path.join(index_root, MANIFEST_FILE)
    with get_storage().lock(index_root):
        _in_commit.active = True
        try:
            prev = load_manifest(index_root) or {}
            manifest = mutate(dict(prev))
        finally:
            _in_commit.active = False
        manifest["version"] = prev.get("version", 0) + 1
        manifest["format"] = FORMAT_VERSION
        manifest["segments"] = sorted(manifest["segments"], key=lambda s: s["min_doc_id"])
        _atomic_write(mpath, json.dumps(manifest))  # compact: `indent` forces the pure-Python encoder
    return manifest


def publish_manifest(index_root: str, segments: list[dict], extra: dict | None = None) -> dict:
    """Replace the whole manifest with ``segments`` (+ ``extra`` keys)."""
    return commit(index_root, lambda _: {"segments": segments, **(extra or {})})


def load_manifest(index_root: str) -> dict | None:
    mpath = os.path.join(index_root, MANIFEST_FILE)
    if not os.path.exists(mpath):
        return None
    with open(mpath) as f:
        return json.load(f)


def load_tombstones(index_root: str, manifest: dict) -> np.ndarray:
    """Sorted unique tombstoned doc ids of one manifest snapshot: the
    delete files its ``tombstones`` list names (delete-by-term commits
    them; merge drops them physically, readers filter them)."""
    files = [os.path.join(index_root, TOMBSTONES_DIR, f) for f in manifest.get("tombstones", [])]
    if not files:
        return np.empty(0, np.uint64)
    t = pq.read_table(files)
    return np.unique(t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64))


def build_index(
    ds,
    schema: Schema,
    index_root: str,
    *,
    doc_id_col: str = "doc_id",
    docs_per_segment: int = 50_000,
    overwrite: bool = False,
    lineage: str | None = None,
) -> dict:
    """Build an index from a ``ray.data.Dataset`` → returns the manifest.

    ``docs_per_segment`` bounds one task's in-memory posting build (the
    `writer_memory` analogue, `settings.rs:38`); at 100 TB scale size it
    so one batch fits a worker's heap.
    """
    os.makedirs(os.path.join(index_root, SEGMENTS_DIR), exist_ok=True)
    existing = load_manifest(index_root)
    if existing is not None:
        # "rebuilding" marks an overwrite that never published: its
        # segments dir may still hold the old text, so it rebuilds too
        if (not overwrite and existing.get("format") == FORMAT_VERSION
                and not existing.get("rebuilding")):
            return existing
        # stale on-disk format OR explicit overwrite → rebuild from
        # scratch. The rmtree matters for overwrite: segment dir names
        # are keyed by (min_doc_id, num_docs) only, and write_segment
        # skips existing dirs — without it a rebuild over changed text
        # with the same doc-id layout would republish stale postings
        # (the empty manifest goes first, so a crash never leaves it
        # naming them). Committing it, not deleting the manifest, keeps
        # the version sequence going: searchers refresh on a version
        # change, and a restart at version 1 would look unchanged.
        import shutil

        commit(index_root, lambda _: {"segments": [], "rebuilding": True})
        shutil.rmtree(os.path.join(index_root, SEGMENTS_DIR), ignore_errors=True)
        os.makedirs(os.path.join(index_root, SEGMENTS_DIR), exist_ok=True)

    _atomic_write(os.path.join(index_root, SCHEMA_FILE), schema.dumps())

    # prune to the columns the index actually uses (read-side projection)
    needed = {doc_id_col} | {f.name for f in schema.fields}
    cols = [c for c in ds.schema().names if c in needed]
    ds = ds.select_columns(cols)

    t0 = time.perf_counter()
    builder = SegmentBuilder(schema.to_json(), os.path.join(index_root, SEGMENTS_DIR), doc_id_col)
    meta_rows = ds.map_batches(
        builder, batch_format="pyarrow", batch_size=docs_per_segment, zero_copy_batch=True
    ).take_all()
    secs = time.perf_counter() - t0

    metas = [json.loads(r["meta"]) for r in meta_rows]
    # dedupe (idempotent reruns can report the same segment twice)
    metas = list({m["name"]: m for m in metas}.values())
    n_docs = sum(m["num_docs"] for m in metas)
    return publish_manifest(
        index_root,
        metas,
        extra={
            "lineage": lineage or "build_index",
            "metrics": {
                "build_secs": round(secs, 3),
                "num_docs": n_docs,
                "docs_per_sec": round(n_docs / secs, 1) if secs > 0 else None,
                # steal-invariant work accounting: Σ per-task process_time.
                # If cpu_secs/doc is flat across parallelism levels the
                # pipeline conserves work (no coordination overhead) —
                # the scaling evidence that survives noisy-neighbor VMs.
                "cpu_secs": round(sum(m.get("cpu_secs", 0.0) for m in metas), 3),
            },
        },
    )
