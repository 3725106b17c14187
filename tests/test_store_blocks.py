"""Block-addressed doc store: a winner fetch (``SegmentReader.store(ids)``)
decodes only the store row groups that hold the requested docs, and
returns exactly what a full read filtered to those ids returns."""

import os
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from toshi_ray.pipelines.build import build_index
from toshi_ray.pipelines.merge import delete_by_term, merge_segments
from toshi_ray.schema import FieldDef, Schema
from toshi_ray.search import Searcher
from toshi_ray.segments import (
    STORE_BLOCK_ROWS,
    STORE_FILE,
    SegmentReader,
    build_segment_tables,
    segment_parts,
    write_segment,
)
from toshi_ray.sources.webpages import make_pages_batch, pages_dataset


def page_schema() -> Schema:
    return Schema.build(
        FieldDef("doc_id", "u64", fast=True),
        FieldDef("url", "text", indexed=False),
        FieldDef("text", "text"),
        FieldDef("lang", "facet"),
    )


def fresh_segment(doc_ids: np.ndarray) -> SegmentReader:
    seg_dir = tempfile.mkdtemp(prefix="toshi_store_")
    meta = write_segment(
        seg_dir, *build_segment_tables(make_pages_batch(doc_ids), page_schema())
    )
    return SegmentReader(os.path.join(seg_dir, meta["name"]))


def block_doc_ids(reader: SegmentReader) -> list[np.ndarray]:
    """The doc ids of every store row group, in row order, read straight
    from the part files."""
    out = []
    for path in segment_parts(reader.dir, STORE_FILE):
        with pq.ParquetFile(path) as f:
            for rg in range(f.metadata.num_row_groups):
                col = f.read_row_group(rg, columns=["doc_id"])["doc_id"]
                out.append(col.to_numpy(zero_copy_only=False))
    return out


def check_fetches(reader: SegmentReader, seed: int, n_draws: int = 12) -> None:
    """Random subsets: row-for-row equal to the filtered full read, and
    exactly one decode per distinct block holding a requested doc."""
    full = reader.store()
    all_ids = full["doc_id"].to_numpy(zero_copy_only=False)
    blocks = block_doc_ids(reader)
    assert sum(b.size for b in blocks) == full.num_rows
    rng = np.random.default_rng(seed)
    for size in rng.integers(1, 40, n_draws):
        want = rng.choice(all_ids, min(int(size), all_ids.size), replace=False)
        before = reader.store_blocks_read
        got = reader.store(want)
        expect = full.filter(pa.compute.is_in(full["doc_id"], pa.array(want)))
        assert got.equals(expect)
        holding = sum(bool(np.isin(b, want).any()) for b in blocks)
        assert reader.store_blocks_read - before == holding


def test_fresh_segment_fetches_only_winning_blocks():
    reader = fresh_segment(np.arange(1000, 1000 + 1000))
    (path,) = segment_parts(reader.dir, STORE_FILE)
    md = pq.read_metadata(path)
    assert md.num_row_groups == -(-1000 // STORE_BLOCK_ROWS)
    assert md.row_group(0).column(0).compression == "ZSTD"
    check_fetches(reader, seed=1)
    # one doc decodes one block; the last doc sits in the short tail block
    before = reader.store_blocks_read
    assert reader.store([1999])["doc_id"].to_pylist() == [1999]
    assert reader.store_blocks_read - before == 1


def test_unsorted_and_repeated_ids_return_doc_id_order():
    reader = fresh_segment(np.arange(500))
    got = reader.store(np.array([300, 7, 300, 129, 7], dtype=np.uint64))
    assert got["doc_id"].to_pylist() == [7, 129, 300]


def test_legacy_single_group_store_reads_as_one_block():
    """A v5 segment written before the block layout has one row group
    (the default writer, snappy): it reads identically, as one block."""
    reader = fresh_segment(np.arange(600))
    (path,) = segment_parts(reader.dir, STORE_FILE)
    blocked = reader.store()
    pq.write_table(blocked, path)  # the old writer's exact call
    legacy = SegmentReader(reader.dir)
    assert pq.read_metadata(path).num_row_groups == 1
    check_fetches(legacy, seed=2)
    assert legacy.store().equals(blocked)


def test_legacy_store_index_serves_identical_results(ray_session):
    """Rewriting every store of an index in the pre-block layout changes
    no search result."""
    root = tempfile.mkdtemp(prefix="toshi_store_legacy_")
    build_index(pages_dataset(600, parallelism=3), page_schema(), root,
                docs_per_segment=200)
    bodies = [
        {"query": {"term": {"text": t}}, "limit": 20}
        for t in ("the", "w00042", "w00100", "page")
    ] + [{"query": None, "sort_by": "doc_id", "limit": 15}]
    s = Searcher(root, distributed=False)
    blocked = [s.search(b) for b in bodies]
    s.close()
    seg_root = os.path.join(root, "segments")
    for name in os.listdir(seg_root):
        path = os.path.join(seg_root, name, STORE_FILE)
        if os.path.exists(path):
            pq.write_table(pq.read_table(path), path)
            assert pq.read_metadata(path).num_row_groups == 1
    s = Searcher(root, distributed=False)
    assert [s.search(b) for b in bodies] == blocked
    s.close()


def merged_reader(root: str) -> SegmentReader:
    s = Searcher(root, distributed=False)
    (seg,) = s.segments
    s.close()
    return SegmentReader(os.path.join(root, "segments", seg["name"]))


def test_merged_hard_linked_parts(ray_session):
    root = tempfile.mkdtemp(prefix="toshi_store_merged_")
    build_index(pages_dataset(600, parallelism=3), page_schema(), root,
                docs_per_segment=200)
    merge_segments(root, hot_df_threshold=300, shard_span=400)
    reader = merged_reader(root)
    assert len(segment_parts(reader.dir, STORE_FILE)) == 3
    check_fetches(reader, seed=3)
    # winners on both sides of a part boundary
    before = reader.store_blocks_read
    assert reader.store([199, 200])["doc_id"].to_pylist() == [199, 200]
    assert reader.store_blocks_read - before == 2


def test_merged_with_tombstones_keeps_block_layout(ray_session):
    root = tempfile.mkdtemp(prefix="toshi_store_tomb_")
    build_index(pages_dataset(900, parallelism=3), page_schema(), root,
                docs_per_segment=300)
    assert delete_by_term(Searcher(root, distributed=False), "text", "w00050") > 0
    merge_segments(root, hot_df_threshold=300, shard_span=400)
    reader = merged_reader(root)
    blocks = block_doc_ids(reader)
    assert max(b.size for b in blocks) <= STORE_BLOCK_ROWS
    assert sum(b.size for b in blocks) == reader.num_docs
    md = pq.read_metadata(segment_parts(reader.dir, STORE_FILE)[0])
    assert md.row_group(0).column(0).compression == "ZSTD"
    check_fetches(reader, seed=4)


def test_delete_merge_links_untouched_parts_and_rewrites_the_rest(ray_session):
    """A merge that applies a delete hard-links every source docvalues and
    store part whose doc-id range holds no tombstone, and rewrites only
    the parts that do (the store in its block layout), on the driver,
    leaving Ray's execution options as they were. Search results equal
    the unmerged index's with the delete applied."""
    import ray.data

    from toshi_ray.pipelines.build import load_manifest
    from toshi_ray.segments import DOCVALUES_FILE

    root = tempfile.mkdtemp(prefix="toshi_store_delmerge_")
    build_index(pages_dataset(900, parallelism=3), page_schema(), root,
                docs_per_segment=300)
    assert delete_by_term(Searcher(root, distributed=False), "doc_id", 450) == 1
    ordered = sorted(load_manifest(root)["segments"], key=lambda s: s["min_doc_id"])
    touched = {i for i, s in enumerate(ordered) if s["min_doc_id"] <= 450 <= s["max_doc_id"]}
    assert len(ordered) == 3 and len(touched) == 1
    deck = [{"term": {"text": t}} for t in ("the", "w00050", "www", "w01000")]
    deck += [{"range": {"doc_id": {"gte": 440, "lte": 460}}}]

    def results(s: Searcher) -> list:
        """Every hit's stored doc, by doc id (BM25 scores move: the merge
        drops the deleted doc from df and the doc count)."""
        out = [s.search({"query": q, "limit": 1000}) for q in deck]
        return [(r["hits"], sorted((d["doc"] for d in r["docs"]), key=lambda d: d["doc_id"]))
                for r in out]

    want = results(Searcher(root, distributed=False))
    assert all(hits < 1000 for hits, _ in want)

    opts = ray.data.DataContext.get_current().execution_options
    before = opts.preserve_order
    merge_segments(root, hot_df_threshold=300, shard_span=400)
    assert ray.data.DataContext.get_current().execution_options.preserve_order == before

    reader = merged_reader(root)
    for fname in (DOCVALUES_FILE, STORE_FILE):
        parts = segment_parts(reader.dir, fname)
        assert len(parts) == 3
        for path in parts:
            src = int(os.path.basename(path)[:5])
            ids = pq.read_table(path, columns=["doc_id"])["doc_id"].to_pylist()
            if src not in touched:
                assert os.stat(path).st_nlink > 1, path
                continue
            assert os.stat(path).st_nlink == 1 and 450 not in ids, path
            if fname == STORE_FILE:
                md = pq.read_metadata(path)
                assert max(md.row_group(g).num_rows
                           for g in range(md.num_row_groups)) <= STORE_BLOCK_ROWS
                assert {md.row_group(g).column(c).compression
                        for g in range(md.num_row_groups)
                        for c in range(md.num_columns)} == {"ZSTD"}
    check_fetches(reader, seed=5)
    assert results(Searcher(root, distributed=False)) == want


def test_missing_doc_id_raises():
    reader = fresh_segment(np.arange(100, 400))
    for bad in ([99], [400], [150, 10**12]):
        with pytest.raises(LookupError):
            reader.store(np.array(bad, dtype=np.uint64))


def test_store_out_of_step_with_docvalues_raises():
    """A store whose rows are not in the docvalues' order must fail the
    fetch, not return another document's fields."""
    reader = fresh_segment(np.arange(300))
    (path,) = segment_parts(reader.dir, STORE_FILE)
    t = pq.read_table(path)
    pq.write_table(t.take(pa.array(np.arange(t.num_rows)[::-1])), path,
                   row_group_size=STORE_BLOCK_ROWS)
    with pytest.raises(RuntimeError):
        SegmentReader(reader.dir).store([5])


def test_zero_row_request_reads_no_block():
    reader = fresh_segment(np.arange(300))
    empty = reader.store(np.array([], dtype=np.uint64))
    assert empty.num_rows == 0
    assert empty.schema == reader.store().schema
    assert reader.store_blocks_read == 0


def test_many_segment_readers_hold_no_open_files():
    fd_dir = "/proc/self/fd"
    if not os.path.isdir(fd_dir):
        pytest.skip("needs /proc")
    seg_dir = tempfile.mkdtemp(prefix="toshi_store_fds_")
    names = []
    for lo in range(0, 120 * 10, 10):
        batch = make_pages_batch(np.arange(lo, lo + 10))
        names.append(write_segment(seg_dir, *build_segment_tables(batch, page_schema()))["name"])
    before = len(os.listdir(fd_dir))
    readers = [SegmentReader(os.path.join(seg_dir, n)) for n in names]
    for lo, r in zip(range(0, 1200, 10), readers):
        assert r.store([lo + 3, lo + 9])["doc_id"].to_pylist() == [lo + 3, lo + 9]
    assert len(os.listdir(fd_dir)) <= before
