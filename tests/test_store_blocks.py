"""Frame-addressed doc store: a winner fetch (``SegmentReader.store(ids)``)
decompresses only the store frames that hold the requested docs, and
returns exactly the docs those frames hold. The frames are read here
straight from the part files, by the layout the segment module
documents, not through the reader."""

import datetime
import json
import os
import struct
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from toshi_ray.api import IndexCatalog
from toshi_ray.query import QueryError
from toshi_ray.pipelines.build import MANIFEST_FILE, build_index, load_manifest
from toshi_ray.pipelines.merge import delete_by_term, merge_segments
from toshi_ray.schema import FieldDef, Schema
from toshi_ray.search import Searcher
from toshi_ray.segments import (
    DOCVALUES_FILE,
    STORE_BLOCK_ROWS,
    STORE_FILE,
    SegmentReader,
    build_segment_tables,
    segment_parts,
    write_segment,
    write_store,
)
from toshi_ray.sources.webpages import make_pages_batch, pages_dataset

ZSTD_MAGIC = b"\x28\xb5\x2f\xfd"


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


def part_frames(path: str) -> tuple[list[bytes], int]:
    """The frames of one store part, cut by its footer and decompressed,
    and the part's doc count. The footer is offsets (u64, frames + 1),
    raw sizes (u32), the schema bytes, then the trailer (doc count u64,
    frame count u32, schema bytes u32, b"TSF1")."""
    data = open(path, "rb").read()
    n_docs, n_frames, n_schema, magic = struct.unpack("<QII4s", data[-20:])
    assert magic == b"TSF1"
    foot = len(data) - 20 - n_schema - 12 * n_frames - 8
    offsets = np.frombuffer(data, "<u8", n_frames + 1, foot)
    raw = np.frombuffer(data, "<u4", n_frames, foot + 8 * (n_frames + 1))
    assert offsets[0] == 0 and offsets[-1] == foot
    frames = [data[a:b] for a, b in zip(offsets[:-1], offsets[1:])]
    assert all(f.startswith(ZSTD_MAGIC) for f in frames)
    zstd = pa.Codec("zstd")
    return [zstd.decompress(f, decompressed_size=int(r), asbytes=True)
            for f, r in zip(frames, raw)], n_docs


def frame_docs(reader: SegmentReader) -> list[list[dict]]:
    """Every frame of the segment's store, in row order, parsed: one
    list of JSON docs per frame."""
    out = []
    for path in segment_parts(reader.dir, STORE_FILE):
        frames, n_docs = part_frames(path)
        docs = [[json.loads(line) for line in f.split(b"\n")] for f in frames]
        assert sum(len(d) for d in docs) == n_docs
        # every frame but a part's last holds exactly STORE_BLOCK_ROWS docs
        assert all(len(d) == STORE_BLOCK_ROWS for d in docs[:-1])
        assert not docs or 0 < len(docs[-1]) <= STORE_BLOCK_ROWS
        out.extend(docs)
    return out


def check_fetches(reader: SegmentReader, seed: int, n_draws: int = 12) -> None:
    """Random subsets: doc-for-doc equal to the frames' docs for those
    ids, and exactly one decompress per distinct frame holding one."""
    frames = frame_docs(reader)
    full = {d["doc_id"]: d for f in frames for d in f}
    all_ids = np.array(sorted(full), dtype=np.uint64)
    assert all_ids.size == reader.num_docs
    assert np.array_equal(all_ids, reader.doc_ids())
    rng = np.random.default_rng(seed)
    for size in rng.integers(1, 40, n_draws):
        want = rng.choice(all_ids, min(int(size), all_ids.size), replace=False)
        before = reader.store_frames_read
        got = reader.store(want)
        assert got == [full[i] for i in sorted(want.tolist())]
        assert got.num_rows == len(want)
        holding = sum(any(d["doc_id"] in set(want.tolist()) for d in f) for f in frames)
        assert reader.store_frames_read - before == holding


def test_fresh_segment_fetches_only_winning_blocks():
    ids = np.arange(1000, 1000 + 1000)
    reader = fresh_segment(ids)
    (path,) = segment_parts(reader.dir, STORE_FILE)
    assert len(part_frames(path)[0]) == -(-1000 // STORE_BLOCK_ROWS)
    # the frames hold what the build was given, row for row
    stored = make_pages_batch(ids).select(["doc_id", "url", "text", "lang"]).to_pylist()
    assert [d for f in frame_docs(reader) for d in f] == stored
    check_fetches(reader, seed=1)
    # one doc decodes one frame; the last doc sits in the short tail frame
    before = reader.store_frames_read
    assert reader.store([1999]) == [stored[-1]]
    assert reader.store_frames_read - before == 1


def test_unsorted_and_repeated_ids_return_doc_id_order():
    reader = fresh_segment(np.arange(500))
    got = reader.store(np.array([300, 7, 300, 129, 7], dtype=np.uint64))
    assert [d["doc_id"] for d in got] == [7, 129, 300]


def test_format8_index_is_refused_with_the_rebuild_message(ray_session):
    """An index stamped with format 8 (a parquet store) is refused with
    the rebuild message, and build_index over it rebuilds it."""
    root = tempfile.mkdtemp(prefix="toshi_store_fmt8_")
    build_index(pages_dataset(600, parallelism=3), page_schema(), root,
                docs_per_segment=200)
    want = Searcher(root, distributed=False).search({"query": {"term": {"text": "the"}},
                                                     "limit": 20})
    manifest = load_manifest(root)
    manifest.update(format=8, version=manifest["version"] + 1)
    with open(os.path.join(root, MANIFEST_FILE), "w") as f:
        json.dump(manifest, f)
    with pytest.raises(QueryError) as e:
        Searcher(root, distributed=False)
    assert "Index format 8 != reader format 9; rebuild the index" in str(e.value)
    build_index(pages_dataset(600, parallelism=3), page_schema(), root,
                docs_per_segment=200)
    s = Searcher(root, distributed=False)
    assert s.search({"query": {"term": {"text": "the"}}, "limit": 20}) == want
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
    parts = segment_parts(reader.dir, STORE_FILE)
    assert len(parts) == 3 and all(os.stat(p).st_nlink > 1 for p in parts)
    check_fetches(reader, seed=3)
    # winners on both sides of a part boundary
    before = reader.store_frames_read
    assert [d["doc_id"] for d in reader.store([199, 200])] == [199, 200]
    assert reader.store_frames_read - before == 2


def test_merged_with_tombstones_keeps_block_layout(ray_session):
    root = tempfile.mkdtemp(prefix="toshi_store_tomb_")
    build_index(pages_dataset(900, parallelism=3), page_schema(), root,
                docs_per_segment=300)
    assert delete_by_term(Searcher(root, distributed=False), "text", "w00050") > 0
    merge_segments(root, hot_df_threshold=300, shard_span=400)
    reader = merged_reader(root)
    frames = frame_docs(reader)  # checks the 16-doc frames of every part
    assert sum(len(f) for f in frames) == reader.num_docs
    check_fetches(reader, seed=4)


def test_delete_merge_links_untouched_parts_and_rewrites_the_rest(ray_session):
    """A merge that applies a delete hard-links every source docvalues and
    store part whose doc-id range holds no tombstone, and rewrites only
    the parts that do (the store in its frame layout), on the driver,
    leaving Ray's execution options as they were. Search results equal
    the unmerged index's with the delete applied."""
    import ray.data

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
            if fname == DOCVALUES_FILE:
                ids = pq.read_table(path, columns=["doc_id"])["doc_id"].to_pylist()
            else:
                frames, _ = part_frames(path)
                ids = [json.loads(line)["doc_id"] for f in frames for line in f.split(b"\n")]
                assert len(frames) == -(-len(ids) // STORE_BLOCK_ROWS)
            if src not in touched:
                assert os.stat(path).st_nlink > 1, path
                continue
            assert os.stat(path).st_nlink == 1 and 450 not in ids, path
            assert ids == [i for i in range(300 * src, 300 * src + 300) if i != 450]
    check_fetches(reader, seed=5)
    assert results(Searcher(root, distributed=False)) == want


def test_missing_doc_id_raises():
    reader = fresh_segment(np.arange(100, 400))
    for bad in ([99], [400], [150, 10**12]):
        with pytest.raises(LookupError):
            reader.store(np.array(bad, dtype=np.uint64))


def test_store_out_of_step_with_docvalues_raises():
    """A store whose rows are not in the docvalues' order, or that holds
    a different number of docs, must fail the fetch, not return another
    document's fields."""
    reader = fresh_segment(np.arange(300))
    (path,) = segment_parts(reader.dir, STORE_FILE)
    docs = [d for f in frame_docs(reader) for d in f]
    write_store(path, pa.Table.from_pylist(docs[::-1]))
    with pytest.raises(RuntimeError, match="out of step"):
        SegmentReader(reader.dir).store([5])
    write_store(path, pa.Table.from_pylist(docs[:-1]))
    with pytest.raises(RuntimeError, match="out of step"):
        SegmentReader(reader.dir).store([5])


def test_a_winner_whose_doc_does_not_come_back_fails_the_search(ray_session):
    """A winner the fetch did not return is an error naming the doc and
    its segment, not a hit with an empty doc."""
    root = tempfile.mkdtemp(prefix="toshi_store_lost_")
    build_index(pages_dataset(600, parallelism=3), page_schema(), root,
                docs_per_segment=200)
    s = Searcher(root, distributed=False, parallelism=2)
    q = {"query": {"range": {"doc_id": {"gte": 250, "lte": 260}}}, "limit": 5}
    assert len(s.search(q)["docs"]) == 5
    (seg,) = [m["name"] for m in s.segments if m["min_doc_id"] == 200]
    (group,) = [g for _, g in s._groups if any(r.dir.endswith(seg) for r in g.readers)]
    fetch = group.fetch_docs
    group.fetch_docs = lambda wanted: [d for d in fetch(wanted) if d["doc_id"] != 252]
    with pytest.raises(LookupError, match=f"winner doc 252 of segment {seg}"):
        s.search(q)
    s.close()


def test_zero_row_request_reads_no_block():
    reader = fresh_segment(np.arange(300))
    empty = reader.store(np.array([], dtype=np.uint64))
    assert empty == [] and empty.num_rows == 0
    assert reader.store_frames_read == 0


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
        assert [d["doc_id"] for d in r.store([lo + 3, lo + 9])] == [lo + 3, lo + 9]
    assert len(os.listdir(fd_dir)) <= before


# ---------------------------------------------------------------------------
# Every stored type comes back from a hit as the value it was given.
# ---------------------------------------------------------------------------

TYPED_SCHEMA = Schema.build(
    FieldDef("doc_id", "u64", fast=True),
    FieldDef("big", "u64", fast=True),
    FieldDef("neg", "i64", fast=True),
    FieldDef("ts", "date", fast=True),
    FieldDef("cat", "facet"),
    FieldDef("opt", "i64"),
    FieldDef("body", "text"),
)
U64_MAX = 2**64 - 1


def typed_docs(n: int) -> list[dict]:
    """The literal docs: u64 above 2^53 and at 2^64-1, negative i64, a
    date, a facet, an optional i64 left out of every third doc, and text
    holding a newline, quotes and a non-BMP character. Every doc holds
    ``alpha``; every fifth also ``gone``."""
    return [{
        "doc_id": i,
        "big": U64_MAX if i == n - 1 else 2**53 + 1 + i,
        "neg": -(2**40) - i,
        "ts": datetime.datetime(2021, 3, 4, 5, 6, 7, 891) + datetime.timedelta(days=i),
        "cat": f"/lang/{'en' if i % 2 else 'de'}",
        "opt": None if i % 3 == 0 else i * 7,
        "body": f'alpha{" gone" if i % 5 == 0 else ""} line {i}\nsaid "hi" \U0001F600 \\ end',
    } for i in range(n)]


def typed_table(docs: list[dict]) -> pa.Table:
    return pa.table({
        "doc_id": pa.array([d["doc_id"] for d in docs], pa.uint64()),
        "big": pa.array([d["big"] for d in docs], pa.uint64()),
        "neg": pa.array([d["neg"] for d in docs], pa.int64()),
        "ts": pa.array([d["ts"] for d in docs], pa.timestamp("us")),
        "cat": pa.array([d["cat"] for d in docs], pa.string()),
        "opt": pa.array([d["opt"] for d in docs], pa.int64()),
        "body": pa.array([d["body"] for d in docs], pa.string()),
    })


def hit_docs(root: str) -> dict:
    s = Searcher(root, distributed=False)
    r = s.search({"query": {"term": {"body": "alpha"}}, "limit": 1000})
    s.close()
    return {d["doc"]["doc_id"]: d["doc"] for d in r["docs"]}


def test_every_stored_type_round_trips_through_build_and_merge(ray_session):
    import ray.data

    docs = typed_docs(48)
    for deleted in (False, True):
        root = tempfile.mkdtemp(prefix="toshi_store_typed_")
        build_index(ray.data.from_arrow(typed_table(docs)), TYPED_SCHEMA, root,
                    docs_per_segment=16)
        want = {d["doc_id"]: d for d in docs}
        assert len(load_manifest(root)["segments"]) == 3
        assert hit_docs(root) == want
        if deleted:
            assert delete_by_term(Searcher(root, distributed=False), "body", "gone") == 10
            want = {i: d for i, d in want.items() if i % 5}
        merge_segments(root)
        assert len(load_manifest(root)["segments"]) == 1
        got = hit_docs(root)
        assert got == want
        assert type(got[1]["ts"]) is datetime.datetime and got[47]["big"] == U64_MAX


def test_every_stored_type_round_trips_through_the_catalog(ray_session):
    """The catalog writes a date as the string it was given."""
    c = IndexCatalog(tempfile.mkdtemp(prefix="toshi_store_cat_"))
    c.create_index("typed", TYPED_SCHEMA.to_json())
    docs = [{**d, "ts": d["ts"].isoformat()} for d in typed_docs(6)]
    for d in docs:
        c.add_document("typed", {k: v for k, v in d.items() if v is not None})
    # the catalog issues its own doc ids, in add order
    want = {i: {**d, "doc_id": i} for i, d in enumerate(docs)}
    got = {d["doc"]["doc_id"]: d["doc"] for d in
           c.search("typed", {"query": {"term": {"body": "alpha"}}, "limit": 100})["docs"]}
    assert got == want
    merge_segments(os.path.join(c.base_path, "typed"))
    got = {d["doc"]["doc_id"]: d["doc"] for d in
           c.search("typed", {"query": {"term": {"body": "alpha"}}, "limit": 100})["docs"]}
    assert got == want


def test_dictionary_list_and_struct_columns_store_their_values():
    """Columns whose values JSON holds exactly, nested or dictionary
    encoded, come back as ``to_pylist`` gives them."""
    schema = Schema.build(FieldDef("doc_id", "u64"), FieldDef("lang", "facet"),
                          FieldDef("tags", "text", indexed=False),
                          FieldDef("rec", "text", indexed=False))
    batch = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.uint64()),
        "lang": pa.array(["/en", "/de", None, "/en"]).dictionary_encode(),
        "tags": pa.array([["a"], ["b", "c\nd"], None, []], pa.list_(pa.string())),
        "rec": pa.array([{"k": 1, "s": "x"}, None, {"k": None, "s": "\U0001F600"},
                         {"k": -(2**63), "s": ""}],
                        pa.struct([("k", pa.int64()), ("s", pa.string())])),
    })
    seg_dir = tempfile.mkdtemp(prefix="toshi_store_nested_")
    meta = write_segment(seg_dir, *build_segment_tables(batch, schema))
    got = SegmentReader(os.path.join(seg_dir, meta["name"])).store([1, 2, 3, 4])
    assert got == batch.to_pylist()


@pytest.mark.parametrize("col", [
    pa.array([b"\x00\xff", b"x"], pa.binary()),
    pa.array([None, None], pa.decimal128(5, 2)),
    pa.array([[b"a"], [b"b", b"c"]], pa.list_(pa.binary())),
    pa.array([{"d": datetime.date(2021, 1, 1)}, None], pa.struct([("d", pa.date32())])),
    pa.array([[("k", 1)], []], pa.map_(pa.string(), pa.int64())),
    pa.array([b"\x00", b"x"], pa.binary()).dictionary_encode(),
])
def test_unstorable_type_fails_the_write(col):
    """A stored column JSON cannot give back unchanged fails the segment
    write instead of storing another value; nothing is published."""
    schema = Schema.build(FieldDef("doc_id", "u64"), FieldDef("blob", "text", indexed=False))
    batch = pa.table({"doc_id": pa.array([1, 2], pa.uint64()), "blob": col})
    seg_dir = tempfile.mkdtemp(prefix="toshi_store_bad_")
    with pytest.raises(TypeError, match="stored field 'blob'"):
        write_segment(seg_dir, *build_segment_tables(batch, schema))
    assert not [n for n in os.listdir(seg_dir) if not n.startswith(".tmp")]
