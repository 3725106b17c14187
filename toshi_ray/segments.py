"""Immutable segment format — the on-disk unit of the index.

A segment mirrors what a Tantivy segment holds (SURVEY.md §1.1
"Segment"; reference opens them via `toshi-server/src/handle.rs:221-232`)
re-expressed as Parquet so Ray Data / pyarrow can stream it, beside a
doc store of compressed frames:

    seg-<min_doc>-<n>/
      postings.parquet   term dictionary + compressed posting lists
                         (field, term, shard, df, first_doc,
                          doc_ids Δ+varint, tfs varint,
                          positions Δ+varint)
                                        — sorted by (field, term, shard)
      docvalues.parquet  per-doc columnar values: doc_id, 1-byte fieldnorm
                         codes per text field, numeric fast fields,
                         facet paths  — sorted by doc_id
      store.frames       stored fields for retrieval, in docvalues row
                         order: zstd frames of STORE_BLOCK_ROWS docs, each
                         the newline-joined compact JSON of its docs,
                         then a footer of frame offsets, raw sizes, the
                         doc count and the stored Arrow schema
                         (tantivy's StoreWriter/StoreReader: compressed
                         blocks plus a skip index)
      termbloom.bin      per-field term bloom filters (toshi_ray.termbloom)
      meta.json          doc counts + exact per-field token totals
                         (global BM25 stats are summed from these),
                         zone maps, bloom layout, write id

A winner fetch maps doc id → row (the doc_id docvalues) → frame
(row // STORE_BLOCK_ROWS), reads each needed frame with one `pread`,
decompresses it and parses only the wanted lines.

A merged segment's postings, docvalues and store are directories of
part files instead; docvalues part k and store part k hold the same
docs. Whoever writes the parts, one function finishes the directory
(`finish_segment`): it derives the zone maps and doc counts from the
docvalues part footers, builds the bloom and writes meta.json, for the
build (`write_segment`) and the merge alike.

All posting lists for one batch of documents are built in ONE
vectorized pass: dictionary-encode the terms, sort the vocabulary once,
then one stable sort of the (doc, position)-ordered tokens by term rank
and run-boundary arithmetic. Each field's rows come out in term order,
so the segment's table is the fields' tables joined in field-name order:
dictionary order, which a reader primed with it takes as it is. Postings rows
have one writer, `encode_postings` (one segmented encode of every
list's payloads), which the build and the merge call (the merge drops
tombstoned docs before it encodes); `decode_postings` is its bulk
inverse.

Multiple rows may exist for one (field, term): hot terms are sharded by
doc-range (`shard` column) so the merge stage can salt skewed keys and
readers just concatenate shards in order (SURVEY.md §7.3/§7.4).
"""

from __future__ import annotations

import copy
import json
import os
import struct
import threading
import uuid
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from toshi_ray import codecs, termbloom
from toshi_ray.analyzer import get_analyzer
from toshi_ray.fieldnorm import fieldnorm_to_id
from toshi_ray.schema import FACET, Schema
from toshi_ray.storage import get_storage

POSTINGS_FILE = "postings.parquet"
DOCVALUES_FILE = "docvalues.parquet"
STORE_FILE = "store.frames"
META_FILE = "meta.json"

# Docs per store frame: a winner fetch decompresses only the frames
# holding its rows (tantivy's block-compressed doc store with a skip
# index, SURVEY.md §1.1). On the perfbench query_merged index (1 CPU,
# in-process CPU time), a 1-25-doc fetch cost 0.46 ms with 16-doc
# frames and 0.65 ms with 32; either store was ~19% smaller than the
# 64-row parquet row groups it replaced.
STORE_BLOCK_ROWS = 16

POSTINGS_SCHEMA = pa.schema([
    ("field", pa.string()),
    ("term", pa.string()),
    ("shard", pa.int32()),
    ("df", pa.uint32()),
    ("first_doc", pa.uint64()),
    ("doc_ids", pa.large_binary()),
    ("tfs", pa.large_binary()),
    ("positions", pa.large_binary()),
])


# Arrow tables are immutable, so one zero-row instance serves every
# caller: building it costs ~0.2 ms, more than a bloom-pruned probe
_EMPTY_POSTINGS = POSTINGS_SCHEMA.empty_table()


def empty_postings(columns: list[str] | None = None) -> pa.Table:
    """Zero-row postings table with the canonical schema."""
    return _EMPTY_POSTINGS.select(columns) if columns is not None else _EMPTY_POSTINGS


def _binary_from_offsets(payload: bytes, byte_offsets: np.ndarray) -> pa.Array:
    """Wrap one contiguous payload + per-list offsets as a LargeBinaryArray
    without copying per list."""
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(),
        len(byte_offsets) - 1,
        [None, pa.py_buffer(byte_offsets.astype(np.int64)), pa.py_buffer(payload)],
    )


def _binary_parts(col: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of `_binary_from_offsets`: (contiguous byte buffer,
    per-row byte offsets from 0) of a LargeBinary column, no copy."""
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    voffs = np.frombuffer(col.buffers()[1], np.int64)[col.offset : col.offset + len(col) + 1]
    data = np.frombuffer(col.buffers()[2], np.uint8) if col.buffers()[2] is not None else np.empty(0, np.uint8)
    return data[voffs[0] : voffs[-1]], (voffs - voffs[0]).astype(np.int64)


def encode_postings(
    field,
    term,
    shard,
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    offsets: np.ndarray,
    positions: pa.Array | None,
) -> pa.Table:
    """POSTINGS_SCHEMA rows for many posting lists in one vectorized
    pass — the one writer of the posting layout (the build and the merge
    call it).

    ``doc_ids`` (ascending within each list) and ``tfs`` are flat arrays
    cut into non-empty lists by ``offsets`` (len = n_lists + 1); ``field``,
    ``term`` and ``shard`` hold one value per list. ``positions`` come
    already encoded, one binary per list (None: a field without them).

    Each list's doc ids are delta-coded from an absolute first id, so
    ONE segmented encode covers every list; a row also carries its
    first doc id (readers order a term's shard rows by it)."""
    doc_ids = np.asarray(doc_ids, np.uint64)
    tfs = np.asarray(tfs, np.uint64)
    offsets = np.asarray(offsets, np.int64)
    n = offsets.size - 1
    doc_payload, doc_offs = codecs.segmented_varint_encode(
        codecs.segmented_delta(doc_ids, offsets), offsets
    )
    tf_payload, tf_offs = codecs.segmented_varint_encode(tfs, offsets)
    return pa.table(
        {
            "field": field,
            "term": term,
            "shard": shard,
            "df": np.diff(offsets).astype(np.uint32),
            "first_doc": doc_ids[offsets[:-1]],
            "doc_ids": _binary_from_offsets(doc_payload, doc_offs),
            "tfs": _binary_from_offsets(tf_payload, tf_offs),
            "positions": pa.nulls(n, pa.large_binary()) if positions is None else positions,
        },
        schema=POSTINGS_SCHEMA,
    )


def decode_postings(table: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(doc_ids, tfs, offsets) of every row of a postings table in one
    segmented decode — the inverse of `encode_postings`: flat arrays cut
    into rows by ``offsets``."""
    offsets = np.zeros(table.num_rows + 1, np.int64)
    np.cumsum(table["df"].to_numpy(zero_copy_only=False), out=offsets[1:])
    gaps = codecs.varint_decode(_binary_parts(table["doc_ids"])[0])
    doc_ids = codecs.segmented_delta_decode(gaps, offsets)
    return doc_ids, codecs.varint_decode(_binary_parts(table["tfs"])[0]), offsets


@dataclass
class PostingsBatch:
    """Vectorized posting-list build result for one text field."""

    table: pa.Table  # POSTINGS_SCHEMA rows for this field
    total_tokens: int


def build_field_postings(
    field_name: str,
    tokenizer: str,
    col: pa.Array,
    doc_ids: np.ndarray,
    record_positions: bool,
    shard: int = 0,
) -> tuple[PostingsBatch, np.ndarray]:
    """Build sorted, compressed posting lists for one field of one doc batch.

    ``doc_ids`` must be sorted ascending (caller sorts the batch).
    Returns the postings rows, in term order, plus the per-doc fieldnorm
    token counts. The analyzer's tokens must come in (doc, position)
    order (the `TokenizedColumn` contract): one stable sort by term then
    orders them by (term, doc, position). A column out of that order
    raises ValueError.
    """
    analyzer = get_analyzer(tokenizer)
    tc = analyzer.tokenize_column(col)
    term_ids, vocab = tc.term_ids()
    n_docs = len(doc_ids)

    if term_ids.size == 0:
        return PostingsBatch(table=empty_postings(), total_tokens=0), np.zeros(n_docs, np.int64)

    d, p = tc.doc_index, tc.positions
    if not ((d[1:] > d[:-1]) | ((d[1:] == d[:-1]) & (p[1:] >= p[:-1]))).all():
        raise ValueError(
            f"analyzer {tokenizer!r} gave field {field_name!r} tokens out of (doc, position) order")

    # vocab order from dictionary_encode is first-appearance; remap to
    # sorted (arrow C++ sort on the strings, numpy only on the indices).
    # Ranks fit 16 bits for most batches, where numpy's stable sort is
    # a radix sort.
    sort_vocab = pa.compute.sort_indices(vocab).to_numpy(zero_copy_only=False).astype(np.int64)
    rank = np.empty(sort_vocab.size, np.uint16 if sort_vocab.size <= 1 << 16 else np.int64)
    rank[sort_vocab] = np.arange(sort_vocab.size)
    term_ids = rank[term_ids]
    vocab_sorted = vocab.take(pa.array(sort_vocab))

    order = np.argsort(term_ids, kind="stable")
    t = term_ids[order]
    d = tc.doc_index[order]
    p = tc.positions[order]

    # (term, doc) group boundaries → tf per posting, positions per posting
    new_group = np.empty(t.size, dtype=bool)
    new_group[0] = True
    np.not_equal(t[1:], t[:-1], out=new_group[1:])
    nd = d[1:] != d[:-1]
    new_group[1:] |= nd
    group_starts = np.nonzero(new_group)[0]
    group_offsets = np.concatenate([group_starts, [t.size]]).astype(np.int64)
    tfs_flat = np.diff(group_offsets).astype(np.uint64)
    g_term = t[group_starts]
    g_doc = d[group_starts]

    # term group boundaries over the (term,doc) groups
    new_term = np.empty(g_term.size, dtype=bool)
    new_term[0] = True
    np.not_equal(g_term[1:], g_term[:-1], out=new_term[1:])
    term_starts = np.nonzero(new_term)[0]
    term_offsets = np.concatenate([term_starts, [g_term.size]]).astype(np.int64)
    n_terms = term_starts.size

    positions = None
    if record_positions:
        # positions delta-encoded within each (term,doc) group, sliced at
        # term boundaries in token space
        pos_gaps = codecs.segmented_delta(p.astype(np.uint64), group_offsets)
        term_token_offsets = np.append(group_offsets[term_starts], t.size)
        positions = _binary_from_offsets(
            *codecs.segmented_varint_encode(pos_gaps, term_token_offsets)
        )

    table = encode_postings(
        [field_name] * n_terms,
        vocab_sorted.take(pa.array(g_term[term_starts])),
        np.full(n_terms, shard, np.int32),
        doc_ids[g_doc],
        tfs_flat,
        term_offsets,
        positions,
    )
    return PostingsBatch(table=table, total_tokens=int(tc.norms.sum())), tc.norms


def build_segment_tables(
    batch: pa.Table, schema: Schema, doc_id_col: str = "doc_id"
) -> tuple[pa.Table, pa.Table, pa.Table, dict]:
    """Turn one batch of documents into (postings, docvalues, store, meta).
    ``doc_id_col`` names the batch's id column; it is taken as ``doc_id``
    here, once, so every table below and every reader keys on
    ``doc_id`` (the source column stays, for a schema field of that name)."""
    if doc_id_col not in batch.column_names:
        raise ValueError(f"batch must carry a '{doc_id_col}' column")
    if doc_id_col != "doc_id":
        if "doc_id" in batch.column_names:
            raise ValueError(
                f"batch carries both '{doc_id_col}' (the doc id column) and 'doc_id'"
            )
        batch = batch.append_column("doc_id", batch[doc_id_col])
    order = pa.compute.sort_indices(batch["doc_id"])
    batch = batch.take(order)
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)

    posting_parts: dict[str, pa.Table] = {}
    dv_cols: dict[str, pa.Array] = {"doc_id": pa.array(doc_ids, type=pa.uint64())}
    field_stats: dict[str, dict] = {}

    for f in schema.fields:
        if f.is_text and f.indexed:
            if f.name not in batch.column_names:
                continue
            pb, norms = build_field_postings(
                f.name, f.tokenizer, batch[f.name], doc_ids, f.positions
            )
            posting_parts[f.name] = pb.table
            dv_cols[f"norm_{f.name}"] = pa.array(fieldnorm_to_id(norms))
            field_stats[f.name] = {"total_tokens": pb.total_tokens}
        elif f.is_numeric and f.indexed and f.name in batch.column_names:
            col = batch[f.name]
            if f.type == "u64":
                dv_cols[f.name] = col.cast(pa.uint64()).combine_chunks()
            elif f.type == "date":
                dv_cols[f.name] = col.cast(pa.timestamp("us")).combine_chunks()
            else:
                dv_cols[f.name] = col.cast(pa.int64()).combine_chunks()
        elif f.type == FACET and f.name in batch.column_names:
            dv_cols[f"facet_{f.name}"] = batch[f.name].cast(pa.string()).combine_chunks()

    # each field's rows are in term order, so field-name order makes
    # the whole table (field, term, shard)-sorted: dictionary order
    postings = (
        pa.concat_tables([t for _, t in sorted(posting_parts.items())]).combine_chunks()
        if posting_parts
        else empty_postings()
    )
    docvalues = pa.table(dv_cols)

    stored_names = ["doc_id"] + [
        f.name for f in schema.stored_fields if f.name in batch.column_names and f.name != "doc_id"
    ]
    store = batch.select(stored_names)

    meta = {
        "num_docs": len(batch),
        "min_doc_id": int(doc_ids.min()) if len(doc_ids) else 0,
        "max_doc_id": int(doc_ids.max()) if len(doc_ids) else 0,
        "field_stats": field_stats,
    }
    return postings, docvalues, store, meta


def write_segment(
    segments_dir: str,
    postings: pa.Table,
    docvalues: pa.Table,
    store: pa.Table,
    meta: dict,
    name: str | None = None,
) -> dict:
    """Atomically write one segment directory; idempotent by segment name.

    Resumability: the name is deterministic from content (doc range +
    count), so a rerun of the same partition skips the write — this is
    the per-partition checkpoint unit (SURVEY.md §7.4 "Resumability").
    """
    name = name or f"seg-{meta['min_doc_id']:012d}-{meta['num_docs']}"
    final = os.path.join(segments_dir, name)
    if os.path.exists(os.path.join(final, META_FILE)):
        with open(os.path.join(final, META_FILE)) as f:
            return json.load(f)
    tmp = os.path.join(segments_dir, f".tmp-{name}-{uuid.uuid4().hex[:8]}")
    os.makedirs(tmp, exist_ok=True)
    write_store(os.path.join(tmp, STORE_FILE), store)  # first: it refuses unstorable types
    pq.write_table(postings, os.path.join(tmp, POSTINGS_FILE))
    pq.write_table(docvalues, os.path.join(tmp, DOCVALUES_FILE))
    meta = finish_segment(tmp, dict(meta, name=name), postings)
    # losing the publish race to an identical-content twin keeps theirs;
    # any other failure raises (see toshi_ray.storage)
    get_storage().publish_dir(tmp, final, META_FILE)
    return meta


def _footer_zone(md: pq.FileMetaData, col: int) -> list[int] | None:
    """[min, max, n_valid] of integer column ``col`` of one parquet part,
    from its footer's row-group statistics: ``[]`` when every value is
    null, None when a row group holding values carries no bounds."""
    lo = hi = None
    n = 0
    for rg in range(md.num_row_groups):
        group = md.row_group(rg)
        st = group.column(col).statistics
        if st is None or not st.has_null_count:
            return None
        valid = group.num_rows - st.null_count
        if not valid:
            continue  # an all-null group bounds nothing
        if not st.has_min_max:
            return None
        lo = st.min if lo is None else min(lo, st.min)
        hi = st.max if hi is None else max(hi, st.max)
        n += valid
    return [lo, hi, n] if n else []


def finish_segment(seg_dir: str, meta: dict, terms: pa.Table) -> dict:
    """Finish a segment directory whose postings, docvalues and store
    part files are written: the one writer of a segment's meta, for the
    build and the merge alike. It adds

    - ``fastfield_stats``, the zone maps: [min, max, n_valid] per
      integer fast field, doc_id included, from the docvalues part
      footers (a part written without statistics has that column
      read). A range or sort query skips a segment on its bounds, and
      n_valid (non-null values only) lets the sort-by floor bound the
      k-th value; a column with no value has no entry;
    - ``num_docs`` and ``min_doc_id``, from doc_id's zone map;
    - ``term_bloom`` and its ``termbloom.bin``, over ``terms``: the
      (field, term) columns of the postings written there (the build
      passes the table it wrote, so a commit reads no postings back);
    - a fresh ``write_id``, which tells this write from any other under
      the same name (an overwrite rebuild reuses names): searchers key
      readers on it;

    then writes ``meta.json`` and returns the meta. Publishing the
    directory is the caller's."""
    zones: dict[str, list] = {}
    for path in segment_parts(seg_dir, DOCVALUES_FILE):
        md = pq.read_metadata(path)
        for i, f in enumerate(md.schema.to_arrow_schema()):
            if not pa.types.is_integer(f.type) or f.name.startswith("norm_"):
                continue
            z = _footer_zone(md, i)
            if z is None:
                col = pq.read_table(path, columns=[f.name])[f.name]
                mm = pa.compute.min_max(col)
                z = [mm["min"].as_py(), mm["max"].as_py(), len(col) - col.null_count]
                z = z if z[2] else []
            if z:
                zones.setdefault(f.name, []).append(z)
    zone = {c: [min(z[0] for z in zs), max(z[1] for z in zs), sum(z[2] for z in zs)]
            for c, zs in zones.items()}
    id_min, _, n_docs = zone.get("doc_id", [0, 0, 0])
    meta = dict(meta, num_docs=n_docs, min_doc_id=id_min, fastfield_stats=zone,
                write_id=uuid.uuid4().hex[:8])
    bloom = termbloom.build_term_blooms(terms)
    if bloom is not None:
        payload, meta["term_bloom"] = bloom
        with open(os.path.join(seg_dir, termbloom.TERMBLOOM_FILE), "wb") as f:
            f.write(payload)
    with open(os.path.join(seg_dir, META_FILE), "w") as f:
        json.dump(meta, f)
    return meta


def segment_parts(seg_dir: str, fname: str) -> list[str]:
    """The part files of one segment file, in row order: the single
    file of a fresh build, or the part files (same suffix) of a merged
    segment's directory, ordered by file name. Always files: Ray's
    read_parquet rejects a list mixing files and directories."""
    p = os.path.join(seg_dir, fname)
    if os.path.isfile(p):
        return [p]
    alt, suffix = os.path.splitext(p)
    if os.path.isdir(alt):
        return [os.path.join(alt, f) for f in sorted(os.listdir(alt)) if f.endswith(suffix)]
    raise FileNotFoundError(p)


# ---------------------------------------------------------------------------
# The doc store. A part file is its zstd frames back to back, then the
# footer: frame byte offsets (u64, one past the last frame's end too),
# decompressed frame sizes (u32), the stored Arrow schema (IPC bytes),
# and the trailer below.
# ---------------------------------------------------------------------------

_STORE_TRAILER = struct.Struct("<QII4s")  # doc count, frame count, schema bytes, magic
_STORE_MAGIC = b"TSF1"
_ZSTD = pa.Codec("zstd")


def _json_exact(t: pa.DataType) -> bool:
    """True for a type whose ``to_pylist`` values JSON gives back
    unchanged: strings, integers of any width, bools, floats, nulls, and
    dictionaries, lists and structs of those (a dictionary column is
    stored as its values)."""
    if (pa.types.is_string(t) or pa.types.is_large_string(t) or pa.types.is_integer(t)
            or pa.types.is_boolean(t) or pa.types.is_null(t)
            or pa.types.is_float32(t) or pa.types.is_float64(t)):
        return True
    if (pa.types.is_dictionary(t) or pa.types.is_list(t) or pa.types.is_large_list(t)
            or pa.types.is_fixed_size_list(t)):
        return _json_exact(t.value_type)
    if pa.types.is_struct(t):
        return all(_json_exact(t.field(i).type) for i in range(t.num_fields))
    return False


def _store_int_type(t: pa.DataType) -> pa.DataType | None:
    """How a stored column's values are written: None for a type JSON
    holds exactly (``_json_exact``); the type's own integer width for a
    date, time, timestamp or duration, whose values are written as
    integers and cast back on read. Any other type would come back from
    JSON as a different value, so it raises."""
    if _json_exact(t):
        return None
    if (pa.types.is_timestamp(t) or pa.types.is_date(t) or pa.types.is_time(t)
            or pa.types.is_duration(t)):
        return pa.int32() if t.bit_width == 32 else pa.int64()
    raise TypeError(f"the doc store cannot hold Arrow type {t}")


@dataclass
class _StoreFooter:
    """One store part's footer."""

    offsets: list[int]  # byte offset of every frame, then the frames' end
    raw: list[int]  # decompressed size of every frame
    n_docs: int
    schema: pa.Schema  # the stored columns, as written
    temporal: list  # (name, integer type, type) of the columns written as integers


def _write_frames(path: str, lines: list[bytes], schema: pa.Schema) -> None:
    """Write one store part: ``lines`` (one compact JSON doc each, in row
    order) in frames of STORE_BLOCK_ROWS, then the footer."""
    offsets, raw = [0], []
    with open(path, "wb") as f:
        for a in range(0, len(lines), STORE_BLOCK_ROWS):
            block = b"\n".join(lines[a : a + STORE_BLOCK_ROWS])
            offsets.append(offsets[-1] + f.write(_ZSTD.compress(block, asbytes=True)))
            raw.append(len(block))
        sch = schema.serialize().to_pybytes()
        f.write(np.asarray(offsets, "<u8").tobytes() + np.asarray(raw, "<u4").tobytes() + sch
                + _STORE_TRAILER.pack(len(lines), len(raw), len(sch), _STORE_MAGIC))


def write_store(path: str, store: pa.Table) -> None:
    """Write a store table (``doc_id`` first, rows in docvalues order) as
    one store part. Each row becomes the compact JSON object of its
    ``to_pylist`` dict; a column whose values JSON cannot give back
    unchanged raises here, before anything is written."""
    cols = {}
    for f in store.schema:
        try:
            int_type = _store_int_type(f.type)
        except TypeError as e:
            raise TypeError(f"stored field {f.name!r}: {e}") from None
        cols[f.name] = store[f.name] if int_type is None else store[f.name].cast(int_type)
    # json escapes newlines inside values, so a frame splits on b"\n";
    # ASCII escapes encode faster than UTF-8 and parse back the same
    dumps = json.JSONEncoder(separators=(",", ":")).encode
    lines = [dumps(d).encode() for d in pa.table(cols).to_pylist()]
    _write_frames(path, lines, store.schema.remove_metadata())


def _read_store_footer(path: str) -> _StoreFooter:
    fd = os.open(path, os.O_RDONLY)
    try:
        end = os.fstat(fd).st_size - _STORE_TRAILER.size
        n_docs, n_frames, n_schema, magic = _STORE_TRAILER.unpack(
            os.pread(fd, _STORE_TRAILER.size, end))
        if magic != _STORE_MAGIC:
            raise ValueError(f"{path}: not a doc store part")
        n = 12 * n_frames + 8 + n_schema
        buf = os.pread(fd, n, end - n)
    finally:
        os.close(fd)
    schema = pa.ipc.read_schema(pa.py_buffer(buf[n - n_schema :]))
    temporal = [(f.name, t, f.type) for f in schema
                if (t := _store_int_type(f.type)) is not None]
    return _StoreFooter(
        offsets=np.frombuffer(buf, "<u8", n_frames + 1).tolist(),
        raw=np.frombuffer(buf, "<u4", n_frames, 8 * (n_frames + 1)).tolist(),
        n_docs=n_docs, schema=schema, temporal=temporal,
    )


def filter_store_part(src: str, keep: np.ndarray, dst: str) -> None:
    """Re-frame store part ``src`` into ``dst`` keeping the rows ``keep``
    marks (one bool per row, from the paired docvalues part). Lines are
    copied as written: no JSON is parsed."""
    footer = _read_store_footer(src)
    if footer.n_docs != keep.size:
        raise RuntimeError(
            f"store part {src} holds {footer.n_docs} docs, its docvalues part {keep.size}")
    with open(src, "rb") as f:
        data = f.read(footer.offsets[-1])
    lines = []
    for a, b, r in zip(footer.offsets[:-1], footer.offsets[1:], footer.raw):
        lines += _ZSTD.decompress(data[a:b], decompressed_size=r, asbytes=True).split(b"\n")
    _write_frames(dst, [line for line, k in zip(lines, keep.tolist()) if k], footer.schema)


class StoredDocs(list):
    """The stored docs of one fetch, as dicts in doc-id order;
    ``num_rows`` counts them, as a table's does."""

    @property
    def num_rows(self) -> int:
        return len(self)


class _SortedPostings:
    """A segment's postings table sorted by (field, term, first_doc), so
    one term's shard rows are adjacent and in doc order: the table is
    its own term dictionary. Beside it sit only the lookup aids: the
    term column as an array to `searchsorted`, the df prefix sum and
    each field's row span. ``ordered`` says the table is in that order
    already (the build's own table): no sort is checked."""

    def __init__(self, postings: pa.Table, ordered: bool = False):
        if not ordered:
            keys = [("field", "ascending"), ("term", "ascending"), ("first_doc", "ascending")]
            order = pa.compute.sort_indices(postings, keys).to_numpy()
            # a fresh segment's file is in this order already, so only a
            # merged segment (hash-partitioned part files) pays the copy
            if (order[1:] < order[:-1]).any():
                postings = postings.take(order)
        self.table = postings.combine_chunks()
        self.terms = self.table["term"].to_numpy(zero_copy_only=False)
        self.df_cum = np.zeros(self.table.num_rows + 1, np.int64)  # df over rows [a, b) = cum[b] - cum[a]
        np.cumsum(self.table["df"].to_numpy(), out=self.df_cum[1:])
        runs = pa.compute.run_end_encode(self.table["field"].combine_chunks())
        ends = runs.run_ends.to_numpy().astype(np.int64).tolist()
        self.spans = dict(zip(runs.values.to_pylist(), zip([0] + ends[:-1], ends)))  # field -> [a, b)

    def lookup(self, field: str, terms: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(present terms, sorted and unique; their first row; one past
        their last row) — a searchsorted over the field's span. Terms
        that come strictly increasing (a rewritten fuzzy or regex query
        sends them so) skip the sort."""
        a, b = self.spans.get(field, (0, 0))
        want = np.asarray(terms, dtype=object)
        if not (want[1:] > want[:-1]).all():
            want = np.unique(want)
        lo = a + np.searchsorted(self.terms[a:b], want, side="left")
        hi = a + np.searchsorted(self.terms[a:b], want, side="right")
        hit = hi > lo
        return want[hit], lo[hit], hi[hit]


class SegmentReader:
    """Lazy reader over one segment directory.

    The segment's postings load once, on first touch, as one table
    sorted by (field, term, first_doc) (`_SortedPostings`, the
    scorer-actor state, SURVEY.md §7.2). That table is the term
    dictionary: every term-keyed read (`df_for_terms`,
    `postings_for_terms`, `term_dict`) is one searchsorted on its term
    column and then a slice or take of contiguous row ranges. Until the
    table is loaded, the term bloom keeps segments that lack every
    requested term from being read at all. Docvalues (norms / fast
    fields) load once per reader.

    A reader of a segment this process has just built starts loaded
    instead (`prime`): the catalog hands the tables it wrote to its
    searcher's next snapshot, so a commit reads none of them back.
    """

    def __init__(self, seg_dir: str):
        self.dir = seg_dir
        with open(os.path.join(seg_dir, META_FILE)) as f:
            self.meta = json.load(f)
        self._dv: pa.Table | None = None  # the docvalues columns read so far
        self._dv_names: list[str] | None = None
        self._postings: _SortedPostings | None = None  # lazy, see _sorted_postings
        self._bloom_bits: np.ndarray | None = None  # lazy termbloom.bin
        self._store_map: tuple | None = None  # lazy, see _store_footers
        self.postings_loads = 0  # postings tables read by _sorted_postings
        self.store_frames_read = 0  # store frames decompressed by store(ids)

    def prime(self, postings: pa.Table, docvalues: pa.Table) -> None:
        """Start loaded from the tables `write_segment` wrote to this
        directory (``postings`` and ``docvalues`` of `build_segment_tables`)
        instead of reading them back. `build_segment_tables` writes its
        postings in dictionary order, so they are taken as they are."""
        self._postings = _SortedPostings(postings, ordered=True)
        self._dv = docvalues
        self._dv_names = docvalues.column_names

    def carry(self) -> "SegmentReader":
        """This segment's reader for a newer index snapshot. What came
        from the segment's meta, side files and footers (the bloom
        bits, the docvalues columns read so far, the store footers)
        carries over; the postings table, the bulk of a reader's
        memory, loads again on first use."""
        r = copy.copy(self)
        r._postings = None
        return r

    @property
    def num_docs(self) -> int:
        return self.meta["num_docs"]

    def dv_column_names(self) -> list[str]:
        """Docvalues schema from the parquet FOOTER — no data pages."""
        if self._dv_names is None:
            p = segment_parts(self.dir, DOCVALUES_FILE)[0]
            self._dv_names = list(pq.read_schema(p).names)
        return self._dv_names

    _dv_fill = threading.Lock()  # held only to add read columns to a cache

    def docvalues(self, columns: list[str]) -> pa.Table:
        """Fast-field (docvalues) columns. Only the requested columns'
        data pages are fetched from storage (a range/sort query touches
        ONE fast field — at corpus scale the other columns are most of
        the file), and fetched columns accumulate in a cache. Row order
        is deterministic across separate column fetches: merged side
        files carry order-preserving lexicographic names."""
        cache = self._dv
        have = set() if cache is None else set(cache.column_names)
        missing = [c for c in columns if c not in have]
        if missing:
            t = pq.read_table(segment_parts(self.dir, DOCVALUES_FILE), columns=missing)
            # two threads that miss the same column both read it: add
            # only what is still missing, or the cache would hold the
            # column twice and every later select of it would raise
            with self._dv_fill:
                cache = self._dv
                have = set() if cache is None else set(cache.column_names)
                for name in missing:
                    if name in have:
                        continue
                    cache = (t.select([name]) if cache is None
                             else cache.append_column(t.schema.field(name), t[name]))
                    have.add(name)
                self._dv = cache
        return cache.select(columns)

    def doc_ids(self) -> np.ndarray:
        return self.docvalues(["doc_id"])["doc_id"].to_numpy(zero_copy_only=False)

    def _sorted_postings(self) -> _SortedPostings:
        """The postings table, read once: the one postings read."""
        if self._postings is None:
            self.postings_loads += 1
            self._postings = _SortedPostings(pq.read_table(segment_parts(self.dir, POSTINGS_FILE)))
        return self._postings

    def _bloom_surviving(self, field: str, terms: list[str]) -> list[str]:
        """Terms the segment MAY contain, per the term bloom filter
        (toshi_ray.termbloom). Segments without a bloom (pre-v5 or
        empty) return ``terms`` unchanged — pruning is opt-in and
        sound: a written term is always present in its bloom, and a
        field with any postings always has a bloom entry, so an empty
        survivor list proves the postings probe would find nothing."""
        bm = self.meta.get("term_bloom")
        if not bm or not terms:
            return terms
        fm = bm["fields"].get(field)
        if fm is None:
            return []  # segment holds no postings for this field at all
        if self._bloom_bits is None:
            self._bloom_bits = np.fromfile(
                os.path.join(self.dir, bm.get("file", termbloom.TERMBLOOM_FILE)),
                dtype=np.uint8,
            )
        mask = termbloom.may_contain(self._bloom_bits, fm, terms, bm["k"])
        return [t for t, keep in zip(terms, mask) if keep]

    def _lookup(self, field: str, terms: list[str]):
        """`_SortedPostings.lookup` of the requested terms, or None when
        none is present. Before the table is loaded the bloom answers
        first, so an absent term never loads it; after, the table
        answers alone."""
        if self._postings is None:
            terms = self._bloom_surviving(field, terms)
        if not terms:
            return None
        want, lo, hi = self._sorted_postings().lookup(field, terms)
        return (want, lo, hi) if want.size else None

    def df_for_terms(self, field: str, terms: list[str]) -> dict[str, int]:
        """{term: df summed across shard rows}, from the df prefix sum —
        the stats phase never touches a posting payload."""
        found = self._lookup(field, terms)
        if found is None:
            return {}
        want, lo, hi = found
        cum = self._postings.df_cum
        return dict(zip(want.tolist(), (cum[hi] - cum[lo]).tolist()))

    def postings_for_terms(
        self, field: str, terms: list[str], columns: list[str] | None = None
    ) -> pa.Table:
        """Postings rows of the present ``terms``, in dictionary order:
        by term, and each term's shard rows by first_doc, so their
        decoded lists concatenate in doc order. ``columns`` projects the
        result — term scoring passes ``["df", "doc_ids", "tfs"]`` so the
        positions payload (usually the largest column) is never copied
        for non-phrase queries. Terms whose rows are adjacent (one term,
        say) come back as a zero-copy slice."""
        found = self._lookup(field, terms)
        if found is None:
            return empty_postings(columns)
        _, lo, hi = found
        src = self._postings.table
        src = src if columns is None else src.select(columns)
        if np.array_equal(lo[1:], hi[:-1]):
            return src.slice(lo[0], hi[-1] - lo[0])
        return src.take(pa.array(codecs.range_indices(lo, hi - lo)))

    def term_dict(self, field: str) -> pa.Table:
        """The dictionary rows of ``field`` (field, term, df, first_doc),
        sorted by (term, first_doc) — for automaton queries (fuzzy/regex)
        and suggest. A zero-copy slice of the postings table."""
        p = self._sorted_postings()
        a, b = p.spans.get(field, (0, 0))
        return p.table.select(["field", "term", "df", "first_doc"]).slice(a, b - a)

    def _store_footers(self) -> tuple:
        """The store's part paths and footers, read once, with the first
        row of every part plus the total row count and the doc_id
        docvalues the store is addressed by. Footers are kept rather
        than open files, so a reader holds no file descriptor between
        fetches."""
        if self._store_map is None:
            paths = segment_parts(self.dir, STORE_FILE)
            footers = [_read_store_footer(p) for p in paths]
            starts = np.zeros(len(paths) + 1, dtype=np.int64)
            np.cumsum([f.n_docs for f in footers], out=starts[1:])
            if starts[-1] != self.doc_ids().size:
                raise RuntimeError(
                    f"segment {self.dir}: store rows out of step with the doc_id docvalues"
                    f" ({starts[-1]} stored docs, {self.doc_ids().size} doc ids)")
            self._store_map = (paths, footers, starts, self.doc_ids())
        return self._store_map

    def store(self, doc_ids: np.ndarray) -> StoredDocs:
        """The stored docs of ``doc_ids``, in doc-id order, parsing only
        the store frames that hold them: doc_id → row (searchsorted on
        the doc_id docvalues, whose row order the store shares) → part
        (footer doc counts) → frame (row // STORE_BLOCK_ROWS), one
        `pread` and one decompress per frame, and a JSON parse of the
        wanted lines only. Every requested id must have a stored row —
        a winner always does, tombstoned or not — so a missing id or a
        docvalues/store pair out of step raises instead of returning
        the wrong document."""
        ids = np.unique(np.asarray(doc_ids, dtype=np.uint64))
        docs = StoredDocs()
        if ids.size == 0:
            return docs
        paths, footers, starts, all_ids = self._store_footers()
        rows = np.searchsorted(all_ids, ids)
        found = rows < all_ids.size
        found[found] = all_ids[rows[found]] == ids[found]
        if not found.all():
            raise LookupError(
                f"segment {self.dir}: no stored row for doc ids {ids[~found][:8].tolist()}"
            )
        part = np.searchsorted(starts, rows, side="right") - 1
        local = rows - starts[part]
        for p in np.unique(part).tolist():
            footer, got, k = footers[p], [], -1
            fd = os.open(paths[p], os.O_RDONLY)
            try:
                for r in local[part == p].tolist():  # ascending, so each frame once
                    if r // STORE_BLOCK_ROWS != k:
                        k = r // STORE_BLOCK_ROWS
                        a, b = footer.offsets[k], footer.offsets[k + 1]
                        lines = _ZSTD.decompress(os.pread(fd, b - a, a), asbytes=True,
                                                 decompressed_size=footer.raw[k]).split(b"\n")
                        self.store_frames_read += 1
                    got.append(json.loads(lines[r % STORE_BLOCK_ROWS]))
            finally:
                os.close(fd)
            for name, int_type, typ in footer.temporal:
                values = pa.array([d[name] for d in got], int_type).cast(typ).to_pylist()
                for d, v in zip(got, values):
                    d[name] = v
            docs.extend(got)
        if [d["doc_id"] for d in docs] != ids.tolist():
            raise RuntimeError(
                f"segment {self.dir}: store rows out of step with the doc_id docvalues"
            )
        return docs


def decode_positions(table: pa.Table, tfs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of every posting of a postings table in one
    segmented decode, plus per-posting offsets into them (``tfs`` are
    the rows' decoded tfs: a posting's positions restart absolutely)."""
    offsets = np.zeros(tfs.size + 1, dtype=np.int64)
    np.cumsum(tfs, out=offsets[1:])
    gaps = codecs.varint_decode(_binary_parts(table["positions"])[0])
    return codecs.segmented_delta_decode(gaps, offsets), offsets
