"""Immutable segment format — the on-disk unit of the index.

A segment mirrors what a Tantivy segment holds (SURVEY.md §1.1
"Segment"; reference opens them via `toshi-server/src/handle.rs:221-232`)
re-expressed as Parquet so Ray Data / pyarrow can stream it:

    seg-<min_doc>-<n>/
      postings.parquet   term dictionary + compressed posting lists
                         (field, term, shard, df, first_doc, last_doc,
                          doc_ids Δ+varint, tfs varint,
                          positions Δ+varint)
                                        — sorted by (field, term, shard)
      docvalues.parquet  per-doc columnar values: doc_id, 1-byte fieldnorm
                         codes per text field, numeric fast fields,
                         facet paths  — sorted by doc_id
      store.parquet      stored fields for retrieval — sorted by doc_id, in
                         STORE_BLOCK_ROWS-row zstd row groups: the unit a
                         winner fetch decodes
      meta.json          doc counts + exact per-field token totals
                         (global BM25 stats are summed from these)

All posting lists for one batch of documents are built in ONE
vectorized pass (dictionary-encode + lexsort + reduceat). Postings rows
have one writer, `encode_postings` (one segmented encode of every
list's payloads), which the build, the merge and delete application
all call; `decode_postings` is its bulk inverse.

Multiple rows may exist for one (field, term): hot terms are sharded by
doc-range (`shard` column) so the merge stage can salt skewed keys and
readers just concatenate shards in order (SURVEY.md §7.3/§7.4).
"""

from __future__ import annotations

import json
import os
import uuid
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from toshi_ray import codecs
from toshi_ray.analyzer import get_analyzer
from toshi_ray.fieldnorm import fieldnorm_to_id
from toshi_ray.schema import FACET, Schema

POSTINGS_FILE = "postings.parquet"
DOCVALUES_FILE = "docvalues.parquet"
STORE_FILE = "store.parquet"
META_FILE = "meta.json"

# The doc store is written in small fixed row groups so a winner fetch
# decodes only the blocks holding its rows (tantivy's block-compressed
# doc store with a skip index, SURVEY.md §1.1). Readers take the block
# bounds from each store part's footer, so stores written with any
# other grouping (one group per file, Ray-sized groups) read the same.
STORE_BLOCK_ROWS = 64
STORE_COMPRESSION = "zstd"

POSTINGS_SCHEMA = pa.schema([
    ("field", pa.string()),
    ("term", pa.string()),
    ("shard", pa.int32()),
    ("df", pa.uint32()),
    ("first_doc", pa.uint64()),
    ("last_doc", pa.uint64()),
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
    pass — the one writer of the posting layout (build, merge and delete
    application all call it).

    ``doc_ids`` (ascending within each list) and ``tfs`` are flat arrays
    cut into non-empty lists by ``offsets`` (len = n_lists + 1); ``field``,
    ``term`` and ``shard`` hold one value per list. ``positions`` come
    already encoded, one binary per list (None: a field without them).

    Each list's doc ids are delta-coded from an absolute first id, so
    ONE segmented encode covers every list; a row also carries its
    first and last doc id (the merge's tombstone range pre-filter)."""
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
            "last_doc": doc_ids[offsets[1:] - 1],
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
    Returns the postings rows plus the per-doc fieldnorm token counts.
    """
    analyzer = get_analyzer(tokenizer)
    tc = analyzer.tokenize_column(col)
    term_ids, vocab = tc.term_ids()
    n_docs = len(doc_ids)

    if term_ids.size == 0:
        return PostingsBatch(table=empty_postings(), total_tokens=0), np.zeros(n_docs, np.int64)

    # vocab order from dictionary_encode is first-appearance; remap to
    # sorted (arrow C++ sort on the strings, numpy only on the indices)
    sort_vocab = pa.compute.sort_indices(vocab).to_numpy(zero_copy_only=False).astype(np.int64)
    rank = np.empty_like(sort_vocab)
    rank[sort_vocab] = np.arange(sort_vocab.size)
    term_ids = rank[term_ids]
    vocab_sorted = vocab.take(pa.array(sort_vocab))

    order = np.lexsort((tc.positions, tc.doc_index, term_ids))
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
    """Turn one batch of documents into (postings, docvalues, store, meta)."""
    if doc_id_col not in batch.column_names:
        raise ValueError(f"batch must carry a '{doc_id_col}' column")
    order = pa.compute.sort_indices(batch[doc_id_col])
    batch = batch.take(order)
    doc_ids = batch[doc_id_col].to_numpy(zero_copy_only=False).astype(np.uint64)

    posting_parts: list[pa.Table] = []
    dv_cols: dict[str, pa.Array] = {doc_id_col: pa.array(doc_ids, type=pa.uint64())}
    field_stats: dict[str, dict] = {}
    # zone map: [min, max, n_valid] per integer fast field — a range /
    # numeric-term query skips the whole segment (no docvalues data
    # pages) when its bounds are disjoint with the segment's; n_valid
    # (the NON-NULL value count — docs missing the field don't carry a
    # value) lets the sort-by floor bound the k-th value soundly
    fastfield_stats: dict[str, list[int]] = (
        {doc_id_col: [int(doc_ids.min()), int(doc_ids.max()), int(len(doc_ids))]}
        if len(doc_ids)
        else {}
    )

    for f in schema.fields:
        if f.is_text and f.indexed:
            if f.name not in batch.column_names:
                continue
            pb, norms = build_field_postings(
                f.name, f.tokenizer, batch[f.name], doc_ids, f.positions
            )
            posting_parts.append(pb.table)
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
            if f.type != "date":
                arr = dv_cols[f.name]
                mm = pa.compute.min_max(arr)
                if mm["min"].is_valid:
                    fastfield_stats[f.name] = [
                        mm["min"].as_py(),
                        mm["max"].as_py(),
                        len(arr) - arr.null_count,
                    ]
        elif f.type == FACET and f.name in batch.column_names:
            dv_cols[f"facet_{f.name}"] = batch[f.name].cast(pa.string()).combine_chunks()

    postings = (
        pa.concat_tables(posting_parts).sort_by(
            [("field", "ascending"), ("term", "ascending"), ("shard", "ascending")]
        )
        if posting_parts
        else empty_postings()
    )
    docvalues = pa.table(dv_cols)

    stored_names = [doc_id_col] + [
        f.name for f in schema.stored_fields if f.name in batch.column_names and f.name != doc_id_col
    ]
    store = batch.select(stored_names)

    meta = {
        "num_docs": len(batch),
        "min_doc_id": int(doc_ids.min()) if len(doc_ids) else 0,
        "max_doc_id": int(doc_ids.max()) if len(doc_ids) else 0,
        "field_stats": field_stats,
        "fastfield_stats": fastfield_stats,
        "num_terms": postings.num_rows,
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
    meta = dict(meta, name=name)
    final = os.path.join(segments_dir, name)
    if os.path.exists(os.path.join(final, META_FILE)):
        with open(os.path.join(final, META_FILE)) as f:
            return json.load(f)
    tmp = os.path.join(segments_dir, f".tmp-{name}-{uuid.uuid4().hex[:8]}")
    os.makedirs(tmp, exist_ok=True)
    pq.write_table(postings, os.path.join(tmp, POSTINGS_FILE))
    from toshi_ray import termbloom

    bloom = termbloom.build_term_blooms(postings)
    if bloom is not None:
        payload, bmeta = bloom
        with open(os.path.join(tmp, termbloom.TERMBLOOM_FILE), "wb") as f:
            f.write(payload)
        meta["term_bloom"] = bmeta
    pq.write_table(docvalues, os.path.join(tmp, DOCVALUES_FILE))
    pq.write_table(
        store,
        os.path.join(tmp, STORE_FILE),
        row_group_size=STORE_BLOCK_ROWS,
        compression=STORE_COMPRESSION,
    )
    with open(os.path.join(tmp, META_FILE), "w") as f:
        json.dump(meta, f)
    from toshi_ray.storage import get_storage

    # losing the publish race to an identical-content twin keeps theirs;
    # any other failure raises (see toshi_ray.storage)
    get_storage().publish_dir(tmp, final, META_FILE)
    return meta


POSTINGS_CACHE_MAX_BYTES = 256 << 20  # above this, pushdown instead of caching


class _TermDict:
    """A segment's sorted term dictionary: one entry per postings row —
    ``field, term, df, first_doc`` and ``row`` (its row number
    in the postings file) — sorted by (field, term, first_doc), so one
    term's shard rows are adjacent and in doc order."""

    def __init__(self, entries: pa.Table):
        n = entries.num_rows
        self.table = (
            entries.append_column("row", pa.array(np.arange(n, dtype=np.int64)))
            .sort_by([("field", "ascending"), ("term", "ascending"), ("first_doc", "ascending")])
            .combine_chunks()
        )
        self.terms = self.table["term"].to_numpy(zero_copy_only=False)
        self.rows = self.table["row"].to_numpy()
        self.df_cum = np.zeros(n + 1, np.int64)  # df summed over entries [a, b) = cum[b] - cum[a]
        np.cumsum(self.table["df"].to_numpy(), out=self.df_cum[1:])
        runs = pa.compute.run_end_encode(self.table["field"].combine_chunks())
        ends = runs.run_ends.to_numpy().astype(np.int64).tolist()
        self.spans = dict(zip(runs.values.to_pylist(), zip([0] + ends[:-1], ends)))  # field -> [a, b)

    def lookup(self, field: str, terms: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(present terms, sorted and unique; their first entry; one past
        their last entry) — a searchsorted over the field's slice."""
        a, b = self.spans.get(field, (0, 0))
        want = np.unique(np.asarray(terms, dtype=object))
        lo = a + np.searchsorted(self.terms[a:b], want, side="left")
        hi = a + np.searchsorted(self.terms[a:b], want, side="right")
        hit = hi > lo
        return want[hit], lo[hit], hi[hit]


class SegmentReader:
    """Lazy reader over one segment directory.

    Every term-keyed read (`df_for_terms`, `postings_for_terms`,
    `term_dict`) goes through one in-memory term dictionary, built on
    first touch (`_TermDict`). Where payload rows come from depends on
    the segment's postings size: up to ``POSTINGS_CACHE_MAX_BYTES`` the
    reader keeps the whole postings table (the scorer-actor state,
    SURVEY.md §7.2) and takes rows from it; above it, the dictionary
    comes from a column-projected read and payloads from a parquet
    predicate read per lookup, so a scorer never pulls an over-heap
    segment into memory. Until the dictionary is built, the term bloom
    keeps segments that lack every requested term from being read at
    all. Docvalues (norms / fast fields) load once per reader.
    """

    def __init__(self, seg_dir: str):
        self.dir = seg_dir
        with open(os.path.join(seg_dir, META_FILE)) as f:
            self.meta = json.load(f)
        self._docvalues: pa.Table | None = None
        self._dv_partial: pa.Table | None = None  # column-projected cache
        self._dv_names: list[str] | None = None
        self._postings_all: pa.Table | None = None  # set by a cached-mode dictionary
        self._dict: _TermDict | None = None  # lazy, see _term_dict
        self._bloom_bits: np.ndarray | None = None  # lazy termbloom.bin
        self._store_map: tuple | None = None  # lazy, see _store_blocks
        self.store_blocks_read = 0  # store row groups decoded by store(ids)

    def _postings_bytes(self) -> int:
        p = self._path(POSTINGS_FILE)
        if os.path.isdir(p):
            return sum(
                os.path.getsize(os.path.join(dp, f))
                for dp, _, fs in os.walk(p)
                for f in fs
            )
        return os.path.getsize(p)

    def _path(self, fname: str) -> str:
        """A segment part is a single file (fresh build) or a directory
        of parquet parts (merged segment)."""
        p = os.path.join(self.dir, fname)
        if os.path.exists(p):
            return p
        alt = os.path.join(self.dir, fname.replace(".parquet", ""))
        if os.path.isdir(alt):
            return alt
        raise FileNotFoundError(p)

    def _parts(self, fname: str) -> list[str]:
        """The part files of one segment file, in row order: merged
        segments order their parts by file name."""
        p = self._path(fname)
        if not os.path.isdir(p):
            return [p]
        return [os.path.join(p, f) for f in sorted(os.listdir(p)) if f.endswith(".parquet")]

    @property
    def num_docs(self) -> int:
        return self.meta["num_docs"]

    def dv_column_names(self) -> list[str]:
        """Docvalues schema from the parquet FOOTER — no data pages."""
        if self._dv_names is None:
            p = self._parts(DOCVALUES_FILE)[0]
            self._dv_names = list(pq.read_schema(p).names)
        return self._dv_names

    def docvalues(self, columns: list[str] | None = None) -> pa.Table:
        """Fast-field (docvalues) columns. ``columns`` projects the read:
        only the requested columns' data pages are fetched from storage
        (a range/sort query touches ONE fast field — at corpus scale the
        other columns are most of the file). Projected fetches accumulate
        in a partial cache; a full-table read (columns=None) supersedes
        it. Row order is deterministic across separate column fetches:
        merged side files carry order-preserving lexicographic names."""
        if columns is None:
            if self._docvalues is None:
                self._docvalues = pq.read_table(self._path(DOCVALUES_FILE))
                self._dv_partial = None
            return self._docvalues
        if self._docvalues is not None:
            return self._docvalues.select(columns)
        have = set(self._dv_partial.column_names) if self._dv_partial is not None else set()
        missing = [c for c in columns if c not in have]
        if missing:
            t = pq.read_table(self._path(DOCVALUES_FILE), columns=missing)
            if self._dv_partial is None:
                self._dv_partial = t
            else:
                for name in missing:
                    self._dv_partial = self._dv_partial.append_column(
                        t.schema.field(name), t[name]
                    )
        return self._dv_partial.select(columns)

    def doc_ids(self) -> np.ndarray:
        return self.docvalues(["doc_id"])["doc_id"].to_numpy(zero_copy_only=False)

    def _term_dict(self) -> _TermDict:
        """The dictionary, built once. A segment within
        POSTINGS_CACHE_MAX_BYTES loads (and keeps) its whole postings
        table; a larger one reads only the dictionary columns."""
        if self._dict is None:
            cols = ["field", "term", "df", "first_doc"]
            if self._postings_bytes() <= POSTINGS_CACHE_MAX_BYTES:
                self._postings_all = pq.read_table(self._path(POSTINGS_FILE)).combine_chunks()
                self._dict = _TermDict(self._postings_all.select(cols))
            else:
                self._dict = _TermDict(pq.read_table(self._path(POSTINGS_FILE), columns=cols))
        return self._dict

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
        from toshi_ray import termbloom

        if self._bloom_bits is None:
            self._bloom_bits = np.fromfile(
                os.path.join(self.dir, bm.get("file", termbloom.TERMBLOOM_FILE)),
                dtype=np.uint8,
            )
        mask = termbloom.may_contain(self._bloom_bits, fm, terms, bm["k"])
        return [t for t, keep in zip(terms, mask) if keep]

    def _lookup(self, field: str, terms: list[str]):
        """`_TermDict.lookup` of the requested terms, or None when none
        is present. Before the dictionary is built the bloom answers
        first, so an absent term never loads it; after, the exact
        dictionary answers alone."""
        if self._dict is None:
            terms = self._bloom_surviving(field, terms)
        if not terms:
            return None
        want, lo, hi = self._term_dict().lookup(field, terms)
        return (want, lo, hi) if want.size else None

    def df_for_terms(self, field: str, terms: list[str]) -> dict[str, int]:
        """{term: df summed across shard rows}, from the dictionary — the
        stats phase never touches a posting payload."""
        found = self._lookup(field, terms)
        if found is None:
            return {}
        want, lo, hi = found
        cum = self._dict.df_cum
        return dict(zip(want.tolist(), (cum[hi] - cum[lo]).tolist()))

    def postings_for_terms(
        self, field: str, terms: list[str], columns: list[str] | None = None
    ) -> pa.Table:
        """Postings rows of the present ``terms``, in dictionary order:
        by term, and each term's shard rows by first_doc, so their
        decoded lists concatenate in doc order. ``columns`` projects the
        fetch — term scoring passes ``["df", "doc_ids", "tfs"]`` so the
        positions payload (usually the largest column) is never copied
        for non-phrase queries."""
        found = self._lookup(field, terms)
        if found is None:
            return empty_postings(columns)
        want, lo, hi = found
        if self._postings_all is not None:
            src = self._postings_all if columns is None else self._postings_all.select(columns)
            return src.take(pa.array(codecs.take_ranges(self._dict.rows, lo, hi - lo)))
        import pyarrow.dataset as pads

        key = ["term", "first_doc"]
        expr = (pads.field("field") == field) & pads.field("term").isin(want.tolist())
        read = None if columns is None else columns + [c for c in key if c not in columns]
        t = pq.read_table(self._path(POSTINGS_FILE), filters=expr, columns=read)
        t = t.sort_by([(c, "ascending") for c in key])
        return t if columns is None else t.select(columns)

    def all_postings(self) -> pa.Table:
        """Every postings row, in file order."""
        self._term_dict()
        if self._postings_all is not None:
            return self._postings_all
        return pq.read_table(self._path(POSTINGS_FILE))

    def term_dict(self, field: str) -> pa.Table:
        """The dictionary entries of ``field`` (field, term, df,
        first_doc, row), sorted by (term, first_doc) — for automaton
        queries (fuzzy/regex) and suggest."""
        d = self._term_dict()
        a, b = d.spans.get(field, (0, 0))
        return d.table.slice(a, b - a)

    def _store_blocks(self) -> tuple:
        """The store's block map, built once from the part footers (no
        data pages): (part (path, parsed footer) pairs, first global row
        of every block plus the total row count, each block's part and
        row group within it, the doc_id docvalues it is addressed by).
        Footers are cached rather than open files, so a reader holds no
        file descriptor between fetches."""
        if self._store_map is None:
            parts = [(p, pq.read_metadata(p)) for p in self._parts(STORE_FILE)]
            n_groups = [md.num_row_groups for _, md in parts]
            sizes = [md.row_group(rg).num_rows for _, md in parts for rg in range(md.num_row_groups)]
            starts = np.zeros(len(sizes) + 1, dtype=np.int64)
            np.cumsum(sizes, out=starts[1:])
            block_part = np.repeat(np.arange(len(parts)), n_groups)
            block_rg = np.concatenate([np.arange(n) for n in n_groups] or [np.empty(0, np.int64)])
            self._store_map = (parts, starts, block_part, block_rg, self.doc_ids())
        return self._store_map

    def store(self, doc_ids: np.ndarray | None = None) -> pa.Table:
        """Stored fields; ``doc_ids`` fetches just those docs, in doc-id
        order, decoding only the store blocks that hold them:
        doc_id → row (searchsorted on the doc_id docvalues, whose row
        order the store shares) → block (footer row counts). Every
        requested id must have a stored row — a winner always does,
        tombstoned or not — so a missing id or a docvalues/store pair
        out of step raises instead of returning the wrong document."""
        if doc_ids is None:
            return pq.read_table(self._path(STORE_FILE))
        parts, starts, block_part, block_rg, all_ids = self._store_blocks()
        ids = np.unique(np.asarray(doc_ids, dtype=np.uint64))
        if ids.size == 0:
            return parts[0][1].schema.to_arrow_schema().empty_table()
        rows = np.searchsorted(all_ids, ids)
        found = rows < all_ids.size
        found[found] = all_ids[rows[found]] == ids[found]
        if not found.all():
            raise LookupError(
                f"segment {self.dir}: no stored row for doc ids {ids[~found][:8].tolist()}"
            )
        block = np.searchsorted(starts, rows, side="right") - 1
        need, which = np.unique(block, return_inverse=True)
        tables = []
        for part in np.unique(block_part[need]):
            path, md = parts[part]
            with pq.ParquetFile(path, metadata=md) as f:
                # a few small blocks: handing them to Arrow's thread
                # pool costs more CPU than decoding them in line
                rgs = block_rg[need[block_part[need] == part]].tolist()
                tables.append(f.read_row_groups(rgs, use_threads=False))
        self.store_blocks_read += need.size
        # row offset of each needed block within the concatenated read
        base = np.zeros(need.size, dtype=np.int64)
        np.cumsum((starts[need + 1] - starts[need])[:-1], out=base[1:])
        out = pa.concat_tables(tables).take(pa.array(base[which] + rows - starts[block]))
        if not np.array_equal(out["doc_id"].to_numpy(zero_copy_only=False), ids):
            raise RuntimeError(
                f"segment {self.dir}: store rows out of step with the doc_id docvalues"
            )
        return out


def decode_positions(table: pa.Table, tfs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of every posting of a postings table in one
    segmented decode, plus per-posting offsets into them (``tfs`` are
    the rows' decoded tfs: a posting's positions restart absolutely)."""
    offsets = np.zeros(tfs.size + 1, dtype=np.int64)
    np.cumsum(tfs, out=offsets[1:])
    gaps = codecs.varint_decode(_binary_parts(table["positions"])[0])
    return codecs.segmented_delta_decode(gaps, offsets), offsets
