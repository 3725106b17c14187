"""Per-segment term bloom filters — the textual analogue of the
fastfield zone maps (segment meta `fastfield_stats`).

Each segment's meta carries a ``term_bloom`` entry and a sibling
``termbloom.bin`` holds one bit array per indexed field, built over the
segment's term dictionary at write/merge time. A reader consults the
bloom while its in-memory term dictionary is not yet built: a segment
that provably lacks every requested term is skipped without opening its
postings file at all — no parquet footer, no dictionary load. Once a
lookup has loaded the dictionary, the exact dictionary answers and the
bloom is no longer probed. At 10^5+ segments (100 TB, doc-id- or
time-partitioned corpora where vocabularies drift across partitions) a
rare-term query degrades from O(segments) postings probes to
O(matching segments); the stats phase (global df) gets the same skip.

This mirrors what the reference gets from tantivy's per-segment FST
term dictionary (a miss is one FST walk — `toshi-server/src/handle.rs`
opens every segment regardless), made cheaper still because the bloom
is a single in-memory bit test per (term, probe).

Soundness: false positives only cost a postings probe that then finds
no rows; false negatives are impossible (every written term is
inserted); deletes never remove terms, so the bloom stays a superset of
the live vocabulary. A field with postings ALWAYS has a bloom entry
(built from the same table that is written), so "field absent from the
bloom" proves the segment holds no postings for it.

Layout: Kirsch–Mitzenmacher double hashing over the repo's vectorized
64-bit string hash (`codecs._hash_strings` — one numpy pass over the
Arrow buffer, no Python loop over terms): h1 = low 32 bits, h2 = high
32 bits | 1, probe_i = (h1 + i*h2) mod m, m a power of two sized at
~BITS_PER_TERM bits per unique term (k=7 probes → ~0.8% FPR at 10
bits/term). Bit arrays for all fields are concatenated into ONE side
file; meta records per-field (m, off, len, n).

A query probes the bloom of every segment it has not loaded with the
same few terms, so `may_contain` takes term hashes from one bounded,
module-level memo keyed by the term string: each term is hashed once,
not once per segment (an `ingest_visible` op made ~37 probes).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from toshi_ray.codecs import _hash_strings

TERMBLOOM_FILE = "termbloom.bin"
BLOOM_K = 7
BITS_PER_TERM = 10
MIN_BITS = 1 << 10
# cap one field's filter at 32 MiB of bits; beyond ~2.7e7 unique terms
# the FPR degrades gracefully instead of the side file growing unbounded
MAX_BITS = 1 << 28

_U = np.uint64


def _term_hashes(terms: pa.Array | pa.ChunkedArray) -> np.ndarray:
    if isinstance(terms, pa.ChunkedArray):
        terms = terms.combine_chunks()
    return _hash_strings(terms.cast(pa.large_binary()))


def _probe_positions(h: np.ndarray, m: int, k: int = BLOOM_K) -> np.ndarray:
    """(n, k) bit positions in [0, m); m must be a power of two."""
    h1 = h & _U(0xFFFFFFFF)
    h2 = (h >> _U(32)) | _U(1)
    i = np.arange(k, dtype=_U)
    return (h1[:, None] + i[None, :] * h2[:, None]) & _U(m - 1)


def _fill_bloom(h: np.ndarray, m: int, k: int = BLOOM_K) -> np.ndarray:
    """Set the k probe bits for every hash → packed uint8 bit array.

    Fills a transient bool array (one byte per BIT, m bytes peak — at
    the 2^28-bit cap that's a 256 MB scratch for the one task building
    a >10^7-term merged dictionary) then packs little-endian, matching
    ``_test_bits``'s ``bits[pos>>3] >> (pos&7)`` layout; fancy-index
    assignment + one packbits is ~40× faster than np.bitwise_or.at."""
    h1 = h & _U(0xFFFFFFFF)
    h2 = (h >> _U(32)) | _U(1)
    mask = _U(m - 1)
    bools = np.zeros(m, dtype=np.bool_)
    for i in range(k):
        bools[((h1 + _U(i) * h2) & mask).astype(np.int64)] = True
    return np.packbits(bools, bitorder="little")


def _test_bits(bits: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """→ bool per row of ``pos``: all K probed bits set (maybe present)."""
    byte_idx = (pos >> _U(3)).astype(np.int64)
    shifts = (pos & _U(7)).astype(np.int64)
    got = (bits[byte_idx].astype(np.int64) >> shifts) & 1
    return got.all(axis=1)


def build_term_blooms(postings: pa.Table) -> tuple[bytes, dict] | None:
    """Build per-field blooms from a postings / term-dict table with
    ``field`` + ``term`` columns → (payload bytes, meta dict), or None
    when the table has no rows (meta then omits ``term_bloom`` and
    readers simply don't prune)."""
    if postings.num_rows == 0:
        return None
    # one grouping pass: the dictionary holds the fields in first
    # appearance order, and a stable sort by its codes makes each
    # field's terms one contiguous slice
    fields = postings["field"].combine_chunks().dictionary_encode()
    codes = fields.indices.to_numpy()
    order = np.argsort(codes, kind="stable")
    bounds = np.searchsorted(codes[order], np.arange(len(fields.dictionary) + 1))
    terms = postings["term"].combine_chunks().take(order)
    parts: list[bytes] = []
    meta: dict = {"k": BLOOM_K, "file": TERMBLOOM_FILE, "fields": {}}
    off = 0
    for i, f in enumerate(fields.dictionary.to_pylist()):
        ft = pc.unique(terms.slice(int(bounds[i]), int(bounds[i + 1] - bounds[i])))  # shards collapse
        n = len(ft)
        m = 1 << int(np.ceil(np.log2(max(MIN_BITS, BITS_PER_TERM * n))))
        m = min(m, MAX_BITS)
        bits = _fill_bloom(_term_hashes(ft), m)
        blen = bits.nbytes
        parts.append(bits.tobytes())
        meta["fields"][f] = {"m": m, "off": off, "len": blen, "n": n}
        off += blen
    return b"".join(parts), meta


# Bounded by a clear. A lookup fills its own result and never reads the
# memo back, so a clear by a concurrent search cannot lose a hash.
_HASH_MEMO: dict[str, int] = {}
_HASH_MEMO_MAX = 1 << 14


def _memo_hashes(terms: list[str]) -> np.ndarray:
    """`_term_hashes` of ``terms``, hashing only the terms the memo does
    not hold, in one call."""
    out = np.empty(len(terms), _U)
    missing = []
    for i, t in enumerate(terms):
        h = _HASH_MEMO.get(t)
        if h is None:
            missing.append(i)
        else:
            out[i] = h
    if missing:
        new = [terms[i] for i in missing]
        hashed = _term_hashes(pa.array(new, type=pa.string()))
        out[missing] = hashed
        if len(_HASH_MEMO) + len(new) > _HASH_MEMO_MAX:
            _HASH_MEMO.clear()
        _HASH_MEMO.update(zip(new[:_HASH_MEMO_MAX], hashed.tolist()))
    return out


def may_contain(
    bits: np.ndarray, field_meta: dict, terms: list[str], k: int = BLOOM_K
) -> np.ndarray:
    """→ bool mask over ``terms``: True = the segment MAY contain it.
    ``k`` must be the writer's probe count (segment meta ``term_bloom.k``)."""
    view = bits[field_meta["off"] : field_meta["off"] + field_meta["len"]]
    return _test_bits(view, _probe_positions(_memo_hashes(terms), field_meta["m"], k))
