"""Posting-list compression codecs — vectorized numpy, no Python loops over values.

One codec, **delta + varint** (LEB128), for doc-id gaps, term freqs and
position gaps. Doc-id deltas restart from an absolute id at the start
of every posting list, which decodes as a whole (see
`segments.encode_postings`); positions restart at every posting.
Reference: Toshi pins tantivy 0.19, see SURVEY.md §1.1 "Segment".

All encoders take / return numpy arrays and stay vectorized: encode
loops are bounded by max-bytes-per-value (≤10), never by the number of
values.

The engine's one string hash lives here too: `_hash_strings`, a 64-bit
hash per string over an Arrow buffer, and its splitmix64 finalizer
`_mix`. Term blooms, merge partitions, NDJSON doc ids and the dedup
groups are keyed by their values, which are frozen.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_U64 = np.uint64
_SEVEN = _U64(7)
_MASK7 = _U64(0x7F)

BLOCK = 128  # docs per block of `decode_doc_ids_blocked`


def varint_byte_lengths(values: np.ndarray) -> np.ndarray:
    """Number of LEB128 bytes each value needs (vectorized)."""
    v = np.asarray(values, dtype=_U64)
    n = np.ones(v.shape, dtype=np.int64)
    x = v >> _SEVEN
    while x.any():
        n += (x > 0)
        x = x >> _SEVEN
    return n


def varint_encode(values: np.ndarray) -> bytes:
    """LEB128-encode a uint array into one contiguous byte string."""
    return segmented_varint_encode(values, [0])[0]


def varint_decode(buf: bytes | np.ndarray) -> np.ndarray:
    """Decode a LEB128 byte string back to uint64 values (vectorized):
    value ends are the bytes below 0x80, and byte ``j`` of a value is
    OR-ed in only for the values that still have one."""
    b = np.frombuffer(buf, dtype=np.uint8) if not isinstance(buf, np.ndarray) else buf
    ends = np.flatnonzero(b < 0x80)
    starts = np.empty_like(ends)
    starts[:1] = 0
    starts[1:] = ends[:-1] + 1
    vals = (b[starts] & 0x7F).astype(_U64)
    live = np.flatnonzero(ends > starts)  # values with a byte j
    j = 1
    while live.size:
        at = starts[live] + j
        vals[live] |= (b[at] & 0x7F).astype(_U64) << _U64(7 * j)
        live = live[ends[live] > at]
        j += 1
    return vals


def delta_encode(sorted_values: np.ndarray) -> np.ndarray:
    """Gaps of a sorted uint array; first element kept absolute."""
    v = np.asarray(sorted_values, dtype=_U64)
    if v.size == 0:
        return v
    out = np.empty_like(v)
    out[0] = v[0]
    np.subtract(v[1:], v[:-1], out=out[1:])
    return out


def delta_decode(gaps: np.ndarray) -> np.ndarray:
    g = np.asarray(gaps, dtype=_U64)
    return np.cumsum(g, dtype=_U64)


def segmented_delta_decode(gaps: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Inverse of segmented_delta: each [offsets[i], offsets[i+1]) run
    restarts with an absolute value."""
    g = np.asarray(gaps, dtype=_U64)
    if g.size == 0:
        return g
    offs = np.asarray(offsets, dtype=np.int64)
    cs = np.cumsum(g, dtype=_U64)
    starts = offs[:-1]
    lens = np.diff(offs)
    nz = lens > 0
    base = cs[starts[nz]] - g[starts[nz]]
    return cs - np.repeat(base, lens[nz])


def block_offsets_for(count: int) -> np.ndarray:
    """Value offsets of 128-value blocks for one list of ``count`` values
    (len = n_blocks + 1)."""
    n_blocks = max(1, (count + BLOCK - 1) // BLOCK)
    offs = np.minimum(np.arange(n_blocks + 1, dtype=np.int64) * BLOCK, count)
    return offs


def decode_doc_ids_blocked(buf: bytes, count: int) -> np.ndarray:
    """Doc ids of a stream whose deltas restart every BLOCK values (the
    posting layout up to format 7). The engine no longer calls it;
    perfbench's tracer wraps it by name, so it stays until the
    benchmark drops that hook."""
    gaps = varint_decode(buf)
    return segmented_delta_decode(gaps, block_offsets_for(count))


def encode_doc_ids(doc_ids: np.ndarray) -> bytes:
    """delta + varint for a sorted doc-id run."""
    return varint_encode(delta_encode(doc_ids))


def decode_doc_ids(buf: bytes) -> np.ndarray:
    return delta_decode(varint_decode(buf))


# ---------------------------------------------------------------------------
# Flat-array helpers for encoding MANY posting lists in one vectorized pass
# ---------------------------------------------------------------------------

def range_indices(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The indices of many [start, start+len) ranges, concatenated."""
    total = int(lens.sum())
    shift = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    return np.arange(total, dtype=np.int64) + shift


def take_ranges(values: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Gather many [start, start+len) slices of ``values`` (vectorized)."""
    if starts.size == 0 or lens.sum() == 0:
        return values[:0]
    return values[range_indices(starts, lens)]


def segmented_delta(values: np.ndarray, list_offsets: np.ndarray) -> np.ndarray:
    """Delta-encode many concatenated sorted lists at once.

    ``list_offsets`` is the int64 offsets array (len = n_lists + 1) into
    ``values``. Within each list the first element stays absolute.
    """
    v = np.asarray(values, dtype=_U64)
    if v.size == 0:
        return v
    out = np.empty_like(v)
    out[0] = v[0]
    np.subtract(v[1:], v[:-1], out=out[1:])
    starts = np.asarray(list_offsets[:-1], dtype=np.int64)
    starts = starts[(starts > 0) & (starts < v.size)]
    out[starts] = v[starts]  # reset at list boundaries
    head = np.asarray(list_offsets, dtype=np.int64)
    if head.size and head[0] == 0 and v.size:
        out[0] = v[0]
    return out


def segmented_varint_encode(
    values: np.ndarray, list_offsets: np.ndarray
) -> tuple[bytes, np.ndarray]:
    """Varint-encode many concatenated lists in ONE pass.

    Returns ``(payload, byte_offsets)`` where ``byte_offsets`` (int64,
    len = n_lists + 1) slices ``payload`` per list — ready to wrap in an
    Arrow BinaryArray without per-list Python work.
    """
    v = np.asarray(values, dtype=_U64)
    nbytes = varint_byte_lengths(v)
    cum = np.zeros(v.size + 1, dtype=np.int64)
    np.cumsum(nbytes, out=cum[1:])
    out = np.empty(int(cum[-1]), dtype=np.uint8)
    # every value's first byte in one pass; later bytes only for the
    # values that need them
    out[cum[:-1]] = (v & _MASK7).astype(np.uint8) | ((nbytes > 1).astype(np.uint8) << 7)
    for j in range(1, int(nbytes.max(initial=1))):
        mask = nbytes > j
        byte = ((v[mask] >> _U64(7 * j)) & _MASK7).astype(np.uint8)
        cont = (nbytes[mask] - 1 > j).astype(np.uint8) << 7
        out[cum[:-1][mask] + j] = byte | cont
    return out.tobytes(), cum[np.asarray(list_offsets, dtype=np.int64)]


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — vectorized uint64 hash."""
    z = np.asarray(x, dtype=_U64) + _U64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


# _WORD_MASKS[t] keeps the low t bytes of a little-endian word
_WORD_MASKS = np.array([(1 << (8 * t)) - 1 for t in range(8)] + [2**64 - 1], dtype=_U64)


def _hash_strings(col: pa.Array) -> np.ndarray:
    """Deterministic 64-bit content hash per string (vectorized FNV over
    the flat byte buffer via numpy — no Python loop over rows). Each
    string is hashed as 8-byte little-endian words, its last one
    zero-filled, folded in order; bloom bits and dedup groups depend
    on these exact values."""
    col = col.cast(pa.large_binary())
    offs = np.frombuffer(col.buffers()[1], dtype=np.int64)[col.offset : col.offset + len(col) + 1]
    lens = np.diff(offs)
    out = np.zeros(len(col), dtype=_U64)
    max_len = int(lens.max()) if len(lens) else 0
    if max_len:
        lo, hi = int(offs[0]), int(offs[-1])
        buf = np.zeros(hi - lo + 7, np.uint8)  # 7 zero bytes: every word read stays in bounds
        buf[: hi - lo] = np.frombuffer(col.buffers()[2], np.uint8, hi - lo, lo)
        # word_at[p] = the 8 bytes from p on: one unaligned gather per word
        word_at = np.ndarray((hi - lo,), dtype="<u8", buffer=buf, strides=(1,))
        starts = offs[:-1] - lo
        P = _U64(1099511628211)
        for w in range(0, max_len, 8):
            active = lens > w  # rounds depend ONLY on the string's own length,
            # never the batch's max — equal strings hash equal at any batching
            take = np.minimum(lens[active] - w, 8)
            words = word_at[starts[active] + w] & _WORD_MASKS[take]
            out[active] = (out[active] * P) ^ _mix(words + _U64(w + 1))
    return out ^ _mix(lens.astype(_U64))
