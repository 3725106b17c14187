r"""Text analysis chain — Tantivy 0.19 "default" analyzer, vectorized over Arrow.

The reference selects tokenizer "default" in its schemas (reference
`schema.json:8`, `toshi-server/src/handlers/index.rs:86-87`); tantivy
0.19's default chain is:

    SimpleTokenizer   — split on non-alphanumeric (Unicode: L* | N*)
    RemoveLongFilter  — drop tokens whose UTF-8 byte length >= 40
    LowerCaser        — Unicode lowercase

This chain defines the index vocabulary, so it is implemented ONCE here
and shared by the index build, query-side analysis and every oracle.
Token *positions* are assigned before RemoveLongFilter runs (dropping a
long token leaves a position gap), matching tantivy's tokenizer/filter
split — phrase queries see those gaps.

Everything is vectorized; no Python loop over rows or tokens. The
split is one byte-mask pass: every byte of a non-word character is set
to 0x00 in a copy of the column's UTF-8 bytes, and one literal
`split_pattern` on "\x00" cuts the tokens. RE2 still defines the word
class, `[\p{L}\p{N}]`, applied per code point: once at import for the
128 ASCII bytes, and once per batch for the batch's distinct non-ASCII
code points, each decoded at its lead byte only. The cut equals the
regex split on `[^\p{L}\p{N}]+` but for the empty tokens between
adjacent separators, which the chain drops either way. Numpy offset
arithmetic does the rest.

Chain ORDER matches tantivy exactly: the un-lowered column is split,
the 40-byte RemoveLongFilter is applied to the ORIGINAL token bytes,
and only the surviving tokens are lowercased (LowerCaser last). This
matters on Unicode input where case folding changes character class or
byte length — a fold-first chain would lowercase 'İ' (U+0130) into a
combining-mark form and shred the token at the split step; the pinned
engine (and this chain) keeps the token whole. Still the same two
Arrow kernels, just swapped — lowercasing now touches only kept
tokens. On ASCII text the DuckDB oracle twin
(`regexp_split_to_array(lower(text), ...)`) remains byte-identical.

Lowercase semantics match Rust `char::to_lowercase` (what tantivy's
LowerCaser applies per character, deliberately WITHOUT the contextual
Final_Sigma rule): Arrow's `utf8_lower` (utf8proc simple mapping)
plus an explicit pre-expansion of U+0130 'İ' → 'i' + U+0307 — the
single character whose full Unicode lowercase is multi-char
(SpecialCasing.txt's only unconditional lowercase entry). 'ẞ'→'ß'
and Σ→σ-everywhere are already identical in both mappings. No known
engine-parity gap remains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from toshi_ray import codecs

# One word character (Unicode L* | N*, Rust char::is_alphanumeric), in
# RE2 syntax, matched against one-character strings.
_WORD_CHAR = r"^[\p{L}\p{N}]$"
MAX_TOKEN_BYTES = 40  # RemoveLongFilter::limit(40): keep len(utf8) < 40


def _is_word_char(chars: pa.Array) -> np.ndarray:
    """One bool per one-character string: is it a word character."""
    return pc.match_substring_regex(chars, pattern=_WORD_CHAR).to_numpy(zero_copy_only=False)


def _keep_byte_table() -> pa.Array:
    """Byte -> itself, or 0x00 for an ASCII byte outside the word class.
    Bytes >= 0x80 map to themselves; `_mask_non_words` clears those of
    non-word characters per code point."""
    keep = np.arange(256, dtype=np.uint8)
    keep[:128][~_is_word_char(pa.array([chr(b) for b in range(128)]))] = 0
    return pa.array(keep)


_KEEP_BYTE = _keep_byte_table()


def _mask_non_words(col: pa.Array) -> pa.Array:
    """``col`` (string or large_string, no nulls, any slice) with every
    byte of a non-word character set to 0x00, as a new array of the
    same type and row count.

    ASCII bytes map through `_KEEP_BYTE` (an Arrow take with the bytes
    as uint8 indices, so no per-byte index array). A multi-byte
    character is decoded at its lead byte (>= 0xC0) only; the batch's
    distinct code points are classed by one RE2 match and each class
    spreads over its character's bytes. Working memory is the masked
    copy plus one bool per byte for the lead-byte scan."""
    n = len(col)
    offs = np.frombuffer(col.buffers()[1], np.int64 if pa.types.is_large_string(col.type)
                         else np.int32)[col.offset : col.offset + n + 1]
    lo, hi = int(offs[0]), int(offs[-1])
    if hi == lo:
        return col  # no bytes, so no word to cut
    raw = pa.Array.from_buffers(pa.uint8(), hi - lo, [None, col.buffers()[2]], offset=lo)
    masked = pc.take(_KEEP_BYTE, raw).buffers()[1]
    data = np.frombuffer(col.buffers()[2], np.uint8, hi - lo, lo)
    lead = np.flatnonzero(data >= 0xC0)
    if lead.size:
        b0 = data[lead].astype(np.int64)
        width = 2 + (b0 >= 0xE0) + (b0 >= 0xF0)  # UTF-8 sequence bytes
        cp = b0 & (0x7F >> width)
        for k in (1, 2, 3):
            more = np.flatnonzero(width > k)
            cp[more] = (cp[more] << 6) | (data[lead[more] + k] & 0x3F)
        _, first, inv = np.unique(cp, return_index=True, return_inverse=True)
        char_offs = np.zeros(first.size + 1, np.int32)
        np.cumsum(width[first], out=char_offs[1:])
        char_bytes = data[codecs.range_indices(lead[first], width[first])]
        chars = pa.Array.from_buffers(pa.string(), first.size, [
            None, pa.py_buffer(char_offs), pa.py_buffer(char_bytes)])
        drop = ~_is_word_char(chars)[inv]
        out = np.frombuffer(masked, np.uint8)  # the take's own fresh buffer
        out[codecs.range_indices(lead[drop], width[drop])] = 0
    return pa.Array.from_buffers(col.type, n, [None, pa.py_buffer(offs - lo), masked])


@dataclass
class TokenizedColumn:
    """Flat (token, doc, position) triples for one analyzed column.

    ``terms`` is a flat Arrow string array; ``doc_index[i]`` is the
    row-in-batch the i-th token came from; ``positions[i]`` its position
    in that row's token stream (with gaps where long tokens dropped);
    ``norms[d]`` the per-row kept-token count (fieldnorm input).

    Tokens come in (doc, position) order: ``doc_index`` ascending, and
    ``positions`` non-decreasing within a doc. The postings build
    relies on it (one stable sort by term) and refuses a column that
    breaks it.
    """

    terms: pa.Array
    doc_index: np.ndarray
    positions: np.ndarray
    norms: np.ndarray

    def term_ids(self) -> tuple[np.ndarray, pa.Array]:
        """Dictionary-encode terms → (int32 ids, vocab string array)."""
        d = self.terms.dictionary_encode()
        return d.indices.to_numpy(zero_copy_only=False), d.dictionary


class DefaultAnalyzer:
    """Tantivy-0.19 "default" chain, batch-vectorized."""

    name = "default"

    def tokenize_column(self, col: pa.Array | pa.ChunkedArray) -> TokenizedColumn:
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        col = pc.fill_null(col, "")
        # SimpleTokenizer first: split the UN-lowered text (LowerCaser
        # runs last in tantivy's chain — see module docstring)
        lists = pc.split_pattern(_mask_non_words(col), pattern="\x00")
        flat = lists.flatten()
        offsets = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        n_docs = len(lists)
        counts = np.diff(offsets)
        doc_index = np.repeat(np.arange(n_docs, dtype=np.int64), counts)

        byte_len = pc.binary_length(flat.cast(pa.binary())).to_numpy(zero_copy_only=False)
        nonempty = byte_len > 0
        # position = index among this doc's non-empty tokens (pre-filter)
        cum = np.cumsum(nonempty, dtype=np.int64)
        base_at_doc_start = np.zeros(n_docs, dtype=np.int64)
        has = counts > 0
        starts = offsets[:-1]
        base_at_doc_start[has] = cum[starts[has]] - nonempty[starts[has]]
        positions_all = cum - 1 - base_at_doc_start[doc_index] if len(flat) else cum

        # RemoveLongFilter sees the ORIGINAL token bytes (pre-lowering);
        # LowerCaser is last and touches only the kept tokens
        keep = nonempty & (byte_len < MAX_TOKEN_BYTES)
        keep_idx = np.nonzero(keep)[0]
        kept = flat.take(pa.array(keep_idx))
        # Full-mapping parity with Rust char::to_lowercase (tantivy's
        # LowerCaser lowercases per char and deliberately skips the
        # contextual Final_Sigma rule): the ONLY character whose full
        # lowercase differs from the simple map utf8proc applies is
        # U+0130 'İ' → "i" + U+0307 (SpecialCasing.txt's sole
        # unconditional multi-char lowercase entry). Expand it BEFORE
        # utf8_lower — afterwards the 'İ'/'i' distinction is gone.
        # Gate the (allocation-heavy) replace behind a vectorized scan
        # for \u0130's UTF-8 lead byte 0xC4: ~0.4 ms vs ~16 ms per 4k-doc
        # batch, and ASCII corpora (the common case) never pay the
        # replace. False positives (any U+0100-U+013F char) just fall
        # through to the always-correct replace path.
        vb = kept.buffers()[2]
        if vb is not None and bool((np.frombuffer(vb, np.uint8) == 0xC4).any()):
            kept = pc.replace_substring(
                kept, pattern="\u0130", replacement="i\u0307"
            )
        terms = pc.utf8_lower(kept)
        doc_index = doc_index[keep_idx]
        positions = positions_all[keep_idx] if len(flat) else np.empty(0, np.int64)
        norms = np.bincount(doc_index, minlength=n_docs).astype(np.int64)
        return TokenizedColumn(terms=terms, doc_index=doc_index, positions=positions, norms=norms)

    def tokens(self, text: str) -> list[str]:
        """Single-string analysis (query side) — same kernel, same semantics."""
        tc = self.tokenize_column(pa.array([text], type=pa.string()))
        return tc.terms.to_pylist()


class RawAnalyzer:
    """Tantivy "raw" tokenizer: the whole value as one token, unchanged."""

    name = "raw"

    def tokenize_column(self, col: pa.Array | pa.ChunkedArray) -> TokenizedColumn:
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        col = pc.fill_null(col, "")
        n = len(col)
        return TokenizedColumn(
            terms=col,
            doc_index=np.arange(n, dtype=np.int64),
            positions=np.zeros(n, dtype=np.int64),
            norms=np.ones(n, dtype=np.int64),
        )

    def tokens(self, text: str) -> list[str]:
        return [text]


class CjkAnalyzer:
    """CJK-friendly analyzer: each Han character becomes its own token
    (unigram segmentation, Lucene StandardAnalyzer behavior); other
    alphanumeric runs tokenize like "default".

    The reference registers a pluggable Chinese tokenizer (CangJie)
    behind a cargo feature (`toshi-server/src/lib.rs:57-72`); this
    exercises the same extension surface with a public algorithm.
    """

    name = "cjk"
    _HAN = r"[\p{Han}]"

    def tokenize_column(self, col):
        import pyarrow.compute as pc

        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        # isolate each Han char with spaces, then run the default chain
        spaced = pc.replace_substring_regex(
            pc.fill_null(col, ""), pattern=f"({self._HAN})", replacement=" \\1 "
        )
        return DefaultAnalyzer().tokenize_column(spaced)

    def tokens(self, text: str) -> list[str]:
        tc = self.tokenize_column(pa.array([text], type=pa.string()))
        return tc.terms.to_pylist()


_REGISTRY = {
    "default": DefaultAnalyzer,
    "raw": RawAnalyzer,
    "cjk": CjkAnalyzer,
}


def register_analyzer(name: str, factory) -> None:
    """User-extension point mirroring Toshi's pluggable tokenizer registry
    (reference `toshi-server/src/lib.rs:57-72`)."""
    _REGISTRY[name] = factory


def get_analyzer(name: str):
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ValueError(f"Unknown tokenizer: {name!r}") from None
