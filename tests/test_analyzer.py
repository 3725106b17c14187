"""Tokenizer goldens — FIXTURES.md §F5 (the analyzer defines the vocabulary)."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toshi_ray import analyzer
from toshi_ray.analyzer import (
    MAX_TOKEN_BYTES,
    DefaultAnalyzer,
    RawAnalyzer,
    TokenizedColumn,
    get_analyzer,
)
from toshi_ray.fieldnorm import FIELD_NORMS_TABLE, fieldnorm_to_id, id_to_fieldnorm
from toshi_ray.segments import build_field_postings

an = DefaultAnalyzer()


@pytest.mark.parametrize(
    "text,tokens",
    [
        ("Test Document 1", ["test", "document", "1"]),
        (
            "Took me a while but I'm finally here",
            ["took", "me", "a", "while", "but", "i", "m", "finally", "here"],
        ),
        ("foo-bar_baz", ["foo", "bar", "baz"]),  # _ is not alphanumeric
        ("a" * 41, []),  # RemoveLongFilter drops >= 40 bytes
        ("a" * 40, []),
        ("a" * 39, ["a" * 39]),
        ("", []),
        ("  ...  ", []),
        ("HELLO, World!", ["hello", "world"]),
    ],
)
def test_default_chain_goldens(text, tokens):
    assert an.tokens(text) == tokens


def test_unicode_alphanumeric():
    # Ⅻ is Nl (letter-number) → alphanumeric in Rust char::is_alphanumeric
    assert an.tokens("Ⅻ ROMAN") == ["ⅻ", "roman"]
    assert an.tokens("Füße straße") == ["füße", "straße"]


def test_chain_order_split_then_lowercase():
    """Tantivy's chain is SimpleTokenizer → RemoveLongFilter →
    LowerCaser. A fold-FIRST chain would lowercase 'İ' (U+0130) into a
    form with a combining mark and shred the token at the split step;
    the pinned order splits the raw text, so the token stays whole."""
    # Full-mapping golden (Rust "İstanbul".to_lowercase()): 'İ' expands
    # to 'i' + U+0307 COMBINING DOT ABOVE — SpecialCasing.txt's only
    # unconditional multi-char lowercase entry
    assert an.tokens("İstanbul Meeting") == ["i̇stanbul", "meeting"]
    # ẞ (U+1E9E) → ß: a SIMPLE mapping (UnicodeData.txt), identical in
    # Rust and utf8proc; survives either order
    assert an.tokens("GROẞE") == ["große"]
    # Σ lowers to σ everywhere — tantivy's LowerCaser is per-char and
    # deliberately skips the contextual Final_Sigma rule, like utf8proc
    assert an.tokens("ΟΔΟΣ") == ["οδοσ"]
    # RemoveLongFilter sees ORIGINAL bytes: 19×'İ' is 38 raw bytes
    # (< 40) — kept; 20×'İ' (40 raw bytes) is dropped
    assert an.tokens("İ" * 19) == ["i̇" * 19]
    assert an.tokens("İ" * 20) == []


def test_positions_have_gaps_for_dropped_long_tokens():
    tc = an.tokenize_column(pa.array(["x " + "b" * 50 + " y"]))
    assert tc.terms.to_pylist() == ["x", "y"]
    assert tc.positions.tolist() == [0, 2]  # gap at position 1
    assert tc.norms.tolist() == [2]


def test_column_batch_matches_single():
    texts = ["Hello big World", "", "one-two_three", "a" * 45]
    tc = an.tokenize_column(pa.array(texts))
    per_doc = [[] for _ in texts]
    for t, d in zip(tc.terms.to_pylist(), tc.doc_index):
        per_doc[d].append(t)
    assert per_doc == [an.tokens(t) for t in texts]


def regex_chain(col: pa.Array) -> tuple[list, list, list, list]:
    """The default chain from the RE2 regex split, the oracle of the
    byte-mask split: (terms, doc indexes, positions, norms)."""
    lists = pc.split_pattern_regex(pc.fill_null(col, ""), pattern=r"[^\p{L}\p{N}]+")
    terms, docs, positions = [], [], []
    for d, row in enumerate(lists.to_pylist()):
        for pos, t in enumerate(t for t in row if t):
            if len(t.encode()) < MAX_TOKEN_BYTES:
                terms.append(t)
                docs.append(d)
                positions.append(pos)
    lowered = pc.utf8_lower(pc.replace_substring(pa.array(terms, pa.string()), "\u0130",
                                                 "i\u0307")).to_pylist()
    return lowered, docs, positions, np.bincount(docs, minlength=len(col)).tolist()


# ASCII word and separator bytes, combining marks, astral code points,
# the case-mapping specials, NUL, CJK, the ideographic space and
# zero-width / format characters, plus any other code point
_CHARS = st.one_of(
    st.sampled_from(list("aZ09 ,-_.\t\n\x00") + [
        "\u0301", "\u0308", "\U0001F600", "\U0001D538", "\U00020000", "\u0130", "\u03a3",
        "\u00df", "\u1e9e", "\u65e5", "\u672c", "\u3000", "\u200b", "\u2162", "\u0416",
        "\u0639", "\u00e9", "\u01c5", "\uff21", "\U0010fffd"]),
    st.characters(blacklist_categories=("Cs",)),
)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(st.one_of(st.none(), st.text(_CHARS, max_size=60)), max_size=8),
    large=st.booleans(),
    cut=st.tuples(st.integers(0, 3), st.integers(0, 3)),
)
def test_byte_mask_split_matches_regex_split(rows, large, cut):
    """The byte-mask split gives the regex split's terms, doc indexes,
    positions and norms on any text: string and large_string columns,
    sliced arrays and null rows."""
    col = pa.array(rows, pa.large_string() if large else pa.string())
    lo = min(cut[0], len(col))
    col = col.slice(lo, max(0, len(col) - lo - cut[1]))
    tc = an.tokenize_column(col)
    terms, docs, positions, norms = regex_chain(col)
    assert tc.terms.to_pylist() == terms
    assert tc.doc_index.tolist() == docs
    assert tc.positions.tolist() == positions
    assert tc.norms.tolist() == norms


def test_byte_mask_split_on_chunked_column():
    col = pa.chunked_array([["Grüße, 日本 x"], [], ["a\u3000b", None, "Σ\x00ß"]])
    tc = an.tokenize_column(col)
    terms, docs, positions, norms = regex_chain(col.combine_chunks())
    assert (tc.terms.to_pylist(), tc.doc_index.tolist(), tc.positions.tolist(),
            tc.norms.tolist()) == (terms, docs, positions, norms)
    assert terms == ["grüße", "日本", "x", "a", "b", "σ", "ß"]


def test_postings_build_refuses_tokens_out_of_order(monkeypatch):
    """A registered analyzer must give tokens in (doc, position) order:
    the postings build sorts them by term only, so it refuses a column
    that breaks the order instead of writing lists out of order."""

    class Reversed(DefaultAnalyzer):
        def tokenize_column(self, col):
            tc = super().tokenize_column(col)
            return TokenizedColumn(tc.terms[::-1], tc.doc_index[::-1],
                                   tc.positions[::-1], tc.norms)

    monkeypatch.setitem(analyzer._REGISTRY, "reversed", Reversed)
    col = pa.array(["b a", "c"])
    ids = np.arange(2, dtype=np.uint64)
    assert build_field_postings("text", "default", col, ids, True)[0].table.num_rows == 3
    with pytest.raises(ValueError, match="out of"):
        build_field_postings("text", "reversed", col, ids, True)


def test_raw_analyzer_and_registry():
    assert RawAnalyzer().tokens("Hello World") == ["Hello World"]
    assert isinstance(get_analyzer("default"), DefaultAnalyzer)
    with pytest.raises(ValueError):
        get_analyzer("nope")


def test_fieldnorm_table_shape():
    assert FIELD_NORMS_TABLE.shape == (256,)
    # exact for 0..=40
    assert FIELD_NORMS_TABLE[:41].tolist() == list(range(41))
    # strictly increasing
    assert (np.diff(FIELD_NORMS_TABLE.astype(np.int64)) > 0).all()
    # known exponential entries (tantivy-style blocks of 8, doubling step)
    assert FIELD_NORMS_TABLE[41] == 42
    assert FIELD_NORMS_TABLE[48] == 56
    assert FIELD_NORMS_TABLE[49] == 60
    assert FIELD_NORMS_TABLE[56] == 88


def test_fieldnorm_roundtrip_monotone():
    lengths = np.array([0, 1, 40, 41, 42, 56, 57, 100, 10_000, 1_000_000])
    ids = fieldnorm_to_id(lengths)
    decoded = id_to_fieldnorm(ids)
    assert (decoded <= lengths).all()  # floor quantization
    # exact below 41
    assert (decoded[lengths <= 40] == lengths[lengths <= 40]).all()
