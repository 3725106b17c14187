"""Posting codec roundtrips, incl. property tests (hypothesis)."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toshi_ray import codecs, segments


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=200))
@example([2**64 - 1])
@example([0, 127, 128, 2**64 - 1, 1, 2**63])
@settings(max_examples=50, deadline=None)
def test_varint_roundtrip(vals):
    a = np.asarray(vals, dtype=np.uint64)
    assert codecs.varint_decode(codecs.varint_encode(a)).tolist() == a.tolist()


@given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=500))
@settings(max_examples=30, deadline=None)
def test_doc_id_roundtrip(vals):
    a = np.sort(np.asarray(vals, dtype=np.uint64))
    assert codecs.decode_doc_ids(codecs.encode_doc_ids(a)).tolist() == a.tolist()


def test_segmented_encode_matches_per_list():
    rng = np.random.default_rng(7)
    lists = [np.sort(rng.integers(0, 10**8, n).astype(np.uint64)) for n in (0, 1, 5, 300, 2)]
    flat = np.concatenate(lists)
    offsets = np.cumsum([0] + [len(x) for x in lists]).astype(np.int64)
    gaps = codecs.segmented_delta(flat, offsets)
    payload, boffs = codecs.segmented_varint_encode(gaps, offsets)
    for i, lst in enumerate(lists):
        blob = payload[boffs[i] : boffs[i + 1]]
        assert codecs.decode_doc_ids(blob).tolist() == lst.tolist()
        # per-list encode is byte-identical to the segmented pass
        assert blob == codecs.encode_doc_ids(lst)


# fixed short and long list lengths, plus any length in between
_LIST_LENS = st.one_of(st.sampled_from([1, 127, 128, 129, 256, 257]), st.integers(1, 300))


@given(st.lists(_LIST_LENS, min_size=1, max_size=6), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_encode_postings_roundtrip(lens, seed):
    """`segments.encode_postings` against the input lists: the segmented
    decode of the whole table and of each one-row slice give them back,
    each row's doc ids are that list's own delta + varint stream, and
    its df, first_doc and last_doc describe the list."""
    rng = np.random.default_rng(seed)
    ids = [np.cumsum(rng.integers(1, rng.choice([2, 300, 2**20]), n)).astype(np.uint64) for n in lens]
    tfs = [rng.integers(1, rng.choice([2, 300]), n).astype(np.uint64) for n in lens]
    offsets = np.zeros(len(lens) + 1, np.int64)
    np.cumsum(lens, out=offsets[1:])
    k = len(lens)
    table = segments.encode_postings(
        ["f"] * k, [f"t{i}" for i in range(k)], np.zeros(k, np.int32),
        np.concatenate(ids), np.concatenate(tfs), offsets, None,
    )
    assert table.schema == segments.POSTINGS_SCHEMA

    flat_ids, flat_tfs, flat_offs = segments.decode_postings(table)
    np.testing.assert_array_equal(flat_ids, np.concatenate(ids))
    np.testing.assert_array_equal(flat_tfs, np.concatenate(tfs))
    np.testing.assert_array_equal(flat_offs, offsets)

    for i, row in enumerate(table.to_pylist()):
        row_ids, row_tfs, _ = segments.decode_postings(table.slice(i, 1))
        np.testing.assert_array_equal(row_ids, ids[i])
        np.testing.assert_array_equal(row_tfs, tfs[i])
        # deltas restart once per list: the row is the plain list encoding
        assert row["doc_ids"] == codecs.encode_doc_ids(ids[i])
        assert row["df"] == lens[i]
        assert row["first_doc"] == ids[i][0]
        assert row["last_doc"] == ids[i][-1]
