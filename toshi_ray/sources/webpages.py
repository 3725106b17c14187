"""Deterministic synthetic Common-Crawl-style web pages (BASELINE input_hint).

Input table shape required by BASELINE.json:

    url:string | warc_ts:timestamp[us] | html:binary | text:large_string | lang:string

Every row is a pure function of ``doc_id`` (splitmix64 hashing — no RNG
state), so any worker regenerates identical rows at any batch size /
partitioning: the per-row invariant `extract_text(html) == text`
(byte-identical, FIXTURES.md §F1) holds by construction and is asserted
in tests.

Text is drawn from a Zipf-weighted vocabulary whose head contains
realistic hot terms ("the", "www", ...) to exercise hot-term skew
salting in the posting merge (SURVEY.md §7.4).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from toshi_ray.codecs import _mix

_HOT = [
    "the", "of", "and", "to", "a", "in", "is", "for", "on", "that",
    "www", "http", "com", "org", "page", "home", "news", "search",
]
VOCAB_SIZE = 30_000
_ZIPF_S = 1.07

_EPOCH_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z in µs

_LANGS = np.array(["en", "en", "en", "en", "en", "en", "en", "de", "zh", "fr"])


def _vocab() -> np.ndarray:
    tail = [f"w{i:05d}" for i in range(len(_HOT), VOCAB_SIZE)]
    return np.asarray(_HOT + tail, dtype=object)


_VOCAB = _vocab()
_WEIGHTS = 1.0 / np.power(np.arange(1, VOCAB_SIZE + 1, dtype=np.float64), _ZIPF_S)
_CDF = np.cumsum(_WEIGHTS) / _WEIGHTS.sum()

_U = np.uint64


def _uniform(x: np.ndarray) -> np.ndarray:
    return _mix(x).astype(np.float64) / float(2**64)


def make_pages_batch(doc_ids: np.ndarray) -> pa.Table:
    """Generate the page rows for the given doc_ids (pure, vectorized)."""
    ids = np.asarray(doc_ids, dtype=_U)
    n = ids.size
    lengths = (50 + _mix(ids ^ _U(0xA5A5)) % _U(200)).astype(np.int64)
    total = int(lengths.sum())
    doc_rep = np.repeat(ids, lengths)
    j = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    u = _uniform(doc_rep * _U(0x9E3779B1) + j.astype(_U) * _U(0x85EBCA77) + _U(7))
    words = _VOCAB[np.searchsorted(_CDF, u, side="left")]

    # join words per doc with single spaces (arrow list → binary_join)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    flat = pa.array(words, type=pa.string())
    lists = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), flat)
    text = pc.binary_join(lists, " ")

    ids_i = ids.astype(np.int64)
    ids_str = pc.cast(pa.array(ids_i), pa.string())
    url = pc.binary_join_element_wise(
        "https://site", pc.cast(pa.array(ids_i % 1000), pa.string()), ".example/page/", ids_str, ""
    )
    html = pc.binary_join_element_wise(
        "<html><head><title>T", ids_str, "</title></head><body>", text, "</body></html>", ""
    ).cast(pa.binary())
    warc_ts = pa.array(_EPOCH_US + ids_i, type=pa.timestamp("us"))
    lang = pa.array(_LANGS[(_mix(ids ^ _U(0xC3)) % _U(10)).astype(np.int64)], type=pa.string())
    return pa.table(
        {
            "doc_id": pa.array(ids, type=pa.uint64()),
            "url": url,
            "warc_ts": warc_ts,
            "html": html,
            "text": text.cast(pa.large_string()),
            "lang": lang,
        }
    )


def extract_text(html: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Pure html→text extraction (the per-row invariant vs the source).

    Deterministic wrapper strip: everything between ``<body>`` and
    ``</body>``. Vectorized RE2 extraction; byte-identical to the
    ``text`` column for every generated row.
    """
    s = html.cast(pa.string()) if not isinstance(html, pa.ChunkedArray) else html.combine_chunks().cast(pa.string())
    m = pc.extract_regex(s, pattern="<body>(?P<text>.*)</body>")
    return pc.struct_field(m, "text")


def pages_dataset(n_docs: int, parallelism: int = 32):
    """A lazy Ray Dataset of n_docs synthetic pages (generated in tasks)."""
    import ray.data

    def gen(batch: pa.Table) -> pa.Table:
        return make_pages_batch(batch["id"].to_numpy(zero_copy_only=False))

    return (
        ray.data.range(n_docs, override_num_blocks=parallelism)
        .map_batches(gen, batch_format="pyarrow")
    )


def write_pages_parquet(path: str, n_docs: int, parallelism: int = 32) -> None:
    pages_dataset(n_docs, parallelism).write_parquet(path)
