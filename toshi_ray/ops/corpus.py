"""Corpus-level reporting operators.

`source_stats` is the per-domain health report every web-scale corpus
pipeline runs before mixing: how many documents, how much text, how
many languages, and how much exact duplication each source/domain
contributes (the inputs to per-domain mixing weights and dup-heavy
domain triage).

Scale design: distinct-text counting is partitioned by CONTENT HASH,
not by source — a given (source, h) pair lands in exactly one
partition, so per-partition distinct counts ADD across partitions and
a hot domain never concentrates in one task. Per-source partials then
reduce in a second, slim shuffle whose rows are O(partitions x
sources), not O(documents). Same 64-bit content-hash identity as
`exact_dedup` (collision odds documented there).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from toshi_ray.codecs import _hash_strings, _mix
from toshi_ray.ops.dedup import N_PAIR_PARTS

_U = np.uint64

_PARTIAL_SCHEMA = pa.schema(
    [
        ("source", pa.string()),
        ("lang", pa.string()),
        ("h", pa.int64()),
        ("cnt", pa.int64()),
        ("chars", pa.int64()),
        ("part", pa.int64()),
    ]
)

_MID_SCHEMA = pa.schema(
    [
        ("source", pa.string()),
        ("lang", pa.string()),
        ("role", pa.int8()),  # 0 = per-source numeric partial, 1 = (source, lang)
        ("n_docs", pa.int64()),
        ("chars_sum", pa.int64()),
        ("n_uniq", pa.int64()),
        ("spart", pa.int64()),
    ]
)

_OUT_SCHEMA = pa.schema(
    [
        ("source", pa.string()),
        ("n_docs", pa.int64()),
        ("chars_total", pa.int64()),
        ("n_langs", pa.int64()),
        ("n_uniq_texts", pa.int64()),
        ("dup_docs", pa.int64()),
    ]
)


def _codes(col: pa.ChunkedArray | pa.Array) -> tuple[np.ndarray, pa.Array]:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    d = col.dictionary_encode()
    return d.indices.to_numpy(zero_copy_only=False).astype(np.int64), d.dictionary


def _run_starts(*cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lexsort rows by (cols[0], cols[1], ...) → (order, run_starts)."""
    order = np.lexsort(tuple(reversed(cols)))
    neq = np.zeros(cols[0].size, dtype=bool)
    neq[0] = True
    for c in cols:
        cs = c[order]
        neq[1:] |= cs[1:] != cs[:-1]
    return order, np.flatnonzero(neq)


def _spart(source: pa.Array) -> pa.Array:
    return pa.array(
        (_mix(_hash_strings(source.combine_chunks() if isinstance(source, pa.ChunkedArray) else source))
         % _U(N_PAIR_PARTS)).astype(np.int64)
    )


def _floored_counts(t: pa.Table, min_count: int) -> pa.Table:
    """Sum one partition's (gram, cnt) partials and floor the result:
    grams below ``min_count`` are dropped but their summed mass is
    re-added as a single empty-string marker row (no real token can be
    ""), so Σcnt — the exact corpus total N — survives the floor while
    the junk-hapax bulk of a web vocabulary never reaches the driver.
    Shared by `collocations` and `lm_surprisal`; both strip the marker
    rows after summing Σcnt."""
    if t.num_rows == 0:
        return pa.table({"gram": pa.array([], pa.string()),
                         "cnt": pa.array([], pa.int64())})
    gc, gvoc = _codes(t["gram"])
    cnt = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    tot = np.bincount(gc, weights=cnt, minlength=len(gvoc)).astype(np.int64)
    if min_count <= 1:
        return pa.table({"gram": gvoc.cast(pa.string()), "cnt": pa.array(tot)})
    keep = tot >= min_count
    dropped = int(tot[~keep].sum())
    out_g = gvoc.take(pa.array(np.flatnonzero(keep))).cast(pa.string())
    if isinstance(out_g, pa.ChunkedArray):
        out_g = out_g.combine_chunks()
    out_c = tot[keep]
    if dropped:
        out_g = pa.concat_arrays([out_g, pa.array([""], pa.string())])
        out_c = np.r_[out_c, dropped]
    return pa.table({"gram": out_g, "cnt": pa.array(out_c)})


def _ngram_partial(t: pa.Table, col: str, n: int) -> pa.Table:
    """Per-batch DISTINCT n-gram partial counts (the map-side combiner
    shared by `top_ngrams` and `collocations`): → (gram, cnt, part)."""
    from toshi_ray.ops.textstats import _tokenize

    tc = _tokenize(t, col)
    codes = tc.terms.dictionary_encode()
    rc = codes.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vocab = codes.dictionary
    doc = tc.doc_index.astype(np.int64)
    empty = pa.table({"gram": pa.array([], pa.string()),
                      "cnt": pa.array([], pa.int64()),
                      "part": pa.array([], pa.int64())})
    if rc.size < n:
        return empty
    m = np.ones(rc.size - (n - 1), dtype=bool)
    for j in range(1, n):
        m &= doc[j : rc.size - (n - 1) + j] == doc[: rc.size - (n - 1)]
    if not m.any():
        return empty
    cols = [rc[j : rc.size - (n - 1) + j][m] for j in range(n)]
    order, starts = _run_starts(*cols)
    cnt = np.diff(np.r_[starts, cols[0].size]).astype(np.int64)
    parts = [vocab.take(pa.array(c[order][starts])).cast(pa.string())
             for c in cols]
    gram = parts[0]
    for p in parts[1:]:
        gram = pc.binary_join_element_wise(gram, p, " ")
    return pa.table(
        {
            "gram": gram,
            "cnt": pa.array(cnt),
            "part": pa.array(
                (_mix(_hash_strings(gram)) % _U(N_PAIR_PARTS)).astype(np.int64)
            ),
        }
    )


def top_ngrams(ds, *, n: int = 2, k: int = 20, col: str = "text"):
    """→ (gram, cnt): the corpus's k most frequent word n-grams (count
    desc, then gram bytes) — the table contamination checks and
    boilerplate detectors key on.

    Scale shape: per-batch partial counts collapse each batch to its
    DISTINCT grams (map-side combine), a 64-way hash-partitioned
    groupby sums them, each partition emits only its local top-k, and
    the driver merges 64*k candidate rows — correct because a global
    top-k member's total count lives entirely in one partition."""
    import ray.data

    def partial(t: pa.Table) -> pa.Table:
        return _ngram_partial(t, col, n)

    def local_topk(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"gram": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        gc, gvoc = _codes(t["gram"])
        cnt = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        tot = np.bincount(gc, weights=cnt, minlength=len(gvoc)).astype(np.int64)
        # rank grams bytewise for the tie-break
        srt = pc.sort_indices(gvoc).to_numpy(zero_copy_only=False)
        rank = np.empty(len(gvoc), np.int64)
        rank[srt] = np.arange(len(gvoc))
        pick = np.lexsort((rank, -tot))[:k]
        return pa.table(
            {"gram": gvoc.take(pa.array(pick)).cast(pa.string()),
             "cnt": pa.array(tot[pick])}
        )

    cand = (
        ds.select_columns([col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(lambda t: local_topk(t.drop_columns(["part"])),
                    batch_format="pyarrow")
    )
    rows = cand.take_all()  # ≤ 64 * k rows
    rows.sort(key=lambda r: (-r["cnt"], r["gram"]))
    head = rows[:k]
    return pa.table(
        {"gram": pa.array([r["gram"] for r in head], pa.string()),
         "cnt": pa.array([int(r["cnt"]) for r in head], pa.int64())}
    )


def source_stats(
    ds,
    *,
    text_col: str = "text",
    source_col: str = "source",
    lang_col: str = "lang",
):
    """→ (source, n_docs, chars_total, n_langs, n_uniq_texts, dup_docs)
    — one row per source, sorted upstream by the caller if needed.
    ``dup_docs = n_docs - n_uniq_texts`` (exact-duplicate surplus)."""
    ds = ds.select_columns([source_col, lang_col, text_col])

    def partial(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return _PARTIAL_SCHEMA.empty_table()
        text = t[text_col].combine_chunks().cast(pa.string())
        h = _hash_strings(text).view(np.int64)
        chars = pc.utf8_length(pc.fill_null(text, "")).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        sc, svoc = _codes(t[source_col])
        lc, lvoc = _codes(t[lang_col])
        order, starts = _run_starts(sc, h, lc)
        cnt = np.diff(np.r_[starts, n])
        chars_sum = np.add.reduceat(chars[order], starts)
        rs, rh, rl = sc[order][starts], h[order][starts], lc[order][starts]
        return pa.table(
            {
                "source": svoc.take(pa.array(rs)).cast(pa.string()),
                "lang": lvoc.take(pa.array(rl)).cast(pa.string()),
                "h": pa.array(rh),
                "cnt": pa.array(cnt.astype(np.int64)),
                "chars": pa.array(chars_sum.astype(np.int64)),
                "part": pa.array((_mix(rh.view(_U)) % _U(N_PAIR_PARTS)).astype(np.int64)),
            }
        )

    def reduce_part(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return _MID_SCHEMA.empty_table()
        sc, svoc = _codes(t["source"])
        lc, lvoc = _codes(t["lang"])
        h = t["h"].to_numpy(zero_copy_only=False).astype(np.int64)
        cnt = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        chars = t["chars"].to_numpy(zero_copy_only=False).astype(np.int64)

        # per-source numeric partials (partition-additive because each
        # (source, h) exists in exactly this partition)
        order, s_starts = _run_starts(sc, h)
        so, ho = sc[order], h[order]
        new_sh = np.zeros(n, dtype=bool)
        new_sh[s_starts] = True  # first row of each (source, h) run
        n_src = int(len(svoc))
        run_src = so[s_starts]
        n_uniq = np.bincount(run_src, minlength=n_src)
        n_docs = np.bincount(sc, weights=cnt, minlength=n_src).astype(np.int64)
        chars_sum = np.bincount(sc, weights=chars, minlength=n_src).astype(np.int64)

        # distinct (source, lang) pairs seen in this partition
        ordsl, sl_starts = _run_starts(sc, lc)
        pls, pll = sc[ordsl][sl_starts], lc[ordsl][sl_starts]

        src_all = pa.concat_arrays(
            [svoc.take(pa.array(np.arange(n_src))).cast(pa.string()),
             svoc.take(pa.array(pls)).cast(pa.string())]
        )
        lang_all = pa.concat_arrays(
            [pa.nulls(n_src, pa.string()).fill_null(""),
             lvoc.take(pa.array(pll)).cast(pa.string())]
        )
        role = np.r_[np.zeros(n_src, np.int8), np.ones(pls.size, np.int8)]
        z = np.zeros(pls.size, np.int64)
        return pa.table(
            {
                "source": src_all,
                "lang": lang_all,
                "role": pa.array(role),
                "n_docs": pa.array(np.r_[n_docs, z]),
                "chars_sum": pa.array(np.r_[chars_sum, z]),
                "n_uniq": pa.array(np.r_[n_uniq.astype(np.int64), z]),
                "spart": _spart(src_all),
            }
        )

    def final(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return _OUT_SCHEMA.empty_table()
        sc, svoc = _codes(t["source"])
        role = t["role"].to_numpy(zero_copy_only=False)
        n_src = int(len(svoc))
        agg = role == 0
        n_docs = np.bincount(sc[agg], weights=t["n_docs"].to_numpy(zero_copy_only=False)[agg],
                             minlength=n_src).astype(np.int64)
        chars = np.bincount(sc[agg], weights=t["chars_sum"].to_numpy(zero_copy_only=False)[agg],
                            minlength=n_src).astype(np.int64)
        uniq = np.bincount(sc[agg], weights=t["n_uniq"].to_numpy(zero_copy_only=False)[agg],
                           minlength=n_src).astype(np.int64)
        # distinct langs per source across partitions
        lcodes, _ = _codes(t["lang"])
        lmask = role == 1
        if lmask.any():
            pair = np.unique(sc[lmask] * np.int64(max(lcodes.max() + 1, 1)) + lcodes[lmask])
            n_langs = np.bincount(
                (pair // np.int64(max(lcodes.max() + 1, 1))).astype(np.int64),
                minlength=n_src,
            ).astype(np.int64)
        else:
            n_langs = np.zeros(n_src, np.int64)
        keep = n_docs > 0  # sources appear in this spart group only
        srcs = svoc.take(pa.array(np.flatnonzero(keep))).cast(pa.string())
        return pa.table(
            {
                "source": srcs,
                "n_docs": pa.array(n_docs[keep]),
                "chars_total": pa.array(chars[keep]),
                "n_langs": pa.array(n_langs[keep]),
                "n_uniq_texts": pa.array(uniq[keep]),
                "dup_docs": pa.array((n_docs - uniq)[keep]),
            }
        )

    mid = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(reduce_part, batch_format="pyarrow")
    )
    return mid.groupby("spart").map_groups(final, batch_format="pyarrow")


def collocations(ds, *, k: int = 30, min_count: int = 5, col: str = "text"):
    """→ (gram, cnt, cnt_a, cnt_b, pmi_x1e6): the corpus's k strongest
    two-word collocations by pointwise mutual information, among bigrams
    with count >= min_count (the classic Church & Hanks 1990 measure —
    what phrase-mining and tokenizer-vocab pipelines rank on).

    Scale shape: the unigram count table (Zipf-bounded vocabulary) is
    gathered once and BROADCAST via ray.put; bigram partials hash-
    partition 64 ways exactly like `top_ngrams`, so each partition owns
    its grams' global counts, computes PMI locally against the broadcast
    table, and emits only its local top-k — the driver merges 64*k
    candidate rows. PMI doubles are bit-deterministic: both engines
    evaluate ln((cnt*N)/(cnt_a*cnt_b)) over the same IEEE doubles.
    """
    import ray
    import ray.data

    from toshi_ray.ops.textstats import _tokenize

    # pass 1: unigram counts (map-side combine -> 64-way sum). The
    # result is vocabulary-sized (Zipf: ~10^7 entries at web scale,
    # ~100 MB as two arrays — broadcastable).
    def uni_partial(t: pa.Table) -> pa.Table:
        return _ngram_partial(t, col, 1)

    def uni_sum(t: pa.Table) -> pa.Table:
        # a bigram with cnt >= min_count implies BOTH its halves have
        # unigram cnt >= min_count (each bigram occurrence contains one
        # of each half), so flooring the broadcast table at the same
        # min_count is LOSSLESS for PMI lookups; _floored_counts keeps
        # total N exact via its dropped-mass marker row.
        return _floored_counts(t, min_count)

    from toshi_ray.ops._gather import col_i64, gather_table

    uni_t = gather_table(
        ds.select_columns([col])
        .map_batches(uni_partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(lambda t: uni_sum(t.drop_columns(["part"])),
                    batch_format="pyarrow")
    )
    if uni_t is None:
        words = np.array([], dtype=str)
        wcnt = np.array([], np.int64)
        total = 0
    else:
        words = np.asarray(uni_t["gram"].to_numpy(zero_copy_only=False),
                           dtype=object)
        wcnt = col_i64(uni_t, "cnt")
        total = int(wcnt.sum())  # includes dropped-mass rows: exact N
        real = words != ""
        words = words[real].astype(str)
        wcnt = wcnt[real]
        order = np.argsort(words)
        words, wcnt = words[order], wcnt[order]
    ref = ray.put((words, wcnt))

    out_schema = pa.schema(
        [("gram", pa.string()), ("cnt", pa.int64()), ("cnt_a", pa.int64()),
         ("cnt_b", pa.int64()), ("pmi", pa.float64())]
    )

    def local_topk(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        gc, gvoc = _codes(t["gram"])
        cnt = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        tot = np.bincount(gc, weights=cnt, minlength=len(gvoc)).astype(np.int64)
        keep = tot >= min_count
        if not keep.any():
            return out_schema.empty_table()
        gsel = gvoc.take(pa.array(np.flatnonzero(keep))).cast(pa.string())
        tot = tot[keep]
        w, c = ray.get(ref)
        halves = pc.split_pattern(gsel, " ")
        wa = pc.list_element(halves, 0).to_numpy(zero_copy_only=False)
        wb = pc.list_element(halves, 1).to_numpy(zero_copy_only=False)
        ca = c[np.searchsorted(w, wa)]
        cb = c[np.searchsorted(w, wb)]
        pmi = np.log((tot.astype(np.float64) * float(total))
                     / (ca.astype(np.float64) * cb.astype(np.float64)))
        # local top-k by (pmi desc, gram bytes) — gram counts are global
        # within this partition, so merging per-partition top-ks is exact
        srt = pc.sort_indices(gsel).to_numpy(zero_copy_only=False)
        rank = np.empty(len(gsel), np.int64)
        rank[srt] = np.arange(len(gsel))
        pick = np.lexsort((rank, -pmi))[:k]
        return pa.table(
            {
                "gram": gsel.take(pa.array(pick)),
                "cnt": pa.array(tot[pick]),
                "cnt_a": pa.array(ca[pick]),
                "cnt_b": pa.array(cb[pick]),
                "pmi": pa.array(pmi[pick]),
            }
        )

    cand = (
        ds.select_columns([col])
        .map_batches(lambda t: _ngram_partial(t, col, 2), batch_format="pyarrow")
        .groupby("part")
        .map_groups(lambda t: local_topk(t.drop_columns(["part"])),
                    batch_format="pyarrow")
    )
    rows = cand.take_all()  # <= 64 * k rows
    rows.sort(key=lambda r: (-r["pmi"], r["gram"]))
    head = rows[:k]
    return pa.table(
        {
            "gram": pa.array([r["gram"] for r in head], pa.string()),
            "cnt": pa.array([int(r["cnt"]) for r in head], pa.int64()),
            "cnt_a": pa.array([int(r["cnt_a"]) for r in head], pa.int64()),
            "cnt_b": pa.array([int(r["cnt_b"]) for r in head], pa.int64()),
            "pmi_x1e6": pa.array(
                [int(np.floor(r["pmi"] * 1000000.0)) for r in head], pa.int64()
            ),
        }
    )


def length_stats(ds, *, col: str = "text"):
    """→ one-row table (n_docs, total_tokens, p50, p90, p99, max_tokens):
    the corpus length distribution every data-mixing / truncation policy
    is tuned against. Percentile q = the smallest length whose cumulative
    doc count reaches ceil(q * n_docs), computed with INTEGER thresholds
    ((n*9 + 9) // 10 etc.) so no float quantile semantics can diverge
    between engines.

    Scale shape: per-batch length histograms (map-side combine) shuffle
    as (L, c) rows — O(distinct lengths) per batch, not O(docs) — a
    64-way partitioned sum folds them, and the driver merges a histogram
    bounded by the longest document, never the corpus."""
    import ray.data  # noqa: F401

    from toshi_ray.ops.textstats import _tokenize

    def partial(t: pa.Table) -> pa.Table:
        tc = _tokenize(t, col)
        n_tok = np.bincount(tc.doc_index, minlength=t.num_rows).astype(np.int64)
        ls, cs = np.unique(n_tok, return_counts=True)
        return pa.table(
            {
                "L": pa.array(ls),
                "c": pa.array(cs.astype(np.int64)),
                "part": pa.array((_mix(ls.astype(_U)) % _U(N_PAIR_PARTS)).astype(np.int64)),
            }
        )

    def fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"L": pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64())})
        L = t["L"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        ls, inv = np.unique(L, return_inverse=True)
        cs = np.bincount(inv, weights=c, minlength=ls.size).astype(np.int64)
        return pa.table({"L": pa.array(ls), "c": pa.array(cs)})

    rows = (
        ds.select_columns([col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(lambda t: fold(t.drop_columns(["part"])), batch_format="pyarrow")
        .take_all()
    )
    L = np.array([int(r["L"]) for r in rows], dtype=np.int64)
    c = np.array([int(r["c"]) for r in rows], dtype=np.int64)
    order = np.argsort(L)
    L, c = L[order], c[order]
    n_docs = int(c.sum())
    total = int((L * c).sum())
    cum = np.cumsum(c)

    def pct(num: int, den: int) -> int:
        thr = (n_docs * num + den - 1) // den
        return int(L[np.searchsorted(cum, thr)])

    return pa.table(
        {
            "n_docs": pa.array([n_docs], pa.int64()),
            "total_tokens": pa.array([total], pa.int64()),
            "p50": pa.array([pct(1, 2)], pa.int64()),
            "p90": pa.array([pct(9, 10)], pa.int64()),
            "p99": pa.array([pct(99, 100)], pa.int64()),
            "max_tokens": pa.array([int(L[-1])], pa.int64()),
        }
    )


def vocab_stats(ds, *, col: str = "text"):
    """→ one-row table (n_tokens, n_distinct, n_hapax): corpus vocabulary
    summary — the inputs to tokenizer-vocab sizing and Zipf sanity
    checks. EXACT distinct counting without a global distinct shuffle:
    tokens hash-partition 64 ways, a token's global count lives entirely
    in one partition, so per-partition distinct / hapax counts ADD."""
    import ray.data  # noqa: F401

    def fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"n_tokens": pa.array([0], pa.int64()),
                             "n_distinct": pa.array([0], pa.int64()),
                             "n_hapax": pa.array([0], pa.int64())})
        gc, gvoc = _codes(t["gram"])
        cnt = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        tot = np.bincount(gc, weights=cnt, minlength=len(gvoc)).astype(np.int64)
        return pa.table(
            {
                "n_tokens": pa.array([int(tot.sum())], pa.int64()),
                "n_distinct": pa.array([int(tot.size)], pa.int64()),
                "n_hapax": pa.array([int((tot == 1).sum())], pa.int64()),
            }
        )

    rows = (
        ds.select_columns([col])
        .map_batches(lambda t: _ngram_partial(t, col, 1), batch_format="pyarrow")
        .groupby("part")
        .map_groups(lambda t: fold(t.drop_columns(["part"])), batch_format="pyarrow")
        .take_all()
    )
    return pa.table(
        {
            "n_tokens": pa.array([sum(int(r["n_tokens"]) for r in rows)], pa.int64()),
            "n_distinct": pa.array([sum(int(r["n_distinct"]) for r in rows)], pa.int64()),
            "n_hapax": pa.array([sum(int(r["n_hapax"]) for r in rows)], pa.int64()),
        }
    )


def lang_length_stats(ds, *, col: str = "text", lang_col: str = "lang"):
    """→ (lang, n_docs, total_tokens, p50, max_tokens) per language —
    the per-language length report mixing policies consume. Same
    additive (lang, L, c) histogram scheme as `length_stats`; the driver
    merges a histogram bounded by langs x distinct lengths."""
    import ray.data  # noqa: F401

    from toshi_ray.ops.textstats import _tokenize

    def partial(t: pa.Table) -> pa.Table:
        tc = _tokenize(t, col)
        n_tok = np.bincount(tc.doc_index, minlength=t.num_rows).astype(np.int64)
        lc, lvoc = _codes(t[lang_col])
        order, starts = _run_starts(lc, n_tok)
        c = np.diff(np.r_[starts, n_tok.size]).astype(np.int64)
        rl, rL = lc[order][starts], n_tok[order][starts]
        return pa.table(
            {
                "lang": lvoc.take(pa.array(rl)).cast(pa.string()),
                "L": pa.array(rL),
                "c": pa.array(c),
                "part": pa.array(
                    ((rL.astype(_U) * _U(31) + _mix(rl.astype(_U))) % _U(N_PAIR_PARTS)).astype(np.int64)
                ),
            }
        )

    def fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"lang": pa.array([], pa.string()),
                             "L": pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64())})
        lc, lvoc = _codes(t["lang"])
        L = t["L"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        order, starts = _run_starts(lc, L)
        cs = np.add.reduceat(c[order], starts)
        return pa.table(
            {
                "lang": lvoc.take(pa.array(lc[order][starts])).cast(pa.string()),
                "L": pa.array(L[order][starts]),
                "c": pa.array(cs.astype(np.int64)),
            }
        )

    rows = (
        ds.select_columns([lang_col, col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(lambda t: fold(t.drop_columns(["part"])), batch_format="pyarrow")
        .take_all()
    )
    import pandas as pd

    df = pd.DataFrame(rows, columns=["lang", "L", "c"])
    out = []
    for lang, g in sorted(df.groupby("lang"), key=lambda kv: kv[0]):
        g = g.groupby("L", as_index=False)["c"].sum().sort_values("L")
        L = g["L"].to_numpy()
        c = g["c"].to_numpy()
        n = int(c.sum())
        cum = np.cumsum(c)
        p50 = int(L[np.searchsorted(cum, (n + 1) // 2)])
        out.append((lang, n, int((L * c).sum()), p50, int(L[-1])))
    return pa.table(
        {
            "lang": pa.array([o[0] for o in out], pa.string()),
            "n_docs": pa.array([o[1] for o in out], pa.int64()),
            "total_tokens": pa.array([o[2] for o in out], pa.int64()),
            "p50": pa.array([o[3] for o in out], pa.int64()),
            "max_tokens": pa.array([o[4] for o in out], pa.int64()),
        }
    )


def hll_vocab(ds, *, col: str = "text"):
    """→ 64-row table (bucket, register, est_x100): HyperLogLog sketch
    of the corpus's distinct-token count (Flajolet et al. 2007) — the
    approximate, merge-friendly counterpart to `vocab_stats`' exact
    partitioned count. At 100 TB an exact distinct needs a vocabulary
    shuffle; the HLL register table is a CONSTANT 64 integers whose
    merge is elementwise max, so partials combine associatively across
    any partitioning (and across whole corpora).

    Derandomized + SQL-recomputable: token hash h = p257 + p131·2^31
    (62 bits, the simhash scheme), bucket = h mod m, w = h div m,
    register = max over tokens of (bit-budget 56 − bitlen(w) + 1). The
    raw-HLL estimate alpha·m²/Σ2^(−reg) is folded over registers in
    bucket order with the identical IEEE add sequence on both engines,
    so even the float estimate is hash-exact (each 2^−reg is dyadic).
    """
    import ray.data  # noqa: F401

    from toshi_ray.ops.dedup import _poly_hash31
    from toshi_ray.ops.textstats import _tokenize

    # m is fixed: the 56-bit rho budget, the alpha constant and the SQL
    # twin are all derived from m=64 — a parameter here would be a trap
    m = 64

    def partial(t: pa.Table) -> pa.Table:
        regs = np.zeros(m, np.int64)
        if t.num_rows:
            tc = _tokenize(t, col)
            if len(tc.terms):
                h1 = _poly_hash31(tc.terms, 257)
                h2 = _poly_hash31(tc.terms, 131)
                h = h1 + h2 * np.int64(1 << 31)  # < 2^62
                bucket = h % m
                w = h // m  # 56-bit remainder
                bitlen = np.zeros(w.size, np.int64)
                for i in range(57):
                    bitlen += (w >> i) > 0
                rho = 57 - bitlen  # leading zeros in 56 bits + 1
                np.maximum.at(regs, bucket, rho)
        return pa.table(
            {"bucket": pa.array(np.arange(m, dtype=np.int64)),
             "register": pa.array(regs)}
        )

    rows = (
        ds.select_columns([col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .max("register")
        .take_all()
    )
    regs = np.zeros(m, np.int64)
    for r in rows:
        regs[int(r["bucket"])] = int(r["max(register)"])
    s = 0.0
    for v in regs:  # bucket-order sequential fold — mirrors the SQL list_reduce
        s = s + 2.0 ** (-int(v))
    est_x100 = int(np.floor(0.709 * 64 * 64 / s * 100.0))
    return pa.table(
        {
            "bucket": pa.array(np.arange(m, dtype=np.int64)),
            "register": pa.array(regs),
            "est_x100": pa.array(np.full(m, est_x100, np.int64)),
        }
    )


def cms_topterms(ds, *, k: int = 10, col: str = "text"):
    """→ k-row table (term, cnt, est): Count-Min sketch (Cormode &
    Muthukrishnan 2005) over the token stream — the heavy-hitter
    companion to `hll_vocab`'s cardinality sketch. d=4 × w=256 counters;
    row j hashes t to ((a_j·h31(t)+b_j) mod 2³¹−1) mod w with the same
    derandomized (a_j, b_j) family the minhash twin uses, so DuckDB
    recomputes the whole counter table AND the per-term min-estimates
    value-for-value (everything is integer — no float anywhere).

    Scale shape: ONE tokenization pass — the per-batch distinct
    (gram, cnt) combiner feeds BOTH the CMS counters (hash the gram,
    add its count) and the exact top-k. Counters are ADDITIVE: each
    batch's d×w partial folds on the driver (a Ray groupby would pay
    seconds of all-to-all for a few KB); the exact top-k rides the
    hash-partitioned unigram counter (a term lives in exactly one
    partition, so per-partition top-k then a 64·k driver merge is
    provably the global top-k). CMS guarantees est ≥ true count.
    """
    import ray.data  # noqa: F401

    from toshi_ray.ops.dedup import _M31, _poly_hash31

    d, w = 4, 256
    partials = (
        ds.select_columns([col])
        .map_batches(lambda t: _ngram_partial(t, col, 1), batch_format="pyarrow")
        .materialize()  # distinct grams per batch — both consumers read it
    )

    def cms_partial(t: pa.Table) -> pa.Table:
        regs = np.zeros((d, w), np.int64)
        if t.num_rows:
            h = _poly_hash31(t["gram"].combine_chunks().cast(pa.string()), 257)
            cnt = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
            for j in range(d):
                a = (2654435761 * (j + 1)) % _M31
                b = (40503 * (j + 1)) % _M31
                np.add.at(regs[j], ((a * h + b) % _M31) % w, cnt)
        return pa.table(
            {
                "j": pa.array(np.repeat(np.arange(d, dtype=np.int64), w)),
                "bkt": pa.array(np.tile(np.arange(w, dtype=np.int64), d)),
                "cnt": pa.array(regs.ravel()),
            }
        )

    regs = np.zeros((d, w), np.int64)
    for r in partials.map_batches(cms_partial, batch_format="pyarrow").take_all():
        regs[int(r["j"]), int(r["bkt"])] += int(r["cnt"])

    def fold_top(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"gram": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        gc, gvoc = _codes(t["gram"])
        cnt = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        tot = np.bincount(gc, weights=cnt, minlength=len(gvoc)).astype(np.int64)
        words = np.asarray(gvoc.to_pylist(), dtype=object)
        # per-partition top-k by (cnt desc, term asc) — safe: any term
        # outside it is dominated by k better terms in its own partition
        pick = np.lexsort((words, -tot))[:k]
        return pa.table({"gram": pa.array(words[pick], pa.string()),
                         "cnt": pa.array(tot[pick])})

    rows = (
        partials
        .groupby("part")
        .map_groups(lambda t: fold_top(t.drop_columns(["part"])),
                    batch_format="pyarrow")
        .take_all()
    )
    rows.sort(key=lambda r: (-int(r["cnt"]), r["gram"]))
    top = rows[:k]
    terms = pa.array([r["gram"] for r in top], pa.string())
    h = _poly_hash31(terms, 257)
    est = np.full(len(top), np.iinfo(np.int64).max, np.int64)
    for j in range(d):
        a = (2654435761 * (j + 1)) % _M31
        b = (40503 * (j + 1)) % _M31
        est = np.minimum(est, regs[j, ((a * h + b) % _M31) % w])
    return pa.table(
        {
            "term": terms,
            "cnt": pa.array(np.array([int(r["cnt"]) for r in top], np.int64)),
            "est": pa.array(est),
        }
    )
