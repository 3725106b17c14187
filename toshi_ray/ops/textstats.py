"""Text analysis operators — language-ID, quality scoring, token stats,
document fingerprinting. All vectorized `map_batches` stages; every
formula here is deliberately simple enough to mirror in ANSI SQL so the
DuckDB oracle can verify it value-for-value.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from toshi_ray.analyzer import DefaultAnalyzer
from toshi_ray.ops._gather import col_i64, gather_table

# fixed stopword sets — mirrored verbatim in the SQL oracles
STOPWORDS = {
    "en": ["the", "of", "and", "to", "a", "in", "is", "for", "on", "that"],
    "de": ["der", "die", "das", "und", "ist", "nicht", "mit", "ein", "zu", "den"],
    "fr": ["le", "la", "les", "et", "est", "un", "une", "des", "que", "pour"],
    "es": ["el", "la", "los", "las", "y", "es", "un", "una", "que", "por"],
}
LANG_ORDER = ["en", "de", "fr", "es"]  # deterministic tie-break preference

_U = np.uint64


def _tokenize(t: pa.Table, col: str):
    an = DefaultAnalyzer()
    tc = an.tokenize_column(t[col].combine_chunks())
    return tc


def _per_doc_count_in_set(tc, n_docs: int, words: set[str]) -> np.ndarray:
    mask = pc.is_in(tc.terms, value_set=pa.array(sorted(words))).to_numpy(
        zero_copy_only=False
    )
    return np.bincount(tc.doc_index[mask], minlength=n_docs)


def _per_doc_distinct(tc, n_docs: int) -> np.ndarray:
    """Distinct terms per doc via dictionary codes — every token stays
    an int32, never a Python string (the object-lexsort this replaces
    materialized the whole batch's tokens as PyObjects)."""
    codes, vocab = tc.term_ids()
    if codes.size == 0:
        return np.zeros(n_docs, np.int64)
    v = np.int64(len(vocab))
    uniq = np.unique(tc.doc_index.astype(np.int64) * v + codes)
    return np.bincount((uniq // v).astype(np.int64), minlength=n_docs)


def token_stats(ds, col: str = "text", id_col: str = "doc_id"):
    """→ (doc_id, n_tokens, n_uniq, n_ws_tokens, text_chars)."""
    ds = ds.select_columns([id_col, col])  # prune at the read

    def stats(t: pa.Table) -> pa.Table:
        tc = _tokenize(t, col)
        n = t.num_rows
        n_tokens = tc.norms
        n_uniq = _per_doc_distinct(tc, n)
        ws = pc.split_pattern_regex(
            pc.fill_null(t[col].combine_chunks().cast(pa.string()), ""), pattern=r"\s+"
        )
        flat_len = pc.binary_length(ws.flatten().cast(pa.binary())).to_numpy(zero_copy_only=False)
        offs = ws.offsets.to_numpy(zero_copy_only=False)
        doc_of = np.repeat(np.arange(n), np.diff(offs))
        n_ws = np.bincount(doc_of[flat_len > 0], minlength=n)
        chars = pc.utf8_length(
            pc.fill_null(t[col].combine_chunks().cast(pa.string()), "")
        ).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                id_col: t[id_col],
                "n_tokens": pa.array(n_tokens.astype(np.int64)),
                "n_uniq": pa.array(n_uniq.astype(np.int64)),
                "n_ws_tokens": pa.array(n_ws.astype(np.int64)),
                "text_chars": pa.array(chars.astype(np.int64)),
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow")


def quality_score(ds, col: str = "text", id_col: str = "doc_id"):
    """→ (doc_id, n_tokens, stop_ratio, distinct_ratio, quality).

    quality = 0.4·min(n_tokens/200, 1) + 0.3·stop_ratio + 0.3·distinct_ratio
    (length prior + stopword-density prior + repetition penalty) —
    rounded to 6 dp to stay float-comparable with the SQL oracle.
    """
    ds = ds.select_columns([id_col, col])  # prune at the read

    def score(t: pa.Table) -> pa.Table:
        tc = _tokenize(t, col)
        n = t.num_rows
        n_tok = tc.norms.astype(np.float64)
        stops = _per_doc_count_in_set(tc, n, set(STOPWORDS["en"])).astype(np.float64)
        n_uniq = _per_doc_distinct(tc, n).astype(np.float64)
        safe = np.maximum(n_tok, 1.0)
        stop_ratio = stops / safe
        distinct_ratio = n_uniq / safe
        quality = (
            0.4 * np.minimum(n_tok / 200.0, 1.0) + 0.3 * stop_ratio + 0.3 * distinct_ratio
        )
        return pa.table(
            {
                id_col: t[id_col],
                "n_tokens": pa.array(tc.norms.astype(np.int64)),
                "n_stop": pa.array(stops.astype(np.int64)),
                "n_uniq": pa.array(n_uniq.astype(np.int64)),
                "stop_ratio": pa.array(stop_ratio),
                "distinct_ratio": pa.array(distinct_ratio),
                "quality": pa.array(quality),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


def lang_id(ds, col: str = "text", id_col: str = "doc_id"):
    """→ (doc_id, pred_lang): stopword-set voting, ties broken by
    LANG_ORDER then 'en' when nothing matches. N-gram-free heuristic
    language ID, SQL-mirrorable."""
    ds = ds.select_columns([id_col, col])  # prune at the read

    def pred(t: pa.Table) -> pa.Table:
        tc = _tokenize(t, col)
        n = t.num_rows
        votes = np.stack(
            [_per_doc_count_in_set(tc, n, set(STOPWORDS[l])) for l in LANG_ORDER]
        )  # (n_langs, n_docs)
        best = np.argmax(votes, axis=0)  # argmax picks FIRST max → LANG_ORDER tie-break
        none = votes.max(axis=0) == 0
        langs = np.asarray(LANG_ORDER, dtype=object)[best]
        langs[none] = "en"
        return pa.table({id_col: t[id_col], "pred_lang": pa.array(langs, type=pa.string())})

    return ds.map_batches(pred, batch_format="pyarrow")


# Gopher's required-stopword list (Rae et al. 2021, Table A1) —
# mirrored verbatim in the SQL oracle
GOPHER_STOPWORDS = ["the", "be", "to", "of", "and", "that", "have", "with"]


def gopher_quality(
    ds,
    col: str = "text",
    id_col: str = "doc_id",
    *,
    min_words: int = 50,
    max_words: int = 100_000,
):
    """→ (doc_id, n_words, tok_chars, n_sym, n_alpha, n_stop, keep):
    the Gopher composite quality FILTER (Rae et al. 2021, Table A1
    subset) as one vectorized map-only stage. ``keep`` = 1 iff ALL of:

    - word count in [min_words, max_words]
    - mean word length in [3, 10]           (3·n ≤ tok_chars ≤ 10·n)
    - symbol-to-word ratio ≤ 0.1            (10·n_sym ≤ n_words;
      symbols = '#' chars + non-overlapping '...' runs)
    - ≥ 80% of words contain a letter       (5·n_alpha ≥ 4·n_words)
    - ≥ 2 of Gopher's required stopwords present (with multiplicity)

    Every rule is a cross-multiplied INTEGER comparison — no float
    ratios — so the DuckDB twin is hash-exact. Words are the analyzed
    token stream (T1 chain), the same vocabulary every other text op
    uses. Line-shape rules (bullet/ellipsis line fractions) are out of
    scope: the input contract is single-block text."""
    ds = ds.select_columns([id_col, col])

    def f(t: pa.Table) -> pa.Table:
        tc = _tokenize(t, col)
        n = t.num_rows
        n_words = tc.norms.astype(np.int64)
        lens = pc.utf8_length(tc.terms).to_numpy(zero_copy_only=False).astype(np.int64)
        tok_chars = np.bincount(tc.doc_index, weights=lens, minlength=n).astype(np.int64)
        alpha = pc.match_substring_regex(tc.terms, "[a-z]").to_numpy(zero_copy_only=False)
        n_alpha = np.bincount(tc.doc_index[alpha], minlength=n).astype(np.int64)
        n_stop = _per_doc_count_in_set(tc, n, set(GOPHER_STOPWORDS)).astype(np.int64)
        text = pc.fill_null(t[col].combine_chunks().cast(pa.string()), "")
        n_sym = (
            pc.count_substring(text, "#").to_numpy(zero_copy_only=False).astype(np.int64)
            + pc.count_substring(text, "...").to_numpy(zero_copy_only=False).astype(np.int64)
        )
        keep = (
            (n_words >= min_words)
            & (n_words <= max_words)
            & (3 * n_words <= tok_chars)
            & (tok_chars <= 10 * n_words)
            & (10 * n_sym <= n_words)
            & (5 * n_alpha >= 4 * n_words)
            & (n_stop >= 2)
        ).astype(np.int64)
        return pa.table(
            {
                id_col: t[id_col],
                "n_words": pa.array(n_words),
                "tok_chars": pa.array(tok_chars),
                "n_sym": pa.array(n_sym),
                "n_alpha": pa.array(n_alpha),
                "n_stop": pa.array(n_stop),
                "keep": pa.array(keep),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


def repetition_stats(ds, col: str = "text", id_col: str = "doc_id"):
    """→ (doc_id, tok_chars, top2_cnt, top2_ppm, dup3_ppm) — the
    Gopher-family repetition-quality signals (Rae et al. 2021, Table A1)
    over the analyzed token stream:

    - ``top2_cnt``: occurrence count of the doc's most frequent word
      2-gram (ties broken by the bytewise-smallest ``w1 + ' ' + w2``).
    - ``top2_ppm``: characters covered by that 2-gram's occurrences as
      parts-per-million of the doc's total token characters.
    - ``dup3_ppm``: characters covered by all *duplicated* 3-grams
      (count > 1, counted with multiplicity) as ppm of token chars.

    Every value is an int64 computed with integer arithmetic only
    (``num * 1_000_000 // tok_chars``), so the DuckDB twin is
    hash-exact with zero float tolerance. N-grams are over the KEPT
    token stream (adjacent after the analyzer's long-token drop), which
    the SQL `list_filter` reproduces. The tie-break is valid because a
    space sorts below every token character ([0-9a-z]), so bytewise
    order of ``w1 || ' ' || w2`` equals order of the (w1, w2) pair.
    """
    ds = ds.select_columns([id_col, col])  # prune at the read

    def _runs(keys: list[np.ndarray], doc: np.ndarray):
        """Sort (doc, *keys) lexicographically → (run_starts, order)."""
        order = np.lexsort(tuple(reversed(keys)) + (doc,))
        cols = [doc[order]] + [k[order] for k in keys]
        neq = np.zeros(doc.size, dtype=bool)
        neq[0] = True
        for c in cols:
            neq[1:] |= c[1:] != c[:-1]
        return np.flatnonzero(neq), order

    def stats(t: pa.Table) -> pa.Table:
        tc = _tokenize(t, col)
        n = t.num_rows
        lens = pc.utf8_length(tc.terms).to_numpy(zero_copy_only=False).astype(np.int64)
        tok_chars = np.bincount(tc.doc_index, weights=lens, minlength=n).astype(np.int64)

        codes, vocab = tc.term_ids()
        top2_cnt = np.zeros(n, np.int64)
        top2_num = np.zeros(n, np.int64)
        dup3_num = np.zeros(n, np.int64)
        if codes.size:
            # remap dictionary codes (first-occurrence order) to ranks in
            # bytewise-sorted vocab order so code order == DuckDB's binary
            # VARCHAR collation (the tie-break contract above)
            sort_idx = pc.sort_indices(vocab).to_numpy(zero_copy_only=False)
            rank = np.empty(len(vocab), np.int64)
            rank[sort_idx] = np.arange(len(vocab))
            # vlen is indexed by RANK code → permute dict-order lengths
            vlen = (
                pc.utf8_length(vocab)
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)[sort_idx]
            )
            rc = rank[codes]
            doc = tc.doc_index.astype(np.int64)

            m2 = doc[1:] == doc[:-1]
            if m2.any():
                d2 = doc[:-1][m2]
                c1, c2 = rc[:-1][m2], rc[1:][m2]
                glen = vlen[c1] + vlen[c2]
                starts, order = _runs([c1, c2], d2)
                cnt = np.diff(np.r_[starts, d2.size])
                rdoc = d2[order][starts]
                rglen = glen[order][starts]
                # per doc: max count, ties → earliest run (smallest (c1,c2))
                pick = np.lexsort((np.arange(starts.size), -cnt, rdoc))
                first = np.flatnonzero(
                    np.r_[True, rdoc[pick][1:] != rdoc[pick][:-1]]
                )
                sel = pick[first]
                top2_cnt[rdoc[sel]] = cnt[sel]
                top2_num[rdoc[sel]] = cnt[sel] * rglen[sel]

            m3 = doc[2:] == doc[:-2]
            if m3.any():
                d3 = doc[:-2][m3]
                k1, k2, k3 = rc[:-2][m3], rc[1:-1][m3], rc[2:][m3]
                glen3 = vlen[k1] + vlen[k2] + vlen[k3]
                starts, order = _runs([k1, k2, k3], d3)
                cnt = np.diff(np.r_[starts, d3.size])
                rdoc = d3[order][starts]
                rglen = glen3[order][starts]
                dup = cnt > 1
                np.add.at(dup3_num, rdoc[dup], cnt[dup] * rglen[dup])

        safe = np.maximum(tok_chars, 1)
        return pa.table(
            {
                id_col: t[id_col],
                "tok_chars": pa.array(tok_chars),
                "top2_cnt": pa.array(top2_cnt),
                "top2_ppm": pa.array(top2_num * 1_000_000 // safe),
                "dup3_ppm": pa.array(dup3_num * 1_000_000 // safe),
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow")


def tfidf_keywords(ds, k: int = 3, col: str = "text", id_col: str = "doc_id",
                   only_ids: set[int] | None = None, min_df: int = 1):
    """→ (doc_id, rank, term, score_x1e6): per-doc top-k TF-IDF
    keywords, ``score = tf * ln((N+1)/(df+1))``, ties broken by term
    bytes. The classic two-pass shape for corpus-weighted per-doc
    scoring at scale:

    1. **df pass**: per-batch distinct (doc, term) → partial df counts
       → one slim term-level groupby (rows = vocab, not corpus).
    2. **broadcast + score pass**: the (term → df) table is `ray.put`
       once and every scoring task reads it zero-copy from the object
       store — a broadcast lookup, NOT a per-doc join shuffle. Web-scale
       vocabularies are O(10^7-10^8) terms ≈ a few GB — object-store
       resident, far below corpus size.

    Both passes stream; only the vocab-sized df table materializes —
    gathered as Arrow blocks (``gather_table``), never per-row dicts.
    ``min_df`` sets a floor on the broadcast vocabulary inside the df-fold tasks
    (web vocabularies are mostly junk hapaxes; a floor of even 2 drops
    the bulk before it reaches the driver); floored terms are excluded
    from keyword candidates. The default ``min_df=1`` keeps every term
    and is hash-exact vs the SQL twin — score doubles are the same IEEE
    expression the SQL evaluates.
    """
    import ray

    ds = ds.select_columns([id_col, col])

    def df_partial(t: pa.Table) -> pa.Table:
        tc = _tokenize(t, col)
        codes, vocab = tc.term_ids()
        v = max(len(vocab), 1)
        if codes.size == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "df_p": pa.array([], pa.int64())})
        uniq = np.unique(tc.doc_index.astype(np.int64) * v + codes)
        cnt = np.bincount((uniq % v).astype(np.int64), minlength=v)
        nz = np.flatnonzero(cnt)
        return pa.table(
            {"term": vocab.take(pa.array(nz)).cast(pa.string()),
             "df_p": pa.array(cnt[nz].astype(np.int64))}
        )

    df_ds = ds.map_batches(df_partial, batch_format="pyarrow").groupby("term").sum("df_p")
    if min_df > 1:
        # floor inside the fold tasks — junk terms never reach the driver
        df_ds = df_ds.map_batches(
            lambda t: t.filter(pc.greater_equal(t["sum(df_p)"], min_df)),
            batch_format="pyarrow",
        )
    dft = gather_table(df_ds)  # vocab-sized Arrow blocks, no per-row dicts
    n_total = ds.count()
    if dft is None:
        terms_sorted = np.array([], dtype=object)
        idf = np.array([], np.float64)
    else:
        terms = np.asarray(dft["term"].to_numpy(zero_copy_only=False), dtype=object)
        dfs = col_i64(dft, "sum(df_p)")
        order = np.argsort(terms)
        terms_sorted = terms[order]
        idf = np.log((n_total + 1.0) / (dfs[order] + 1.0))
    ref = ray.put((terms_sorted, idf))  # broadcast once, read per task

    def score(t: pa.Table) -> pa.Table:
        if only_ids is not None:
            # df comes from the FULL corpus above; the expensive per-doc
            # scoring pass only touches the requested docs
            t = t.filter(
                pc.is_in(t[id_col].cast(pa.int64()),
                         value_set=pa.array(sorted(only_ids), pa.int64()))
            )
        vocab_sorted, idf_b = ray.get(ref)
        tc = _tokenize(t, col)
        n = t.num_rows
        out_doc: list[np.ndarray] = []
        out_rank: list[np.ndarray] = []
        out_term: list[np.ndarray] = []
        out_score: list[np.ndarray] = []
        codes, vocab = tc.term_ids()
        if codes.size:
            # per-(doc, term) tf via code runs
            v = max(len(vocab), 1)
            key = tc.doc_index.astype(np.int64) * v + codes
            order = np.argsort(key, kind="stable")
            ks = key[order]
            starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
            tf = np.diff(np.r_[starts, ks.size]).astype(np.int64)
            rdoc = (ks[starts] // v).astype(np.int64)
            rcode = (ks[starts] % v).astype(np.int64)
            # global idf lookup; with a min_df floor some batch terms
            # are absent from the broadcast vocab — they are excluded
            # from candidates (at min_df=1 every term is present)
            vwords = np.asarray(vocab.to_pylist(), dtype=object)
            pos = np.searchsorted(vocab_sorted, vwords)
            if vocab_sorted.size:
                safe = np.minimum(pos, vocab_sorted.size - 1)
                known = vocab_sorted[safe] == vwords
                pos = safe
            else:
                known = np.zeros(len(vwords), dtype=bool)
                pos = np.zeros(len(vwords), np.int64)
            kept = known[rcode]
            rdoc, rcode, tf = rdoc[kept], rcode[kept], tf[kept]
            sc = tf * idf_b[pos[rcode]]
            # rank terms bytewise for the tie-break
            srt = pc.sort_indices(vocab).to_numpy(zero_copy_only=False)
            rank = np.empty(len(vocab), np.int64)
            rank[srt] = np.arange(len(vocab))
            pick = np.lexsort((rank[rcode], -sc, rdoc))
            rd = rdoc[pick]
            first = np.flatnonzero(np.r_[True, rd[1:] != rd[:-1]])
            within = np.arange(rd.size) - np.repeat(first, np.diff(np.r_[first, rd.size]))
            keep = within < k
            out_doc.append(rd[keep])
            out_rank.append((within[keep] + 1).astype(np.int64))
            out_term.append(vwords[rcode[pick][keep]])
            out_score.append(np.floor(sc[pick][keep] * 1e6).astype(np.int64))
        if not out_doc:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "rank": pa.array([], pa.int64()),
                             "term": pa.array([], pa.string()),
                             "score_x1e6": pa.array([], pa.int64())})
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                id_col: pa.array(ids[out_doc[0]]),
                "rank": pa.array(out_rank[0]),
                "term": pa.array(out_term[0], type=pa.string()),
                "score_x1e6": pa.array(out_score[0]),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


def fingerprint(ds, col: str = "text", id_col: str = "doc_id",
                token_hash: str = "fast"):
    """→ (doc_id, fp): rolling polynomial hash over the token stream —
    an order-sensitive document fingerprint.

    ``token_hash="fast"`` (default): 64-bit FNV token hashes folded mod
    2^61−1 — the production identity path (collision space matters: at
    2^31 a 50k-doc corpus already expects colliding pairs).
    ``token_hash="sql"``: mod 2^31−1 with `_poly_hash31` tokens — every
    step BIGINT-safe and recomputed value-for-value by the DuckDB
    oracle (list_reduce Horner). Same recurrence either way."""
    ds = ds.select_columns([id_col, col])  # prune at the read
    from toshi_ray.codecs import _hash_strings
    from toshi_ray.ops.dedup import _M31, _poly_hash31

    def fp(t: pa.Table) -> pa.Table:
        tc = _tokenize(t, col)
        n = t.num_rows
        if token_hash == "sql":
            th = _poly_hash31(tc.terms)
            base, mod = np.int64(1_000_003), _M31
            out = np.zeros(n, dtype=np.int64)
        else:
            mod61 = _U((1 << 61) - 1)
            th = (_hash_strings(tc.terms) % mod61).astype(_U)
            base, mod = _U(1_000_003), mod61
            out = np.zeros(n, dtype=_U)
        # horner over each doc's token stream; loop bounded by max doc
        # length, vectorized across docs. fast path: out*base < 2^81
        # wraps uint64 — fine for an identity hash (still deterministic
        # and batch-invariant), the explicit mod keeps values < 2^61.
        counts = np.bincount(tc.doc_index, minlength=n)
        offs = np.zeros(n + 1, np.int64)
        np.cumsum(counts, out=offs[1:])
        max_len = int(counts.max()) if n else 0
        for j in range(max_len):
            sel = counts > j
            idx = offs[:-1][sel] + j
            out[sel] = (out[sel] * base + th[idx]) % mod
        return pa.table({id_col: t[id_col], "fp": pa.array(out)})

    return ds.map_batches(fp, batch_format="pyarrow")


def winnow(ds, col: str = "text", id_col: str = "doc_id", *,
           k: int = 5, window: int = 4):
    """→ Dataset of (doc_id, n_grams, n_fp, fp_sum): winnowing document
    fingerprints (Schleimer, Wilkerson & Aiken 2003 — the MOSS local
    fingerprinting scheme). Per doc: k-token rolling polynomial shingle
    hashes (the derandomized mod-2^31-1 scheme, SQL-recomputable); every
    window of `window` consecutive hashes selects its MINIMUM value; the
    fingerprint set is the distinct selected values. Docs with fewer
    than `window` hashes contribute min(hashes) (winnowing's guarantee:
    every doc with >= k tokens yields >= 1 fingerprint).

    Map-only (zero shuffle): n_fp bounds ~2/(window+1) of positions in
    expectation, fp_sum is an order-free set checksum (each value
    < 2^31, so any realistic doc stays far from BIGINT overflow).
    """
    from toshi_ray.ops.dedup import _shingle_hashes

    ds = ds.select_columns([id_col, col])
    out_schema = pa.schema(
        [("doc_id", pa.int64()), ("n_grams", pa.int64()),
         ("n_fp", pa.int64()), ("fp_sum", pa.int64())]
    )

    def fp(t: pa.Table) -> pa.Table:
        tc = _tokenize(t, col)
        h, offs = _shingle_hashes(tc, t.num_rows, k, token_hash="sql")
        if h.size == 0:
            return out_schema.empty_table()
        counts = np.diff(offs)
        n_docs = t.num_rows
        doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), counts)
        sel_doc_parts, sel_val_parts = [], []
        if h.size >= window:
            # global sliding min, then keep only windows that sit fully
            # inside one doc (start and end share a doc index)
            sw = np.lib.stride_tricks.sliding_window_view(h, window)
            mins = sw.min(axis=1)
            starts = np.arange(mins.size)
            valid = doc_of[starts] == doc_of[starts + window - 1]
            sel_doc_parts.append(doc_of[starts[valid]])
            sel_val_parts.append(mins[valid])
        shorts = np.flatnonzero((counts > 0) & (counts < window))
        if shorts.size:
            # reduceat segments must be CONSECUTIVE nonempty-doc starts
            # (a short-docs-only index list would reduce each segment to
            # the next short doc's start, swallowing neighbours' hashes)
            nonempty = np.flatnonzero(counts > 0)
            mins_all = np.minimum.reduceat(h, offs[:-1][nonempty])
            pick = counts[nonempty] < window
            sel_doc_parts.append(nonempty[pick])
            sel_val_parts.append(mins_all[pick])
        sel_doc = np.concatenate(sel_doc_parts) if sel_doc_parts else np.empty(0, np.int64)
        sel_val = np.concatenate(sel_val_parts) if sel_val_parts else np.empty(0, np.int64)
        # distinct (doc, value) then per-doc count + sum
        order = np.lexsort((sel_val, sel_doc))
        d_s, v_s = sel_doc[order], sel_val[order]
        first = np.ones(d_s.size, bool)
        first[1:] = (d_s[1:] != d_s[:-1]) | (v_s[1:] != v_s[:-1])
        d_u, v_u = d_s[first], v_s[first]
        n_fp = np.bincount(d_u, minlength=n_docs).astype(np.int64)
        fp_sum = np.zeros(n_docs, np.int64)
        np.add.at(fp_sum, d_u, v_u)
        has = counts > 0
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids[has]),
                "n_grams": pa.array(counts[has].astype(np.int64)),
                "n_fp": pa.array(n_fp[has]),
                "fp_sum": pa.array(fp_sum[has]),
            }
        )

    return ds.map_batches(fp, batch_format="pyarrow")


def lm_surprisal(ds, col: str = "text", id_col: str = "doc_id",
                 min_count: int = 1):
    """→ Dataset of (doc_id, n_tok, surprisal_x1e3, mean_x1e3): unigram
    language-model surprisal per doc — the CCNet-style "perplexity
    bucket" quality signal, with the corpus itself as the LM.

    Per token t: floor(1000 * ln(N / c_t)) — an INTEGER per token, so
    the per-doc sum is order-free and bit-identical on both engines
    (a float sum would depend on addition order). mean_x1e3 is integer
    division by the token count.

    Scale shape: pass 1 is the standard unigram wordcount (map-side
    combine, 64-way partitioned sum) gathered once as Arrow blocks
    (``gather_table``, no per-row dicts) and broadcast via ray.put
    (Zipf-bounded vocabulary); pass 2 is map-only scoring.
    ``min_count`` sets a floor on the broadcast table INSIDE the fold tasks —
    floored (rare) tokens score with c_t = 1 while the corpus total N
    stays exact via a per-partition dropped-mass row (the empty-string
    gram, which no real token can be). The default ``min_count=1`` is
    hash-exact vs the SQL twin."""
    import ray
    import ray.data  # noqa: F401

    from toshi_ray.ops.corpus import _floored_counts, _ngram_partial

    uni_t = gather_table(
        ds.select_columns([col])
        .map_batches(lambda t: _ngram_partial(t, col, 1), batch_format="pyarrow")
        .groupby("part")
        .map_groups(
            lambda t: _floored_counts(t.drop_columns(["part"]), min_count),
            batch_format="pyarrow",
        )
    )
    if uni_t is None:
        words = np.array([], dtype=object)
        wcnt = np.array([], np.int64)
        total = 0.0
    else:
        words = np.asarray(uni_t["gram"].to_numpy(zero_copy_only=False),
                           dtype=object)
        wcnt = col_i64(uni_t, "cnt")
        total = float(wcnt.sum())  # includes dropped-mass rows: exact N
        real = words != ""  # strip the dropped-mass marker rows
        words = words[real].astype(str)  # <U dtype: C-level searchsorted
        wcnt = wcnt[real]
        order = np.argsort(words)
        words, wcnt = words[order], wcnt[order]
    ref = ray.put((words, wcnt))

    out_schema = pa.schema(
        [("doc_id", pa.int64()), ("n_tok", pa.int64()),
         ("surprisal_x1e3", pa.int64()), ("mean_x1e3", pa.int64())]
    )

    def score(t: pa.Table) -> pa.Table:
        tc = _tokenize(t, col)
        n_docs = t.num_rows
        n_tok = np.bincount(tc.doc_index, minlength=n_docs).astype(np.int64)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        has = n_tok > 0
        if tc.doc_index.size == 0:
            return out_schema.empty_table()
        w, c = ray.get(ref)
        toks = tc.terms.to_numpy(zero_copy_only=False).astype(str)
        if w.size:
            pos = np.minimum(np.searchsorted(w, toks), w.size - 1)
            # floored-out (rare) tokens score at max surprisal: c_t = 1
            ct = np.where(w[pos] == toks, c[pos], 1)
        else:
            ct = np.ones(toks.size, np.int64)
        # integer per-token surprisal: same IEEE division + ln on both
        # engines, floored BEFORE the (then order-free) sum
        s_tok = np.floor(np.log(total / ct.astype(np.float64)) * 1000.0).astype(np.int64)
        tot_doc = np.zeros(n_docs, np.int64)
        np.add.at(tot_doc, tc.doc_index, s_tok)
        return pa.table(
            {
                "doc_id": pa.array(ids[has]),
                "n_tok": pa.array(n_tok[has]),
                "surprisal_x1e3": pa.array(tot_doc[has]),
                "mean_x1e3": pa.array(tot_doc[has] // n_tok[has]),
            }
        )

    return ds.select_columns([id_col, col]).map_batches(score, batch_format="pyarrow")
