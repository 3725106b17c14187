"""BM25 top-k search over segment partitions.

Execution mirrors the reference's search path (`LocalIndex::search_index`,
`toshi-server/src/handle.rs:77-160`, SURVEY.md §3.3) re-expressed for a
partitioned index: the driver computes GLOBAL statistics (N, avgdl, per
query-term df summed across segments — the stats-broadcast step
SURVEY.md §2.5 calls out), broadcasts (plan, stats) to per-segment
scorers, each scorer produces a local top-k + facet counts, and the
driver heap-merges and cuts to k — the `SearchResults` Add/Sum monoid
(`toshi-types/src/client.rs:37-55`) with the re-sort the reference's
concat-merge omits.

Scoring semantics (tantivy 0.19 as configured by Toshi, SURVEY.md §2.5):

    idf(t)  = ln(1 + (N - df + 0.5) / (df + 0.5))
    score   = idf * (k1+1) * tf / (tf + k1 * (1 - b + b * dl/avgdl))
    k1=1.2, b=0.75; dl = byte-quantized fieldnorm, avgdl from exact
    token totals; phrase queries use Σ idf of their terms and the
    phrase frequency; range/all/regex/fuzzy score a constant 1.0 (regex
    and fuzzy are automaton queries → AutomatonWeight wraps a
    BitSetDocSet in ConstScorer(1.0)); bool sums
    its scoring clauses; `term^2` raw boosts multiply. Tie-break:
    (score desc, doc_id asc) — doc ids are insertion-ordered
    (SURVEY.md §2.2 T4).

Scorers run as Ray actors (one per segment group — the stateful stage
holding postings/norms, SURVEY.md §7.2); a local in-process mode exists
for tiny indexes and tests.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from toshi_ray import codecs
from toshi_ray.fieldnorm import id_to_fieldnorm
from toshi_ray.pipelines.build import (
    FORMAT_VERSION,
    MANIFEST_FILE,
    SCHEMA_FILE,
    SEGMENTS_DIR,
    load_manifest,
    load_tombstones,
)
from toshi_ray.query import (
    AllQuery,
    BoolQuery,
    BoostQuery,
    FuzzyQuery,
    PhraseQuery,
    QueryError,
    RangeQuery,
    RawQuery,
    RegexQuery,
    Search,
    TermQuery,
    parse_raw,
)
from toshi_ray.schema import Schema
from toshi_ray.segments import SegmentReader, decode_positions, decode_postings

import logging

_SEARCH_LOG = logging.getLogger("toshi_ray.search")

K1 = 1.2
B = 0.75


def idf(n_docs: int, df) -> np.ndarray | float:
    df = np.asarray(df, dtype=np.float64)
    return np.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


def _zone_excludes(reader, col: str, *, gt=None, gte=None, lt=None, lte=None) -> bool:
    """True when the segment's zone map ([min, max] per integer fast
    field, written at build/merge time) proves NO doc can satisfy the
    bounds — the caller skips the segment without touching docvalues
    data pages. Exclusive bounds win over inclusive, mirroring the
    evaluation path (range.rs:131-153). Absent stats → never exclude."""
    z = reader.meta.get("fastfield_stats", {}).get(col)
    if not z:
        return False
    zmin, zmax = z[0], z[1]
    if gt is not None:
        if zmax <= gt:
            return True
    elif gte is not None and zmax < gte:
        return True
    if lt is not None:
        if zmin >= lt:
            return True
    elif lte is not None and zmin > lte:
        return True
    return False


@dataclass
class Stats:
    """Broadcast global statistics (+ tombstoned doc ids, applied at
    query time until a merge removes them physically)."""

    n_docs: int
    avgdl: dict  # field -> float
    idf: dict  # (field, term) -> float
    tombstones: np.ndarray | None = None


class _StatsState:
    """Per-manifest stats snapshot, rebound ATOMICALLY by refresh():
    a query grabs one reference and reads a consistent (n_docs, avgdl,
    df cache, tombstones) set even if a refresh lands mid-query. The
    df cache is keyed to this snapshot's manifest; concurrent fills
    are idempotent."""

    __slots__ = ("n_docs", "avgdl", "tombstones", "df_cache")

    def __init__(self, n_docs: int, avgdl: dict, tombstones: np.ndarray):
        self.n_docs = n_docs
        self.avgdl = avgdl
        self.tombstones = tombstones
        self.df_cache: dict = {}  # (field, term) -> global df


def _levenshtein_filter(
    terms: "pa.Array | pa.ChunkedArray", query: str, distance: int, transposition: bool
) -> list[str]:
    """Terms of an Arrow string column (the segment's unique term dict)
    within edit distance of ``query`` — a vectorized DP over the
    candidate code-point matrix. A pc.utf8_length mask keeps only the
    |len−qlen| ≤ d window, and the DP's verdict is applied as a mask
    too, so only matching terms ever become Python strings."""
    if isinstance(terms, pa.ChunkedArray):
        terms = terms.combine_chunks()
    if distance == 0:
        return terms.filter(pc.equal(terms, query)).to_pylist()
    q = np.frombuffer(query.encode("utf-32-le"), dtype=np.uint32)
    lens = pc.utf8_length(terms).to_numpy(zero_copy_only=False).astype(np.int64)
    window = np.abs(lens - q.size) <= distance
    if not window.any():
        return []
    cands = terms.filter(pa.array(window))
    lens = lens[window]
    n = len(cands)
    # candidate code-point matrix in ONE encode + one vectorized scatter
    codes = np.frombuffer("".join(cands.to_pylist()).encode("utf-32-le"), dtype=np.uint32)
    offs = np.zeros(n + 1, np.int64)
    np.cumsum(lens, out=offs[1:])
    maxlen = int(lens.max())
    mat = np.zeros((n, maxlen), dtype=np.uint32)
    rows = np.repeat(np.arange(n, dtype=np.int64), lens)
    cols = np.arange(int(lens.sum()), dtype=np.int64) - np.repeat(offs[:-1], lens)
    mat[rows, cols] = codes
    prev = np.broadcast_to(np.arange(maxlen + 1, dtype=np.int32), (n, maxlen + 1)).copy()
    prev2 = None
    for j in range(1, q.size + 1):
        cur = np.empty_like(prev)
        cur[:, 0] = j
        sub_cost = (mat != q[j - 1]).astype(np.int32)
        for c in range(1, maxlen + 1):
            cur[:, c] = np.minimum(
                np.minimum(cur[:, c - 1] + 1, prev[:, c] + 1),
                prev[:, c - 1] + sub_cost[:, c - 1],
            )
            if transposition and j >= 2 and c >= 2 and prev2 is not None:
                swap = (mat[:, c - 1] == q[j - 2]) & (mat[:, c - 2] == q[j - 1])
                cur[:, c] = np.where(
                    swap, np.minimum(cur[:, c], prev2[:, c - 2] + 1), cur[:, c]
                )
        prev2, prev = prev, cur
    d = prev[np.arange(n), lens]
    return cands.filter(pa.array(d <= distance)).to_pylist()


class SegmentGroupScorer:
    """Holds readers for a group of segments; evaluates query plans.

    This is the stateful stage: each reader's term dictionary, norms
    and fast fields load once per actor (`__init__`-style amortization);
    per query, posting rows come from the reader's cached table, or
    from a parquet predicate read on an over-threshold segment.
    """

    def __init__(self, seg_dirs: list[str], schema_json: list):
        self.readers = [SegmentReader(d) for d in seg_dirs]
        self.schema = Schema.from_json(schema_json)
        self._expand_cache: dict = {}  # (seg, field, query-key) -> [terms]

    def perf_counters(self) -> dict:
        """The scorer's block counters, as perfbench's tracer reads them.
        Every posting list decodes whole, so both stay 0."""
        return {"blocks_decoded": 0, "blocks_total": 0}

    def suggest_terms(self, field: str, prefix: str) -> list[tuple[str, int]]:
        """All (term, df) pairs under `prefix` in this group's term
        dicts, df summed across shard rows and segments. Returns the
        FULL prefix-filtered set (not a local top-k): df partials sum
        across groups, so any local cut could drop a term that is
        top-k globally. Prefix vocabularies are tiny by construction."""
        acc: dict[str, int] = {}
        for r in self.readers:
            t = r.term_dict(field)
            m = pc.starts_with(t["term"].combine_chunks().cast(pa.string()), prefix)
            ft = t.filter(m)
            terms = ft["term"].to_pylist()
            dfs = ft["df"].to_numpy(zero_copy_only=False)
            for term, df in zip(terms, dfs):
                acc[term] = acc.get(term, 0) + int(df)
        return sorted(acc.items())

    # ---------------- stats phase ----------------

    def term_dfs(self, pairs: list[tuple[str, str]]) -> dict:
        out: dict[tuple[str, str], int] = {}
        by_field: dict[str, list[str]] = {}
        for f, t in pairs:
            by_field.setdefault(f, []).append(t)
        for r in self.readers:
            for f, terms in by_field.items():
                # df-only path: never copies posting payloads
                for term, df in r.df_for_terms(f, terms).items():
                    out[(f, term)] = out.get((f, term), 0) + df
        return out

    # ---------------- scoring phase ----------------

    def score_topk(
        self,
        plan,
        stats: Stats,
        k: int,
        sort_by: str | None = None,
        facets: dict | None = None,
        sort_floor: float | None = None,
    ):
        """Per-segment eval → local top-k: every query, sorted or scored,
        is evaluated exhaustively by `_eval` and cut by one lexsort.
        Returns (rows [(doc_id, score, seg_idx_local)], facet_counts dict)."""
        top_rows: list[tuple[int, float, int]] = []
        facet_counts: dict[str, int] = {}
        readers_iter = list(enumerate(self.readers))
        # sort-by top-k zone pruning: a segment whose zone-map max for
        # the sort field is below the running k-th value cannot place a
        # doc in the top k (sort is value-desc, doc_id-asc tie-break; a
        # tie at zmax could still win on doc_id, so the skip is strict
        # <). Visit unknown-bound segments first, then zmax-desc so the
        # threshold tightens as early as possible. Facets need every
        # segment's matches, so any facet request disables the skip.
        # `sort_floor` is a driver-computed GLOBAL lower bound on the
        # k-th sort value (sound across scorer groups, where the local
        # running threshold cannot see other groups' segments).
        sort_prune = sort_by is not None and not facets and k > 0
        if sort_prune:
            def _zmax(r):
                # float cast: the ranking itself is float64-based
                # (_fast_values astype), so the prune must compare in
                # the same rounded domain — an exact-int comparison
                # could prune a >2^53 value that TIES the k-th float
                z = r.meta.get("fastfield_stats", {}).get(sort_by)
                return None if z is None else float(z[1])

            readers_iter.sort(
                key=lambda p: (0, 0) if _zmax(p[1]) is None else (1, -_zmax(p[1]))
            )
            top_vals: list[float] = []  # running top-k sort values, desc
        for si, reader in readers_iter:
            if sort_prune:
                zm = _zmax(reader)
                if zm is not None and (
                    (sort_floor is not None and zm < sort_floor)
                    or (len(top_vals) >= k and zm < top_vals[k - 1])
                ):
                    continue
            doc_ids, scores = self._eval(plan, reader, stats)
            if stats.tombstones is not None and stats.tombstones.size and doc_ids.size:
                keep = ~np.isin(doc_ids, stats.tombstones)
                doc_ids, scores = doc_ids[keep], scores[keep]
            if facets:
                self._count_facets(reader, doc_ids, facets, facet_counts)
            if doc_ids.size == 0:
                continue
            if sort_by is not None:
                fdef = self.schema.field(sort_by)
                if fdef is None:
                    raise QueryError.execution(f"Unknown field: {sort_by}")
                vals = self._fast_values(reader, sort_by, doc_ids).astype(np.float64)
                order = np.lexsort((doc_ids, -vals))[:k]
                for i in order:
                    top_rows.append((int(doc_ids[i]), float(vals[i]), si))
                if sort_prune:
                    # NULL sort values surface as NaN — keep them out
                    # of the threshold (NaN both misorders Python's
                    # sorted() and is not a value bound); the threshold
                    # engages only once k REAL values are collected
                    top_vals = sorted(
                        top_vals + [v for i in order if (v := float(vals[i])) == v],
                        reverse=True,
                    )[:k]
            else:
                order = np.lexsort((doc_ids, -scores))[:k]
                for i in order:
                    top_rows.append((int(doc_ids[i]), float(scores[i]), si))
        return top_rows, facet_counts

    def score_topk_many(
        self, plans, stats: Stats, ks, sort_bys, facets_list, sort_floors=None
    ):
        """Batched variant: score MANY queries in one actor round-trip
        (amortizes RPC + postings fetch for query-set workloads)."""
        if sort_floors is None:
            sort_floors = [None] * len(plans)
        return [
            self.score_topk(p, stats, k, sb, fc, fl)
            for p, k, sb, fc, fl in zip(plans, ks, sort_bys, facets_list, sort_floors)
        ]

    def count_matches(self, plan, stats: Stats) -> int:
        return sum(a.size for a in self.match_ids(plan, stats))

    def match_ids(self, plan, stats: Stats) -> list[np.ndarray]:
        out = []
        for r in self.readers:
            ids = self._eval(plan, r, stats)[0]
            if stats.tombstones is not None and stats.tombstones.size and ids.size:
                ids = ids[~np.isin(ids, stats.tombstones)]
            out.append(ids)
        return out

    def fetch_docs(self, wanted: dict) -> list[dict]:
        """wanted: {local segment idx: [doc_ids]} → stored docs."""
        out = []
        for si, ids in wanted.items():
            t = self.readers[si].store(np.asarray(ids, dtype=np.uint64))
            out.extend(t.to_pylist())
        return out

    # ---------------- evaluation ----------------

    def _norm_lookup(self, reader: SegmentReader, field: str, doc_ids: np.ndarray) -> np.ndarray:
        col = f"norm_{field}"
        if col not in reader.dv_column_names():
            return np.zeros(doc_ids.size, dtype=np.uint64)
        all_ids = reader.doc_ids()
        idx = np.searchsorted(all_ids, doc_ids)
        codes = reader.docvalues([col])[col].to_numpy(zero_copy_only=False)
        return id_to_fieldnorm(codes[idx])

    def _fast_values(self, reader: SegmentReader, field: str, doc_ids: np.ndarray) -> np.ndarray:
        if field not in reader.dv_column_names():
            raise QueryError.execution(f"Unknown field: {field}")
        all_ids = reader.doc_ids()
        idx = np.searchsorted(all_ids, doc_ids)
        return reader.docvalues([field])[field].to_numpy(zero_copy_only=False)[idx]

    def _field_or_raise(self, name: str):
        fdef = self.schema.field(name)
        if fdef is None:
            raise QueryError.execution(f"Unknown field: {name}")
        if not fdef.indexed:
            raise QueryError.index(f"The field '{name}' is not declared as indexed")
        return fdef

    def _postings(self, reader: SegmentReader, field: str, term: str):
        """(doc_ids, tfs) of one term, its hot-term shards concatenated
        in doc order (the reader returns shard rows by first_doc)."""
        tbl = reader.postings_for_terms(field, [term], ["df", "doc_ids", "tfs"])
        if tbl.num_rows == 0:  # absent here: skip the decoder's fixed cost
            return np.empty(0, np.uint64), np.empty(0, np.uint64)
        return decode_postings(tbl)[:2]

    def _bm25(self, reader, field, doc_ids, tfs, weight_idf, stats: Stats) -> np.ndarray:
        dl = self._norm_lookup(reader, field, doc_ids).astype(np.float64)
        avgdl = max(stats.avgdl.get(field, 0.0), 1e-9)
        tf = tfs.astype(np.float64)
        return weight_idf * (K1 + 1.0) * tf / (tf + K1 * (1.0 - B + B * dl / avgdl))

    def _eval(self, node, reader: SegmentReader, stats: Stats):
        """→ (sorted unique doc_ids: uint64, scores: float64)."""
        if isinstance(node, AllQuery):
            ids = reader.doc_ids().astype(np.uint64)
            return ids, np.ones(ids.size, np.float64)

        if isinstance(node, TermQuery):
            fdef = self._field_or_raise(node.field)
            if fdef.is_text:
                doc_ids, tfs = self._postings(reader, node.field, node.value)
                if doc_ids.size == 0:
                    return doc_ids, np.empty(0, np.float64)
                w = stats.idf.get((node.field, node.value), 0.0)
                return doc_ids, self._bm25(reader, node.field, doc_ids, tfs, w, stats)
            # numeric/facet equality — constant score (divergence note: the
            # reference only exercises term queries on text fields)
            col = node.field if fdef.is_numeric else f"facet_{node.field}"
            if col not in reader.dv_column_names():
                return np.empty(0, np.uint64), np.empty(0, np.float64)
            if fdef.is_numeric:
                try:
                    target = int(node.value)
                except (TypeError, ValueError):
                    raise QueryError.execution(
                        f"Invalid value for numeric field '{node.field}': '{node.value}'"
                    )
                if _zone_excludes(reader, col, gte=target, lte=target):
                    return np.empty(0, np.uint64), np.empty(0, np.float64)
            else:
                target = node.value
            vals = reader.docvalues([col])[col]
            # fill_null: a doc that omits this optional field stores a
            # null — pc.equal propagates it and the null-bearing boolean
            # would come back as an OBJECT array that numpy rejects as a
            # mask (null never equals the target, per the reference)
            mask = pc.fill_null(pc.equal(vals, target), False).to_numpy(
                zero_copy_only=False
            )
            ids = reader.doc_ids()[mask].astype(np.uint64)
            return ids, np.ones(ids.size, np.float64)

        if isinstance(node, PhraseQuery):
            return self._eval_phrase(node, reader, stats)

        if isinstance(node, (FuzzyQuery, RegexQuery)):
            self._field_or_raise(node.field)
            ck = (reader.dir, node.field, node)
            matched = self._expand_cache.get(ck)
            if matched is None:
                # the dict stays Arrow end-to-end — only the matching
                # terms ever become Python strings. pc.unique collapses
                # hot-term SHARDS (merge splits high-df terms into one
                # postings row per doc range) so no term's postings are
                # fetched/decoded once per shard
                dict_tbl = reader.term_dict(node.field)
                terms_arr = pc.unique(dict_tbl["term"].combine_chunks())
                if isinstance(node, FuzzyQuery):
                    matched = _levenshtein_filter(
                        terms_arr, node.value, node.distance, node.transposition
                    )
                else:
                    # validate with the ENGINE that executes (Arrow/RE2):
                    # gating on Python's `re` would reject RE2-valid
                    # patterns ([[:alpha:]]) and let Python-only syntax
                    # (lookahead, backrefs) escape as ArrowInvalid
                    try:
                        matched_mask = pc.match_substring_regex(
                            terms_arr, f"^(?:{node.pattern})$"
                        )
                    except pa.ArrowInvalid:
                        raise QueryError.execution(
                            f"Invalid regex: {node.pattern}"
                        ) from None
                    matched = terms_arr.filter(matched_mask).to_pylist()
                if len(self._expand_cache) >= 1024:  # bound actor memory
                    self._expand_cache.pop(next(iter(self._expand_cache)))
                self._expand_cache[ck] = matched
            if not matched:
                return np.empty(0, np.uint64), np.empty(0, np.float64)
            # ONE batched postings fetch and ONE decode for every matched
            # term (a broad regex can match 10^4 dict terms — per-term
            # calls would be that many lookups)
            tbl = reader.postings_for_terms(node.field, matched, ["df", "doc_ids", "tfs"])
            # Both fuzzy and regex are automaton queries in tantivy 0.19:
            # AutomatonWeight unions matching terms into one BitSetDocSet
            # wrapped in ConstScorer(1.0), so every matching doc scores 1.0
            # regardless of how many edit-distance variants it contains
            # (fuzzy.rs:31 → tantivy automaton_weight.rs).
            ids = np.unique(decode_postings(tbl)[0])
            return ids, np.ones(ids.size, np.float64)

        if isinstance(node, RangeQuery):
            self._check_schema(node)
            if node.field not in reader.dv_column_names():
                raise QueryError.execution(f"Unknown field: {node.field}")
            if _zone_excludes(reader, node.field, gt=node.gt, gte=node.gte,
                              lt=node.lt, lte=node.lte):
                # segment zone map proves no doc can match — skip the
                # docvalues data pages entirely
                return np.empty(0, np.uint64), np.empty(0, np.float64)
            vals = self._fast_values_all(reader, node.field)
            mask = np.ones(vals.size, dtype=bool)
            # exclusive bounds win over inclusive (range.rs:131-153)
            if node.gt is not None:
                mask &= vals > node.gt
            elif node.gte is not None:
                mask &= vals >= node.gte
            if node.lt is not None:
                mask &= vals < node.lt
            elif node.lte is not None:
                mask &= vals <= node.lte
            ids = reader.doc_ids()[mask].astype(np.uint64)
            return ids, np.ones(ids.size, np.float64)

        if isinstance(node, BoolQuery):
            return self._eval_bool(node, reader, stats)

        if isinstance(node, BoostQuery):
            ids, scores = self._eval(node.query, reader, stats)
            return ids, scores * node.boost

        raise QueryError.execution(f"Unsupported query node: {type(node).__name__}")

    def _fast_values_all(self, reader: SegmentReader, field: str) -> np.ndarray:
        if field not in reader.dv_column_names():
            raise QueryError.execution(f"Unknown field: {field}")
        return reader.docvalues([field])[field].to_numpy(zero_copy_only=False)

    def _eval_phrase(self, node: PhraseQuery, reader: SegmentReader, stats: Stats):
        self._check_schema(node)
        offsets = node.offsets or tuple(range(len(node.terms)))
        # pass 1: doc-id intersection WITHOUT touching positions — most
        # phrase candidates die here, and the positions payload is the
        # largest column in the segment. (Pass 2 decodes a term's whole
        # position stream; that stays O(segment), and segments are
        # bounded by docs_per_segment — block-aligned position offsets
        # would shave a constant factor at the cost of a format bump.)
        fetched = []  # (ids, tfs) per term
        for t in node.terms:
            ids, tfs = self._postings(reader, node.field, t)
            if ids.size == 0:
                return np.empty(0, np.uint64), np.empty(0, np.float64)
            fetched.append((ids, tfs))
        cand = fetched[0][0]
        for ids, _ in fetched[1:]:
            cand = np.intersect1d(cand, ids, assume_unique=True)
        if cand.size == 0:
            return cand.astype(np.uint64), np.empty(0, np.float64)

        # pass 2: positions only for the surviving conjunction, decoded
        # in one call against pass 1's tfs (both fetches return shard
        # rows in the same doc order, so they align)
        per_term = []
        for t, (ids, tfs) in zip(node.terms, fetched):
            tbl = reader.postings_for_terms(node.field, [t], ["positions"])
            pos, offs = decode_positions(tbl, tfs)
            per_term.append((ids, pos.astype(np.int64), offs))

        survivors = None
        for i, (ids, pos, offs) in enumerate(per_term):
            delta = offsets[i] - offsets[0]
            sel = np.searchsorted(ids, cand)
            starts, lens = offs[sel], offs[sel + 1] - offs[sel]
            flat = codecs.take_ranges(pos, starts, lens)
            docidx = np.repeat(np.arange(cand.size, dtype=np.int64), lens)
            adj = flat - delta
            ok = adj >= 0
            keys = (docidx[ok] << np.int64(32)) | adj[ok]
            survivors = keys if survivors is None else np.intersect1d(
                survivors, keys, assume_unique=True
            )
            if survivors.size == 0:
                return np.empty(0, np.uint64), np.empty(0, np.float64)

        ptf = np.bincount((survivors >> np.int64(32)), minlength=cand.size)
        hit = ptf > 0
        doc_ids = cand[hit].astype(np.uint64)
        sum_idf = float(sum(stats.idf.get((node.field, t), 0.0) for t in node.terms))
        scores = self._bm25(reader, node.field, doc_ids, ptf[hit], sum_idf, stats)
        return doc_ids, scores

    def _check_schema(self, node) -> None:
        """Raise what `_eval` raises for ``node`` from the schema alone,
        reading nothing from the segment: an unknown or unindexed field,
        a phrase on a field without positions, a range on a field that
        is not i64/u64 or with a negative u64 bound. A bool checks every
        clause, so a clause its early exit skips still fails the query
        on every index."""
        if isinstance(node, BoolQuery):
            for q in (*node.must, *node.should, *node.must_not):
                self._check_schema(q)
        elif isinstance(node, BoostQuery):
            self._check_schema(node.query)
        elif isinstance(node, (TermQuery, PhraseQuery, FuzzyQuery, RegexQuery, RangeQuery)):
            fdef = self._field_or_raise(node.field)
            if isinstance(node, PhraseQuery) and not fdef.positions:
                raise QueryError.execution(
                    f"Field '{node.field}' does not record positions"
                )
            if isinstance(node, RangeQuery):
                # date is "numeric" for storage but the reference's range path
                # (query/range.rs create_range_query) only builds i64/u64
                # ranges — reject it cleanly instead of a numpy dtype error
                if not fdef.is_numeric or fdef.type == "date":
                    raise QueryError.execution(
                        f"Range queries are only supported for i64 and u64 fields"
                    )
                if fdef.type == "u64":
                    for bnd in (node.gte, node.lte, node.gt, node.lt):
                        if bnd is not None and bnd < 0:
                            raise QueryError.json(
                                f"invalid value: integer `{bnd}`, expected u64"
                            )

    def _eval_bool(self, node: BoolQuery, reader: SegmentReader, stats: Stats):
        """Musts intersect one at a time, rarest first: text-term musts by
        descending idf, then the other musts in their given order. Once
        the running set is empty, the segment returns without reading
        any later must, should or must_not (`_check_schema` still checks
        them, so a malformed query fails the same way on every index)."""

        def rarest_first(q):
            fdef = self.schema.field(q.field) if isinstance(q, TermQuery) else None
            if fdef is not None and fdef.is_text:
                return (0, -stats.idf.get((q.field, q.value), 0.0))
            return (1, 0.0)

        musts = sorted(node.must, key=rarest_first)
        if musts:
            ids, scores = self._eval(musts[0], reader, stats)
            for q in musts[1:]:
                if ids.size == 0:
                    break
                mids, mscores = self._eval(q, reader, stats)
                ids, ia, ib = np.intersect1d(ids, mids, assume_unique=True, return_indices=True)
                scores = scores[ia] + mscores[ib]
            if ids.size == 0:
                self._check_schema(node)
                return ids, scores
            for sids, sscores in (self._eval(q, reader, stats) for q in node.should):
                common, ia, ib = np.intersect1d(ids, sids, assume_unique=True, return_indices=True)
                scores = scores.copy()
                scores[ia] += sscores[ib]
        elif node.should:
            shoulds = [self._eval(q, reader, stats) for q in node.should]
            ids = np.unique(np.concatenate([s[0] for s in shoulds]))
            scores = np.zeros(ids.size, np.float64)
            for sids, sscores in shoulds:
                np.add.at(scores, np.searchsorted(ids, sids), sscores)
        else:
            return np.empty(0, np.uint64), np.empty(0, np.float64)
        for q in node.must_not:
            nids, _ = self._eval(q, reader, stats)
            keep = ~np.isin(ids, nids, assume_unique=True)
            ids, scores = ids[keep], scores[keep]
        return ids, scores

    def _count_facets(self, reader, doc_ids, facets: dict, acc: dict):
        # only the FIRST requested facet root is honored (handle.rs:146-155)
        field, roots = next(iter(facets.items()))
        fdef = self.schema.field(field)
        if fdef is None:
            raise QueryError.execution(f"Unknown field: {field}")
        root = roots[0] if roots else "/"
        col = f"facet_{field}"
        if col not in reader.dv_column_names() or doc_ids.size == 0:
            return
        all_ids = reader.doc_ids()
        vals = reader.docvalues([col])[col].to_numpy(zero_copy_only=False)[
            np.searchsorted(all_ids, doc_ids)
        ]
        prefix = root.rstrip("/") + "/"
        for v in vals:
            if isinstance(v, str) and v.startswith(prefix):
                rest = v[len(prefix):]
                child = prefix + rest.split("/")[0]
                acc[child] = acc.get(child, 0) + 1


def _collect_term_stats_needs(node, schema: Schema) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    if isinstance(node, TermQuery):
        fdef = schema.field(node.field)
        if fdef is not None and fdef.is_text:
            out.append((node.field, node.value))
    elif isinstance(node, PhraseQuery):
        out.extend((node.field, t) for t in node.terms)
    elif isinstance(node, BoolQuery):
        for sub in (*node.must, *node.should, *node.must_not):
            out.extend(_collect_term_stats_needs(sub, schema))
    elif isinstance(node, BoostQuery):
        out.extend(_collect_term_stats_needs(node.query, schema))
    return out


class Searcher:
    """Query-side handle over one index directory (manifest + scorers).

    Mirrors the reference's reader/searcher (`handle.rs:232`,
    reload-on-commit): `refresh()` re-reads the manifest after a new
    commit. Scorer actors are created lazily and reused across queries.
    """

    def __init__(
        self,
        index_root: str,
        parallelism: int = 8,
        distributed: bool | None = None,
    ):
        self.index_root = index_root
        self.parallelism = parallelism
        if distributed is None:
            try:
                import ray

                distributed = ray.is_initialized()
            except Exception:
                distributed = False
        self.distributed = distributed
        self._groups: list = []
        self._pool_segments: list = []
        import threading

        self._pool_lock = threading.Lock()  # guards _groups/_retired/_inflight
        self._retired: list = []  # old ray pools awaiting in-flight drain
        self._inflight = 0
        self.last_refresh_error: Exception | None = None
        self.refresh()

    # ------------- lifecycle -------------

    def start_auto_refresh(self, every_s: float = 1.0) -> None:
        """Reload-on-commit analogue (reference `handle.rs:232`,
        ReloadPolicy::OnCommit): poll the manifest version and refresh
        when a new commit lands. Daemon thread; stop with
        `stop_auto_refresh()`."""
        import threading

        if getattr(self, "_refresh_stop", None) is not None:
            return
        self._refresh_stop = threading.Event()

        def run():
            while not self._refresh_stop.wait(every_s):
                try:
                    if load_manifest(self.index_root)["version"] != self.manifest["version"]:
                        self.refresh()
                        self.last_refresh_error = None
                except QueryError as e:
                    # e.g. a FORMAT_VERSION bump: keep serving the old
                    # snapshot but SURFACE it — swallowing would hide
                    # exactly the hard-fail the format check provides
                    self.last_refresh_error = e
                    _SEARCH_LOG.warning("auto-refresh failed: %s", e)
                except Exception:
                    pass  # mid-swap read; next tick sees the new manifest

        self._refresh_thread = threading.Thread(target=run, daemon=True)
        self._refresh_thread.start()

    def stop_auto_refresh(self) -> None:
        stop = getattr(self, "_refresh_stop", None)
        if stop is not None:
            stop.set()
            self._refresh_thread.join(timeout=5)
            self._refresh_stop = None

    def refresh(self) -> None:
        with open(os.path.join(self.index_root, MANIFEST_FILE)) as f:
            self.manifest = json.load(f)
        fmt = self.manifest.get("format")
        if fmt != FORMAT_VERSION:
            raise QueryError.index(
                f"Index format {fmt} != reader format {FORMAT_VERSION}; rebuild the index"
            )
        with open(os.path.join(self.index_root, SCHEMA_FILE)) as f:
            self.schema = Schema.from_json(json.load(f))
        self.segments = self.manifest["segments"]
        n_docs = sum(s["num_docs"] for s in self.segments)
        avgdl: dict[str, float] = {}
        totals: dict[str, int] = {}
        for s in self.segments:
            for fname, st in s.get("field_stats", {}).items():
                totals[fname] = totals.get(fname, 0) + st["total_tokens"]
        for fname, tot in totals.items():
            avgdl[fname] = tot / n_docs if n_docs else 0.0
        tombstones = load_tombstones(self.index_root, self.manifest)
        # ONE atomic rebind: in-flight queries snapshot _stats_state once
        # and see a consistent (n_docs, avgdl, df cache, tombstones) set —
        # piecemeal attribute swaps would tear stats mid-query (stale df
        # against new n_docs → wrong idf, or a KeyError on the fresh cache)
        self._stats_state = _StatsState(n_docs, avgdl, tombstones)
        # convenience mirrors for external readers (tests, callers)
        self.n_docs = n_docs
        self.avgdl = avgdl
        self.tombstones = tombstones
        self._teardown_groups()

    def _kill_pools(self, pools) -> None:
        for kind, g in pools:
            if kind == "ray":
                try:
                    import ray

                    ray.kill(g, no_restart=True)
                except Exception:
                    pass

    def _teardown_groups(self):
        """Retire the current scorer pool. Ray actors are killed as soon
        as no call is in flight — killing immediately would crash a
        search mid-ray.get when an auto-refresh thread sees a new
        commit; leaking them would pin one CPU per commit."""
        with self._pool_lock:
            doomed = [gr for gr in self._groups if gr[0] == "ray"]
            self._groups = []
            if self._inflight:
                self._retired.extend(doomed)
                return
            doomed += self._retired
            self._retired = []
        self._kill_pools(doomed)

    def close(self) -> None:
        """Stop the auto-refresh ticker and kill the scorer actor pool
        (frees their reserved CPUs). Retired pools are reaped only when
        nothing is in flight — a concurrent search (another caller mid
        ray.get) still holds them; the last `_pool()` exit kills them."""
        self.stop_auto_refresh()
        self._teardown_groups()
        with self._pool_lock:
            if self._inflight:
                return  # _pool()'s finally block reaps _retired
            doomed, self._retired = self._retired, []
        self._kill_pools(doomed)

    def _seg_dir(self, seg: dict) -> str:
        return os.path.join(self.index_root, SEGMENTS_DIR, seg["name"])

    def _ensure_groups(self):
        """Create the scorer pool if absent. MUST be called with
        _pool_lock held: an unsynchronized check-then-create lets two
        first queries each build an actor pool (one leaks its reserved
        CPUs forever), and a refresh between creation and pinning would
        kill the pool under the query's feet."""
        if self._groups:
            return
        dirs = [self._seg_dir(s) for s in self.segments]
        n_groups = max(1, min(self.parallelism, len(dirs)))
        if self.distributed:
            import ray

            # never request more 1-CPU actors than the cluster HAS —
            # an over-sized pool waits forever on actors that can never
            # start (the scheduled ones never release). Total, not
            # available: a transient job's usage must not permanently
            # shrink the pool.
            total = int(ray.cluster_resources().get("CPU", 0))
            if total:
                n_groups = max(1, min(n_groups, total))
        grouped = [dirs[i::n_groups] for i in range(n_groups)]
        schema_json = self.schema.to_json()
        if self.distributed:
            import ray

            Actor = ray.remote(num_cpus=1)(SegmentGroupScorer)
            self._groups = [
                ("ray", Actor.remote(g, schema_json)) for g in grouped if g
            ]
        else:
            self._groups = [
                ("local", SegmentGroupScorer(g, schema_json)) for g in grouped if g
            ]
        # map (group, local idx) -> global segment dir for doc fetch
        self._group_dirs = [g for g in grouped if g]
        # the manifest rows this pool was built from: driver-side
        # decisions that must agree with what the scorers read (the
        # sort floor) use THIS snapshot, not self.segments, which a
        # concurrent refresh may have already advanced
        self._pool_segments = list(self.segments)

    import contextlib as _contextlib

    @_contextlib.contextmanager
    def _pool(self):
        """Pin the current scorer pool for the duration of a query: a
        concurrent refresh retires (not kills) the pool until the last
        in-flight call releases it. Creation and pinning are ONE
        critical section — a refresh in between would tear down a pool
        the query is about to snapshot (silent zero-hit results)."""
        with self._pool_lock:
            self._ensure_groups()
            groups = list(self._groups)
            pool_segments = self._pool_segments
            self._inflight += 1
        try:
            yield groups, pool_segments
        finally:
            with self._pool_lock:
                self._inflight -= 1
                doomed = [] if self._inflight else self._retired
                if doomed:
                    self._retired = []
            if doomed:
                self._kill_pools(doomed)

    @staticmethod
    def _dispatch(groups, method: str, *args):
        outs = []
        ray_refs = []
        for kind, g in groups:
            if kind == "ray":
                ray_refs.append(getattr(g, method).remote(*args))
            else:
                outs.append(getattr(g, method)(*args))
        if ray_refs:
            import ray

            outs.extend(ray.get(ray_refs))
        return outs

    def _call(self, method: str, *args):
        with self._pool() as (groups, _):
            return self._dispatch(groups, method, *args)

    # ------------- queries -------------

    def _plan(self, body) -> Search:
        s = body if isinstance(body, Search) else Search.from_json(body)
        if isinstance(s.query, RawQuery):
            s.query = parse_raw(s.query.query, self.schema)
        return s

    def _stats_for_plans(self, plans) -> Stats:
        """Shared stats phase: one snapshot of the per-manifest stats
        state (refresh rebinds it atomically — never read the attrs
        piecemeal mid-query), one df round-trip for the union of
        missing terms, one Stats."""
        st = self._stats_state
        needs = sorted(
            {n for p in plans for n in _collect_term_stats_needs(p, self.schema)}
        )
        missing = [n for n in needs if n not in st.df_cache]
        if missing:
            dfs: dict = {}
            for part in self._call("term_dfs", missing):
                for kt, df in part.items():
                    dfs[kt] = dfs.get(kt, 0) + df
            for kt in missing:
                st.df_cache[kt] = dfs.get(kt, 0)
        return Stats(
            n_docs=st.n_docs,
            avgdl=st.avgdl,
            idf={kt: float(idf(st.n_docs, st.df_cache[kt])) for kt in needs},
            tombstones=st.tombstones if st.tombstones.size else None,
        )

    def _stats_for(self, plan) -> Stats:
        return self._stats_for_plans([plan])

    def search(self, body: dict | Search | None = None) -> dict:
        """→ {"hits": n, "docs": [{"score": s, "doc": {...}}], "facets": {...}}"""
        return self.multi_search([body])[0]

    @staticmethod
    def _sort_floor(s: Search, stats: Stats, segments: list[dict]) -> float | None:
        """Driver-side global lower bound on the k-th sort value for a
        match-all sort-by query, from the manifest's zone maps alone.

        Scorer groups prune independently (each sees only its own
        segments), so with one segment per group the in-group running
        threshold never engages. For `AllQuery` the driver CAN bound
        the k-th value without scoring: every live VALUED doc of a
        segment matches with sort value >= the segment's zone-min, so
        walking segments by zone-min descending and accumulating
        valued-live counts until >= k proves k rows sort at/above that
        zone-min. Any segment whose zone-max is strictly below it
        cannot place a row (a tie at the floor could still win the
        doc_id tie-break, hence strict <). Docs with a NULL sort value
        sort LAST, so only the zone map's n_valid count (stats without
        it contribute nothing) may be accumulated — counting null docs
        would prune segments that hold real top-k rows. Filtered
        queries give no per-segment match counts, so no floor.
        `segments` must be the snapshot the scorer pool was built from
        (a concurrent refresh may have advanced self.segments)."""
        if s.sort_by is None or s.facets or not isinstance(s.query, AllQuery):
            return None
        k = s.limit
        if k <= 0:
            return None
        tomb = stats.tombstones
        if tomb is not None and tomb.size:
            tomb = np.sort(tomb)
        cands = []
        for seg in segments:
            z = seg.get("fastfield_stats", {}).get(s.sort_by)
            if z is None or len(z) < 3:
                continue  # unknown bounds/counts just don't contribute
            live = int(z[2])  # valued docs only — nulls sort last
            if tomb is not None and tomb.size:
                # worst case every in-range tombstone was a valued doc
                lo = np.searchsorted(tomb, int(seg["min_doc_id"]), "left")
                hi = np.searchsorted(tomb, int(seg["max_doc_id"]), "right")
                live -= int(hi - lo)
            if live > 0:
                cands.append((float(z[0]), live))
        cands.sort(key=lambda t: -t[0])
        acc = 0
        for zmin, live in cands:
            acc += live
            if acc >= k:
                return zmin
        return None

    def multi_search(self, bodies: list) -> list[dict]:
        """Execute a batch of queries with ONE stats round-trip and ONE
        scoring round-trip per scorer group (query-set workloads)."""
        searches = [self._plan(b) for b in bodies]
        # shared stats phase over the union of needed terms; global df is
        # static per manifest version, so repeat terms skip the round-trip
        stats = self._stats_for_plans([s.query for s in searches])
        # scoring AND winner-fetch pin ONE pool snapshot: a refresh
        # between the phases would remap group indices to different
        # segment sets and fetch the wrong stored docs. Sort floors are
        # computed INSIDE the pin from the pool's own segment snapshot —
        # a floor derived from a different manifest could prune live rows
        with self._pool() as (groups, pool_segments):
            floors = [self._sort_floor(s, stats, pool_segments) for s in searches]
            group_results = self._dispatch(
                groups,
                "score_topk_many",
                [s.query for s in searches],
                stats,
                [s.limit for s in searches],
                [s.sort_by for s in searches],
                [s.facets for s in searches],
                floors,
            )

            # per-query global merge + one combined winner-fetch per group
            per_query_rows: list[list] = []
            per_query_facets: list[dict] = []
            wanted_by_group: dict[int, dict[int, set]] = {}
            for qi, s in enumerate(searches):
                rows = []
                facet_acc: dict[str, int] = {}
                for gi, results in enumerate(group_results):
                    top, fc = results[qi]
                    rows.extend((d, sc, gi, si) for d, sc, si in top)
                    for k, v in fc.items():
                        facet_acc[k] = facet_acc.get(k, 0) + v
                # NaN (= NULL sort value) sorts LAST: Python's sort
                # misorders raw NaN keys, so map it to -inf explicitly
                rows.sort(
                    key=lambda r: (
                        -(r[1] if r[1] == r[1] else float("-inf")),
                        r[0],
                    )
                )
                rows = rows[: s.limit]
                for d, _, gi, si in rows:
                    wanted_by_group.setdefault(gi, {}).setdefault(si, set()).add(d)
                per_query_rows.append(rows)
                per_query_facets.append(facet_acc)

            # fetch stored fields for the winners only (SURVEY.md §3.3)
            docs_by_id: dict[int, dict] = {}
            fetch_refs = []
            for gi, wanted in wanted_by_group.items():
                kind, g = groups[gi]
                wanted = {si: sorted(ids) for si, ids in wanted.items()}
                if kind == "ray":
                    fetch_refs.append(g.fetch_docs.remote(wanted))
                else:
                    for doc in g.fetch_docs(wanted):
                        docs_by_id[int(doc["doc_id"])] = doc
            if fetch_refs:
                import ray

                for part in ray.get(fetch_refs):
                    for doc in part:
                        docs_by_id[int(doc["doc_id"])] = doc

        outs = []
        for s, rows, facet_acc in zip(searches, per_query_rows, per_query_facets):
            docs = [
                {"score": float(sc), "doc": _jsonify(docs_by_id.get(int(d), {"doc_id": int(d)}))}
                for d, sc, _, _ in rows
            ]
            out = {"hits": len(docs), "docs": docs}
            if s.facets is not None:
                out["facets"] = facet_acc
            outs.append(out)
        return outs

    def count(self, body: dict | Search | None = None) -> int:
        s = self._plan(body)
        stats = self._stats_for(s.query)
        return sum(self._call("count_matches", s.query, stats))

    def suggest(self, field: str, prefix: str, k: int = 10) -> list[tuple[str, int]]:
        """Prefix autocomplete over the INDEX term dictionary (the
        Elasticsearch term-suggester shape): top-k completions by
        document frequency, ties by term bytes. df is read straight
        from the postings metadata (no postings decode) and — like
        Lucene — counts tombstoned docs until a merge reclaims them."""
        acc: dict[str, int] = {}
        for pairs in self._call("suggest_terms", field, prefix):
            for term, df in pairs:
                acc[term] = acc.get(term, 0) + df
        ranked = sorted(acc.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]

    def match_doc_ids(self, body: dict | Search | None = None) -> np.ndarray:
        """All matching doc_ids, globally sorted (no limit applied)."""
        s = self._plan(body)
        stats = self._stats_for(s.query)
        parts = [a for group in self._call("match_ids", s.query, stats) for a in group]
        if not parts:
            return np.empty(0, np.uint64)
        return np.sort(np.concatenate(parts))


def _jsonify(doc: dict) -> dict:
    out = {}
    for k, v in doc.items():
        if isinstance(v, (np.integer,)):
            v = int(v)
        elif isinstance(v, np.floating):
            v = float(v)
        elif isinstance(v, list) and len(v) == 1:
            v = v[0]  # FlatNamedDocument single-element flatten (mod.rs:322-338)
        out[k] = v
    return out


def make_snippet(text: str, term: str, *, context: int = 20, width: int = 80) -> tuple[int, str]:
    """Highlight fragment for one hit — the analogue of tantivy's
    SnippetGenerator, which the reference exposes through search results
    (tantivy re-analyzes the STORED text per hit exactly like this;
    Toshi itself returns whole stored docs, so this is a beyond-reference
    search nicety). Deterministic contract, mirrored in ANSI SQL:

    - operate on the LOWERCASED stored text (the analyzer's casefold);
    - ``first_pos`` = 1-based char position of the first substring
      occurrence (0 when absent — matches SQL ``strpos``);
    - fragment = ``width`` chars starting ``context`` before the match
      (clamped to the text start), with every in-window occurrence
      wrapped in ``<b>…</b>`` (substring semantics, like SQL replace).

    Per-hit scalar work on the k winners only — never a corpus pass.
    """
    term = term.lower()  # the fragment is casefolded; match and mark in kind
    lt = text.lower()
    p = lt.find(term)
    if p < 0:
        return 0, ""
    start = max(p - context, 0)
    frag = lt[start : start + width]
    return p + 1, frag.replace(term, f"<b>{term}</b>")
