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
    BitSetDocSet in ConstScorer(1.0); the Searcher expands each one once
    per query, against the pinned snapshot's term union, into the set
    of terms it matches); bool sums
    its scoring clauses; `term^2` raw boosts multiply. Tie-break:
    (score desc, doc_id asc) — doc ids are insertion-ordered
    (SURVEY.md §2.2 T4).

A `Searcher` serves one manifest version at a time, as a snapshot:
its stats, its segment readers and a scorer pool over them. A refresh
swaps in a new snapshot that carries over the reader of every segment
whose manifest entry did not change (`SegmentReader.carry`); each
query pins one snapshot for all of its phases. Scorers run
in-process, or as Ray actors (one per segment group — the stateful
stage holding postings/norms, SURVEY.md §7.2) that open their own
readers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import threading
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


_NO_CHAR = np.uint32(0xFFFFFFFF)  # pads past a term's end; equals no code point


def _utf8_code_points(arr: pa.Array) -> np.ndarray:
    """The code points of a string array's values, concatenated,
    decoded with numpy straight from its UTF-8 buffer (no Python
    strings): one per lead byte, its continuation bytes folded in."""
    off_t = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    offs = np.frombuffer(arr.buffers()[1], off_t)[arr.offset : arr.offset + len(arr) + 1]
    data = arr.buffers()[2]
    raw = np.frombuffer(data, np.uint8)[offs[0] : offs[-1]] if data is not None else np.empty(0, np.uint8)
    if not raw.size or raw.max() < 0x80:
        return raw.astype(np.uint32)
    lead = np.flatnonzero((raw & 0xC0) != 0x80)
    b = np.concatenate([raw, np.zeros(3, np.uint8)]).astype(np.uint32)
    b0 = b[lead]
    c1, c2, c3 = (b[lead + i] & 0x3F for i in (1, 2, 3))
    return np.select(
        [b0 < 0x80, b0 < 0xE0, b0 < 0xF0],
        [b0, (b0 & 0x1F) << 6 | c1, (b0 & 0x0F) << 12 | c1 << 6 | c2],
        (b0 & 0x07) << 18 | c1 << 12 | c2 << 6 | c3,
    )


def _levenshtein_filter(
    terms: "pa.Array | pa.ChunkedArray", query: str, distance: int, transposition: bool
) -> list[str]:
    """Terms of an Arrow string column within edit distance ``distance``
    of ``query`` (optimal string alignment when ``transposition``: a
    swapped adjacent pair is one edit, never edited again). A
    pc.utf8_length mask keeps the |len−qlen| ≤ d window; the window's
    code points are decoded from the UTF-8 buffer into one contiguous
    vector per character position; the DP runs over Ukkonen's band
    |i−j| ≤ d only, one vector per diagonal, values capped at d+1 (a
    cell outside the band is more than d edits already). The verdict is
    applied as an Arrow mask, so only matching terms ever become Python
    strings."""
    if isinstance(terms, pa.ChunkedArray):
        terms = terms.combine_chunks()
    if distance == 0:
        return terms.filter(pc.equal(terms, query)).to_pylist()
    q = np.frombuffer(query.encode("utf-32-le"), dtype=np.uint32)
    m, d = q.size, distance
    lens = pc.utf8_length(terms).to_numpy(zero_copy_only=False).astype(np.int64)
    window = np.abs(lens - m) <= d
    if not window.any():
        return []
    cands = terms.filter(pa.array(window))
    lens = lens[window]
    n = len(cands)
    # no two strings are more than max(len) edits apart: a larger d
    # matches the same terms and would only widen the band
    d = min(d, max(m, int(lens.max())))
    # row pad + c holds every candidate's c-th code point; d + 1 rows of
    # _NO_CHAR on each side let every band slice below stay in bounds
    pad = d + 1
    chars = np.full((m + d + 2 * pad, n), _NO_CHAR, np.uint32)
    cps = np.append(_utf8_code_points(cands), _NO_CHAR)
    starts = np.cumsum(lens) - lens
    for c in range(int(lens.max())):
        chars[pad + c] = cps[np.where(lens > c, starts + c, cps.size - 1)]
    # band[d + k] = D[i][i + k] for k in [-d, d]; row 0 is D[0][j] = j
    cap = d + 1
    ks = np.arange(-d, d + 1)[:, None]
    # cells reach cap + 2 before the cap: a dtype that holds it never wraps
    band = np.repeat(np.where(ks >= 0, ks, cap).astype(np.min_scalar_type(cap + 2)), n, axis=1)
    band2 = band  # row i - 2, read by the transposition rule from i = 2
    for i in range(1, m + 1):
        t1 = chars[pad + i - 1 - d : pad + i + d]  # t[j - 1] for j = i + k
        cur = band + (t1 != q[i - 1])  # substitution or match: D[i-1][j-1]
        np.minimum(cur[:-1], band[1:] + 1, out=cur[:-1])  # deletion: D[i-1][j]
        if transposition and i >= 2:
            t2 = chars[pad + i - 2 - d : pad + i - 1 + d]  # t[j - 2]
            swap = (t2 == q[i - 1]) & (t1 == q[i - 2])
            np.minimum(cur, np.where(swap, band2 + 1, cap), out=cur)
        for k in range(1, 2 * d + 1):  # insertion: D[i][j-1], along the band
            np.minimum(cur[k], cur[k - 1] + 1, out=cur[k])
        np.minimum(cur, cap, out=cur)
        band2, band = band, cur
    dist = band[lens - m + d, np.arange(n)]
    return cands.filter(pa.array(dist <= d)).to_pylist()


@dataclass(frozen=True)
class _TermSetQuery:
    """A fuzzy or regex query after `_Snapshot.rewrite`: the terms of the
    snapshot's term union it matched. Like tantivy's AutomatonWeight
    (a BitSetDocSet in ConstScorer(1.0)), every doc holding any of them
    scores 1.0, however many of them it holds (fuzzy.rs:31)."""

    field: str
    terms: tuple[str, ...]


class SegmentGroupScorer:
    """Evaluates query plans over the readers of a group of segments.

    This is the stateful stage: each reader's postings table (its term
    dictionary too), norms and fast fields load once, on first use, and
    stay with the reader; per query, posting rows are slices of that
    table.
    """

    def __init__(self, readers: list[SegmentReader], schema_json: list):
        self.readers = readers
        self.schema = Schema.from_json(schema_json)

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

    def unique_terms(self, field: str) -> pa.Array:
        """The distinct terms of ``field`` in this group's segments (a
        hot term's shard rows collapse to one) — this group's part of
        `_Snapshot.term_union`."""
        return pc.unique(pa.concat_arrays(
            [r.term_dict(field)["term"].combine_chunks() for r in self.readers]
        ))

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
            out.extend(self.readers[si].store(np.asarray(ids, dtype=np.uint64)))
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
            fdef = _indexed_field(self.schema, node.field)
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

        if isinstance(node, _TermSetQuery):
            # ONE batched postings fetch and ONE decode for every matched
            # term (a broad regex can match 10^4 terms); a term of the
            # union that this segment lacks returns no rows here
            tbl = reader.postings_for_terms(node.field, list(node.terms), ["df", "doc_ids", "tfs"])
            if tbl.num_rows == 0:
                return np.empty(0, np.uint64), np.empty(0, np.float64)
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
        elif isinstance(node, (TermQuery, PhraseQuery, RangeQuery)):
            fdef = _indexed_field(self.schema, node.field)
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


def _indexed_field(schema: Schema, name: str):
    fdef = schema.field(name)
    if fdef is None:
        raise QueryError.execution(f"Unknown field: {name}")
    if not fdef.indexed:
        raise QueryError.index(f"The field '{name}' is not declared as indexed")
    return fdef


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


class _Snapshot:
    """One manifest version, as a query reads it: the manifest and
    schema, the global stats (n_docs, avgdl, tombstones and a df cache
    filled on demand), the term union per field (filled on demand, for
    automaton queries), one `SegmentReader` per segment, and the scorer
    pool, built on first use by `Searcher._pin`. `Searcher.refresh`
    builds a snapshot whole before it swaps it in, and a query takes
    every phase from the one snapshot it pinned."""

    def __init__(self, index_root: str, prev: "_Snapshot | None"):
        with open(os.path.join(index_root, MANIFEST_FILE)) as f:
            self.manifest = json.load(f)
        fmt = self.manifest.get("format")
        if fmt != FORMAT_VERSION:
            raise QueryError.index(
                f"Index format {fmt} != reader format {FORMAT_VERSION}; rebuild the index"
            )
        with open(os.path.join(index_root, SCHEMA_FILE)) as f:
            self.schema = Schema.from_json(json.load(f))
        self.segments = self.manifest["segments"]
        self.n_docs = sum(s["num_docs"] for s in self.segments)
        totals: dict[str, int] = {}
        for s in self.segments:
            for fname, st in s.get("field_stats", {}).items():
                totals[fname] = totals.get(fname, 0) + st["total_tokens"]
        self.avgdl = {f: tot / self.n_docs if self.n_docs else 0.0 for f, tot in totals.items()}
        self.tombstones = load_tombstones(index_root, self.manifest)
        self.df_cache: dict = {}  # (field, term) -> global df
        self.term_unions: dict = {}  # field -> pa.Array of its distinct terms
        # a segment whose manifest entry is unchanged carries its reader
        # over instead of opening it again. The key is the whole entry,
        # not the name: an overwrite rebuild reuses seg-<min>-<n> names
        # for new content, and the entry's write_id tells the writes apart.
        kept = prev.readers if prev is not None else {}
        self.readers: dict[str, SegmentReader] = {}
        for s in self.segments:
            key = json.dumps(s, sort_keys=True)
            self.readers[key] = kept[key].carry() if key in kept else SegmentReader(
                os.path.join(index_root, SEGMENTS_DIR, s["name"])
            )
        self.pool: list | None = None  # [(kind, scorer)]
        self.pins = 0  # queries running on this snapshot
        self.retired = False  # replaced or closed: the last pin kills the pool

    def plan(self, body) -> Search:
        """``body`` parsed, with its automaton queries rewritten against
        this snapshot (`rewrite`). The caller's `Search` is not changed."""
        s = Searcher._plan(body, self.schema)
        return dataclasses.replace(s, query=self.rewrite(s.query))

    def rewrite(self, node):
        """``node`` with every fuzzy and regex leaf replaced by the
        `_TermSetQuery` of the terms it matches in this snapshot's term
        union: Lucene's top-level MultiTermQuery rewrite, run once per
        query rather than once per segment. A matched term that a
        segment lacks contributes no rows there, so results equal a
        per-segment expansion."""
        if isinstance(node, BoolQuery):
            return dataclasses.replace(
                node,
                must=tuple(map(self.rewrite, node.must)),
                should=tuple(map(self.rewrite, node.should)),
                must_not=tuple(map(self.rewrite, node.must_not)),
            )
        if isinstance(node, BoostQuery):
            return dataclasses.replace(node, query=self.rewrite(node.query))
        if not isinstance(node, (FuzzyQuery, RegexQuery)):
            return node
        _indexed_field(self.schema, node.field)
        terms = self.term_union(node.field)
        if isinstance(node, FuzzyQuery):
            matched = _levenshtein_filter(terms, node.value, node.distance, node.transposition)
        else:
            # validate with the ENGINE that executes (Arrow/RE2): gating
            # on Python's `re` would reject RE2-valid patterns
            # ([[:alpha:]]) and let Python-only syntax (lookahead,
            # backrefs) escape as ArrowInvalid
            try:
                mask = pc.match_substring_regex(terms, f"^(?:{node.pattern})$")
            except pa.ArrowInvalid:
                raise QueryError.execution(f"Invalid regex: {node.pattern}") from None
            matched = terms.filter(mask).to_pylist()
        return _TermSetQuery(node.field, tuple(matched))

    def term_union(self, field: str) -> pa.Array:
        """The distinct terms of ``field`` across the snapshot's segments,
        built on first use with one `unique_terms` round-trip to the
        pool. A refresh builds a new snapshot, so a union never outlives
        the segments it was taken from."""
        union = self.term_unions.get(field)
        if union is None:  # two first queries may both build it: the same array
            parts = Searcher._dispatch(self.pool, "unique_terms", field)
            # an index with no segments has an empty pool
            union = pc.unique(pa.concat_arrays(parts)) if parts else pa.array([], pa.string())
            self.term_unions[field] = union
        return union

    def stats(self, plans) -> Stats:
        """The stats of ``plans``: global df is fixed per manifest
        version, so only terms missing from the cache cost one df
        round-trip to the pool, for all of them together."""
        needs = sorted({n for p in plans for n in _collect_term_stats_needs(p, self.schema)})
        missing = [n for n in needs if n not in self.df_cache]
        if missing:
            dfs: dict = {}
            for part in Searcher._dispatch(self.pool, "term_dfs", missing):
                for kt, df in part.items():
                    dfs[kt] = dfs.get(kt, 0) + df
            for kt in missing:
                self.df_cache[kt] = dfs.get(kt, 0)
        return Stats(
            n_docs=self.n_docs,
            avgdl=self.avgdl,
            idf={kt: float(idf(self.n_docs, self.df_cache[kt])) for kt in needs},
            tombstones=self.tombstones if self.tombstones.size else None,
        )


class Searcher:
    """Query-side handle over one index directory.

    Mirrors the reference's reader/searcher (`handle.rs:232`,
    reload-on-commit): `refresh()` swaps in a `_Snapshot` of the latest
    manifest, which carries over the readers of the segments that did
    not change, and every query pins one snapshot from its stats phase
    to its winner fetch.
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
        self._lock = threading.Lock()  # guards _snap and every snapshot's pool and pins
        self._snap: _Snapshot | None = None
        self.last_refresh_error: Exception | None = None
        self.refresh()

    # the current snapshot, as callers outside a query see it
    manifest = property(lambda self: self._snap.manifest)
    segments = property(lambda self: self._snap.segments)
    n_docs = property(lambda self: self._snap.n_docs)
    tombstones = property(lambda self: self._snap.tombstones)
    _groups = property(lambda self: self._snap.pool or [])

    # ------------- lifecycle -------------

    def start_auto_refresh(self, every_s: float = 1.0) -> None:
        """Reload-on-commit analogue (reference `handle.rs:232`,
        ReloadPolicy::OnCommit): poll the manifest version and refresh
        when a new commit lands. Daemon thread; stop with
        `stop_auto_refresh()`."""
        if getattr(self, "_refresh_stop", None) is not None:
            return
        self._refresh_stop = threading.Event()

        def run():
            while not self._refresh_stop.wait(every_s):
                try:
                    if load_manifest(self.index_root)["version"] != self.manifest["version"]:
                        self.refresh()
                        self.last_refresh_error = None
                except Exception as e:
                    # keep serving the current snapshot, but SURFACE the
                    # failure (a FORMAT_VERSION bump, a missing delete
                    # file); the next tick tries again
                    self.last_refresh_error = e
                    _SEARCH_LOG.warning("auto-refresh failed: %s", e, exc_info=True)

        self._refresh_thread = threading.Thread(target=run, daemon=True)
        self._refresh_thread.start()

    def stop_auto_refresh(self) -> None:
        stop = getattr(self, "_refresh_stop", None)
        if stop is not None:
            stop.set()
            self._refresh_thread.join(timeout=5)
            self._refresh_stop = None

    def refresh(self) -> None:
        """Swap in a snapshot of the manifest on disk. It is built whole
        first: a failure (wrong format, a missing delete file) raises
        and leaves the current snapshot serving."""
        snap = _Snapshot(self.index_root, self._snap)
        with self._lock:
            old, self._snap = self._snap, snap
            doomed = self._retire(old) if old is not None else None
        self._kill_pool(doomed)

    def close(self) -> None:
        """Stop the auto-refresh ticker and retire the current snapshot:
        its scorer actors die now, or when the last query pinning it
        ends (they free their reserved CPUs), and its readers drop what
        they loaded (a later query loads it again)."""
        self.stop_auto_refresh()
        with self._lock:
            snap = self._snap
            doomed = self._retire(snap)
            snap.readers = {k: r.carry() for k, r in snap.readers.items()}
        self._kill_pool(doomed)

    @staticmethod
    def _retire(snap: _Snapshot) -> list | None:
        """Retire ``snap``'s pool, with the lock held. → the pool to kill,
        or None while a query pins it: ``retired`` stays set and the last
        pin's end kills it then. Killing under a query would crash it
        mid ray.get; leaking would pin one CPU per commit."""
        snap.retired = True
        if snap.pins:
            return None
        pool, snap.pool = snap.pool, None
        # reaped: a pool that a later query builds (on a closed searcher's
        # snapshot; a replaced one is never pinned again) lives on
        snap.retired = False
        return pool

    @staticmethod
    def _kill_pool(pool: list | None) -> None:
        for kind, g in pool or ():
            if kind == "ray":
                try:
                    import ray

                    ray.kill(g, no_restart=True)
                except Exception:
                    pass

    @contextlib.contextmanager
    def _pin(self):
        """Pin the current snapshot for one query. Its pool is built in
        the same critical section on first use, so two first queries
        cannot each build one (the loser's actors would hold their CPUs
        forever)."""
        with self._lock:
            snap = self._snap
            if snap.pool is None:
                snap.pool = self._build_pool(snap)
            snap.pins += 1
        try:
            yield snap
        finally:
            with self._lock:
                snap.pins -= 1
                doomed = self._retire(snap) if snap.retired else None
            self._kill_pool(doomed)

    def _build_pool(self, snap: _Snapshot) -> list:
        """Scorers over the snapshot's readers: in-process ones use the
        reader objects, Ray actors open their own copies."""
        readers = list(snap.readers.values())
        n_groups = max(1, min(self.parallelism, len(readers)))
        schema_json = snap.schema.to_json()
        if not self.distributed:
            return [("local", SegmentGroupScorer(readers[i::n_groups], schema_json))
                    for i in range(min(n_groups, len(readers)))]
        import ray

        # never request more 1-CPU actors than the cluster HAS —
        # an over-sized pool waits forever on actors that can never
        # start (the scheduled ones never release). Total, not
        # available: a transient job's usage must not permanently
        # shrink the pool.
        total = int(ray.cluster_resources().get("CPU", 0))
        if total:
            n_groups = max(1, min(n_groups, total))
        actor = ray.remote(num_cpus=1)(SegmentGroupScorer)
        return [("ray", actor.remote(readers[i::n_groups], schema_json))
                for i in range(min(n_groups, len(readers)))]

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

    # ------------- queries -------------

    @staticmethod
    def _plan(body, schema: Schema) -> Search:
        s = body if isinstance(body, Search) else Search.from_json(body)
        if isinstance(s.query, RawQuery):
            s.query = parse_raw(s.query.query, schema)
        return s

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
        `segments` are the pinned snapshot's, whose pool does the
        scoring."""
        if s.sort_by is None or s.facets or not isinstance(s.query, AllQuery):
            return None
        k = s.limit
        if k <= 0:
            return None
        tomb = stats.tombstones  # sorted, unique (load_tombstones)
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
        scoring round-trip per scorer group (query-set workloads).
        Stats, sort floors, scoring and the winner fetch all read one
        pinned snapshot: stats of one manifest scored over another's
        segments would give wrong idfs, and a floor from another
        manifest could prune live rows."""
        with self._pin() as snap:
            searches = [snap.plan(b) for b in bodies]
            stats = snap.stats([s.query for s in searches])
            floors = [self._sort_floor(s, stats, snap.segments) for s in searches]
            groups = snap.pool
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
            for d, _, gi, si in rows:
                if int(d) not in docs_by_id:  # group gi holds segments gi, gi + n, ...
                    seg = snap.segments[si * len(groups) + gi]["name"]
                    raise LookupError(f"winner doc {int(d)} of segment {seg} was not fetched")
            docs = [{"score": float(sc), "doc": _jsonify(docs_by_id[int(d)])}
                    for d, sc, _, _ in rows]
            out = {"hits": len(docs), "docs": docs}
            if s.facets is not None:
                out["facets"] = facet_acc
            outs.append(out)
        return outs

    def count(self, body: dict | Search | None = None) -> int:
        with self._pin() as snap:
            s = snap.plan(body)
            return sum(self._dispatch(snap.pool, "count_matches", s.query, snap.stats([s.query])))

    def suggest(self, field: str, prefix: str, k: int = 10) -> list[tuple[str, int]]:
        """Prefix autocomplete over the INDEX term dictionary (the
        Elasticsearch term-suggester shape): top-k completions by
        document frequency, ties by term bytes. df is read straight
        from the postings metadata (no postings decode) and — like
        Lucene — counts tombstoned docs until a merge reclaims them."""
        acc: dict[str, int] = {}
        with self._pin() as snap:
            parts = self._dispatch(snap.pool, "suggest_terms", field, prefix)
        for pairs in parts:
            for term, df in pairs:
                acc[term] = acc.get(term, 0) + df
        ranked = sorted(acc.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]

    def match_doc_ids(self, body: dict | Search | None = None) -> np.ndarray:
        """All matching doc_ids, globally sorted (no limit applied)."""
        with self._pin() as snap:
            s = snap.plan(body)
            groups = self._dispatch(snap.pool, "match_ids", s.query, snap.stats([s.query]))
        parts = [a for group in groups for a in group]
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
