"""BM25 top-k search over segment partitions.

Execution mirrors the reference's search path (`LocalIndex::search_index`,
`toshi-server/src/handle.rs:77-160`, SURVEY.md §3.3) re-expressed for a
partitioned index: the driver computes GLOBAL statistics (N, avgdl, per
query-term df summed across segments — the stats-broadcast step
SURVEY.md §2.5 calls out), broadcasts (plan, stats) to scorer groups,
each group evaluates the plan once over all its segments into a local
top-k + facet counts, and the driver merges them with one lexsort and
cuts to k — the `SearchResults` Add/Sum monoid
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
or a close replaces the snapshot and never changes the old one; a
refresh's new snapshot carries over the reader of every segment whose
manifest entry did not change (`SegmentReader.carry`). A query holds
one snapshot for all of its phases, and that reference is its pin: a
snapshot lives exactly as long as something holds it, like tantivy's
`Searcher` and its `Arc`'d generation. Scorers run in-process, as one
group over every segment, or as Ray actors (one per segment group —
the stateful stage holding postings/norms, SURVEY.md §7.2) that open
their own readers; Ray ends an actor when the last handle to it goes,
so a snapshot's actors end, freeing their CPUs, when the snapshot is
freed.
"""

from __future__ import annotations

import copy
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
    snapshot's term union it matched, sorted and unique. Like tantivy's
    AutomatonWeight (a BitSetDocSet in ConstScorer(1.0)), every doc
    holding any of them scores 1.0, however many of them it holds
    (fuzzy.rs:31)."""

    field: str
    terms: tuple[str, ...]


_SCORE_COLS = ["df", "doc_ids", "tfs"]  # never the positions payload
_PHRASE_COLS = ["df", "doc_ids", "tfs", "positions"]
_NO_HITS = (np.empty(0, np.uint64), np.empty(0, np.float64), np.empty(0, np.int64))


def _doc_order(ids: np.ndarray, *cols: np.ndarray) -> tuple:
    """``ids`` and the arrays beside them, in doc-id order. Rows arrive
    in reader order, which is doc-id order unless the readers' doc-id
    spans interleave (a merge of non-adjacent segments) or overlap."""
    if ids.size > 1 and (ids[1:] < ids[:-1]).any():
        order = np.argsort(ids, kind="stable")
        return (ids[order], *(c[order] for c in cols))
    return (ids, *cols)


def _reader_runs(src: np.ndarray) -> list[tuple[int, slice | np.ndarray]]:
    """(reader ordinal, rows) per reader that holds rows of ``src``,
    ordinals ascending. Rows come in one run per reader unless a doc-id
    sort interleaved them: a run is a slice (no gather), else the rows
    are an index array in their order."""
    if src.size == 0:
        return []
    cuts = np.flatnonzero(src[1:] != src[:-1]) + 1
    if (src[cuts - 1] < src[cuts]).all():
        bounds = [0, *cuts.tolist(), src.size]
        return [(int(src[a]), slice(a, b)) for a, b in zip(bounds[:-1], bounds[1:])]
    order = np.argsort(src, kind="stable")
    ords, starts = np.unique(src[order], return_index=True)
    return list(zip(ords.tolist(), np.split(order, starts[1:])))


def _holding(src: np.ndarray) -> list[int]:
    """The ordinals of the readers that hold rows of ``src``."""
    return [o for o, _ in _reader_runs(src)]


class SegmentGroupScorer:
    """Evaluates query plans over a group of segments, once per plan
    rather than once per segment.

    This is the stateful stage: each reader's postings table (its term
    dictionary too), norms and fast fields load once, on first use, and
    stay with the reader. Tantivy collects per segment; here a
    segment's fixed cost (lookup, decode, norm gather, BM25, cut)
    dominates, so each leaf runs once over the group's segments: a text
    leaf asks every reader for its rows (its bloom before its postings
    load, its dictionary after), joins them with one `pa.concat_tables`
    and decodes them with one `decode_postings`; a docvalues leaf reads
    only the segments its zone maps keep. A hit is a row of (doc id,
    score, reader ordinal), like tantivy's `DocAddress(segment_ord,
    doc)`, so norm, fast-field and facet gathers touch only the readers
    that hold hits. Hits are in doc-id order (doc ids are unique across
    an index's segments). The group drops tombstones and cuts its top k
    once per query.

    In-process search runs one group over every segment; Ray actors
    run this same code over ``readers[i::n]``.
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
    ):
        """The group's top k of ``plan``: one evaluation over its readers,
        tombstones dropped once, one lexsort on (score or sort value
        desc, doc id asc; a NULL sort value, NaN, sorts last).
        → (doc ids, scores or sort values, reader ordinals, facet counts)."""
        if sort_by is not None and not facets and k > 0:
            ids, keys, src = self._sorted_with_zone_pruning(plan, stats, k, sort_by)
            counts: dict[str, int] = {}
        else:
            ids, keys, src = self._live(self._eval(plan, stats, range(len(self.readers))), stats)
            counts = self._facet_counts(ids, src, facets) if facets else {}
            if sort_by is not None:
                keys = self._sort_values(sort_by, ids, src)
        order = np.lexsort((ids, -keys))[:k]
        return ids[order], keys[order], src[order], counts

    def _sorted_with_zone_pruning(self, plan, stats: Stats, k: int, sort_by: str):
        """Sort-by top k, read segment by segment. Segments of unknown
        bound come first, then zone-map max for the sort field desc,
        so the running k-th value tightens as early as possible. The
        walk stops at the first segment whose zmax is below it: that
        segment, and every later one, cannot place a doc in the top k
        (a tie at zmax could still win on doc id, so the stop is strict
        <). → the visited segments' top-k rows (ids, values, ordinals)."""

        def zmax(r):
            # float: the ranking compares float64 values, so an exact
            # int compare could prune a >2^53 value that TIES the k-th
            z = r.meta.get("fastfield_stats", {}).get(sort_by)
            return None if z is None else float(z[1])

        zs = [zmax(r) for r in self.readers]
        visit = sorted(range(len(zs)), key=lambda o: (0, 0) if zs[o] is None else (1, -zs[o]))
        chunks, top = [], np.empty(0, np.float64)  # top: the running k best real values, desc
        for o in visit:
            if zs[o] is not None and top.size >= k and zs[o] < top[k - 1]:
                break
            ids, _, src = self._live(self._eval(plan, stats, [o]), stats)
            if ids.size == 0:
                continue
            vals = self._sort_values(sort_by, ids, src)
            cut = np.lexsort((ids, -vals))[:k]
            chunks.append((ids[cut], vals[cut], src[cut]))
            # NULL sort values surface as NaN: never a value bound
            real = vals[cut][~np.isnan(vals[cut])]
            top = np.sort(np.concatenate([top, real]))[::-1][:k]
        if not chunks:
            return _NO_HITS
        return tuple(np.concatenate(c) for c in zip(*chunks))

    def score_topk_many(self, plans, stats: Stats, ks, sort_bys, facets_list):
        """Batched variant: score MANY queries in one actor round-trip
        (amortizes RPC + postings fetch for query-set workloads)."""
        return [
            self.score_topk(p, stats, k, sb, fc)
            for p, k, sb, fc in zip(plans, ks, sort_bys, facets_list)
        ]

    def count_matches(self, plan, stats: Stats) -> int:
        return sum(a.size for a in self.match_ids(plan, stats))

    def match_ids(self, plan, stats: Stats) -> list[np.ndarray]:
        return [self._live(self._eval(plan, stats, range(len(self.readers))), stats)[0]]

    def fetch_docs(self, wanted: dict) -> list[dict]:
        """wanted: {local segment idx: [doc_ids]} → stored docs."""
        out = []
        for si, ids in wanted.items():
            out.extend(self.readers[si].store(np.asarray(ids, dtype=np.uint64)))
        return out

    # ---------------- evaluation ----------------

    @staticmethod
    def _live(hits: tuple, stats: Stats) -> tuple:
        """``hits`` minus the tombstoned docs: the one place a query drops
        deletes."""
        ids, scores, src = hits
        if stats.tombstones is not None and stats.tombstones.size and ids.size:
            keep = ~np.isin(ids, stats.tombstones)
            return ids[keep], scores[keep], src[keep]
        return hits

    def _fetch(self, field: str, terms: list[str], ords, columns: list[str]) -> list:
        """[(reader ordinal, postings rows)] of the readers in ``ords`` that
        hold any of ``terms``. Each reader answers its own lookup: its
        bloom before its postings load, its dictionary after."""
        parts = []
        for o in ords:
            t = self.readers[o].postings_for_terms(field, terms, columns)
            if t.num_rows:
                parts.append((o, t))
        return parts

    @staticmethod
    def _decode(tables: list[pa.Table], labels) -> tuple:
        """(doc ids, tfs, label of each posting's table) of every posting
        of ``tables``: one `pa.concat_tables`, one `decode_postings`."""
        ids, tfs, offs = decode_postings(pa.concat_tables(tables))
        ends = offs[np.cumsum([t.num_rows for t in tables])]
        return ids, tfs, np.repeat(np.asarray(labels, np.int64), np.diff(ends, prepend=0))

    def _rows_at(self, col: str, ids: np.ndarray, src: np.ndarray):
        """(reader, row positions, docvalues rows) per reader that holds
        hits and has column ``col``: one searchsorted of its doc ids."""
        for o, at in _reader_runs(src):
            r = self.readers[o]
            if col in r.dv_column_names():
                yield r, at, np.searchsorted(r.doc_ids(), ids[at])

    def _bm25(self, field, ids, tfs, src, weight_idf, stats: Stats) -> np.ndarray:
        col = f"norm_{field}"
        dl = np.zeros(ids.size, np.float64)  # a segment without norms reads 0
        for r, at, rows in self._rows_at(col, ids, src):
            dl[at] = id_to_fieldnorm(r.docvalues([col])[col].to_numpy(zero_copy_only=False)[rows])
        avgdl = max(stats.avgdl.get(field, 0.0), 1e-9)
        tf = tfs.astype(np.float64)
        return weight_idf * (K1 + 1.0) * tf / (tf + K1 * (1.0 - B + B * dl / avgdl))

    def _sort_values(self, field: str, ids: np.ndarray, src: np.ndarray) -> np.ndarray:
        """The float64 sort value of each hit (NaN for a NULL)."""
        vals = np.empty(ids.size, np.float64)
        for o, at in _reader_runs(src):
            r = self.readers[o]
            if self.schema.field(field) is None or field not in r.dv_column_names():
                raise QueryError.execution(f"Unknown field: {field}")
            col = r.docvalues([field])[field].to_numpy(zero_copy_only=False)
            vals[at] = col[np.searchsorted(r.doc_ids(), ids[at])].astype(np.float64)
        return vals

    def _facet_counts(self, ids: np.ndarray, src: np.ndarray, facets: dict) -> dict:
        """Hits per child path under the first requested root (only the
        first is honored, handle.rs:146-155): one facet gather per reader
        that holds hits, one count of the distinct values, then each
        distinct value's child path."""
        field, roots = next(iter(facets.items()))
        if self.schema.field(field) is None:
            raise QueryError.execution(f"Unknown field: {field}")
        col = f"facet_{field}"
        vals = [c for r, _, rows in self._rows_at(col, ids, src)
                for c in r.docvalues([col])[col].take(rows).chunks]
        if not vals:
            return {}
        counts = pc.value_counts(pa.chunked_array(vals, pa.string()))
        prefix = (roots[0] if roots else "/").rstrip("/") + "/"
        acc: dict[str, int] = {}
        for v, n in zip(counts.field("values").to_pylist(), counts.field("counts").to_pylist()):
            if v is not None and v.startswith(prefix):
                child = prefix + v[len(prefix):].split("/")[0]
                acc[child] = acc.get(child, 0) + n
        return acc

    def _dv_hits(self, ords, match) -> tuple:
        """Hits of a docvalues leaf, each scoring 1.0: ``match(reader)`` is
        a reader's matching doc ids, or None when its zone map or a
        missing column rules it out unread."""
        chunks = [(o, ids) for o in ords if (ids := match(self.readers[o])) is not None and ids.size]
        if not chunks:
            return _NO_HITS
        ids = np.concatenate([c for _, c in chunks]).astype(np.uint64, copy=False)
        src = np.repeat(np.array([o for o, _ in chunks], np.int64), [c.size for _, c in chunks])
        ids, src = _doc_order(ids, src)
        return ids, np.ones(ids.size, np.float64), src

    def _eval(self, node, stats: Stats, ords) -> tuple:
        """Hits of ``node`` over the readers ``ords``: (sorted unique doc
        ids uint64, scores float64, reader ordinals)."""
        if isinstance(node, AllQuery):
            return self._dv_hits(ords, lambda r: r.doc_ids())

        if isinstance(node, TermQuery):
            fdef = _indexed_field(self.schema, node.field)
            if fdef.is_text:
                parts = self._fetch(node.field, [node.value], ords, _SCORE_COLS)
                if not parts:
                    return _NO_HITS
                ids, tfs, src = self._decode([t for _, t in parts], [o for o, _ in parts])
                w = stats.idf.get((node.field, node.value), 0.0)
                return _doc_order(ids, self._bm25(node.field, ids, tfs, src, w, stats), src)
            # numeric/facet equality — constant score (divergence note: the
            # reference only exercises term queries on text fields)
            col = node.field if fdef.is_numeric else f"facet_{node.field}"

            def equal(r):
                if col not in r.dv_column_names():
                    return None
                target = node.value
                if fdef.is_numeric:
                    try:
                        target = int(node.value)
                    except (TypeError, ValueError):
                        raise QueryError.execution(
                            f"Invalid value for numeric field '{node.field}': '{node.value}'"
                        )
                    if _zone_excludes(r, col, gte=target, lte=target):
                        return None
                # fill_null: a doc that omits this optional field stores a
                # null — pc.equal propagates it and the null-bearing boolean
                # would come back as an OBJECT array that numpy rejects as a
                # mask (null never equals the target, per the reference)
                mask = pc.fill_null(pc.equal(r.docvalues([col])[col], target), False)
                return r.doc_ids()[mask.to_numpy(zero_copy_only=False)]

            return self._dv_hits(ords, equal)

        if isinstance(node, PhraseQuery):
            return self._phrase(node, stats, ords)

        if isinstance(node, _TermSetQuery):
            # ONE postings fetch per reader and ONE decode for every
            # matched term (a broad regex can match 10^4 terms); a term of
            # the union that a segment lacks returns no rows there
            parts = self._fetch(node.field, list(node.terms), ords, _SCORE_COLS)
            if not parts:
                return _NO_HITS
            ids, _, src = self._decode([t for _, t in parts], [o for o, _ in parts])
            ids, first = np.unique(ids, return_index=True)
            return ids, np.ones(ids.size, np.float64), src[first]

        if isinstance(node, RangeQuery):
            self._check_schema(node)

            def in_range(r):
                if node.field not in r.dv_column_names():
                    raise QueryError.execution(f"Unknown field: {node.field}")
                if _zone_excludes(r, node.field, gt=node.gt, gte=node.gte,
                                  lt=node.lt, lte=node.lte):
                    # the zone map proves no doc can match — skip the
                    # docvalues data pages entirely
                    return None
                vals = r.docvalues([node.field])[node.field].to_numpy(zero_copy_only=False)
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
                return r.doc_ids()[mask]

            return self._dv_hits(ords, in_range)

        if isinstance(node, BoolQuery):
            return self._bool(node, stats, ords)

        if isinstance(node, BoostQuery):
            ids, scores, src = self._eval(node.query, stats, ords)
            return ids, scores * node.boost, src

        raise QueryError.execution(f"Unsupported query node: {type(node).__name__}")

    def _phrase(self, node: PhraseQuery, stats: Stats, ords) -> tuple:
        """Pass 1 intersects the terms' doc ids without decoding positions
        (most candidates die there, and positions are the largest
        column); pass 2 decodes the positions of the readers that hold
        candidates. A term's rows come only from the readers that held
        every earlier term, and all terms decode together: one
        `decode_postings` and one `decode_positions` per phrase. (A
        term's whole position list decodes; segments are bounded by
        docs_per_segment, and block-aligned position offsets would
        shave a constant factor at the cost of a format bump.)"""
        self._check_schema(node)
        offsets = node.offsets or tuple(range(len(node.terms)))
        fetched = []
        for t in node.terms:
            got = self._fetch(node.field, [t], ords, _PHRASE_COLS)
            if not got:
                return _NO_HITS
            fetched.append(got)
            ords = [o for o, _ in got]
        held = set(ords)  # the readers that hold every term
        parts = [(j, o, tbl) for j, got in enumerate(fetched) for o, tbl in got if o in held]
        tables = [tbl for _, _, tbl in parts]
        ids, tfs, part = self._decode(tables, range(len(parts)))
        term = np.array([j for j, _, _ in parts])[part]
        src = np.array([o for _, o, _ in parts], np.int64)[part]
        per_term = [_doc_order(ids[at], at) for at in
                    (np.flatnonzero(term == j) for j in range(len(node.terms)))]
        cand = per_term[0][0]
        for term_ids, _ in per_term[1:]:
            cand = np.intersect1d(cand, term_ids, assume_unique=True)
        if cand.size == 0:
            return _NO_HITS
        postings = [at[np.searchsorted(term_ids, cand)] for term_ids, at in per_term]
        cand_src = src[postings[0]]

        # pass 2: the candidate readers' tables, positions decoded in one
        # call against pass 1's tfs (a posting's positions restart)
        readers = set(_holding(cand_src))
        kept = np.isin(src, list(readers))
        renumber = np.cumsum(kept) - 1  # a kept posting's index in pass 2
        pos, offs = decode_positions(
            pa.concat_tables([tbl for _, o, tbl in parts if o in readers]), tfs[kept]
        )
        pos = pos.astype(np.int64)
        survivors = None
        for i, at in enumerate(postings):
            at = renumber[at]
            delta = offsets[i] - offsets[0]
            starts, lens = offs[at], offs[at + 1] - offs[at]
            flat = codecs.take_ranges(pos, starts, lens)
            docidx = np.repeat(np.arange(cand.size, dtype=np.int64), lens)
            adj = flat - delta
            ok = adj >= 0
            keys = (docidx[ok] << np.int64(32)) | adj[ok]
            survivors = keys if survivors is None else np.intersect1d(
                survivors, keys, assume_unique=True
            )
            if survivors.size == 0:
                return _NO_HITS

        ptf = np.bincount((survivors >> np.int64(32)), minlength=cand.size)
        hit = ptf > 0
        doc_ids, src = cand[hit].astype(np.uint64), cand_src[hit]
        sum_idf = float(sum(stats.idf.get((node.field, t), 0.0) for t in node.terms))
        return doc_ids, self._bm25(node.field, doc_ids, ptf[hit], src, sum_idf, stats), src

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

    def _bool(self, node: BoolQuery, stats: Stats, ords) -> tuple:
        """Musts intersect one at a time, rarest first: text-term musts by
        descending idf, then the other musts in their given order. Every
        later clause reads only the readers that still hold hits, so
        once the running set is empty nothing later is read
        (`_check_schema` still checks every clause, so a malformed
        query fails the same way on every index)."""

        def rarest_first(q):
            fdef = self.schema.field(q.field) if isinstance(q, TermQuery) else None
            if fdef is not None and fdef.is_text:
                return (0, -stats.idf.get((q.field, q.value), 0.0))
            return (1, 0.0)

        musts = sorted(node.must, key=rarest_first)
        if musts:
            ids, scores, src = self._eval(musts[0], stats, ords)
            for q in musts[1:]:
                if ids.size == 0:
                    break
                mids, mscores, _ = self._eval(q, stats, _holding(src))
                ids, ia, ib = np.intersect1d(ids, mids, assume_unique=True, return_indices=True)
                scores, src = scores[ia] + mscores[ib], src[ia]
            if ids.size == 0:
                self._check_schema(node)
                return _NO_HITS
            for q in node.should:
                sids, sscores, _ = self._eval(q, stats, _holding(src))
                _, ia, ib = np.intersect1d(ids, sids, assume_unique=True, return_indices=True)
                scores = scores.copy()
                scores[ia] += sscores[ib]
        elif node.should:
            shoulds = [self._eval(q, stats, ords) for q in node.should]
            ids, first = np.unique(np.concatenate([s[0] for s in shoulds]), return_index=True)
            src = np.concatenate([s[2] for s in shoulds])[first]
            scores = np.zeros(ids.size, np.float64)
            for sids, sscores, _ in shoulds:
                np.add.at(scores, np.searchsorted(ids, sids), sscores)
        else:
            return _NO_HITS
        for q in node.must_not:
            nids = self._eval(q, stats, _holding(src))[0]
            keep = ~np.isin(ids, nids, assume_unique=True)
            ids, scores, src = ids[keep], scores[keep], src[keep]
        return ids, scores, src


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
    every phase from the one snapshot it holds. Once its pool exists a
    snapshot never changes (only its caches fill): refresh and close
    replace it, and it is freed, its Ray actors with it, when the last
    query holding it ends.

    A snapshot starts from the previous one: it carries the reader of
    every unchanged manifest entry, and primes the new reader of the
    entry whose ``write_id`` matches ``primed`` (``(write_id, postings,
    docvalues)``, the tables of a write this process made)."""

    def __init__(self, index_root: str, prev: "_Snapshot | None", primed: tuple | None = None):
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
        # over instead of opening it again. The key is the entry's
        # write_id, not the name: an overwrite rebuild reuses
        # seg-<min>-<n> names for new content, and every segment writer
        # (`segments.finish_segment`) stamps a fresh write_id.
        kept = prev.readers if prev is not None else {}
        self.readers: dict[str, SegmentReader] = {}
        for s in self.segments:
            key = s["write_id"]
            if key in kept:
                self.readers[key] = kept[key].carry()
                continue
            r = self.readers[key] = SegmentReader(os.path.join(index_root, SEGMENTS_DIR, s["name"]))
            if primed is not None and key == primed[0]:
                r.prime(*primed[1:])
        self.pool: list | None = None  # [(kind, scorer)]

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
        # sorted and unique, so each reader's lookup skips its own sort
        return _TermSetQuery(node.field, tuple(sorted(set(matched))))

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
    not change, and every query holds one snapshot from its stats phase
    to its winner fetch.

    In-process (``distributed=False``) one scorer group evaluates every
    query over all segments; ``parallelism`` sizes only the Ray pool
    (at most one actor per segment and per cluster CPU).
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
        self._lock = threading.Lock()  # guards _snap and every snapshot's pool
        self._snap: _Snapshot | None = None
        self._refresh_stop: threading.Event | None = None
        self._refresh_thread: threading.Thread | None = None
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
        if self._refresh_stop is not None:
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
        if self._refresh_stop is not None:
            self._refresh_stop.set()
            self._refresh_thread.join(timeout=5)
            self._refresh_stop = None

    def refresh(self, primed: tuple | None = None) -> None:
        """Swap in a snapshot of the manifest on disk. It is built whole
        first: a failure (wrong format, a missing delete file) raises
        and leaves the current snapshot serving. ``primed`` is
        ``(write_id, postings, docvalues)``, the tables one write put on
        disk; a new reader of that write starts with them loaded. The
        replaced snapshot is not touched: a query holding it finishes on
        it, and it is freed with its pool when the last holder lets go."""
        snap = _Snapshot(self.index_root, self._snap, primed)
        with self._lock:
            self._snap = snap

    def close(self) -> None:
        """Stop the auto-refresh ticker and swap in a copy of the current
        snapshot with no pool, whose readers hold nothing loaded (a later
        query loads it again). The old snapshot stays whole for any query
        still holding it; its scorer actors end, freeing their reserved
        CPUs, when the last of them lets it go."""
        self.stop_auto_refresh()
        with self._lock:
            snap = copy.copy(self._snap)
            snap.readers = {k: r.carry() for k, r in snap.readers.items()}
            snap.pool = None
            self._snap = snap

    def _pin(self) -> _Snapshot:
        """The current snapshot, for one query to hold through all of its
        phases. Its pool is built in the same critical section on first
        use, so two first queries cannot each build one."""
        with self._lock:
            snap = self._snap
            if snap.pool is None:
                snap.pool = self._build_pool(snap)
            return snap

    def _build_pool(self, snap: _Snapshot) -> list:
        """Scorers over the snapshot's readers. In-process, one group
        holds every reader (a group evaluates a leaf once over all its
        segments; more local groups would only pay that fixed cost
        again, one after another). On Ray, ``parallelism`` actors run
        the same group code over ``readers[i::n]``, each opening its
        own copies."""
        readers = list(snap.readers.values())
        if not readers:
            return []
        schema_json = snap.schema.to_json()
        if not self.distributed:
            return [("local", SegmentGroupScorer(readers, schema_json))]
        import ray

        n_groups = max(1, min(self.parallelism, len(readers)))

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
                for i in range(n_groups)]

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

    def multi_search(self, bodies: list) -> list[dict]:
        """Execute a batch of queries with ONE stats round-trip and ONE
        scoring round-trip per scorer group (query-set workloads).
        Stats, scoring and the winner fetch all read one pinned
        snapshot: stats of one manifest scored over another's segments
        would give wrong idfs."""
        snap = self._pin()
        searches = [snap.plan(b) for b in bodies]
        stats = snap.stats([s.query for s in searches])
        groups = snap.pool
        group_results = self._dispatch(
            groups,
            "score_topk_many",
            [s.query for s in searches],
            stats,
            [s.limit for s in searches],
            [s.sort_by for s in searches],
            [s.facets for s in searches],
        )

        # per-query global merge + one combined winner-fetch per group
        per_query_rows: list[list] = []
        per_query_facets: list[dict] = []
        wanted_by_group: dict[int, dict[int, set]] = {}
        for qi, s in enumerate(searches):
            tops = [results[qi] for results in group_results]
            facet_acc: dict[str, int] = {}
            for *_, fc in tops:
                for k, v in fc.items():
                    facet_acc[k] = facet_acc.get(k, 0) + v
            rows = _merge_tops(tops, s.limit)
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
        snap = self._pin()
        s = snap.plan(body)
        return sum(self._dispatch(snap.pool, "count_matches", s.query, snap.stats([s.query])))

    def suggest(self, field: str, prefix: str, k: int = 10) -> list[tuple[str, int]]:
        """Prefix autocomplete over the INDEX term dictionary (the
        Elasticsearch term-suggester shape): top-k completions by
        document frequency, ties by term bytes. df is read straight
        from the postings metadata (no postings decode) and — like
        Lucene — counts tombstoned docs until a merge reclaims them."""
        acc: dict[str, int] = {}
        snap = self._pin()
        parts = self._dispatch(snap.pool, "suggest_terms", field, prefix)
        for pairs in parts:
            for term, df in pairs:
                acc[term] = acc.get(term, 0) + df
        ranked = sorted(acc.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]

    def match_doc_ids(self, body: dict | Search | None = None) -> np.ndarray:
        """All matching doc_ids, globally sorted (no limit applied)."""
        snap = self._pin()
        s = snap.plan(body)
        groups = self._dispatch(snap.pool, "match_ids", s.query, snap.stats([s.query]))
        parts = [a for group in groups for a in group]
        if not parts:
            return np.empty(0, np.uint64)
        return np.sort(np.concatenate(parts))


def _merge_tops(tops: list[tuple], k: int) -> list[tuple]:
    """The k best rows of the groups' top-k lists, cut with one lexsort
    over (score or sort value desc, doc id asc); a NaN (a NULL sort
    value) sorts last. → [(doc id, score, group, reader ordinal)]."""
    if not tops:
        return []
    ids, keys, src = (np.concatenate([t[i] for t in tops]) for i in range(3))
    group = np.repeat(np.arange(len(tops)), [t[0].size for t in tops])
    order = np.lexsort((ids, np.where(np.isnan(keys), np.inf, -keys)))[:k]
    return list(zip(ids[order].tolist(), keys[order].tolist(),
                    group[order].tolist(), src[order].tolist()))


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
