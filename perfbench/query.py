"""query_merged: one client searching a local index of a few large
segments, where the winner fetch (whole-store decode per touched
segment) dominates.
"""

from __future__ import annotations

import math
import os
import shutil

import numpy as np

from perfbench import speed
from perfbench.common import (
    CorpusTerms,
    Metric,
    Outcome,
    build_local_index,
    closed_loop,
    window_ops,
    dir_bytes,
    doc_id_base,
    loop_metrics,
    make_corpus,
    peak_rss_mb,
    rng,
    setup_metric,
)
from perfbench.trace import traced_windows
from toshi_ray.functions.oracle import BruteForceIndex

N_DOCS = 16_384
SEGMENT_DOCS = N_DOCS // 4
QUERIES_PER_S = 17.6  # nominal: a 10 s window is 8 decks
SETUPS = 3  # set-ups per run; setup_s is their median

# kind -> weight in the query mix. The weights are an assumption, not
# taken from a query log: rare terms were made the largest group, and
# the weights were chosen so that the median falls inside one latency
# cluster (rare, phrase, absent), not on the edge between two, which
# keeps op_p50_cpu_ms steady from run to run
MIX = {
    "term_rare": 9,
    "term_mid": 2,
    "term_hot": 1,
    "term_absent": 1,
    "phrase": 2,
    "bool": 2,
    "fuzzy": 1,
    "range": 1,
    "sort": 1,
    "facet": 2,
}
DECK = sum(MIX.values())
LIMIT_100_PER_DECK = 2  # the rest use limit 10

# doc-share bands the sampled terms come from; narrow, so that one
# seed's draws cost about what another's do
RARE = (0.0012, 0.0015)
MID = (0.02, 0.025)
HOT = (0.4, 0.6)
PHRASE_MAX_SHARE = 0.05  # phrase words are mid or rarer

# BruteForceIndex scores ~300 docs a second; the oracle sample only
# takes queries whose candidate docs stay under this
ORACLE_DOC_CAP = 300
ORACLE_SAMPLE = 8


class QueryStream:
    """The seeded, endless query mix. Terms are drawn fresh per query
    from frequency bands, so the df cache sees the misses a stream of
    distinct user queries causes."""

    def __init__(self, seed: int, terms: CorpusTerms, texts: list[str], stream: str):
        self.r = rng(seed, stream)
        self.terms = terms
        self.texts = texts
        self.base = doc_id_base(seed)
        self.rare = terms.band(*RARE)
        self.mid = terms.band(*MID)
        self.hot = terms.band(*HOT)
        self._common = set(terms.band(PHRASE_MAX_SHARE, 1.01))
        self.deck: list[tuple[str, int]] = []

    def _pick(self, arr) -> str:
        return str(arr[self.r.integers(len(arr))])

    def _phrase_pair(self) -> list[str]:
        while True:
            toks = self.texts[self.r.integers(len(self.texts))].split(" ")
            ok = [
                i
                for i in range(len(toks) - 1)
                if toks[i] not in self._common and toks[i + 1] not in self._common
            ]
            if ok:
                i = ok[self.r.integers(len(ok))]
                return [toks[i], toks[i + 1]]

    def next(self) -> tuple[str, dict]:
        """Queries come in shuffled decks that hold every kind exactly
        MIX times, so any window of the stream keeps the mix."""
        if not self.deck:
            kinds = [k for k, w in MIX.items() for _ in range(w)]
            limits = [100] * LIMIT_100_PER_DECK + [10] * (DECK - LIMIT_100_PER_DECK)
            self.deck = list(zip(self.r.permutation(kinds), self.r.permutation(limits)))
        kind, limit = self.deck.pop()
        return self.of_kind(str(kind), int(limit))

    def of_kind(self, kind: str, limit: int = 10) -> tuple[str, dict]:
        if kind.startswith("term_"):
            band = {"term_rare": self.rare, "term_mid": self.mid, "term_hot": self.hot}
            t = f"zq{self.r.integers(1 << 40):x}" if kind == "term_absent" else self._pick(band[kind])
            q = {"term": {"text": t}}
        elif kind == "phrase":
            q = {"phrase": {"text": {"terms": self._phrase_pair()}}}
        elif kind == "bool":
            q = {
                "bool": {
                    "must": [{"term": {"text": self._pick(self.rare)}}],
                    "should": [{"term": {"text": self._pick(self.mid)}}],
                    "must_not": [{"term": {"text": self._pick(self.mid)}}],
                }
            }
        elif kind == "fuzzy":
            q = {"fuzzy": {"text": {"value": self._pick(self.rare), "distance": 1}}}
        elif kind == "range":
            lo = self.base + int(self.r.integers(self.terms.n_docs))
            q = {"range": {"doc_id": {"gte": lo, "lte": lo + int(self.r.integers(50, 2000))}}}
        elif kind == "sort":
            return kind, {"query": {"all": {}}, "sort_by": "doc_id", "limit": limit}
        else:  # facet
            return kind, {
                "query": {"term": {"text": self._pick(self.mid)}},
                "facets": {"lang": ["/"]},
                "limit": limit,
            }
        return kind, {"query": q, "limit": limit}


class _SubsetOracle(BruteForceIndex):
    """BruteForceIndex over only the docs that can match a query, scored
    with whole-corpus N, average length and df."""

    def __init__(self, terms: CorpusTerms, texts: list[str], rows: np.ndarray):
        docs = [{"doc_id": int(terms.doc_ids[r]), "text": texts[r]} for r in rows]
        super().__init__(docs, {"text": "default"})
        self.n = terms.n_docs
        self.avgdl = {"text": terms.total_tokens / terms.n_docs}
        self._corpus_terms = terms

    def idf(self, field: str, term: str) -> float:
        df = self._corpus_terms.df_of(term)
        return math.log(1.0 + (self.n - df + 0.5) / (df + 0.5))


def _within_one_edit(a: str, b: str) -> bool:
    if a == b:
        return True
    if abs(len(a) - len(b)) > 1:
        return False
    if len(a) == len(b):
        return sum(x != y for x, y in zip(a, b)) == 1
    if len(a) > len(b):
        a, b = b, a
    i = 0
    while i < len(a) and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1 :]


def expected_hits(body: dict, terms: CorpusTerms, texts: list[str]):
    """→ (top-k [(doc_id, score or None)], facet counts or None), or
    None when the query is too costly for the oracle."""
    q, k = body["query"], body["limit"]
    kind = next(iter(q))
    ids = terms.doc_ids
    if kind == "term":
        t = q["term"]["text"]
        rows = terms.doc_rows(t)
        if body.get("facets"):
            langs = terms.langs[rows]
            facets = {str(v): int(c) for v, c in zip(*np.unique(langs, return_counts=True))}
        else:
            facets = None
        if len(rows) > ORACLE_DOC_CAP:
            return (None, facets) if facets is not None else None
        o = _SubsetOracle(terms, texts, rows)
        return o.topk(o.term_scores("text", t), k), facets
    if kind == "phrase":
        a, b = q["phrase"]["text"]["terms"]
        rows = np.intersect1d(terms.doc_rows(a), terms.doc_rows(b))
        if len(rows) > ORACLE_DOC_CAP:
            return None
        o = _SubsetOracle(terms, texts, rows)
        return o.topk(o.phrase_scores("text", [a, b]), k), None
    if kind == "bool":
        b = q["bool"]
        must, should, must_not = (b[c][0]["term"]["text"] for c in ("must", "should", "must_not"))
        rows = np.setdiff1d(terms.doc_rows(must), terms.doc_rows(must_not))
        if len(rows) > ORACLE_DOC_CAP:
            return None
        o = _SubsetOracle(terms, texts, rows)
        scores = o.term_scores("text", must)
        for i, s in o.term_scores("text", should).items():
            scores[i] += s
        return o.topk(scores, k), None
    if kind == "fuzzy":
        v = q["fuzzy"]["text"]["value"]
        near = [t for t in terms.vocab if _within_one_edit(v, t)]
        rows = np.unique(np.concatenate([terms.doc_rows(t) for t in near] or [np.empty(0, np.int64)]))
        return [(int(d), 1.0) for d in np.sort(ids[rows])[:k]], None
    if kind == "range":
        r = q["range"]["doc_id"]
        m = np.sort(ids[(ids >= r["gte"]) & (ids <= r["lte"])])
        return [(int(d), 1.0) for d in m[:k]], None
    if kind == "all":  # match-all sorted by doc_id, descending
        return [(int(d), None) for d in np.sort(ids)[::-1][:k]], None
    raise ValueError(kind)


def check_sample(out: Outcome, searcher, bodies: list[tuple[str, dict]], seed: int,
                 terms: CorpusTerms, texts: list[str]) -> int:
    """Re-run a seeded sample of the issued queries and compare them
    with the oracle; → number of queries checked."""
    r = rng(seed, "oracle-sample")
    checked = 0
    for i in r.permutation(len(bodies)):
        if checked >= ORACLE_SAMPLE:
            break
        kind, body = bodies[i]
        want = expected_hits(body, terms, texts)
        if want is None:
            continue
        checked += 1
        top, facets = want
        got = searcher.search(body)
        if top is not None:
            got_top = [(d["doc"]["doc_id"], d["score"]) for d in got["docs"]]
            same = [g[0] for g in got_top] == [w[0] for w in top] and all(
                w[1] is None or math.isclose(g[1], w[1], rel_tol=1e-9)
                for g, w in zip(got_top, top)
            )
            out.check(same, f"{kind} {body['query']}: top-k differs from the oracle")
        if facets is not None:
            out.check(got.get("facets") == facets, f"{kind}: facet counts differ")
    out.check(checked > 0, "no query of the mix was checked")
    return checked


def run(name: str, seed: int, seconds: float, tracer, workdir: str) -> Outcome:
    out = Outcome()
    corpus = make_corpus(seed, N_DOCS)
    texts = corpus["text"].to_pylist()
    terms = CorpusTerms(corpus)

    from toshi_ray.search import Searcher

    def set_up(root: str) -> Searcher:
        """Build the index, open the searcher and run one query of each
        kind to fill the readers' lazy caches."""
        build_local_index(root, corpus, SEGMENT_DOCS)
        searcher = Searcher(root, distributed=False)
        warm = QueryStream(seed, terms, texts, "warm")
        for kind in MIX:
            searcher.search(warm.of_kind(kind)[1])
        return searcher

    setup_s, raw_s = [], []
    for i in range(SETUPS):
        if i:  # keep only the last set-up's index
            searcher.close()
            shutil.rmtree(root)
        root = os.path.join(workdir, f"index-{i}")
        searcher, scaled, raw = speed.timed(lambda: set_up(root))
        setup_s.append(scaled)
        raw_s.append(raw)

    stream = QueryStream(seed, terms, texts, "queries")
    n_ops = window_ops(seconds, QUERIES_PER_S, DECK)
    issued: list[tuple[str, dict]] = []

    def one_query(i: int):
        kind, body = stream.next()
        issued.append((kind, body))
        if tracer is not None:
            tracer.request = i
        res = searcher.search(body)
        return kind, isinstance(res.get("docs"), list)

    if tracer is None:
        loop_metrics(out, closed_loop(one_query, n_ops))
        out.metrics["setup_s"] = setup_metric(setup_s, raw_s, "")
        out.metrics["index_bytes_per_doc"] = Metric(dir_bytes(root) / N_DOCS, "B")
        out.metrics["peak_rss_mb"] = Metric(peak_rss_mb(), "MB")
    else:
        base, _ = traced_windows(out, tracer, one_query, n_ops, whole=DECK)
        for kind, ms in base.p50_by_kind().items():
            out.metrics[f"search.p50_ms.{kind}"] = Metric(ms, "ms")

    check_sample(out, searcher, issued, seed, terms, texts)
    searcher.close()
    return out
