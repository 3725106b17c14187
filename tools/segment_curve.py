"""What each extra segment costs a query: the per-kind p50 of the
``query_merged`` query mix over the same corpus cut into 1, 4, 16 and
64 segments.

    PYTHONPATH=<checkout> python tools/segment_curve.py [--docs 16384] \
        [--segments 1,4,16,64] [--decks 8] [--rounds 3] [--seed 41]

Each index is built in-process (``perfbench.common.build_local_index``,
no Ray) under a temporary directory and searched in-process. The query
list is ``--decks`` shuffled decks of the benchmark's mix (22 queries a
deck), drawn once and shared by every index. Each index runs the list
once to warm its readers, then ``--rounds`` times timed; a query's time
is its process CPU time. Prints one JSON object: per segment count, the
p50 in ms per kind and over all queries (``all``), whether every result
equals the first index's, and the ratio of each count's ``all`` p50
to the first count's.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import tempfile
import time

import numpy as np

from perfbench.common import CorpusTerms, build_local_index, make_corpus
from perfbench.query import DECK, QueryStream
from toshi_ray.search import Searcher


def curve(n_docs: int, seg_counts: list[int], decks: int, rounds: int, seed: int) -> dict:
    corpus = make_corpus(seed, n_docs)
    stream = QueryStream(seed, CorpusTerms(corpus), corpus["text"].to_pylist(), "curve")
    queries = [stream.next() for _ in range(decks * DECK)]
    out: dict = {"docs": n_docs, "queries": len(queries), "rounds": rounds, "p50_ms": {}}
    first = None
    work = tempfile.mkdtemp(prefix="segment-curve-")
    try:
        for n in seg_counts:
            root = os.path.join(work, f"seg{n}")
            build_local_index(root, corpus, -(-n_docs // n))
            s = Searcher(root, distributed=False)
            try:
                results = [s.search(body) for _, body in queries]  # warm-up
                ms: dict[str, list[float]] = {}
                for _ in range(rounds):
                    for kind, body in queries:
                        t0 = time.process_time()
                        s.search(body)
                        ms.setdefault(kind, []).append(1e3 * (time.process_time() - t0))
            finally:
                s.close()
            shutil.rmtree(root)
            p50 = {k: round(float(np.median(v)), 3) for k, v in sorted(ms.items())}
            p50["all"] = round(float(np.median([x for v in ms.values() for x in v])), 3)
            first = results if first is None else first
            out["p50_ms"][str(n)] = {**p50, "same_results": results == first}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    base = out["p50_ms"][str(seg_counts[0])]["all"]
    out["all_ratio"] = {n: round(v["all"] / base, 2) for n, v in out["p50_ms"].items()}
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--docs", type=int, default=16_384)
    ap.add_argument("--segments", default="1,4,16,64")
    ap.add_argument("--decks", type=int, default=8)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--seed", type=int, default=41)
    a = ap.parse_args()
    segs = [int(x) for x in a.segments.split(",")]
    print(json.dumps(curve(a.docs, segs, a.decks, a.rounds, a.seed)))


if __name__ == "__main__":
    main()
