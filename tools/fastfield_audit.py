#!/usr/bin/env python
"""Fast-field pruning audit: byte-level evidence that range / sort-by
queries fetch ONLY the fast-field columns they touch.

Builds the standard documents index (same one the driver queries use),
records every parquet read the readers issue while running
`range_matches` and `sort_topk`, and prices each read from parquet
FOOTER metadata (sum of total_compressed_size for the columns
actually fetched) against the full file sizes.

    PYTHONPATH=. python tools/fastfield_audit.py [sf_dir]

Prints one JSON line; numbers land in BASELINE.md.
"""
from __future__ import annotations

import json
import os
import sys


def _col_bytes(files: list[str], columns: tuple | None) -> tuple[int, int]:
    """(bytes fetched for `columns`, total file bytes) from footers."""
    import pyarrow.parquet as pq

    got = tot = 0
    for f in files:
        md = pq.ParquetFile(f).metadata
        for rg in range(md.num_row_groups):
            for ci in range(md.num_columns):
                col = md.row_group(rg).column(ci)
                tot += col.total_compressed_size
                if columns is None or col.path_in_schema in columns:
                    got += col.total_compressed_size
    return got, tot


def main() -> None:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    import ray

    own_ray = not ray.is_initialized()
    if own_ray:
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")

    import toshi_ray.segments as segments
    from toshi_ray.pipelines.queries import documents_index
    from toshi_ray.search import Searcher

    root = documents_index(sf_dir)
    reads: list[tuple[list[str], tuple | None]] = []
    orig = segments.pq.read_table

    def spy(path, *a, columns=None, **kw):
        # readers pass a segment file's part files (segments.segment_parts)
        reads.append((list(path), tuple(columns) if columns is not None else None))
        if columns is not None:
            return orig(path, *a, columns=list(columns), **kw)
        return orig(path, *a, **kw)

    segments.pq.read_table = spy
    try:
        s = Searcher(root, distributed=False)
        n_range = int(
            s.match_doc_ids(
                {"query": {"range": {"n_chars": {"gte": 200, "lte": 300}}}}
            ).size
        )
        r = s.search({"query": None, "sort_by": "n_chars", "limit": 20})
        n_sort = len(r["docs"])

        n_fastfield_reads = len(reads)  # by-kind table covers range/sort only

        # ---- term-bloom audit: postings files opened per term query ----
        # a token from ONE document lives in (at most) the few segments
        # holding it; an absent token must open ZERO postings files.
        # Query order matters: absent first (readers cache postings on
        # first touch, which would mask later counts).
        from toshi_ray.analyzer import get_analyzer

        import pyarrow.parquet as _pq

        import pyarrow as _pa

        first_text = _pq.read_table(
            os.path.join(sf_dir, "documents.parquet"), columns=["text"]
        )["text"][0].as_py()
        tc = get_analyzer("default").tokenize_column(_pa.array([first_text]))
        # a first document without tokens leaves no rare term to probe
        rare = max(tc.terms.to_pylist(), key=len, default=None)
        probes = [("absent_term", "zzzqqqxyzzy")]
        if rare is not None:
            probes.append(("rare_term", rare))
        bloom_audit: dict[str, dict] = {}
        for label, term in probes:
            mark = len(reads)
            res = s.search({"query": {"term": {"text": term}}, "limit": 10})
            bloom_audit[label] = {
                "term": term,
                "hits": res["hits"],
                "postings_files_opened": len(
                    {p for files, _ in reads[mark:] for p in files if "postings" in p}
                ),
            }
    finally:
        segments.pq.read_table = orig

    seg_root = os.path.join(root, "segments")
    bloom_bytes = sum(
        os.path.getsize(os.path.join(seg_root, d, "termbloom.bin"))
        for d in os.listdir(seg_root)
        if os.path.exists(os.path.join(seg_root, d, "termbloom.bin"))
    )
    n_segments = len(s.segments)
    # store reads are row-group fetches, counted by the readers
    store_blocks = sum(r.store_blocks_read for _, g in s._groups for r in g.readers)

    ff_reads = reads[:n_fastfield_reads]
    by_kind: dict[str, dict[str, int]] = {}
    for files, cols in ff_reads:
        path = files[0]
        kind = ("docvalues" if "docvalues" in path
                else "postings" if "postings" in path
                else "store" if "store" in path else "other")
        got, tot = _col_bytes(files, cols)
        d = by_kind.setdefault(kind, {"bytes_read": 0, "bytes_total": 0, "reads": 0,
                                      "unprojected_reads": 0})
        d["bytes_read"] += got
        d["bytes_total"] = max(d["bytes_total"], tot)  # same file re-read
        d["reads"] += 1
        d["unprojected_reads"] += cols is None
    print(json.dumps({
        "sf_dir": sf_dir,
        "n_range_hits": n_range,
        "n_sort_hits": n_sort,
        "reads_by_kind": by_kind,
        "docvalues_columns_read": sorted(
            {c for p, cols in ff_reads if "docvalues" in p for c in (cols or ())}
        ),
        "postings_reads": sum(1 for p, _ in ff_reads if "postings" in p),
        "store_blocks_read": store_blocks,
        "term_bloom": {
            "segments_total": n_segments,
            "bloom_bytes_total": bloom_bytes,
            **bloom_audit,
        },
    }))
    if own_ray:
        ray.shutdown()


if __name__ == "__main__":
    main()
