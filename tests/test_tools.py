"""The audit scripts under tools/ run to completion on corner-case data."""

import importlib.util
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from toshi_ray.sources.webpages import make_pages_batch

TOOLS = os.path.join(os.path.dirname(__file__), os.pardir, "tools")


def test_fastfield_audit_first_doc_without_tokens(ray_session, tmp_path, capsys,
                                                   monkeypatch):
    """The rare-term probe takes the longest token of the first document;
    a first document with no tokens skips that probe instead of crashing
    the audit with ``max() arg is an empty sequence``."""
    pages = make_pages_batch(np.arange(300))
    texts = pages["text"].to_pylist()
    texts[0] = "-- !!! ..."  # the analyzer splits this to zero tokens
    docs = pa.table({
        "doc_id": pa.array(np.arange(300), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pages["lang"],
        "source": pa.array(["web"] * 300),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })
    pq.write_table(docs, tmp_path / "documents.parquet")

    path = os.path.join(TOOLS, "fastfield_audit.py")
    spec = importlib.util.spec_from_file_location("fastfield_audit", path)
    audit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(audit)
    monkeypatch.setattr("sys.argv", [path, str(tmp_path)])
    audit.main()
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "rare_term" not in out["term_bloom"]
    assert out["term_bloom"]["absent_term"]["postings_files_opened"] == 0
    assert out["n_sort_hits"] == 20
    assert out["store_frames_read"] > 0


def test_segment_curve_runs_and_results_agree():
    """`tools/segment_curve.py` on a small corpus: a p50 per kind and
    overall at each segment count, the same results at every count, and
    the ratio to the first count."""
    path = os.path.join(TOOLS, "segment_curve.py")
    spec = importlib.util.spec_from_file_location("segment_curve", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    out = tool.curve(2048, [1, 4], decks=1, rounds=1, seed=41)
    assert out["queries"] == 22 and set(out["p50_ms"]) == {"1", "4"}
    for row in out["p50_ms"].values():
        assert row["same_results"] is True
        assert {"all", "term_rare", "phrase", "sort", "facet"} <= set(row)
    assert out["all_ratio"]["1"] == 1.0
