"""Distributed NDJSON bulk ingest — the reference's `POST /{idx}/_bulk`
(`toshi-server/src/handlers/bulk.rs`) re-expressed at web scale.

The REST path (`toshi_ray.api.bulk_insert`) parses one request body on
the driver — correct for API parity, wrong for terabytes of NDJSON.
This source reads NDJSON **files** as a `ray.data.Dataset` (pyarrow's
vectorized C++ JSON reader, one task per file/block), validates types
against the index schema per batch, and feeds `build_index`. The
whole-bulk rollback guarantee holds structurally: any parse/validation
error fails its task → the job aborts → the manifest is never
published, so nothing becomes visible (`bulk.rs:121-129` semantics).

Doc-id assignment: distributed ingest cannot observe a global insertion
order, so ids derive from a caller-named unique key column (e.g. `url`)
via the batch-invariant 64-bit content hash — stable across retries and
resumes, which is what makes the per-partition checkpoint (segment
skip-on-rerun) correct. Collisions at 10^12 docs: ~n²/2^65 ≈ dozens —
callers needing exactness should carry their own `doc_id` column
(``id_col="doc_id"`` uses it verbatim).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from toshi_ray.query import QueryError
from toshi_ray.schema import Schema


def read_ndjson_docs(paths, schema: Schema, *, id_col: str = "doc_id"):
    """→ validated `ray.data.Dataset` of documents with a `doc_id` column.

    ``id_col``: column holding either ready-made u64 doc ids
    (``"doc_id"``) or the unique key to hash ids from (any other name).
    """
    import ray.data

    schema_json = schema.to_json()

    def validate(t: pa.Table) -> pa.Table:
        from toshi_ray.codecs import _hash_strings

        sch = Schema.from_json(schema_json)
        if id_col not in t.column_names:
            raise QueryError.index(f"Bulk ingest requires a '{id_col}' column")
        try:
            if id_col == "doc_id":
                ids = t["doc_id"].cast(pa.uint64())
            else:
                key = t[id_col].combine_chunks().cast(pa.string()).cast(pa.large_binary())
                # top bit cleared so ids stay sortable as int64 downstream
                ids = pa.array(_hash_strings(key) >> np.uint64(1), type=pa.uint64())
        except (pa.ArrowInvalid, pa.ArrowTypeError) as ex:
            raise QueryError.json(f"invalid doc id column '{id_col}': {ex}") from None
        cols: dict[str, pa.Array] = {"doc_id": ids}
        for f in sch.fields:
            if f.name == "doc_id":
                continue
            if f.name not in t.column_names:
                # field absent from this file: emit a typed null column
                # so every block unifies to ONE schema (a block missing
                # a column would otherwise crash schema unification
                # mid-job instead of the documented rollback error)
                cols[f.name] = pa.nulls(t.num_rows, type=f.arrow_type)
                continue
            col = t[f.name]
            try:
                if f.type == "u64":
                    # negative values must fail the whole bulk
                    # (bulk.rs:174-189) — check min on the ORIGINAL
                    # column, then cast straight to uint64 so legitimate
                    # values >= 2^63 (full tantivy u64 range) pass
                    # instead of tripping an int64 detour
                    mins = pa.compute.min(col).as_py()
                    if mins is not None and mins < 0:
                        raise QueryError.json(
                            f"invalid value: integer `{mins}`, expected u64"
                        )
                cols[f.name] = col.cast(f.arrow_type).combine_chunks()
            except QueryError:
                raise
            except (pa.ArrowInvalid, pa.ArrowTypeError) as ex:
                raise QueryError.json(
                    f"invalid type in field '{f.name}': {ex}"
                ) from None
        return pa.table(cols)

    ds = ray.data.read_json(
        paths, file_extensions=["json", "ndjson", "jsonl"]
    )
    return ds.map_batches(validate, batch_format="pyarrow")


def bulk_index_ndjson(
    paths,
    schema: Schema,
    index_root: str,
    *,
    id_col: str = "doc_id",
    docs_per_segment: int = 50_000,
) -> dict:
    """NDJSON files → validated Dataset → `build_index` (map-only,
    atomic manifest publish = the whole-bulk rollback)."""
    from toshi_ray.pipelines.build import build_index

    ds = read_ndjson_docs(paths, schema, id_col=id_col)
    return build_index(ds, schema, index_root, docs_per_segment=docs_per_segment)
