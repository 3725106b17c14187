"""Driver-side capped gather: fetch a bounded Dataset as ONE Arrow table.

``Dataset.take_all()`` converts every row into a Python dict — at the
``PAIR_DRIVER_CAP`` = 5M slim-integer-row bound that is gigabytes of
per-row object overhead for what is ~120 MB of columnar data.
``to_arrow_refs()`` ships the blocks as Arrow with zero per-row
objects; one concat yields contiguous columns that ``.to_numpy()``
views without copying.
"""
from __future__ import annotations

import pyarrow as pa


def gather_table(ds) -> "pa.Table | None":
    """Materialize a (cap-checked, bounded) Dataset onto the driver as a
    single Arrow table. Returns ``None`` when the dataset has no rows so
    callers keep their explicit empty-schema branches.

    The dataset runs once: ``to_arrow_refs`` of a lazy Dataset asks for
    its schema after the run, which starts a second (``limit=1``)
    execution of the first block, shuffles before it included."""
    import ray

    tbls = [t for t in ray.get(ds.materialize().to_arrow_refs()) if t.num_rows]
    if not tbls:
        return None
    return pa.concat_tables(tbls).combine_chunks()


def col_i64(t: pa.Table, name: str):
    """Column → contiguous int64 numpy array (copy only if chunked or
    non-int64)."""
    return t[name].to_numpy(zero_copy_only=False).astype("int64", copy=False)
