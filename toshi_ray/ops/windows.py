"""Windowed aggregates over event streams (batch windows, Ray-Data-shaped).

Ray Data has no event-time/watermark machinery; stream-shaped inputs
are treated as an ordered, partitioned log. Tumbling windows become a
computed window key + pre-aggregated groupby (the combiner runs inside
`map_batches`, so the shuffle carries one row per (key, window) per
batch, not one per event). Sliding/session windows follow the
`groupby(key).map_groups(sorted-pandas)` pattern described in the Ray
guide; only tumbling is wired to a SQL oracle here.

Value sums are carried as integer-scaled `floor(value*1000)` so the
aggregate is order-free and bit-identical to the DuckDB oracle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from toshi_ray.ops._gather import col_i64, gather_table


def tumbling_window_agg(
    ds,
    *,
    ts_col: str = "ts",
    key_col: str = "event_type",
    value_col: str = "value",
    window_secs: int = 3600,
):
    """→ Dataset of (key, window_start_s, n, sum_value_x1e3)."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        ts = t[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)  # µs
        ws = (ts // (window_secs * 1_000_000)) * window_secs
        keys = t[key_col].to_numpy(zero_copy_only=False)
        vals = np.floor(t[value_col].to_numpy(zero_copy_only=False) * 1000.0).astype(np.int64)
        # per-batch combine: one row per (key, window)
        order = np.lexsort((ws, keys))
        keys, ws, vals = keys[order], ws[order], vals[order]
        new = np.ones(keys.size, dtype=bool)
        new[1:] = (keys[1:] != keys[:-1]) | (ws[1:] != ws[:-1])
        starts = np.nonzero(new)[0]
        bounds = np.concatenate([starts, [keys.size]])
        return pa.table(
            {
                key_col: pa.array(keys[starts], type=pa.string()),
                "window_start_s": pa.array(ws[starts]),
                "n": pa.array(np.diff(bounds).astype(np.int64)),
                "sum_value_x1e3": pa.array(np.add.reduceat(vals, starts)),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby([key_col, "window_start_s"])
        .aggregate(
            Sum(on="n", alias_name="n"),
            Sum(on="sum_value_x1e3", alias_name="sum_value_x1e3"),
        )
    )


def session_window_agg(
    ds,
    *,
    ts_col: str = "ts",
    key_col: str = "user_id",
    value_col: str = "value",
    id_col: str = "event_id",
    gap_secs: int = 1800,
):
    """Session windows: a key's events split where the gap between
    consecutive events (ordered by ts, id) exceeds ``gap_secs``.

    Keys shuffle by a COARSE hash partition (64 groups, not one Ray
    group per key); sessionization inside each partition is a single
    vectorized pass (sort + cumsum of break flags).
    → (key, session_start_us, n, sum_value_x1e3)."""

    def add_part(t: pa.Table) -> pa.Table:
        k = t[key_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                key_col: t[key_col],
                "ts_us": t[ts_col].cast(pa.int64()),
                id_col: t[id_col],
                "v": pa.array(
                    np.floor(t[value_col].to_numpy(zero_copy_only=False) * 1000.0).astype(
                        np.int64
                    )
                ),
                "part": pa.array((k % 64).astype(np.int64)),
            }
        )

    def sessions(t: pa.Table) -> pa.Table:
        k = t[key_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        ts = t["ts_us"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        order = np.lexsort((t[id_col].cast(pa.int64()).to_numpy(zero_copy_only=False), ts, k))
        k, ts, v = k[order], ts[order], v[order]
        brk = np.ones(k.size, dtype=bool)
        if k.size > 1:
            brk[1:] = (k[1:] != k[:-1]) | (ts[1:] - ts[:-1] > gap_secs * 1_000_000)
        starts = np.nonzero(brk)[0]
        bounds = np.concatenate([starts, [k.size]])
        return pa.table(
            {
                key_col: pa.array(k[starts]),
                "session_start_us": pa.array(ts[starts]),
                "n": pa.array(np.diff(bounds).astype(np.int64)),
                "sum_value_x1e3": pa.array(np.add.reduceat(v, starts))
                if starts.size
                else pa.array(np.empty(0, np.int64)),
            }
        )

    return (
        ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(sessions, batch_format="pyarrow")
    )


def sliding_window_agg(
    ds,
    *,
    ts_col: str = "ts",
    key_col: str = "event_type",
    value_col: str = "value",
    window_secs: int = 3600,
    slide_secs: int = 1800,
):
    """Sliding windows: every event lands in window_secs/slide_secs
    overlapping windows (explode to (key, window_start) partials inside
    map_batches, then the same pre-aggregated groupby).
    → (key, window_start_s, n, sum_value_x1e3)."""
    from ray.data.aggregate import Sum

    assert window_secs % slide_secs == 0
    k = window_secs // slide_secs

    def partial(t: pa.Table) -> pa.Table:
        ts = t[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        top = (ts // (slide_secs * 1_000_000)) * slide_secs
        keys = t[key_col].to_numpy(zero_copy_only=False)
        vals = np.floor(t[value_col].to_numpy(zero_copy_only=False) * 1000.0).astype(np.int64)
        # explode: k rows per event, window starts top, top-S, ...
        keys = np.repeat(keys, k)
        vals = np.repeat(vals, k)
        ws = np.repeat(top, k) - np.tile(
            np.arange(k, dtype=np.int64) * slide_secs, ts.size
        )
        order = np.lexsort((ws, keys))
        keys, ws, vals = keys[order], ws[order], vals[order]
        new = np.ones(keys.size, dtype=bool)
        new[1:] = (keys[1:] != keys[:-1]) | (ws[1:] != ws[:-1])
        starts = np.nonzero(new)[0]
        bounds = np.concatenate([starts, [keys.size]])
        return pa.table(
            {
                key_col: pa.array(keys[starts], type=pa.string()),
                "window_start_s": pa.array(ws[starts]),
                "n": pa.array(np.diff(bounds).astype(np.int64)),
                "sum_value_x1e3": pa.array(np.add.reduceat(vals, starts)),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby([key_col, "window_start_s"])
        .aggregate(
            Sum(on="n", alias_name="n"),
            Sum(on="sum_value_x1e3", alias_name="sum_value_x1e3"),
        )
    )


def funnel(
    ds,
    steps: tuple[str, ...] = ("view", "click", "purchase"),
    *,
    window_secs: int | None = None,
    ts_col: str = "ts",
    key_col: str = "user_id",
    type_col: str = "event_type",
):
    """Ordered-sequence funnel per key (the product-analytics staple):
    anchor at the key's FIRST ``steps[0]`` event, then each next step is
    the earliest matching event STRICTLY after the previous step;
    ``completed`` = every step matched and (if ``window_secs``) the
    whole sequence fits in the window from the anchor.

    → (key, t1_us..tN_us [-1 = step unreached], completed). All values
    are integer microseconds, so the DuckDB twin (correlated mins) is
    hash-exact. Anchored-first semantics are deterministic by
    construction (no dependence on scan order).

    Scale shape: keys co-locate by a COARSE 64-way hash partition (one
    Ray group per partition, not per key); inside a partition each step
    is one boolean mask + ``np.minimum.at`` over the factorized key
    index — a fixed number of vectorized passes, no per-key loop.
    """
    n_steps = len(steps)
    assert n_steps >= 2
    sent = np.iinfo(np.int64).max

    def add_part(t: pa.Table) -> pa.Table:
        k = t[key_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                key_col: t[key_col],
                "ts_us": t[ts_col].cast(pa.int64()),
                type_col: t[type_col],
                "part": pa.array((k % 64).astype(np.int64)),
            }
        )

    def fold(t: pa.Table) -> pa.Table:
        keys, uidx = np.unique(
            t[key_col].to_numpy(zero_copy_only=False), return_inverse=True
        )
        ts = t["ts_us"].to_numpy(zero_copy_only=False)
        et = t[type_col].to_numpy(zero_copy_only=False)
        t_step = np.full((n_steps, keys.size), sent, np.int64)
        mask0 = et == steps[0]
        np.minimum.at(t_step[0], uidx[mask0], ts[mask0])
        for i in range(1, n_steps):
            m = (et == steps[i]) & (ts > t_step[i - 1][uidx])
            np.minimum.at(t_step[i], uidx[m], ts[m])
        has1 = t_step[0] < sent
        done = t_step[-1] < sent
        if window_secs is not None:
            done &= (t_step[-1] - t_step[0]) <= window_secs * 1_000_000
        cols = {key_col: pa.array(keys[has1])}
        for i in range(n_steps):
            v = t_step[i][has1]
            cols[f"t{i + 1}_us"] = pa.array(np.where(v == sent, -1, v))
        cols["completed"] = pa.array(done[has1].astype(np.int64))
        return pa.table(cols)

    return (
        ds.select_columns([key_col, ts_col, type_col])
        .map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(fold, batch_format="pyarrow")
    )


def retention_cohorts(
    ds,
    *,
    ts_col: str = "ts",
    key_col: str = "user_id",
    day_us: int = 86_400_000_000,
):
    """Cohort retention: cohort = a key's FIRST active day (UTC day of
    min ts); for every (cohort_day, day_offset) count the keys active
    on cohort_day + offset. → (cohort_day, day_offset, n_active).

    Scale shape: keys co-locate via the coarse 64-way hash partition,
    so each partition computes its keys' cohorts AND their distinct
    (key, day) activity locally — per-partition (cohort, offset) counts
    are ADDITIVE (a key never spans partitions). The partials are
    O(days²) rows per partition, so they fold on the DRIVER (a second
    Ray groupby would pay ~seconds of all-to-all latency to merge a few
    KB — see CLAUDE.md). Pure integer day arithmetic keeps the DuckDB
    twin hash-exact. Returns a pyarrow Table.
    """

    def add_part(t: pa.Table) -> pa.Table:
        k = t[key_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        ts = t[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "k": pa.array(k),
                "day": pa.array(ts // day_us),
                "part": pa.array((k % 64).astype(np.int64)),
            }
        )

    def fold(t: pa.Table) -> pa.Table:
        keys, uidx = np.unique(
            t["k"].to_numpy(zero_copy_only=False), return_inverse=True
        )
        day = t["day"].to_numpy(zero_copy_only=False)
        first = np.full(keys.size, np.iinfo(np.int64).max, np.int64)
        np.minimum.at(first, uidx, day)
        span = int(day.max() - day.min()) + 1 if day.size else 1
        uniq = np.unique(uidx.astype(np.int64) * span + (day - day.min()))
        u = uniq // span
        d = uniq % span + day.min()
        cohort = first[u]
        off = d - cohort
        pairs, cnt = np.unique(cohort * span + off, return_counts=True)
        return pa.table(
            {
                "cohort_day": pa.array(pairs // span),
                "day_offset": pa.array(pairs % span),
                "n_active": pa.array(cnt.astype(np.int64)),
            }
        )

    t = gather_table(
        ds.select_columns([key_col, ts_col])
        .map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(fold, batch_format="pyarrow")
    )
    if t is None:
        return pa.table(
            {"cohort_day": pa.array([], pa.int64()),
             "day_offset": pa.array([], pa.int64()),
             "n_active": pa.array([], pa.int64())}
        )
    cd = col_i64(t, "cohort_day")
    do = col_i64(t, "day_offset")
    na = col_i64(t, "n_active")
    # pack (cohort, offset) so one np.unique both dedupes and yields the
    # (cohort, offset)-lexicographic output order; offsets are < stride
    stride = int(do.max()) + 1
    uniq, inv = np.unique(cd * stride + do, return_inverse=True)
    acc = np.zeros(uniq.size, np.int64)
    np.add.at(acc, inv, na)
    return pa.table(
        {
            "cohort_day": pa.array(uniq // stride),
            "day_offset": pa.array(uniq % stride),
            "n_active": pa.array(acc),
        }
    )


def top_key_per_window(
    ds,
    *,
    ts_col: str = "ts",
    key_col: str = "event_type",
    window_secs: int = 86_400,
):
    """→ pa.Table (window_start_s, key, n): grouped ARGMAX — the most
    frequent key per tumbling window, ties to the bytewise-smallest key
    (the 'top event type per day' report shape).

    Rides `tumbling_window_agg`'s map-side-combined groupby (with a
    synthesized zero value column — only counts matter here, and the
    input needs no value column at all); the argmax folds the
    (windows × keys)-bounded output on the driver — that output IS the
    windowed report, already orders of magnitude smaller than the event
    stream, so a second all-to-all would buy nothing (CLAUDE.md:
    minimize groupby count).
    """
    base = ds.select_columns([ts_col, key_col]).map_batches(
        lambda t: t.append_column("_one", pa.array(np.zeros(t.num_rows))),
        batch_format="pyarrow",
    )
    t = gather_table(tumbling_window_agg(
        base, ts_col=ts_col, key_col=key_col, value_col="_one",
        window_secs=window_secs,
    ))
    if t is None:
        return pa.table(
            {"window_start_s": pa.array([], pa.int64()),
             key_col: pa.array([], pa.string()),
             "n": pa.array([], pa.int64())}
        )
    w = col_i64(t, "window_start_s")
    n = col_i64(t, "n")
    keys = np.asarray(t[key_col].to_pylist(), dtype="U")
    # one lexsort replaces the per-row argmax loop: primary window asc,
    # then count desc, then key asc (numpy "U" compare = codepoint order
    # = Python str order) — the first row per window is its winner
    order = np.lexsort((keys, -n, w))
    w_s, k_s, n_s = w[order], keys[order], n[order]
    lead = np.ones(w_s.size, bool)
    lead[1:] = w_s[1:] != w_s[:-1]
    return pa.table(
        {
            "window_start_s": pa.array(w_s[lead]),
            key_col: pa.array(k_s[lead], pa.string()),
            "n": pa.array(n_s[lead]),
        }
    )


def value_stats(ds, *, key_col: str = "event_type", value_col: str = "value"):
    """→ pa.Table (key, n, sum_x100, p50_x100, min_x100, max_x100):
    EXACT numeric distribution report per key — median included —
    without a global sort. Values quantize to integer hundredths
    (floor(v·100), the same IEEE double floored on both engines), so
    the per-key histogram (key, v_x100, c) is additive. Fully
    distributed fold: per-batch combine → (key,v)-hash-partitioned
    dedup fold (load-spread even when one key dominates) → key-hash-
    partitioned percentile fold that finishes each key INSIDE the task
    (one vectorized lexsort + reduceat + searchsorted over the key's
    histogram). The driver gathers O(keys) finished rows — never the
    histogram itself, whose size is O(keys × distinct hundredths) and
    unbounded for wide-range float columns (latencies in µs, prices).
    p50 = the smallest value whose running count reaches ceil(n/2)
    (the `length_stats` rule).
    """
    from toshi_ray.codecs import _hash_strings, _mix
    from toshi_ray.ops.corpus import _codes, _run_starts
    from toshi_ray.ops.dedup import N_PAIR_PARTS

    _u = np.uint64

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"key": pa.array([], pa.string()),
                             "v": pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64()),
                             "part": pa.array([], pa.int64())})
        kc, kvoc = _codes(t[key_col])
        v = np.floor(
            t[value_col].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        order, starts = _run_starts(kc, v)
        c = np.diff(np.r_[starts, v.size]).astype(np.int64)
        rk, rv = kc[order][starts], v[order][starts]
        return pa.table(
            {
                "key": kvoc.take(pa.array(rk)).cast(pa.string()),
                "v": pa.array(rv),
                "c": pa.array(c),
                "part": pa.array(
                    ((rv.astype(_u) * _u(31) + _mix(rk.astype(_u)))
                     % _u(N_PAIR_PARTS)).astype(np.int64)
                ),
            }
        )

    def fold(t: pa.Table) -> pa.Table:
        """Dedup (key,v) histogram rows within one hash partition, then
        re-key each surviving row by hash(key) for the percentile stage."""
        if t.num_rows == 0:
            return pa.table({"key": pa.array([], pa.string()),
                             "v": pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64()),
                             "kpart": pa.array([], pa.int64())})
        kc, kvoc = _codes(t["key"])
        v = t["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        order, starts = _run_starts(kc, v)
        cs = np.add.reduceat(c[order], starts)
        keys = kvoc.take(pa.array(kc[order][starts])).cast(pa.string())
        kh = _hash_strings(keys)  # deterministic across workers/batches
        return pa.table(
            {
                "key": keys,
                "v": pa.array(v[order][starts]),
                "c": pa.array(cs.astype(np.int64)),
                "kpart": pa.array(
                    (kh.astype(_u) % _u(N_PAIR_PARTS)).astype(np.int64)
                ),
            }
        )

    def percentiles(t: pa.Table) -> pa.Table:
        """Finish every key that hashed to this partition: the key's whole
        histogram is local, so n/sum/min/max/p50 all come from one
        lexsort + reduceat + searchsorted — no Python loop over rows and
        nothing wider than O(this partition's histogram) in memory."""
        if t.num_rows == 0:
            return pa.table({key_col: pa.array([], pa.string()),
                             "n": pa.array([], pa.int64()),
                             "sum_x100": pa.array([], pa.int64()),
                             "p50_x100": pa.array([], pa.int64()),
                             "min_x100": pa.array([], pa.int64()),
                             "max_x100": pa.array([], pa.int64())})
        kc, kvoc = _codes(t["key"])
        v = t["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        order, starts = _run_starts(kc, v)
        kc, v, c = kc[order], v[order], c[order]
        key_starts = np.r_[0, np.flatnonzero(np.diff(kc[starts]) != 0) + 1]
        # run-starts are per (key,v); collapse to per-key boundaries
        kb = starts[key_starts]  # row index where each key begins
        ke = np.r_[kb[1:], v.size]
        n_per = np.add.reduceat(c, kb)
        sum_per = np.add.reduceat(v * c, kb)
        cum = np.cumsum(c)
        base = np.r_[np.int64(0), cum[ke[:-1] - 1]]
        target = base + (n_per + 1) // 2  # ceil(n/2) within each key's run
        p50 = v[np.searchsorted(cum, target, side="left")]
        return pa.table(
            {
                key_col: kvoc.take(pa.array(kc[kb])).cast(pa.string()),
                "n": pa.array(n_per.astype(np.int64)),
                "sum_x100": pa.array(sum_per.astype(np.int64)),
                "p50_x100": pa.array(p50.astype(np.int64)),
                "min_x100": pa.array(v[kb].astype(np.int64)),
                "max_x100": pa.array(v[ke - 1].astype(np.int64)),
            }
        )

    rows = (
        ds.select_columns([key_col, value_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(lambda t: fold(t.drop_columns(["part"])),
                    batch_format="pyarrow")
        .groupby("kpart")
        .map_groups(lambda t: percentiles(t.drop_columns(["kpart"])),
                    batch_format="pyarrow")
        .take_all()  # O(keys) finished rows — the report itself
    )
    rows.sort(key=lambda r: r[key_col])
    return pa.table(
        {
            key_col: pa.array([r[key_col] for r in rows], pa.string()),
            "n": pa.array([r["n"] for r in rows], pa.int64()),
            "sum_x100": pa.array([r["sum_x100"] for r in rows], pa.int64()),
            "p50_x100": pa.array([r["p50_x100"] for r in rows], pa.int64()),
            "min_x100": pa.array([r["min_x100"] for r in rows], pa.int64()),
            "max_x100": pa.array([r["max_x100"] for r in rows], pa.int64()),
        }
    )
