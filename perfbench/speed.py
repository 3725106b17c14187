"""CPU time, and the machine's speed gauged by a fixed reference computation.

The benchmark shares its host with other tenants. In wall time the same
op took up to 3x longer from one run to the next: time slices lost to
other processes, a busy hyperthread sibling, shared caches, and in Ray
a stage that waits for a worker. Two things take that out:

- Every time the benchmark reports is CPU time: of the benchmark's
  process for in-process work (``time.process_time``), of the process
  and all its descendants, Ray's workers included, for the batch
  pipelines (``tree_cpu_s``). Time spent waiting for a CPU is not in
  it. With one client and one CPU per op, CPU time is what the op's
  latency is on a CPU of its own.
- What is left is the CPU's own speed, which still drifts by about a
  fifth. ``probe()`` is a small computation that never changes:
  interpreted Python, a JSON round trip, a random gather from memory
  and an Arrow hash count, the kinds of work the library does, in
  shares that tracked the query ops' CPU time best. Probes run
  beside every op and set-up, and each time is scaled by
  ``REFERENCE_S`` over the median of the probes around it: the result
  is the op's CPU time on a CPU where the probe takes ``REFERENCE_S``. A change to the program moves the ops and not the
  probes, so it shows in full.

What CPU time does not show: time an op spends waiting (sleeps, locks,
I/O not served from the page cache, a Ray task queued behind others).
The raw wall times are in the traced run's per-layer metrics.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# Sets the scale of every scaled time: about the probe's CPU time
# between ops (its caches cold from the op) on a 2.1 GHz Xeon VM. It
# must never change, or old and new results stop being comparable.
REFERENCE_S = 0.0030

# Probes that the median around an op or a set-up is taken over
AROUND = 8

_CLOCK_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")

_r = np.random.default_rng(20261017)
_floats = _r.random(1 << 22)  # 32 MB, so the gather misses the caches
_gather = _r.integers(0, 1 << 22, 50_000)
_words = pa.array([f"w{x}" for x in _r.integers(0, 2000, 8_000)])
_rows = [{"k": i, "v": [i, i + 1]} for i in range(300)]
_table: dict[int, int] = {}


def probe() -> float:
    """One run of the reference computation; → its CPU seconds."""
    t0 = time.thread_time()
    s = 0
    for i in range(2500):
        _table[i & 255] = s
        s += _table.get((i * 7) & 255, 1) & 15
    json.loads(json.dumps(_rows))
    _floats[_gather].sum()
    pc.value_counts(_words)
    return time.thread_time() - t0


def probes(n: int) -> list[float]:
    return [probe() for _ in range(n)]


def around(groups: list[list[float]], i: int, want: int = AROUND) -> float:
    """Median probe time around op ``i``. ``groups[i]`` holds the probes
    run just before op ``i`` and ``groups[i + 1]`` those just after it;
    the window widens by one group on each side until it holds
    ``want`` probes or all of them."""
    lo, hi = i, min(i + 2, len(groups))
    while sum(len(g) for g in groups[lo:hi]) < want and (lo > 0 or hi < len(groups)):
        lo, hi = max(0, lo - 1), min(len(groups), hi + 1)
    return statistics.median(p for g in groups[lo:hi] for p in g)


def scale(seconds: float, probe_s: float) -> float:
    """CPU ``seconds`` measured while the probe took ``probe_s``, at the
    reference speed."""
    return seconds * REFERENCE_S / probe_s


def tree_cpu_s() -> float:
    """CPU seconds of this process and all its descendants so far, with
    the children they have reaped, from /proc (clock-tick resolution)."""
    me = os.getpid()
    children: dict[int, list[int]] = {}
    ticks: dict[int, int] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:  # exited meanwhile
            continue
        # the fields after "(comm)": state ppid ... utime stime cutime cstime
        rest = stat[stat.rindex(")") + 2 :].split()
        children.setdefault(int(rest[1]), []).append(int(d))
        ticks[int(d)] = sum(map(int, rest[11:15]))
    total, todo = 0, [me]
    while todo:
        pid = todo.pop()
        total += ticks.get(pid, 0)
        todo += children.get(pid, [])
    return total * _CLOCK_TICK_S


def timed(fn, clock=time.process_time):
    """Run ``fn()`` between two groups of probes; → (its result, scaled
    CPU seconds, unscaled CPU seconds), CPU time read from ``clock``."""
    before = probes(AROUND)
    c0 = clock()
    result = fn()
    took = clock() - c0
    return result, scale(took, statistics.median(before + probes(AROUND))), took
