"""One workload run inside the watchdog's process group (started by
``perfbench/run.py``). Prints a metric table, then the result JSON as
the last line of standard output."""

from __future__ import annotations

import importlib
import json
import math
import os
import shutil
import sys

from perfbench.run import parse_args, workdir_of

MODULES = {
    "query_merged": "perfbench.query",
    "ingest_visible": "perfbench.ingest",
    "batch_pipelines": "perfbench.batch",
}


def main() -> int:
    args = parse_args()
    try:
        import toshi_ray  # noqa: F401
    except ImportError as e:
        print(f"toshi_ray is not importable from {os.getcwd()}: {e}", file=sys.stderr)
        return 2
    from perfbench.trace import Tracer

    workdir = workdir_of(os.getcwd(), args.workload, args.seed, os.getpid())
    scratch = os.path.dirname(workdir)
    os.makedirs(workdir)
    os.environ["TMPDIR"] = workdir  # keep library temp files in the checkout
    tracer = Tracer() if args.trace else None
    try:
        mod = importlib.import_module(MODULES[args.workload])
        out = mod.run(args.workload, args.seed, args.seconds, tracer, workdir)
    finally:
        if tracer is not None:
            os.makedirs(os.path.join(scratch, "traces"), exist_ok=True)
            tracer.dump(os.path.join(scratch, "traces", f"{args.workload}-seed{args.seed}.jsonl"))
        shutil.rmtree(workdir, ignore_errors=True)

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {}
    for name, unit in wanted.items():
        m = out.metrics.get(name)
        value = m.value if m is not None else 0.0  # layer not exercised
        metrics[name] = {"value": value if math.isfinite(value) else None, "unit": unit}
        note = f"  ({m.note})" if m is not None and m.note else ""
        print(f"{name:40s} {value:14.4f} {unit}{note}")
    ratio = out.failed / out.attempted if out.attempted else 1.0
    print(f"{'failed_ratio':40s} {ratio:14.4f} ratio  ({out.failed} of {out.attempted})")
    for p in out.problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": out.correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if out.correct and out.attempted > 0 else 1


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # skip interpreter teardown: native thread pools of the libraries can
    # abort the process there ("terminate called without an active
    # exception") after the result is already printed
    os._exit(code)
