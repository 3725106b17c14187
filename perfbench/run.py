"""Run one workload of the toshi_ray benchmark, or all of them.

    python3 perfbench/run.py --workload query_merged --seed 1 --seconds 10 --trace 0

Run from the repository root. Each workload runs in a child process in
its own process group under a watchdog: a run that overruns its
deadline has the whole group (Ray's processes included) killed and
exits non-zero without a result. The last line of standard output is
the result as one JSON object. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` the per-layer metrics and the tracing overhead.
``--workload all`` runs every workload in turn on one seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ["query_merged", "ingest_visible", "batch_pipelines"]
DEADLINE_S = 170.0  # every invocation must end within 180 s


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def workdir_of(root: str, workload: str, seed: int, pid: int) -> str:
    """The scratch directory of one child run, inside the checkout."""
    return os.path.join(root, ".bench_tmp", f"{workload}-{seed}-{pid}")


def _kill_group(pgid: int) -> None:
    """SIGKILL the group, then wait until none of its processes is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(root: str, workload: str, args: argparse.Namespace, deadline_s: float) -> tuple[int, str]:
    """→ (exit code, last stdout line). The child's other output passes
    through to this process's stdout and stderr."""
    env = dict(os.environ)
    # Ray workers import toshi_ray (and perfbench) from the checkout,
    # whatever directory the run was launched from
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    cmd = [
        sys.executable, "-m", "perfbench.child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=deadline_s)
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        shutil.rmtree(workdir_of(root, workload, args.seed, proc.pid), ignore_errors=True)
        print(f"watchdog: {workload} ran past {deadline_s:.0f} s; process group killed",
              file=sys.stderr)
        return 124, ""
    finally:
        _kill_group(proc.pid)  # anything the child left behind
    lines = out.rstrip("\n").split("\n") if out else []
    if lines:
        print("\n".join(lines[:-1]))
    return proc.returncode, lines[-1] if lines else ""


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    start = time.monotonic()
    if args.workload != "all":
        code, last = run_child(root, args.workload, args, DEADLINE_S)
        if code == 0:
            print(last)
        elif last:
            print(last, file=sys.stderr)
        return code
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        code, last = run_child(root, w, args, DEADLINE_S)
        if code != 0 or not last:
            print(f"{w} failed with exit code {code}", file=sys.stderr)
            return code or 1
        res = json.loads(last)
        print(f"# {w}: {last}")
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    print(f"# all workloads took {time.monotonic() - start:.1f} s", file=sys.stderr)
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
