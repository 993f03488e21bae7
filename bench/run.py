"""Benchmark of p6fold: one workload and one seed per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; p6fold is imported from its ``src/``.
With ``--trace 0`` the workload's job runs back to back for S seconds with
tracing off, and the result line carries the end-to-end metrics.  With
``--trace 1`` the run is the layer run (see ``worker.py``), and the result
line carries the per-layer metrics; the lines above it print every metric
by name with its unit.  Names, units and workloads are those of
``BENCHMARK.json``.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Set-up time is measured from process start to ready, over several fresh
processes, and reported as their median.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Fresh processes whose set-up time is measured: half of them before the
#: process that runs the job and half after it, so that the median spans
#: the run rather than its first seconds.
SETUP_RUNS = 9

#: Seconds a whole run may take before its processes are killed.
BUDGET_S = 170


class BenchError(Exception):
    pass


def run_worker(args, setup_only: bool, deadline: float):
    """Start one worker process; return its set-up time and its output."""
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    # A session of its own, so that a kill reaches the CLI and pool
    # processes the worker starts.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timer = threading.Timer(max(1.0, deadline - t0),
                            os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise BenchError(f"worker {' '.join(cmd[2:])} failed with exit {code}")
    return setup_s, rest


def report(name: str, value, unit: str) -> None:
    print(f"{name} = {value:.6g} {unit}" if isinstance(value, float)
          else f"{name} = {value} {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "p6fold" / "__init__.py").is_file():
        print(f"error: no p6fold sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + BUDGET_S
    try:
        setups = [run_worker(args, True, deadline)[0]
                  for _ in range(SETUP_RUNS // 2)]
        setup_s, out = run_worker(args, False, deadline)
        setups += [setup_s] + [run_worker(args, True, deadline)[0]
                               for _ in range(SETUP_RUNS // 2)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])
    metrics = result["metrics"]
    info = result.get("info", {})
    setup = statistics.median(setups)

    print(f"workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    if args.trace:
        for e2e in spec["end_to_end"]:
            name = e2e["name"]
            if name == "setup_s":
                report(name, setup, e2e["unit"])
            else:
                report(name + " (one job)", info["end_to_end"][name], e2e["unit"])
        print("work shares of the traced job, by layer self time:")
        for layer, share in info["shares"].items():
            print(f"  {layer:12s} {share:.3f}")
        print("shares of the untraced job, by operation:")
        for label, share in info["op_shares"].items():
            print(f"  {label:12s} {share:.3f}")
        print(f"pool runs used {info['pool_workers']} workers")
    else:
        metrics["setup_s"] = setup
        print(f"{result['jobs']} jobs, {result['latency_samples']} "
              f"latency samples, {SETUP_RUNS} set-ups")
        if result["latency_tail"]:
            pct, value = result["latency_tail"]
            report(f"latency_ms.p{pct}", value, "ms")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    for m in declared:
        report(m["name"], metrics[m["name"]], m["unit"])
    attempted, failed = result["attempted"], result["failed"]
    print(f"fail_ratio = {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    for problem in result["problems"]:
        print(f"failed: {problem}", file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
