"""One workload process of the benchmark; started by ``run.py``.

It sets up (imports p6fold, draws the inputs from the seed, makes one
warm-up call), prints ``ready``, and then either exits (``--setup-only``),
runs the timed job back to back for ``--seconds`` (``--trace 0``), or makes
the layer run (``--trace 1``).  Its last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import p6fold  # noqa: E402  (the import is part of the measured set-up)

import spans  # noqa: E402
import workloads  # noqa: E402

#: Timed jobs run at least this often, so the reported wall time is a
#: median even when one job outlasts ``--seconds``.
MIN_JOBS = 3

#: Repeats of each interpreter start-up measurement in the layer run.
STARTUP_RUNS = 3

#: Modules whose cumulative import time is reported, as ``import.<name>_ms``.
IMPORT_MODULES = ("p6fold", "p6fold.scan", "p6fold.identities", "p6fold.bounds")

#: CLI subcommands whose per-invocation latency is reported.
SUBCOMMANDS = ("verify", "check", "profile", "bound", "scan")

#: Where the layer run writes its spans, under the checkout.
TRACE_DIR = BENCH.parent / ".bench_out"


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def tail_percentile(samples: list) -> tuple:
    """The highest percentile, at most 90, with at least ten samples
    beyond it: ``(percentile, value)``, or ``None`` if there is none."""
    n = len(samples)
    pct = min(90, (100 * (n - 10)) // n) if n > 10 else 0
    if pct < 50:
        return None
    return pct, sorted(samples)[min((pct * n) // 100, n - 11)]


def end_to_end(walls, latencies_ms, peak_rss: float) -> dict:
    return {"wall_s": statistics.median(walls),
            "latency_ms.p50": statistics.median(latencies_ms),
            "peak_rss_mb": peak_rss}


def timed_run(workload, tally, seconds: float) -> dict:
    """Jobs back to back; a job that would end past ``seconds`` by the
    median so far is not started, unless fewer than MIN_JOBS have run."""
    deadline = time.perf_counter() + seconds
    walls = [workload.job(tally)]
    # Later jobs repeat the same work; only the benchmark's own latency
    # arrays would still grow.
    peak_rss = peak_rss_mib(not workload.in_process)
    while (len(walls) < MIN_JOBS or
           time.perf_counter() + statistics.median(walls) <= deadline):
        walls.append(workload.job(tally))
    return {
        "metrics": end_to_end(walls, tally.latencies_ms, peak_rss),
        "jobs": len(walls),
        "latency_samples": len(tally.latencies_ms),
        "latency_tail": tail_percentile(tally.latencies_ms),
    }


def _parse_importtime(stderr: str) -> dict:
    cumulative, own = {}, 0
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)", line)
        if m:
            name = m.group(3)
            cumulative[name] = int(m.group(2))
            if name == "p6fold" or name.startswith("p6fold."):
                own += int(m.group(1))
    return {**{f"import.{name}_ms": cumulative[name] / 1e3
               for name in IMPORT_MODULES},
            "import.self_ms": own / 1e3}


def startup_metrics() -> dict:
    """``import p6fold`` by CPython's ``-X importtime``, and the cost of an
    interpreter that imports nothing, each the median of a few processes."""
    env = workloads.cli_env()
    runs = []
    for _ in range(STARTUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import p6fold"],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        runs.append(_parse_importtime(proc.stderr))
    out = {name: statistics.median(r[name] for r in runs) for name in runs[0]}
    interp = []
    for _ in range(STARTUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env,
                       timeout=60, check=True)
        interp.append((time.perf_counter() - t0) * 1e3)
    out["cli.interp_ms"] = statistics.median(interp)
    return out


def layer_run(name: str, seed: int, workload, tally, goldens) -> dict:
    """Untraced job, pool run, traced job plus probe, and start-up costs."""
    wall = workload.job(tally)
    info = {"end_to_end": end_to_end(
        [wall], tally.latencies_ms, peak_rss_mib(not workload.in_process))}
    info["op_shares"] = {label: sum(ms) / 1e3 / wall
                         for label, ms in sorted(tally.by_label.items())}
    base = wall if workload.in_process else workload.layer_job(tally)

    workers = workloads.pool_workers()
    single = workload.pool_target.run(tally)
    pooled = workload.pool_target.run(tally, workers=workers)

    probe = workloads.Probe(goldens)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        with tracer.span("bench.job"):
            workload.layer_job(tally, tracer)
        with tracer.span("bench.probe"):
            probe.run(tally, tracer)
    summary = tracer.summarize("bench.job")

    probe.cli.subprocess_pass(tally)
    main_wall = probe.cli.inprocess_pass(tally)

    metrics = spans.layer_metrics(summary)
    is_feasible_calls = metrics["constraints.is_feasible.calls"]
    metrics.update({
        "scan.points": tracer.scan_points,
        "scan.rows": tracer.scan_rows,
        "scan.useful_ratio": (tracer.scan_rows / is_feasible_calls
                              if is_feasible_calls else 0.0),
        "scan.max_write_bytes": tracer.max_write_bytes,
        "scan.parallel_efficiency": single / (workers * pooled),
        "cli.main_ms": main_wall * 1e3,
        "trace.overhead_ratio": summary["root_ns"] / 1e9 / base,
    })
    for sub in SUBCOMMANDS:
        metrics[f"cli.{sub}_ms.p50"] = statistics.median(
            tally.by_label[f"cli.{sub}"])
    metrics.update(startup_metrics())

    job_ns = summary["root_ns"]
    info["shares"] = {layer: own / job_ns for layer, own in
                      sorted(summary["root_layer_self_ns"].items())}
    info["pool_workers"] = workers
    tracer.dump(TRACE_DIR / f"trace-{name}-seed{seed}.tsv.gz")
    return {"metrics": metrics, "info": info}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if Path(p6fold.__file__).resolve().parent != SRC / "p6fold":
        print(f"error: imported p6fold from {p6fold.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    goldens = workloads.load_goldens()
    workload = workloads.WORKLOADS[args.workload](args.seed, goldens)
    tally = workloads.Tally()
    workload.warm_up(tally)
    tally.latencies_ms = array("d")  # the warm-up is checked, not timed
    tally.by_label.clear()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        result = layer_run(args.workload, args.seed, workload, tally, goldens)
    else:
        result = timed_run(workload, tally, args.seconds)
    result.update(attempted=tally.attempted, failed=tally.failed,
                  problems=tally.problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
