"""The benchmark's own tests: a corrupted output must count as a failure.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

SCAN_MOD = workloads.importlib.import_module("p6fold.scan")
INVARIANTS_MOD = workloads.importlib.import_module("p6fold.invariants")
CLI_MOD = workloads.importlib.import_module("p6fold.cli")


@pytest.fixture(scope="module")
def goldens():
    return workloads.load_goldens()


def test_clean_outputs_pass(goldens):
    tally = workloads.Tally()
    workloads.Probe(goldens).run(tally)
    assert tally.attempted > 0 and tally.failed == 0, tally.problems


def test_corrupted_scan_output_fails(goldens, monkeypatch):
    monkeypatch.setattr(SCAN_MOD, "CSV_HEADER", "d,delta,chi,u,w")
    tally = workloads.Tally()
    workloads.ScanJob(goldens["probe"]["scan"], "csv").run(tally)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_corrupted_profile_fails(monkeypatch):
    profile = INVARIANTS_MOD.profile
    monkeypatch.setattr(INVARIANTS_MOD, "profile", lambda t: dataclasses.replace(
        profile(t), pg=profile(t).pg + 1))
    tally = workloads.Tally()
    workloads.LibraryCalls(1, workloads.PROBE_MIX).run(tally)
    assert tally.failed == workloads.PROBE_MIX["profile"]


def test_corrupted_cli_output_fails(goldens, monkeypatch):
    monkeypatch.setattr(CLI_MOD, "_emit_json",
                        lambda obj: print(json.dumps(obj)))
    tally = workloads.Tally()
    workloads.CliCommands(goldens["probe"]["cli"]).inprocess_pass(tally)
    assert tally.failed == 2  # ``profile --json`` and ``bound`` print JSON


def test_traced_counts_repeat_and_self_times_add_up(goldens):
    runs = []
    for _ in range(2):
        tracer = spans.Tracer()
        with spans.installed(tracer), tracer.span("bench.job"):
            workloads.Probe(goldens).run(workloads.Tally(), tracer)
        summary = tracer.summarize("bench.job")
        self_ns = sum(summary["root_layer_self_ns"].values())
        assert self_ns == summary["root_ns"]
        runs.append({k: v for k, v in spans.layer_metrics(summary).items()
                     if k.endswith(".calls")})
    assert runs[0] == runs[1]
    assert runs[0]["ring.reduce_to_params.calls"] > 0


def test_benchmark_reports_failures_of_a_broken_program(tmp_path):
    """The whole command, on a copy whose profile() is off by one."""
    root = BENCH.parent
    shutil.copytree(root / "src", tmp_path / "src")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    invariants = tmp_path / "src" / "p6fold" / "invariants.py"
    text = invariants.read_text()
    assert "    pg = chi - 1\n" in text
    invariants.write_text(text.replace("    pg = chi - 1\n", "    pg = chi\n"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "library-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-sparse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
