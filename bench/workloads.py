"""The benchmark's workloads: inputs drawn from a seed, one fixed job, checks.

Every workload drives p6fold from outside, through its public functions or
its command line, as one closed-loop caller.  Each call is an operation;
an operation fails if it raises, exits with an unexpected code, or fails
its correctness check.  Failed operations are counted, never dropped.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDENS = BENCH / "goldens.json"

#: Calls in one library-mix job.  The counts are chosen so that
#: constraints, invariants, bounds and identities+ring each take at least
#: a sixth of the job (see LAYERS.md for the measured shares).
MIX = {"evaluate": 4500, "profile": 900, "bound_pairs": 400,
       "verify_rounds": 8}

#: The library part of the layer probe: a few calls into every layer.
PROBE_MIX = {"evaluate": 30, "profile": 10, "bound_pairs": 2,
             "verify_rounds": 1}

#: Seed of the probe's library calls; the probe's inputs never vary.
PROBE_SEED = 0

#: Failure descriptions kept per run, so a broken run says what broke
#: without flooding its output.
MAX_PROBLEMS = 5


def pool_workers() -> int:
    """Worker count for the pool runs: two, never above the usable CPUs."""
    return min(2, len(os.sched_getaffinity(0)))


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text())


def pick(seed: int, pool: list):
    """The pool entry a seed selects; the same seed selects the same one."""
    return pool[random.Random(seed).randrange(len(pool))]


def cli_env() -> dict:
    """Environment for CLI children: this checkout's sources, UTF-8 output,
    and no inherited worker default."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
    env.pop("P6FOLD_WORKERS", None)
    return env


class Tally:
    """Operations attempted and failed, with every operation's latency.
    Latencies are kept in flat arrays, so that the benchmark's own memory
    hardly grows with the number of operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies_ms = array("d")
        self.by_label: dict[str, array] = {}
        self.problems: list[str] = []

    def record(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(problem)

    def latency(self, label: str, seconds: float) -> None:
        ms = seconds * 1e3
        self.latencies_ms.append(ms)
        self.by_label.setdefault(label, array("d")).append(ms)


class DigestSink:
    """A scan sink that keeps only the SHA-256 and size of what it gets."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.bytes = 0

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.sha.update(data)
        self.bytes += len(data)
        return len(text)


def _modules():
    # Looked up at call time, so the tracer's patches are seen.
    return {name: importlib.import_module(f"p6fold.{name}")
            for name in ("scan", "constraints", "invariants", "bounds",
                         "identities", "cli")}


class ScanJob:
    """One ``scan()`` call on a box with known output digest and row count."""

    def __init__(self, golden: dict, fmt: str):
        self.mods = _modules()
        self.box = self.mods["scan"].ScanBox.parse(golden["box"])
        self.cfg = self.mods["constraints"].HypothesisConfig()
        self.fmt = fmt
        self.rows = golden["rows"]
        self.sha256 = golden["sha256"]

    def run(self, tally: Tally, tracer=None, workers: int = 1) -> float:
        sink = DigestSink()
        out = tracer.timing_sink(sink) if tracer else sink
        t0 = time.perf_counter()
        try:
            result = self.mods["scan"].scan(self.box, self.cfg, out,
                                            workers=workers, fmt=self.fmt)
        except Exception as exc:  # counted as a failed operation
            wall = time.perf_counter() - t0
            tally.latency("scan", wall)
            tally.record(False, f"scan raised {exc!r}")
            return wall
        wall = time.perf_counter() - t0
        tally.latency("scan", wall)
        ok = (result.scanned == self.box.volume()
              and result.feasible == self.rows
              and sink.sha.hexdigest() == self.sha256)
        tally.record(ok, f"scan output differs: {result}, "
                         f"sha256 {sink.sha.hexdigest()}")
        return wall


class CliCommands:
    """A fixed list of CLI invocations with known exit codes and digests."""

    def __init__(self, commands: list):
        workers = pool_workers()
        self.commands = []
        for cmd in commands:
            argv = list(cmd["argv"])
            if "--workers" in argv:
                i = argv.index("--workers") + 1
                argv[i] = str(min(int(argv[i]), workers))
            self.commands.append((argv, cmd["exit"], cmd["sha256"]))
        self.env = cli_env()

    def _check(self, tally, argv, code, stdout: bytes, exit_, sha):
        digest = hashlib.sha256(stdout).hexdigest()
        tally.record(code == exit_ and digest == sha,
                     f"{' '.join(argv)}: exit {code}, sha256 {digest}")

    def subprocess_pass(self, tally: Tally) -> float:
        """Each command as its own ``python -m p6fold.cli`` process."""
        t_pass = time.perf_counter()
        for argv, exit_, sha in self.commands:
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "p6fold.cli", *argv],
                    env=self.env, cwd=ROOT, capture_output=True, timeout=60)
            except subprocess.TimeoutExpired:
                tally.latency("cli." + argv[0], time.perf_counter() - t0)
                tally.record(False, f"{' '.join(argv)}: timed out")
                continue
            tally.latency("cli." + argv[0], time.perf_counter() - t0)
            self._check(tally, argv, proc.returncode, proc.stdout, exit_, sha)
        return time.perf_counter() - t_pass

    def inprocess_pass(self, tally: Tally) -> float:
        """Each command through ``p6fold.cli.main(argv)`` in this process."""
        cli = importlib.import_module("p6fold.cli")
        t_pass = time.perf_counter()
        for argv, exit_, sha in self.commands:
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except Exception as exc:  # counted as a failed operation
                tally.record(False, f"{' '.join(argv)}: raised {exc!r}")
                continue
            finally:
                tally.latency("main." + argv[0], time.perf_counter() - t0)
            self._check(tally, argv, code, out.getvalue().encode("utf-8"),
                        exit_, sha)
        return time.perf_counter() - t_pass


def _random_tuple(rng: random.Random, invariants):
    d = rng.randint(1, 40)
    return invariants.InvariantTuple(
        d, 2 * rng.randint(-1, 2 * d), rng.randint(1, 10),
        rng.randint(1, 40), rng.randint(-50, 1000))


class LibraryCalls:
    """A shuffled stream of library calls: evaluate and profile on seeded
    tuples under three configurations, degree bounds in both modes, and
    every registry identity."""

    def __init__(self, seed: int, counts: dict):
        self.mods = _modules()
        constraints, invariants = self.mods["constraints"], self.mods["invariants"]
        rng = random.Random(seed)
        configs = (constraints.HypothesisConfig(),
                   constraints.HypothesisConfig(geometric_mode=False),
                   constraints.HypothesisConfig(ks2_cap=9))
        tuples = [_random_tuple(rng, invariants)
                  for _ in range(counts["evaluate"])]
        ops = [("evaluate", (t, configs[i % 3])) for i, t in enumerate(tuples)]
        ops += [("profile", (t,)) for t in tuples[:counts["profile"]]]
        pairs = [(34, 9)] + [(rng.randint(34, 89), rng.randint(0, 11))
                             for _ in range(counts["bound_pairs"] - 1)]
        ops += [("bound", (s, kappa, mode)) for s, kappa in pairs
                for mode in ("paper", "sharp")]
        ids = self.mods["identities"].identity_ids()
        ops += [("verify", (i,)) for _ in range(counts["verify_rounds"])
                for i in ids]
        rng.shuffle(ops)
        self.ops = ops

    def _calls(self):
        m = self.mods
        return {
            "evaluate": lambda t, cfg:
                m["constraints"].evaluate(t, cfg).to_json_dict(),
            "profile": lambda t: m["invariants"].profile(t).to_json_dict(),
            "bound": lambda s, kappa, mode:
                m["bounds"].degree_bound(s, kappa, mode=mode),
            "verify": lambda i: m["identities"].verify_identity(i),
        }

    def run(self, tally: Tally) -> float:
        calls = self._calls()
        results = []
        clock = time.perf_counter
        t_job = clock()
        for kind, args in self.ops:
            t0 = clock()
            try:
                result = calls[kind](*args)
            except Exception as exc:  # counted as a failed operation
                result = exc
            tally.latency(kind, clock() - t0)
            results.append(result)
        wall = clock() - t_job
        check_library_results(self.ops, results, tally)
        return wall


def _constraint_ok(entry) -> bool:
    value = int(entry["value"])
    return entry["ok"] == (value == 0 if entry["id"] == "B2" else value >= 0)


def check_library_results(ops, results, tally: Tally) -> None:
    """Check each call's result, and the results of different routes
    against each other: evaluate's S1-S6 against the profile's Schur
    numbers, and the sharp crossing against the paper crossing."""
    schur = {}
    bounds = {}
    for (kind, args), result in zip(ops, results):
        if kind == "profile" and isinstance(result, dict):
            schur[args[0]] = [str(result[k]) for k in
                              ("s1h2", "s20h", "s11h", "s300", "s210", "s111")]
        if kind == "bound" and not isinstance(result, Exception):
            bounds[args] = result
    for (kind, args), result in zip(ops, results):
        if isinstance(result, Exception):
            tally.record(False, f"{kind}{args} raised {result!r}")
            continue
        if kind == "evaluate":
            entries = result["constraints"]
            ok = (all(_constraint_ok(e) for e in entries)
                  and result["feasible"] == all(e["ok"] for e in entries))
            if args[0] in schur:
                s_values = [e["value"] for e in entries if e["id"][0] == "S"]
                ok = ok and s_values == schur[args[0]]
        elif kind == "profile":
            d, delta, chi, _, _ = args[0]  # delta is even, so g is whole
            ok = (result["n3"] == d * d and result["h3"] == d
                  and result["KS2"] + result["c2S"] == 12 * chi
                  and result["pg"] == chi - 1
                  and result["g"] == (delta + 2) // 2)
        elif kind == "bound":
            s, kappa, mode = args
            s_eff = s - s % 2
            crossing = result.first_contradictory_degree
            ok = (result.s_cubed == s_eff ** 3 and result.final_bound == max(
                s_eff ** 3, math.ceil(result.lifting_threshold), crossing - 1))
            paper = bounds.get((s, kappa, "paper"))
            if mode == "sharp" and paper is not None:
                ok = ok and crossing <= paper.first_contradictory_degree
            if (s, kappa, mode) == (34, 9, "paper"):
                ok = ok and (result.final_bound, crossing) == (39304, 16922)
        else:
            ok = result.passed and result.id == args[0]
        tally.record(ok, f"{kind}{args} gave a wrong result")


class ScanWorkload:
    """One ``scan()`` call, ``workers=1``, on a box the seed picks."""

    in_process = True

    def __init__(self, name: str, fmt: str, seed: int, goldens: dict):
        self.scan = ScanJob(pick(seed, goldens[name]), fmt)
        self.warm = ScanJob(goldens["probe"]["scan"], "csv")
        self.pool_target = self.scan

    def warm_up(self, tally: Tally) -> None:
        self.warm.run(tally)

    def job(self, tally: Tally) -> float:
        return self.scan.run(tally)

    def layer_job(self, tally: Tally, tracer=None) -> float:
        return self.scan.run(tally, tracer)


class LibraryMix:
    """The library-call stream of :class:`LibraryCalls` at full size."""

    in_process = True

    def __init__(self, seed: int, goldens: dict):
        self.calls = LibraryCalls(seed, MIX)
        self.warm = LibraryCalls(seed, PROBE_MIX)
        self.pool_target = ScanJob(goldens["probe"]["scan"], "csv")

    def warm_up(self, tally: Tally) -> None:
        self.warm.run(tally)

    def job(self, tally: Tally) -> float:
        return self.calls.run(tally)

    def layer_job(self, tally: Tally, tracer=None) -> float:
        return self.calls.run(tally)


class CliOneshot:
    """Sequential CLI processes: verify, check, profile, bound and scan.
    Its layer job runs the same commands through ``main(argv)``."""

    in_process = False

    def __init__(self, seed: int, goldens: dict):
        self.commands = CliCommands(pick(seed, goldens["cli-oneshot"]))
        self.warm = CliCommands(goldens["probe"]["cli"][:1])
        self.pool_target = ScanJob(goldens["probe"]["scan"], "csv")

    def warm_up(self, tally: Tally) -> None:
        self.warm.subprocess_pass(tally)

    def job(self, tally: Tally) -> float:
        return self.commands.subprocess_pass(tally)

    def layer_job(self, tally: Tally, tracer=None) -> float:
        return self.commands.inprocess_pass(tally)


WORKLOADS = {
    "scan-sparse": lambda seed, g: ScanWorkload("scan-sparse", "csv", seed, g),
    "scan-dense": lambda seed, g: ScanWorkload("scan-dense", "jsonl", seed, g),
    "library-mix": LibraryMix,
    "cli-oneshot": CliOneshot,
}


class Probe:
    """Fixed calls into every layer, run after a workload's traced job so
    that each layer reports a measured time on every workload."""

    def __init__(self, goldens: dict):
        self.scan = ScanJob(goldens["probe"]["scan"], "csv")
        self.library = LibraryCalls(PROBE_SEED, PROBE_MIX)
        self.cli = CliCommands(goldens["probe"]["cli"])

    def run(self, tally: Tally, tracer=None) -> None:
        self.scan.run(tally, tracer)
        self.library.run(tally)
        self.cli.inprocess_pass(tally)
