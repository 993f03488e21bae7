"""Regenerate ``goldens.json``: the inputs each seed can pick, with the
expected outputs, each confirmed against the independent oracles.

    python3 bench/make_goldens.py

Scan digests come from p6fold's own output; they are kept only if the rows
equal ``tests/oracles.naive_feasible_rows`` on the same box.  CLI digests
come from running the CLI; exit codes, profiles, bounds and scan rows are
confirmed against the oracles and the paper's values.  The candidate boxes
are drawn with a fixed seed and kept only if their feasible ratio is that
of the workload, so that every seed measures the same kind of work.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction

from workloads import GOLDENS, ROOT, SRC, cli_env

sys.path.insert(0, str(SRC))
sys.path.insert(0, str(ROOT))

from p6fold.constraints import HypothesisConfig  # noqa: E402
from p6fold.scan import CSV_HEADER, ScanBox, scan  # noqa: E402
from tests.oracles import (  # noqa: E402
    FIXTURES,
    naive_feasible_rows,
    split_bundle_profile,
)

POOL_SIZE = 8
GEOMETRIC = HypothesisConfig()

#: Box shapes (lo, hi) per axis; a seed shifts u and v within the ranges.
SPARSE = {"d": (1, 10), "delta": (-2, 28), "chi": (1, 3), "u": (1, 12),
          "v": (-10, 30)}
SPARSE_SHIFT = {"u": (0, 3), "v": (-8, 8)}
SPARSE_ROWS = (30, 80)  # feasible ratio about 1e-4 of 457,560 points

DENSE = {"d": (20, 20), "delta": (40, 60), "chi": (1, 3), "u": (10, 30),
         "v": (650, 670)}
DENSE_SHIFT = {"u": (-3, 3), "v": (-10, 10)}
DENSE_RATIO = (0.45, 0.55)

CLI_BOX = {"d": (1, 3), "delta": (-2, 7), "chi": (1, 2), "u": (1, 5),
           "v": (-1, 6)}
CLI_SHIFT = {"u": (0, 2), "v": (-1, 2)}

PROBE_BOX = "d=3..4,delta=0..9,chi=1..2,u=1..5,v=-5..4"
PROBE_CHECK = "2,-2,1,2,2"
PROBE_PROFILE = "4,0,1,6,32"

#: The paper's values for s = 34, kappa = 9: bound 34^3 and the crossing.
PAPER_BOUND = 39304
PAPER_CROSSING = 16922


def box_spec(shape: dict, shift: dict) -> str:
    return ",".join(f"{axis}={lo + shift.get(axis, 0)}..{hi + shift.get(axis, 0)}"
                    for axis, (lo, hi) in shape.items())


def draw_shift(rng, ranges: dict) -> dict:
    return {axis: rng.randint(lo, hi) for axis, (lo, hi) in ranges.items()}


def scan_golden(spec: str, fmt: str) -> dict:
    """Digest of ``scan()`` on ``spec``, confirmed row by row by the oracle."""
    box = ScanBox.parse(spec)
    sink = io.StringIO()
    result = scan(box, GEOMETRIC, sink, fmt=fmt)
    output = sink.getvalue()
    lines = output.splitlines()
    if fmt == "csv":
        assert lines[0] == CSV_HEADER
        got = lines[1:]
    else:
        got = [",".join(str(json.loads(line)[a]) for a in
                        ("d", "delta", "chi", "u", "v")) for line in lines]
    expected = naive_feasible_rows(box, GEOMETRIC)
    if got != expected or result.feasible != len(expected):
        raise SystemExit(f"scan of {spec} disagrees with the oracle")
    return {"box": spec, "rows": result.feasible,
            "sha256": hashlib.sha256(output.encode("utf-8")).hexdigest()}


def scan_pool(shape, shifts, keep, fmt, seed) -> list:
    rng = random.Random(seed)
    pool, seen = [], set()
    volume = ScanBox.parse(box_spec(shape, {})).volume()
    while len(pool) < POOL_SIZE:
        spec = box_spec(shape, draw_shift(rng, shifts))
        if spec in seen:
            continue
        seen.add(spec)
        rows = len(naive_feasible_rows(ScanBox.parse(spec), GEOMETRIC))
        if keep(rows, volume):
            pool.append(scan_golden(spec, fmt))
            print(f"{spec}: {rows} rows", file=sys.stderr)
    return pool


def run_cli(argv: list) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "p6fold.cli", *argv],
                          env=cli_env(), cwd=ROOT, capture_output=True,
                          timeout=120)


def cli_golden(argv: list, exit_code: int, confirm) -> dict:
    proc = run_cli(argv)
    if proc.returncode != exit_code or not confirm(proc.stdout.decode()):
        raise SystemExit(f"p6fold {' '.join(argv)} gave an unexpected result")
    return {"argv": argv, "exit": exit_code,
            "sha256": hashlib.sha256(proc.stdout).hexdigest()}


def feasible(t: str) -> bool:
    d, delta, chi, u, v = (int(x) for x in t.split(","))
    box = ScanBox.of(d=d, delta=delta, chi=chi, u=u, v=v)
    return len(naive_feasible_rows(box, GEOMETRIC)) == 1


def profile_matches(fixture: str):
    expected = split_bundle_profile(*FIXTURES[fixture])

    def confirm(stdout: str) -> bool:
        got = json.loads(stdout)
        for key, value in expected.items():
            if key == "tuple":
                continue
            if isinstance(value, Fraction):
                value = f"{value.numerator}/{value.denominator}"
            if got[key] != value:
                return False
        return True
    return confirm


def bound_is(final: int, crossing_ok):
    def confirm(stdout: str) -> bool:
        report = json.loads(stdout)
        return (report["final_bound"] == final
                and crossing_ok(report["first_contradictory_degree"]))
    return confirm


def scan_rows_are(spec: str):
    expected = "".join(f"{row}\n" for row in
                       [CSV_HEADER] + naive_feasible_rows(
                           ScanBox.parse(spec), GEOMETRIC))
    return lambda stdout: stdout == expected


def passes(count: int):
    return lambda stdout: stdout.endswith(
        f"{count}/{count} identities pass\n")


def fixture_tuple(name: str) -> str:
    return ",".join(str(x) for x in split_bundle_profile(*FIXTURES[name])["tuple"])


def cli_pool(seed: int) -> list:
    rng = random.Random(seed)
    reference = naive_feasible_rows(ScanBox.parse(box_spec(SPARSE, {})),
                                    GEOMETRIC)
    fixtures = sorted(FIXTURES)
    pool = []
    for i in range(POOL_SIZE):
        good = rng.choice(reference)
        while True:
            bad = ",".join(str(rng.randint(lo, hi)) for lo, hi in
                           ((1, 30), (-2, 60), (1, 5), (1, 40), (-50, 900)))
            if not feasible(bad):
                break
        while True:
            spec = box_spec(CLI_BOX, draw_shift(rng, CLI_SHIFT))
            if naive_feasible_rows(ScanBox.parse(spec), GEOMETRIC):
                break
        fixture = fixtures[i % len(fixtures)]
        assert feasible(good)
        pool.append([
            cli_golden(["verify", "--all"], 0, passes(17)),
            cli_golden(["verify", "--id", "L4.3.5", "--show"], 0, passes(1)),
            cli_golden(["check", "--tuple", good], 0, lambda out: True),
            cli_golden(["check", "--tuple", bad], 1, lambda out: True),
            cli_golden(["profile", "--tuple", fixture_tuple(fixture), "--json"],
                       0, profile_matches(fixture)),
            cli_golden(["bound", "--s", "34"], 0,
                       bound_is(PAPER_BOUND, lambda c: c == PAPER_CROSSING)),
            cli_golden(["bound", "--s", "34", "--sharp"], 0,
                       bound_is(PAPER_BOUND, lambda c: c <= PAPER_CROSSING)),
            cli_golden(["scan", "--box", spec, "--workers", "1"], 0,
                       scan_rows_are(spec)),
            cli_golden(["scan", "--box", spec, "--workers", "2"], 0,
                       scan_rows_are(spec)),
        ])
        print(f"cli entry {i}: {good} / {bad} / {spec}", file=sys.stderr)
    return pool


def probe() -> dict:
    assert feasible(PROBE_CHECK)
    return {
        "scan": scan_golden(PROBE_BOX, "csv"),
        "cli": [
            cli_golden(["verify", "--id", "L4.3.5", "--show"], 0, passes(1)),
            cli_golden(["check", "--tuple", PROBE_CHECK], 0, lambda out: True),
            cli_golden(["profile", "--tuple", PROBE_PROFILE, "--json"], 0,
                       profile_matches("ci_22")),
            cli_golden(["bound", "--s", "34"], 0,
                       bound_is(PAPER_BOUND, lambda c: c == PAPER_CROSSING)),
            cli_golden(["scan", "--box", PROBE_BOX, "--workers", "1"], 0,
                       scan_rows_are(PROBE_BOX)),
        ],
    }


def main() -> None:
    goldens = {
        "probe": probe(),
        "cli-oneshot": cli_pool(3),
        "scan-dense": scan_pool(
            DENSE, DENSE_SHIFT, fmt="jsonl", seed=2,
            keep=lambda rows, n: DENSE_RATIO[0] <= rows / n <= DENSE_RATIO[1]),
        "scan-sparse": scan_pool(
            SPARSE, SPARSE_SHIFT, fmt="csv", seed=1,
            keep=lambda rows, n: SPARSE_ROWS[0] <= rows <= SPARSE_ROWS[1]),
    }
    GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n")


if __name__ == "__main__":
    main()
