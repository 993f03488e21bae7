"""Acceptance suite: the six exit criteria, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every comparison is exact (zero tolerance) except the two stated
sub-second runtime budgets.
"""

from __future__ import annotations

import io
import json
import random
import time
from fractions import Fraction

from oracles import FANO_FIXTURES, naive_feasible_rows, split_bundle_profile
from p6fold.bounds import degree_bound
from p6fold.cli import main
from p6fold.constraints import HypothesisConfig, evaluate
from p6fold.identities import verify_all
from p6fold.invariants import InvariantTuple, profile
from p6fold.ring import ParamExpr
from p6fold.scan import ScanBox, scan

GEOMETRIC = HypothesisConfig()


def report(number, name, ok=True):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_headline_degree_bound(capsys):
    start = time.perf_counter()
    result = degree_bound(34, 9)
    elapsed = time.perf_counter() - start

    assert result.final_bound == 39304 == 34 ** 3
    assert result.lifting_threshold == Fraction(1561, 2)
    assert result.s_cubed == 39304
    assert elapsed < 1.0, f"degree bound took {elapsed:.3f}s"

    # and through the CLI exactly as documented
    code = main(["bound", "--s", "34", "--kappa", "9"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["final_bound"] == 39304
    assert data["lifting_threshold"] == "1561/2"
    with capsys.disabled():
        report(1, "degree bound 34^3 reproduced in "
                  f"{elapsed * 1000:.1f} ms")


def test_criterion_2_symbolic_regression():
    start = time.perf_counter()
    results = verify_all()
    elapsed = time.perf_counter() - start

    assert len(results) == 17
    assert all(r.passed for r in results), \
        [r.id for r in results if not r.passed]
    by_id = {r.id: r for r in results}
    # the six Schur formulas, the five table relations, the double-point
    # reduction, and the closing quadratic are all present and exact
    for i in range(1, 7):
        assert by_id[f"L4.3.{i}"].passed
    for i in range(1, 6):
        assert by_id[f"L3.6.{i}"].passed
    assert by_id["DP"].comparisons[0].rhs == "1*d^2"
    assert by_id["S5.QUAD"].passed
    # spot-check s210 coefficient by coefficient
    from p6fold.identities import SCHUR_PARAM_FORMS
    assert SCHUR_PARAM_FORMS[4] == ParamExpr({
        (1, 0, 0, 0, 0): 4, (0, 1, 0, 0, 0): -3, (0, 0, 1, 0, 0): -30,
        (0, 0, 0, 1, 0): -3, (0, 0, 0, 0, 1): 1, (0, 0, 0, 0, 0): 24,
        (2, 0, 0, 0, 0): -1,
    })
    assert elapsed < 1.0, f"identity registry took {elapsed:.3f}s"
    report(2, f"17/17 identities pass in {elapsed * 1000:.1f} ms")


def test_criterion_3_fixture_oracle_suite():
    expected_schur = {
        "linear_p3": (0, 0, 0, 0, 0, 0),
        "quadric": (2, 0, 2, 0, 0, 2),
        "ci_22": (8, 4, 12, 0, 8, 16),
        "cubic": (6, 0, 12, 0, 0, 24),
        "quartic": (12, 0, 36, 0, 0, 108),
        "ci_23": (18, 12, 42, 0, 36, 90),
        "ci_222": (24, 24, 48, 8, 64, 80),
    }
    expected_ks2 = {"linear_p3": 9, "quadric": 8, "ci_22": 4, "cubic": 3,
                    "quartic": 0, "ci_23": 0, "ci_222": 0}
    assert expected_schur.keys() == expected_ks2.keys() == FANO_FIXTURES.keys()
    for name, args in FANO_FIXTURES.items():
        oracle = split_bundle_profile(*args)
        t = InvariantTuple(*oracle["tuple"])
        prof = profile(t)
        got = prof.to_json_dict()
        for key, value in oracle.items():
            if key != "tuple":
                assert got[key] == value, (name, key)
        assert tuple(prof.schur) == expected_schur[name]
        assert prof.KS2 == expected_ks2[name]
        if name == "ci_22":
            assert prof.c3top == 0
        assert evaluate(t, GEOMETRIC).feasible, name
        assert evaluate(t, HypothesisConfig(ks2_cap=9)).feasible, name
    report(3, "seven Fano complete intersections reproduced and feasible")


def test_criterion_4_first_contradiction_degree():
    result = degree_bound(34, 9)
    assert result.first_contradictory_degree == 16922
    # derived oracle: exact sign change of d^2 - 16864*d - 968286
    assert 16921 ** 2 - 16864 * 16921 - 968286 < 0
    assert 16922 ** 2 - 16864 * 16922 - 968286 > 0
    # the clamp, not the crossing, drives the final figure
    assert result.first_contradictory_degree - 1 < result.s_cubed
    assert result.final_bound == result.s_cubed
    report(4, "crossing at 16922; applicability clamp drives 34^3")


def _random_box(rng, max_volume):
    while True:
        spans = []
        for center, spread, width in ((3, 5, 5), (-2, 5, 5), (1, 2, 3),
                                      (2, 3, 4), (2, 8, 8)):
            lo = rng.randint(center - spread, center + spread)
            hi = lo + rng.randint(0, width)
            spans.append((lo, hi))
        box = ScanBox(*spans)
        if box.volume() <= max_volume:
            return box


def _scan_csv(box, workers):
    sink = io.StringIO()
    scan(box, GEOMETRIC, sink, workers=workers)
    return sink.getvalue()


def test_criterion_5_scanner_equivalence():
    rng = random.Random(34 ** 3)
    boxes = [_random_box(rng, 2000) for _ in range(48)]
    # two larger boxes, still at most 1e5 lattice points
    boxes.append(ScanBox.of(d=(1, 12), delta=(-4, 3), chi=(0, 2),
                            u=(1, 5), v=(-5, 20)))
    boxes.append(ScanBox.of(d=(1, 16), delta=(-6, 5), chi=(0, 3),
                            u=(1, 5), v=(-10, 15)))
    assert len(boxes) == 50
    assert all(b.volume() <= 10 ** 5 for b in boxes)

    for i, box in enumerate(boxes):
        serial = _scan_csv(box, workers=1)
        expected = naive_feasible_rows(box, GEOMETRIC)
        assert serial.strip().splitlines()[1:] == expected, i
        parallel = _scan_csv(box, workers=4)
        assert parallel == serial, i
    report(5, "50 random boxes byte-identical across naive/1/4 workers")


def test_criterion_6_invariant_property_suite():
    rng = random.Random(123456)
    raw = HypothesisConfig(geometric_mode=False)
    for _ in range(1000):
        t = InvariantTuple(*(rng.randint(-10 ** 6, 10 ** 6)
                             for _ in range(5)))
        prof = profile(t)
        assert prof.KS2 + prof.c2S == 12 * t.chi          # Noether
        assert prof.n3 == t.d * t.d                       # double point
        rep = evaluate(t, raw)
        s_values = [rep.value_of(f"S{i}") for i in range(1, 7)]
        assert s_values == list(prof.schur)
        assert rep.value_of("S2") + rep.value_of("S3") == \
            3 * t.d + 6 * t.delta + 10 * t.chi - t.u
    report(6, "1000 random tuples: all structural identities exact")
