"""Constraint evaluation: fixed order, exact slacks, hypothesis configs."""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import random
import re
from collections import Counter
from itertools import product
from math import prod

import pytest

from oracles import chis_of_forms_with_a_real_u, constraint_values
from p6fold.constraints import (
    ConstraintReport,
    HypothesisConfig,
    _affine_interval,
    _chi_inputs,
    _u_inputs,
    _v_inputs,
    evaluate,
    feasible_cells,
    is_feasible,
)
from p6fold.invariants import InvariantTuple, profile

GEOMETRIC = HypothesisConfig()


def ids_of(report):
    return [e.id for e in report.entries]


def test_report_order_geometric():
    report = evaluate(InvariantTuple(1, -2, 1, 1, 0), GEOMETRIC)
    assert ids_of(report) == ["B1", "B2", "B3", "B4", "B5",
                              "S1", "S2", "S3", "S4", "S5", "S6",
                              "H1", "H2"]


def test_report_order_raw_with_cap():
    report = evaluate(InvariantTuple(1, -2, 1, 1, 0),
                      HypothesisConfig(geometric_mode=False, ks2_cap=9))
    assert ids_of(report) == ["S1", "S2", "S3", "S4", "S5", "S6",
                              "H1", "H2", "K"]


def test_linear_p3_is_tight_everywhere():
    report = evaluate(InvariantTuple(1, -2, 1, 1, 0), GEOMETRIC)
    assert report.feasible
    for cid in ("S1", "S2", "S3", "S4", "S5", "S6", "H1", "H2"):
        assert report.value_of(cid) == 0, cid


def test_ci22_slacks():
    report = evaluate(InvariantTuple(4, 0, 1, 6, 32), GEOMETRIC)
    assert report.feasible
    assert report.value_of("S4") == 0
    assert report.value_of("S5") == 8


def test_quadric_with_cap():
    report = evaluate(InvariantTuple(2, -2, 1, 2, 2),
                      HypothesisConfig(ks2_cap=9))
    assert report.feasible
    assert report.value_of("K") == 1


def test_parity_violation():
    t = InvariantTuple(1, -1, 1, 1, 0)
    report = evaluate(t, GEOMETRIC)
    assert not report.feasible
    assert report.value_of("B2") == 1
    assert not is_feasible(t, GEOMETRIC)


def test_huge_v_violates_hodge():
    t = InvariantTuple(10, 0, 1, 1, 10 ** 6)
    report = evaluate(t, GEOMETRIC)
    assert not report.feasible
    h1 = report.value_of("H1")
    assert h1 == 39 ** 2 - 10 ** 6 * 20 and h1 < 0
    assert not is_feasible(t, GEOMETRIC)


def test_is_feasible_equals_report_conjunction():
    rng = random.Random(99)
    for _ in range(500):
        t = InvariantTuple(*(rng.randint(-30, 30) for _ in range(5)))
        assert is_feasible(t, GEOMETRIC) == evaluate(t, GEOMETRIC).feasible


def test_schur_values_match_profile():
    rng = random.Random(4)
    for _ in range(300):
        t = InvariantTuple(*(rng.randint(-10 ** 6, 10 ** 6)
                             for _ in range(5)))
        report = evaluate(t, HypothesisConfig(geometric_mode=False))
        schur = profile(t).schur
        assert [report.value_of(f"S{i}") for i in range(1, 7)] == list(schur)


def test_s2_plus_s3_closed_form():
    rng = random.Random(11)
    for _ in range(300):
        d, delta, chi, u, v = (rng.randint(-10 ** 6, 10 ** 6)
                               for _ in range(5))
        report = evaluate(InvariantTuple(d, delta, chi, u, v),
                          HypothesisConfig(geometric_mode=False))
        assert report.value_of("S2") + report.value_of("S3") == \
            3 * d + 6 * delta + 10 * chi - u


@pytest.mark.parametrize("kwargs, name", [
    ({"ks2_cap": 9.5}, "ks2_cap"),
    ({"ks2_cap": "9"}, "ks2_cap"),
    ({"min_degree": 0.5}, "min_degree"),
    ({"min_degree": None}, "min_degree"),
])
def test_config_rejects_non_integer_numbers(kwargs, name):
    # ks2_cap=9.5 used to give a K slack of 0.5.
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        HypothesisConfig(**kwargs)


@pytest.mark.parametrize("mode", ["no", 0, 1, None])
def test_config_rejects_a_geometric_mode_that_is_not_a_bool(mode):
    # geometric_mode="no" used to select geometric mode: the string is truthy.
    with pytest.raises(ValueError,
                       match=f"geometric_mode must be a bool, got {mode!r}"):
        HypothesisConfig(geometric_mode=mode)


def test_config_has_exactly_the_fields_its_kernel_reads():
    # A cover flag is written ks2_cap=9: the config has no second spelling.
    assert [f.name for f in dataclasses.fields(HypothesisConfig)] == [
        "geometric_mode", "ks2_cap", "min_degree"]


@pytest.mark.parametrize("min_degree", [0, 2, 5])
def test_raw_config_refuses_a_min_degree(min_degree):
    # The raw kernel has no B1, so min_degree=5 used to check no degree.
    with pytest.raises(ValueError,
                       match="raw mode has no B1, so min_degree must be 1"):
        HypothesisConfig(geometric_mode=False, min_degree=min_degree)
    assert HypothesisConfig(geometric_mode=False, min_degree=1) == \
        HypothesisConfig(geometric_mode=False)


@pytest.mark.parametrize("cfg", ["x", None, (True, 9, 1)])
@pytest.mark.parametrize("fn, call", [
    ("evaluate", lambda cfg: evaluate((4, 0, 1, 6, 32), cfg)),
    ("is_feasible", lambda cfg: is_feasible((4, 0, 1, 6, 32), cfg)),
    ("feasible_cells", lambda cfg: list(feasible_cells(
        ((4, 4), (0, 0), (1, 1), (6, 6), (32, 32)), cfg))),
])
def test_a_config_that_is_not_a_hypothesis_config_is_a_value_error(
        fn, call, cfg):
    # Each used to raise AttributeError on cfg._kernel.
    with pytest.raises(ValueError, match=re.escape(
            f"{fn} needs a HypothesisConfig, got {cfg!r}")):
        call(cfg)


def test_value_of_an_unknown_constraint_is_a_key_error():
    report = evaluate(InvariantTuple(4, 0, 1, 6, 32), GEOMETRIC)
    with pytest.raises(KeyError, match="Z9"):
        report.value_of("Z9")


def test_min_degree_strictness():
    t = InvariantTuple(2, -2, 1, 2, 2)
    assert is_feasible(t, HypothesisConfig(min_degree=2))
    report = evaluate(t, HypothesisConfig(min_degree=4))
    assert not report.feasible
    assert report.value_of("B1") == -2


def test_report_json_schema():
    report = evaluate(InvariantTuple(1, -1, 1, 1, 0), GEOMETRIC)
    data = report.to_json_dict()
    assert data["tuple"] == {"d": 1, "delta": -1, "chi": 1, "u": 1, "v": 0}
    assert data["feasible"] is False
    b2 = next(c for c in data["constraints"] if c["id"] == "B2")
    assert b2 == {"id": "B2", "value": "1", "ok": False}
    assert all(isinstance(c["value"], str) for c in data["constraints"])


def test_evaluate_is_deterministic():
    t = InvariantTuple(4, 0, 1, 6, 32)
    assert evaluate(t, GEOMETRIC) == evaluate(t, GEOMETRIC)


# One config of each kernel shape: geometric or raw, with or without a cap.
ORACLE_CONFIGS = (
    GEOMETRIC,
    HypothesisConfig(geometric_mode=False),
    HypothesisConfig(ks2_cap=9),
    HypothesisConfig(min_degree=3, ks2_cap=9),
    HypothesisConfig(geometric_mode=False, ks2_cap=7),
)


def cells_box(rng, i):
    """Five ``(lo, hi)`` pairs for :func:`feasible_cells`, of at most 1500
    points: around a feasible anchor with a wide v-axis, or broad with d
    down to -3; every fourth has 2d + delta = 0 on one (d, delta) row, and
    every fifth has an empty axis.  An axis is often a single value."""
    while True:
        if i % 2:
            *rest, v = rng.choice(ORACLE_ANCHORS)
            v_lo = v - rng.randint(0, 30)
            spans = [(x - rng.randint(0, 2), x + rng.randint(0, 2))
                     for x in rest] + [(v_lo, v_lo + rng.randint(0, 50))]
        else:
            spans = [(lo, lo + rng.randint(0, width)) for lo, width in (
                (rng.randint(-3, 8), 3), (rng.randint(-6, 20), 6),
                (rng.randint(-2, 2), 2), (rng.randint(-6, 20), 8),
                (rng.randint(-20, 120), 40))]
        if i % 4 == 0:
            d = rng.randint(-3, 8)
            spans[:2] = [(d, d), (-2 * d, -2 * d)]
        if i % 5 == 0:
            axis = rng.randrange(5)
            lo = spans[axis][0]
            spans[axis] = (lo, lo - rng.randint(1, 2))
        if prod(max(hi - lo + 1, 0) for lo, hi in spans) <= 1500:
            return tuple(spans)


# Rows on which H2 is below 0 at every corner of the box and every other
# constraint but H1 holds at some corner, rare in the random boxes: one at
# d = 3, and one at d = -1 that raw mode reaches.
H2_CORNER_BOXES = (((3, 3), (0, 0), (2, 2), (8, 14), (91, 122)),
                   ((-1, -1), (2, 2), (-2, -2), (-8, 1), (-160, -90)))


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS)
def test_feasible_cells_are_exactly_the_cells_with_a_feasible_v(cfg):
    # Every cell of the box with a feasible v, in lex order, each with
    # exactly the v that is_feasible accepts, as one range.
    rng = random.Random(61)
    seen = set()
    for ranges in [cells_box(rng, i) for i in range(200)] + list(
            H2_CORNER_BOXES):
        got = list(feasible_cells(ranges, cfg))
        assert all(type(vs) is range and vs.step == 1 for *_, vs in got)
        assert [(*cell, list(vs)) for *cell, vs in got] == brute_cells(
            ranges, cfg), ranges
        rows = list(product(*(range(lo, hi + 1) for lo, hi in ranges[:2])))
        seen.update(k for k, hit in (
            ("cells", got), ("d <= 0", any(d <= 0 for d, _ in rows)),
            ("2d + delta = 0", any(2 * d + delta == 0 for d, delta in rows)),
            ("S2 + S4 < 0", any(d * d - 3 * d - delta < 0
                                for d, delta in rows)),
            ("single value", any(lo == hi for lo, hi in ranges)),
            ("empty", any(lo > hi for lo, hi in ranges))) if hit)
        if all(lo <= hi for lo, hi in ranges):
            seen.update(row_classes(cfg, ranges, rows, got))
    assert seen == {"cells", "d <= 0", "2d + delta = 0", "S2 + S4 < 0",
                    "single value", "empty", "past S2 + S4", "flat form",
                    "fixed-slope corner", "H2 corner",
                    "no cell past the corners"} | (
                        set() if cfg.geometric_mode else {"H2 corner, d < 0"})


def brute_cells(ranges, cfg):
    """Each cell of the box with a feasible v, in lex order, with the list
    of the v that is_feasible accepts there."""
    axes = [range(lo, hi + 1) for lo, hi in ranges]
    cells = []
    for cell in product(*axes[:4]):
        vs = [v for v in axes[4] if is_feasible((*cell, v), cfg)]
        if vs:
            cells.append((*cell, vs))
    return cells


def row_classes(cfg, ranges, rows, got):
    """Which constraint leaves each row of the box without a cell: S2 + S4
    = d^2 - 3d - delta, below 0 on the row and on a row of the box before
    it; a flat
    constraint (B1, B2, B3 or S1), or another one but H1 and H2, below 0
    at every corner of the box; H2 below 0 at every corner, also where
    d < 0 makes its chi coefficient -10d positive; or none of these,
    although the row has no cell."""
    kernel, ids = cfg._kernel, cfg.constraint_ids
    corners = list(product(*ranges[2:]))
    classes = set()
    for d, delta in rows:
        if d * d - 3 * d - delta < 0:
            if d * d - 3 * d - delta < -1 and delta > ranges[1][0]:
                classes.add("past S2 + S4")
            continue
        best = {cid: max(values) for cid, *values in zip(
            ids, *(kernel(d, delta, *corner) for corner in corners))}
        if any(best.get(cid, 0) < 0 for cid in ("B1", "B2", "B3", "S1")):
            classes.add("flat form")
        elif any(value < 0 for cid, value in best.items()
                 if cid not in ("H1", "H2")):
            classes.add("fixed-slope corner")
        elif best["H2"] < 0:
            classes.update({"H2 corner"} | ({"H2 corner, d < 0"} if d < 0
                                             else set()))
        elif all(cell[:2] != (d, delta) for cell in got):
            classes.add("no cell past the corners")
    return classes


@pytest.mark.parametrize("axis", range(5))
def test_a_box_with_an_empty_axis_costs_no_kernel_call(monkeypatch, axis):
    cfg = HypothesisConfig(geometric_mode=False)
    kernel, calls = cfg._kernel, []

    def counting_kernel(*t):
        calls.append(t)
        return kernel(*t)

    monkeypatch.setitem(vars(cfg), "_kernel", counting_kernel)
    bounds = list(GOOD_BOUNDS)
    bounds[2 * axis + 1] = bounds[2 * axis] - 1
    assert list(feasible_cells(tuple(zip(bounds[::2], bounds[1::2])),
                               cfg)) == []
    assert calls == []
    # The bounds are checked first: a float still raises.
    bounds[(2 * axis + 2) % 10] += 0.5
    with pytest.raises(ValueError, match="feasible_cells needs ten integers"):
        list(feasible_cells(tuple(zip(bounds[::2], bounds[1::2])), cfg))
    assert calls == []


@pytest.mark.parametrize("ranges", [
    None,
    ((1, 2), (-2, 0), (1, 3), (0, 40)),
    ((1, 2), (-2, 0), (1, 3, 5), (0, 40), (0, 40)),
    "abcde",
])
def test_ranges_that_are_not_five_pairs_raise_a_value_error(ranges):
    # Each used to pass the gate and raise an unpacking TypeError or
    # ValueError that did not name the call.
    cells = feasible_cells(ranges, HypothesisConfig(geometric_mode=False))
    with pytest.raises(ValueError, match=re.escape(
            f"feasible_cells needs ten integers, got {ranges!r}")):
        list(cells)


def test_a_delta_range_past_the_s2_plus_s4_stop_costs_one_call_per_row(
        monkeypatch):
    # S2 + S4 = d^2 - 3d - delta is below 0 at every delta > -2 of d = 1
    # and d = 2, so of the 10^8 rows only those at -2 can be in a delta-
    # interval, and S4 drops (2, -2) at the box's one (chi, u, v).  The walk
    # makes one call per degree, at (d, 0, 0, 0, 0), and one per row left;
    # a fresh config first reads its coefficients (15 calls), a reused one
    # does not.
    cfg = HypothesisConfig(geometric_mode=False)
    kernel, calls = cfg._kernel, []

    def counting_kernel(*t):
        calls.append(t)
        return kernel(*t)

    monkeypatch.setitem(vars(cfg), "_kernel", counting_kernel)
    rows = [(d, delta) for d in (1, 2)
            for delta in range(-2, max(-2, d * d - 3 * d) + 1)
            if min(kernel(d, delta, 1, 1, 0)[:6]) >= 0]  # all but H1, H2
    assert rows == [(1, -2)]
    expected = [(1, 0, 0, 0, 0), (1, -2, 0, 0, 0), (2, 0, 0, 0, 0)]
    for table in (15, 0):  # a fresh config, then the same config reused
        calls.clear()
        assert list(feasible_cells(((1, 2), (-2, 10 ** 8), (1, 1), (1, 1),
                                    (0, 0)), cfg)) == [(1, -2, 1, 1, range(1))]
        assert len(calls) == table + 2 + len(rows)
        assert calls[table:] == expected


def forms_as_feasible_cells_reads_them(kernel, d, delta):
    """Each kernel entry on the row (d, delta) as ``(e, a, b, c, cc, uu,
    cu)``, the form e + a*chi + b*u + c*v + cc*chi^2 + uu*u^2 + cu*chi*u,
    read as feasible_cells reads it: the quadratic part off the row (0, 0),
    the chi, u and v coefficients as affine functions of (d, delta) off the
    rows (0, 0), (1, 0) and (0, 1), and e off one call on the row, at
    (chi, u, v) = (0, 0, 0)."""
    at_00 = (kernel(0, 0, chi, u, 0) for chi, u in
             ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1)))
    quadratic = [((e + aa) // 2 - a, (e + bb) // 2 - b, e - a - b + ab)
                 for e, a, b, aa, bb, ab in zip(*at_00)]
    # Each entry's step from (chi, u, v) = (0, 0, 0) along chi, u and v, on
    # the rows (0, 0), (1, 0) and (0, 1), then carried to (d, delta).
    on_00, on_10, on_01 = (
        [[y - x for x, y in zip(kernel(*row, 0, 0, 0), kernel(*row, *p))]
         for p in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        for row in ((0, 0), (1, 0), (0, 1)))
    x, y, z = ([s + (sd - s) * d + (st - s) * delta
                for s, sd, st in zip(*axis)]
               for axis in zip(on_00, on_10, on_01))
    return [(e, a - cc, b - uu, c, cc, uu, cu)
            for e, a, b, c, (cc, uu, cu) in zip(
                kernel(d, delta, 0, 0, 0), x, y, z, quadratic)]


def shape_problems(cfg, kernel, rng):
    """Where ``kernel`` is not the form feasible_cells reads off it, or the
    forms with v or a quadratic term are not exactly S5, S6 and H1, on
    random rows and at random (chi, u, v); empty when the shape holds."""
    ids = cfg.constraint_ids
    problems, seen = [], set()
    for i in range(120):
        d = rng.randint(-6, 30)
        delta = -2 * d if i % 3 == 0 else rng.randint(-12, 90)
        seen.update(k for k, hit in (
            ("d <= 0", d <= 0), ("odd delta", delta % 2),
            ("2d + delta = 0", 2 * d + delta == 0)) if hit)
        forms = forms_as_feasible_cells_reads_them(kernel, d, delta)
        not_u = {cid for cid, (*_, c, cc, uu, cu) in zip(ids, forms)
                 if c or cc or uu or cu}
        if not_u != {"S5", "S6", "H1"}:
            problems.append((d, delta, sorted(not_u)))
        for _ in range(5):
            chi, u, v = (rng.randint(-20, 20), rng.randint(-60, 60),
                         rng.randint(-3000, 3000))
            read = tuple(e + a * chi + b * u + c * v + cc * chi * chi
                         + uu * u * u + cu * chi * u
                         for e, a, b, c, cc, uu, cu in forms)
            if read != kernel(d, delta, chi, u, v):
                problems.append((d, delta, chi, u, v))
    assert seen == {"d <= 0", "odd delta", "2d + delta = 0"}
    return problems


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS)
def test_the_kernel_is_the_form_feasible_cells_reads(cfg):
    # feasible_cells reads every constraint as the form above and takes the
    # chi- and u-intervals from the U-forms, those with no v and no
    # quadratic term; S5, S6 and H1 give the v-interval.  Where
    # 2d + delta = 0, H1 has no v but stays quadratic in (chi, u).
    rng = random.Random(17)
    assert shape_problems(cfg, cfg._kernel, rng) == []
    h1 = cfg.constraint_ids.index("H1")
    assert forms_as_feasible_cells_reads_them(cfg._kernel, 2, -4)[h1] == (
        324, -360, 36, 0, 100, 1, -20)  # (10*chi - u - 18)^2


def test_h1_is_no_u_form_where_it_has_no_v():
    # The one feasible cell of this 2d + delta = 0 row, where H1 =
    # (10*chi - u - 18)^2; read as affine off (chi, u) = (0, 0), (1, 0) and
    # (0, 1), H1 would be 324 - 260*chi + 37*u, which is -122 there.
    raw = HypothesisConfig(geometric_mode=False)
    cells = feasible_cells(((2, 2), (-4, -4), (-5, 5), (-20, 20),
                            (-5000, 5000)), raw)
    assert list(cells) == [(2, -4, 2, 2, range(26, 51))]


@pytest.mark.parametrize("term", [
    lambda d, delta, chi, u, v: chi * v,
    lambda d, delta, chi, u, v: d * chi * chi,
    lambda d, delta, chi, u, v: chi * u,
])
@pytest.mark.parametrize("cid", ["S2", "H2"])
def test_a_kernel_outside_that_shape_fails_the_check(term, cid):
    # A chi*v or a row-dependent chi^2 term breaks the form; a chi*u term
    # on a U-constraint moves it out of the U-forms.
    i = GEOMETRIC.constraint_ids.index(cid)
    kernel = GEOMETRIC._kernel

    def perturbed(*t):
        values = list(kernel(*t))
        values[i] += term(*t)
        return tuple(values)

    assert shape_problems(GEOMETRIC, perturbed, random.Random(17))


def coefficient_problems(kernel, rng, step):
    """The rows (d, delta) at which some kernel entry's step from (chi, u,
    v) = (0, 0, 0) to ``step`` is not the affine function of (d, delta)
    that feasible_cells reads off the rows (0, 0), (1, 0) and (0, 1); empty
    when it is affine.  Along v the step is the v coefficient; along chi or
    u it is that coefficient plus the chi^2 or u^2 one, which is the same
    on every row."""
    def c(d, delta):
        return [z - e for e, z in zip(kernel(d, delta, 0, 0, 0),
                                      kernel(d, delta, *step))]

    c00, c10, c01 = c(0, 0), c(1, 0), c(0, 1)
    problems = []
    for i in range(120):
        d = rng.randint(-6, 30)
        delta = -2 * d if i % 3 == 0 else rng.randint(-12, 90)
        affine = [a + (b - a) * d + (t - a) * delta
                  for a, b, t in zip(c00, c10, c01)]
        if c(d, delta) != affine:
            problems.append((d, delta))
    return problems


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS)
def test_the_v_coefficient_is_affine_in_d_and_delta(cfg):
    # feasible_cells reads it once per call: 1 on S5, -1 on S6,
    # -(2d + delta) on H1 and 0 on every other constraint.
    assert coefficient_problems(cfg._kernel, random.Random(23),
                                (0, 0, 1)) == []
    kernel, ids = cfg._kernel, cfg.constraint_ids
    c = {cid: z - e for cid, e, z in zip(ids, kernel(5, 3, 0, 0, 0),
                                         kernel(5, 3, 0, 0, 1)) if z != e}
    assert c == {"S5": 1, "S6": -1, "H1": -13}


@pytest.mark.parametrize("term", [
    lambda d, delta, chi, u, v: d * d * v,
    lambda d, delta, chi, u, v: d * delta * v,
])
@pytest.mark.parametrize("cid", ["S2", "H1"])
def test_a_v_coefficient_not_affine_in_d_and_delta_fails_the_check(term,
                                                                    cid):
    i = GEOMETRIC.constraint_ids.index(cid)
    kernel = GEOMETRIC._kernel

    def perturbed(*t):
        values = list(kernel(*t))
        values[i] += term(*t)
        return tuple(values)

    assert coefficient_problems(perturbed, random.Random(23), (0, 0, 1))


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS)
def test_the_chi_and_u_coefficients_are_affine_in_d_and_delta(cfg):
    # feasible_cells reads them once per call.  Only H1's and H2's move
    # with (d, delta): along chi by 60d + 120*delta and -10d, along u by
    # -6d - 12*delta and d.
    for step in ((1, 0, 0), (0, 1, 0)):
        assert coefficient_problems(cfg._kernel, random.Random(29),
                                    step) == []
    kernel, ids = cfg._kernel, cfg.constraint_ids

    def steps(d, delta):
        return [(x - e, y - e) for e, x, y in zip(
            kernel(d, delta, 0, 0, 0), kernel(d, delta, 1, 0, 0),
            kernel(d, delta, 0, 1, 0))]

    moved = {cid: (x - x0, y - y0) for cid, (x, y), (x0, y0) in zip(
        ids, steps(5, 3), steps(0, 0)) if (x, y) != (x0, y0)}
    assert moved == {"H1": (660, -66), "H2": (-50, 5)}


@pytest.mark.parametrize("term, step", [
    (lambda d, delta, chi, u, v: d * d * chi, (1, 0, 0)),
    (lambda d, delta, chi, u, v: d * delta * u, (0, 1, 0)),
])
@pytest.mark.parametrize("cid", ["S2", "H2"])
def test_a_chi_or_u_coefficient_not_affine_in_d_and_delta_fails_the_check(
        term, step, cid):
    i = GEOMETRIC.constraint_ids.index(cid)
    kernel = GEOMETRIC._kernel

    def perturbed(*t):
        values = list(kernel(*t))
        values[i] += term(*t)
        return tuple(values)

    assert coefficient_problems(perturbed, random.Random(29), step)


def s2_plus_s4_problems(cfg, kernel, rng):
    """The random points (d, delta, chi, u, v) at which the kernel's S2 + S4
    is not d^2 - 3d - delta; empty when it is that everywhere."""
    s2, s4 = cfg.constraint_ids.index("S2"), cfg.constraint_ids.index("S4")
    problems = []
    for _ in range(200):
        d, delta, chi, u, v = t = (
            rng.randint(-30, 30), rng.randint(-100, 900), rng.randint(-20, 20),
            rng.randint(-60, 60), rng.randint(-3000, 3000))
        values = kernel(*t)
        if values[s2] + values[s4] != d * d - 3 * d - delta:
            problems.append(t)
    return problems


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS)
def test_s2_plus_s4_is_d_squared_minus_3d_minus_delta(cfg):
    # feasible_cells ends each degree's delta sweep at the first delta
    # with S2 + S4 < 0: it has no chi, u or v term and falls by 1 per step
    # of delta, so no later delta of that degree holds a cell.
    assert s2_plus_s4_problems(cfg, cfg._kernel, random.Random(31)) == []


@pytest.mark.parametrize("term", [
    lambda d, delta, chi, u, v: delta * delta,
    lambda d, delta, chi, u, v: chi,
])
def test_an_s2_plus_s4_that_does_not_fall_with_delta_fails_the_check(term):
    i = GEOMETRIC.constraint_ids.index("S4")
    kernel = GEOMETRIC._kernel

    def perturbed(*t):
        values = list(kernel(*t))
        values[i] += term(*t)
        return tuple(values)

    assert s2_plus_s4_problems(GEOMETRIC, perturbed, random.Random(31))


def delta_slope_problems(cfg, kernel, rng):
    """The rows (d, delta) at which some fixed kernel entry, every one but
    B2, H1 and H2, is not ``e(d, 0) + delta*(e(0, 1) - e(0, 0))`` at (chi,
    u, v) = (0, 0, 0), or B2 is not -(delta mod 2); empty when each is."""
    ids = cfg.constraint_ids
    slopes = [t - e for e, t in zip(kernel(0, 0, 0, 0, 0),
                                    kernel(0, 1, 0, 0, 0))]
    problems = []
    for i in range(120):
        d = rng.randint(-6, 30)
        delta = -2 * d if i % 3 == 0 else rng.randint(-12, 90)
        for cid, e, g, t in zip(ids, kernel(d, delta, 0, 0, 0),
                                kernel(d, 0, 0, 0, 0), slopes):
            expected = {"B2": -(delta % 2), "H1": e, "H2": e}.get(
                cid, g + delta * t)
            if e != expected:
                problems.append((d, delta, cid))
    return problems


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS)
def test_each_fixed_form_moves_with_delta_by_one_slope_on_every_degree(cfg):
    # feasible_cells reads each degree's delta-interval off one kernel call
    # at (d, 0, 0, 0, 0): every fixed form, each with no quadratic part and
    # chi, u and v coefficients that do not move with (d, delta), is
    # g(d) + t*delta there, with t the same on every degree, and B2 keeps
    # only even delta.
    assert delta_slope_problems(cfg, cfg._kernel, random.Random(37)) == []
    ids = cfg.constraint_ids
    fixed = {ids[i] for i, *_ in cfg._forms[0]}
    assert fixed == set(ids) - {"B2", "H1", "H2"}


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS)
def test_each_kernel_entry_has_one_shape_in_the_walk(cfg):
    # The chi- and u-steps read linear, ``(i, a, ad, b, bd)``: the chi and
    # u slopes of each form with no v and no quadratic part, which move
    # with d alone; S5, S6 and H1 are read only in the v-step, from curved.
    # The flat forms are only in fixed.
    ids = cfg.constraint_ids
    _, linear, curved = cfg._forms
    assert {len(entry) for entry in linear} == {5}
    assert [ids[i] for i, *_ in curved] == ["S5", "S6", "H1"]
    assert {ids[i] for i, *_ in linear} == set(ids) - {
        "B1", "B2", "B3", "S1", "S5", "S6", "H1"}


@pytest.mark.parametrize("term, cid", [
    (lambda d, delta, chi, u, v: delta * chi, "B4"),
    (lambda d, delta, chi, u, v: -delta * u, "S3"),
])
def test_an_entry_whose_slope_moves_with_delta_is_read_in_the_v_step(
        monkeypatch, term, cid):
    # No shipped kernel has one, but the walk stays exact on it: an entry
    # whose chi or u coefficient moves with delta leaves fixed and linear
    # for curved, whose v-step is exact for any form.
    cfg = HypothesisConfig()
    i = cfg.constraint_ids.index(cid)
    kernel = cfg._kernel

    def perturbed(*t):
        values = list(kernel(*t))
        values[i] += term(*t)
        return tuple(values)

    monkeypatch.setitem(vars(cfg), "_kernel", perturbed)
    fixed, linear, curved = cfg._forms
    assert i not in {j for j, *_ in fixed + linear}
    assert i in {j for j, *_ in curved}
    rng, decided = random.Random(67), 0
    for ranges in (cells_box(rng, k) for k in range(50)):
        expected = brute_cells(ranges, cfg)
        assert [(*cell, list(vs)) for *cell, vs in feasible_cells(
            ranges, cfg)] == expected, ranges
        decided += expected != brute_cells(ranges, GEOMETRIC)
    assert decided  # the perturbation changes the cells of some box


@pytest.mark.parametrize("term, cid", [
    (lambda d, delta, chi, u, v: d * delta, "S3"),
    (lambda d, delta, chi, u, v: delta * delta, "S4"),
])
def test_a_fixed_form_whose_delta_slope_moves_fails_the_check(term, cid):
    i = GEOMETRIC.constraint_ids.index(cid)
    kernel = GEOMETRIC._kernel

    def perturbed(*t):
        values = list(kernel(*t))
        values[i] += term(*t)
        return tuple(values)

    assert delta_slope_problems(GEOMETRIC, perturbed, random.Random(37))


# Each of the ten bounds of a box, in turn, as a float.
GOOD_BOUNDS = (1, 2, -2, 0, 1, 3, 0, 40, 0, 40)


@pytest.mark.parametrize("i", range(10))
def test_intervals_reject_non_integer_arguments(i):
    bounds = list(GOOD_BOUNDS)
    bounds[i] += 0.5 if i % 2 else 0.0  # 2.0 equals 2, but is no int
    ranges = tuple(zip(bounds[::2], bounds[1::2]))
    cells = feasible_cells(ranges, HypothesisConfig(geometric_mode=False))
    with pytest.raises(ValueError, match=re.escape(
            f"feasible_cells needs ten integers, got {tuple(bounds)!r}")):
        list(cells)


# Feasible under every config above; a quarter of the draws land near one.
ORACLE_ANCHORS = ((3, 0, 1, 7, 24), (4, 0, 1, 6, 32), (4, 2, 1, 11, 45),
                  (5, -2, 1, 1, 10), (8, 8, 2, 20, 216))


def oracle_draw(rng, i):
    """Broad draws (odd delta, negative u and v included), draws on
    2d + delta = 0, and draws near a feasible anchor."""
    if i % 4 == 3:
        return tuple(x + rng.randint(-2, 2) for x in rng.choice(ORACLE_ANCHORS))
    d = rng.randint(-6, 40)
    delta = -2 * d if i % 4 == 1 else rng.randint(-12, 120)
    return (d, delta, rng.randint(-3, 12), rng.randint(-40, 90),
            rng.randint(-2000, 4000))


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS)
def test_evaluate_matches_the_constraint_oracle(cfg):
    # The oracle derives every constraint from its definition, so this
    # catches a wrong kernel entry (a B2 sign, a K off by one) that the
    # scan-against-naive tests, which call is_feasible, cannot.  The JSON
    # and value_of read the kernel's ints without the records, so each is
    # checked on its own, before the records are first built.
    rng = random.Random(2718)
    seen = set()
    for i in range(2000):
        t = InvariantTuple(*oracle_draw(rng, i))
        expected = constraint_values(t, cfg)
        feasible = all(ok for _, _, ok in expected)
        report = evaluate(t, cfg)
        # json.dumps, unlike ==, tells true from 1 and sees the key order.
        assert json.dumps(report.to_json_dict()) == json.dumps({
            "tuple": dict(zip(("d", "delta", "chi", "u", "v"), t)),
            "constraints": [{"id": cid, "value": str(value), "ok": ok}
                            for cid, value, ok in expected],
            "feasible": feasible}), t
        for cid, value, _ in expected:
            assert report.value_of(cid) == value, (t, cid)
        assert [(e.id, e.value, e.satisfied)
                for e in report.entries] == expected, t
        assert report.feasible == is_feasible(t, cfg) == feasible, t
        seen.update((cid, ok) for cid, _, ok in expected)
        seen.add(("feasible", feasible))
        seen.update(k for k, hit in (("odd delta", t.delta % 2),
                                     ("u < 0", t.u < 0), ("v < 0", t.v < 0),
                                     ("2d + delta = 0", 2 * t.d + t.delta == 0))
                    if hit)
    # Every constraint both held and failed, and every kind of draw occurred.
    assert seen >= {(cid, ok) for cid in cfg.constraint_ids
                    for ok in (True, False)}
    assert seen >= {("feasible", True), ("feasible", False), "odd delta",
                    "u < 0", "v < 0", "2d + delta = 0"}


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS)
def test_config_stays_a_plain_value_after_use(cfg):
    # Each config caches its constraint kernel, a closure, on first use;
    # pickle could not send the config once it held one.
    fresh = HypothesisConfig(cfg.geometric_mode, cfg.ks2_cap, cfg.min_degree)
    t = ORACLE_ANCHORS[0]
    assert is_feasible(t, fresh)
    cell = tuple((x, x) for x in t[:4])
    assert list(feasible_cells(cell + ((-10, 60),), fresh))
    report = evaluate(t, fresh)
    for other in (pickle.loads(pickle.dumps(fresh)), copy.deepcopy(fresh),
                  copy.copy(fresh)):
        assert type(other) is HypothesisConfig
        assert other == fresh == cfg
        assert hash(other) == hash(fresh) == hash(cfg)
        assert evaluate(t, other) == report
        assert is_feasible(t, other)


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS)
def test_report_stays_a_plain_value_after_entries_are_read(cfg):
    # Reading entries builds the records and keeps none of them: a report
    # has no __dict__, so nothing can be cached on it, and == and hash,
    # pickle and deepcopy stay as they were.
    for t in (ORACLE_ANCHORS[0], InvariantTuple(1, -1, 1, 1, 0)):
        report = evaluate(t, cfg)

        def observed():
            fresh = evaluate(t, cfg)
            copies = (pickle.loads(pickle.dumps(report)),
                      copy.deepcopy(report))
            for other in copies:
                assert type(other) is ConstraintReport
                assert other == report == fresh
                assert hash(other) == hash(report) == hash(fresh)
            return hash(report), [(c.to_json_dict(), c.entries)
                                  for c in copies]

        before = observed()
        entries = report.entries
        assert not hasattr(report, "__dict__")
        assert report.entries == entries
        assert observed() == before


def random_linear_forms(rng, chi_range, u_range):
    """One to six forms ``(e, a, b)``, each e + a*chi + b*u, whose zero line
    runs through or near the box: b of either sign or 0, now and then an
    all-zero form, coefficients up to 10^6."""
    forms = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.randrange(8)
        if kind == 0:
            forms.append((0, 0, 0))
            continue
        top = rng.choice((3, 100, 10 ** 6))
        a = rng.randint(-top, top)
        b = 0 if kind == 1 else rng.randint(-top, top)
        chi = rng.randint(chi_range[0] - 1, chi_range[1] + 1)
        u = rng.randint(u_range[0] - 1, u_range[1] + 1)
        forms.append((rng.randint(-top, top) - a * chi - b * u, a, b))
    return forms


def test_the_chi_and_u_stages_are_exact_on_random_forms():
    # The chi-step's inputs keep exactly the chi at which some real u of
    # the box satisfies every linear form (the Fraction oracle), and at
    # each chi of the box the u-step's inputs give exactly the integer u
    # that satisfy every one.
    rng, seen = random.Random(33), Counter()
    for _ in range(1500):
        chi0, u0 = rng.randint(-5, 5), rng.randint(-10, 10)
        chi_range = (chi0, chi0 + rng.randint(0, 8))
        u_range = (u0, u0 + rng.randint(0, 12))
        forms = random_linear_forms(rng, chi_range, u_range)
        chis = list(_affine_interval(_chi_inputs(forms, *u_range), *chi_range))
        expected = chis_of_forms_with_a_real_u(forms, chi_range, u_range)
        assert chis == expected, (forms, chi_range, u_range)
        for chi in range(chi_range[0], chi_range[1] + 1):
            us = [u for u in range(u_range[0], u_range[1] + 1)
                  if all(e + a * chi + b * u >= 0 for e, a, b in forms)]
            got = _affine_interval(_u_inputs(forms, chi), *u_range)
            assert list(got) == us, (forms, chi, u_range)
            if chi in chis:
                seen["kept chi, no integer u"] += not us
            else:
                # Each form alone has a real u here, so only a pair cuts.
                seen["cut by a pair"] += all(chis_of_forms_with_a_real_u(
                    [form], (chi, chi), u_range) for form in forms)
        seen["no chi"] += not chis
        seen["some chi"] += 0 < len(chis) < chi_range[1] - chi_range[0] + 1
        seen["every chi"] += len(chis) == chi_range[1] - chi_range[0] + 1
        seen["b = 0 and b of both signs"] += (
            {0, 1, -1} <= {(b > 0) - (b < 0) for _, _, b in forms})
    assert min(seen.values()) >= 20, seen


def test_the_v_stage_is_exact_on_random_forms():
    # At each u the v-step's inputs give exactly the v at which every
    # curved form e + b*u + uu*u^2 + c*v holds; each form's zero runs
    # through the v-range at some u near 0.
    rng, seen = random.Random(34), Counter()
    for _ in range(300):
        v0 = rng.randint(-10 ** 5, 10 ** 5)
        v_range = (v0, v0 + rng.randint(0, 40))
        at_chi = []
        for _ in range(rng.randint(1, 4)):
            b, uu = rng.randint(-500, 500), rng.randint(-30, 30)
            c, u = rng.choice((-7, -1, 0, 1, 3)), rng.randint(-3, 3)
            e = -(b + uu * u) * u - c * rng.randint(*v_range)
            at_chi.append((e + rng.randint(-10, 10), b, uu, c))
        for u in range(-12, 13):
            vs = [v for v in range(v_range[0], v_range[1] + 1)
                  if all(e + b * u + uu * u * u + c * v >= 0
                         for e, b, uu, c in at_chi)]
            got = _affine_interval(_v_inputs(at_chi, u), *v_range)
            assert list(got) == vs, (at_chi, u, v_range)
            seen["every v" if len(vs) == v_range[1] - v_range[0] + 1
                 else "some v" if vs else "no v"] += 1
    assert len(seen) == 3 and min(seen.values()) >= 100, seen
