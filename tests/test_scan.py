"""Scanner: oracle equivalence, worker determinism, formats, box handling."""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import random
import re
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import naive_feasible_rows
from p6fold.constraints import (HypothesisConfig, evaluate, feasible_cells,
                                is_feasible)
from p6fold.invariants import InvariantTuple
from p6fold.scan import (CSV_HEADER, CSV_PROFILE_COLUMNS, ScanBox,
                         iter_feasible, scan)

# The attribute p6fold.scan is the scan function, not the module.
scan_module = importlib.import_module("p6fold.scan")
constraints_module = importlib.import_module("p6fold.constraints")

GEOMETRIC = HypothesisConfig()


def run_scan(box, cfg=GEOMETRIC, **kwargs):
    sink = io.StringIO()
    result = scan(box, cfg, sink, **kwargs)
    return result, sink.getvalue()


def test_example_box_contains_the_two_small_threefolds():
    box = ScanBox.of(d=(1, 2), delta=-2, chi=1, u=(1, 2), v=(0, 2))
    assert box.volume() == 12
    result, out = run_scan(box)
    rows = out.strip().splitlines()
    assert rows[0] == "d,delta,chi,u,v"
    assert "1,-2,1,1,0" in rows
    assert "2,-2,1,2,2" in rows
    assert result == type(result)(scanned=12, feasible=len(rows) - 1)


def test_odd_delta_box_is_empty():
    box = ScanBox.of(d=(1, 10), delta=(-1, -1), chi=1, u=(1, 3), v=(0, 5))
    result, out = run_scan(box)
    assert result.feasible == 0
    assert out.strip() == "d,delta,chi,u,v"
    box2 = ScanBox.of(d=(1, 10), delta=(1, 1), chi=1, u=(1, 3), v=(0, 5))
    assert run_scan(box2)[0].feasible == 0


def test_single_point_box():
    box = ScanBox.of(d=4, delta=0, chi=1, u=6, v=32)
    result, out = run_scan(box)
    assert result == type(result)(scanned=1, feasible=1)
    assert out.strip().splitlines()[1] == "4,0,1,6,32"


def random_box(rng, max_volume=1500):
    while True:
        spans = []
        for center, spread in ((3, 4), (-2, 4), (1, 2), (2, 3), (1, 6)):
            lo = rng.randint(center - spread, center + spread)
            hi = lo + rng.randint(0, 4)
            spans.append((lo, hi))
        box = ScanBox(*spans)
        if box.volume() <= max_volume:
            return box


# Tuples feasible under every config below.  Each wide-v (wide-u) box is
# drawn around one, so it has rows, and its v (u) range is wide enough for
# the per-cell v-interval (the per-triple u-interval) to clip both ends.
ANCHORS = ((3, 0, 1, 7, 24), (4, 0, 1, 6, 28), (4, 2, 1, 11, 45),
           (5, -2, 1, 1, 10))
WIDE_V_CONFIGS = (
    HypothesisConfig(geometric_mode=False),
    HypothesisConfig(ks2_cap=9),
    HypothesisConfig(min_degree=3, ks2_cap=9),
)


def wide_v_box(rng):
    *rest, v = rng.choice(ANCHORS)
    spans = [(x - rng.randint(0, 2), x + rng.randint(0, 2)) for x in rest]
    lo = v - rng.randint(0, 40)
    spans.append((lo, lo + rng.randint(40, 60)))
    return ScanBox(*spans)


def wide_u_box(rng):
    d, delta, chi, u, v = rng.choice(ANCHORS)
    lo = u - rng.randint(5, 15)
    return ScanBox(d=(d - rng.randint(0, 1), d + rng.randint(0, 1)),
                   delta=(delta - 2, delta + 2),
                   chi=(chi - rng.randint(0, 1), chi + rng.randint(0, 1)),
                   u=(lo, lo + rng.randint(20, 30)),
                   v=(v - rng.randint(0, 8), v + rng.randint(0, 8)))


def sign_flip_box(rng):
    """A box whose d-range spans -3..2: H2's u-slope is d, so its row moves
    between the lower and upper u-bounds of feasible_cells as d changes
    sign."""
    delta, chi = rng.randint(-4, -2), rng.randint(-1, 1)
    u, v = rng.randint(-4, 1), rng.randint(-5, 5)
    return ScanBox(d=(-3, 2), delta=(delta, delta + 8), chi=(chi, 2),
                   u=(u, u + 12), v=(v, v + 40))


def test_matches_naive_filter_on_random_boxes():
    rng = random.Random(20250101)
    cases = [(random_box(rng), GEOMETRIC) for _ in range(12)]
    cases += [(wide_v_box(rng), cfg)
              for cfg in WIDE_V_CONFIGS for _ in range(3)]
    cases += [(wide_u_box(rng), cfg)
              for cfg in WIDE_V_CONFIGS for _ in range(2)]
    cases += [(sign_flip_box(rng), cfg)
              for cfg in WIDE_V_CONFIGS for _ in range(2)]
    degrees = set()
    for box, cfg in cases:
        expected = naive_feasible_rows(box, cfg)
        result, out = run_scan(box, cfg)
        assert out.strip().splitlines()[1:] == expected
        assert result.scanned == box.volume()
        assert result.feasible == len(expected)
        if box.d == (-3, 2):
            degrees.update(int(row.split(",")[0]) for row in expected)
    # The sign-flip boxes have rows at d < 0, d = 0 (no H2 u-slope) and d > 0.
    assert min(degrees) < 0 < max(degrees) and 0 in degrees


# The first scan-sparse and scan-dense benchmark boxes.
SPARSE_BOX = "d=1..10,delta=-2..28,chi=1..3,u=4..15,v=-4..36"
DENSE_BOX = "d=20..20,delta=40..60,chi=1..3,u=13..33,v=641..661"


@pytest.mark.parametrize("spec, counts", [
    (SPARSE_BOX, (140, 170, 15, 283, 47, 44, 84, 69)),
    (DENSE_BOX, (0, 21, 11, 693, 693, 14346, 14373, 14358)),
    # H2 is below 0 at every corner of this box's one row; the chi-step
    # empties it.
    ("d=3..3,delta=0..0,chi=2..2,u=8..14,v=91..122",
     (0, 1, 1, 0, 0, 0, 17, 2)),
])
def test_scan_kernel_calls_grow_with_rows_not_cells(monkeypatch, spec,
                                                    counts):
    # feasible_cells reads each constraint's quadratic part and its chi, u
    # and v coefficients once per config (15 kernel calls), and no cell.
    # Each degree costs one call, which gives its delta-interval: the rows
    # that S2 + S4 = d^2 - 3d - delta keeps, and on which every constraint
    # but H1 and H2 holds at some corner of the (chi, u, v) box.  Each row
    # of it costs one call and reaches the chi-interval, and no other row
    # is read; is_feasible reads each emitted row once.  Each cell of a
    # reached row that satisfies every constraint but S5, S6 and H1 gets a
    # v-interval.
    cfg = HypothesisConfig()
    kernel = cfg._kernel
    box = ScanBox.parse(spec)
    calls, steps = [], {}

    def counting_kernel(*t):
        calls.append(t)
        return kernel(*t)

    # On these boxes no other axis has the delta-, the chi- or the v-axis's
    # bounds, so each delta-, chi- or v-interval is one _affine_interval
    # call over them.
    affine_interval = constraints_module._affine_interval

    def counting_affine_interval(pairs, lo, hi):
        if (lo, hi) in steps:
            steps[lo, hi] += 1
        return affine_interval(pairs, lo, hi)

    monkeypatch.setitem(vars(cfg), "_kernel", counting_kernel)
    monkeypatch.setattr(constraints_module, "_affine_interval",
                        counting_affine_interval)
    axes = [range(lo, hi + 1) for lo, hi in box.ranges()]
    rows = list(product(*axes[:2]))
    dropped = [(d, delta) for d, delta in rows if d * d - 3 * d - delta < 0]
    corners = list(product(*box.ranges()[2:]))
    reached = [(d, delta) for d, delta in rows if (d, delta) not in dropped
               and all(max(values) >= 0 for cid, *values in zip(
                   cfg.constraint_ids, *(kernel(d, delta, *corner)
                                         for corner in corners))
                   if cid not in ("H1", "H2"))]
    cells = [cell for cell in product(*axes[:4])
             if all(e.satisfied for e in evaluate(
                 InvariantTuple(*cell, 0), GEOMETRIC).entries
                 if e.id not in ("S5", "S6", "H1"))]
    v_cells = [cell for cell in cells if cell[:2] in reached]
    counted = []
    for _ in range(2):  # a fresh config, then the same config reused
        calls.clear()
        steps.update(dict.fromkeys((box.delta, box.chi, box.v), 0))
        result, _ = run_scan(box, cfg)
        counted.append(len(calls))
        assert steps == {box.delta: len(axes[0]), box.chi: len(reached),
                         box.v: len(v_cells)}
    assert (len(dropped), len(rows) - len(dropped), len(reached),
            len(cells), len(v_cells), result.feasible, *counted) == counts
    reused = len(axes[0]) + len(reached) + result.feasible
    assert counted == [15 + reused, reused]


# A corner of the first sparse box: the cells (5, 0, 1, 9) and
# (6, 0, 1, 7..10) satisfy every constraint but S5, S6 and H1, so they pass
# the chi- and u-steps, but S5 needs a v above the box there.
S5_CUT_BOX = "d=5..6,delta=0..0,chi=1..1,u=4..10,v=-4..36"


def test_s5_and_s6_cut_only_in_the_v_step(monkeypatch):
    box = ScanBox.parse(S5_CUT_BOX)
    kernel, ids = GEOMETRIC._kernel, GEOMETRIC.constraint_ids
    s5, s6 = ids.index("S5"), ids.index("S6")
    axes = [range(lo, hi + 1) for lo, hi in box.ranges()]
    past_u = [cell for cell in product(*axes[:4])
              if all(value >= 0 for cid, value in zip(ids, kernel(*cell, 0))
                     if cid not in ("S5", "S6", "H1"))]
    no_v = [cell for cell in past_u
            if not any(is_feasible((*cell, v), GEOMETRIC) for v in axes[4])]
    s5_or_s6 = [cell for cell in no_v
                if all(min(kernel(*cell, v)[s5], kernel(*cell, v)[s6]) < 0
                       for v in axes[4])]
    assert s5_or_s6 == [(5, 0, 1, 9), (6, 0, 1, 7), (6, 0, 1, 8),
                        (6, 0, 1, 9), (6, 0, 1, 10)]
    # Each cell past the u-step costs one v-solve, which is empty exactly
    # where the cell has no feasible v.
    affine_interval, solves = constraints_module._affine_interval, []

    def recording_affine_interval(pairs, lo, hi):
        got = affine_interval(pairs, lo, hi)
        if (lo, hi) == box.v:
            solves.append(got)
        return got

    monkeypatch.setattr(constraints_module, "_affine_interval",
                        recording_affine_interval)
    result, out = run_scan(box)
    expected = naive_feasible_rows(box, GEOMETRIC)
    assert out.strip().splitlines()[1:] == expected
    assert result.feasible == len(expected) > 0
    assert len(solves) == len(past_u)
    assert sum(not vs for vs in solves) == len(no_v)


def test_hot_path_builds_no_constraint_records(monkeypatch):
    # Only a report's entries turn the kernel's tuple of ints into
    # ConstraintValue records, afresh on each read; the scan, is_feasible,
    # feasible_cells, evaluate and the report's JSON never do.
    built = []
    real = constraints_module.ConstraintValue

    def counting_constraint_value(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(constraints_module, "ConstraintValue",
                        counting_constraint_value)
    result, _ = run_scan(ScanBox.parse(SPARSE_BOX))
    assert result.feasible > 0
    for cfg in (GEOMETRIC,) + WIDE_V_CONFIGS:
        for d, delta, chi, u, v in ANCHORS:
            cells = feasible_cells(((d, d), (delta, delta), (-3, 3),
                                    (-10, 40), (-10, 60)), cfg)
            assert any(cell[:4] == (d, delta, chi, u) and v in cell[4]
                       for cell in cells)
            assert is_feasible((d, delta, chi, u, v), cfg)
    report = evaluate(ANCHORS[0], GEOMETRIC)
    report.to_json_dict()
    report.value_of("S1")
    assert report.feasible
    assert built == []
    entries = report.entries  # the count sees what each read builds
    assert len(built) == len(GEOMETRIC.constraint_ids) == 13
    assert report.entries == entries
    assert len(built) == 26


def test_worker_counts_produce_identical_bytes():
    rng = random.Random(8)
    for _ in range(4):
        box = random_box(rng)
        _, serial = run_scan(box, workers=1)
        for workers in (2, 3, 7):
            _, parallel = run_scan(box, workers=workers)
            assert parallel == serial


def test_more_workers_than_degrees():
    box = ScanBox.of(d=(1, 2), delta=-2, chi=1, u=(1, 2), v=(0, 2))
    _, serial = run_scan(box, workers=1)
    _, parallel = run_scan(box, workers=16)
    assert parallel == serial


def test_iter_feasible_yields_profiles_in_lex_order():
    box = ScanBox.of(d=(1, 4), delta=(-2, 0), chi=1, u=(1, 6), v=(0, 32))
    pairs = list(iter_feasible(box, GEOMETRIC))
    tuples = [t for t, _ in pairs]
    assert tuples == sorted(tuples)
    assert InvariantTuple(4, 0, 1, 6, 32) in tuples
    for t, prof in pairs:
        assert prof.h3 == t.d


def test_profile_columns():
    box = ScanBox.of(d=4, delta=0, chi=1, u=6, v=32)
    _, out = run_scan(box, with_profile=True)
    header, row = out.strip().splitlines()
    assert header == ("d,delta,chi,u,v,h2k,hk2,k3,hc2,c3,KS2,g,"
                      "s1h2,s20h,s11h,s300,s210,s111")
    assert row == "4,0,1,6,32,-8,16,-32,12,0,4,1,8,4,12,0,8,16"


def test_jsonl_format():
    box = ScanBox.of(d=(1, 2), delta=-2, chi=1, u=(1, 2), v=(0, 2))
    _, out = run_scan(box, fmt="jsonl")
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["d"] for r in records] == [1, 2]
    assert records[0]["KS2"] == 9
    assert records[1]["s111"] == 2


# Raw-mode tuples with rows nearby: odd delta (g is "p/2" text), and
# negative d, chi and u.  Each box around one also reaches negative v.
RAW_ANCHORS = ((-6, 12, -1, -7, 30), (-2, 5, 0, 7, 26), (4, 3, 0, 10, 25))

def raw_box(rng):
    *rest, v = rng.choice(RAW_ANCHORS)
    spans = [(x - rng.randint(1, 3), x + rng.randint(1, 3)) for x in rest]
    spans.append((-rng.randint(1, 5), v + rng.randint(0, 10)))
    return ScanBox(*spans)


RAW = HypothesisConfig(geometric_mode=False)
CAPPED = HypothesisConfig(ks2_cap=9)


def narrow_v_box(rng, anchor, v_lo, v_hi):
    *rest, v = anchor
    spans = [(x - rng.randint(1, 2), x + rng.randint(1, 2)) for x in rest]
    return ScanBox(*spans, (v + v_lo, v + v_hi))


def clipped_cells(box, cfg):
    """The cells of ``box`` whose v-interval the box cuts at both ends."""
    v0, v1 = box.v
    wider = {tuple(cell): vs for *cell, vs in feasible_cells(
        box.ranges()[:4] + ((v0 - 1, v1 + 1),), cfg)}
    return [cell for *cell, vs, _keep in scan_module._feasible_cells(box, cfg)
            if len(wider[tuple(cell)]) == len(vs) + 2]


def reference_lines(pairs):
    """The JSONL and ``--with-profile`` CSV lines of ``(tuple, profile)``
    pairs, by ``json.dumps`` of the tuple and ``Profile.to_json_dict``."""
    jsonl, csv = [], [CSV_HEADER + "," + ",".join(CSV_PROFILE_COLUMNS)]
    for t, prof in pairs:
        record = {"d": t.d, "delta": t.delta, "chi": t.chi, "u": t.u,
                  "v": t.v, **prof.to_json_dict()}
        jsonl.append(json.dumps(record))
        csv.append(",".join(str(x) for x in (
            *t, *(record[col] for col in CSV_PROFILE_COLUMNS))))
    return jsonl, csv


def test_rows_are_the_profile_dict_byte_for_byte():
    # Each JSONL row is json.dumps of the tuple and Profile.to_json_dict, and
    # each --with-profile CSV row is the str() of that dict's columns.  The
    # narrow boxes have a v-axis of one value, or one that the v-interval of
    # the anchor's cell overhangs at both ends.
    rng = random.Random(7)
    cases = [(raw_box(rng), RAW) for _ in range(12)]
    cases.append((ScanBox.parse(DENSE_BOX), GEOMETRIC))
    narrow = [(narrow_v_box(rng, anchor, *v_span), cfg)
              for cfg, anchors in ((RAW, RAW_ANCHORS), (CAPPED, ANCHORS[1:2]))
              for anchor in anchors for v_span in ((0, 0), (-1, 1))]
    cases += narrow
    assert any(box.v[0] == box.v[1] and any(iter_feasible(box, cfg))
               for box, cfg in narrow)
    clipped = [(cell, cfg) for box, cfg in narrow
               for cell in clipped_cells(box, cfg)]
    assert any(cfg is RAW and cell[1] % 2 for cell, cfg in clipped)
    assert any(cfg is CAPPED for _, cfg in clipped)
    rows = []
    for box, cfg in cases:
        pairs = list(iter_feasible(box, cfg))
        rows += [t for t, _ in pairs]
        jsonl, csv = reference_lines(pairs)
        assert run_scan(box, cfg, fmt="jsonl")[1].splitlines() == jsonl
        assert run_scan(box, cfg, with_profile=True)[1].splitlines() == csv
    assert any(t.delta % 2 for t in rows)
    assert any(t.d < 0 for t in rows)
    assert any(t.chi < 0 for t in rows)
    assert any(t.u < 0 for t in rows)
    assert len(rows) > 14346  # the dense box alone has 14,346


@pytest.mark.parametrize("kwargs", [{}, {"with_profile": True},
                                    {"fmt": "jsonl"}])
@pytest.mark.parametrize("spec", [SPARSE_BOX, DENSE_BOX])
def test_every_row_goes_through_is_feasible(monkeypatch, spec, kwargs):
    # The benchmark's tracer counts rows by patching this name.
    checked = []
    real = scan_module.is_feasible

    def counting_is_feasible(t, cfg):
        checked.append(tuple(t))
        return real(t, cfg)

    monkeypatch.setattr(scan_module, "is_feasible", counting_is_feasible)
    result, out = run_scan(ScanBox.parse(spec), **kwargs)
    assert len(checked) == result.feasible > 0
    if kwargs.get("fmt") == "jsonl":
        records = [json.loads(line) for line in out.splitlines()]
        rows = [tuple(r[axis] for axis in ("d", "delta", "chi", "u", "v"))
                for r in records]
    else:
        rows = [tuple(map(int, line.split(",")[:5]))
                for line in out.splitlines()[1:]]
    assert rows == checked


@pytest.mark.parametrize("spec, cfg", [
    ("d=20,delta=40..44,chi=1..2,u=13..33,v=641..661", GEOMETRIC),
    ("d=-4..-1,delta=2..7,chi=-1..1,u=5..9,v=-5..40", RAW),
])
def test_partly_kept_cells_render_only_the_kept_rows(monkeypatch, spec, cfg):
    # feasible_cells is exact, so is_feasible keeps every row of a cell;
    # here it also drops each v divisible by 3, so most cells keep only some
    # rows.
    box = ScanBox.parse(spec)
    feasible = list(iter_feasible(box, cfg))
    pairs = [(t, prof) for t, prof in feasible if t.v % 3]
    cells = {}
    for t, _ in feasible:
        cells.setdefault(t[:4], []).append(t.v % 3 != 0)
    partly = [cell for cell, keep in cells.items()
              if any(keep) and not all(keep)]
    assert partly
    if cfg is RAW:  # odd-delta cells kept in part, and one kept not at all
        assert any(delta % 2 for _, delta, _, _ in partly)
        assert any(not any(keep) for keep in cells.values())
    real = scan_module.is_feasible
    monkeypatch.setattr(scan_module, "is_feasible",
                        lambda t, cfg: real(t, cfg) and t[4] % 3 != 0)
    jsonl, csv = reference_lines(pairs)
    plain = [CSV_HEADER] + [",".join(map(str, t)) for t, _ in pairs]
    for kwargs, expected in (({}, plain), ({"with_profile": True}, csv),
                             ({"fmt": "jsonl"}, jsonl)):
        result, out = run_scan(box, cfg, **kwargs)
        assert out.splitlines() == expected
        assert out.endswith("\n")
        assert result.feasible == len(pairs) > 0


def test_box_parse_round_trip():
    box = ScanBox.parse("d=1..2,delta=-2,chi=1,u=1..2,v=0..2")
    assert box == ScanBox.of(d=(1, 2), delta=-2, chi=1, u=(1, 2), v=(0, 2))


@pytest.mark.parametrize("spec", [
    "d=1..2",                                 # missing axes
    "d=2..1,delta=0,chi=1,u=1,v=0",           # empty range
    "d=1,delta=0,chi=1,u=1,v=0,q=3",          # unknown axis
    "d=1,d=2,delta=0,chi=1,u=1,v=0",          # duplicate axis
    "d=x,delta=0,chi=1,u=1,v=0",              # non-integer
    "d=1,,delta=0,chi=1,u=1,v=0",             # empty component
])
def test_box_parse_rejects(spec):
    with pytest.raises(ValueError):
        ScanBox.parse(spec)


@pytest.mark.parametrize("text", [None, 5, b"d=1,delta=0,chi=1,u=1,v=0",
                                  ["d=1"]])
def test_box_parse_needs_a_str(text):
    # A non-str used to raise AttributeError from text.split.
    with pytest.raises(ValueError, match=re.escape(
            f"ScanBox.parse needs a str, got {text!r}")):
        ScanBox.parse(text)


def test_box_of_rejects_unknown_axes():
    with pytest.raises(ValueError, match=r"unknown axes: \['w'\]"):
        ScanBox.of(d=1, delta=0, chi=1, u=1, v=0, w=1)


@pytest.mark.parametrize("d", [(1.7, 2), 1.5, (1, "2"), (1, 2, 3), None])
def test_box_of_rejects_non_integer_ranges(d):
    # (1.7, 2) used to become (1, 2) and 1.5 to raise TypeError.
    with pytest.raises(ValueError, match="d must be an integer or a pair"):
        ScanBox.of(d=d, delta=-2, chi=1, u=1, v=0)


@pytest.mark.parametrize("axis, value, message", [
    ("d", (3, 1), "empty range for d: 3..1"),
    ("u", (1.0, 3), r"u must be an integer or a pair of integers, got \(1.0"),
    ("chi", (1, 2, 3), "chi must be an integer or a pair"),
    ("v", None, "v must be an integer or a pair"),
])
def test_box_built_directly_is_checked_like_box_of(axis, value, message):
    # ScanBox(d=(3, 1), ...) used to give volume() == -2 and a scan result
    # with scanned=-2; u=(1.0, 3) failed deep inside the scan.
    axes = {**dict(d=(1, 2), delta=-2, chi=1, u=(1, 2), v=(0, 2)),
            axis: value}
    for build in (ScanBox, ScanBox.of):
        with pytest.raises(ValueError, match=message):
            build(**axes)


def test_box_built_directly_equals_box_of():
    # delta=0 used to raise a bare TypeError from volume() and scan().
    axes = dict(d=(1, 2), delta=0, chi=1, u=[1, 2], v=(0, 2))
    box = ScanBox(**axes)
    assert box == ScanBox.of(**axes)
    assert (box.delta, box.u) == ((0, 0), (1, 2))
    assert run_scan(box)[0].scanned == box.volume() == 12


@pytest.mark.parametrize("box", [
    ScanBox.of(d=(1, 2), delta=-1, chi=1, u=(1, 2), v=(0, 2)),  # no rows
    ScanBox.of(d=(1, 2), delta=-2, chi=1, u=(1, 2), v=(0, 2)),  # two rows
])
def test_unknown_format_is_rejected_before_scanning(box):
    sink = _FailingSink()
    with pytest.raises(ValueError, match="unknown scan format 'xml'"):
        scan(box, GEOMETRIC, sink, fmt="xml")
    assert sink.calls == 0


@pytest.mark.parametrize("kwargs, message", [
    *(({"workers": w}, f"workers must be an integer >= 1, got {w!r}")
      for w in ("x", None, 2.5, True, -3, 0)),
    *(({"with_profile": p}, f"with_profile must be a bool, got {p!r}")
      for p in ("no", 0, 1, None)),
])
def test_ignored_arguments_are_still_checked_before_scanning(kwargs,
                                                             message):
    # workers=0 used to run, and with_profile="no" appended the profile
    # columns: the string is truthy.
    sink = _FailingSink()
    box = ScanBox.of(d=(1, 2), delta=-2, chi=1, u=(1, 2), v=(0, 2))
    with pytest.raises(ValueError, match=re.escape(message)):
        scan(box, GEOMETRIC, sink, **kwargs)
    assert sink.calls == 0


@pytest.mark.parametrize("box, cfg, message", [
    ("d=1..2,delta=-2,chi=1,u=1..2,v=0..2", GEOMETRIC, "needs a ScanBox, "
     "got 'd=1..2,delta=-2,chi=1,u=1..2,v=0..2'"),
    (((1, 2), (-2, -2), (1, 1), (1, 2), (0, 2)), GEOMETRIC,
     "needs a ScanBox, got ((1, 2), (-2, -2), (1, 1), (1, 2), (0, 2))"),
    (ScanBox.of(d=(1, 2), delta=-2, chi=1, u=(1, 2), v=(0, 2)), None,
     "needs a HypothesisConfig, got None"),
])
def test_scan_and_iter_feasible_check_box_and_config_first(box, cfg,
                                                           message):
    # Each used to raise AttributeError on box.ranges or cfg._kernel.
    sink = _FailingSink()
    with pytest.raises(ValueError, match=re.escape("scan " + message)):
        scan(box, cfg, sink)
    assert sink.calls == 0
    with pytest.raises(ValueError,
                       match=re.escape("iter_feasible " + message)):
        next(iter_feasible(box, cfg))


class _FailingSink:
    """Takes ``good`` writes, then raises on every write."""

    def __init__(self, good=0):
        self.calls, self.good, self.text = 0, good, ""

    def write(self, text):
        self.calls += 1
        if self.calls > self.good:
            raise OSError("sink closed")
        self.text += text


def test_first_failed_write_propagates_and_ends_the_scan(monkeypatch):
    # Rows reach the sink in chunks, so a sink that fails mid-scan holds
    # the chunks it took; the failure propagates, and no later write is
    # tried.
    monkeypatch.setattr(scan_module, "_WRITE_BUDGET", 1000)
    box = ScanBox.parse(DENSE_BOX)
    _, out = run_scan(box)
    sink = _FailingSink(good=2)
    with pytest.raises(OSError, match="sink closed"):
        scan(box, GEOMETRIC, sink)
    assert sink.calls == 3
    assert 0 < len(sink.text) <= 2000 and out.startswith(sink.text)


def test_volume_and_scanned_agree():
    box = ScanBox.of(d=(-3, 3), delta=(-2, 2), chi=(0, 2), u=(1, 2), v=0)
    assert box.volume() == 7 * 5 * 3 * 2
    result, _ = run_scan(box, workers=2)
    assert result.scanned == box.volume()


class _RecordingSink:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


# A byte budget and a slice size so small that chunks and slices split
# cells: most JSONL rows alone are longer than the budget.
TINY_LIMITS = {"_WRITE_BUDGET": 100, "_SLICE_ROWS": 3}


def streamed(box, cfg, limits, **kwargs):
    """``scan``'s result and its writes, under ``limits`` if given, and
    checked against them: a write longer than the budget is one slice."""
    sink = _RecordingSink()
    with pytest.MonkeyPatch.context() as mp:
        for name, value in (limits or {}).items():
            mp.setattr(scan_module, name, value)
        result = scan(box, cfg, sink, **kwargs)
        budget, rows = scan_module._WRITE_BUDGET, scan_module._SLICE_ROWS
    assert all(0 < len(text) <= budget or text.count("\n") <= rows
               for text in sink.writes)
    return result, "".join(sink.writes)


GOLDENS = json.loads((Path(__file__).resolve().parents[1] / "bench"
                      / "goldens.json").read_text())
GOLDEN_SCANS = ([(golden, "csv") for golden in GOLDENS["scan-sparse"]]
                + [(golden, "jsonl") for golden in GOLDENS["scan-dense"]]
                + [(GOLDENS["probe"]["scan"], "csv")])


@pytest.mark.parametrize("limits", [None, TINY_LIMITS],
                         ids=["default", "tiny"])
def test_streamed_goldens_keep_their_bytes(limits):
    # Every benchmark box in its format, against the digest of the output
    # that was written in one call.
    for golden, fmt in GOLDEN_SCANS:
        result, out = streamed(ScanBox.parse(golden["box"]), GEOMETRIC,
                               limits, fmt=fmt)
        assert (hashlib.sha256(out.encode()).hexdigest(), result.feasible
                ) == (golden["sha256"], golden["rows"]), golden["box"]


def test_a_plain_csv_scan_never_calls_profile_numbers(monkeypatch):
    # A plain CSV row is the tuple's five ints, yet scan() used to compute
    # every profile number twice per cell for it.  The profile columns and
    # JSONL rows still read them; test_streamed_goldens_keep_their_bytes
    # and test_rows_are_the_profile_dict_byte_for_byte pin their bytes.
    def refuse(*t):
        raise AssertionError(f"profile_numbers{t} called")

    monkeypatch.setattr(scan_module, "profile_numbers", refuse)
    for golden, fmt in GOLDEN_SCANS:
        if fmt == "csv":
            result, out = run_scan(ScanBox.parse(golden["box"]))
            assert (hashlib.sha256(out.encode()).hexdigest(), result.feasible
                    ) == (golden["sha256"], golden["rows"]), golden["box"]
    box = ScanBox.parse(GOLDENS["scan-sparse"][0]["box"])
    for kwargs in ({"with_profile": True}, {"fmt": "jsonl"}):
        with pytest.raises(AssertionError, match="profile_numbers"):
            run_scan(box, **kwargs)


@st.composite
def anchored_boxes(draw):
    """A config and a box near one of its feasible anchors, which the box
    may miss, so some boxes give no row."""
    cfg, anchor = draw(st.sampled_from(
        [(cfg, anchor) for cfg in (GEOMETRIC, CAPPED) for anchor in ANCHORS]
        + [(RAW, anchor) for anchor in RAW_ANCHORS]))
    spans = []
    for x in anchor[:4]:
        lo = x + draw(st.integers(-2, 1))
        spans.append((lo, lo + draw(st.integers(0, 3))))
    lo = anchor[4] + draw(st.integers(-40, 5))
    spans.append((lo, lo + draw(st.integers(0, 60))))
    return cfg, ScanBox(*spans)


@settings(max_examples=30, deadline=None)
@example(case=(GEOMETRIC, ScanBox.of(d=(1, 2), delta=-1, chi=1, u=(1, 2),
                                     v=(0, 2))))
@example(case=(RAW, ScanBox.of(d=4, delta=3, chi=0, u=10, v=(-30, 60))))
@given(case=anchored_boxes())
def test_streamed_scans_equal_one_rendering_of_their_rows(case):
    # Each format's output is its reference lines, rendered one row at a
    # time and joined; an empty box gives the CSV header alone, or no
    # JSONL at all.
    cfg, box = case
    pairs = list(iter_feasible(box, cfg))
    jsonl, csv = reference_lines(pairs)
    plain = [CSV_HEADER] + [",".join(map(str, t)) for t, _ in pairs]
    for kwargs, lines in (({}, plain), ({"with_profile": True}, csv),
                          ({"fmt": "jsonl"}, jsonl)):
        expected = "".join(line + "\n" for line in lines)
        for limits in (None, TINY_LIMITS):
            result, out = streamed(box, cfg, limits, **kwargs)
            assert (out, result.feasible) == (expected, len(pairs))


class _CountingSink:
    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)


def test_scan_memory_stays_within_a_few_write_budgets():
    # 1.3 MB of JSONL, over 20 budgets, from cells of up to 841 rows, each
    # more than a slice; a scan that held its output would trace a peak of
    # several times its size.
    box = ScanBox.parse(
        "d=8,delta=40,chi=29..36,u=1..1300,v=-1000000..1000000")
    budget = scan_module._WRITE_BUDGET
    assert max(len(vs) for *_, vs in feasible_cells(box.ranges(), GEOMETRIC)
               ) > scan_module._SLICE_ROWS
    sink = _CountingSink()
    tracemalloc.start()
    try:
        scan(box, GEOMETRIC, sink, fmt="jsonl")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size >= 20 * budget
    assert peak < 8 * budget
