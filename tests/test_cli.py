"""CLI behaviour: exit codes, formats, round trips, thin-adapter equivalence."""

from __future__ import annotations

import errno
import hashlib
import importlib
import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from p6fold import bounds, constraints, identities, invariants, ring
from p6fold.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_all_passes(capsys):
    code, out, _ = run_cli(["verify", "--all"], capsys)
    assert code == 0
    assert "17/17 identities pass" in out
    assert out.count("PASS") == 17
    assert "FAIL" not in out


def test_verify_default_is_all(capsys):
    code, out, _ = run_cli(["verify"], capsys)
    assert code == 0
    assert "17/17 identities pass" in out


def test_verify_single_with_show(capsys):
    code, out, _ = run_cli(["verify", "--id", "DP", "--show"], capsys)
    assert code == 0
    assert "1*d^2" in out


# An empty --id used to run the whole registry and exit 0.
@pytest.mark.parametrize("identity_id", ["L8.1", ""])
def test_verify_unknown_id_is_usage_error(identity_id, capsys):
    code, out, err = run_cli(["verify", "--id", identity_id], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(
        f"error: unknown identity id {identity_id!r}; known ids: L3.4, ")


@pytest.mark.parametrize("args", [["--id", "L8.1", "--all"],
                                  ["--all", "--id", "DP"]])
def test_verify_id_with_all_is_usage_error(args, capsys):
    # --all used to override --id: --id L8.1 --all printed 17/17 and exited
    # 0, and the unknown id was never reported.
    code, out, err = run_cli(["verify", *args], capsys)
    assert (code, out) == (2, "")
    assert "not allowed with argument" in err


def test_verify_json_round_trip(capsys):
    code, out, _ = run_cli(["verify", "--json"], capsys)
    assert code == 0
    parsed = json.loads(out)
    assert len(parsed) == 17
    assert json.dumps(parsed, indent=2) == out.strip()


def test_verify_prints_the_diff_of_a_failed_identity(monkeypatch, capsys):
    # Misstate s(1)*h^2 by one d; L4.3.1 must fail and print lhs, rhs, diff.
    forms = identities.SCHUR_PARAM_FORMS
    monkeypatch.setattr(identities, "SCHUR_PARAM_FORMS",
                        (forms[0] + ring.d,) + forms[1:])
    code, out, _ = run_cli(["verify", "--id", "L4.3.1"], capsys)
    assert code == 1
    assert out.splitlines() == [
        "FAIL  L4.3.1   Schur number s(1)*h^2 of the twisted normal bundle",
        "        lhs: 2*d + 1*δ",
        "        rhs: 3*d + 1*δ",
        "        diff: -1*d",
        "0/1 identities pass",
    ]
    code, out, _ = run_cli(["verify", "--id", "L4.3.1", "--json"], capsys)
    assert code == 1
    [record] = json.loads(out)
    assert record["pass"] is False
    assert record["comparisons"] == [{"label": "", "lhs": "2*d + 1*δ",
                                      "rhs": "3*d + 1*δ", "diff": "-1*d",
                                      "equal": False}]


def test_profile_human(capsys):
    code, out, _ = run_cli(["profile", "--tuple", "1,-2,1,1,0"], capsys)
    assert code == 0
    assert "KS2" in out and "= 9" in out


def test_profile_json_matches_library(capsys):
    code, out, _ = run_cli(["profile", "--tuple", "4,0,1,6,32", "--json"],
                           capsys)
    assert code == 0
    expected = invariants.profile(
        invariants.InvariantTuple(4, 0, 1, 6, 32)).to_json_dict()
    assert json.loads(out) == expected
    assert json.dumps(json.loads(out), indent=2) == out.strip()


def test_check_feasible_exit_zero(capsys):
    code, out, _ = run_cli(["check", "--tuple", "4,0,1,6,32"], capsys)
    assert code == 0
    assert "feasible" in out


def test_check_parity_infeasible_exit_one(capsys):
    code, out, _ = run_cli(["check", "--tuple", "1,-1,1,1,0"], capsys)
    assert code == 1
    assert "infeasible" in out


def test_check_json_matches_library(capsys):
    code, out, _ = run_cli(
        ["check", "--tuple", "2,-2,1,2,2", "--kappa", "9", "--json"], capsys)
    assert code == 0
    expected = constraints.evaluate(
        invariants.InvariantTuple(2, -2, 1, 2, 2),
        constraints.HypothesisConfig(ks2_cap=9)).to_json_dict()
    assert json.loads(out) == expected
    assert json.dumps(json.loads(out), indent=2) == out.strip()


# check --json output, pinned byte for byte: odd delta in geometric mode
# reports B2 as "1" and fails it; the capped config adds K.
CHECK_ODD_DELTA_JSON = """\
{
  "tuple": {
    "d": 1,
    "delta": -1,
    "chi": 1,
    "u": 1,
    "v": 0
  },
  "constraints": [
    {
      "id": "B1",
      "value": "0",
      "ok": true
    },
    {
      "id": "B2",
      "value": "1",
      "ok": false
    },
    {
      "id": "B3",
      "value": "1",
      "ok": true
    },
    {
      "id": "B4",
      "value": "0",
      "ok": true
    },
    {
      "id": "B5",
      "value": "0",
      "ok": true
    },
    {
      "id": "S1",
      "value": "1",
      "ok": true
    },
    {
      "id": "S2",
      "value": "4",
      "ok": true
    },
    {
      "id": "S3",
      "value": "2",
      "ok": true
    },
    {
      "id": "S4",
      "value": "-5",
      "ok": false
    },
    {
      "id": "S5",
      "value": "-3",
      "ok": false
    },
    {
      "id": "S6",
      "value": "11",
      "ok": true
    },
    {
      "id": "H1",
      "value": "36",
      "ok": true
    },
    {
      "id": "H2",
      "value": "-5",
      "ok": false
    }
  ],
  "feasible": false
}
"""


CHECK_CAPPED_JSON = """\
{
  "tuple": {
    "d": 2,
    "delta": -2,
    "chi": 1,
    "u": 2,
    "v": 2
  },
  "constraints": [
    {
      "id": "B1",
      "value": "1",
      "ok": true
    },
    {
      "id": "B2",
      "value": "0",
      "ok": true
    },
    {
      "id": "B3",
      "value": "0",
      "ok": true
    },
    {
      "id": "B4",
      "value": "0",
      "ok": true
    },
    {
      "id": "B5",
      "value": "1",
      "ok": true
    },
    {
      "id": "S1",
      "value": "2",
      "ok": true
    },
    {
      "id": "S2",
      "value": "0",
      "ok": true
    },
    {
      "id": "S3",
      "value": "2",
      "ok": true
    },
    {
      "id": "S4",
      "value": "0",
      "ok": true
    },
    {
      "id": "S5",
      "value": "0",
      "ok": true
    },
    {
      "id": "S6",
      "value": "2",
      "ok": true
    },
    {
      "id": "H1",
      "value": "0",
      "ok": true
    },
    {
      "id": "H2",
      "value": "0",
      "ok": true
    },
    {
      "id": "K",
      "value": "1",
      "ok": true
    }
  ],
  "feasible": true
}
"""


@pytest.mark.parametrize("args, code, expected", [
    (["check", "--tuple", "1,-1,1,1,0", "--json"], 1, CHECK_ODD_DELTA_JSON),
    (["check", "--tuple", "2,-2,1,2,2", "--kappa", "9", "--json"], 0,
     CHECK_CAPPED_JSON),
])
def test_check_json_golden(args, code, expected, capsys):
    assert run_cli(args, capsys) == (code, expected, "")


# check output of the four Fano complete intersections beyond the three
# reference threefolds (cubic, quartic, (2,3), (2,2,2)) at the paper's cap,
# pinned byte for byte by test_rendering_golden: each is feasible, and
# H1 = H2 = 0 because K is a multiple of H.
CHECK_CUBIC_KAPPA9 = """\
  B1  ok  value = 2
  B2  ok  value = 0
  B3  ok  value = 2
  B4  ok  value = 0
  B5  ok  value = 6
  S1  ok  value = 6
  S2  ok  value = 0
  S3  ok  value = 12
  S4  ok  value = 0
  S5  ok  value = 0
  S6  ok  value = 24
  H1  ok  value = 0
  H2  ok  value = 0
  K   ok  value = 6
feasible
"""

CHECK_QUARTIC_KAPPA9 = """\
  B1  ok  value = 3
  B2  ok  value = 0
  B3  ok  value = 6
  B4  ok  value = 1
  B5  ok  value = 19
  S1  ok  value = 12
  S2  ok  value = 0
  S3  ok  value = 36
  S4  ok  value = 0
  S5  ok  value = 0
  S6  ok  value = 108
  H1  ok  value = 0
  H2  ok  value = 0
  K   ok  value = 9
feasible
"""

CHECK_CI_23_KAPPA9 = """\
  B1  ok  value = 5
  B2  ok  value = 0
  B3  ok  value = 8
  B4  ok  value = 1
  B5  ok  value = 19
  S1  ok  value = 18
  S2  ok  value = 12
  S3  ok  value = 42
  S4  ok  value = 0
  S5  ok  value = 36
  S6  ok  value = 90
  H1  ok  value = 0
  H2  ok  value = 0
  K   ok  value = 9
feasible
"""

CHECK_CI_222_KAPPA9 = """\
  B1  ok  value = 7
  B2  ok  value = 0
  B3  ok  value = 10
  B4  ok  value = 1
  B5  ok  value = 19
  S1  ok  value = 24
  S2  ok  value = 24
  S3  ok  value = 48
  S4  ok  value = 8
  S5  ok  value = 64
  S6  ok  value = 80
  H1  ok  value = 0
  H2  ok  value = 0
  K   ok  value = 9
feasible
"""


def test_check_raw_skips_basic_constraints(capsys):
    code, out, _ = run_cli(
        ["check", "--tuple", "1,-1,1,1,0", "--raw", "--json"], capsys)
    ids = [c["id"] for c in json.loads(out)["constraints"]]
    assert "B2" not in ids


COVER_FLAGS = ("covered_by_lines", "kx_plus_h_empty",
               "section_not_general_type")
CHECK_4_0_1_6_32 = ["check", "--tuple", "4,0,1,6,32", "--json"]


def _cli_flag(flag):
    return "--" + flag.replace("_", "-")


def _k_value(out):
    return next(c["value"] for c in json.loads(out)["constraints"]
                if c["id"] == "K")


@pytest.mark.parametrize("flag", COVER_FLAGS)
def test_check_cover_flag_sets_cap_and_notes(flag, capsys):
    # Each flag gives the stdout of --kappa 9: K = 9 - K_S^2, K_S^2 = 4.
    code, out, err = run_cli(CHECK_4_0_1_6_32 + [_cli_flag(flag)], capsys)
    assert err == f"note: {flag} forces K_S^2 <= 9; applying that cap\n"
    assert (code, out) == run_cli(CHECK_4_0_1_6_32 + ["--kappa", "9"],
                                  capsys)[:2]
    assert _k_value(out) == "5"


@pytest.mark.parametrize("flag", COVER_FLAGS)
def test_check_cover_flag_note_names_an_explicit_kappa(flag, capsys):
    # An explicit --kappa overrides the flag's cap of 9, and the note says
    # so instead of claiming to apply the 9; stdout is that of --kappa alone.
    code, out, err = run_cli(CHECK_4_0_1_6_32 + ["--kappa", "12",
                                                 _cli_flag(flag)], capsys)
    assert err == f"note: {flag} forces K_S^2 <= 9; --kappa 12 overrides it\n"
    assert (code, out) == run_cli(CHECK_4_0_1_6_32 + ["--kappa", "12"],
                                  capsys)[:2]
    assert _k_value(out) == "8"  # 12 - K_S^2 with K_S^2 = 4; cap 9 gives 5


@pytest.mark.parametrize("flags", [COVER_FLAGS[:2], COVER_FLAGS[1:],
                                   COVER_FLAGS[::-2]])
def test_check_two_cover_flags_give_one_cap_and_two_notes(flags, capsys):
    code, out, err = run_cli(CHECK_4_0_1_6_32 + [_cli_flag(f) for f in flags],
                             capsys)
    assert err == "".join(f"note: {f} forces K_S^2 <= 9; applying that cap\n"
                          for f in sorted(flags))
    assert (code, out) == run_cli(CHECK_4_0_1_6_32 + ["--kappa", "9"],
                                  capsys)[:2]
    assert [c["id"] for c in json.loads(out)["constraints"]].count("K") == 1


@pytest.mark.parametrize("command", [["check", "--tuple", "4,0,1,6,32"],
                                     ["scan", "--box", "d=4,delta=0,chi=1,"
                                                       "u=6,v=32"]])
def test_raw_with_a_min_degree_is_usage_error(command, capsys):
    # The raw kernel has no B1, so --min-degree 5 used to check no degree.
    code, out, err = run_cli(command + ["--raw", "--min-degree", "5",
                                        "--covered-by-lines"], capsys)
    assert (code, out) == (2, "")
    assert "--min-degree sets B1, which --raw skips" in err
    assert "note:" not in err and "# box volume" not in err


@pytest.mark.parametrize("workers", ["0", "-5"])
def test_scan_workers_below_1_is_usage_error(workers, capsys):
    code, out, err = run_cli(["scan", "--box", "d=4,delta=0,chi=1,u=6,v=32",
                              "--workers", workers], capsys)
    assert (code, out) == (2, "")
    assert f"--workers must be at least 1, got {workers}" in err
    assert "# box volume" not in err


def test_scan_empty_out_is_usage_error(capsys):
    # An empty --out used to write the scan to stdout and exit 0.
    code, out, err = run_cli(["scan", "--box", "d=4,delta=0,chi=1,u=6,v=32",
                              "--out", ""], capsys)
    assert (code, out) == (2, "")
    assert "--out" in err
    assert "# box volume" not in err


def test_malformed_tuple_names_the_field(capsys):
    code, _, err = run_cli(["check", "--tuple", "1,-2,zzz,1,0"], capsys)
    assert code == 2
    assert "'chi'" in err


def test_wrong_tuple_arity(capsys):
    code, _, err = run_cli(["check", "--tuple", "1,-2,1"], capsys)
    assert code == 2
    assert "5 comma-separated" in err


def test_bound_default_json(capsys):
    code, out, _ = run_cli(["bound", "--s", "34", "--kappa", "9"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["final_bound"] == 39304
    assert data["lifting_threshold"] == "1561/2"
    assert data["first_contradictory_degree"] == 16922
    assert json.dumps(data, indent=2) == out.strip()


def test_bound_human_trace(capsys):
    code, out, _ = run_cli(["bound", "--s", "34", "--human"], capsys)
    assert code == 0
    assert out.strip() == bounds.proof_trace(bounds.degree_bound(34, 9))


# Output bytes of the commands that print rationals and the ring's term
# text, pinned as literals (or a digest, for the long registry report), so
# a change of rendering cannot move a command and its reference together.
VERIFY_L34_SHOW = """\
PASS  L3.4     normal-bundle Chern classes n1, n2, n3
        lhs [n1]: 7*h + 1*k
        rhs [n1]: 7*h + 1*k
        lhs [n2]: 21*h^2 + 7*h*k + 1*k^2 - 1*c2
        rhs [n2]: 21*h^2 + 7*h*k + 1*k^2 - 1*c2
        lhs [n3]: 35*h^3 + 21*h^2*k + 7*h*k^2 - 7*h*c2 + 1*k^3 - 1*c3 + 48
        rhs [n3]: 35*h^3 + 21*h^2*k + 7*h*k^2 - 7*h*c2 + 1*k^3 - 1*c3 + 48
1/1 identities pass
"""

BOUND_34_HUMAN = """\
degree bound for s = 34 (effective even degree 34), K_S^2 cap 9 [paper mode]
  [1] lifting: a sectional curve on a degree-34 surface lifts the threefold \
into a degree-34 fourfold once d > 1561/2
  [2] genus bound (valid for d > 34^3 = 39304): \
delta <= d^2/34 + 14*d + 860
  [3] Schur semi-positivity + Hodge index with K_S^2 <= 9: \
33*delta^2 + (-d^2 + 34*d + 99)*delta + C(d) >= 0, \
so delta >= (d^2 - 34*d)/33 + (-3) once C(d) < 0
  [4] crossing: the lower bound [3] exceeds the upper bound [2] \
from d = 16922 on
  [5] applicability clamp: final bound = max(34^3, ceil(1561/2), 16922 - 1) \
= 39304
"""

BOUND_35_SHARP_HUMAN = """\
degree bound for s = 35 (effective even degree 34), K_S^2 cap 10 [sharp mode]
  [1] lifting: a sectional curve on a degree-35 surface lifts the threefold \
into a degree-35 fourfold once d > 821
  [2] genus bound (valid for d > 34^3 = 39304): \
delta <= d^2/34 + 14*d + 860
  [3] Schur semi-positivity + Hodge index with K_S^2 <= 10: \
33*delta^2 + (-d^2 + 34*d + 111)*delta + C(d) >= 0, \
so delta >= (d^2 - 34*d)/33 + (-37/11) once C(d) < 0
  [4] crossing: the lower bound [3] exceeds the upper bound [2] \
from d = 14693 on
  [5] applicability clamp: final bound = max(34^3, ceil(821), 14693 - 1) \
= 39304
"""

BOUND_34_JSON = """\
{
  "s": 34,
  "kappa": 9,
  "lifting_threshold": "1561/2",
  "s_cubed": 39304,
  "first_contradictory_degree": 16922,
  "final_bound": 39304,
  "delta_mode": "paper"
}
"""

PROFILE_ODD_DELTA_JSON = """\
{
  "h3": 1,
  "h2k": -3,
  "hk2": 14,
  "k3": -88,
  "hc2": 5,
  "kc2": -24,
  "c3": -6,
  "n3": 1,
  "KS2": 9,
  "c2S": 3,
  "pg": 0,
  "g": "1/2",
  "s1h2": 1,
  "s20h": 4,
  "s11h": 2,
  "s300": -5,
  "s210": -3,
  "s111": 11
}
"""


@pytest.mark.parametrize("args, expected", [
    (["verify", "--id", "L3.4", "--show"], VERIFY_L34_SHOW),
    (["bound", "--s", "34"], BOUND_34_JSON),
    (["bound", "--s", "34", "--human"], BOUND_34_HUMAN),
    (["bound", "--s", "35", "--kappa", "10", "--sharp", "--human"],
     BOUND_35_SHARP_HUMAN),
    (["profile", "--tuple", "1,-1,1,1,0", "--json"], PROFILE_ODD_DELTA_JSON),
    (["check", "--tuple", "3,0,1,7,24", "--kappa", "9"], CHECK_CUBIC_KAPPA9),
    (["check", "--tuple", "4,4,2,20,108", "--kappa", "9"],
     CHECK_QUARTIC_KAPPA9),
    (["check", "--tuple", "6,6,2,20,162", "--kappa", "9"], CHECK_CI_23_KAPPA9),
    (["check", "--tuple", "8,8,2,20,216", "--kappa", "9"],
     CHECK_CI_222_KAPPA9),
])
def test_rendering_golden(args, expected, capsys):
    assert run_cli(args, capsys) == (0, expected, "")


def test_verify_all_json_golden(capsys):
    code, out, err = run_cli(["verify", "--all", "--json"], capsys)
    assert (code, err, len(out)) == (0, "", 6169)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e379c088c4f51544d282d371158c31a9b29b0dec8938aadca251d72139abee78")


@pytest.mark.parametrize("args, size, digest", [
    (["--all"], 2856,
     "e0cd0ed18b826c5783f285e1e7d1a718a8b15d0de9c857481c9abff792338c27"),
    (["--id", "L3.4.1"], 120,
     "a00b0c1eeb0e23acb18d01e24c125c3be813f3d50165fb2ac06a9f92464126cd"),
    (["--id", "L3.4.2"], 160,
     "8b1b648b7df0f4d64c56fa2df49e820ab83345b5cb3536252fb7a5deac55ccb9"),
    (["--id", "L3.4.3"], 214,
     "0ec1c4108a55f36c5673bc539469ff1ed8e8f6e2343320680b488e5ac6ebe7db"),
])
def test_verify_show_golden(args, size, digest, capsys):
    # The human report pins every description and every side's text.
    code, out, err = run_cli(["verify", *args, "--show"], capsys)
    assert (code, err, len(out.encode())) == (0, "", size)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_bound_sharp_flag(capsys):
    code, out, _ = run_cli(["bound", "--s", "34", "--sharp"], capsys)
    data = json.loads(out)
    assert data["delta_mode"] == "sharp"
    assert data["final_bound"] == 39304


def test_bound_small_s_is_domain_error(capsys):
    code, _, err = run_cli(["bound", "--s", "20"], capsys)
    assert code == 3
    assert "cannot cross" in err


def test_bound_kappa_out_of_range_is_domain_error(capsys):
    code, out, err = run_cli(["bound", "--s", "34", "--kappa", "-10000"],
                             capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: kappa = -10000 is out of range")


def test_bound_kappa_without_negative_constant_term_is_domain_error(capsys):
    code, out, err = run_cli(
        ["bound", "--s", "34", "--kappa", "1000000000"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: kappa = 1000000000 is out of range")


def test_scan_stdout_and_summary(capsys):
    code, out, err = run_cli(
        ["scan", "--box", "d=1..2,delta=-2,chi=1,u=1..2,v=0..2"], capsys)
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "d,delta,chi,u,v"
    assert "1,-2,1,1,0" in rows and "2,-2,1,2,2" in rows
    assert "# box volume 12" in err
    assert "# scanned 12" in err


def test_scan_of_a_delta_range_past_s2_plus_s4_reads_few_rows(monkeypatch,
                                                              capsys):
    # S2 + S4 = d^2 - 3d - delta < 0 on every delta > -2 of both degrees,
    # and S4 < 0 at (2, -2, 1, 1, 0), so of the scan's 200000006 rows only
    # (1, -2) is read.  Each run builds a fresh config: 15 kernel calls for
    # its coefficients, one per degree, one per row read and one re-check
    # of the emitted row.  In raw mode with no cap the kernel is invariants
    # itself.
    real, calls = constraints.invariants, []

    def counting_invariants(*t):
        calls.append(t)
        return real(*t)

    monkeypatch.setattr(constraints, "invariants", counting_invariants)
    rows = [(d, delta) for d in (1, 2)
            for delta in range(-2, max(-2, d * d - 3 * d) + 1)
            if min(real(d, delta, 1, 1, 0)[:6]) >= 0]  # all but H1, H2
    assert rows == [(1, -2)]
    for _ in range(2):
        calls.clear()
        code, out, err = run_cli(
            ["scan", "--raw", "--box",
             "d=1..2,delta=-2..100000000,chi=1,u=1,v=0"], capsys)
        assert (code, out) == (0, "d,delta,chi,u,v\n1,-2,1,1,0\n")
        assert "# scanned 200000006 feasible 1" in err
        assert len(calls) == 15 + 2 + len(rows) + 1


def test_scan_to_file(tmp_path, capsys):
    out_file = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        ["scan", "--box", "d=4,delta=0,chi=1,u=6,v=32",
         "--with-profile", "--out", str(out_file)], capsys)
    assert code == 0
    assert out == ""
    lines = out_file.read_text().strip().splitlines()
    assert lines[1].startswith("4,0,1,6,32,")


def test_scan_bad_box_is_usage_error(capsys):
    code, _, err = run_cli(["scan", "--box", "d=2..1,delta=0,chi=1,u=1,v=0"],
                           capsys)
    assert code == 2
    assert "empty range" in err


def test_scan_jsonl(capsys):
    code, out, _ = run_cli(
        ["scan", "--box", "d=1..2,delta=-2,chi=1,u=1..2,v=0..2", "--jsonl"],
        capsys)
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["d"] for r in records] == [1, 2]


def test_mutually_exclusive_formats(capsys):
    code, _, err = run_cli(["profile", "--tuple", "1,-2,1,1,0",
                            "--human", "--json"], capsys)
    assert code == 2


def test_missing_subcommand_is_usage_error(capsys):
    assert run_cli([], capsys)[0] == 2


def test_scan_unwritable_out_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(
        ["scan", "--box", "d=1..2,delta=-2,chi=1,u=1..2,v=0..2",
         "--out", str(target)], capsys)
    assert (code, out) == (2, "")
    assert f"error: cannot write {target}" in err
    assert not target.parent.exists()


SMALL_BOX = "d=1..3,delta=-2..7,chi=1..2,u=1..5,v=0..7"
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="no /dev/full")


@needs_dev_full
def test_scan_out_to_full_device_is_usage_error(capsys):
    # Used to die with an OSError traceback and exit 1 ("infeasible").
    code, out, err = run_cli(
        ["scan", "--box", SMALL_BOX, "--out", "/dev/full"], capsys)
    assert (code, out) == (2, "")
    assert f"error: cannot write /dev/full: {os.strerror(errno.ENOSPC)}" in err


cli_module = importlib.import_module("p6fold.cli")
scan_module = importlib.import_module("p6fold.scan")
CHUNKED_BOX = "d=20,delta=40..44,chi=1..2,u=13..33,v=641..661"


class _FailAfter:
    """Passes ``good`` writes on to ``out``, then raises ENOSPC."""

    def __init__(self, out, good):
        self.out, self.good = out, good

    def write(self, text):
        if self.good == 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.good -= 1
        return self.out.write(text)


@pytest.fixture
def scan_fails_mid_write(monkeypatch):
    # Small chunks, and the third write of the scan fails.
    monkeypatch.setattr(scan_module, "_WRITE_BUDGET", 1000)
    real = cli_module.run_scan
    monkeypatch.setattr(cli_module, "run_scan", lambda box, cfg, out, **kw:
                        real(box, cfg, _FailAfter(out, 2), **kw))


def test_scan_out_failing_mid_scan_leaves_no_file(tmp_path, capsys,
                                                  scan_fails_mid_write):
    target = tmp_path / "rows.csv"
    code, out, err = run_cli(["scan", "--box", CHUNKED_BOX,
                              "--out", str(target)], capsys)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: cannot write {target}: "
                        f"{os.strerror(errno.ENOSPC)}\n")
    assert os.listdir(tmp_path) == []


def test_scan_out_failing_mid_scan_keeps_the_target(tmp_path, capsys,
                                                    scan_fails_mid_write):
    target = tmp_path / "rows.csv"
    target.write_bytes(b"d,delta,chi,u,v\n1,-2,1,1,0\n")
    code, _, _ = run_cli(["scan", "--box", CHUNKED_BOX,
                          "--out", str(target)], capsys)
    assert code == 2
    assert target.read_bytes() == b"d,delta,chi,u,v\n1,-2,1,1,0\n"
    assert os.listdir(tmp_path) == ["rows.csv"]


def test_scan_out_replaces_a_regular_file(tmp_path, capsys, monkeypatch):
    # Many chunks, as on stdout; the old file keeps its mode, and a new one
    # gets the mode the umask gives.
    monkeypatch.setattr(scan_module, "_WRITE_BUDGET", 1000)
    stdout = run_cli(["scan", "--box", CHUNKED_BOX], capsys)[1]
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("stale\n" * 10000)
    old.chmod(0o604)
    umask = os.umask(0o027)
    try:
        for target in (old, new):
            assert run_cli(["scan", "--box", CHUNKED_BOX,
                            "--out", str(target)], capsys)[:2] == (0, "")
    finally:
        os.umask(umask)
    for target, mode in ((old, 0o604), (new, 0o640)):
        assert target.read_text() == stdout
        assert stat.S_IMODE(target.stat().st_mode) == mode
    assert sorted(os.listdir(tmp_path)) == ["new.csv", "old.csv"]


def test_scan_out_to_a_device_or_a_symlink_is_written_in_place(
        tmp_path, capsys, monkeypatch):
    replaced = []
    monkeypatch.setattr(os, "replace", lambda *args: replaced.append(args))
    stdout = run_cli(["scan", "--box", SMALL_BOX], capsys)[1]
    real, link = tmp_path / "real.csv", tmp_path / "link.csv"
    real.write_text("stale\n")
    link.symlink_to(real)
    for target in (os.devnull, str(link)):
        assert run_cli(["scan", "--box", SMALL_BOX, "--out", target],
                       capsys)[:2] == (0, "")
    assert replaced == []
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert link.is_symlink() and real.read_text() == stdout
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "real.csv"]


class _FullStdout:
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        pass


def test_scan_failed_stdout_write_is_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    code, _, err = run_cli(["scan", "--box", SMALL_BOX], capsys)
    assert code == 2
    assert err.endswith(
        f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n")


@needs_dev_full
def test_scan_redirected_to_full_device_exits_cleanly():
    # With buffered stdout the failed bytes would be flushed again, and fail
    # again, at interpreter exit (exit status 120).
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "p6fold.cli", "scan", "--box", SMALL_BOX],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == (
        f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}")


# Each of these used to end in an OSError traceback and exit 1, the
# "infeasible" code, when stdout could not be written.
OTHER_COMMANDS = (["verify"], ["bound", "--s", "34"],
                  ["profile", "--tuple", "4,0,1,6,32"],
                  ["check", "--tuple", "4,0,1,6,32"])


@pytest.mark.parametrize("argv", OTHER_COMMANDS, ids=lambda a: a[0])
def test_failed_stdout_write_is_usage_error(argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.endswith(
        f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n")


@needs_dev_full
def test_every_command_redirected_to_full_device_exits_cleanly():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for argv in OTHER_COMMANDS:
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "p6fold.cli", *argv],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env)
        assert (argv, proc.returncode, proc.stderr) == (
            argv, 2,
            f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n")


def test_console_script_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "p6fold.cli", "bound", "--s", "34",
         "--kappa", "9"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["final_bound"] == 39304


def test_the_declared_console_script_runs(capsys, monkeypatch):
    # The installed p6fold command calls the [project.scripts] target with
    # no arguments, so a renamed or moved main would break it unseen.  Read
    # by regex: Python 3.10 has no tomllib.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, name = re.search(
        r'^\[project\.scripts\]\n+p6fold = "([\w.]+):(\w+)"', text,
        re.M).groups()
    entry = getattr(importlib.import_module(module), name)
    monkeypatch.setattr(sys, "argv", ["p6fold", "bound", "--s", "34"])
    assert entry() == 0
    assert json.loads(capsys.readouterr().out)["final_bound"] == 39304
