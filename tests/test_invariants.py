"""Profiles against the split-bundle oracle, randomized identities, geometry."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from oracles import FANO_FIXTURES, split_bundle_profile
from p6fold.bounds import degree_bound
from p6fold.constraints import (HypothesisConfig, evaluate, feasible_cells,
                                is_feasible)
from p6fold.errors import DomainError
from p6fold.invariants import (PROFILE_KEYS, InvariantTuple, degree3_numbers,
                               from_geometry, invariants, profile,
                               profile_numbers)
from p6fold.ring import (ParamExpr, chi, d, delta, h, normal_chern,
                         reduce_to_params, schur_values, twist_rank3, u, v)
from p6fold.scan import ScanBox


@pytest.mark.parametrize("name", sorted(FANO_FIXTURES))
def test_profile_matches_split_bundle_oracle(name):
    expected = split_bundle_profile(*FANO_FIXTURES[name])
    t = InvariantTuple(*expected["tuple"])
    got = profile(t).to_json_dict()
    for key, value in expected.items():
        if key == "tuple":
            continue
        assert got[key] == value, (name, key, got[key], value)


# Each Fano complete intersection's tuple, and its topological Euler number
# 2 + 2*b2 - b3 (b2 = 1), which is the top Chern class c3 of X.
FANO_TUPLES_AND_EULER = {
    "linear_p3": ((1, -2, 1, 1, 0), 4),
    "quadric": ((2, -2, 1, 2, 2), 4),
    "ci_22": ((4, 0, 1, 6, 32), 0),
    "cubic": ((3, 0, 1, 7, 24), -6),
    "quartic": ((4, 4, 2, 20, 108), -56),
    "ci_23": ((6, 6, 2, 20, 162), -36),
    "ci_222": ((8, 8, 2, 20, 216), -24),
}


def test_fixture_tuples_are_the_expected_ones():
    assert FANO_TUPLES_AND_EULER.keys() == FANO_FIXTURES.keys()
    for name, (t, euler) in FANO_TUPLES_AND_EULER.items():
        expected = split_bundle_profile(*FANO_FIXTURES[name])
        assert (expected["tuple"], expected["c3"]) == (t, euler), name
        assert profile(InvariantTuple(*t)).c3top == euler, name


def test_linear_p3_key_numbers():
    p = profile(InvariantTuple(1, -2, 1, 1, 0))
    assert (p.h2k, p.hk2, p.k3, p.hc2, p.c3top) == (-4, 16, -64, 6, 4)
    assert (p.KS2, p.g) == (9, 0)
    assert tuple(p.schur) == (0, 0, 0, 0, 0, 0)


def test_quadric_key_numbers():
    p = profile(InvariantTuple(2, -2, 1, 2, 2))
    assert (p.k3, p.hc2, p.c3top, p.KS2) == (-54, 8, 4, 8)
    assert tuple(p.schur) == (2, 0, 2, 0, 0, 2)


def test_ci22_key_numbers():
    p = profile(InvariantTuple(4, 0, 1, 6, 32))
    assert (p.h2k, p.hk2, p.k3, p.hc2, p.c3top) == (-8, 16, -32, 12, 0)
    assert (p.KS2, p.g) == (4, 1)
    assert tuple(p.schur) == (8, 4, 12, 0, 8, 16)


def test_from_geometry():
    assert from_geometry(1, 0, 1, 1, 0) == InvariantTuple(1, -2, 1, 1, 0)
    assert from_geometry(4, 1, 1, 6, 32) == InvariantTuple(4, 0, 1, 6, 32)
    assert from_geometry(34, 5, 2, 3, 7) == InvariantTuple(34, 8, 2, 3, 7)


def test_from_geometry_rejects_negative_genus():
    with pytest.raises(DomainError):
        from_geometry(3, -1, 1, 1, 0)


def test_structural_identities_on_random_tuples():
    rng = random.Random(20260809)
    for _ in range(500):
        t = InvariantTuple(*(rng.randint(-10 ** 6, 10 ** 6) for _ in range(5)))
        p = profile(t)
        assert p.n3 == t.d * t.d
        assert p.KS2 + p.c2S == 12 * t.chi
        assert 2 * Fraction(p.g) - 2 == t.delta
        assert p.kc2 == -24
        assert p.pg == t.chi - 1


def test_profile_schur_matches_symbolic_route():
    # Cross-module oracle equivalence: closed forms vs the full ring pipeline
    # (normal bundle -> twist -> Schur -> reduce -> evaluate).
    n1, n2, n3 = normal_chern()
    s1, s20, s300, s11, s210, s111 = schur_values(
        *twist_rank3(n1, n2, n3, -h))
    symbolic = [reduce_to_params(expr) for expr in
                (s1 * h * h, s20 * h, s11 * h, s300, s210, s111)]
    rng = random.Random(7)
    for _ in range(200):
        t = InvariantTuple(*(rng.randint(-1000, 1000) for _ in range(5)))
        expected = tuple(expr.evaluate(*t) for expr in symbolic)
        assert tuple(profile(t).schur) == expected


def test_profile_numbers_are_affine_in_v():
    # The scanner renders a cell's rows from its slots at two values of v,
    # which is exact only while no profile number has a v^2 (or higher) term.
    forms = (degree3_numbers(d, delta, chi, u, v)
             + invariants(d, delta, chi, u, v)[:6])
    for form in forms:
        if isinstance(form, ParamExpr):  # k*c2 is the int -24
            assert all(mono[4] <= 1 for mono in form.monomials()), form.text()
    rng = random.Random(20261018)
    for i in range(400):
        t = [rng.randint(-10 ** 4, 10 ** 4) for _ in range(5)]
        t[1] += i % 2 - t[1] % 2  # odd delta on every other tuple
        *cell, v0 = t
        at = [profile_numbers(*cell, v0 + step) for step in range(3)]
        for key, a, b, c in zip(PROFILE_KEYS, *at):
            assert a - 2 * b + c == 0, (key, t)
            assert key == "g" or type(a) is int, (key, t)


@pytest.mark.parametrize("bad", [
    (Fraction(1, 2), -2, 1, 1, 0),
    (1, -2.0, 1, 1, 0),
    (1, -2, 1, 1, "0"),
    (2.0, 0, 1, 1, 0),
    (1, -2, 1, 1, 0.5),
])
def test_profile_rejects_non_integers(bad):
    with pytest.raises(ValueError, match="five integers"):
        profile(bad)
    # No float enters a feasibility decision either: evaluate used to return
    # float slacks and is_feasible to decide on them.
    for check in (evaluate, is_feasible):
        with pytest.raises(ValueError, match="five integers"):
            check(bad, HypothesisConfig())


@pytest.mark.parametrize("bad", [(1, 2, 3), (1, -2, 1, 1, 0, 0), 5, None])
def test_wrong_arity_is_a_value_error_naming_the_input(bad):
    # A short tuple or a non-iterable used to raise a bare TypeError, and a
    # long or short one a ValueError that named nothing.
    message = f"needs five integers, got {bad!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        profile(bad)
    for check in (evaluate, is_feasible):
        with pytest.raises(ValueError, match=re.escape(message)):
            check(bad, HypothesisConfig())


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: profile((True, 0, 1, 6, 32)),
                 "profile needs five integers, got (True, 0, 1, 6, 32)",
                 id="profile"),
    pytest.param(lambda: evaluate((4, 0, 1, 6, True), HypothesisConfig()),
                 "evaluate needs five integers, got (4, 0, 1, 6, True)",
                 id="evaluate"),
    pytest.param(lambda: is_feasible(InvariantTuple(4, False, 1, 6, 32),
                                     HypothesisConfig()),
                 "is_feasible needs five integers, got (4, False, 1, 6, 32)",
                 id="is_feasible"),
    pytest.param(lambda: from_geometry(4, True, 1, 6, 32),
                 "from_geometry needs five integers, got (4, True, 1, 6, 32)",
                 id="from_geometry"),
    pytest.param(lambda: list(feasible_cells(
        ((True, 4), (0, 0), (1, 1), (1, 9), (0, 40)), HypothesisConfig())),
                 "feasible_cells needs ten integers, got "
                 "(True, 4, 0, 0, 1, 1, 1, 9, 0, 40)", id="feasible_cells-d"),
    pytest.param(lambda: list(feasible_cells(
        ((4, 4), (0, 0), (True, 1), (1, 9), (0, 40)), HypothesisConfig())),
                 "feasible_cells needs ten integers, got "
                 "(4, 4, 0, 0, True, 1, 1, 9, 0, 40)",
                 id="feasible_cells-chi"),
    pytest.param(lambda: list(feasible_cells(
        ((4, 4), (0, 0), (1, 1), (1, 9), (0, False)), HypothesisConfig())),
                 "feasible_cells needs ten integers, got "
                 "(4, 4, 0, 0, 1, 1, 1, 9, 0, False)",
                 id="feasible_cells-v"),
    pytest.param(lambda: degree_bound(34, True),
                 "s and kappa must be integers, got (34, True)",
                 id="degree_bound"),
    pytest.param(lambda: ScanBox.of(d=True, delta=0, chi=1, u=6, v=32),
                 "d must be an integer or a pair of integers, got True",
                 id="ScanBox.of"),
    pytest.param(lambda: ScanBox.of(d=1, delta=0, chi=1, u=6, v=(0, True)),
                 "v must be an integer or a pair of integers",
                 id="ScanBox.of-pair"),
    pytest.param(lambda: HypothesisConfig(min_degree=True),
                 "min_degree must be an integer, got True",
                 id="HypothesisConfig.min_degree"),
    pytest.param(lambda: HypothesisConfig(ks2_cap=False),
                 "ks2_cap must be an integer or None, got False",
                 id="HypothesisConfig.ks2_cap"),
])
def test_a_bool_is_not_an_integer(call, message):
    # bool is a subclass of int: profile((True, 0, 1, 6, 32)) used to
    # report "h3": true, and degree_bound(34, True) "kappa": true.
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_raw_mode_odd_delta_has_half_integral_genus():
    p = profile(InvariantTuple(3, 1, 1, 1, 0))
    assert p.g == Fraction(3, 2)
    assert p.to_json_dict()["g"] == "3/2"
    assert profile_numbers(3, 1, 1, 1, 0)[11] == Fraction(3, 2)


def test_json_field_names():
    data = profile(InvariantTuple(1, -2, 1, 1, 0)).to_json_dict()
    assert list(data) == ["h3", "h2k", "hk2", "k3", "hc2", "kc2", "c3", "n3",
                          "KS2", "c2S", "pg", "g",
                          "s1h2", "s20h", "s11h", "s300", "s210", "s111"]
