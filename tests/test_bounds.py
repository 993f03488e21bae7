"""Lifting threshold, genus bound, quadratic analysis, degree bound."""

from __future__ import annotations

import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from p6fold import bounds
from p6fold.bounds import (
    SHARP_TOLERANCE,
    _c_negative_from,
    _genus_bound_times_4s,
    _root_floor,
    degree_bound,
    delta_lower,
    genus_upper_delta,
    lifting_threshold,
    proof_trace,
    section5_quadratic,
)
from p6fold.constraints import HypothesisConfig, feasible_cells, is_feasible
from p6fold.errors import DomainError
from p6fold.identities import (
    _HODGE_PARAM_FORMS,
    SCHUR_PARAM_FORMS,
    verify_identity,
)
from p6fold.invariants import forced_quadratic
from p6fold.ring import (
    chi as chi_sym,
    d as d_sym,
    delta as delta_sym,
    u as u_sym,
)


def quadratic_at(dd, kappa, x):
    a, b, c = section5_quadratic(dd, kappa)
    return a * x * x + b * x + c


# -- lifting threshold --------------------------------------------------------

def test_lifting_threshold_values():
    assert lifting_threshold(34) == Fraction(1561, 2)
    assert lifting_threshold(1) == 5
    assert lifting_threshold(3) == 21


def test_lifting_threshold_domain():
    with pytest.raises(DomainError):
        lifting_threshold(0)


# -- genus bound --------------------------------------------------------------

def test_genus_bound_at_the_working_degree():
    expected = Fraction(39305 ** 2, 34) + 14 * 39305 + 860
    assert genus_upper_delta(39305, 34) == expected


def test_genus_bound_odd_degree_falls_back():
    assert genus_upper_delta(39305, 35) == genus_upper_delta(39305, 34)


def test_genus_bound_small_even_degree():
    assert genus_upper_delta(1729, 12) == \
        Fraction(1729 ** 2, 12) + 3 * 1729 + 101


def test_genus_bound_domain_errors():
    with pytest.raises(DomainError):
        genus_upper_delta(10 ** 6, 10)
    with pytest.raises(DomainError):
        genus_upper_delta(10 ** 6, 11)  # effective degree 10
    with pytest.raises(DomainError):
        genus_upper_delta(39304, 34)  # needs d > s^3


# -- the quadratic ------------------------------------------------------------

def test_quadratic_coefficients_at_cap_nine():
    for dd in (0, 1, 100, 39305):
        a, b, c = section5_quadratic(dd, 9)
        assert a == 33
        assert b == -dd * dd + 34 * dd + 99
        assert c == -2 * dd ** 3 + 17 * dd * dd + 36 * dd + 81


def test_quadratic_constant_term_check():
    assert section5_quadratic(0, 9) == (33, 99, 81)
    assert section5_quadratic(1, 0) == (33, 24, -3)


def test_quadratic_matches_symbolic_expansion():
    # The registry's closing-quadratic left side, partially evaluated at d,
    # must give exactly these coefficients (for the cap-9 expansion).
    assert verify_identity("S5.QUAD").passed
    lhs = ((3 * d_sym + 6 * delta_sym + 9) ** 2
           - (2 * d_sym + delta_sym)
           * (d_sym * d_sym - 4 * d_sym + 3 * delta_sym + 9))
    rng = random.Random(2)
    for _ in range(100):
        dd = rng.randint(-500, 500)
        at_d = lhs.substitute(d=dd)
        a, b, c = section5_quadratic(dd, 9)
        assert at_d.coefficient((0, 2, 0, 0, 0)) == a
        assert at_d.coefficient((0, 1, 0, 0, 0)) == b
        assert at_d.coefficient((0, 0, 0, 0, 0)) == c


def test_the_forced_quadratic_is_a_sum_of_constraint_products():
    # A*delta^2 + B*delta + C = H1 + S1*(S5 + 30*B4 + 3*B5) + K*(2*(S2 + S3)
    # + K), with B4 = chi - 1, B5 = u - 1 and K = kappa - (10*chi - u) the
    # cap's entry.  Every factor is a kernel entry or a sum of them, so the
    # forced quadratic is >= 0 on every tuple that is feasible in geometric
    # mode with cap kappa, at every d.  Both sides have degree 2 in kappa,
    # so three values prove it for every kappa; 30 -> 29, 2 -> 1 and 3 -> 0
    # each fail at all three.  It gets no registry id.
    h1, (s1, s2, s3, _, s5, _) = _HODGE_PARAM_FORMS[0], SCHUR_PARAM_FORMS
    b4, b5 = chi_sym - 1, u_sym - 1
    for kappa in (0, 9, -5):
        a, b, c = forced_quadratic(d_sym, kappa)
        k = kappa - (10 * chi_sym - u_sym)
        left = a * delta_sym * delta_sym + b * delta_sym + c
        assert [left == h1 + s1 * (s5 + w4 * b4 + w5 * b5)
                + k * (w23 * (s2 + s3) + k)
                for w4, w23, w5 in ((30, 2, 3), (29, 2, 3), (30, 1, 3),
                                    (30, 2, 0))] == [True, False, False, False]


# -- delta lower bound --------------------------------------------------------

def test_delta_lower_paper_values():
    assert delta_lower(100, 9) == 197
    assert delta_lower(39305, 9) == \
        Fraction(39305 ** 2 - 34 * 39305, 33) - 3


def test_delta_lower_requires_negative_constant_term():
    with pytest.raises(DomainError):
        delta_lower(5, 9)  # C(5) = 436 >= 0


def test_delta_lower_sharp_brackets_the_root():
    for dd in (100, 500, 16921, 17, 16922, 10 ** 6):
        paper = delta_lower(dd, 9, mode="paper")
        sharp = delta_lower(dd, 9, mode="sharp")
        assert paper <= sharp
        # sharp sits within the tolerance below the true root
        assert quadratic_at(dd, 9, sharp) <= 0
        assert quadratic_at(dd, 9, sharp + SHARP_TOLERANCE) > 0
        # ... on the tolerance grid
        assert (sharp / SHARP_TOLERANCE).denominator == 1


def root_floor_holds(a, b, c, r):
    # r is at or below the larger root of a*x^2 + b*x + c (a > 0) and r + 1
    # is past it, with no square root: with x = 2a*r + b, the root is
    # (-b + sqrt(disc)) / 2a, so r <= root iff x <= sqrt(disc).
    disc = b * b - 4 * a * c
    x = 2 * a * r + b
    return ((x <= 0 or x * x <= disc)
            and x + 2 * a > 0 and (x + 2 * a) ** 2 > disc)


def test_root_floor_matches_a_square_root_free_oracle():
    rng = random.Random(5)
    for _ in range(3000):
        a = rng.randint(1, 10 ** rng.choice((1, 3, 10, 30)))
        top = 10 ** rng.choice((1, 3, 10, 30))
        b = rng.randint(-top, top)
        # any c up to b^2 / 4a gives real roots
        c = rng.randint(-top, b * b // (4 * a))
        assert root_floor_holds(a, b, c, _root_floor(a, b, c)), (a, b, c)
        # a*(x - p)*(x - q) has a perfect-square discriminant and larger
        # root q, a double root when p = q
        p, q = sorted(rng.randint(-top, top) for _ in range(2))
        p = rng.choice((p, q))
        assert _root_floor(a, -a * (p + q), a * p * q) == q, (a, p, q)


# The least delta of a feasible tuple of degree d = 1..40 in geometric mode
# with K_S^2 <= 9, as measured by the walk below.
LEAST_DELTA_KAPPA_9 = (-2,) * 7 + (
    0, 0, 0, 2, 2, 4, 6, 6, 8, 10, 12, 14, 16, 16, 18, 20, 22, 24, 26, 28,
    30, 32, 34, 38, 40, 42, 44, 46, 48, 52, 54, 56, 58)


def least_feasible_cell(dd, cfg):
    """The first cell of a feasible tuple of degree ``dd`` > 0, walking delta
    up from -2 (B3) to d^2 - 3d (S2 + S4); None if there is none.  Each
    row's box contains every feasible tuple on it: chi runs from 1 (B4) to
    floor((delta^2 + 2d^2) / 6d) (2*H2 + d*S2 >= 0), u from 1 (B5) to
    d + 2*delta + 4*chi (S2).  S5 bounds v below by d^2 - 4d + 3*delta +
    30*chi + 3u - 24 and S6 above by d^2 - 3d + 11*delta + 68*chi + 4u - 48;
    both coefficients of chi and u are positive, so the box's v-range runs
    from the first at chi = u = 1 to the second at the box's largest chi
    and u."""
    for delta in range(-2, dd * dd - 3 * dd + 1):
        chi_hi = (delta * delta + 2 * dd * dd) // (6 * dd)
        u_hi = dd + 2 * delta + 4 * chi_hi
        v_lo = dd * dd - 4 * dd + 3 * delta + 9
        v_hi = dd * dd - 3 * dd + 11 * delta + 68 * chi_hi + 4 * u_hi - 48
        for cell in feasible_cells(((dd, dd), (delta, delta), (1, chi_hi),
                                    (1, u_hi), (v_lo, v_hi)), cfg):
            return cell
    return None


def test_no_feasible_tuple_lies_below_the_sharp_delta_bound():
    # The two halves of the closing argument checked against each other:
    # where C(d) < 0, the constraint system leaves no tuple of degree d
    # with delta below the forced quadratic's positive root.
    cfg = HypothesisConfig(ks2_cap=9)
    least, bounded = [], []
    for dd in range(1, 41):
        cell = least_feasible_cell(dd, cfg)
        _, delta, chi, u, vs = cell
        assert chi == 1 and is_feasible((dd, delta, chi, u, vs[0]), cfg)
        least.append(delta)
        if section5_quadratic(dd, 9)[2] < 0:
            bounded.append(dd)
            assert delta >= delta_lower(dd, 9, "sharp"), dd
    assert tuple(least) == LEAST_DELTA_KAPPA_9
    assert bounded == list(range(11, 41))


def test_bounds_reject_non_integer_arguments():
    # Each used to raise a bare TypeError or, for delta_lower, return a value.
    calls = [
        (lambda: degree_bound(34.0, 9), "s and kappa"),
        (lambda: degree_bound(34, 9.0, mode="sharp"), "s and kappa"),
        (lambda: lifting_threshold(34.5), "s must"),
        (lambda: genus_upper_delta(39305.5, 34), "d and s"),
        (lambda: genus_upper_delta(39305, Fraction(34)), "d and s"),
        (lambda: delta_lower(100.5, 9), "d and kappa"),
        (lambda: delta_lower(100, Fraction(9), mode="sharp"), "d and kappa"),
    ]
    for call, names in calls:
        with pytest.raises(ValueError, match=f"{names} .*integer"):
            call()


@pytest.mark.parametrize("dd", [1.5, True, "x"])
def test_section5_quadratic_takes_ints_only(dd):
    # 1.5 used to give floats, (33, 147.75, 166.5), True ints, and "x" a
    # bare TypeError.  The registry proves the ungated closed form,
    # invariants.forced_quadratic, on the ParamExpr generator d.
    with pytest.raises(ValueError, match=re.escape(
            f"section5_quadratic needs two integers, got {(dd, 9)!r}")):
        section5_quadratic(dd, 9)
    assert section5_quadratic(34, 9) == forced_quadratic(34, 9) == (
        33, 99, -57651)


def test_delta_lower_rejects_unknown_mode():
    with pytest.raises(ValueError):
        delta_lower(100, 9, mode="loose")


def test_degree_bound_rejects_unknown_mode():
    with pytest.raises(ValueError,
                       match="mode must be 'paper' or 'sharp', got 'x'"):
        degree_bound(34, 9, mode="x")


# -- degree bound -------------------------------------------------------------

def test_headline_degree_bound():
    report = degree_bound(34, 9)
    assert report.final_bound == 39304 == 34 ** 3
    assert report.lifting_threshold == Fraction(1561, 2)
    assert report.s_cubed == 39304
    assert report.first_contradictory_degree == 16922


# (s, kappa) pairs whose crossings the tests check beyond the headline one.
CROSSING_CASES = [(s, kappa)
                  for s in (34, 35, 36, 40, 50, 60, 89, 99, 200, 1001)
                  for kappa in (0, 5, 9, 11, 39)] + [(34, -2364)]


def test_first_contradiction_sign_change():
    # Independent integer oracle for the crossing of the two delta bounds.
    assert 16921 ** 2 - 16864 * 16921 - 968286 < 0
    assert 16922 ** 2 - 16864 * 16922 - 968286 > 0
    assert degree_bound(34, 9).first_contradictory_degree == 16922
    for s, kappa in CROSSING_CASES:
        s_eff = s if s % 2 == 0 else s - 1
        d_star = degree_bound(s, kappa).first_contradictory_degree
        assert delta_lower(d_star, kappa) > genus_bound_raw(d_star, s_eff)
        assert delta_lower(d_star - 1, kappa) <= \
            genus_bound_raw(d_star - 1, s_eff)


def genus_bound_raw(dd, s_eff):
    # the genus-bound formula without its applicability guard, for tests
    return (Fraction(dd * dd, s_eff) + dd * (Fraction(s_eff, 2) - 3)
            + Fraction(3 * s_eff * s_eff - 28, 4))


def test_odd_s_uses_even_fallback_but_its_own_threshold():
    report = degree_bound(35, 9)
    assert report.s_cubed == 34 ** 3
    assert report.lifting_threshold == lifting_threshold(35) == 821
    assert report.final_bound == 39304


def test_degree_bound_domain():
    for s in (33, 20, 1):
        with pytest.raises(DomainError):
            degree_bound(s, 9)


def test_degree_bound_rejects_kappa_below_the_crossing_range():
    assert degree_bound(34, -2364).first_contradictory_degree > 0
    for mode in ("paper", "sharp"):
        with pytest.raises(DomainError, match="kappa = -2365 .* >= -2364"):
            degree_bound(34, -2365, mode=mode)
    with pytest.raises(DomainError, match="kappa = -10000"):
        degree_bound(34, -10 ** 4)
    # The quadratics cross at d = 647238, but C(d) >= 0 there, so -B/A is
    # no lower bound on delta and that crossing proves nothing.
    a, b, c = section5_quadratic(647238, 10 ** 9)
    assert c >= 0
    with pytest.raises(DomainError, match="kappa = 1000000000 .* C\\(d\\)"):
        degree_bound(34, 10 ** 9)


# The least kappa for which the crossing argument runs, per surface degree.
LEAST_KAPPA = {34: -2364, 35: -2364, 36: -2652, 50: -5136, 60: -7404,
               99: -19788, 200: -82479, 1001: -2062479}


@pytest.mark.parametrize("mode", ["paper", "sharp"])
@pytest.mark.parametrize("s, least", sorted(LEAST_KAPPA.items()))
def test_least_kappa_is_exact(s, least, mode):
    assert degree_bound(s, least, mode=mode).first_contradictory_degree > 0
    with pytest.raises(DomainError,
                       match=f"kappa = {least - 1} .* needs kappa >= {least}$"):
        degree_bound(s, least - 1, mode=mode)


def test_sharp_mode_rejects_kappa_without_a_crossing():
    with pytest.raises(DomainError, match="kappa = 1000000000 .* C\\(d\\)"):
        degree_bound(34, 10 ** 9, mode="sharp")


def test_kappa_range_errors_survive_optimize_flag():
    # python -O strips assert statements; the range checks must not be one.
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for flags in (["--kappa", "-10000"], ["--kappa", "1000000000", "--sharp"]):
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "p6fold.cli", "bound", "--s", "34",
             *flags],
            env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
        assert proc.stderr.startswith(f"error: kappa = {flags[1]} is out of "
                                      "range")


def test_degree_bound_monotone_in_kappa():
    previous = None
    for kappa in range(0, 10):
        report = degree_bound(34, kappa)
        if previous is not None:
            assert previous.first_contradictory_degree <= \
                report.first_contradictory_degree
            assert previous.final_bound <= report.final_bound
        previous = report


def test_sharp_mode_crosses_no_later():
    paper = degree_bound(34, 9)
    sharp = degree_bound(34, 9, mode="sharp")
    assert sharp.first_contradictory_degree <= \
        paper.first_contradictory_degree
    assert sharp.final_bound == paper.final_bound == 39304
    assert sharp.first_contradictory_degree == 14693
    # exact oracle for "true positive root exceeds the genus bound"
    for s, kappa in CROSSING_CASES:
        s_eff = s if s % 2 == 0 else s - 1
        paper = degree_bound(s, kappa)
        sharp = degree_bound(s, kappa, mode="sharp")
        d_star = sharp.first_contradictory_degree
        assert d_star <= paper.first_contradictory_degree
        assert true_root_exceeds(d_star, kappa, s_eff)
        assert not true_root_exceeds(d_star - 1, kappa, s_eff)


def true_root_exceeds(dd, kappa, s_eff):
    a, b, c = section5_quadratic(dd, kappa)
    if c >= 0:
        return False
    t = genus_bound_raw(dd, s_eff)
    rhs = 2 * a * t + b
    if rhs < 0:
        return True
    return b * b - 4 * a * c > rhs * rhs


@pytest.mark.parametrize("s, kappa, flip",
                         [(40, 11, 3101), (89, 5, 2252), (200, 39, 4087)])
def test_true_root_exceeds_flips_once_at_the_sharp_crossing(s, kappa, flip):
    # The sharp crossing is the least d for which this predicate holds, and
    # it turns from false to true once over d = 1..paper crossing.
    s_eff = s if s % 2 == 0 else s - 1
    paper = degree_bound(s, kappa).first_contradictory_degree
    sharp = degree_bound(s, kappa, mode="sharp").first_contradictory_degree
    seen = [true_root_exceeds(dd, kappa, s_eff) for dd in range(1, paper + 1)]
    flips = [dd for dd in range(2, paper + 1) if seen[dd - 1] != seen[dd - 2]]
    assert (seen[0], flips) == (False, [flip])
    assert sharp == flip


def crossing_quartic(s, kappa, dd):
    """P(d) = (a*n + b*m)*n + c*m^2, whose sign bounds._crossing_sharp
    bisects: (a, b, c) = forced_quadratic(d, kappa), m = 4*s and n the genus
    bound times m.  Runs on ints or on sympy expressions."""
    a, b, c = forced_quadratic(dd, kappa)
    m, n = 4 * s, _genus_bound_times_4s(dd, s)
    return (a * n + b * m) * n + c * m * m


def crossing_quartic_problems(quartic):
    """The steps that fail of the proof that quartic(s, kappa, d) has one
    root past d = 1 for every real s >= 34 and kappa the solver accepts,
    and that at (34, 9) the root lies just below the sharp crossing 14693.
    With s = 34 + sigma and kappa = (960 - 99*s^2)/48 + j, the paper
    crossing accepts exactly j > 0.  Write quartic(s, kappa, 1 + t) = c0 +
    ... + c4*t^4: c4 = -16(s - 33) < 0, while c0, c1 and c2, as
    polynomials in (sigma, j), have no negative coefficient and a positive
    constant.  So the signs change once whatever c3's sign, Descartes' rule
    of signs gives one root in t > 0, and P(1) = c0 > 0 at the bisection's
    left end."""
    t, sigma, j = sympy.symbols("t sigma j")
    s = 34 + sigma
    kappa = (960 - 99 * s * s) / 48 + j
    # gap(0) in bounds._crossing_paper, which must be < 0, is -48*s*j.
    assert sympy.expand(-4 * s * forced_quadratic(0, kappa)[1] + 48 * s * j
                        - 33 * _genus_bound_times_4s(0, s)) == 0
    c = sympy.Poly(quartic(s, kappa, 1 + t), t).all_coeffs()[::-1]
    problems = []
    if len(c) != 5 or sympy.expand(c[4] + 16 * (s - 33)) != 0:
        problems.append("c4 = -16(s - 33)")
    for k in range(3):
        terms = sympy.Poly(c[k], sigma, j).as_dict()
        if not (terms.get((0, 0), 0) > 0 and min(terms.values()) >= 0):
            problems.append(f"c{k} > 0")
    if not quartic(34, 9, 14692) >= 0 > quartic(34, 9, 14693):
        problems.append("P(14692) >= 0 > P(14693)")
    return problems


def test_the_crossing_quartic_has_one_root_past_one():
    # Pólya's certificate for _crossing_sharp's bisection, on the closed
    # forms themselves: p_negative turns true once on d >= 1 for every
    # accepted pair.  A quartic read one degree late, one whose t^4
    # coefficient is off by one, or one that is negative at d = 1 fails.
    assert crossing_quartic_problems(crossing_quartic) == []
    mutants = {
        lambda s, k, dd: crossing_quartic(s, k, dd + 1): [
            "P(14692) >= 0 > P(14693)"],
        lambda s, k, dd: crossing_quartic(s, k, dd) + (dd - 1) ** 4: [
            "c4 = -16(s - 33)", "P(14692) >= 0 > P(14693)"],
        lambda s, k, dd: (crossing_quartic(s, k, dd)
                          - 2 * crossing_quartic(s, k, 1)): ["c0 > 0"],
    }
    for mutant, problems in mutants.items():
        assert crossing_quartic_problems(mutant) == problems


def test_the_c_guard_ends_both_crossings(monkeypatch):
    # The guard checks C(d) < 0 and C(d + 1) < C(d), which with C concave
    # for d >= 2 keeps C < 0 from d on.  Flattening C at 14694 leaves the
    # paper crossing and P(14694) < 0 as they are, so only the sharp
    # crossing d_P = 14693 fails it.
    calls = []
    monkeypatch.setattr(bounds, "_c_negative_from", lambda *args: (
        calls.append(args) or _c_negative_from(*args)))
    degree_bound(34, 9, "sharp")
    assert calls == [(34, 9, 16922), (34, 9, 14693)]
    real = forced_quadratic
    monkeypatch.setattr(bounds, "forced_quadratic", lambda dd, k: (
        real(dd, k)[:2] + real(14693 if dd == 14694 else dd, k)[2:]))
    assert degree_bound(34, 9).first_contradictory_degree == 16922
    with pytest.raises(DomainError, match="kappa = 9 .* C\\(d\\) is not "
                       "negative for every d from the crossing d = 14693 on"):
        degree_bound(34, 9, "sharp")
    # C(2) = -16 < C(3) = -11 at kappa = -4: negative, but not falling.
    with pytest.raises(DomainError, match="kappa = -4 .* d = 2 on"):
        _c_negative_from(34, -4, 2)


def test_no_false_contradiction_below_the_bound():
    for s in (34, 36, 40):
        report = degree_bound(s, 9)
        # the crossing sits far below the applicability clamp, so the
        # clamp drives the bound and the witness range is empty
        assert report.first_contradictory_degree < report.s_cubed
        assert report.final_bound == report.s_cubed
        # below the crossing the two bounds are compatible
        s_eff = s if s % 2 == 0 else s - 1
        d_star = report.first_contradictory_degree
        for dd in (d_star - 1, d_star - 7, d_star // 2, 1000):
            assert delta_lower(dd, 9) <= genus_bound_raw(dd, s_eff)


def test_final_bound_invariant():
    for s, kappa in ((34, 9), (36, 9), (34, 0), (38, 5), (35, 9)):
        report = degree_bound(s, kappa)
        assert report.final_bound == max(
            report.s_cubed,
            math.ceil(report.lifting_threshold),
            report.first_contradictory_degree - 1,
        )
        assert report.final_bound >= report.s_cubed


def test_each_trace_names_the_lower_bound_its_mode_crosses():
    # Sharp mode's [3] used to give the paper relaxation -B/A, which first
    # exceeds the genus bound at the paper crossing 16922, not at the
    # sharp crossing 14693 that its [4] names.
    relaxation = "so delta >= (d^2 - 34*d)/33 + (-3) once C(d) < 0"
    paper, sharp = (proof_trace(degree_bound(34, 9, mode))
                    for mode in ("paper", "sharp"))
    assert relaxation in paper and "from d = 16922 on" in paper
    assert relaxation not in sharp and "(d^2 - 34*d)/" not in sharp
    assert "so delta >= its larger root once C(d) < 0" in sharp
    assert "from d = 14693 on" in sharp


def test_proof_trace_mentions_the_numbers():
    trace = proof_trace(degree_bound(34, 9))
    assert "39304" in trace
    assert "1561/2" in trace
    assert "16922" in trace


@pytest.mark.parametrize("report", [None, 34, (34, 9),
                                    degree_bound(34, 9).to_json_dict()])
def test_proof_trace_needs_a_bound_report(report):
    # A non-report used to raise AttributeError on report.s.
    with pytest.raises(ValueError, match=re.escape(
            f"proof_trace needs a BoundReport, got {report!r}")):
        proof_trace(report)
