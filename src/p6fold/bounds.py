"""Degree bound machinery: lifting threshold, genus bound, and the closing argument.

The chain: if the threefold lies in no fourfold of degree <= s, the lifting
threshold and the genus bound give an *upper* bound on delta in terms of d,
while Schur semi-positivity and the Hodge index give a *lower* bound that
grows faster (once K_S^2 <= kappa).  The two cross at
``first_contradictory_degree``; degrees past the crossing are impossible.
Because the genus bound itself only applies for d > s^3 (and the lifting
theorem past its own threshold), the reported bound is the applicability
clamp ``max(s^3, ceil(threshold), crossing - 1)``; for s = 34, kappa = 9
that is 34^3 = 39304, driven by the clamp rather than the crossing.

Every step runs the one forced quadratic
:func:`invariants.forced_quadratic`, which registry id S5.QUAD proves, on
ints already checked; :func:`section5_quadratic` is its gated public
name.  Everything is exact, no floats: integer sign analysis, one exact
integer root (the floor of a quadratic's larger root, by ``isqrt``) for
sharp :func:`delta_lower` and the paper crossing, and a stdlib ``bisect``
over integer degrees for the sharp crossing.  That bisection reads one
quartic P(d), which changes sign exactly once past d = 1 for every
(s, kappa) the solver accepts; tests/test_bounds.py's
``test_the_crossing_quartic_has_one_root_past_one`` proves it for all of
them.  Each crossing then passes one shared guard, which checks that C(d)
stays negative from the crossing on or raises :class:`DomainError`.  The
crossing arithmetic is integer: both crossings compare the bounds scaled
by a positive multiple of s, so ``Fraction`` appears only in reported
values (the lifting threshold, the genus bound and :func:`delta_lower`).

:func:`degree_bound` returns a :class:`BoundReport`, a NamedTuple: a plain
value whose JSON is its ``_asdict()`` with the threshold as text.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError
from .invariants import forced_quadratic, require_ints

#: rounding grid of sharp-mode :func:`delta_lower`
SHARP_TOLERANCE = Fraction(1, 10 ** 6)


class BoundReport(NamedTuple):
    """Outcome of the closing argument for one (s, kappa) pair."""

    s: int
    kappa: int
    lifting_threshold: Fraction
    s_cubed: int
    first_contradictory_degree: int
    final_bound: int
    delta_mode: str = "paper"

    def to_json_dict(self) -> dict:
        """The fields in declaration order, ``lifting_threshold`` as
        ``"p/q"`` or ``"p"`` text."""
        return dict(self._asdict(),
                    lifting_threshold=str(self.lifting_threshold))


def _effective_even(s: int) -> int:
    # The genus bound is stated for even surface degrees; an odd s falls
    # back to s - 1.
    return s if s % 2 == 0 else s - 1


def lifting_threshold(s: int) -> Fraction:
    """Degrees above ``(s-1)(s-3)/2 + 8s - 3`` force the threefold into a
    fourfold of degree s whenever the sectional curve lies on a degree-s
    surface.  May be half-integral."""
    require_ints("s must be an integer", s)
    if s < 1:
        raise DomainError(f"lifting threshold needs s >= 1, got {s}")
    return Fraction((s - 1) * (s - 3), 2) + 8 * s - 3


def _genus_bound_times_4s(d: int, s_eff: int) -> int:
    # 4*s_eff*t for the delta = 2g - 2 form of the genus bound,
    # t = d^2/s + (s/2 - 3)d + (3s^2 - 28)/4, without applicability guards.
    return 4 * d * d + (2 * s_eff - 12) * s_eff * d \
        + (3 * s_eff * s_eff - 28) * s_eff


def genus_upper_delta(d: int, s: int) -> Fraction:
    """Upper bound on delta = 2g - 2 for a sectional curve lying on no
    surface of degree s (even effective degree >= 12, valid for d > s^3)."""
    require_ints("d and s must be integers", d, s)
    s_eff = _effective_even(s)
    if s_eff < 12:
        raise DomainError(
            f"genus bound needs even surface degree >= 12, got {s_eff}"
        )
    if d <= s_eff ** 3:
        raise DomainError(
            f"genus bound applies only for d > s^3 = {s_eff ** 3}, got {d}"
        )
    return Fraction(_genus_bound_times_4s(d, s_eff), 4 * s_eff)


def section5_quadratic(d: int, kappa: int) -> tuple:
    """Coefficients (A, B, C) of the forced quadratic in delta, as
    :func:`invariants.forced_quadratic` gives them.  Raises
    :class:`ValueError` unless ``d`` and ``kappa`` are integers."""
    require_ints("section5_quadratic needs two integers", d, kappa)
    return forced_quadratic(d, kappa)


def _root_floor(a: int, b: int, c: int) -> int:
    # Floor of the larger root of a*x^2 + b*x + c (a > 0, real roots); the
    # floor of the square root leaves the floor of the quotient unchanged.
    return (-b + math.isqrt(b * b - 4 * a * c)) // (2 * a)


def delta_lower(d: int, kappa: int, mode: str = "paper") -> Fraction:
    """Lower bound on delta forced by the quadratic (needs C < 0, which makes
    the roots straddle zero).

    ``paper`` returns the closed-form sum-of-roots relaxation -B/A; it bounds
    the positive root from below because the other root is negative.
    ``sharp`` returns the largest multiple of :data:`SHARP_TOLERANCE` that is
    not above the true positive root, by one exact integer square root.
    """
    require_ints("d and kappa must be integers", d, kappa)
    if mode not in ("paper", "sharp"):
        raise ValueError(f"mode must be 'paper' or 'sharp', got {mode!r}")
    a, b, c = forced_quadratic(d, kappa)
    if c >= 0:
        raise DomainError(
            "no forced lower bound: the quadratic's constant term "
            f"{c} is non-negative"
        )
    if mode == "paper":
        return Fraction(-b, a)
    # n * root is the larger root of a*x^2 + b*n*x + c*n^2.
    n = SHARP_TOLERANCE.denominator
    return Fraction(_root_floor(a, b * n, c * n * n), n)


def _crossing_paper(s_eff: int, kappa: int) -> int:
    # The gap between -B/A and the genus bound t is a quadratic in d with
    # positive leading coefficient 1/33 - 1/s_eff.  Scaled by 132*s_eff it
    # is an integer; read it off its values at d = 0, 1, 2 (times 2, which
    # keeps every coefficient an integer).
    m = 4 * s_eff

    def gap(dd: int, k: int = kappa) -> int:
        # 132*s_eff*(-B/A - t), with A = 33
        b = forced_quadratic(dd, k)[1]
        return -m * b - 33 * _genus_bound_times_4s(dd, s_eff)

    g0, g1, g2 = gap(0), gap(1), gap(2)
    ia = g2 - 2 * g1 + g0  # > 0 because s_eff >= 34
    ib = 2 * (g1 - g0) - ia
    ic = 2 * g0
    if ic >= 0:
        # gap(0) falls linearly in kappa; name the least kappa past 0.
        least = kappa + g0 // (g0 - gap(0, kappa + 1)) + 1
        raise DomainError(
            f"kappa = {kappa} is out of range for effective degree "
            f"{s_eff}: the crossing argument needs kappa >= {least}"
        )
    # ic < 0 puts the lower root below 0, so the crossing, the first
    # integer d >= 0 with a positive gap, is the one past the upper root.
    # The gap falls from d = 0 to d = 1 and 2, so d* > 2.
    return _c_negative_from(s_eff, kappa, _root_floor(ia, ib, ic) + 1)


def _c_negative_from(s_eff: int, kappa: int, d_star: int) -> int:
    # Both crossings end here.  -B/A and the true root bound delta from
    # below only where C(d) < 0.  For d >= 2 the second difference of C is
    # 22 - 12d < 0, so C(d*) < 0 and a falling step from d* (> 1) keep C
    # negative at every integer d >= d*; return d*, else name kappa.
    c_at = forced_quadratic(d_star, kappa)[2]
    if c_at >= 0 or forced_quadratic(d_star + 1, kappa)[2] >= c_at:
        raise DomainError(
            f"kappa = {kappa} is out of range for effective degree "
            f"{s_eff}: the forced quadratic's constant term C(d) is not "
            f"negative for every d from the crossing d = {d_star} on"
        )
    return d_star


def _crossing_sharp(s_eff: int, kappa: int, hi: int) -> int:
    # Least d for which the *true* positive root of the delta-quadratic
    # exceeds the genus bound t.  A = 33 > 0, and C < 0 puts the other root
    # below 0 < t, so there the root exceeds t iff the quadratic is negative
    # at t.  With t = n/m, m = 4*s_eff > 0, the test (a*t + b)*t + c < 0 is
    # P(d) = (a*n + b*m)*n + c*m^2 < 0, all in integers.
    import bisect
    m = 4 * s_eff

    def p_negative(dd: int) -> bool:
        a, b, c = forced_quadratic(dd, kappa)
        n = _genus_bound_times_4s(dd, s_eff)
        return (a * n + b * m) * n + c * m * m < 0

    # P(1 + t) has coefficients of signs (+, +, +, any, -) in t for every
    # pair that _crossing_paper accepts, so by Descartes' rule of signs P
    # has one root past d = 1 and p_negative turns true once, at d_P >= 2
    # (test_bounds.py::test_the_crossing_quartic_has_one_root_past_one
    # proves it).  p_negative(hi) holds: C(hi) < 0 puts the true root above
    # -B/A, which exceeds t at the paper crossing hi.  The shared C-guard
    # then keeps C < 0 from d_P on, so d_P is the sharp crossing.
    d_p = bisect.bisect_left(range(1, hi + 1), True, key=p_negative) + 1
    return _c_negative_from(s_eff, kappa, d_p)


def degree_bound(s: int, kappa: int, mode: str = "paper") -> BoundReport:
    """Run the closing argument and report the resulting degree bound.

    The crossing is computed on the raw formulas, deliberately ignoring
    their applicability ranges; the final bound then clamps by s^3 and the
    lifting threshold, mirroring the structure of the argument.
    """
    require_ints("s and kappa must be integers", s, kappa)
    if mode not in ("paper", "sharp"):
        raise ValueError(f"mode must be 'paper' or 'sharp', got {mode!r}")
    s_eff = _effective_even(s)
    if s_eff < 34:
        raise DomainError(
            "the two delta bounds cannot cross for effective degree "
            f"{s_eff} < 34 (the leading coefficient 1/33 - 1/s is not "
            "positive)"
        )

    d_star = _crossing_paper(s_eff, kappa)
    if mode == "sharp":
        d_star = _crossing_sharp(s_eff, kappa, d_star)

    threshold = lifting_threshold(s)
    final = max(s_eff ** 3, math.ceil(threshold), d_star - 1)
    return BoundReport(
        s=s,
        kappa=kappa,
        lifting_threshold=threshold,
        s_cubed=s_eff ** 3,
        first_contradictory_degree=d_star,
        final_bound=final,
        delta_mode=mode,
    )


def proof_trace(report: BoundReport) -> str:
    """Human-readable walk through the inequalities behind a report;
    :class:`ValueError` unless ``report`` is a :class:`BoundReport`."""
    if not isinstance(report, BoundReport):
        raise ValueError(f"proof_trace needs a BoundReport, got {report!r}")
    s_eff = _effective_even(report.s)
    genus_const = Fraction(3 * s_eff * s_eff - 28, 4)
    genus_lin = Fraction(s_eff, 2) - 3
    a, b0, _ = forced_quadratic(0, report.kappa)
    lower = (f"(d^2 - 34*d)/{a} + ({Fraction(-b0, a)!s})"
             if report.delta_mode == "paper" else "its larger root")
    lines = [
        f"degree bound for s = {report.s} (effective even degree {s_eff}), "
        f"K_S^2 cap {report.kappa} [{report.delta_mode} mode]",
        f"  [1] lifting: a sectional curve on a degree-{report.s} surface "
        f"lifts the threefold into a degree-{report.s} fourfold once "
        f"d > {report.lifting_threshold!s}",
        f"  [2] genus bound (valid for d > {s_eff}^3 = {report.s_cubed}): "
        f"delta <= d^2/{s_eff} + {genus_lin!s}*d + {genus_const!s}",
        f"  [3] Schur semi-positivity + Hodge index with K_S^2 <= "
        f"{report.kappa}: {a}*delta^2 + (-d^2 + 34*d + {b0})*delta + "
        f"C(d) >= 0, so delta >= {lower} once C(d) < 0",
        f"  [4] crossing: the lower bound [3] exceeds the upper bound [2] "
        f"from d = {report.first_contradictory_degree} on",
        f"  [5] applicability clamp: final bound = max({s_eff}^3, "
        f"ceil({report.lifting_threshold!s}), "
        f"{report.first_contradictory_degree} - 1) = {report.final_bound}",
    ]
    return "\n".join(lines)
