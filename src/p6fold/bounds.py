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

Everything is exact: integer sign analysis and rational bisection, no floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .formatting import rat_str

#: width of the bisection bracket in sharp mode
SHARP_TOLERANCE = Fraction(1, 10 ** 6)


@dataclass(frozen=True)
class BoundReport:
    """Outcome of the closing argument for one (s, kappa) pair."""

    s: int
    kappa: int
    lifting_threshold: Fraction
    s_cubed: int
    first_contradictory_degree: int
    final_bound: int
    delta_mode: str = "paper"

    def to_json_dict(self) -> dict:
        return {
            "s": self.s,
            "kappa": self.kappa,
            "lifting_threshold": rat_str(self.lifting_threshold),
            "s_cubed": self.s_cubed,
            "first_contradictory_degree": self.first_contradictory_degree,
            "final_bound": self.final_bound,
            "delta_mode": self.delta_mode,
        }


def _effective_even(s: int) -> int:
    # The genus bound is stated for even surface degrees; an odd s falls
    # back to s - 1.
    return s if s % 2 == 0 else s - 1


def lifting_threshold(s: int) -> Fraction:
    """Degrees above ``(s-1)(s-3)/2 + 8s - 3`` force the threefold into a
    fourfold of degree s whenever the sectional curve lies on a degree-s
    surface.  May be half-integral."""
    if s < 1:
        raise DomainError(f"lifting threshold needs s >= 1, got {s}")
    return Fraction((s - 1) * (s - 3), 2) + 8 * s - 3


def _genus_upper_delta_raw(d, s_eff: int) -> Fraction:
    # delta = 2g - 2 form of the genus bound, without applicability guards.
    return (Fraction(d * d, s_eff)
            + d * (Fraction(s_eff, 2) - 3)
            + Fraction(3 * s_eff * s_eff - 28, 4))


def genus_upper_delta(d: int, s: int) -> Fraction:
    """Upper bound on delta = 2g - 2 for a sectional curve lying on no
    surface of degree s (even effective degree >= 12, valid for d > s^3)."""
    s_eff = _effective_even(s)
    if s_eff < 12:
        raise DomainError(
            f"genus bound needs even surface degree >= 12, got {s_eff}"
        )
    if d <= s_eff ** 3:
        raise DomainError(
            f"genus bound applies only for d > s^3 = {s_eff ** 3}, got {d}"
        )
    return _genus_upper_delta_raw(d, s_eff)


def section5_quadratic(d: int, kappa: int):
    """Coefficients (A, B, C) of the forced quadratic in delta.

    Expanding ``(3d + 6*delta + kappa)^2 - (2d + delta)(d^2 - 4d + 3*delta + 9)``
    gives A = 33, B = -d^2 + 34d + 12*kappa - 9,
    C = -2d^3 + 17d^2 + (6*kappa - 18)d + kappa^2.
    """
    a = Fraction(33)
    b = Fraction(-d * d + 34 * d + 12 * kappa - 9)
    c = Fraction(-2 * d ** 3 + 17 * d * d + (6 * kappa - 18) * d
                 + kappa * kappa)
    return a, b, c


def _eval_quadratic(a, b, c, x):
    return a * x * x + b * x + c


def delta_lower(d: int, kappa: int, mode: str = "paper") -> Fraction:
    """Lower bound on delta forced by the quadratic (needs C < 0, which makes
    the roots straddle zero).

    ``paper`` returns the closed-form sum-of-roots relaxation -B/A; it bounds
    the positive root from below because the other root is negative.
    ``sharp`` returns an exact rational within :data:`SHARP_TOLERANCE` below
    the true positive root, by bisection.
    """
    if mode not in ("paper", "sharp"):
        raise ValueError(f"mode must be 'paper' or 'sharp', got {mode!r}")
    a, b, c = section5_quadratic(d, kappa)
    if c >= 0:
        raise DomainError(
            "no forced lower bound: the quadratic's constant term "
            f"{rat_str(c)} is non-negative"
        )
    if mode == "paper":
        return -b / a

    # Bisect for the positive root.  The vertex value c - b^2/(4a) < c < 0,
    # so [vertex, hi] brackets it once the quadratic is positive at hi.
    lo = -b / (2 * a)
    step = max(Fraction(1), abs(lo))
    hi = lo + step
    while _eval_quadratic(a, b, c, hi) <= 0:
        step *= 2
        hi = lo + step
    while hi - lo > SHARP_TOLERANCE:
        mid = (lo + hi) / 2
        if _eval_quadratic(a, b, c, mid) > 0:
            hi = mid
        else:
            lo = mid
    return lo


def _crossing_paper(s_eff: int, kappa: int) -> int:
    # delta_lower(d, paper) > genus_upper(d) is a quadratic inequality in d
    # with positive leading coefficient 1/33 - 1/s_eff.  Clear denominators
    # to an integer quadratic and bracket its upper root with isqrt.
    # delta_lower paper = (d^2 - 34*d - 12*kappa + 9)/33
    qa = Fraction(1, 33) - Fraction(1, s_eff)
    qb = Fraction(-34, 33) - (Fraction(s_eff, 2) - 3)
    qc = (Fraction(-12 * kappa + 9, 33)
          - Fraction(3 * s_eff * s_eff - 28, 4))

    lcm = math.lcm(qa.denominator, qb.denominator, qc.denominator)
    ia = qa.numerator * (lcm // qa.denominator)  # > 0 because s_eff >= 34
    ib = qb.numerator * (lcm // qb.denominator)
    ic = qc.numerator * (lcm // qc.denominator)
    if ic >= 0:
        # qc < 0  <=>  4*(9 - 12*kappa) < 33*(3*s_eff^2 - 28)
        least = (36 - 33 * (3 * s_eff * s_eff - 28)) // 48 + 1
        raise DomainError(
            f"kappa = {kappa} is out of range for effective degree "
            f"{s_eff}: the crossing argument needs kappa >= {least}"
        )

    disc = ib * ib - 4 * ia * ic
    root_hint = (-ib + math.isqrt(disc)) // (2 * ia)

    def positive(x: int) -> bool:
        return ia * x * x + ib * x + ic > 0

    # ic < 0 puts the lower root below 0, and isqrt rounds down, so the walk
    # starts in [0, upper root], where the quadratic is not positive, and
    # stops at the first integer past the upper root.
    d_star = max(root_hint - 2, 0)
    while not positive(d_star):
        d_star += 1

    # -B/A bounds delta from below only where C(d) < 0.  C'' = 34 - 12d is
    # negative for d >= 3, and d* lies past the vertex -ib/(2*ia), which is
    # above 1000 for every s_eff >= 34; so C(d*) < 0 and C'(d*) < 0 keep C
    # negative for every d >= d*.
    c_at = -2 * d_star ** 3 + 17 * d_star ** 2 + (6 * kappa - 18) * d_star \
        + kappa * kappa
    c_slope = -6 * d_star ** 2 + 34 * d_star + 6 * kappa - 18
    if c_at >= 0 or c_slope >= 0:
        raise DomainError(
            f"kappa = {kappa} is out of range for effective degree "
            f"{s_eff}: the forced quadratic's constant term C(d) is not "
            f"negative for every d from the crossing d = {d_star} on"
        )
    return d_star


def _crossing_sharp(s_eff: int, kappa: int, hi: int) -> int:
    # Least d for which the *true* positive root of the delta-quadratic
    # exceeds the genus bound.  root > t  <=>  sqrt(disc) > 2*A*t + B,
    # which is exact to decide over the rationals.
    def exceeds(dd: int) -> bool:
        a, b, c = section5_quadratic(dd, kappa)
        if c >= 0:
            return False
        t = _genus_upper_delta_raw(dd, s_eff)
        rhs = 2 * a * t + b
        if rhs < 0:
            return True
        disc = b * b - 4 * a * c
        return disc > rhs * rhs

    # exceeds(hi) holds: C(hi) < 0 puts the true root above -B/A, which
    # exceeds the genus bound at the paper crossing hi.
    lo = 1  # exceeds(1) is False: the genus bound is >= 860 there
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if exceeds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def degree_bound(s: int, kappa: int, mode: str = "paper") -> BoundReport:
    """Run the closing argument and report the resulting degree bound.

    The crossing is computed on the raw formulas, deliberately ignoring
    their applicability ranges; the final bound then clamps by s^3 and the
    lifting threshold, mirroring the structure of the argument.
    """
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
    """Human-readable walk through the inequalities behind a report."""
    s_eff = _effective_even(report.s)
    genus_const = Fraction(3 * s_eff * s_eff - 28, 4)
    genus_lin = Fraction(s_eff, 2) - 3
    lower_const = Fraction(-12 * report.kappa + 9, 33)
    lines = [
        f"degree bound for s = {report.s} (effective even degree {s_eff}), "
        f"K_S^2 cap {report.kappa} [{report.delta_mode} mode]",
        f"  [1] lifting: a sectional curve on a degree-{report.s} surface "
        f"lifts the threefold into a degree-{report.s} fourfold once "
        f"d > {rat_str(report.lifting_threshold)}",
        f"  [2] genus bound (valid for d > {s_eff}^3 = {report.s_cubed}): "
        f"delta <= d^2/{s_eff} + {rat_str(genus_lin)}*d + "
        f"{rat_str(genus_const)}",
        f"  [3] Schur semi-positivity + Hodge index with K_S^2 <= "
        f"{report.kappa}: 33*delta^2 + (-d^2 + 34*d + "
        f"{12 * report.kappa - 9})*delta + C(d) >= 0, so "
        f"delta >= (d^2 - 34*d)/33 + ({rat_str(lower_const)}) "
        "once C(d) < 0",
        f"  [4] crossing: the lower bound [3] exceeds the upper bound [2] "
        f"from d = {report.first_contradictory_degree} on",
        f"  [5] applicability clamp: final bound = max({s_eff}^3, "
        f"ceil({rat_str(report.lifting_threshold)}), "
        f"{report.first_contradictory_degree} - 1) = {report.final_bound}",
    ]
    return "\n".join(lines)
