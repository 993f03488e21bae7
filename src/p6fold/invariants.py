"""Closed forms in the five invariants, and the numeric profile of a tuple.

The five integers ``(d, delta, chi, u, v)`` determine every Chern and
intersection number in scope.  :func:`degree3_numbers` and
:func:`invariants` are the only copy of these closed forms, and
:func:`forced_quadratic` is the closing quadratic that two of them force.
They are plain arithmetic, so the same function runs on ints (in
:func:`profile`, the constraint system and the bound solver) and on the
ring's ``ParamExpr`` generators (in the substitution table and the
identity registry, which proves them).

:data:`PROFILE_KEYS` and :func:`profile_numbers` are the only copy of the
profile's key order and of its derived numbers; :class:`Profile`, its JSON
form and the scanner's row templates all read them.  ``profile`` is total
on raw integer tuples; geometric plausibility (parity, positivity) is the
constraints module's business.

``InvariantTuple._fields`` is the only spelling of the five axis names, and
:func:`five_ints` the one gate that reads a tuple argument.  It and
:func:`require_ints` accept ``int`` proper only, refusing a float or a bool.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

from .errors import DomainError


class InvariantTuple(NamedTuple):
    """The five free invariants: degree, sectional 2g-2, chi(O_S), h^{1,1}(S),
    and the cube of the twisted normal determinant."""

    d: int
    delta: int
    chi: int
    u: int
    v: int


class SchurNumbers(NamedTuple):
    """The six Schur numbers of the twisted normal bundle."""

    s1h2: int
    s20h: int
    s11h: int
    s300: int
    s210: int
    s111: int


# The profile's keys, in the order of Profile.to_json_dict, JSONL scan rows
# and profile_numbers.
PROFILE_KEYS = ("h3", "h2k", "hk2", "k3", "hc2", "kc2", "c3", "n3",
                "KS2", "c2S", "pg", "g",
                "s1h2", "s20h", "s11h", "s300", "s210", "s111")


@dataclass(frozen=True)
class Profile:
    """All derived numbers of one invariant tuple.

    ``g`` is an exact half-integer when ``delta`` is odd (raw mode only);
    every other field is an integer.
    """

    h3: int
    h2k: int
    hk2: int
    k3: int
    hc2: int
    kc2: int
    c3top: int
    n3: int
    KS2: int
    c2S: int
    pg: int
    g: Union[int, Fraction]
    schur: SchurNumbers

    def to_json_dict(self) -> dict:
        """``PROFILE_KEYS`` mapped to the fields, with ``g`` as ``"p/2"``
        text when it is a half-integer."""
        g = self.g if type(self.g) is int else str(self.g)
        return dict(zip(PROFILE_KEYS, (
            self.h3, self.h2k, self.hk2, self.k3, self.hc2, self.kc2,
            self.c3top, self.n3, self.KS2, self.c2S, self.pg, g) + self.schur))


# The k*c2 number is pinned by Riemann-Roch: chi(O_X) = (c1*c2)/24 = 1 for a
# rationally connected threefold, so k*c2 = -c1*c2 = -24.
KC2_VALUE = -24


def degree3_numbers(d, delta, chi, u, v):
    """The substitution table: ``(h^3, h^2k, hk^2, k^3, h*c2, k*c2, c3)``.

    Derivations: adjunction on the sectional curve (h^2k), Noether's formula
    on the hyperplane surface (hk^2), the cube of the twisted normal
    determinant 4h+k (k^3), the tangent sequence of the hyperplane surface
    (h*c2), Riemann-Roch (k*c2), and the double-point identity n3 = d^2 (c3).
    """
    return (
        d,
        -2 * d + delta,
        3 * d - 2 * delta + 10 * chi - u,
        -4 * d - 24 * delta - 120 * chi + 12 * u + v,
        d - delta + 2 * chi + u,
        KC2_VALUE,
        3 * d - 10 * delta - 64 * chi - 2 * u + v - d * d + 48,
    )


def invariants(d, delta, chi, u, v):
    """The six Schur numbers of N(-1), s(1)h^2, s(20)h, s(11)h, s(300),
    s(210) and s(111), then the two Hodge-index expressions for D = 4h + k:
    (h.D^2)^2 - (h^2.D)(D^3) on a member of |D|, then (h^2.D)^2 -
    (h^3)(h.D^2) on the hyperplane surface.  Here h^3 = d, h^2.D = 2d +
    delta = s(1)h^2, h.D^2 = s(20)h + s(11)h = 3d + 6*delta + 10*chi - u
    (registry id S5.SUM) and D^3 = v.  The Hodge forms are products, with
    no division, so they stay total when 2d + delta = 0; a genuine
    threefold makes all eight numbers non-negative.  Each shared number is
    computed once: the constraint system runs this once per scan row."""
    dd = d * d
    h2D = 2 * d + delta
    s20h = 2 * d + 4 * delta + 8 * chi - 2 * u
    s11h = d + 2 * delta + 2 * chi + u
    hD2 = s20h + s11h
    return (
        h2D,
        s20h,
        s11h,
        -5 * d - 5 * delta - 8 * chi + 2 * u + dd,
        4 * d - 3 * delta - 30 * chi - 3 * u + v + 24 - dd,
        -3 * d + 11 * delta + 68 * chi + 4 * u - v - 48 + dd,
        hD2 * hD2 - h2D * v,
        h2D * h2D - d * hD2,
    )


def forced_quadratic(d, kappa):
    """Coefficients (A, B, C) of the forced quadratic in delta, which
    registry id S5.QUAD derives from S5 and H1 at cap 9.

    Expanding ``(3d + 6*delta + kappa)^2 - (2d + delta)(d^2 - 4d + 3*delta + 9)``
    gives A = 33, B = -d^2 + 34d + 12*kappa - 9,
    C = -2d^3 + 17d^2 + (6*kappa - 18)d + kappa^2.  Checks nothing: the
    bound solver runs it on ints it has checked, and registry id S5.QUAD
    on the ``ParamExpr`` generator d."""
    return (33,
            -d * d + 34 * d + 12 * kappa - 9,
            -2 * d ** 3 + 17 * d * d + (6 * kappa - 18) * d + kappa * kappa)


def from_geometry(d: int, g: int, chi: int, u: int, v: int) -> InvariantTuple:
    """Build a tuple from the sectional genus instead of delta = 2g - 2."""
    require_ints("from_geometry needs five integers", d, g, chi, u, v)
    if g < 0:
        raise DomainError(f"sectional genus must be non-negative, got {g}")
    return InvariantTuple(d, 2 * g - 2, chi, u, v)


def require_ints(what: str, *values) -> None:
    """Raise ``ValueError("<what>, got <values>")`` unless every value is an
    int, so that no float, fraction or bool reaches a decision."""
    for x in values:
        if type(x) is not int:
            got = values[0] if len(values) == 1 else values
            raise ValueError(f"{what}, got {got!r}")


def five_ints(fn: str, t) -> tuple:
    """``t`` as a plain tuple of five ints, else ``ValueError("<fn> needs
    five integers, got <t>")``.  It runs once per scan row, so it builds no
    :class:`InvariantTuple`."""
    try:
        d, delta, chi, u, v = t
    except (TypeError, ValueError):
        raise ValueError(f"{fn} needs five integers, got {t!r}") from None
    if type(d) is type(delta) is type(chi) is type(u) is type(v) is int:
        return d, delta, chi, u, v
    raise ValueError(
        f"{fn} needs five integers, got {(d, delta, chi, u, v)!r}")


def profile_numbers(d, delta, chi, u, v) -> tuple:
    """The 18 numbers of :data:`PROFILE_KEYS`, in that order, by the closed
    forms above.  ``g`` is exact: an int, or a half-integer ``Fraction``
    when delta is odd (raw mode only); every other number is an int.
    Checks nothing: callers pass five ints."""
    pg = chi - 1
    g = (delta + 2) // 2 if delta % 2 == 0 else Fraction(delta + 2, 2)
    return (degree3_numbers(d, delta, chi, u, v)
            + (d * d,  # n3, by the double-point identity (registry id DP)
               10 * chi - u, 2 * chi + u, pg, g)
            + invariants(d, delta, chi, u, v)[:6])


def profile(t: InvariantTuple) -> Profile:
    """Every derived number of ``t``, as :func:`profile_numbers` gives them.

    Raises :class:`ValueError` unless ``t`` is five integers.
    """
    numbers = profile_numbers(*five_ints("profile", t))
    return Profile(*numbers[:12], SchurNumbers(*numbers[12:]))
