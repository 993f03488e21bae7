"""The full inequality system a genuine threefold must satisfy, with exact slack.

Constraints, in fixed report order:

* ``B1``–``B5`` (geometric mode only): d at least the minimal degree, delta
  even, delta >= -2, chi >= 1, u >= 1.
* ``S1``–``S6``: the six Schur numbers of the twisted normal bundle, each
  required non-negative because the bundle is globally generated.
* ``H1``, ``H2``: the two Hodge-index inequalities, in multiplied-out form so
  they stay total even when 2d + delta = 0.
* ``K`` (only when a cap is configured): K_S^2 = 10*chi - u at most the cap.

Inequality constraints are satisfied iff their value is >= 0; the parity
constraint ``B2`` is satisfied iff its value (delta mod 2) is 0.  All values
are exact integers on integer tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .formatting import rat_str
from .invariants import (InvariantTuple, hodge_numbers, require_ints,
                         schur_numbers)

COVER_FLAGS = frozenset(
    {"covered_by_lines", "section_not_general_type", "kx_plus_h_empty"}
)


@dataclass(frozen=True)
class HypothesisConfig:
    """Which optional hypotheses to enforce on top of the Schur/Hodge system.

    Any cover flag expresses a geometric condition that forces
    K_S^2 <= 9, so setting one implies a cap of 9 unless an explicit
    ``ks2_cap`` overrides it.
    """

    geometric_mode: bool = True
    ks2_cap: Optional[int] = None
    cover_flags: frozenset = field(default_factory=frozenset)
    min_degree: int = 1

    def __post_init__(self):
        require_ints("min_degree must be an integer", self.min_degree)
        if self.ks2_cap is not None:
            require_ints("ks2_cap must be an integer or None", self.ks2_cap)
        unknown = set(self.cover_flags) - COVER_FLAGS
        if unknown:
            raise ValueError(f"unknown cover flags: {sorted(unknown)}")

    @property
    def effective_cap(self) -> Optional[int]:
        if self.ks2_cap is not None:
            return self.ks2_cap
        return 9 if self.cover_flags else None


@dataclass(frozen=True)
class ConstraintValue:
    id: str
    value: int
    satisfied: bool


@dataclass(frozen=True)
class ConstraintReport:
    tuple: InvariantTuple
    entries: tuple
    feasible: bool

    def value_of(self, constraint_id: str) -> int:
        for entry in self.entries:
            if entry.id == constraint_id:
                return entry.value
        raise KeyError(constraint_id)

    def to_json_dict(self) -> dict:
        d, delta, chi, u, v = self.tuple
        return {
            "tuple": {"d": d, "delta": delta, "chi": chi, "u": u, "v": v},
            "constraints": [
                {"id": e.id, "value": rat_str(e.value), "ok": e.satisfied}
                for e in self.entries
            ],
            "feasible": self.feasible,
        }


_SCHUR_IDS = ("S1", "S2", "S3", "S4", "S5", "S6")
_HODGE_IDS = ("H1", "H2")


def _iter_constraints(t: InvariantTuple,
                      cfg: HypothesisConfig) -> Iterator[ConstraintValue]:
    d, delta, chi, u, v = t

    if cfg.geometric_mode:
        yield ConstraintValue("B1", d - cfg.min_degree, d >= cfg.min_degree)
        parity = delta % 2
        yield ConstraintValue("B2", parity, parity == 0)
        yield ConstraintValue("B3", delta + 2, delta >= -2)
        yield ConstraintValue("B4", chi - 1, chi >= 1)
        yield ConstraintValue("B5", u - 1, u >= 1)

    for cid, value in zip(_SCHUR_IDS, schur_numbers(d, delta, chi, u, v)):
        yield ConstraintValue(cid, value, value >= 0)
    for cid, value in zip(_HODGE_IDS, hodge_numbers(d, delta, chi, u, v)):
        yield ConstraintValue(cid, value, value >= 0)

    cap = cfg.effective_cap
    if cap is not None:
        slack = cap - (10 * chi - u)
        yield ConstraintValue("K", slack, slack >= 0)


def evaluate(t: InvariantTuple, cfg: HypothesisConfig) -> ConstraintReport:
    """Evaluate every constraint; the report keeps all exact slacks."""
    t = InvariantTuple(*t)
    require_ints("evaluate needs five integers", *t)
    entries = tuple(_iter_constraints(t, cfg))
    return ConstraintReport(
        tuple=t,
        entries=entries,
        feasible=all(e.satisfied for e in entries),
    )


def is_feasible(t: InvariantTuple, cfg: HypothesisConfig) -> bool:
    """Conjunction shortcut: stops at the first violated constraint."""
    t = InvariantTuple(*t)
    require_ints("is_feasible needs five integers", *t)
    return all(e.satisfied for e in _iter_constraints(t, cfg))


# The constraints whose closed forms contain no v and are affine in u.  H1
# is left out: it has no v when 2d + delta = 0, but it is quadratic in u.
U_CONSTRAINTS = frozenset("B1 B2 B3 B4 B5 S1 S2 S3 S4 H2 K".split())


def _affine_interval(pairs, lo: int, hi: int) -> range:
    """The x in ``lo..hi`` at which every constraint holds, given each one's
    values at x = 0 and x = 1 as ``(e0, e1)`` and affine in x.  A sloped
    constraint ``value >= 0`` bounds x on one side; a flat one either holds
    for every x or empties the interval."""
    lower, upper = lo, hi
    for e0, e1 in pairs:
        slope = e1.value - e0.value
        if slope > 0:
            lower = max(lower, -(e0.value // slope))  # ceil(-value / slope)
        elif slope < 0:
            upper = min(upper, e0.value // -slope)
        elif not e0.satisfied:
            return range(0)
    return range(lower, upper + 1)


def feasible_u(d: int, delta: int, chi: int, cfg: HypothesisConfig,
               lo: int, hi: int) -> range:
    """The u in ``lo..hi`` at which every constraint in ``U_CONSTRAINTS``
    holds for ``(d, delta, chi, u)``; outside it no v is feasible.  Raises
    :class:`ValueError` unless all five numbers are integers."""
    require_ints("feasible_u needs five integers", d, delta, chi, lo, hi)
    at0 = _iter_constraints(InvariantTuple(d, delta, chi, 0, 0), cfg)
    at1 = _iter_constraints(InvariantTuple(d, delta, chi, 1, 0), cfg)
    return _affine_interval(((e0, e1) for e0, e1 in zip(at0, at1)
                             if e0.id in U_CONSTRAINTS), lo, hi)


def feasible_v(d: int, delta: int, chi: int, u: int, cfg: HypothesisConfig,
               lo: int, hi: int) -> range:
    """The v in ``lo..hi`` for which ``(d, delta, chi, u, v)`` is feasible.

    Every constraint value is affine in v (registry-checked for the Schur
    and Hodge forms; the others do not involve v), so its values at v = 0
    and v = 1 give its slope.  Raises :class:`ValueError` unless all six
    numbers are integers.
    """
    require_ints("feasible_v needs six integers", d, delta, chi, u, lo, hi)
    at0 = _iter_constraints(InvariantTuple(d, delta, chi, u, 0), cfg)
    at1 = _iter_constraints(InvariantTuple(d, delta, chi, u, 1), cfg)
    return _affine_interval(zip(at0, at1), lo, hi)
