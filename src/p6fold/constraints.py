"""The full inequality system a genuine threefold must satisfy, with exact slack.

Constraints, in fixed report order:

* ``B1``–``B5`` (geometric mode only): d at least the minimal degree, delta
  even, delta >= -2, chi >= 1, u >= 1.
* ``S1``–``S6``: the six Schur numbers of the twisted normal bundle
  N(-1), s(1)h^2, s(2)h, s(1,1)h, s(3), s(2,1) and s(1,1,1), where
  s(lambda) is the determinant of the Chern classes c_{lambda_i + j - i}
  of N(-1).  Each is required non-negative because N(-1) is globally
  generated.
* ``H1``, ``H2``: the Hodge index inequality for h and D = c1(N(-1)) =
  4h + k, on a member of |D| and on the hyperplane surface:
  (h.D^2)^2 >= (h^2.D)(D^3) and (h^2.D)^2 >= (h^3)(h.D^2).  They are in
  multiplied-out form, so they stay total even when 2d + delta = 0.
* ``K`` (only when a cap is configured): K_S^2 = 10*chi - u at most the cap.

All values are exact integers on integer tuples.  Every constraint is
satisfied iff its value is >= 0, except that the report gives ``B2`` as
delta mod 2, which is satisfied iff it is 0.

Each :class:`HypothesisConfig` builds one kernel, once, and caches it: a
function of ``(d, delta, chi, u, v)`` that returns every value of
``constraint_ids`` as a plain tuple of ints in that order.  It is one
base per mode, :func:`invariants.invariants` itself (the S and H values)
in raw mode and the five basic values before it in geometric mode, and a
cap adds one wrapper that appends K; so a call tests no mode and reads no
property.  It stores B2 as -(delta mod 2), so that "holds" means ">= 0"
for every entry.  :func:`is_feasible` and :func:`feasible_cells` read only
that tuple, and :func:`evaluate` keeps it in its :class:`ConstraintReport`
as it is; the report's JSON, ``value_of`` and ``entries`` (new
:class:`ConstraintValue` records on each read) read those ints through one
helper, which gives B2 back its sign.  The kernel is left out of a
config's pickled and copied state, so a config stays a plain value.

:func:`feasible_cells` is the one walk of the feasible region of a box;
its docstring gives the walk and what it costs.

:func:`evaluate` and :func:`is_feasible` read their tuple through the gate
``invariants.five_ints``, every other number passes ``require_ints``, and
every config :func:`require_config`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain
from typing import Iterator, Optional

from .invariants import InvariantTuple, five_ints, invariants, require_ints

_BASIC_IDS = ("B1", "B2", "B3", "B4", "B5")
_SCHUR_IDS = ("S1", "S2", "S3", "S4", "S5", "S6")
_HODGE_IDS = ("H1", "H2")


@dataclass(frozen=True)
class HypothesisConfig:
    """Which optional hypotheses to enforce on top of the Schur/Hodge system.

    Each extra hypothesis of the paper forces K_S^2 <= 9: ``ks2_cap=9``.
    Only B1 reads ``min_degree``, so raw mode keeps it at 1."""

    geometric_mode: bool = True
    ks2_cap: Optional[int] = None
    min_degree: int = 1

    def __post_init__(self):
        if type(self.geometric_mode) is not bool:
            raise ValueError("geometric_mode must be a bool, got "
                             f"{self.geometric_mode!r}")
        require_ints("min_degree must be an integer", self.min_degree)
        if self.ks2_cap is not None:
            require_ints("ks2_cap must be an integer or None", self.ks2_cap)
        if not self.geometric_mode and self.min_degree != 1:
            raise ValueError("raw mode has no B1, so min_degree must be 1")

    def __getstate__(self):
        # Only the fields: the cached kernel is a closure, which pickle
        # cannot send, and every cached value is rebuilt on first use.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def constraint_ids(self) -> tuple:
        """The ids of the enforced constraints, in report order."""
        return ((_BASIC_IDS if self.geometric_mode else ()) + _SCHUR_IDS
                + _HODGE_IDS + (() if self.ks2_cap is None else ("K",)))

    @cached_property
    def _kernel(self):
        """Every value of :attr:`constraint_ids` at ``(d, delta, chi, u,
        v)``, in that order, as a tuple of ints; each holds iff it is >= 0,
        so B2 is -(delta mod 2)."""
        min_degree, cap = self.min_degree, self.ks2_cap
        base = invariants
        if self.geometric_mode:
            def base(d, delta, chi, u, v):
                return ((d - min_degree, -(delta % 2), delta + 2, chi - 1,
                         u - 1) + invariants(d, delta, chi, u, v))
        if cap is None:
            return base

        def kernel(d, delta, chi, u, v):
            return base(d, delta, chi, u, v) + (cap - (10 * chi - u),)
        return kernel

    @cached_property
    def _forms(self) -> tuple:
        """The kernel read as forms once per config, by fifteen kernel calls
        (:func:`feasible_cells` gives the shape): ``(fixed, linear,
        curved)``.  Each entry's chi, u and v coefficients are read as
        ``slopes``, each as x0, xd and xt in x0 + xd*d + xt*delta.
        ``fixed`` holds ``(i, a, b, c, t)`` for each entry but B2 with no
        quadratic part and slopes that do not move with (d, delta): a, b and
        c are its coefficients and t its delta coefficient.  ``curved``
        holds ``(i, *slopes, cc, uu, cu)`` for each entry with v or a
        quadratic part (S5, S6 and H1), ``linear`` the chi and u ``slopes``
        ``(i, a0, ad, at, b0, bd, bt)`` of each other entry with one."""
        kernel, ids = self._kernel, self.constraint_ids
        points = [(*row, *p) for row in ((0, 0), (1, 0), (0, 1))
                  for p in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))]
        points += [(0, 0, 2, 0, 0), (0, 0, 0, 2, 0), (0, 0, 1, 1, 0)]
        fixed, linear, curved = [], [], []
        for i, (e, x, y, z, ed, xd, yd, zd, et, xt, yt, zt, xx, yy, xy) in (
                enumerate(zip(*(kernel(*p) for p in points)))):
            cc, uu = (e + xx) // 2 - x, (e + yy) // 2 - y
            a, b, c = x - e - cc, y - e - uu, z - e
            slopes = (a, xd - ed - x + e, xt - et - x + e,
                      b, yd - ed - y + e, yt - et - y + e,
                      c, zd - ed - z + e, zt - et - z + e)
            quadratic = (cc, uu, e - x - y + xy)
            if ids[i] != "B2" and not any(
                    quadratic + slopes[1:3] + slopes[4:6] + slopes[7:9]):
                fixed.append((i, a, b, c, et - e))
            if any(slopes[6:] + quadratic):
                curved.append((i, *slopes, *quadratic))
            elif any(slopes):
                linear.append((i, *slopes[:6]))
        return tuple(fixed), tuple(linear), tuple(curved)


@dataclass(frozen=True)
class ConstraintValue:
    id: str
    value: int
    satisfied: bool


@dataclass(frozen=True)
class ConstraintReport:
    """The config's ``constraint_ids`` and the kernel's ``kernel_values`` at
    ``tuple``, in the same order."""

    tuple: InvariantTuple
    feasible: bool
    constraint_ids: tuple
    kernel_values: tuple

    def _shown(self):
        """``(id, value, holds)`` per constraint, as every read of the
        report gives it: B2, stored as -(delta mod 2), as delta mod 2."""
        for cid, value in zip(self.constraint_ids, self.kernel_values):
            yield cid, -value if cid == "B2" else value, value >= 0

    @property
    def entries(self) -> tuple:
        """One :class:`ConstraintValue` per constraint."""
        return tuple(ConstraintValue(*row) for row in self._shown())

    def value_of(self, constraint_id: str) -> int:
        """The value of ``constraint_id``; KeyError if it is not checked."""
        for cid, value, _ in self._shown():
            if cid == constraint_id:
                return value
        raise KeyError(constraint_id)

    def to_json_dict(self) -> dict:
        return {"tuple": dict(zip(InvariantTuple._fields, self.tuple)),
                "constraints": [{"id": cid, "value": str(value), "ok": ok}
                                for cid, value, ok in self._shown()],
                "feasible": self.feasible}


def require_config(fn: str, cfg) -> None:
    """Raise a ``ValueError`` naming ``fn`` unless ``cfg`` is a config."""
    if not isinstance(cfg, HypothesisConfig):
        raise ValueError(f"{fn} needs a HypothesisConfig, got {cfg!r}")


def evaluate(t: InvariantTuple, cfg: HypothesisConfig) -> ConstraintReport:
    """Every constraint at ``t``, with its exact slack; a ``ValueError``
    unless ``t`` is five integers and ``cfg`` a :class:`HypothesisConfig`."""
    require_config("evaluate", cfg)
    t = InvariantTuple(*five_ints("evaluate", t))
    values = cfg._kernel(*t)
    return ConstraintReport(t, min(values) >= 0, cfg.constraint_ids, values)


def is_feasible(t: InvariantTuple, cfg: HypothesisConfig) -> bool:
    """True iff every constraint holds at ``t``; a ``ValueError`` unless
    ``t`` is five integers and ``cfg`` a :class:`HypothesisConfig`."""
    try:  # it runs once per scan row, so no type check on the way in
        return min(cfg._kernel(*five_ints("is_feasible", t))) >= 0
    except AttributeError:
        require_config("is_feasible", cfg)
        raise


def _affine_interval(pairs, lo: int, hi: int) -> range:
    """The x in ``lo..hi`` at which every constraint holds, given each one
    as ``(offset, slope)``, its value being offset + slope*x.  A sloped
    constraint ``value >= 0`` bounds x on one side; a flat one either holds
    for every x or empties the interval."""
    lower, upper = lo, hi
    for offset, slope in pairs:
        if slope > 0:
            lower = max(lower, -(offset // slope))  # ceil(-offset / slope)
        elif slope < 0:
            upper = min(upper, offset // -slope)
        elif offset < 0:
            return range(0)
    return range(lower, upper + 1)


def feasible_cells(ranges, cfg: HypothesisConfig) -> Iterator[tuple]:
    """Yield ``(d, delta, chi, u, vs)`` in lex order for each cell of the
    box ``ranges`` (five inclusive ``(lo, hi)`` int pairs, as
    ``ScanBox.ranges()`` gives them) that has a feasible v; ``vs`` is
    exactly the v in its range at which every constraint holds.  Raises
    :class:`ValueError` on the first ``next()`` unless all ten bounds are
    integers and ``cfg`` is a :class:`HypothesisConfig`.

    Each kernel entry is ``q(chi, u) + a*chi + b*u + c*v`` plus a
    function of (d, delta), where q, its chi^2, u^2 and chi*u part, does
    not depend on (d, delta), and a, b and c are affine in (d, delta).  So
    fifteen kernel calls on the rows (0, 0), (1, 0) and (0, 1) read q, a, b
    and c once per config, and one call at (chi, u, v) = (0, 0, 0) reads
    the rest of each row.  A box with an empty axis costs no kernel call.

    A form with no quadratic part is largest on the box at its best corner,
    ``e + max(a*chi0, a*chi1) + max(b*u0, b*u1) + max(c*v0, c*v1)``, and if
    that is below 0 it holds nowhere in the box.  On the fixed forms, every
    such form but H2, a, b and c do not move with (d, delta), so the part
    after e is one offset per call (0 on a flat form), and e is g(d) +
    t*delta with t the same on every degree; B2 only says that delta is
    even.  S2 + S4 = d^2 - 3d - delta has no chi, u or v term.  So one
    kernel call at (d, 0, 0, 0, 0) gives each degree's delta-interval, the
    delta of the box at which S2 + S4 and every fixed form at its best
    corner hold (the even ones under B2), and no row outside it holds a
    cell.  On each row of that interval, every form ``e + a*chi + b*u``
    with no v and no quadratic part must hold for some real u in the box:
    each with b = 0 bounds chi by itself, and each pair with ``b_i > 0 >
    b_j``, among them and the box's ``u - u_lo`` and ``u_hi - u``, gives
    the u-free form ``-b_j*f_i + b_i*f_j`` (one Fourier-Motzkin step), so
    together they give one chi-interval; it is empty where H2 is below 0 at
    every corner.  At each such chi they give the u-interval.  Only on a
    row with a chi left are the forms with v or a quadratic part (S5, S6
    and H1) built, and at each u they give the cell's exact v-interval,
    with no kernel call.  Every test before the v-interval is a necessary
    condition, so the walk is exact, and its cost grows with the degrees,
    the rows of their delta-intervals and the cells, not the box volume.

    >>> raw = HypothesisConfig(geometric_mode=False)
    >>> list(feasible_cells(((2, 2), (-4, -4), (-5, 5), (-20, 20),
    ...                      (-5000, 5000)), raw))
    [(2, -4, 2, 2, range(26, 51))]

    A delta-range 10^8 wide costs one kernel call per degree and one per row
    of its delta-interval, here the row (1, -2) alone:

    >>> list(feasible_cells(((1, 2), (-2, 10 ** 8), (1, 1), (1, 1),
    ...                      (0, 0)), raw))
    [(1, -2, 1, 1, range(0, 1))]
    """
    (d0, d1), (delta0, delta1), (chi0, chi1), (u0, u1), (v0, v1) = ranges
    require_ints("feasible_cells needs ten integers", d0, d1, delta0, delta1,
                 chi0, chi1, u0, u1, v0, v1)
    require_config("feasible_cells", cfg)
    if d0 > d1 or delta0 > delta1 or chi0 > chi1 or u0 > u1 or v0 > v1:
        return
    kernel, ids = cfg._kernel, cfg.constraint_ids
    fixed, linear, curved = cfg._forms
    s2, s4 = ids.index("S2"), ids.index("S4")
    # Each fixed form at its best corner, as g(d) + offset + t*delta.
    best = [(i, max(a * chi0, a * chi1) + max(b * u0, b * u1)
             + max(c * v0, c * v1), t) for i, a, b, c, t in fixed]
    even = "B2" in ids
    for d in range(d0, d1 + 1):
        at_d = kernel(d, 0, 0, 0, 0)
        s24 = at_d[s2] + at_d[s4]  # S2 + S4 = d^2 - 3d - delta
        deltas = _affine_interval(chain(
            ((at_d[i] + offset, t) for i, offset, t in best), [(s24, -1)]),
            delta0, delta1)
        for delta in deltas[deltas.start % 2::2] if even else deltas:
            at000 = kernel(d, delta, 0, 0, 0)
            # Each form with no v and no quadratic part on this row, as
            # e + a*chi + b*u.
            forms = [(at000[i], a0 + ad * d + at * delta,
                      b0 + bd * d + bt * delta)
                     for i, a0, ad, at, b0, bd, bt in linear]
            direct = ((e, a) for e, a, b in forms if b == 0)
            with_box = forms + [(-u0, 0, 1), (u1, 0, -1)]
            combined = ((bi * ej - bj * ei, bi * aj - bj * ai)
                        for ei, ai, bi in with_box if bi > 0
                        for ej, aj, bj in with_box if bj < 0)
            chis = _affine_interval(chain(direct, combined), chi0, chi1)
            if not chis:
                continue
            # Each form with v or a quadratic part on this row, as
            # e + a*chi + b*u + c*v plus cc*chi^2 + uu*u^2 + cu*chi*u.
            v_forms = [(at000[i], a0 + ad * d + at * delta,
                        b0 + bd * d + bt * delta, c0 + cd * d + ct * delta,
                        cc, uu, cu)
                       for i, a0, ad, at, b0, bd, bt, c0, cd, ct, cc, uu, cu
                       in curved]
            for chi in chis:
                # Each form with v or a quadratic part at this chi, as
                # e + b*u + uu*u^2 + c*v.
                v_at_chi = [(e + (a + cc * chi) * chi, b + cu * chi, uu, c)
                            for e, a, b, c, cc, uu, cu in v_forms]
                us = ((e + a * chi, b) for e, a, b in forms)
                for u in _affine_interval(us, u0, u1):
                    vs = _affine_interval([(e + (b + uu * u) * u, c)
                                           for e, b, uu, c in v_at_chi],
                                          v0, v1)
                    if vs:
                        yield d, delta, chi, u, vs
