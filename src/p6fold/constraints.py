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
as it is.  The report and its :class:`ConstraintValue` entries are
NamedTuples, plain values with no ``__dict__``, so nothing is cached on a
report: ``entries`` builds new records on each read.  Its JSON,
``value_of`` and ``entries`` give B2 back its sign, the JSON in one pass
over the ids and values.  The config is a dataclass, since it validates
its fields and caches its kernel; the kernel is left out of its pickled
and copied state, so a config stays a plain value.

:func:`feasible_cells` is the one walk of the feasible region of a box, a
loop over one input builder per stage (:func:`_delta_inputs`,
:func:`_chi_inputs`, :func:`_u_inputs`, :func:`_v_inputs`); each stage's
docstring gives its cut, and the walk's docstring what it costs.

:func:`evaluate` and :func:`is_feasible` read their tuple through the gate
``invariants.five_ints``, every other number passes ``require_ints``, and
every config :func:`require_config`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterator, NamedTuple, Optional

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
        curved)``.  An entry's chi, u and v coefficients are a + ad*d +
        at*delta, b + bd*d + bt*delta and c + cd*d + ct*delta.  ``fixed``
        holds ``(i, a, b, c, t)``, t the delta coefficient, for each entry
        but B2 with no quadratic part whose coefficients do not move.
        ``curved`` holds ``(i, a, ad, at, b, bd, bt, c, cd, ct, cc, uu,
        cu)`` for each with v, a quadratic part, at or bt (S5, S6 and H1),
        ``linear`` ``(i, a, ad, b, bd)`` for each other one with chi or u."""
        kernel, ids = self._kernel, self.constraint_ids
        points = [(*row, *p) for row in ((0, 0), (1, 0), (0, 1))
                  for p in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))]
        points += [(0, 0, 2, 0, 0), (0, 0, 0, 2, 0), (0, 0, 1, 1, 0)]
        fixed, linear, curved = [], [], []
        for i, (e, x, y, z, ed, xd, yd, zd, et, xt, yt, zt, xx, yy, xy) in (
                enumerate(zip(*(kernel(*p) for p in points)))):
            cc, uu = (e + xx) // 2 - x, (e + yy) // 2 - y
            a, b, c = x - e - cc, y - e - uu, z - e
            ad, bd, cd = xd - ed - x + e, yd - ed - y + e, zd - ed - z + e
            at, bt, ct = xt - et - x + e, yt - et - y + e, zt - et - z + e
            quadratic = (cc, uu, e - x - y + xy)
            if ids[i] != "B2" and not any(
                    quadratic + (ad, at, bd, bt, cd, ct)):
                fixed.append((i, a, b, c, et - e))
            if any(quadratic + (at, bt, c, cd, ct)):
                curved.append((i, a, ad, at, b, bd, bt, c, cd, ct, *quadratic))
            elif a or ad or b or bd:
                linear.append((i, a, ad, b, bd))
        return tuple(fixed), tuple(linear), tuple(curved)


class ConstraintValue(NamedTuple):
    id: str
    value: int
    satisfied: bool


class ConstraintReport(NamedTuple):
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
        # The rows of _shown(), inlined: this runs once per evaluated tuple,
        # and a generator step per constraint was a measurable part of it.
        return {"tuple": dict(zip(InvariantTuple._fields, self.tuple)),
                "constraints": [
                    {"id": cid, "value": str(-value if cid == "B2" else value),
                     "ok": value >= 0}
                    for cid, value in zip(self.constraint_ids,
                                          self.kernel_values)],
                "feasible": self.feasible}


def require_config(fn: str, cfg) -> None:
    """Raise a ``ValueError`` naming ``fn`` unless ``cfg`` is a config."""
    if not isinstance(cfg, HypothesisConfig):
        raise ValueError(f"{fn} needs a HypothesisConfig, got {cfg!r}")


def evaluate(t: InvariantTuple, cfg: HypothesisConfig) -> ConstraintReport:
    """Every constraint at ``t``, with its exact slack; a ``ValueError``
    unless ``t`` is five integers and ``cfg`` a :class:`HypothesisConfig`."""
    try:  # as in is_feasible, the type check runs only if the read fails
        kernel = cfg._kernel
    except AttributeError:
        require_config("evaluate", cfg)
        raise
    t = InvariantTuple(*five_ints("evaluate", t))
    values = kernel(*t)
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


def _delta_inputs(at_d, best, s2: int, s4: int) -> list:
    """The delta-step's inputs at one degree, given its kernel values
    ``at_d`` at (d, 0, 0, 0, 0): each fixed form at its best corner, then
    S2 + S4 = d^2 - 3d - delta.  A form with no quadratic part is largest
    on the box at its best corner, ``e + max(a*chi0, a*chi1) + max(b*u0,
    b*u1) + max(c*v0, c*v1)``.  On a fixed form, one such form but B2 whose
    a, b and c do not move (all but H2), the part after e is ``best``'s
    offset (0 on a flat form), and e is g(d) + t*delta with t the same on
    every degree.  No row outside the delta at which all of them hold has a
    cell; B2 only says that delta is even."""
    return [(at_d[i] + offset, t) for i, offset, t in best] + [
        (at_d[s2] + at_d[s4], -1)]


def _chi_inputs(forms, u0: int, u1: int) -> list:
    """The chi-step's inputs on one row, given its linear forms ``(e, a,
    b)``, each e + a*chi + b*u with no v and no quadratic part, which must
    hold for some real u in ``u0..u1``: each form with b = 0, which bounds
    chi by itself, then for each pair with ``b_i > 0 > b_j``, among the
    forms and the box's ``u - u0`` and ``u1 - u``, the u-free form
    ``-b_j*f_i + b_i*f_j`` (one Fourier-Motzkin step).  The chi-interval is
    empty where H2 is below 0 at every corner."""
    with_box = forms + [(-u0, 0, 1), (u1, 0, -1)]
    # No b = 0 pair: each is 0 or a positive multiple of a direct form.
    return [(e, a) for e, a, b in forms if b == 0] + [
        (bi * ej - bj * ei, bi * aj - bj * ai)
        for ei, ai, bi in with_box if bi > 0
        for ej, aj, bj in with_box if bj < 0]


def _u_inputs(forms, chi: int) -> list:
    """The u-step's inputs at one chi of a row: each linear form ``(e, a,
    b)`` as ``(e + a*chi, b)``.  They give the u-interval at that chi."""
    return [(e + a * chi, b) for e, a, b in forms]


def _curved_row(at000, curved, d: int, delta: int) -> list:
    """Each curved form on the row (d, delta), S5, S6, H1 and any whose a or
    b moves with delta, as ``(e, a, b, c, cc, uu, cu)`` for e + a*chi + b*u
    + c*v + cc*chi^2 + uu*u^2 + cu*chi*u, e from ``at000``."""
    return [(at000[i], a + ad * d + at * delta, b + bd * d + bt * delta,
             c + cd * d + ct * delta, cc, uu, cu)
            for i, a, ad, at, b, bd, bt, c, cd, ct, cc, uu, cu in curved]


def _v_inputs(at_chi, u: int) -> list:
    """The v-step's inputs at one u: each curved form at the row's chi,
    ``(e, b, uu, c)`` for e + b*u + uu*u^2 + c*v, as ``(e + (b + uu*u)*u,
    c)``.  They give the cell's exact v-interval; S5 and S6 cut only here."""
    return [(e + (b + uu * u) * u, c) for e, b, uu, c in at_chi]


def feasible_cells(ranges, cfg: HypothesisConfig) -> Iterator[tuple]:
    """Yield ``(d, delta, chi, u, vs)`` in lex order for each cell of the
    box ``ranges`` (five inclusive ``(lo, hi)`` int pairs, as
    ``ScanBox.ranges()`` gives them) that has a feasible v; ``vs`` is
    exactly the v in its range at which every constraint holds.  Raises
    :class:`ValueError` on the first ``next()`` unless ``ranges`` is ten
    integers in five pairs and ``cfg`` is a :class:`HypothesisConfig`.

    The loop solves by :func:`_affine_interval`, per degree, the delta of
    :func:`_delta_inputs` (the even ones under B2), per row the chi of
    :func:`_chi_inputs`, per chi the u of :func:`_u_inputs` and per u the v
    of :func:`_v_inputs`.  Each gives its cut; each cut is necessary, so
    the walk is exact.  Each kernel entry is q(chi, u) + a*chi + b*u + c*v
    plus a function of (d, delta), its quadratic part q free of (d, delta)
    and a, b and c affine in it.  So fifteen kernel calls read q, a, b and
    c once per config (``cfg._forms``), one call per degree and one per row
    of its delta-interval read the rest, and no cell costs a call: the cost
    grows with the degrees, their rows and the cells, not the box volume.
    A box with an empty axis costs no call.

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
    try:
        (d0, d1), (delta0, delta1), (chi0, chi1), (u0, u1), (v0, v1) = ranges
    except (TypeError, ValueError):
        raise ValueError(
            f"feasible_cells needs ten integers, got {ranges!r}") from None
    require_ints("feasible_cells needs ten integers", d0, d1, delta0, delta1,
                 chi0, chi1, u0, u1, v0, v1)
    require_config("feasible_cells", cfg)
    if d0 > d1 or delta0 > delta1 or chi0 > chi1 or u0 > u1 or v0 > v1:
        return
    kernel, ids = cfg._kernel, cfg.constraint_ids
    fixed, linear, curved = cfg._forms
    s2, s4 = ids.index("S2"), ids.index("S4")
    best = [(i, max(a * chi0, a * chi1) + max(b * u0, b * u1)
             + max(c * v0, c * v1), t) for i, a, b, c, t in fixed]
    even = "B2" in ids
    for d in range(d0, d1 + 1):
        deltas = _affine_interval(
            _delta_inputs(kernel(d, 0, 0, 0, 0), best, s2, s4), delta0, delta1)
        slopes = [(i, a + ad * d, b + bd * d) for i, a, ad, b, bd in linear]
        for delta in deltas[deltas.start % 2::2] if even else deltas:
            at000 = kernel(d, delta, 0, 0, 0)
            forms = [(at000[i], a, b) for i, a, b in slopes]  # e + a*chi + b*u
            chis = _affine_interval(_chi_inputs(forms, u0, u1), chi0, chi1)
            if not chis:
                continue
            v_forms = _curved_row(at000, curved, d, delta)
            for chi in chis:
                at_chi = [(e + (a + cc * chi) * chi, b + cu * chi, uu, c)
                          for e, a, b, c, cc, uu, cu in v_forms]
                for u in _affine_interval(_u_inputs(forms, chi), u0, u1):
                    vs = _affine_interval(_v_inputs(at_chi, u), v0, v1)
                    if vs:
                        yield d, delta, chi, u, vs
