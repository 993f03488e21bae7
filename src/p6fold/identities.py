"""Symbolic regression registry: every displayed identity, re-derived and diffed.

The registry is one table, ``REGISTRY``: each row maps an id to its
description and its check, an inline expression that returns the id's
``(label, lhs, rhs)`` comparisons.  Each left side is recomputed at call
time from first principles through the ring machinery (:func:`normal_chern`,
:func:`twist_rank3`, :func:`schur_values`, :func:`reduce_to_params`) and
compared coefficient-by-coefficient against its stated right side.  The
Schur and Hodge right sides are the closed forms of :mod:`p6fold.invariants`
that ``profile`` and the constraint system run, and the S5.QUAD right side
is :func:`p6fold.invariants.forced_quadratic`, which the bound solver runs;
so the registry proves that code.  S5.QUAD builds its left side from the
same Schur and Hodge forms, eliminating v at chi = u = 1.

The normal bundle and the six Schur top classes of its twist N(-1) are
derived once per process, by the first check that needs them, and shared
by every later check; ring values are immutable, so sharing them is safe.
Each check reduces and diffs its own left side, and no result is cached.
A test that patches ``normal_chern``, ``twist_rank3`` or ``schur_values``
here must clear both caches (``_normal_bundle.cache_clear()`` and
``_schur_of_twisted_normal.cache_clear()``) before and after.

The 17 canonical ids:

    L3.4          normal-bundle Chern classes (three components at once)
    L3.6.1-L3.6.5 consistency of the degree-3 substitution table
    L4.3.1-L4.3.6 the six Schur numbers of the twisted normal bundle
    DP            double-point identity: n3 reduces to d^2
    C4.5.1,C4.5.2 the two Hodge-index inequalities in expanded parameter form
    S5.QUAD       the closing quadratic in delta (K_S^2 cap 9)
    S5.SUM        s(20)*h + s(11)*h = 3d + 6*delta + 10*chi - u

``L3.4.1``/``L3.4.2``/``L3.4.3`` are accepted as sub-ids of ``L3.4`` for
checking one normal-bundle component at a time: ``L3.4.k`` is the k-th
comparison of the ``L3.4`` row.  They are not counted in the canonical
listing.

A check returns an :class:`IdentityResult` holding one :class:`Comparison`
per compared pair, each side and their difference as canonical text; both
are NamedTuples, plain values that ``verify --json`` writes by their
``_asdict()``.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .errors import UnknownIdentityError
from .invariants import forced_quadratic, invariants
from .ring import (
    chi,
    d,
    delta,
    h,
    k,
    c2,
    c3,
    normal_chern,
    reduce_to_params,
    schur_values,
    twist_rank3,
    u,
    v,
)


class Comparison(NamedTuple):
    """One recomputed-vs-stated pair inside an identity check."""

    label: str
    lhs: str
    rhs: str
    diff: str
    equal: bool


class IdentityResult(NamedTuple):
    id: str
    description: str
    passed: bool
    comparisons: tuple[Comparison, ...]


@cache
def _normal_bundle():
    return normal_chern()


@cache
def _schur_of_twisted_normal():
    """The six Schur top classes of N(-1), in SCHUR_PARAM_FORMS order."""
    s1, s20, s300, s11, s210, s111 = schur_values(
        *twist_rank3(*_normal_bundle(), -h))
    return s1 * h * h, s20 * h, s11 * h, s300, s210, s111


def _closing_quadratic():
    # At chi = u = 1, s210 >= 0 reads v >= d^2 - 4d + 3*delta + 9 and
    # 10*chi - u = 9; putting that least v into the twisted-determinant
    # Hodge form eliminates v and leaves the quadratic in delta that the
    # bound solver runs, at cap 9.
    v0 = -invariants(d, delta, 1, 1, 0)[4]
    a, b, c = forced_quadratic(d, 9)
    return invariants(d, delta, 1, 1, v0)[6], a * delta ** 2 + b * delta + c


# Stated right sides.  The GradedPoly forms of the normal bundle n1, n2, n3:
_N_LABELS = ("n1", "n2", "n3")
_N_STATED = (7 * h + k,
             21 * h * h + 7 * h * k + k * k - c2,
             35 * h ** 3 + 21 * h * h * k + 7 * h * k * k + k ** 3
             - 7 * h * c2 - c3 + 48)

# The closed forms that profile() and the constraint system run on ints,
# here on the parameter generators.  Schur order: s1*h^2, s20*h, s11*h,
# s300, s210, s111; Hodge order: twisted determinant, hyperplane.
_PARAM_FORMS = invariants(d, delta, chi, u, v)
SCHUR_PARAM_FORMS, _HODGE_PARAM_FORMS = _PARAM_FORMS[:6], _PARAM_FORMS[6:]
_SCHUR_NAMES = ("s(1)*h^2", "s(20)*h", "s(11)*h", "s(300)", "s(210)",
                "s(111)")

_D = 4 * h + k  # the twisted normal determinant

REGISTRY = {
    "L3.4": (f"normal-bundle Chern classes {', '.join(_N_LABELS)}",
             lambda: list(zip(_N_LABELS, _normal_bundle(), _N_STATED))),
    # Adjunction on the sectional curve: delta = h^2*(k + 2h).
    "L3.6.1": ("substitution table: h^2*k from adjunction",
               lambda: [("", reduce_to_params(h * h * (k + 2 * h)), delta)]),
    # Canonical square of the hyperplane surface: (k+h)^2*h = 10*chi - u
    # (Noether's formula combined with the topological Euler number).
    "L3.6.2": ("substitution table: h*k^2 from the canonical square",
               lambda: [("", reduce_to_params(h * (h + k) ** 2),
                         10 * chi - u)]),
    # v is by definition the cube of the twisted normal determinant 4h + k.
    "L3.6.3": ("substitution table: k^3 from the definition of v",
               lambda: [("", reduce_to_params(_D ** 3), v)]),
    # Tangent sequence of the hyperplane surface:
    # h*c2 = c2(S) - (k+h)*h^2 with c2(S) = 2*chi + u.
    "L3.6.4": ("substitution table: h*c2 from the surface tangent sequence",
               lambda: [("", reduce_to_params(h * c2 + h * h * (h + k)),
                         2 * chi + u)]),
    # The c3 table row is forced by the stated n3 plus n3 = d^2:
    # c3 = (35h^3 + 21h^2k + 7hk^2 + k^3 - 7h*c2) + 48 - d^2.
    "L3.6.5": ("substitution table: c3 forced by the double-point identity",
               lambda: [("", reduce_to_params(c3),
                         reduce_to_params(_N_STATED[2] + c3) - d * d)]),
    **{f"L4.3.{i + 1}": (f"Schur number {name} of the twisted normal bundle",
                         lambda i=i: [("", reduce_to_params(
                             _schur_of_twisted_normal()[i]),
                             SCHUR_PARAM_FORMS[i])])
       for i, name in enumerate(_SCHUR_NAMES)},
    "DP": ("double-point identity: n3 reduces to d^2",
           lambda: [("", reduce_to_params(_normal_bundle()[2]), d * d)]),
    # Hodge index on a member of |4H + K| (the globally generated twisted
    # normal determinant), applied to the hyperplane restriction:
    # (h*D^2)^2 >= (h^2*D)*(D^3) with D = 4h + k.
    "C4.5.1": ("Hodge index on the twisted-determinant divisor, expanded",
               lambda: [("", reduce_to_params(h * _D * _D) ** 2
                         - reduce_to_params(_D ** 3)
                         * reduce_to_params(h * h * _D),
                         _HODGE_PARAM_FORMS[0])]),
    # Hodge index on the hyperplane surface: (h^2*k)^2 >= (h^3)*(h*k^2).
    "C4.5.2": ("Hodge index on the hyperplane divisor, expanded",
               lambda: [("", reduce_to_params(h * h * k) ** 2
                         - reduce_to_params(h ** 3)
                         * reduce_to_params(h * k * k),
                         _HODGE_PARAM_FORMS[1])]),
    "S5.QUAD": ("closing quadratic in delta from the two v-bounds",
                lambda: [("", *_closing_quadratic())]),
    "S5.SUM": ("s(20)*h + s(11)*h = 3d + 6*delta + 10*chi - u",
               lambda: [("", sum(map(reduce_to_params,
                                     _schur_of_twisted_normal()[1:3])),
                         3 * d + 6 * delta + 10 * chi - u)]),
}

# Sub-ids: L3.4.k is the k-th comparison of the L3.4 row.
_SUB_IDS = {f"L3.4.{i + 1}": (f"normal-bundle Chern class {label}",
                             lambda i=i: [REGISTRY["L3.4"][1]()[i]])
            for i, label in enumerate(_N_LABELS)}
_CHECKS = {**REGISTRY, **_SUB_IDS}


def identity_ids() -> list[str]:
    """The canonical registry ids, in listing order."""
    return list(REGISTRY)


def verify_identity(identity_id: str) -> IdentityResult:
    """Recompute one identity and diff it against its stated form."""
    entry = _CHECKS.get(identity_id) if isinstance(identity_id, str) else None
    if entry is None:
        raise UnknownIdentityError(identity_id)
    description, check = entry
    comparisons = []
    for label, lhs, rhs in check():
        diff = lhs - rhs
        comparisons.append(Comparison(label=label, lhs=lhs.text(),
                                      rhs=rhs.text(), diff=diff.text(),
                                      equal=not diff))
    return IdentityResult(
        id=identity_id,
        description=description,
        passed=all(cmp.equal for cmp in comparisons),
        comparisons=tuple(comparisons),
    )


def verify_all() -> list[IdentityResult]:
    """Run the whole registry in listing order."""
    return [verify_identity(identity_id) for identity_id in REGISTRY]
