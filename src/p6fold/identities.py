"""Symbolic regression registry: every displayed identity, re-derived and diffed.

Each registry entry recomputes its left side from first principles through
the ring machinery (:func:`normal_chern`, :func:`twist_rank3`,
:func:`schur_values`, :func:`reduce_to_params`) and compares it
coefficient-by-coefficient against its stated right side.  The Schur and
Hodge right sides are the closed forms of :mod:`p6fold.invariants` that
``profile`` and the constraint system run, and the S5.QUAD right side is
:func:`p6fold.bounds.section5_quadratic`, which the bound solver runs; so the
registry proves that code.  S5.QUAD builds its left side from the same Schur
and Hodge forms, eliminating v at chi = u = 1.

The normal bundle and the Schur classes of its twist N(-1) are derived once
per process, by the first check that needs them, and shared by every later
check; ring values are immutable, so sharing them is safe.  Each check
still reduces and diffs its own left side, and no result is cached.  A test
that patches ``normal_chern``, ``twist_rank3`` or ``schur_values`` here must
clear both caches (``_normal_bundle.cache_clear()`` and
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
checking one normal-bundle component at a time; they are not counted in the
canonical listing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .bounds import section5_quadratic
from .errors import UnknownIdentityError
from .invariants import hodge_numbers, schur_numbers
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


@dataclass(frozen=True)
class Comparison:
    """One recomputed-vs-stated pair inside an identity check."""

    label: str
    lhs: str
    rhs: str
    diff: str
    equal: bool


@dataclass(frozen=True)
class IdentityResult:
    id: str
    description: str
    passed: bool
    comparisons: tuple[Comparison, ...]


def _compare(label, lhs, rhs) -> Comparison:
    diff = lhs - rhs
    return Comparison(label=label, lhs=lhs.text(), rhs=rhs.text(),
                      diff=diff.text(), equal=not diff)


@cache
def _normal_bundle():
    return normal_chern()


@cache
def _schur_of_twisted_normal():
    return schur_values(*twist_rank3(*_normal_bundle(), -h))


# Stated right sides.  The GradedPoly forms for the normal bundle:
_N1_STATED = 7 * h + k
_N2_STATED = 21 * h * h + 7 * h * k + k * k - c2
_N3_STATED = (35 * h ** 3 + 21 * h * h * k + 7 * h * k * k + k ** 3
              - 7 * h * c2 - c3 + 48)

# The closed forms that profile() and the constraint system run on ints,
# here on the parameter generators.  Schur order: s1*h^2, s20*h, s11*h,
# s300, s210, s111; Hodge order: twisted determinant, hyperplane.
SCHUR_PARAM_FORMS = schur_numbers(d, delta, chi, u, v)
_HODGE_PARAM_FORMS = hodge_numbers(d, delta, chi, u, v)


def _check_normal_chern(which=None):
    computed = _normal_bundle()
    stated = (_N1_STATED, _N2_STATED, _N3_STATED)
    labels = ("n1", "n2", "n3")
    idx = range(3) if which is None else [which]
    return [_compare(labels[i], computed[i], stated[i]) for i in idx]


def _check_table_h2k():
    # Adjunction on the sectional curve: delta = h^2*(k + 2h).
    return [_compare("", reduce_to_params(h * h * (k + 2 * h)), delta)]


def _check_table_hk2():
    # Canonical square of the hyperplane surface: (k+h)^2*h = 10*chi - u
    # (Noether's formula combined with the topological Euler number).
    return [_compare("", reduce_to_params(h * (h + k) ** 2), 10 * chi - u)]


def _check_table_k3():
    # v is by definition the cube of the twisted normal determinant 4h + k.
    return [_compare("", reduce_to_params((4 * h + k) ** 3), v)]


def _check_table_hc2():
    # Tangent sequence of the hyperplane surface:
    # h*c2 = c2(S) - (k+h)*h^2 with c2(S) = 2*chi + u.
    lhs = reduce_to_params(h * c2 + h * h * (h + k))
    return [_compare("", lhs, 2 * chi + u)]


def _check_table_c3():
    # The c3 table row is forced by the stated n3 plus n3 = d^2:
    # c3 = (35h^3 + 21h^2k + 7hk^2 + k^3 - 7h*c2) + 48 - d^2.
    forced = reduce_to_params(_N3_STATED + c3) - d * d
    return [_compare("", reduce_to_params(c3), forced)]


def _check_schur(i):
    s1, s20, s300, s11, s210, s111 = _schur_of_twisted_normal()
    numbers = (s1 * h * h, s20 * h, s11 * h, s300, s210, s111)
    return [_compare("", reduce_to_params(numbers[i]), SCHUR_PARAM_FORMS[i])]


def _check_double_point():
    _, _, n3 = _normal_bundle()
    return [_compare("", reduce_to_params(n3), d * d)]


def _check_hodge_det():
    # Hodge index on a member of |4H + K| (the globally generated twisted
    # normal determinant), applied to the hyperplane restriction:
    # (h*D^2)^2 >= (h^2*D)*(D^3) with D = 4h + k.
    D = 4 * h + k
    lhs = (reduce_to_params(h * D * D) ** 2
           - reduce_to_params(D ** 3) * reduce_to_params(h * h * D))
    return [_compare("", lhs, _HODGE_PARAM_FORMS[0])]


def _check_hodge_hyperplane():
    # Hodge index on the hyperplane surface: (h^2*k)^2 >= (h^3)*(h*k^2).
    lhs = (reduce_to_params(h * h * k) ** 2
           - reduce_to_params(h ** 3) * reduce_to_params(h * k * k))
    return [_compare("", lhs, _HODGE_PARAM_FORMS[1])]


def _check_closing_quadratic():
    # At chi = u = 1, s210 >= 0 reads v >= d^2 - 4d + 3*delta + 9 and
    # 10*chi - u = 9; putting that least v into the twisted-determinant
    # Hodge form eliminates v and leaves the quadratic in delta that the
    # bound solver runs, at cap 9.
    v0 = -schur_numbers(d, delta, 1, 1, 0)[4]
    lhs = hodge_numbers(d, delta, 1, 1, v0)[0]
    a, b, c = section5_quadratic(d, 9)
    return [_compare("", lhs, a * delta ** 2 + b * delta + c)]


def _check_schur_sum():
    _, s20, _, s11, _, _ = _schur_of_twisted_normal()
    lhs = reduce_to_params(s20 * h) + reduce_to_params(s11 * h)
    return [_compare("", lhs, 3 * d + 6 * delta + 10 * chi - u)]


REGISTRY = {
    "L3.4": ("normal-bundle Chern classes n1, n2, n3",
             _check_normal_chern),
    "L3.6.1": ("substitution table: h^2*k from adjunction",
               _check_table_h2k),
    "L3.6.2": ("substitution table: h*k^2 from the canonical square",
               _check_table_hk2),
    "L3.6.3": ("substitution table: k^3 from the definition of v",
               _check_table_k3),
    "L3.6.4": ("substitution table: h*c2 from the surface tangent sequence",
               _check_table_hc2),
    "L3.6.5": ("substitution table: c3 forced by the double-point identity",
               _check_table_c3),
    "L4.3.1": ("Schur number s(1)*h^2 of the twisted normal bundle",
               lambda: _check_schur(0)),
    "L4.3.2": ("Schur number s(20)*h of the twisted normal bundle",
               lambda: _check_schur(1)),
    "L4.3.3": ("Schur number s(11)*h of the twisted normal bundle",
               lambda: _check_schur(2)),
    "L4.3.4": ("Schur number s(300) of the twisted normal bundle",
               lambda: _check_schur(3)),
    "L4.3.5": ("Schur number s(210) of the twisted normal bundle",
               lambda: _check_schur(4)),
    "L4.3.6": ("Schur number s(111) of the twisted normal bundle",
               lambda: _check_schur(5)),
    "DP": ("double-point identity: n3 reduces to d^2",
           _check_double_point),
    "C4.5.1": ("Hodge index on the twisted-determinant divisor, expanded",
               _check_hodge_det),
    "C4.5.2": ("Hodge index on the hyperplane divisor, expanded",
               _check_hodge_hyperplane),
    "S5.QUAD": ("closing quadratic in delta from the two v-bounds",
                _check_closing_quadratic),
    "S5.SUM": ("s(20)*h + s(11)*h = 3d + 6*delta + 10*chi - u",
               _check_schur_sum),
}

# Sub-ids for verifying one normal-bundle component at a time.
_SUB_IDS = {
    "L3.4.1": ("normal-bundle Chern class n1",
               lambda: _check_normal_chern(0)),
    "L3.4.2": ("normal-bundle Chern class n2",
               lambda: _check_normal_chern(1)),
    "L3.4.3": ("normal-bundle Chern class n3",
               lambda: _check_normal_chern(2)),
}


def identity_ids() -> list[str]:
    """The canonical registry ids, in listing order."""
    return list(REGISTRY)


def verify_identity(identity_id: str) -> IdentityResult:
    """Recompute one identity and diff it against its stated form."""
    entry = REGISTRY.get(identity_id) or _SUB_IDS.get(identity_id)
    if entry is None:
        raise UnknownIdentityError(identity_id)
    description, check = entry
    comparisons = tuple(check())
    return IdentityResult(
        id=identity_id,
        description=description,
        passed=all(cmp.equal for cmp in comparisons),
        comparisons=comparisons,
    )


def verify_all() -> list[IdentityResult]:
    """Run the whole registry in listing order."""
    return [verify_identity(identity_id) for identity_id in REGISTRY]
