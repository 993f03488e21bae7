"""Truncated graded intersection ring of a threefold in P^6, over exact rationals.

Two symbolic domains live here:

* :class:`GradedPoly`: polynomials in the four generators ``h`` (hyperplane
  class), ``k`` (canonical class), ``c2``, ``c3`` (Chern classes of the
  tangent bundle), graded by ``deg h = deg k = 1``, ``deg c2 = 2``,
  ``deg c3 = 3``.  Every product is truncated above total degree 3, because
  on a threefold any intersection product of higher degree vanishes.

* :class:`ParamExpr`: polynomials with rational coefficients in the five
  free parameters ``d, delta, chi, u, v`` (degree, sectional 2g-2, chi(O_S),
  h^{1,1}(S), and the cube of the twisted normal determinant).  Every
  intersection number of the threefold reduces to one of these.

Both share one implementation of the arithmetic, equality and rendering.
:func:`reduce_to_params` is the bridge: it sends each degree-3 monomial to
its closed-form value in the five parameters, which is
:func:`p6fold.invariants.degree3_numbers` run on the parameter generators.
All arithmetic is exact and nothing here ever rounds.  Coefficients are
ints, and become ``fractions.Fraction`` only when a true rational enters (a
``Fraction`` coefficient or parameter value); the public accessors return
``Fraction`` either way.

Everything is immutable and safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul
from typing import NamedTuple

from .errors import DomainError
from .invariants import (KC2_VALUE, InvariantTuple, degree3_numbers,
                         require_ints)


def _exact(value, what: str):
    """An int, or a Fraction (made an int when integral); else ValueError."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise ValueError(f"{what} must be an int or a Fraction, got {value!r}")


def _monomial_str(exponents, names) -> str:
    """``(2, 1, 0)`` over ``("d", "e", "f")`` -> ``"d^2*e"`` (``""`` for 1)."""
    parts = []
    for e, name in zip(exponents, names):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _terms_str(terms, names) -> str:
    """Signed sum of ``(exponents, coefficient)`` pairs in the given order.

    Coefficients are always printed explicitly (``- 1*d^2*e``), as ``str``
    gives them (``p`` or ``p/q``); a constant term is printed bare.  The
    zero expansion renders as ``"0"``.
    """
    if not terms:
        return "0"
    out = []
    for exponents, coeff in terms:
        mono = _monomial_str(exponents, names)
        mag = str(abs(coeff))
        body = f"{mag}*{mono}" if mono else mag
        if not out:
            out.append(body if coeff > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(out)


class _Poly:
    """Immutable sparse polynomial: mapping exponent tuple -> coefficient.

    A coefficient is stored as an ``int``, or as a ``Fraction`` once a true
    rational enters; the accessors return ``Fraction`` either way, and
    equality and hash agree between the two (``hash(3) == hash(Fraction(3))``).
    Supports ``+ - *`` (with the same kind, ints, or Fractions), integer
    powers, ``==`` and ``hash``.  A subclass declares its variable names
    and, optionally, grading weights and a truncation degree: products of
    higher weighted degree are dropped, and constructing such a monomial is
    an error.  Mixing two kinds of polynomial raises ``TypeError``.
    """

    __slots__ = ("_terms",)
    _NAMES: tuple = ()
    _WEIGHTS: tuple = ()
    _TOP = None

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        elif not isinstance(terms, dict):
            raise ValueError(f"{type(self).__name__} terms must be a dict "
                             f"of monomials, got {terms!r}")
        clean = {}
        for mono, coeff in terms.items():
            mono = self._monomial(mono)
            if self._TOP is not None and self._degree(mono) > self._TOP:
                raise ValueError(f"monomial {mono!r} exceeds total degree "
                                 f"{self._TOP}")
            c = _exact(coeff, "coefficient")
            if c:
                clean[mono] = c
        self._terms = clean

    @classmethod
    def _make(cls, terms):
        # Arithmetic on valid monomials builds valid ones: drop zeros only.
        poly = object.__new__(cls)
        poly._terms = {m: c for m, c in terms.items() if c}
        return poly

    @classmethod
    def _monomial(cls, mono) -> tuple:
        """``mono`` as an exponent tuple: one int >= 0 per variable."""
        exps = tuple(mono) if isinstance(mono, (tuple, list)) else ()
        if len(exps) != len(cls._NAMES) or any(
                type(e) is not int or e < 0 for e in exps):
            raise ValueError(f"bad {cls.__name__} monomial {mono!r}")
        return exps

    @classmethod
    def _degree(cls, mono) -> int:
        return sum(map(mul, mono, cls._WEIGHTS))

    @classmethod
    def constant(cls, value):
        # The zero monomial is valid: check the coefficient only.
        return cls._make({(0,) * len(cls._NAMES):
                          _exact(value, "coefficient")})

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, cls):
            return other
        if type(other) is int or isinstance(other, Fraction):
            return cls.constant(other)
        return NotImplemented

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for mono, c in other._terms.items():
            terms[mono] = terms.get(mono, 0) + c
        return self._make(terms)

    __radd__ = __add__

    def __neg__(self):
        return self._make({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # Weigh each factor's monomials once and skip a pair above the
        # truncation degree (dim X = 3) before building its monomial.
        top = self._TOP
        if top is None:
            right = [(m, c, 0) for m, c in other._terms.items()]
        else:
            right = [(m, c, self._degree(m)) for m, c in other._terms.items()]
        terms = {}
        for m1, c1 in self._terms.items():
            room = 0 if top is None else top - self._degree(m1)
            for m2, c2, w2 in right:
                if w2 > room:
                    continue
                mono = tuple(map(add, m1, m2))
                terms[mono] = terms.get(mono, 0) + c1 * c2
        return self._make(terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if type(n) is not int or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        # Repeated squaring: about 2*log2(n) products, not n.
        result, base = self.constant(1), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- structure, equality, rendering --------------------------------------

    def coefficient(self, mono) -> Fraction:
        return Fraction(self._terms.get(self._monomial(mono), 0))

    def monomials(self):
        return {m: Fraction(c) for m, c in self._terms.items()}

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # A constant equals its scalar (see __eq__), so it hashes like it.
        unit = (0,) * len(self._NAMES)
        if self._terms.keys() <= {unit}:
            return hash(self._terms.get(unit, 0))
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def text(self) -> str:
        """Canonical serialization: terms in descending lexicographic order
        of their exponent tuples."""
        return _terms_str(sorted(self._terms.items(), reverse=True),
                          self._NAMES)

    def __repr__(self):
        return f"{type(self).__name__}({self.text()})"


class GradedPoly(_Poly):
    """Element of the truncated ring on ``h, k, c2, c3``, graded by weights
    1, 1, 2, 3; products above total degree 3 vanish on a threefold."""

    __slots__ = ()
    _NAMES = ("h", "k", "c2", "c3")
    _WEIGHTS = (1, 1, 2, 3)
    _TOP = 3

    def constant_term(self) -> Fraction:
        return Fraction(self._terms.get((0, 0, 0, 0), 0))

    def degree_part(self, degree: int) -> "GradedPoly":
        require_ints("degree_part needs an integer degree", degree)
        return GradedPoly._make({m: c for m, c in self._terms.items()
                                 if self._degree(m) == degree})

    def degree3_basis(self) -> "Basis3":
        """The seven coordinates of the degree-3 component."""
        return Basis3(*(self.coefficient(m) for m in _BASIS3_MONOMIALS))


# The degree-3 monomials of GradedPoly, in Basis3 order.
_BASIS3_MONOMIALS = ((3, 0, 0, 0), (2, 1, 0, 0), (1, 2, 0, 0), (0, 3, 0, 0),
                     (1, 0, 1, 0), (0, 1, 1, 0), (0, 0, 0, 1))


class Basis3(NamedTuple):
    """Coordinates of a degree-3 class in the canonical monomial basis."""

    h3: Fraction
    h2k: Fraction
    hk2: Fraction
    k3: Fraction
    hc2: Fraction
    kc2: Fraction
    c3: Fraction


class ParamExpr(_Poly):
    """Polynomial in the five parameters ``(d, delta, chi, u, v)``, with no
    truncation: squares of reduced numbers (Hodge-index expressions) live
    here."""

    __slots__ = ()
    _NAMES = ("d", "δ", "χ", "u", "v")

    def evaluate(self, d, delta, chi, u, v) -> Fraction:
        """Exact value at an integer or rational parameter point."""
        value = self.substitute(d=d, delta=delta, chi=chi, u=u, v=v)
        return value.coefficient((0, 0, 0, 0, 0))

    def substitute(self, **values) -> "ParamExpr":
        """Partially evaluate; unnamed parameters stay symbolic.

        >>> quad = ParamExpr({(0, 2, 0, 0, 0): 33})
        >>> quad.substitute(d=7).text()
        '33*δ^2'
        """
        idx = {name: i for i, name in enumerate(InvariantTuple._fields)}
        for name in values:
            if name not in idx:
                raise ValueError(f"unknown parameter {name!r}")
        at = [(idx[name], _exact(val, f"the value of {name}"))
              for name, val in values.items()]
        terms = {}
        for mono, c in self._terms.items():
            coeff = c
            rest = list(mono)
            for i, val in at:
                if mono[i]:
                    coeff *= val ** mono[i]
                rest[i] = 0
            key = tuple(rest)
            terms[key] = terms.get(key, 0) + coeff
        return ParamExpr._make(terms)


# Ring generators.
h = GradedPoly({(1, 0, 0, 0): 1})
k = GradedPoly({(0, 1, 0, 0): 1})
c2 = GradedPoly({(0, 0, 1, 0): 1})
c3 = GradedPoly({(0, 0, 0, 1): 1})

# Parameter generators.
d = ParamExpr({(1, 0, 0, 0, 0): 1})
delta = ParamExpr({(0, 1, 0, 0, 0): 1})
chi = ParamExpr({(0, 0, 1, 0, 0): 1})
u = ParamExpr({(0, 0, 0, 1, 0): 1})
v = ParamExpr({(0, 0, 0, 0, 1): 1})

# Closed-form value of each degree-3 basis monomial in the five parameters:
# the int closed forms of :mod:`p6fold.invariants`, run on the generators.
SUBSTITUTIONS = {
    mono: ParamExpr() + value
    for mono, value in zip(_BASIS3_MONOMIALS,
                           degree3_numbers(d, delta, chi, u, v))
}


def _require_graded(value, what: str) -> None:
    if not isinstance(value, GradedPoly):
        raise ValueError(f"{what} must be a GradedPoly, got {value!r}")


def invert_unit(c: GradedPoly) -> GradedPoly:
    """Multiplicative inverse of a total class with constant term 1.

    ``invert_unit(1 + a) = 1 - a + a^2 - a^3`` truncated above degree 3, so
    ``c * invert_unit(c) == 1``.
    """
    _require_graded(c, "c")
    if c.constant_term() != 1:
        raise DomainError("invert_unit requires constant term 1, got "
                          f"{c.constant_term()}")
    a = c - 1
    a2 = a * a
    return 1 - a + a2 - a2 * a


def normal_chern() -> tuple[GradedPoly, GradedPoly, GradedPoly]:
    """Chern classes (n1, n2, n3) of the normal bundle of X in P^6.

    From the tangent sequence, c(N) = (1+h)^7 / c(X) with
    c(X) = 1 - k + c2 + c3.  The k*c2 monomial that the division produces in
    degree 3 is folded into the constant via k*c2 = -24, so n3 carries the
    bookkeeping constant +48:

        n1 = 7h + k
        n2 = 21h^2 + 7hk + k^2 - c2
        n3 = 35h^3 + 21h^2k + 7hk^2 + k^3 - 7h*c2 - c3 + 48
    """
    cx = 1 - k + c2 + c3
    cn = (1 + h) ** 7 * invert_unit(cx)
    n1 = cn.degree_part(1)
    n2 = cn.degree_part(2)
    n3 = cn.degree_part(3)
    gamma = n3._terms.get((0, 1, 1, 0), 0)
    n3 = n3 - gamma * k * c2 + gamma * KC2_VALUE
    return n1, n2, n3


def _require_degree(poly: GradedPoly, degree: int, what: str,
                    allow_constant: bool = False):
    _require_graded(poly, what)
    for mono in poly._terms:
        deg = GradedPoly._degree(mono)
        if deg == degree:
            continue
        if allow_constant and deg == 0:
            continue
        raise DomainError(
            f"{what} must be homogeneous of degree {degree}; "
            f"found a degree-{deg} term in {poly.text()}"
        )


def twist_rank3(c1: GradedPoly, c2_: GradedPoly, c3_: GradedPoly,
                l: GradedPoly) -> tuple[GradedPoly, GradedPoly, GradedPoly]:
    """Chern classes of a rank-3 bundle after twisting by a line class ``l``.

    Returns ``(c1 + 3l, c2 + 2l*c1 + 3l^2, c3 + l*c2 + l^2*c1 + l^3)``.
    The top class may carry a degree-0 bookkeeping constant, which passes
    through additively.
    """
    _require_degree(l, 1, "twist class")
    _require_degree(c1, 1, "c1")
    _require_degree(c2_, 2, "c2")
    _require_degree(c3_, 3, "c3", allow_constant=True)
    return (
        c1 + 3 * l,
        c2_ + 2 * l * c1 + 3 * l * l,
        c3_ + l * c2_ + l * l * c1 + l ** 3,
    )


def schur_values(c1: GradedPoly, c2_: GradedPoly, c3_: GradedPoly):
    """The six Schur combinations of rank-3 Chern classes.

    Order: s(1), s(20), s(300), s(11), s(210), s(111), i.e.
    ``c1, c2, c3, c1^2 - c2, c1*c2 - c3, c1^3 - 2*c1*c2 + c3``.
    For a globally generated bundle each one pairs non-negatively with
    subvarieties; that is the source of the S-constraints.
    """
    for what, c in zip(("c1", "c2", "c3"), (c1, c2_, c3_)):
        _require_graded(c, what)
    s1 = c1
    s20 = c2_
    s300 = c3_
    s11 = c1 * c1 - c2_
    s210 = c1 * c2_ - c3_
    s111 = c1 ** 3 - 2 * c1 * c2_ + c3_
    return s1, s20, s300, s11, s210, s111


def reduce_to_params(p: GradedPoly) -> ParamExpr:
    """Reduce a degree-3 class to its closed form in the five parameters.

    A degree-0 component is allowed and passes through as an additive
    constant (top classes carry the +48 bookkeeping constant).  Nonzero
    degree-1 or degree-2 components have no parameter value and raise
    :class:`DomainError`.
    """
    _require_graded(p, "p")
    terms = {}
    for mono, coeff in p._terms.items():
        deg = GradedPoly._degree(mono)
        if deg == 0:
            image = {(0, 0, 0, 0, 0): 1}
        elif deg == 3:
            image = SUBSTITUTIONS[mono]._terms
        else:
            raise DomainError(
                "reduce_to_params needs a degree-3 class (plus optional "
                f"constant); found a degree-{deg} term in {p.text()}"
            )
        for m, c in image.items():
            terms[m] = terms.get(m, 0) + coeff * c
    return ParamExpr._make(terms)
