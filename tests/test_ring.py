"""Ring arithmetic, inversion, twisting, Schur values, parameter reduction."""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from p6fold.errors import DomainError
from p6fold.identities import SCHUR_PARAM_FORMS
from p6fold.ring import (
    SUBSTITUTIONS,
    Basis3,
    GradedPoly,
    ParamExpr,
    c2,
    c3,
    chi,
    d,
    delta,
    h,
    invert_unit,
    k,
    normal_chern,
    reduce_to_params,
    schur_values,
    twist_rank3,
    u,
    v,
)

# All monomials of total degree <= 3 in (h, k, c2, c3).
VALID_MONOMIALS = [
    (0, 0, 0, 0),
    (1, 0, 0, 0), (0, 1, 0, 0),
    (2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0),
    (3, 0, 0, 0), (2, 1, 0, 0), (1, 2, 0, 0), (0, 3, 0, 0),
    (1, 0, 1, 0), (0, 1, 1, 0), (0, 0, 0, 1),
]

coeffs = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=4
)
polys = st.dictionaries(st.sampled_from(VALID_MONOMIALS), coeffs,
                        max_size=6).map(GradedPoly)


def graded_to_sympy(p):
    sh, sk, sc2, sc3 = sympy.symbols("h k c2 c3")
    expr = sympy.Integer(0)
    for (eh, ek, e2, e3), c in p.monomials().items():
        expr += sympy.Rational(c.numerator, c.denominator) \
            * sh ** eh * sk ** ek * sc2 ** e2 * sc3 ** e3
    return expr


def sympy_truncated_product(p, q):
    """Multiply via sympy, then drop weighted degree > 3."""
    sh, sk, sc2, sc3 = sympy.symbols("h k c2 c3")
    prod = sympy.expand(graded_to_sympy(p) * graded_to_sympy(q))
    terms = {}
    for mono, coeff in prod.as_poly(sh, sk, sc2, sc3).terms():
        eh, ek, e2, e3 = mono
        if eh + ek + 2 * e2 + 3 * e3 <= 3:
            terms[(eh, ek, e2, e3)] = Fraction(int(coeff.p), int(coeff.q))
    return GradedPoly(terms)


# -- multiplication -----------------------------------------------------------

def test_binomial_square():
    assert (1 + h) * (1 + h) == 1 + 2 * h + h * h


def test_ambient_tangent_class():
    assert (1 + h) ** 7 == 1 + 7 * h + 21 * h * h + 35 * h ** 3


def test_power_equals_the_repeated_product():
    for p in (2 - h + 3 * k + Fraction(1, 2) * c2 - c3, d - 2 * chi + 1):
        product = p.constant(1)
        for n in range(10):
            assert p ** n == product, n
            product = product * p


def test_huge_powers_take_logarithmically_many_products():
    # One product per unit of the exponent would take minutes here.
    assert h ** 10 ** 18 == 0
    n = 10 ** 6
    assert (1 + h) ** n == (1 + n * h + comb(n, 2) * h * h
                            + comb(n, 3) * h ** 3)


def test_truncation_kills_degree_four():
    assert h * h * c2 == GradedPoly()
    assert not (c3 * h)
    assert c2 * c2 == 0


def test_constructing_overweight_monomial_is_an_error():
    with pytest.raises(ValueError):
        GradedPoly({(2, 0, 1, 0): 1})


@given(polys, polys)
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(polys, polys, polys)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(polys, polys, polys)
def test_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


# No deadline: most of each example's time is sympy's reference product,
# which overran the 200 ms default on a loaded machine.
@settings(deadline=None)
@given(polys, polys)
def test_mul_matches_sympy_truncation(a, b):
    assert a * b == sympy_truncated_product(a, b)


# -- inversion ----------------------------------------------------------------

def test_invert_total_chern_class():
    inv = invert_unit(1 - k + c2 - c3)
    assert inv == 1 + k + (k * k - c2) + (k ** 3 - 2 * k * c2 + c3)


def test_invert_one():
    assert invert_unit(GradedPoly.constant(1)) == 1


def test_invert_geometric_series():
    assert invert_unit(1 + h) == 1 - h + h * h - h ** 3


def test_invert_requires_unit_constant():
    with pytest.raises(DomainError):
        invert_unit(2 + h)
    with pytest.raises(DomainError):
        invert_unit(h + k)


@given(polys)
def test_invert_is_a_right_inverse(p):
    c = p - p.constant_term() + 1  # force constant term 1
    assert c * invert_unit(c) == 1


@given(polys)
def test_invert_is_an_involution(p):
    c = p - p.constant_term() + 1
    assert invert_unit(invert_unit(c)) == c


# -- normal bundle ------------------------------------------------------------

def test_normal_chern_classes():
    n1, n2, n3 = normal_chern()
    assert n1 == 7 * h + k
    assert n2 == 21 * h * h + 7 * h * k + k * k - c2
    assert n3 == (35 * h ** 3 + 21 * h * h * k + 7 * h * k * k + k ** 3
                  - 7 * h * c2 - c3 + 48)


# -- twisting -----------------------------------------------------------------

def test_twist_matches_componentwise_formula():
    n1, n2, n3 = normal_chern()
    m1, m2, m3 = twist_rank3(n1, n2, n3, -h)
    assert m1 == n1 - 3 * h
    assert m2 == n2 + 3 * h * h - 2 * h * n1
    assert m3 == n3 - h ** 3 + h * h * n1 - h * n2


def test_twist_by_zero_is_identity():
    n1, n2, n3 = normal_chern()
    zero = GradedPoly()
    assert twist_rank3(n1, n2, n3, zero) == (n1, n2, n3)


def test_twist_split_bundle():
    # O(1)^3 twisted by O(1) is O(2)^3, whose total class is (1+2h)^3.
    assert twist_rank3(3 * h, 3 * h * h, h ** 3, h) == \
        (6 * h, 12 * h * h, 8 * h ** 3)


def test_twist_rejects_degree_mismatch():
    with pytest.raises(DomainError):
        twist_rank3(h * h, 3 * h * h, h ** 3, h)  # c1 not degree 1
    with pytest.raises(DomainError):
        twist_rank3(3 * h, 3 * h, h ** 3, h)      # c2 not degree 2
    with pytest.raises(DomainError):
        twist_rank3(3 * h, 3 * h * h, h * h, h)   # c3 not degree 3
    with pytest.raises(DomainError):
        twist_rank3(3 * h, 3 * h * h, h ** 3, h * h)  # twist not degree 1


line_classes = st.tuples(coeffs, coeffs).map(lambda ab: ab[0] * h + ab[1] * k)
deg2 = st.tuples(coeffs, coeffs, coeffs, coeffs).map(
    lambda t: t[0] * h * h + t[1] * h * k + t[2] * k * k + t[3] * c2)
deg3 = st.tuples(coeffs, coeffs, coeffs, coeffs, coeffs, coeffs, coeffs).map(
    lambda t: t[0] * h ** 3 + t[1] * h * h * k + t[2] * h * k * k
    + t[3] * k ** 3 + t[4] * h * c2 + t[5] * k * c2 + t[6] * c3)


@given(line_classes, deg2, deg3, line_classes, coeffs)
def test_twist_untwist_roundtrip(c1, c2_, c3_, l, const):
    triple = (c1, c2_, c3_ + const)
    once = twist_rank3(*triple, l)
    assert twist_rank3(*once, -l) == triple


# -- Schur values -------------------------------------------------------------

def test_schur_of_trivial_bundle():
    zero = GradedPoly()
    assert schur_values(zero, zero, zero) == (zero,) * 6


def test_schur_of_split_example():
    # O(1) + O(1) + O with c = (1+h)^2: c1 = 2h, c2 = h^2, c3 = 0.
    s1, s20, s300, s11, s210, s111 = schur_values(2 * h, h * h, GradedPoly())
    assert s111 == 4 * h ** 3
    assert s210 == 2 * h ** 3
    assert s1 == 2 * h and s20 == h * h and s300 == 0
    assert s11 == 3 * h * h


# -- reduction ----------------------------------------------------------------

def test_reduce_adjunction():
    assert reduce_to_params(h * h * (2 * h + k)) == delta


def test_reduce_twisted_determinant_cube():
    assert reduce_to_params((4 * h + k) ** 3) == v


def test_reduce_canonical_square():
    assert reduce_to_params(h * (h + k) ** 2) == 10 * chi - u


def test_reduce_constant_passthrough():
    assert reduce_to_params(GradedPoly.constant(48)) == ParamExpr.constant(48)


def test_reduce_rejects_low_degree_parts():
    with pytest.raises(DomainError):
        reduce_to_params(h)
    with pytest.raises(DomainError):
        reduce_to_params(h ** 3 + k * k)


@given(deg3, deg3, coeffs, coeffs)
def test_reduce_is_linear(p, q, a, b):
    lhs = reduce_to_params(a * p + b * q)
    rhs = a * reduce_to_params(p) + b * reduce_to_params(q)
    assert lhs == rhs


# -- Basis3 / serialization ---------------------------------------------------

def test_degree3_basis_extraction():
    _, _, n3 = normal_chern()
    assert n3.degree3_basis() == Basis3(
        h3=Fraction(35), h2k=Fraction(21), hk2=Fraction(7), k3=Fraction(1),
        hc2=Fraction(-7), kc2=Fraction(0), c3=Fraction(-1),
    )


def test_graded_canonical_text():
    _, _, n3 = normal_chern()
    assert n3.text() == ("35*h^3 + 21*h^2*k + 7*h*k^2 - 7*h*c2 + 1*k^3 "
                         "- 1*c3 + 48")
    assert GradedPoly().text() == "0"
    assert (h - h).text() == "0"


def test_param_canonical_text():
    expr = 33 * delta ** 2 - d * d * delta + Fraction(1, 2) * chi
    assert expr.text() == "-1*d^2*δ + 33*δ^2 + 1/2*χ"


def test_param_evaluate_and_substitute():
    expr = (3 * d + 6 * delta + 10 * chi - u) ** 2 - v * (2 * d + delta)
    assert expr.evaluate(4, 0, 1, 6, 32) == 0
    partial = expr.substitute(d=4, chi=1, u=6, v=32)
    assert partial.evaluate(0, 0, 0, 0, 0) == 0
    assert partial.substitute(delta=0) == ParamExpr()


def test_substitute_rejects_an_unknown_parameter():
    with pytest.raises(ValueError, match="unknown parameter 'w'"):
        (d + v).substitute(w=1)


@pytest.mark.parametrize("build, message", [
    (lambda: GradedPoly({(1, 0, 0): 1}), "bad GradedPoly monomial"),
    (lambda: GradedPoly({(-1, 1, 0, 0): 1}), "bad GradedPoly monomial"),
    (lambda: ParamExpr({(1, 0, 0, 0): 1}), "bad ParamExpr monomial"),
    (lambda: h ** -1, "exponent must be a non-negative integer"),
    (lambda: d ** Fraction(1, 2), "exponent must be a non-negative integer"),
    # A bool is not an integer: h ** True used to equal h, the float
    # evaluation returned a binary fraction, and d=True substituted 1.
    (lambda: h ** True, "exponent must be a non-negative integer"),
    (lambda: (d + v).evaluate(Fraction(1, 10), 0, 0, 0, True),
     "the value of v must be an int or a Fraction, got True"),
    (lambda: (d + v).evaluate(0.1, 0, 0, 0, 0),
     "the value of d must be an int or a Fraction, got 0.1"),
    (lambda: d.substitute(d=True),
     "the value of d must be an int or a Fraction, got True"),
    (lambda: GradedPoly({(1, 0, 0, 0): True}),
     "coefficient must be an int or a Fraction, got True"),
    (lambda: ParamExpr.constant(0.5),
     "coefficient must be an int or a Fraction, got 0.5"),
    # A float exponent used to render as h^2.0 yet equal h^2, and 0.5 as d^0;
    # a bool exponent is refused like a bool coefficient.
    (lambda: GradedPoly({(2.0, 0, 0, 0): 1}), "bad GradedPoly monomial"),
    (lambda: ParamExpr({(0.5, 0, 0, 0, 0): 1}), "bad ParamExpr monomial"),
    (lambda: GradedPoly({(True, 0, 0, 0): 1}), "bad GradedPoly monomial"),
    # A string monomial used to raise a bare TypeError.
    (lambda: GradedPoly({"abcd": 1}), "bad GradedPoly monomial"),
    (lambda: ParamExpr({5: 1}), "bad ParamExpr monomial"),
    # A monomial of the wrong length used to read as a zero coefficient.
    (lambda: h.coefficient((1, 0, 0)), "bad GradedPoly monomial"),
    (lambda: d.coefficient((1, 0, 0, 0, 0, 0)), "bad ParamExpr monomial"),
    (lambda: h.coefficient((1.0, 0, 0, 0)), "bad GradedPoly monomial"),
])
def test_malformed_polynomials_are_value_errors(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("kind, mono", [(GradedPoly, (1, 0, 0, 0)),
                                        (ParamExpr, (1, 0, 0, 0, 0))])
@pytest.mark.parametrize("terms", [5, 0, "", [], "abcd", 1.5])
def test_terms_that_are_not_a_dict_are_value_errors(kind, mono, terms):
    # GradedPoly(5) used to raise AttributeError, and GradedPoly(0) or
    # GradedPoly("") to return zero.
    for bad in (terms, [(mono, 1)]):
        with pytest.raises(ValueError, match=re.escape(
                f"{kind.__name__} terms must be a dict of monomials, "
                f"got {bad!r}")):
            kind(bad)
    assert kind() == kind({}) == kind({mono: 0})
    assert not kind().monomials()


@pytest.mark.parametrize("bad", [None, 1.5])
@pytest.mark.parametrize("call, args, slot, name", [
    (invert_unit, [1 + h], 0, "c"),
    (reduce_to_params, [h ** 3], 0, "p"),
    (twist_rank3, [k, c2, c3, h], 0, "c1"),
    (twist_rank3, [k, c2, c3, h], 1, "c2"),
    (twist_rank3, [k, c2, c3, h], 2, "c3"),
    (twist_rank3, [k, c2, c3, h], 3, "twist class"),
    (schur_values, [k, c2, c3], 0, "c1"),
    (schur_values, [k, c2, c3], 1, "c2"),
    (schur_values, [k, c2, c3], 2, "c3"),
])
def test_ring_entry_points_refuse_a_non_graded_argument(call, args, slot,
                                                        name, bad):
    # Each used to raise AttributeError (schur_values: TypeError) from
    # inside the ring.
    call(*args)
    args = [*args[:slot], bad, *args[slot + 1:]]
    with pytest.raises(ValueError,
                       match=f"^{name} must be a GradedPoly, got {bad!r}$"):
        call(*args)


@pytest.mark.parametrize("scalar", [True, False, 0.5, "1"])
def test_arithmetic_with_a_bool_or_float_is_a_type_error(scalar):
    # h + True used to give 1*h + 1.
    for op in (lambda a, b: a + b, lambda a, b: b + a, lambda a, b: a - b,
               lambda a, b: b - a, lambda a, b: a * b, lambda a, b: b * a):
        with pytest.raises(TypeError):
            op(h, scalar)
        with pytest.raises(TypeError):
            op(d, scalar)
    assert h != scalar


def test_coefficients_are_stored_as_ints():
    # Ring arithmetic on integer coefficients stays in int; only a true
    # rational makes a Fraction, and the accessors return Fractions.
    polys = [*SUBSTITUTIONS.values(), *SCHUR_PARAM_FORMS, *normal_chern()]
    stored = [c for p in polys for c in p._terms.values()]
    assert stored and all(type(c) is int for c in stored)
    _, _, n3 = normal_chern()
    assert type(n3.coefficient((3, 0, 0, 0))) is Fraction
    assert type(n3.constant_term()) is Fraction
    assert all(type(c) is Fraction for c in n3.monomials().values())
    assert all(type(c) is Fraction for c in n3.degree3_basis())
    assert type((d + v).evaluate(1, 0, 0, 0, 2)) is Fraction
    half = Fraction(1, 2) * h
    assert half + half == h
    assert hash(half + half) == hash(h)
    assert GradedPoly.constant(Fraction(3)) == 3 == GradedPoly.constant(3)


def test_param_power_and_equality_with_scalars():
    assert (d - d) == 0
    assert ParamExpr.constant(Fraction(3, 2)) == Fraction(3, 2)
    assert d ** 0 == 1


@pytest.mark.parametrize("kind", [GradedPoly, ParamExpr])
@pytest.mark.parametrize("scalar", [0, 3, -7, 10 ** 30, Fraction(3),
                                    Fraction(3, 2), Fraction(-1, 7)])
def test_a_constant_hashes_like_the_scalar_it_equals(kind, scalar):
    # A constant compared equal to its scalar but hashed apart from it, so
    # {3, GradedPoly.constant(3)} had two members and {0: 'x'}.get(h - h)
    # found nothing.
    const = kind.constant(scalar)
    assert const == scalar and hash(const) == hash(scalar)
    assert len({scalar, const}) == 1
    assert {scalar: "x"}.get(const) == "x"
    zero = kind.constant(1) - kind.constant(1)
    assert zero == 0 and hash(zero) == hash(0) == hash(kind())


def test_degree_part_needs_an_integer_degree():
    # degree_part(True) used to give the degree-1 part, and 1.5, None or
    # nan an empty part.
    p = 1 + h + k * k
    assert p.degree_part(1) == h and p.degree_part(2) == k * k
    for bad in (True, 1.5, None, float("nan"), Fraction(1)):
        with pytest.raises(ValueError, match=re.escape(
                f"degree_part needs an integer degree, got {bad!r}")):
            p.degree_part(bad)


def test_mixing_graded_and_parameter_polynomials_is_a_type_error():
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(TypeError):
            op(h, d)
        with pytest.raises(TypeError):
            op(d, h)
    assert h != ParamExpr({(1, 0, 0, 0, 0): 1})


@given(polys)
def test_graded_text_is_deterministic(p):
    q = GradedPoly(dict(reversed(list(p.monomials().items()))))
    assert p.text() == q.text()
