"""Canonical text rendering for exact rationals and monomial expansions."""

from __future__ import annotations

from fractions import Fraction


def rat_str(x) -> str:
    """Render an exact rational: ``"p/q"``, or just ``"p"`` when integral."""
    if type(x) is int:
        return str(x)
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def monomial_str(exponents, names) -> str:
    """``(2, 1, 0)`` over ``("d", "e", "f")`` -> ``"d^2*e"`` (``""`` for 1)."""
    parts = []
    for e, name in zip(exponents, names):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def terms_str(terms, names) -> str:
    """Signed sum of ``(exponents, coefficient)`` pairs in the given order.

    Coefficients are always printed explicitly (``- 1*d^2*e``); a constant
    term is printed bare.  The zero expansion renders as ``"0"``.
    """
    if not terms:
        return "0"
    out = []
    for exponents, coeff in terms:
        mono = monomial_str(exponents, names)
        mag = rat_str(abs(coeff))
        body = f"{mag}*{mono}" if mono else mag
        if not out:
            out.append(body if coeff > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(out)
