"""Independent oracles used to pre-compute expected values.

Nothing in here calls into ``p6fold``'s substitution tables or identity
machinery: the split-bundle oracle works from the total Chern class of a
direct sum of line bundles with its own 4-term polynomial arithmetic, and
``constraint_values`` derives every constraint from its definition in a
graded ring of its own.  Tests freeze or recompute expectations from these
and diff the package against them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import comb


def _pmul(p, q):
    """Product of degree-<=3 truncated polynomials in one variable."""
    r = [Fraction(0)] * 4
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            if i + j <= 3:
                r[i + j] += pi * qj
    return r


def _pinv(p):
    """Inverse of a truncated polynomial with constant term 1."""
    assert p[0] == 1
    a = [Fraction(0), p[1], p[2], p[3]]
    a2 = _pmul(a, a)
    a3 = _pmul(a2, a)
    return [1 + a2[0] - a3[0], -a[1] + a2[1] - a3[1],
            -a[2] + a2[2] - a3[2], -a[3] + a2[3] - a3[3]]


def split_bundle_profile(d: int, canonical_multiple: int,
                         normal_degrees: tuple) -> dict:
    """Expected profile of a threefold of degree d with K = m*H and split
    normal bundle O(a) + O(b) + O(c).

    Every number is produced by direct expansion of total Chern classes;
    chi and u are derived from Noether's formula and the topological Euler
    number rather than taken as inputs.
    """
    m = canonical_multiple
    a, b, c = normal_degrees

    cn = _pmul(_pmul([Fraction(1), Fraction(a), Fraction(0), Fraction(0)],
                     [Fraction(1), Fraction(b), Fraction(0), Fraction(0)]),
               [Fraction(1), Fraction(c), Fraction(0), Fraction(0)])
    # c(T_X) = c(T_P6 restricted) / c(N) = (1+h)^7 / c(N)
    ctx = _pmul([Fraction(1), Fraction(7), Fraction(21), Fraction(35)],
                _pinv(cn))
    assert ctx[1] == -m, "canonical multiple inconsistent with normal bundle"
    c2x, c3x = ctx[2], ctx[3]

    hc2 = c2x * d
    KS2 = (m + 1) ** 2 * d
    c2S = hc2 + (m + 1) * d  # tangent sequence of the hyperplane surface
    noether = KS2 + c2S
    assert noether % 12 == 0
    chi = noether // 12
    u = c2S - 2 * chi
    delta = (m + 2) * d

    e1 = a + b + c
    f = (a - 1, b - 1, c - 1)
    t1 = sum(f)
    t2 = f[0] * f[1] + f[0] * f[2] + f[1] * f[2]
    t3 = f[0] * f[1] * f[2]

    g = Fraction(delta + 2, 2)
    return {
        "tuple": (d, delta, int(chi), int(u), (e1 - 3) ** 3 * d),
        "h3": d, "h2k": m * d, "hk2": m * m * d, "k3": m ** 3 * d,
        "hc2": int(hc2), "kc2": int(m * hc2), "c3": int(c3x * d),
        "n3": a * b * c * d,
        "KS2": int(KS2), "c2S": int(c2S), "pg": int(chi) - 1,
        "g": int(g) if g.denominator == 1 else g,
        "s1h2": t1 * d, "s20h": t2 * d, "s11h": (t1 * t1 - t2) * d,
        "s300": t3 * d, "s210": (t1 * t2 - t3) * d,
        "s111": (t1 ** 3 - 2 * t1 * t2 + t3) * d,
    }


# The three reference threefolds: a linear P^3, the quadric in P^4, and the
# (2,2) complete intersection in P^5, each with its canonical multiple and
# split normal bundle degrees.  bench/make_goldens.py draws the benchmark's
# profile commands from these three by sorted name, so the committed
# goldens are rebuilt unchanged only while this mapping stays as it is.
FIXTURES = {
    "linear_p3": (1, -4, (1, 1, 1)),
    "quadric": (2, -3, (2, 1, 1)),
    "ci_22": (4, -2, (2, 2, 1)),
}

# All seven smooth Fano complete intersections in P^6, of type (a, b, c)
# with a + b + c < 7: degree abc, K = (a + b + c - 7)H, normal bundle
# O(a) + O(b) + O(c).  The four beyond FIXTURES are the cubic and the
# quartic in P^4, the (2,3) complete intersection in P^5 and the (2,2,2)
# complete intersection in P^6.
FANO_FIXTURES = {
    **FIXTURES,
    "cubic": (3, -2, (3, 1, 1)),
    "quartic": (4, -1, (4, 1, 1)),
    "ci_23": (6, -1, (3, 2, 1)),
    "ci_222": (8, -1, (2, 2, 2)),
}


# The constraint oracle works in the ring generated by h (hyperplane), k
# (canonical class), c2 and c3 (Chern classes of T_X) of a threefold X in
# P^6, truncated above degree 3.  A class is a dict from exponent tuples
# (h, k, c2, c3) to integer coefficients.
_WEIGHTS = (1, 1, 2, 3)


def _degree(exponents):
    return sum(w * e for w, e in zip(_WEIGHTS, exponents))


def _clean(p):
    return {e: c for e, c in p.items() if c and _degree(e) <= 3}


def _add(*classes):
    r = {}
    for p in classes:
        for e, c in p.items():
            r[e] = r.get(e, 0) + c
    return _clean(r)


def _mul(*classes):
    r = {(0, 0, 0, 0): 1}
    for p in classes:
        q = {}
        for ea, ca in r.items():
            for eb, cb in p.items():
                e = tuple(a + b for a, b in zip(ea, eb))
                q[e] = q.get(e, 0) + ca * cb
        r = _clean(q)
    return r


def _scale(s, p):
    return _clean({e: s * c for e, c in p.items()})


def _part(p, degree):
    return {e: c for e, c in p.items() if _degree(e) == degree}


_ONE, _H, _K, _C2, _C3 = ({e: 1} for e in ((0, 0, 0, 0), (1, 0, 0, 0),
                                          (0, 1, 0, 0), (0, 0, 1, 0),
                                          (0, 0, 0, 1)))


def _twisted_normal_chern():
    """c0..c3 of N(-1), N the normal bundle: c(N) = (1 + h)^7 / c(T_X)."""
    a = _add(_scale(-1, _K), _C2, _C3)  # c(T_X) - 1, with c1(T_X) = -k
    inverse = _add(_ONE, _scale(-1, a), _mul(a, a), _scale(-1, _mul(a, a, a)))
    total = _mul(*[_add(_ONE, _H)] * 7, inverse)
    n = [_part(total, i) for i in range(4)]
    # Twisting a rank-3 bundle by l = -h:
    # c_j(E(l)) = sum over i <= j of binomial(3 - i, j - i) c_i(E) l^(j - i).
    minus_h = _scale(-1, _H)
    twisted = [_add(*(_scale(comb(3 - i, j - i),
                                 _mul(n[i], *[minus_h] * (j - i)))
                      for i in range(j + 1)))
               for j in range(4)]
    return n, twisted


def _schur(c, partition):
    """det(c_{lambda_i + j - i}), with c_0 = 1 and c_m = 0 off 0..3."""
    size = len(partition)

    def entry(i, j):
        m = partition[i] + j - i
        return c[m] if 0 <= m <= 3 else {}

    total = {}
    for perm in permutations(range(size)):
        inversions = sum(perm[a] > perm[b] for a in range(size)
                         for b in range(a + 1, size))
        term = _mul(*(entry(i, perm[i]) for i in range(size)))
        total = _add(total, _scale((-1) ** inversions, term))
    return total


_NORMAL, _TWISTED = _twisted_normal_chern()
_D = _TWISTED[1]  # c1(N(-1)) = det N(-1), which is 4h + k
_HHD, _HDD, _DDD = _mul(_H, _H, _D), _mul(_H, _D, _D), _mul(_D, _D, _D)
_SCHUR_CLASSES = [
    _mul(_schur(_TWISTED, partition), *[_H] * (3 - sum(partition)))
    for partition in ((1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1))]


def _integrate(p, numbers):
    return sum(c * numbers[e] for e, c in p.items())


def _solve(p, target, numbers, unknown):
    """Set the one unknown intersection number that makes ``p`` equal
    ``target``."""
    numbers[unknown] = 0
    rest = target - _integrate(p, numbers)
    value, remainder = divmod(rest, p[unknown])
    if remainder:
        raise ArithmeticError(f"no integer {unknown} solves {p} = {target}")
    numbers[unknown] = value


def _intersection_numbers(d, delta, chi, u, v):
    """The degree-3 intersection numbers of X, from the definitions of the
    five invariants."""
    h3, h2k, hk2, k3 = (3, 0, 0, 0), (2, 1, 0, 0), (1, 2, 0, 0), (0, 3, 0, 0)
    hc2, kc2, c3 = (1, 0, 1, 0), (0, 1, 1, 0), (0, 0, 0, 1)
    numbers = {h3: d}
    # Adjunction on the sectional curve: delta = 2g - 2 = (k + 2h) h^2.
    numbers[h2k] = delta - 2 * d
    # On the hyperplane surface S: K_S = (k + h)|S, c(T_S) = c(T_X)|S/(1 + h),
    # and Noether's formula with q = 0: K_S^2 + c2(S) = 12 chi, c2(S) =
    # 2 - 4q + 2 p_g + h^{1,1} = 2 chi + u.
    numbers[hk2] = 10 * chi - u - 2 * numbers[h2k] - d
    numbers[hc2] = 2 * chi + u - numbers[h2k] - d
    # Riemann-Roch: chi(O_X) = c1 c2 / 24 = 1 for X rationally connected.
    numbers[kc2] = -24
    # v is the cube of the twisted normal determinant.
    _solve(_DDD, v, numbers, k3)
    # Self-intersection of X in P^6: c3(N) = X.X = d^2.
    _solve(_NORMAL[3], d * d, numbers, c3)
    return numbers


def constraint_values(t, cfg):
    """``[(id, value, ok), ...]`` for every constraint of ``cfg``, in
    report order, from the definitions in the ``p6fold.constraints``
    docstring.  Reads only the three fields of ``cfg``."""
    d, delta, chi, u, v = t
    numbers = _intersection_numbers(d, delta, chi, u, v)
    rows = []
    if cfg.geometric_mode:
        rows += [("B1", d - cfg.min_degree, d >= cfg.min_degree),
                 ("B2", delta % 2, delta % 2 == 0),
                 ("B3", delta + 2, delta >= -2),
                 ("B4", chi - 1, chi >= 1),
                 ("B5", u - 1, u >= 1)]
    for i, cls in enumerate(_SCHUR_CLASSES, 1):
        value = _integrate(cls, numbers)
        rows.append((f"S{i}", value, value >= 0))
    hd2, h2d, d3 = (_integrate(p, numbers) for p in (_HDD, _HHD, _DDD))
    for cid, value in (("H1", hd2 * hd2 - h2d * d3),
                       ("H2", h2d * h2d - d * hd2)):
        rows.append((cid, value, value >= 0))
    cap = cfg.ks2_cap
    if cap is not None:
        rows.append(("K", cap - (10 * chi - u), 10 * chi - u <= cap))
    return rows


# Ten points (chi, u, v) that fix a polynomial of degree at most 2: the
# origin, each unit vector and its double, and each sum of two.
_QUADRATIC_POINTS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0),
                     (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))


def chis_with_a_real_u(d, delta, ranges, cfg):
    """The chi of the box ``ranges`` (five inclusive ``(lo, hi)`` pairs) at
    which some real u in its u-range satisfies every constraint of ``cfg``
    that, on the row (d, delta), has no v and no quadratic part.

    The forms come from :func:`constraint_values`: on a row each value is a
    polynomial of degree at most 2 in (chi, u, v) (the Schur values are
    affine in the intersection numbers, H1 and H2 products of two), so its
    values at the ten points above show whether it is ``e + a*chi + b*u``.
    A form with a = b = 0 holds or fails on the whole row, by its ``ok``
    flag (B2's value is delta mod 2); every other one holds iff it is
    >= 0.  Exact, in ``Fraction``s."""
    columns = zip(*(constraint_values((d, delta, *p), cfg)
                    for p in _QUADRATIC_POINTS))
    forms = []
    for rows in columns:
        (_, e, ok), *others = rows
        a, b = others[0][1] - e, others[1][1] - e
        if all(value == e + a * x + b * y
               for ((_, value, _), (x, y, _)) in zip(rows, _QUADRATIC_POINTS)):
            if a == b == 0 and not ok:
                return []
            forms.append((e, a, b))
    return chis_of_forms_with_a_real_u(forms, ranges[2], ranges[3])


def chis_of_forms_with_a_real_u(forms, chi_range, u_range):
    """The chi in ``chi_range`` (an inclusive ``(lo, hi)`` pair) at which
    some real u in ``u_range`` satisfies ``e + a*chi + b*u >= 0`` for every
    ``(e, a, b)`` in ``forms``.  Exact, in ``Fraction``s."""
    (chi0, chi1), (u0, u1) = chi_range, u_range
    chis = []
    for chi in range(chi0, chi1 + 1):
        lower, upper, holds = Fraction(u0), Fraction(u1), True
        for e, a, b in forms:
            if b > 0:
                lower = max(lower, Fraction(-(e + a * chi), b))
            elif b < 0:
                upper = min(upper, Fraction(e + a * chi, -b))
            else:
                holds = holds and e + a * chi >= 0
        if holds and lower <= upper:
            chis.append(chi)
    return chis


def naive_feasible_rows(box, cfg):
    """Reference enumeration: plain nested loop + is_feasible, CSV cells."""
    from p6fold.constraints import is_feasible
    from p6fold.invariants import InvariantTuple

    rows = []
    (d0, d1), (e0, e1), (c0, c1), (u0, u1), (v0, v1) = box.ranges()
    for d in range(d0, d1 + 1):
        for delta in range(e0, e1 + 1):
            for chi in range(c0, c1 + 1):
                for u in range(u0, u1 + 1):
                    for v in range(v0, v1 + 1):
                        t = InvariantTuple(d, delta, chi, u, v)
                        if is_feasible(t, cfg):
                            rows.append(f"{d},{delta},{chi},{u},{v}")
    return rows
