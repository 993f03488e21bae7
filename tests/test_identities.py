"""The symbolic regression registry: 17 identities, all recomputed and diffed."""

from __future__ import annotations

import pytest

from p6fold import identities
from p6fold.errors import UnknownIdentityError
from p6fold.identities import (
    _HODGE_PARAM_FORMS,
    SCHUR_PARAM_FORMS,
    identity_ids,
    verify_all,
    verify_identity,
)
from p6fold.ring import ParamExpr, _Poly, chi, d, delta, u, v

EXPECTED_IDS = [
    "L3.4",
    "L3.6.1", "L3.6.2", "L3.6.3", "L3.6.4", "L3.6.5",
    "L4.3.1", "L4.3.2", "L4.3.3", "L4.3.4", "L4.3.5", "L4.3.6",
    "DP",
    "C4.5.1", "C4.5.2",
    "S5.QUAD", "S5.SUM",
]


@pytest.fixture
def fresh_derivations():
    """Clear the per-process derivations before and after a test that
    patches the ring, so no other test sees what it derived."""
    caches = (identities._normal_bundle, identities._schur_of_twisted_normal)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


def counting(monkeypatch, name):
    """Count the calls to ``identities.<name>`` in a one-item list."""
    calls = [0]
    original = getattr(identities, name)

    def wrapper(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(identities, name, wrapper)
    return calls


def test_registry_derives_the_normal_bundle_once_per_process(
        fresh_derivations, monkeypatch):
    normal = counting(monkeypatch, "normal_chern")
    twist = counting(monkeypatch, "twist_rank3")
    assert all(r.passed for r in verify_all())
    reduce = counting(monkeypatch, "reduce_to_params")
    assert all(r.passed for r in verify_all())
    assert (normal[0], twist[0]) == (1, 1)
    # Each check still reduces its own left side.
    assert reduce[0] > 0


def test_schur_checks_multiply_nothing_once_derived(fresh_derivations,
                                                    monkeypatch):
    # The Schur checks used to rebuild the six top classes (s1*h*h, ...)
    # from the cached Schur values on every call.  Only a product of two
    # polynomials counts: S5.SUM states its right side as 3*d + ...
    assert all(r.passed for r in verify_all())
    calls = [0]
    mul = _Poly.__mul__

    def counted(self, other):
        calls[0] += isinstance(other, _Poly)
        return mul(self, other)

    monkeypatch.setattr(_Poly, "__mul__", counted)
    monkeypatch.setattr(_Poly, "__rmul__", counted)
    ids = [f"L4.3.{i}" for i in range(1, 7)] + ["S5.SUM"]
    assert all(verify_identity(i).passed for i in ids)
    assert calls[0] == 0


def test_a_bad_derivation_still_fails_the_registry(fresh_derivations,
                                                   monkeypatch):
    # Derive N(-2) where the registry expects N(-1): every Schur check
    # must fail, and the checks that do not read the twist (L3.4, the
    # L3.6 table, DP, C4.5, S5.QUAD) must pass.
    twist = identities.twist_rank3
    monkeypatch.setattr(identities, "twist_rank3",
                        lambda n1, n2, n3, l: twist(n1, n2, n3, 2 * l))
    failed = {r.id for r in verify_all() if not r.passed}
    assert failed == {f"L4.3.{i}" for i in range(1, 7)} | {"S5.SUM"}


def test_registry_has_the_17_canonical_ids():
    assert identity_ids() == EXPECTED_IDS
    assert len(identity_ids()) == 17


def test_every_identity_passes():
    results = verify_all()
    assert len(results) == 17
    failures = [r.id for r in results if not r.passed]
    assert failures == []
    for r in results:
        for cmp in r.comparisons:
            assert cmp.equal
            assert cmp.diff == "0"
            assert cmp.lhs == cmp.rhs


@pytest.mark.parametrize("sub_id", ["L3.4.1", "L3.4.2", "L3.4.3"])
def test_normal_bundle_sub_ids(sub_id):
    result = verify_identity(sub_id)
    assert result.passed
    assert len(result.comparisons) == 1


def test_combined_normal_bundle_identity_has_three_components():
    result = verify_identity("L3.4")
    assert [c.label for c in result.comparisons] == ["n1", "n2", "n3"]


# An unhashable id used to raise a bare TypeError from the lookup.
@pytest.mark.parametrize("identity_id", ["L9.9", ["L3.4"]])
def test_unknown_id_raises(identity_id):
    with pytest.raises(UnknownIdentityError):
        verify_identity(identity_id)


def test_schur_s300_matches_stated_form():
    result = verify_identity("L4.3.4")
    assert result.passed
    # s300 = -5d - 5*delta - 8*chi + 2u + d^2, coefficient by coefficient
    expected = {
        (1, 0, 0, 0, 0): -5, (0, 1, 0, 0, 0): -5, (0, 0, 1, 0, 0): -8,
        (0, 0, 0, 1, 0): 2, (2, 0, 0, 0, 0): 1,
    }
    assert SCHUR_PARAM_FORMS[3] == ParamExpr(expected)


def test_schur_s210_matches_stated_form():
    expected = {
        (1, 0, 0, 0, 0): 4, (0, 1, 0, 0, 0): -3, (0, 0, 1, 0, 0): -30,
        (0, 0, 0, 1, 0): -3, (0, 0, 0, 0, 1): 1, (0, 0, 0, 0, 0): 24,
        (2, 0, 0, 0, 0): -1,
    }
    assert SCHUR_PARAM_FORMS[4] == ParamExpr(expected)
    assert verify_identity("L4.3.5").passed


def test_double_point_reduction_is_exactly_d_squared():
    result = verify_identity("DP")
    assert result.passed
    assert result.comparisons[0].rhs == "1*d^2"
    assert result.comparisons[0].lhs == "1*d^2"


def test_closing_quadratic_coefficients():
    result = verify_identity("S5.QUAD")
    assert result.passed
    expected = ParamExpr({
        (0, 2, 0, 0, 0): 33,
        (2, 1, 0, 0, 0): -1, (1, 1, 0, 0, 0): 34, (0, 1, 0, 0, 0): 99,
        (3, 0, 0, 0, 0): -2, (2, 0, 0, 0, 0): 17, (1, 0, 0, 0, 0): 36,
        (0, 0, 0, 0, 0): 81,
    })
    lhs = ((3 * d + 6 * delta + 9) ** 2
           - (2 * d + delta) * (d * d - 4 * d + 3 * delta + 9))
    assert lhs == expected


def test_schur_sum_identity():
    result = verify_identity("S5.SUM")
    assert result.passed
    assert SCHUR_PARAM_FORMS[1] + SCHUR_PARAM_FORMS[2] == ParamExpr({
        (1, 0, 0, 0, 0): 3, (0, 1, 0, 0, 0): 6, (0, 0, 1, 0, 0): 10,
        (0, 0, 0, 1, 0): -1,
    })


def has_the_shape_feasible_cells_reads(form):
    """True iff every monomial of ``form`` has total degree <= 2 and at most
    one v, and none has v together with chi or u."""
    return all(sum(mono) <= 2 and mono[4] <= 1
               and not (mono[4] and (mono[2] or mono[3]))
               for mono in form.monomials())


def test_schur_and_hodge_forms_have_the_shape_feasible_cells_reads():
    # constraints.feasible_cells reads each constraint's chi^2, u^2 and
    # chi*u coefficients once, off the row (d, delta) = (0, 0), and the rest
    # of it per row as e + a*chi + b*u + c*v.  That is exact only while
    # those three coefficients are free of (d, delta), no form has a v^2
    # term, and c is free of chi and u.  The kernel-side check of the same
    # shape is in tests/test_constraints.py.
    for form in (*SCHUR_PARAM_FORMS, *_HODGE_PARAM_FORMS):
        assert has_the_shape_feasible_cells_reads(form), form.text()
    h1 = _HODGE_PARAM_FORMS[0]
    for bad in (h1 + chi * v, h1 + u * v, h1 + d * chi * chi, h1 + v * v):
        assert not has_the_shape_feasible_cells_reads(bad), bad.text()


def test_the_projection_certificates():
    # The two positive combinations of U-constraints (the forms with no v
    # and no quadratic term) that bound a degree's (delta, chi):
    # feasible_cells ends each degree's delta sweep where the first is
    # below 0, and its Fourier-Motzkin step finds the second when d > 0.
    s2, s4 = SCHUR_PARAM_FORMS[1], SCHUR_PARAM_FORMS[3]
    h2 = _HODGE_PARAM_FORMS[1]
    assert s2 + s4 == d * d - 3 * d - delta
    assert 2 * h2 + d * s2 == 4 * d * d + 2 * delta * delta - 12 * d * chi
