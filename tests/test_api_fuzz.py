"""A seeded fuzz of the public API.

Every callable in ``p6fold.__all__``, read at run time, is called on
arguments drawn from a fixed pool, so a new public callable is fuzzed with
no edit here.  The only exceptions allowed are ``ValueError`` (which
includes ``DomainError``), ``UnknownIdentityError``, and a ``TypeError``
where the arguments do not fit the signature.
"""

from __future__ import annotations

import inspect
import io
import random
from fractions import Fraction
from itertools import islice

import p6fold
from p6fold import HypothesisConfig, ScanBox, UnknownIdentityError
from p6fold.ring import c2, d, h, k

POOL = (
    0, 1, -1, 2, 9, 34, 35, 10 ** 6, -10 ** 6,
    True, False,
    1.5, 0.0, -2.0, float("nan"),
    Fraction(1, 2), Fraction(4),
    None,
    "", "x", "paper", "sharp", "csv", "jsonl", "S5.QUAD", "L3.4.2",
    (), (1, 2), (4, 0, 1, 6, 32), (1, -2, 1, 1, 0), (1.0, 2, 3, 4, 5),
    (True, 0, 1, 6, 32), ("1", "2"),
    HypothesisConfig(), HypothesisConfig(geometric_mode=False, ks2_cap=9),
    HypothesisConfig(ks2_cap=9, min_degree=3),
    ScanBox.of(d=(1, 2), delta=-2, chi=1, u=(1, 2), v=(0, 2)),
    h, 1 + h, k * k - c2, 1 - h + h * k, d, d * d - 3 * d,
)

CALLS = 20000


def public_callables():
    return [(name, getattr(p6fold, name)) for name in sorted(p6fold.__all__)
            if callable(getattr(p6fold, name))]


def signature(fn):
    try:
        return inspect.signature(fn)
    except ValueError:  # a builtin exception class: it takes any arguments
        return None


def fits(sig, args) -> bool:
    if sig is None:
        return True
    try:
        sig.bind(*args)
    except TypeError:
        return False
    return True


def test_public_callables_raise_only_value_errors():
    rng = random.Random(2026)
    callables = public_callables()
    assert {"scan", "evaluate", "section5_quadratic", "verify_identity",
            "ScanBox"} <= {name for name, _ in callables}
    problems, outcomes = [], set()
    for _ in range(CALLS):
        name, fn = rng.choice(callables)
        sig = signature(fn)
        most = 3 if sig is None else len(sig.parameters) + 1
        args = [rng.choice(POOL) for _ in range(rng.randint(0, most))]
        if name == "scan" and len(args) >= 3:
            args[2] = io.StringIO()
        fit = fits(sig, args)
        try:
            result = fn(*args)
            if hasattr(result, "__next__"):
                list(islice(result, 3))
        except (ValueError, UnknownIdentityError) as exc:
            outcomes.add(type(exc).__name__)
        except TypeError as exc:
            outcomes.add("arity")
            if fit:
                problems.append((name, args, repr(exc)))
        except Exception as exc:
            problems.append((name, args, repr(exc)))
        else:
            outcomes.add("returned")
            if not fit:
                problems.append((name, args, "took arguments that do not "
                                 "fit its signature"))
    assert problems == []
    assert outcomes == {"returned", "ValueError", "DomainError",
                        "UnknownIdentityError", "arity"}
