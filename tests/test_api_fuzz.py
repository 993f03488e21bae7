"""A seeded fuzz of the public API.

Every callable in ``p6fold.__all__``, read at run time, is called on
arguments drawn from a fixed pool, so a new public callable is fuzzed with
no edit here.  The only exceptions allowed are ``ValueError`` (which
includes ``DomainError``), ``UnknownIdentityError``, and a ``TypeError``
where the arguments do not fit the signature.  Likewise every public
method that p6fold defines on an exported class, bound to each instance in
the pool and in ``RESULTS``, and ``bounds.proof_trace``; there
``KeyError`` is allowed from ``ConstraintReport.value_of`` alone.
"""

from __future__ import annotations

import inspect
import io
import random
from fractions import Fraction
from itertools import islice

import p6fold
from p6fold import HypothesisConfig, ScanBox, UnknownIdentityError
from p6fold.bounds import proof_trace
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

# Instances of the exported classes that the pool lacks.
RESULTS = (
    p6fold.profile((4, 0, 1, 6, 32)), p6fold.profile((3, 1, 1, 1, 0)),
    p6fold.evaluate((4, 0, 1, 6, 32), HypothesisConfig()),
    p6fold.degree_bound(34, 9), p6fold.verify_identity("DP"),
    p6fold.InvariantTuple(4, 0, 1, 6, 32), p6fold.ScanResult(8, 1),
)

CALLS = 20000


def public_callables():
    return [(name, getattr(p6fold, name)) for name in sorted(p6fold.__all__)
            if callable(getattr(p6fold, name))]


def public_methods():
    """``(name, method)`` for each public method that a p6fold class
    defines, bound to each instance in ``POOL`` and ``RESULTS``."""
    methods = [("proof_trace", proof_trace)]
    for obj in POOL + RESULTS:
        for cls in type(obj).__mro__:
            if not cls.__module__.startswith("p6fold"):
                continue
            for name in vars(cls):
                if not name.startswith("_") and callable(getattr(obj, name)):
                    methods.append((f"{cls.__name__}.{name}",
                                    getattr(obj, name)))
    return methods


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


def test_public_methods_raise_only_value_errors():
    rng = random.Random(2026)
    methods = public_methods()
    assert {"proof_trace", "ScanBox.parse", "GradedPoly.degree_part",
            "ParamExpr.substitute", "ConstraintReport.value_of",
            "Profile.to_json_dict"} <= {name for name, _ in methods}
    args_pool = POOL + RESULTS
    problems, outcomes = [], set()
    for _ in range(CALLS):
        name, fn = rng.choice(methods)
        sig = signature(fn)
        args = [rng.choice(args_pool)
                for _ in range(rng.randint(0, len(sig.parameters) + 1))]
        fit = fits(sig, args)
        try:
            fn(*args)
        except (ValueError, UnknownIdentityError) as exc:
            outcomes.add(type(exc).__name__)
        except KeyError as exc:
            outcomes.add("KeyError")
            if name != "ConstraintReport.value_of":
                problems.append((name, args, repr(exc)))
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
    assert outcomes == {"returned", "ValueError", "KeyError", "arity"}
