"""p6fold: exact intersection-theory toolkit for smooth threefolds in P^6.

Verifies the Chern-number identities of such threefolds coefficient by
coefficient, evaluates the Schur/Hodge feasibility constraints on candidate
invariants, scans integer boxes for feasible tuples, and reproduces the
closed-form degree bound 34^3, all in exact rational arithmetic.
"""

from .bounds import (
    BoundReport,
    degree_bound,
    delta_lower,
    genus_upper_delta,
    lifting_threshold,
    section5_quadratic,
)
from .constraints import (
    ConstraintReport,
    ConstraintValue,
    HypothesisConfig,
    evaluate,
    is_feasible,
)
from .errors import DomainError, UnknownIdentityError
from .identities import IdentityResult, identity_ids, verify_all, verify_identity
from .invariants import InvariantTuple, Profile, SchurNumbers, from_geometry, profile
from .ring import (
    Basis3,
    GradedPoly,
    ParamExpr,
    invert_unit,
    normal_chern,
    reduce_to_params,
    schur_values,
    twist_rank3,
)
from .scan import ScanBox, ScanResult, iter_feasible, scan

__version__ = "0.1.0"

__all__ = [
    "Basis3",
    "BoundReport",
    "ConstraintReport",
    "ConstraintValue",
    "DomainError",
    "GradedPoly",
    "HypothesisConfig",
    "IdentityResult",
    "InvariantTuple",
    "ParamExpr",
    "Profile",
    "ScanBox",
    "ScanResult",
    "SchurNumbers",
    "UnknownIdentityError",
    "degree_bound",
    "delta_lower",
    "evaluate",
    "from_geometry",
    "genus_upper_delta",
    "identity_ids",
    "invert_unit",
    "is_feasible",
    "iter_feasible",
    "lifting_threshold",
    "normal_chern",
    "profile",
    "reduce_to_params",
    "scan",
    "schur_values",
    "section5_quadratic",
    "twist_rank3",
    "verify_all",
    "verify_identity",
]
