"""Action representations of free products on their Cayley graphs.

Exact word arithmetic, finitely supported vectors and group-algebra
operators on l2 of a countable space, certified-from-below operator-norm
estimation, and the conjugation-averaging experiments built on top of them.
"""

from .groups import (
    INFINITE,
    DegenerateInputError,
    FreeProductPresentation,
    GroupElement,
    PresentationMismatchError,
    conjugate_sequence,
    element_order,
    free_group,
    free_product,
    reduce,
)
from .spaces import (
    BudgetExceededError,
    CayleySpace,
    OrbitDecomposition,
    orbit_decompose,
)
from .operators import (
    FormalOperator,
    NormBudget,
    NormEstimate,
    StateVector,
    norm_lower_bound,
    op_apply,
    triangle_upper_bound,
)
from .dynamics import (
    CoefficientSequence,
    average_MJ,
    averaging_decay_report,
    build_Ta,
    canonical_trace,
    check_Wj_disjoint,
    finite_order_blowup,
    ideal_experiment,
    pingpong_certificate,
    tracial_property_check,
    verify_panalytic,
)

__all__ = [
    "INFINITE",
    "DegenerateInputError",
    "FreeProductPresentation",
    "GroupElement",
    "PresentationMismatchError",
    "conjugate_sequence",
    "element_order",
    "free_group",
    "free_product",
    "reduce",
    "BudgetExceededError",
    "CayleySpace",
    "OrbitDecomposition",
    "orbit_decompose",
    "FormalOperator",
    "NormBudget",
    "NormEstimate",
    "StateVector",
    "norm_lower_bound",
    "op_apply",
    "triangle_upper_bound",
    "CoefficientSequence",
    "average_MJ",
    "averaging_decay_report",
    "build_Ta",
    "canonical_trace",
    "check_Wj_disjoint",
    "finite_order_blowup",
    "ideal_experiment",
    "pingpong_certificate",
    "tracial_property_check",
    "verify_panalytic",
]

__version__ = "0.1.0"
