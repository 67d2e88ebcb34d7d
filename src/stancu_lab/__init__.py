"""Bernstein and Bernstein-Stancu operators on [0, 1]: numerically stable
evaluation, node geometry checks, modulus-of-continuity error bounds and
figure reproduction."""

from .bounds import (
    BoundConfig,
    DEFAULT_CONFIG,
    RatioFamily,
    Theorem4Report,
    corollary2_bound,
    grid_slack,
    modulus_of_continuity,
    operator_distance,
    sup_error,
    sup_error_and_distance,
    theorem4_experiment,
)
from .nodes import (
    ClusterReport,
    Theorem1Report,
    Theorem3Report,
    check_theorem1,
    check_theorem2,
    check_theorem3,
)
from .operators import (
    BUILTIN_FUNCTIONS,
    FunctionSpec,
    SampledCurve,
    StancuParams,
    apply_operator,
    apply_operator_curve,
    basis_row,
    evaluate,
    moment_closed_form,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_FUNCTIONS",
    "BoundConfig",
    "ClusterReport",
    "DEFAULT_CONFIG",
    "FunctionSpec",
    "RatioFamily",
    "SampledCurve",
    "StancuParams",
    "Theorem1Report",
    "Theorem3Report",
    "Theorem4Report",
    "apply_operator",
    "apply_operator_curve",
    "basis_row",
    "check_theorem1",
    "check_theorem2",
    "check_theorem3",
    "corollary2_bound",
    "evaluate",
    "grid_slack",
    "modulus_of_continuity",
    "moment_closed_form",
    "operator_distance",
    "sup_error",
    "sup_error_and_distance",
    "theorem4_experiment",
]
