"""Exact Browkin and Schneider p-adic continued fractions of rationals,
with certified length bounds and head-length analysis."""

from .browkin import (
    BoundReport,
    BrowkinExpansion,
    BrowkinStep,
    Convergent,
    browkin_bound,
    browkin_convergents,
    browkin_expand,
    cf_evaluate,
    theta_sequence,
)
from .digits import PAdicDigits, digit_period, padic_digits
from .exactarith import (
    QuadraticElement,
    is_odd_prime,
    mod_inverse,
    symmetric_residue,
    vp,
)
from .schneider import (
    HeadReport,
    SchneiderExpansion,
    SchneiderStep,
    generate_constant_head,
    head_analysis,
    schneider_convergents,
    schneider_evaluate,
    schneider_expand,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BrowkinExpansion",
    "BrowkinStep",
    "Convergent",
    "HeadReport",
    "PAdicDigits",
    "QuadraticElement",
    "SchneiderExpansion",
    "SchneiderStep",
    "browkin_bound",
    "browkin_convergents",
    "browkin_expand",
    "cf_evaluate",
    "digit_period",
    "generate_constant_head",
    "head_analysis",
    "is_odd_prime",
    "mod_inverse",
    "padic_digits",
    "schneider_convergents",
    "schneider_evaluate",
    "schneider_expand",
    "symmetric_residue",
    "theta_sequence",
    "vp",
]
