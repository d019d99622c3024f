"""Exact Browkin and Schneider p-adic continued fractions of rationals,
with certified length bounds and head-length analysis.

The package exports the kernels, the records they return and the integer
helpers the commands use.  Eight names no command reaches are module-level
and not exported: the Fraction evaluators browkin.cf_evaluate,
browkin.browkin_convergents (with its record browkin.Convergent),
browkin.theta_sequence, schneider.schneider_evaluate and
schneider.schneider_convergents, and exactarith.vp and
exactarith.QuadraticElement.  They stay in their modules as the tests' exact
references, and the benchmark's tracer wraps the functions among them by name."""

from .browkin import BoundReport, BrowkinExpansion, BrowkinStep, browkin_bound, browkin_expand
from .digits import PAdicDigits, digit_period, padic_digits
from .exactarith import is_odd_prime, mod_inverse, symmetric_residue
from .schneider import (
    HeadReport,
    SchneiderExpansion,
    SchneiderStep,
    generate_constant_head,
    head_analysis,
    schneider_expand,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BrowkinExpansion",
    "BrowkinStep",
    "HeadReport",
    "PAdicDigits",
    "SchneiderExpansion",
    "SchneiderStep",
    "browkin_bound",
    "browkin_expand",
    "digit_period",
    "generate_constant_head",
    "head_analysis",
    "is_odd_prime",
    "mod_inverse",
    "padic_digits",
    "schneider_expand",
    "symmetric_residue",
]
