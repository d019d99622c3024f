"""The exact oracle: which checks certify which output.

Each check re-derives one law of an expansion by exact arithmetic.  Commands
pass their checks to `require` before printing anything.  Library functions
are reached through this module's globals only, so rebinding one here (to
plant a defect, or to trace it) reaches every check.
"""

from fractions import Fraction
from typing import NamedTuple

from .browkin import browkin_bound, browkin_convergents, browkin_expand, cf_evaluate, theta_sequence
from .digits import padic_digits
from .exactarith import vp
from .schneider import schneider_convergents, schneider_evaluate, schneider_expand


class Check(NamedTuple):
    name: str
    ok: bool


class VerificationError(ArithmeticError):
    """A computed output failed an exact check."""


def browkin_reconstruction(r: Fraction, expansion) -> Check:
    return Check("browkin reconstruction", cf_evaluate(expansion.quotient_pairs) == r)


def browkin_length_bound(expansion, report) -> Check:
    return Check("browkin length bound", len(expansion.steps) <= report.n_bound + 1)


def majorant(expansion) -> Check:
    steps = expansion.steps
    thetas = theta_sequence(expansion.beta0, expansion.beta1_abs, expansion.p, max(2, len(steps)))
    return Check("majorant", all(abs(s.beta) <= thetas[i] for i, s in enumerate(steps)))


def determinant_identity(r: Fraction, expansion) -> Check:
    """p_n q_{n-1} - p_{n-1} q_n = (-1)**(n+1), and the last convergent is r."""
    convs = browkin_convergents(expansion.quotients)
    ok = convs[-1].value == r
    for n in range(1, len(convs)):
        ok &= convs[n].pn * convs[n - 1].qn - convs[n - 1].pn * convs[n].qn == (-1) ** (n + 1)
    return Check("determinant identity", ok)


def digit_truncation_identity(r: Fraction, window, lengths) -> Check:
    """r minus each prefix is 0 or has valuation >= start_exponent + length."""
    ok = True
    for length in lengths:
        prefix = window.prefix_value(length)
        if prefix != r:
            ok &= vp(r - prefix, window.p) >= window.start_exponent + length
    return Check("digit truncation identity", ok)


def schneider_reconstruction(r: Fraction, expansion) -> Check:
    value = schneider_evaluate(expansion.steps, expansion.tail_value, expansion.p)
    return Check("schneider reconstruction", value == r)


def schneider_matrix_laws(r: Fraction, expansion) -> Check:
    """det M_m = (-1)**(m+1) p**s and vp(r - U_m/W_m) = s, s = alpha_0+...+alpha_m.

    r - U/W = (a*W - b*U) / (b*W) with b and W prime to p, so the valuation is
    exactly s iff p**s divides a*W - b*U and p**(s+1) does not; a zero
    difference fails.
    """
    p, a, b = expansion.p, r.numerator, r.denominator
    ok, ps = True, 1
    for m, matrix in enumerate(schneider_convergents(expansion)):
        ps *= p ** expansion.steps[m].alpha
        diff = a * matrix.w - b * matrix.u
        ok &= matrix.det() == (-1) ** (m + 1) * ps and diff % ps == 0 and diff % (ps * p) != 0
    return Check("schneider matrix laws", ok)


def battery(r: Fraction, p: int) -> list[Check]:
    """Every check that applies to a nonzero rational, as `verify` prints them."""
    expansion = browkin_expand(r, p)
    report = browkin_bound(expansion.beta0, expansion.beta1_abs, p)
    checks = [
        browkin_reconstruction(r, expansion),
        browkin_length_bound(expansion, report),
        majorant(expansion),
        determinant_identity(r, expansion),
        digit_truncation_identity(r, padic_digits(r, p, 12), range(1, 13)),
    ]
    if r.numerator % p != 0 and r.denominator % p != 0:
        sexp = schneider_expand(r.numerator, r.denominator, p)
        checks.append(schneider_reconstruction(r, sexp))
        if sexp.steps:
            checks.append(schneider_matrix_laws(r, sexp))
    return checks


def require(p: int, r: Fraction, *checks: Check) -> None:
    """Raise VerificationError naming the first failed check, p and r."""
    for name, ok in checks:
        if not ok:
            raise VerificationError(f"{name} failed at p={p}, {r.numerator}/{r.denominator}")
