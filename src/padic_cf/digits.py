"""Symmetric-digit base-p expansion of a rational and its fractional part.

Digits live in {-(p-1)/2, ..., (p-1)/2}.  The fractional part collects the
terms with exponent <= 0 and is the partial quotient used by the Browkin
expansion.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exactarith import mod_inverse, require_odd_prime, symmetric_residue, vp

# The most digits digit_period extracts while it looks for a repeated remainder
# state.  The period is the order of p modulo the p-free denominator, which can
# be about as large as that denominator, and every state is kept in a dict, so
# the search is bounded: about 0.1 s and 15 MB at the limit.
DIGIT_PERIOD_LIMIT = 100_000


class PAdicDigits(NamedTuple):
    """A finite window of the symmetric-digit expansion of a rational.

    The window value sum(digits[i] * p**(start_exponent+i)) is congruent to
    the source rational modulo p**(start_exponent+count), and so is every
    shorter prefix at its own modulus.
    """

    p: int
    start_exponent: int
    digits: tuple[int, ...]
    count: int

    def prefix_value(self, length: int | None = None) -> Fraction:
        """Exact value of the first `length` digits (default: all of them)."""
        total = 0
        for digit in reversed(self.digits[:length]):
            total = total * self.p + digit
        if self.start_exponent >= 0:
            return Fraction(total * self.p**self.start_exponent)
        return Fraction(total, self.p**-self.start_exponent)


def _unit_form(r: Fraction, p: int) -> tuple[int, int, int]:
    # (v, n, d) with r = p**v * n/d, nonzero r, n and d prime to p, d > 0; every
    # digit step (n/d - digit)/p keeps d and maps n to (n - digit*d) // p
    v = vp(r, p)
    if v >= 0:
        return v, r.numerator // p**v, r.denominator
    return v, r.numerator, r.denominator // p**-v


def padic_digits(r: Fraction | int, p: int, count: int) -> PAdicDigits:
    """First `count` symmetric digits of r, starting at exponent vp(r)."""
    require_odd_prime(p)
    if count < 1:
        raise ValueError("count must be positive")
    r = Fraction(r)
    if r == 0:
        return PAdicDigits(p, 0, (), count)
    start, n, d = _unit_form(r, p)
    inverse = mod_inverse(d, p)
    digits = []
    for _ in range(count):
        digit = symmetric_residue(n * inverse, p)
        digits.append(digit)
        n = (n - digit * d) // p
    return PAdicDigits(p, start, tuple(digits), count)


def fractional_part(r: Fraction | int, p: int) -> Fraction:
    """Sum of the expansion terms with exponent <= 0.

    Lies in Z[1/p] with real absolute value below p/2, and r minus the
    result has valuation >= 1.  Computed directly: with r = a/(b*p**k),
    k = max(0, -vp(r)) and p-free b, the value is the symmetric residue of
    a * b**-1 modulo p**(1+k), divided by p**k.
    """
    require_odd_prime(p)
    r = Fraction(r)
    if r == 0:
        return Fraction(0)
    k = max(0, -vp(r, p))
    modulus = p ** (1 + k)
    b = r.denominator // p**k
    x = symmetric_residue(r.numerator * mod_inverse(b, modulus), modulus)
    return Fraction(x, p**k)


def digit_period(
    r: Fraction | int, p: int
) -> tuple[int, tuple[int, ...] | None, tuple[int, ...] | None]:
    """Split the digit stream into (start_exponent, preperiod, period).

    The repeating tail is located by exact remainder-state repetition: the
    remainder after each extracted digit keeps a fixed p-free denominator,
    so there are finitely many states and the first revisit pins the cycle.
    A split is found exactly when len(preperiod) + len(period) is at most
    DIGIT_PERIOD_LIMIT; past it the result is (start_exponent, None, None).
    """
    require_odd_prime(p)
    r = Fraction(r)
    if r == 0:
        return 0, (), (0,)
    start, n, d = _unit_form(r, p)
    inverse = mod_inverse(d, p)
    seen = {n: 0}
    digits: list[int] = []
    while len(digits) < DIGIT_PERIOD_LIMIT:
        digit = symmetric_residue(n * inverse, p)
        digits.append(digit)
        n = (n - digit * d) // p
        if n in seen:
            cut = seen[n]
            return start, tuple(digits[:cut]), tuple(digits[cut:])
        seen[n] = len(digits)
    return start, None, None
