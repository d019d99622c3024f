"""Symmetric-digit base-p expansion of a rational.

Digits live in {-(p-1)/2, ..., (p-1)/2}.  The terms with exponent <= 0 sum
to the first Browkin partial quotient: both are x/p**k, where p**k is the
p-part of b and x the symmetric residue of a * (b/p**k)**-1 mod p**(1+k).

The period lemma.  Write a/b = p**v * n/d with d prime to p.  Each digit
maps the remainder n to n' = (n - digit*d)/p, with the same d, so
|n'| <= (|n| + (p-1)*d/2)/p.  If 2|n| > d, then |n'| < |n|: the remainder
shrinks.  Once 2|n| <= d, so is 2|n'|, and the step is one-to-one there:
two preimages of n' differ by a multiple of d, so two with 2|n| <= d are
equal or are d/2 and -d/2.  Every remainder stays prime to d, as n'*p =
n - digit*d, so the latter happens only at d = 2, where 1 and -1 are each
their own image.  A one-to-one map of a finite set into itself is a
permutation, so the first remainder with 2|n| <= d starts the period, which
ends where that remainder comes back: no remainder before it repeats, as
each is smaller than the one before.  digit_period keeps that one
remainder, not a table of them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import NamedTuple

from .exactarith import (
    mod_inverse, require_lowest_terms, require_odd_prime, symmetric_residue, vp_split,
)

# The most digits digit_period extracts while it looks for the period.  The period
# is the order of p modulo the p-free denominator, which can be about as large as
# that denominator, so the search is bounded; it keeps the digits and one remainder.
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

    def prefix_sum(self, length: int | None = None) -> int:
        """sum(digits[i] * p**i) over the first `length` digits (default: all of them)."""
        return _digit_sum(self.digits[:length], self.p)

    def prefix_value(self, length: int | None = None) -> Fraction:
        """Exact value of the first `length` digits: prefix_sum * p**start_exponent."""
        total, s = self.prefix_sum(length), self.start_exponent
        return Fraction(total * self.p**s) if s >= 0 else Fraction(total, self.p**-s)


_record = tuple.__new__  # a PAdicDigits without the NamedTuple's Python-level __new__


def _digit_sum(digits: tuple[int, ...], p: int) -> int:
    # sum(digits[i] * p**i): Horner's loop, quadratic in the count, up to 64 digits; above,
    # the two halves' sums joined by one p**mid (Horner alone: x7.9 on digits -n 100000 --json,
    # BENCH_special_paths_2.json, row 14)
    if len(digits) <= 64:
        total = 0
        for digit in reversed(digits):
            total = total * p + digit
        return total
    mid = len(digits) // 2
    return _digit_sum(digits[:mid], p) + _digit_sum(digits[mid:], p) * p**mid


def _unit_form(a: int, b: int, p: int) -> tuple[int, int, int]:
    # (v, n, d) with a/b = p**v * n/d, d prime to p and n prime to p unless a = 0,
    # once p and a/b are checked; a and b are coprime, so p divides at most one of them
    require_odd_prime(p)
    require_lowest_terms(a, b)
    (v, n), (w, d) = vp_split(a, p) if a else (0, 0), vp_split(b, p)
    return v - w, n, d


def _digit_stream(n: int, d: int, p: int):
    # (digit, next n) for each digit of n/d, d prime to p: the digit is the symmetric
    # residue of n/d mod p, and (n/d - digit)/p keeps d and maps n to (n - digit*d) // p
    inverse = mod_inverse(d, p)
    while True:
        digit = symmetric_residue(n * inverse, p)
        n = (n - digit * d) // p
        yield digit, n


def padic_digits(a: int, b: int, p: int, count: int) -> PAdicDigits:
    """First `count` symmetric digits of a/b, a and b coprime, b > 0, starting
    at exponent vp(a/b); none for a = 0."""
    if count < 1:
        raise ValueError("count must be positive")
    start, n, d = _unit_form(a, b, p)
    digits = tuple(digit for digit, _ in islice(_digit_stream(n, d, p), count)) if n else ()
    return _record(PAdicDigits, (p, start, digits, count))


def digit_period(
    a: int, b: int, p: int
) -> tuple[int, tuple[int, ...] | None, tuple[int, ...] | None]:
    """Split the digit stream of a/b (a and b coprime, b > 0) into
    (start_exponent, preperiod, period).

    By the period lemma (module docstring), the period starts at the first
    remainder n with 2|n| <= d and ends where that remainder comes back.
    A split is found exactly when len(preperiod) + len(period) is at most
    DIGIT_PERIOD_LIMIT; past it the result is (start_exponent, None, None).
    """
    start, n, d = _unit_form(a, b, p)
    # the period's first remainder and its index: until a remainder has 2|n| <= d, the latest
    # one, which the next cannot equal, as it is smaller
    cut, first = 0, n
    digits: list[int] = []
    for digit, n in _digit_stream(n, d, p):
        digits.append(digit)
        if n == first:
            return start, tuple(digits[:cut]), tuple(digits[cut:])
        if 2 * abs(first) > d:
            cut, first = len(digits), n
        if len(digits) == DIGIT_PERIOD_LIMIT:
            return start, None, None
