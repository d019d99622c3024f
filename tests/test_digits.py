"""Digit expansion tests: fixtures, truncation identity, periodicity."""

import math
import random
from fractions import Fraction

import pytest

from padic_cf import digits
from padic_cf.digits import digit_period, fractional_part, padic_digits
from padic_cf.exactarith import vp


def test_digit_fixtures():
    window = padic_digits(-1793, 100, 5, 7)
    assert window.start_exponent == -2
    assert window.digits == (-2, 2, -2, -2, 1, 1, 1)

    window = padic_digits(3, 1, 3, 3)
    assert window.start_exponent == 1
    assert window.digits == (1, 0, 0)

    window = padic_digits(77, 18, 3, 3)
    assert window.start_exponent == -2
    assert window.digits == (1, -1, 0)
    # oracle: 1/9 - 1/3 = -2/9 and 77/18 - (-2/9) = 9/2 has valuation 2 >= 1
    assert window.prefix_value() == Fraction(-2, 9)
    assert vp(Fraction(77, 18) - Fraction(-2, 9), 3) >= 1


def test_zero_and_bad_count():
    window = padic_digits(0, 1, 5, 4)
    assert window.digits == () and window.start_exponent == 0
    with pytest.raises(ValueError, match="count"):
        padic_digits(1, 2, 5, 0)


def test_leading_digit_nonzero_and_range():
    rng = random.Random(23)
    for _ in range(300):
        p = rng.choice([3, 5, 7, 11])
        r = Fraction(rng.randint(-500, 500) or 1, rng.randint(1, 500))
        window = padic_digits(r.numerator, r.denominator, p, 10)
        assert window.digits[0] != 0
        assert all(abs(d) <= (p - 1) // 2 for d in window.digits)


def test_truncation_identity_every_prefix():
    rng = random.Random(29)
    for _ in range(200):
        p = rng.choice([3, 5, 7])
        r = Fraction(rng.randint(-300, 300) or 1, rng.randint(1, 300))
        window = padic_digits(r.numerator, r.denominator, p, 9)
        for length in range(1, 10):
            prefix = window.prefix_value(length)
            if prefix != r:
                assert vp(r - prefix, p) >= window.start_exponent + length


def test_fractional_part_fixtures():
    assert fractional_part(-1793, 100, 5) == Fraction(-42, 25)
    assert fractional_part(3, 1, 3) == 0
    # Against the digit route; 25/9 is the same class mod 27 but out of range
    assert fractional_part(77, 18, 3) == Fraction(-2, 9)
    assert fractional_part(0, 1, 7) == 0
    assert fractional_part(9, 2, 3) == 0  # positive valuation


def test_fractional_part_properties():
    rng = random.Random(31)
    for _ in range(400):
        p = rng.choice([3, 5, 7])
        r = Fraction(rng.randint(-400, 400) or 1, rng.randint(1, 400))
        frac = fractional_part(r.numerator, r.denominator, p)
        if r != frac:
            assert vp(r - frac, p) >= 1
        # element of Z[1/p] with real absolute value below p/2
        den = frac.denominator
        while den % p == 0:
            den //= p
        assert den == 1
        assert abs(frac) < Fraction(p, 2)


def test_fractional_part_agrees_with_digit_sum():
    rng = random.Random(37)
    for _ in range(200):
        p = rng.choice([3, 5, 7])
        r = Fraction(rng.randint(-300, 300) or 1, rng.randint(1, 300))
        v = vp(r, p)
        if v > 0:
            assert fractional_part(r.numerator, r.denominator, p) == 0
            continue
        window = padic_digits(r.numerator, r.denominator, p, -v + 1)
        assert fractional_part(r.numerator, r.denominator, p) == window.prefix_value()


def test_digit_period_fixture():
    start, preperiod, period = digit_period(-1793, 100, 5)
    assert start == -2
    assert preperiod == (-2, 2, -2, -2)
    assert period == (1,)


def test_digit_period_terminating_value():
    start, preperiod, period = digit_period(3, 1, 3)
    assert (start, preperiod, period) == (1, (1,), (0,))
    assert digit_period(0, 1, 5) == (0, (), (0,))


def test_period_search_stops_at_the_limit(monkeypatch):
    # -1793/100 at p=5 splits into 4 + 1 digits: found with a limit of 5, not of 4
    r = Fraction(-1793, 100)
    monkeypatch.setattr(digits, "DIGIT_PERIOD_LIMIT", 5)
    assert digit_period(r.numerator, r.denominator, 5) == (-2, (-2, 2, -2, -2), (1,))
    monkeypatch.setattr(digits, "DIGIT_PERIOD_LIMIT", 4)
    assert digit_period(r.numerator, r.denominator, 5) == (-2, None, None)


def test_period_limit_at_its_documented_value():
    # 1/q at p=3 is purely periodic with period the order of 3 mod q: 99,988 for
    # q = 99,989 (found) and 100,002 for q = 100,003 (past the limit)
    assert digits.DIGIT_PERIOD_LIMIT == 100_000
    start, preperiod, period = digit_period(1, 99989, 3)
    assert (start, preperiod, len(period)) == (0, (), 99988)
    assert digit_period(1, 100003, 3) == (0, None, None)


def test_eventual_periodicity_by_state_repetition():
    # Cycle states live in a ball of at most 2*den+1 remainders once the
    # magnitude has decayed, which takes about log_p(|r|) leading digits.
    rng = random.Random(41)
    for _ in range(150):
        p = rng.choice([3, 5, 7])
        r = Fraction(rng.randint(-200, 200) or 1, rng.randint(1, 200))
        start, preperiod, period = digit_period(r.numerator, r.denominator, p)
        transient = 0
        mag = abs(r)
        while mag >= 1:
            mag /= p
            transient += 1
        assert len(period) <= 2 * r.denominator + 1
        assert len(preperiod) <= r.denominator * p + transient + 2
        # the located cycle really reproduces the digit stream
        total = len(preperiod) + 3 * len(period)
        window = padic_digits(r.numerator, r.denominator, p, total)
        stream = list(preperiod)
        while len(stream) < total:
            stream.extend(period)
        assert window.digits == tuple(stream[:total])


def test_proper_fractions_periodic_within_den_times_p():
    # for |r| < p the repeating tail starts within den*p digits
    rng = random.Random(43)
    for _ in range(200):
        p = rng.choice([3, 5, 7])
        den = rng.randint(1, 60)
        num = rng.randint(-den * p + 1, den * p - 1) or 1
        r = Fraction(num, den)
        if r == 0:
            continue
        _, preperiod, period = digit_period(r.numerator, r.denominator, p)
        assert len(preperiod) <= r.denominator * p
        assert 1 <= len(period) <= r.denominator * p
