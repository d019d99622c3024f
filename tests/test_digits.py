"""Digit expansion tests: fixtures, truncation identity, periodicity."""

import math
import random
from fractions import Fraction

import pytest

from padic_cf import digits
from padic_cf.browkin import browkin_expand
from padic_cf.digits import digit_period, padic_digits
from padic_cf.exactarith import int_vp, vp

from replay import digit_period_by_states, quotient_pairs


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


@pytest.mark.parametrize("p", [3, 101, 10**9 + 7])
def test_prefix_sum_matches_horner(p):
    # above 64 digits prefix_sum joins the sums of two halves; Horner's loop is the reference
    rng = random.Random(p)
    half = (p - 1) // 2
    for count in (0, 1, 2, 63, 64, 65, 127, 128, 129, 1000):
        window = digits.PAdicDigits(p, 0, tuple(rng.randint(-half, half) for _ in range(count)), count)
        for length in (None, *range(count + 2)):
            expected = 0
            for digit in reversed(window.digits[:length]):
                expected = expected * p + digit
            assert window.prefix_sum(length) == expected, (count, length)


def low_digit_sum(a, b, p):
    """Sum of the symmetric digits of a/b with exponent <= 0, read off the digit stream."""
    start = padic_digits(a, b, p, 1).start_exponent
    return padic_digits(a, b, p, max(1, 1 - start)).prefix_value(max(0, 1 - start))


def assert_first_quotient_law(a, b, p):
    """The first Browkin quotient x/p**k of a/b is the sum of its digits with
    exponent <= 0: an element of Z[1/p] below p/2 in absolute value, and a/b
    minus it has valuation >= 1."""
    x, den = quotient_pairs(browkin_expand(a, b, p))[0]
    assert Fraction(x, den) == low_digit_sum(a, b, p)
    assert den == p ** int_vp(den, p)
    assert 2 * abs(x) < p * den
    if a * den != x * b:
        assert vp(Fraction(a, b) - Fraction(x, den), p) >= 1


def test_first_quotient_is_the_low_digit_sum_on_fixtures():
    # 77/18 at p=3: 25/9 is the same class mod 27 as -2/9 but out of range
    fixtures = [(-1793, 100, 5, Fraction(-42, 25)), (3, 1, 3, 0), (77, 18, 3, Fraction(-2, 9))]
    fixtures.append((9, 2, 3, 0))  # positive valuation
    for a, b, p, first in fixtures:
        assert low_digit_sum(a, b, p) == first
        assert_first_quotient_law(a, b, p)
    # zero has no Browkin expansion, and no digit
    assert low_digit_sum(0, 1, 7) == 0
    with pytest.raises(ValueError, match="zero"):
        browkin_expand(0, 1, 7)


@pytest.mark.parametrize("p", [3, 5, 7, 101, 10**9 + 7])
def test_first_quotient_is_the_low_digit_sum(p):
    rng = random.Random(37 + p)
    for digits in (1, 3, 30, 300, 1000):
        for valuation in (-3, -1, 0, 0, 2):
            for _ in range(20 if digits <= 3 else 2):
                a = rng.choice((-1, 1)) * rng.randrange(1, 10**digits)
                b = rng.randrange(1, 10**digits)
                if valuation > 0:
                    a *= p**valuation
                else:
                    b *= p**-valuation
                g = math.gcd(a, b)
                assert_first_quotient_law(a // g, b // g, p)


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


def test_digit_period_equals_the_search_by_states():
    # the period lemma keeps one remainder; a table of every remainder finds the same split, on
    # every coprime a/b with |a| <= 60 and b <= 60, and on random numerators of up to 30 digits
    limit = digits.DIGIT_PERIOD_LIMIT
    for p in (3, 5, 7, 11, 101):
        for b in range(1, 61):
            for a in range(-60, 61):
                if math.gcd(a, b) == 1:
                    assert digit_period(a, b, p) == digit_period_by_states(a, b, p, limit), (a, b, p)
    rng = random.Random(82)
    for _ in range(300):
        p, b = rng.choice([3, 5, 7, 11, 101]), rng.randint(1, 5000)
        a = rng.randint(-(10**30), 10**30) or 1
        a, b = a // math.gcd(a, b), b // math.gcd(a, b)
        assert digit_period(a, b, p) == digit_period_by_states(a, b, p, limit), (a, b, p)


def test_digit_period_stops_where_the_search_by_states_stops(monkeypatch):
    # at every small limit, a split is found exactly when the table of remainders finds it
    rng = random.Random(83)
    cases = [(-1793, 100, 5), (3, 1, 3), (0, 1, 5), (1, 2, 3), (-1, 2, 7), (1, 99989, 3)]
    for _ in range(40):
        a, b = rng.randint(-(10**30), 10**30) or 1, rng.randint(1, 10**6)
        cases.append((a // math.gcd(a, b), b // math.gcd(a, b), rng.choice([3, 5, 7, 101])))
    for limit in range(1, 25):
        monkeypatch.setattr(digits, "DIGIT_PERIOD_LIMIT", limit)
        for a, b, p in cases:
            assert digit_period(a, b, p) == digit_period_by_states(a, b, p, limit), (a, b, p, limit)


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
