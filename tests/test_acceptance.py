"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All comparisons are exact unless a tolerance is stated inline.
"""

import math
from contextlib import contextmanager
from fractions import Fraction

from padic_cf.browkin import (
    browkin_bound,
    browkin_convergents,
    browkin_expand,
    cf_evaluate,
    theta_sequence,
)
from padic_cf.digits import digit_period, padic_digits
from padic_cf.exactarith import QuadraticElement, vp
from padic_cf.schneider import (
    generate_constant_head,
    head_analysis,
    schneider_convergents,
    schneider_evaluate,
    schneider_expand,
)


@contextmanager
def criterion(number, label):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({label})")


def _lambdas(report):
    # (lambda1, lambda2) = (p +- sqrt(p**2 + 16)) / (4p), exactly, from the report's p
    p = report.p
    return tuple(
        QuadraticElement(Fraction(1, 4), Fraction(sign, 4 * p), p * p + 16) for sign in (1, -1)
    )


def _head_values(report):
    # (t1, t2, theta) exactly: (digit -+ sqrt(D)) / 2 and (sx + sy*sqrt(D)) / n
    digit, disc = report.digit, report.disc
    t1 = QuadraticElement(Fraction(digit, 2), Fraction(-1, 2), disc)
    t2 = QuadraticElement(Fraction(digit, 2), Fraction(1, 2), disc)
    return t1, t2, QuadraticElement(Fraction(report.sx, report.n), Fraction(report.sy, report.n), disc)


def test_criterion_1_browkin_fixtures():
    with criterion(1, "browkin table fixtures, errata-aware, exact reconstruction"):
        # 365/54 at p=3: quotients exactly as printed
        exp = browkin_expand(365, 54, 3)
        assert exp.quotient_pairs[:3] == [(-20, 27), (4, 3), (2, 3)]
        assert exp.k_trace == [3, 1, 1, 1]
        assert list(exp.beta_trace) == [2, 5, -2, 1]
        # printed a3 = 7/3 is the same residue class: 7 = -2 mod 9
        assert (exp.steps[3].x - 7) % 3 ** (1 + 1) == 0

        # 77/18 at p=3: printed x0 = 25 mod 27, x1 = 11 mod 9
        exp = browkin_expand(77, 18, 3)
        assert (exp.steps[0].k, next(exp.beta_trace)) == (2, 2)
        assert (exp.steps[0].x - 25) % 27 == 0
        assert (exp.steps[1].x - 11) % 9 == 0

        # -1793/100 at p=5: printed a3 = -4/5 fails reconstruction; oracle +4/5
        exp = browkin_expand(-1793, 100, 5)
        assert exp.quotient_pairs == [(-42, 25), (-8, 5), (-3, 5), (4, 5)]
        assert [abs(b) for b in exp.beta_trace] == [4, 13, 4, 1]

        for a, b, p in [(365, 54, 3), (77, 18, 3), (-1793, 100, 5)]:
            assert cf_evaluate(browkin_expand(a, b, p).quotient_pairs) == Fraction(a, b)  # zero tolerance


def test_criterion_2_length_bounds():
    with criterion(2, "certified length bounds match the worked values"):
        report = browkin_bound(2, 1, 3)
        assert report.n_bound == 3
        lambda1, lambda2 = _lambdas(report)
        assert lambda1 == QuadraticElement(Fraction(2, 3))
        assert lambda2 == QuadraticElement(Fraction(-1, 6))
        assert report.exact_certificate

        report = browkin_bound(2, 5, 3)
        assert report.n_bound == 6
        assert report.exact_certificate

        report = browkin_bound(4, 13, 5)
        assert report.n_bound == 6
        assert _lambdas(report)[0] == QuadraticElement(Fraction(1, 4), Fraction(1, 20), 41)
        assert report.exact_certificate


def test_criterion_3_schneider_fixtures():
    with criterion(3, "schneider table fixtures with y-traces"):
        exp = schneider_expand(2, 5, 3)
        assert exp.steps == ((1, 1),) * 4
        assert list(exp.y_trace) == [-1, 2, -1, 1]
        assert exp.stationary_from == 4
        assert schneider_evaluate(exp.steps, (-1, 1), 3) == Fraction(2, 5)

        exp = schneider_expand(1259, 701, 3)
        assert exp.steps == ((1, 2),) * 6
        assert list(exp.y_trace) == [62, 71, -1, 8, -1, 1]
        assert exp.stationary_from == 6
        assert schneider_evaluate(exp.steps, (-1, 1), 3) == Fraction(1259, 701)

        exp = schneider_expand(3044, 673, 5)
        assert exp.steps == ((3, 2),) * 4
        assert list(exp.y_trace) == [41, 22, -1, 1]
        assert exp.stationary_from == 4
        assert schneider_evaluate(exp.steps, (-1, 1), 5) == Fraction(3044, 673)


def test_criterion_4_head_analysis():
    with criterion(4, "exact head-length certificates; printed errata rejected"):
        fixtures = [
            (2, 5, 1, 1, 3, 4),
            (1259, 701, 1, 2, 3, 6),
            (3044, 673, 3, 2, 5, 4),
        ]
        for a, b, digit, alpha, p, head_len in fixtures:
            report = head_analysis(a, b, digit, alpha, p)
            assert report.exact_identity
            assert report.head_len == head_len
            t1, t2, theta = _head_values(report)
            assert (t2 / t1) ** (head_len - 1) == theta

        t1, t2, theta = _head_values(head_analysis(2, 5, 1, 1, 3))
        assert abs(float(t1) - (-1.303)) < 1e-3
        assert abs(float(t2) - 2.303) < 1e-3
        assert abs(float(theta) - (-5.523)) < 1e-3

        # the printed theta values for the other two examples are errata and
        # must NOT be reproduced by the exact path
        assert abs(float(_head_values(head_analysis(1259, 701, 1, 2, 3))[2]) - (-73.736)) > 1
        assert abs(float(_head_values(head_analysis(3044, 673, 3, 2, 5))[2]) - 11.211) > 1


def _browkin_battery(r, p):
    exp = browkin_expand(r.numerator, r.denominator, p)
    assert cf_evaluate(exp.quotient_pairs) == r
    beta1 = exp.beta1_abs
    report = browkin_bound(exp.beta0, beta1, p)
    assert len(exp.steps) <= report.n_bound + 1
    thetas = theta_sequence(exp.beta0, beta1, p, max(2, len(exp.steps)))
    betas = list(exp.beta_trace)
    assert len(betas) == len(exp.steps)
    for i, beta in enumerate(betas):
        assert abs(beta) <= thetas[i]
    convs = browkin_convergents(exp.quotient_pairs)
    for n in range(1, len(convs)):
        det = convs[n].pn * convs[n - 1].qn - convs[n - 1].pn * convs[n].qn
        assert det == (-1) ** (n + 1)
    assert convs[-1].value == r


def _schneider_battery(a, b, p):
    exp = schneider_expand(a, b, p)
    assert len(exp.steps) <= 500
    assert exp.stationary_from is not None or exp.finite_end
    if exp.stationary_from is not None:
        assert exp.tail == (-1, 1)
    assert schneider_evaluate(exp.steps, exp.tail, p) == Fraction(a, b)
    if exp.steps:
        r = Fraction(a, b)
        total = 0
        for m, (u, v, w, z) in enumerate(schneider_convergents(exp)):
            total += exp.steps[m].alpha
            assert u * z - v * w == (-1) ** (m + 1) * p**total
            assert vp(r - Fraction(u, w), p) == total


def test_criterion_5_property_suite():
    with criterion(5, "oracle equivalence on the desk-scale grid"):
        for p in (3, 5, 7):
            for b in range(1, 51):
                for a in range(-50, 51):
                    if a == 0 or math.gcd(abs(a), b) != 1:
                        continue
                    _browkin_battery(Fraction(a, b), p)
                    if a % p != 0 and b % p != 0:
                        _schneider_battery(a, b, p)
            for digit in range(1, p):
                for alpha in (1, 2, 3):
                    if (digit, alpha) == (p - 1, 1):
                        continue
                    for k in range(9):
                        a, b = generate_constant_head(digit, alpha, k, p)
                        exp = schneider_expand(a, b, p)
                        assert len(exp.steps) <= 500
                        assert exp.steps == ((digit, alpha),) * (k + 1)
                        assert exp.stationary_from == k + 1


def test_criterion_6_digits():
    with criterion(6, "digit expansion fixture, prefixes, periodic tail"):
        window = padic_digits(-1793, 100, 5, 7)
        assert window.start_exponent == -2
        assert window.digits == (-2, 2, -2, -2, 1, 1, 1)
        r = Fraction(-1793, 100)
        for length in range(1, 8):
            prefix = window.prefix_value(length)
            assert vp(r - prefix, 5) >= window.start_exponent + length

        start, preperiod, period = digit_period(r.numerator, r.denominator, 5)
        assert start == -2
        assert preperiod == (-2, 2, -2, -2)
        assert period == (1,)  # the all-ones tail, found by state repetition
