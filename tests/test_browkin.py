"""Browkin expansion tests: table fixtures, reconstruction oracle,
convergents, majorant sequence, and the certified length bound."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest

import padic_cf.browkin as browkin
import padic_cf.cli as cli
import padic_cf.digits as digits
import padic_cf.exactarith as exactarith
import padic_cf.oracle as oracle
import padic_cf.schneider as schneider
from padic_cf.browkin import (
    browkin_bound,
    browkin_convergents,
    browkin_expand,
    cf_evaluate,
    theta_sequence,
)
from padic_cf.exactarith import QuadraticElement, int_vp, mod_inverse, symmetric_residue, vp

from replay import beta1_abs, beta_trace, k_trace, quotient_pairs


def random_rationals(seed, count, span=300):
    rng = random.Random(seed)
    for _ in range(count):
        yield Fraction(rng.randint(-span, span) or 1, rng.randint(1, span))


def count_fractions(monkeypatch):
    """Swap a counting subclass of Fraction into every padic_cf module that
    names Fraction; returns the list of constructor arguments it records."""
    made = []

    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    for module in (browkin, cli, digits, exactarith, oracle, schneider):
        if hasattr(module, "Fraction"):
            monkeypatch.setattr(module, "Fraction", Counting)
    return made


def raw_step(beta_prev, beta, k, p):
    """Independent re-derivation of one step from the module docstring:
    (xn, k_{n+1}, beta_{n+1}), the last two None when the expansion ends."""
    modulus = p ** (1 + k)
    x = symmetric_residue(beta_prev * mod_inverse(beta, modulus), modulus)
    delta = beta_prev - x * beta
    if delta == 0:
        return x, None, None
    v = int_vp(delta, p)
    return x, v - k, delta // p**v


def lambdas(report):
    """(lambda1, lambda2) = (p +- sqrt(D)) / (4p), D = p**2 + 16: the exact roots the
    report's bound is taken with, built from its p."""
    p = report.p
    return tuple(
        QuadraticElement(Fraction(1, 4), Fraction(sign, 4 * p), p * p + 16) for sign in (1, -1)
    )


def capacity(report):
    """2|beta1|/(lambda1-lambda2) + |beta0| = |beta0| + (4p|beta1|/D)*sqrt(D), D = p**2 + 16."""
    p, disc = report.p, report.p**2 + 16
    return QuadraticElement(report.beta0_abs, Fraction(4 * p * report.beta1_abs, disc), disc)


def assert_step_law(exp, r, p):
    """exp expands r; each recorded step follows from the pair before it by raw_step,
    and the last one ends."""
    steps, betas = exp.steps, beta_trace(exp)
    assert len(betas) == len(steps)
    assert betas[0] == exp.beta0 and exp.beta0 % p != 0
    assert Fraction(exp.alpha, exp.beta0 * p ** steps[0].k) == r
    beta_prev = exp.alpha
    for n, (step, beta) in enumerate(zip(steps, betas)):
        x, k_next, beta_next = raw_step(beta_prev, beta, step.k, p)
        assert step.x == x
        if n + 1 < len(steps):
            assert (steps[n + 1].k, betas[n + 1]) == (k_next, beta_next)
        beta_prev = beta
    assert k_next is None


class TestExpandFixtures:
    def test_365_54(self):
        exp = browkin_expand(365, 54, 3)
        assert quotient_pairs(exp) == [(-20, 27), (4, 3), (2, 3), (-2, 3)]
        assert k_trace(exp) == [3, 1, 1, 1]
        assert beta_trace(exp) == [2, 5, -2, 1]
        assert beta1_abs(exp) == 5
        assert cf_evaluate(quotient_pairs(exp)) == Fraction(365, 54)

    def test_77_18(self):
        exp = browkin_expand(77, 18, 3)
        assert quotient_pairs(exp) == [(-2, 9), (2, 9)]
        assert (k_trace(exp)[0], beta_trace(exp)[0]) == (2, 2)
        assert cf_evaluate(quotient_pairs(exp)) == Fraction(77, 18)

    def test_minus_1793_100(self):
        exp = browkin_expand(-1793, 100, 5)
        assert quotient_pairs(exp) == [(-42, 25), (-8, 5), (-3, 5), (4, 5)]
        assert k_trace(exp) == [2, 1, 1, 1]
        assert [abs(b) for b in beta_trace(exp)] == [4, 13, 4, 1]
        assert cf_evaluate(quotient_pairs(exp)) == Fraction(-1793, 100)

    def test_integer_five(self):
        # deterministic rule output, frozen; reconstruction is the oracle
        exp = browkin_expand(5, 1, 3)
        assert quotient_pairs(exp) == [(-1, 1), (-4, 3), (2, 3)]
        assert cf_evaluate(quotient_pairs(exp)) == 5

    def test_single_quotient_inputs(self):
        for r in (Fraction(1), Fraction(-1), Fraction(-2, 9)):
            exp = browkin_expand(r.numerator, r.denominator, 3)
            assert quotient_pairs(exp) == [(r.numerator, r.denominator)]
            assert beta1_abs(exp) == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            browkin_expand(0, 1, 3)

    def test_integer_pair_input(self):
        # a coprime pair (a, b), b > 0, stands for a/b, the only input form
        for r, p in ((Fraction(365, 54), 3), (Fraction(-1793, 100), 5), (Fraction(5), 3)):
            exp = browkin_expand(r.numerator, r.denominator, p)
            assert Fraction(exp.alpha, exp.beta0 * p ** exp.steps[0].k) == r
            assert cf_evaluate(quotient_pairs(exp)) == r
        for pair in ((0, 1), (2, 4), (1, 0), (1, -2)):
            with pytest.raises(ValueError):
                browkin_expand(*pair, 3)

    def test_expansion_retains_only_its_quotients(self):
        # 7...7/2...23, 5,000 digits, at p = 3: about 7,300 (k, x) records and the
        # input; records that also held each beta_n retained 8.5 MB here
        a, b = 7 * (10**5000 - 1) // 9, 2 * (10**5000 - 1) // 9 + 1
        tracemalloc.start()
        try:
            exp = browkin_expand(a, b, 3)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(exp.steps) > 7000
        assert retained < 2**20, retained


class TestBrowkinBetas:
    def test_first_step_alone_matches_the_expansion(self):
        # one-step inputs (|beta_1| = 0), k0 > 0, negative a and p up to 10**9 + 7
        rng = random.Random(26)
        cases = [(3, 1, 1), (3, -1, 3), (3, 9, 1), (3, -2, 9), (5, 5, 1), (3, 365, 54),
                 (5, -1793, 100), (10**20 + 39, 7, 2), (10**20 + 39, -1, 3)]
        for p in (3, 5, 101, 10**9 + 7):
            for digits_ in (1, 2, 40, 300):
                for shift in (0, 1, 3):
                    while True:
                        a = rng.randrange(1, 10**digits_) * rng.choice((-1, 1))
                        b = rng.randrange(1, 10**digits_) * p**shift
                        if math.gcd(a, b) == 1:
                            break
                    cases.append((p, a, b))
        one_step = k0_positive = 0
        for p, a, b in cases:
            exp = browkin_expand(a, b, p)
            first, beta0, delta = browkin.browkin_betas(a, b, p)
            assert (first, beta0) == (exp.steps[0], exp.beta0), (p, a, b)
            # delta_0 = beta_1 * p**(k0+k1): |beta_1| is its p-free part, 0 for one step
            assert (abs(delta) // p ** int_vp(delta, p) if delta else 0) == beta1_abs(exp), (p, a, b)
            one_step += len(exp.steps) == 1
            k0_positive += exp.steps[0].k > 0
        assert one_step >= 5 and k0_positive >= 20

    def test_input_rules_are_browkin_expands(self):
        for args in ((0, 1, 3), (2, 4, 3), (1, 0, 3), (1, -2, 3), (1, 2, 9), (1, 2, 2)):
            with pytest.raises(ValueError) as expected:
                browkin_expand(*args)
            with pytest.raises(ValueError) as got:
                browkin.browkin_betas(*args)
            assert str(got.value) == str(expected.value), args


def assert_tail_lemma(p, a, b):
    """The kernel's record of a/b is its first step, as browkin_betas reads it, followed by
    the kernel's record of its first complete quotient r_1 = beta_0 / (beta_1 * p**k1), and
    the record of -r_1 is that tail with every x_n negated (the tail lemma, browkin
    docstring); returns the record of a/b."""
    exp = browkin_expand(a, b, p)
    first, beta0, delta = browkin.browkin_betas(a, b, p)
    assert (first, beta0) == (exp.steps[0], exp.beta0), (p, a, b)
    if not delta:  # a one-step expansion: no complete quotient past the first
        assert len(exp.steps) == 1, (p, a, b)
        return exp
    k = int_vp(delta, p)  # k0 + k1
    beta1 = delta // p**k
    sign = 1 if beta1 > 0 else -1  # r_1 in lowest terms with a positive denominator
    tail = browkin_expand(sign * beta0, abs(beta1) * p ** (k - first.k), p)
    assert exp.steps == (first, *tail.steps), (p, a, b)
    negated = browkin_expand(-sign * beta0, abs(beta1) * p ** (k - first.k), p)
    assert negated.steps == tuple((k_n, -x) for k_n, x in tail.steps), (p, a, b)
    return exp


class TestTailLemma:
    def test_sweep_rows(self):
        # every row of the 100x100 sweep grid
        for p in (3, 5, 7):
            for b in range(1, 101):
                for a in range(-100, 101):
                    if a and math.gcd(a, b) == 1:
                        assert_tail_lemma(p, a, b)

    def test_random_inputs_up_to_3000_digits(self):
        rng = random.Random(51)
        lengths = []
        for p in (3, 5, 101, 65537):
            for digits_ in (1, 2, 5, 30, 300, 3000):
                for k0 in (0, 1, 3):  # p**k0 exactly divides b
                    while True:
                        a = rng.randrange(1, 10**digits_) * rng.choice((-1, 1))
                        b = rng.randrange(1, 10 ** rng.randint(1, digits_)) * p**k0
                        if math.gcd(a, b) == 1 and (b // p**k0) % p:
                            break
                    lengths.append(len(assert_tail_lemma(p, a, b).steps))
        assert min(lengths) == 1 and max(lengths) > 4000


class TestMirrorLemma:
    """browkin_expand(-a, b, p) is browkin_expand(a, b, p) with every x_n negated, and its
    reconstruction's betas are (-1)**n * beta_n: the tail lemma's negated tail, with x_0
    negated too, as -a/b has the opposite delta_0 (browkin docstring)."""

    @staticmethod
    def assert_mirrored(p, a, b):
        exp = assert_tail_lemma(p, a, b)
        mirrored = assert_tail_lemma(p, -a, b)
        assert (mirrored.alpha, mirrored.beta0) == (-a, exp.beta0), (p, a, b)
        assert [(k, -x) for k, x in mirrored.steps] == list(exp.steps)
        assert browkin.browkin_betas(-a, b, p)[2] == -browkin.browkin_betas(a, b, p)[2]
        betas, mirrored_betas = [], []
        assert oracle.browkin_reconstruction(a, b, exp, betas).ok
        assert oracle.browkin_reconstruction(-a, b, mirrored, mirrored_betas).ok
        assert mirrored_betas == [(-1) ** n * beta for n, beta in enumerate(betas)], (p, a, b)
        return exp

    def test_random_inputs_up_to_3000_digits(self):
        rng = random.Random(37)
        cases = []
        for p in (3, 5, 7, 101, 65537, 10**9 + 7):
            for digits_ in (1, 2, 5, 30, 300, 3000):
                for place in ("a", "b", None):  # p | a, p | b, or p prime to both
                    while True:
                        a = rng.randrange(1, 10**digits_) * rng.choice((-1, 1))
                        b = rng.randrange(1, 10 ** rng.randint(1, digits_))
                        a, b = (a * p, b) if place == "a" else (a, b * p) if place == "b" else (a, b)
                        if math.gcd(a, b) == 1 and (place is not None or (a % p and b % p)):
                            break
                    cases.append((p, a, b))
        lengths = [len(self.assert_mirrored(p, a, b).steps) for p, a, b in cases]
        assert min(lengths) == 1 and max(lengths) > 4000

    def test_whole_grid_at_small_primes(self):
        pairs = [(a, b) for b in range(1, 101) for a in range(1, 101) if math.gcd(a, b) == 1]
        for p in (3, 5, 7):
            for a, b in pairs:
                self.assert_mirrored(p, a, b)


class TestTranslationLemma:
    """Rows a and a + b of one line share delta_0 wherever |x_0 + p**k0| < p**(1+k0)/2 and
    a + b != 0, so by the tail lemma browkin_expand(a + b, b, p) is a/b's record with x_0 moved
    by p**k0 and every beta from beta_0 on kept; where x_0 + p**k0 leaves the range, x'_0
    wraps round by p**(1+k0) (browkin docstring)."""

    @staticmethod
    def assert_translated(p, a, b):
        exp = assert_tail_lemma(p, a, b)
        k, x = exp.steps[0]
        if 2 * abs(x + p**k) >= p ** (1 + k) or a + b == 0:
            if a + b:  # x_0 at the top of its range: x'_0 wraps round by p**(1+k0)
                assert assert_tail_lemma(p, a + b, b).steps[0] == (k, x + p**k - p ** (1 + k)), (p, a, b)
            return None
        translated = assert_tail_lemma(p, a + b, b)
        assert browkin.browkin_betas(a + b, b, p)[2] == browkin.browkin_betas(a, b, p)[2], (p, a, b)
        assert translated.steps[1:] == exp.steps[1:] and translated.steps[0] == (k, x + p**k)
        betas, translated_betas = [], []
        assert oracle.browkin_reconstruction(a, b, exp, betas).ok
        assert oracle.browkin_reconstruction(a + b, b, translated, translated_betas).ok
        assert translated_betas == betas, (p, a, b)
        return translated

    def test_edges(self):
        # x_0 at the top of its range: 1 mod 3 (1/1), 4 mod 9 (4/3), 2 mod 5 (2/1), 12 mod 25
        # (12/5); and -1/1, whose target 0/1 has no expansion
        for p, a, b in ((3, 1, 1), (3, 4, 3), (3, -1, 1), (5, 2, 1), (5, 12, 5)):
            assert self.assert_translated(p, a, b) is None
        # one-step sources, delta_0 = 0: x_0 / p**k0 itself, and its target one step too
        for p, a, b in ((3, 1, 3), (5, 1, 1), (5, -2, 25), (3, -13, 27)):
            assert len(browkin_expand(a, b, p).steps) == 1
            assert len(self.assert_translated(p, a, b).steps) == 1
        # a target whose x_0 is the top itself: 1/3 -> 4/3, and -1/1 -> 0/1 is no target
        assert self.assert_translated(3, 1, 3).steps[0] == (1, 4)

    def test_random_inputs_up_to_3000_digits(self):
        rng = random.Random(45)
        translated = 0
        for p in (3, 5, 7, 101, 65537, 10**9 + 7):
            for digits_ in (1, 2, 5, 30, 300, 3000):
                for k0 in (0, 1, 3):  # p**k0 exactly divides b
                    while True:
                        a = rng.randrange(1, 10**digits_) * rng.choice((-1, 1))
                        b = rng.randrange(1, 10 ** rng.randint(1, digits_)) * p**k0
                        if math.gcd(a, b) == 1 and (b // p**k0) % p:
                            break
                    translated += self.assert_translated(p, a, b) is not None
        assert translated > 90

    def test_whole_grid_at_small_primes(self):
        for p in (3, 5, 7):
            for b in range(1, 61):
                for a in range(-60, 61):
                    if a and math.gcd(a, b) == 1:
                        self.assert_translated(p, a, b)


class TestQuotientPairs:
    def test_lowest_terms_at_large_heights(self):
        # x is prime to p once k > 0, so (x, p**k) is the Fraction's own pair
        rng = random.Random(67)
        for height in (10**6, 10**50, 10**300, 10**1000):
            for p in (3, 5, 101):
                for shift in (0, 2):
                    num = rng.randint(-height, height) or 1
                    r = Fraction(num, rng.randint(1, height) * p**shift)
                    exp = browkin_expand(r.numerator, r.denominator, p)
                    pairs = quotient_pairs(exp)
                    assert pairs == [(s.x, p**s.k) for s in exp.steps]
                    assert [Fraction(x, den).as_integer_ratio() for x, den in pairs] == pairs
                    for (x, den), step in zip(pairs, exp.steps):
                        if step.k > 0:
                            assert math.gcd(x, den) == 1
                    assert cf_evaluate(pairs) == r

    def test_expansion_builds_no_quotient_fractions(self, monkeypatch):
        # the integer pair in, integer steps out: no Fraction, and never one per step
        rng = random.Random(71)
        made = count_fractions(monkeypatch)
        for p in (3, 7, 101):
            r = Fraction(-rng.randrange(10**299, 10**300), rng.randrange(10**299, 10**300))
            made.clear()
            exp = browkin.browkin_expand(r.numerator, r.denominator, p)
            assert made == [], made[:2]
            assert len(exp.steps) > 100
            assert cf_evaluate(quotient_pairs(exp)) == r

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--primes", "3,5", "--max-num", "12", "--max-den", "12"],
            ["expand-browkin", "-p", "7", "--json", "--", "-365/54"],
            ["expand-schneider", "-p", "7", "--json", "--", "-365/54"],
            ["digits", "-p", "7", "-n", "64", "--", "-365/54"],
        ],
    )
    def test_commands_build_no_fraction(self, argv, monkeypatch, capsys):
        # from the parsed pair to the last oracle check, these commands run on integers
        if argv[0] != "sweep":
            rng = random.Random(73)
            argv[-1] = f"{-rng.randrange(10**299, 10**300)}/{rng.randrange(10**299, 10**300)}"
        made = count_fractions(monkeypatch)
        assert cli.main(argv) == 0
        assert made == [], made[:2]
        assert capsys.readouterr().out


class TestCfEvaluate:
    def test_fixtures(self):
        assert cf_evaluate([(-2, 9), (2, 9)]) == Fraction(77, 18)
        assert cf_evaluate([(5, 7)]) == Fraction(5, 7)
        quotients = [(-20, 27), (4, 3), (2, 3), (-2, 3)]
        assert cf_evaluate(quotients) == Fraction(365, 54)

    def test_integer_pairs(self):
        assert cf_evaluate([(-2, 9), (2, 9)]) == Fraction(77, 18)
        assert cf_evaluate([(-20, 27), (4, 3), (2, 3), (-2, 3)]) == Fraction(365, 54)
        assert cf_evaluate([(-1, 1), (-4, 3), (2, 3)]) == 5
        assert cf_evaluate([(1, 2), (1, 3), (2, 5)]) == Fraction(29, 34)  # dens of no one base
        with pytest.raises(ZeroDivisionError, match="divergent"):
            cf_evaluate([(1, 1), (0, 1)])
        with pytest.raises(ZeroDivisionError, match="divergent"):
            cf_evaluate([(1, 2), (1, 3), (-3, 1)])  # 1/3 + 1/-3 = 0 on the way

    def test_divergent(self):
        with pytest.raises(ZeroDivisionError, match="divergent"):
            cf_evaluate([(1, 1), (0, 1)])


class TestConvergents:
    def test_fixture_values(self):
        convs = browkin_convergents([(-2, 9), (2, 9)])
        assert [c.value for c in convs] == [Fraction(-2, 9), Fraction(77, 18)]
        assert browkin_convergents([(7, 1)])[0].value == 7

    def test_determinant_at_one(self):
        convs = browkin_convergents([(-20, 27), (4, 3)])
        assert convs[1].pn * convs[0].qn - convs[0].pn * convs[1].qn == 1

    def test_last_convergent_is_input_and_determinants(self):
        def p_free(value, p):
            den = value.denominator
            while den % p == 0:
                den //= p
            return den == 1

        for p in (3, 5):
            for r in random_rationals(43 + p, 100):
                exp = browkin_expand(r.numerator, r.denominator, p)
                convs = browkin_convergents(quotient_pairs(exp))
                assert convs[-1].value == r
                for n in range(1, len(convs)):
                    det = convs[n].pn * convs[n - 1].qn - convs[n - 1].pn * convs[n].qn
                    assert det == (-1) ** (n + 1)
                for conv in convs:  # numerators and denominators stay in Z[1/p]
                    assert p_free(conv.pn, p) and p_free(conv.qn, p)

    def test_padic_convergence_is_monotone(self):
        for r in random_rationals(47, 80):
            exp = browkin_expand(r.numerator, r.denominator, 3)
            convs = browkin_convergents(quotient_pairs(exp))
            vals = [vp(r - c.value, 3) for c in convs if c.value != r]
            assert vals == sorted(set(vals))


class TestStepIdentities:
    def test_complete_quotients(self):
        for p in (3, 5, 7):
            for r in random_rationals(53 + p, 80):
                exp = browkin_expand(r.numerator, r.denominator, p)
                steps = exp.steps
                a = [Fraction(x, den) for x, den in quotient_pairs(exp)]
                # complete quotients r_n = beta_{n-1} / (beta_n * p**k_n), beta_{-1} = alpha
                betas = [exp.alpha, *beta_trace(exp)]
                rs = [Fraction(betas[n], betas[n + 1] * p**s.k) for n, s in enumerate(steps)]
                assert rs[0] == r
                for n in range(len(steps) - 1):
                    assert rs[n] == a[n] + 1 / rs[n + 1]
                    assert vp(rs[n + 1], p) == -steps[n + 1].k < 0
                assert rs[-1] == a[-1]  # exact termination
                assert len(betas) == len(steps) + 1
                for n, (s, beta) in enumerate(zip(steps, betas[1:])):
                    assert abs(s.x) <= (p ** (1 + s.k) - 1) // 2
                    if n >= 1:
                        assert s.k >= 1
                    assert beta % p != 0


class TestStepLaw:
    """The step loop against raw_step, far beyond the small grids."""

    def test_large_heights(self):
        rng = random.Random(97)
        for p in (3, 5, 7, 101):
            for digits in (300, 1000):
                for shift in (0, 1, 2):
                    num = p
                    while num % p == 0:
                        num = rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10**digits)
                    r = Fraction(num, rng.randrange(10 ** (digits - 1), 10**digits) * p**shift)
                    exp = browkin_expand(r.numerator, r.denominator, p)
                    assert len(exp.steps) > digits // 2
                    assert any(s.k >= 2 for s in exp.steps[1:])
                    assert_step_law(exp, r, p)

    def test_short_and_integer_expansions(self):
        rng = random.Random(101)
        for p in (3, 5, 7, 101):
            inputs = [Fraction(1), Fraction(-1), Fraction(2, p**2), Fraction(p - 1, p), Fraction(p**40 + 1)]
            inputs += [Fraction(rng.randrange(10**999, 10**1000)), Fraction(1, p**300)]
            for r in inputs:
                exp = browkin_expand(r.numerator, r.denominator, p)
                assert_step_law(exp, r, p)
                assert cf_evaluate(quotient_pairs(exp)) == r


class TestThetaSequence:
    def test_fixtures(self):
        assert theta_sequence(2, 1, 3, 3) == [2, 1, Fraction(13, 18)]
        assert theta_sequence(1, 0, 5, 3) == [1, 0, Fraction(1, 25)]
        seq = theta_sequence(2, 5, 3, 4)
        assert seq[:3] == [2, 5, Fraction(49, 18)]
        assert seq[3] == seq[2] / 2 + seq[1] / 9

    def test_needs_two_terms(self):
        with pytest.raises(ValueError):
            theta_sequence(2, 1, 3, 1)


class TestBound:
    def test_worked_fixtures(self):
        report = browkin_bound(2, 1, 3)
        assert report.n_bound == 3
        lambda1, lambda2 = lambdas(report)
        assert lambda1 == QuadraticElement(Fraction(2, 3))
        assert lambda2 == QuadraticElement(Fraction(-1, 6))
        assert report.exact_certificate

        assert browkin_bound(2, 5, 3).n_bound == 6

        report = browkin_bound(4, 13, 5)
        assert report.n_bound == 6
        lambda1, lambda2 = lambdas(report)
        assert lambda1 == QuadraticElement(Fraction(1, 4), Fraction(1, 20), 41)
        assert report.exact_certificate
        assert capacity(report) == QuadraticElement(2 * 13) / (lambda1 - lambda2) + 4

    def test_roots_satisfy_defining_equation(self):
        for p in (3, 5, 7, 11):
            lambda1, lambda2 = lambdas(browkin_bound(3, 4, p))
            for lam in (lambda1, lambda2):
                residual = 2 * p * p * lam * lam - p * p * lam - 2
                assert residual == QuadraticElement(0)
            assert lambda1.sign() == 1
            assert (1 - lambda1).sign() == 1
            assert lambda2.sign() == -1
            assert (lambda2 + Fraction(1, 2)).sign() == 1

    def test_bound_brackets_capacity_exactly(self):
        rng = random.Random(59)
        inputs = []
        for _ in range(60):
            inputs.append((rng.choice([3, 5, 7]), rng.randint(1, 40), rng.randint(0, 40)))
        for height in (10**50, 10**300, 10**400, 10**1000):  # past the float range too
            for p in (3, 5, 7, 101):
                inputs.append((p, rng.randint(1, height - 1), rng.randint(0, height - 1)))
        for p in (3, 5, 7, 101, 10**9 + 7):
            # capacity exactly 1 (N = 0), 255 (the largest integer capacity that starts
            # the walk at n = 0) and 256 (the smallest that seeds it)
            inputs += [(p, 1, 0), (p, 255, 0), (p, 256, 0)]
            disc = p * p + 16
            assert browkin._length_seed(255 * disc, 0, p, disc) == 0
            assert browkin._length_seed(256 * disc, 0, p, disc) > 0
        # at n = N, x + isqrt(D)*y < D*(4p)**n <= x + sqrt(D)*y: only the squares decide
        inputs += [(5, 1, 5), (5, 1, 9), (7, 5, 2), (7, 4, 21), (11, 1, 14)]
        for height in (10**20, 10**300):
            for p in (3, 53, 1009):  # D = 25 * 113 folds at p = 53
                inputs.append((p, rng.randint(1, height - 1), 0))
                inputs.append((p, rng.randint(1, 40), rng.randint(1, height - 1)))
        for p in (1009, 10**9 + 7):
            inputs.append((p, rng.randint(1, 10**200), rng.randint(0, 10**200)))
        for p, b0, b1 in inputs:
            report = browkin_bound(b0, b1, p)
            n, lam1, cap = report.n_bound, lambdas(report)[0], capacity(report)
            assert (lam1**n * cap - 1).sign() >= 0
            assert (lam1 ** (n + 1) * cap - 1).sign() < 0

    def test_seed_cannot_change_the_bound(self, monkeypatch):
        # the seed only sets where the walk starts: any start gives the same N.  The
        # small cases start at n = 0 unpatched; the cutoff lives in _length_seed, so
        # the patch plants their starts too
        rng = random.Random(67)
        cases = [(2, 1, 3), (2, 5, 3), (4, 13, 5), (1, 0, 3), (1, 0, 101)]
        cases += [(rng.randint(1, 10**1000), rng.randint(0, 10**1000), p) for p in (3, 7, 101)]
        for b0, b1, p in cases:
            n = browkin_bound(b0, b1, p).n_bound
            for seed in (0, n - 7, n + 7, 2 * n + 5):
                monkeypatch.setattr(browkin, "_length_seed", lambda *args, seed=max(0, seed): seed)
                assert browkin_bound(b0, b1, p).n_bound == n
            monkeypatch.undo()

    def test_theta_dominated_by_geometric_envelope(self):
        # theta_i <= lambda1**i * capacity, exactly in the quadratic field
        for p in (3, 5):
            report = browkin_bound(2, 5, p)
            thetas = theta_sequence(2, 5, p, 12)
            for i, theta in enumerate(thetas):
                envelope = lambdas(report)[0] ** i * capacity(report)
                assert (envelope - theta).sign() >= 0


class TestMajorantAndLength:
    def test_small_grid(self):
        for p in (3, 5):
            for r in random_rationals(61 + p, 120):
                exp = browkin_expand(r.numerator, r.denominator, p)
                betas = beta_trace(exp)
                beta1 = abs(betas[1]) if len(betas) > 1 else 0
                assert beta1 == beta1_abs(exp)
                report = browkin_bound(exp.beta0, beta1, p)
                assert len(exp.steps) <= report.n_bound + 1
                thetas = theta_sequence(exp.beta0, beta1, p, max(2, len(exp.steps)))
                assert len(betas) == len(exp.steps)
                for i, beta in enumerate(betas):
                    assert abs(beta) <= thetas[i]
