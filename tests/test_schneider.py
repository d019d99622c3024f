"""Schneider expansion tests: table fixtures, stationarity absorption,
matrix laws, exact head-length certificates, and the generator round trip."""

import math
import random
from fractions import Fraction
from math import gcd

import pytest

from padic_cf import schneider
from padic_cf.exactarith import QuadraticElement, int_vp, mod_inverse, vp
from padic_cf.schneider import (
    generate_constant_head,
    head_analysis,
    schneider_convergents,
    schneider_evaluate,
    schneider_expand,
)

from replay import constant_head_product, head_identity, y_trace

# (digit, alpha, p) of the constant heads the benchmark runs
BENCHMARK_HEAD_TRIPLES = [
    (1, 2, 3), (1, 3, 3), (1, 2, 5), (2, 3, 5), (1, 2, 7), (2, 2, 7),
    (3, 3, 7), (1, 1, 11), (2, 2, 11), (1, 1, 13), (1, 1, 101), (2, 1, 101),
]
LARGE_PRIMES = (100000000000000000039, 10**21 + 117)
LARGE_P_HEADS = ((1, 2, 5), (2, 3, 3), (1, 2, 40))  # (digit, alpha, k)


def raw_step(y_prev, y_cur, p):
    """Independent re-derivation of one expansion step, straight from the recurrence."""
    digit = (y_prev * mod_inverse(y_cur, p)) % p
    delta = y_prev - digit * y_cur
    alpha = int_vp(delta, p)
    return digit, alpha, delta // p**alpha


def assert_step_law(exp, a, b, p):
    """Each recorded step is raw_step of the pair before it, the y trace replays the
    y values raw_step gives, and the tail marker and tail fit the last pair."""
    y_prev, y_cur, ys = a, b, []
    for step in exp.steps:
        assert (y_prev, y_cur) not in ((1, -1), (-1, 1))
        digit, alpha, y_next = raw_step(y_prev, y_cur, p)
        assert step == (digit, alpha)
        y_prev, y_cur = y_cur, y_next
        ys.append(y_next)
    assert y_trace(exp) == ys
    if exp.finite_end:
        assert y_prev == (y_prev * mod_inverse(y_cur, p)) % p * y_cur
        assert exp.tail == (y_prev, y_cur)
    else:
        assert exp.stationary_from == len(exp.steps)
        assert (y_prev, y_cur) in ((1, -1), (-1, 1))
        assert exp.tail == (-1, 1)


def assert_guard_lemmas(exp, a, b, p):
    """Lemmas (i)-(iii) of the schneider module docstring, step by step on the y
    values raw_step gives, and the step count below the cap they give."""
    ys = [a, b]  # ys[m] = y_{m-1}
    for step in exp.steps:
        digit, alpha, y_next = raw_step(ys[-2], ys[-1], p)
        assert step == (digit, alpha)
        ys.append(y_next)
    assert ys[2:] == y_trace(exp)
    h0 = max(abs(a), b)
    bits = h0.bit_length()
    others = run = 0
    for m, step in enumerate(exp.steps):
        h = max(abs(ys[m]), abs(ys[m + 1]))
        assert abs(ys[m + 2]) <= h  # (i)
        if (step.b, step.alpha) == (p - 1, 1):
            # (iii): the pair's sum is a nonzero integer divided by exactly p
            assert ys[m] + ys[m + 1] != 0
            assert ys[m] + ys[m + 1] == p * (ys[m + 1] + ys[m + 2])
            run += 1
            assert p**run <= 2 * h0 and run <= bits
        else:
            others, run = others + 1, 0
            assert p * abs(ys[m + 2]) <= (p - 1) * h  # (ii)
            if m + 3 < len(ys):
                assert p * p * max(abs(ys[m + 2]), abs(ys[m + 3])) <= (p * p - p + 1) * h
    assert others < 2 * bits * (p + 2) + 2
    assert len(exp.steps) < (2 * bits * (p + 2) + 4) * (bits + 1)


def finite_end_input(rng, length, p):
    """a/b whose expansion is `length` random steps, then a finite end."""
    last = rng.randint(1, p - 1)
    head = [(rng.randint(1, p - 1), rng.choice((1, 1, 2, 3))) for _ in range(length)][::-1]
    return (*finite_end_pair(head, last, p), head)


def finite_end_pair(head, last, p):
    """a/b whose expansion is `head`, then a finite end at the pair (last, 1).

    Built backwards from the last pair, last a digit: y_{m-1} = b_m y_m +
    p**alpha_m y_{m+1} keeps every y prime to p, each pair coprime and, past
    the last pair, |y| >= 2, so the forward expansion retraces exactly these steps.
    """
    y_cur, y_next = last, 1
    for digit, alpha in reversed(head):
        y_cur, y_next = digit * y_cur + p**alpha * y_next, y_cur
    return (y_cur, y_next) if y_next > 0 else (-y_cur, -y_next)


def reference_expansion(a, b, p):
    """(head, stationary_from, finite_end, tail) of a/b by the recurrence, one
    full-size step at a time."""
    y_prev, y_cur, head = a, b, []
    while (y_prev, y_cur) not in ((1, -1), (-1, 1)):
        digit = y_prev * mod_inverse(y_cur, p) % p
        delta = y_prev - digit * y_cur
        if delta == 0:
            return head, None, True, (y_prev, y_cur)
        alpha = int_vp(delta, p)
        head.append((digit, alpha))
        y_prev, y_cur = y_cur, delta // p**alpha
    return head, len(head), False, (-1, 1)


def random_input(rng, digits, p):
    """a/b in lowest terms, a and b of `digits` digits, prime to p, a of random sign."""
    a = b = p
    while a % p == 0 or b % p == 0 or math.gcd(a, b) != 1:
        a = rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10**digits)
        b = rng.randrange(10 ** (digits - 1), 10**digits)
    return a, b


def coprime_pairs(seed, count, span=120):
    rng = random.Random(seed)
    made = 0
    while made < count:
        a = rng.randint(-span, span)
        b = rng.randint(1, span)
        if a != 0 and math.gcd(abs(a), b) == 1:
            made += 1
            yield a, b


class TestExpandFixtures:
    def test_2_5_table(self):
        exp = schneider_expand(2, 5, 3)
        assert exp.steps == ((1, 1),) * 4
        assert y_trace(exp) == [-1, 2, -1, 1]
        assert exp.stationary_from == 4
        assert not exp.finite_end
        assert exp.tail == (-1, 1)

    def test_1259_701_table(self):
        exp = schneider_expand(1259, 701, 3)
        assert exp.steps == ((1, 2),) * 6
        assert y_trace(exp) == [62, 71, -1, 8, -1, 1]
        assert exp.stationary_from == 6

    def test_3044_673_table(self):
        exp = schneider_expand(3044, 673, 5)
        assert exp.steps == ((3, 2),) * 4
        assert y_trace(exp) == [41, 22, -1, 1]
        assert exp.stationary_from == 4

    def test_finite_end(self):
        exp = schneider_expand(7, 2, 3)
        assert exp.finite_end and exp.stationary_from is None
        assert exp.steps == ((2, 1),)
        assert exp.tail == (2, 1)
        assert schneider_evaluate(exp.steps, exp.tail, 3) == Fraction(7, 2)

        exp = schneider_expand(2, 1, 3)  # small integer: immediate division
        assert exp.finite_end and exp.steps == ()
        assert exp.tail == (2, 1)

    def test_minus_one_is_purely_stationary(self):
        exp = schneider_expand(-1, 1, 5)
        assert exp.stationary_from == 0
        assert exp.steps == ()
        assert exp.tail == (-1, 1)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="coprime to p"):
            schneider_expand(3, 5, 3)
        with pytest.raises(ValueError, match="coprime to p"):
            schneider_expand(5, 3, 3)
        with pytest.raises(ValueError, match="coprime"):
            schneider_expand(4, 8, 3)
        with pytest.raises(ValueError, match="nonzero"):
            schneider_expand(0, 1, 3)
        with pytest.raises(ValueError, match="positive"):
            schneider_expand(2, -5, 3)


class TestEvaluate:
    def test_fixtures(self):
        assert schneider_evaluate([(1, 1)] * 4, (-1, 1), 3) == Fraction(2, 5)
        assert schneider_evaluate([], (9, 4), 3) == Fraction(9, 4)
        assert schneider_evaluate([(3, 2)] * 4, (-1, 1), 5) == Fraction(3044, 673)
        assert schneider_evaluate([(1, 2)] * 6, (-1, 1), 3) == Fraction(1259, 701)

    def test_zero_tail_rejected(self):
        with pytest.raises(ZeroDivisionError):
            schneider_evaluate([(1, 1)], (0, 1), 3)

    def test_step_records_and_pairs_agree(self):
        # the oracle passes exp.steps; (digit, alpha) pair lists still work
        for a, b, p in ((2, 5, 3), (3044, 673, 5), (1259, 701, 3), (7, 2, 3), (2, 1, 3)):
            exp = schneider_expand(a, b, p)
            by_steps = schneider_evaluate(exp.steps, exp.tail, p)
            assert by_steps == schneider_evaluate(exp.steps, exp.tail, p) == Fraction(a, b)


class TestConvergents:
    def test_first_matrix_fixture(self):
        exp = schneider_expand(2, 5, 3)
        matrix = list(schneider_convergents(exp))[0]
        assert matrix == (1, 3, 1, 0)
        u, _, w, _ = matrix
        assert Fraction(u, w) == 1

    def test_determinant_law_fixture(self):
        exp = schneider_expand(2, 5, 3)
        u, v, w, z = list(schneider_convergents(exp))[1]
        assert u * z - v * w == 9  # (-1)**2 * 3**(1+1)
        assert vp(Fraction(2, 5) - Fraction(u, w), 3) == 2

    def test_laws_on_random_inputs(self):
        for p in (3, 5, 7):
            for a, b in coprime_pairs(67 + p, 60):
                if a % p == 0 or b % p == 0:
                    continue
                exp = schneider_expand(a, b, p)
                if not exp.steps:
                    continue
                r = Fraction(a, b)
                total = 0
                for m, (u, v, w, z) in enumerate(schneider_convergents(exp)):
                    total += exp.steps[m].alpha
                    assert u * z - v * w == (-1) ** (m + 1) * p**total
                    assert vp(r - Fraction(u, w), p) == total


def assert_tail_lemma(p, a, b):
    """The kernel's record of a/b is its first step, as schneider_first_step reads it, followed
    by the kernel's record of its first complete quotient r_1 = b / y_1, with the same tail up
    to the sign of y_1, the same finite-end flag and the stationary index shifted by one (the
    tail lemma, schneider docstring); returns the record of a/b."""
    exp = schneider_expand(a, b, p)
    first = schneider.schneider_first_step(a, b, p)
    if first is None:  # a finite end at index 0, or -1/1 stationary at once
        assert not exp.steps and exp.stationary_from == (0 if a + b == 0 else None), (p, a, b)
        return exp
    step, y1 = first
    assert step == exp.steps[0] and a - step.b * b == p**step.alpha * y1 and y1 % p, (p, a, b)
    sign = 1 if y1 > 0 else -1  # r_1 with a positive denominator: the y chain times sign
    tail = schneider_expand(sign * b, sign * y1, p)
    assert exp.steps == (step, *tail.steps), (p, a, b)
    assert exp.finite_end == tail.finite_end, (p, a, b)
    if tail.finite_end:
        assert exp.stationary_from is None and exp.tail == (sign * tail.tail[0], sign * tail.tail[1])
    else:
        assert exp.stationary_from == tail.stationary_from + 1 and exp.tail == tail.tail == (-1, 1)
    return exp


class TestTailLemma:
    def test_sweep_rows(self):
        # every row of the 100x100 sweep grid with a Schneider column
        for p in (3, 5, 7):
            for b in range(1, 101):
                for a in range(-100, 101):
                    if a % p and b % p and math.gcd(a, b) == 1:
                        assert_tail_lemma(p, a, b)

    def test_random_inputs_and_constant_heads(self):
        # past the kernel's entry run gate and its batch bound, and constant heads, whose tail
        # the kernel takes from r_1 as one run
        rng = random.Random(51)
        lengths = []
        for p in (3, 5, 101, 65537):
            for digits in (1, 2, 5, 30, 300, 3000):
                lengths.append(len(assert_tail_lemma(p, *random_input(rng, digits, p)).steps))
        for digit, alpha, p in BENCHMARK_HEAD_TRIPLES:
            a, b = generate_constant_head(digit, alpha, 300, p)
            assert assert_tail_lemma(p, a, b).steps == ((digit, alpha),) * 301
        assert max(lengths) > 1000


class TestTranslationLemma:
    """Rows a and a + b of one line share y_1 wherever b_0 + 1 <= p - 1, a/b has a step and
    a + 2b != 0, so by the tail lemma schneider_expand(a + b, b, p) is a/b's record with b_0
    moved to b_0 + 1 and the same tail and markers; where a + 2b = 0, the target -1/1 is
    stationary at once (schneider docstring)."""

    @staticmethod
    def assert_translated(p, a, b):
        exp = assert_tail_lemma(p, a, b)
        if not exp.steps or exp.steps[0].b == p - 1 or a + 2 * b == 0:
            return None
        translated = assert_tail_lemma(p, a + b, b)
        assert schneider.schneider_first_step(a + b, b, p)[1] == schneider.schneider_first_step(a, b, p)[1]
        assert translated.steps[0] == (exp.steps[0].b + 1, exp.steps[0].alpha)
        assert translated[4:] == exp[4:] and translated.steps[1:] == exp.steps[1:]
        return translated

    def test_edges(self):
        for p in (3, 5, 7):
            # -2/1 has the step (p-2, 1) to the stationary pair, and its target -1/1 none
            assert schneider_expand(-2, 1, p).steps == ((p - 2, 1),)
            assert schneider_expand(-1, 1, p).stationary_from == 0
            assert self.assert_translated(p, -2, 1) is None
            # a finite end at the input, d/1, has no step to move
            for d in range(1, p):
                assert schneider_expand(d, 1, p).finite_end and not schneider_expand(d, 1, p).steps
                assert self.assert_translated(p, d, 1) is None
            # -1/1 is stationary at once; b_0 = p - 1 leaves no digit to move to
            assert self.assert_translated(p, -1, 1) is None
            assert self.assert_translated(p, 2 * p - 1, 1) is None
        # a finite end after one step moves to another: 6 = 1 + 5*1 at p = 5 -> 7 = 2 + 5*1
        assert self.assert_translated(5, 6, 1).finite_end

    def test_random_inputs_and_constant_heads(self):
        # past the kernel's entry run gate and its batch bound, and constant heads whose first
        # step the translation moves off the run: the target's kernel steps them one at a time
        rng = random.Random(45)
        translated = 0
        for p in (3, 5, 7, 101, 65537, 10**9 + 7):
            for digits in (1, 2, 5, 30, 300, 3000):
                translated += self.assert_translated(p, *random_input(rng, digits, p)) is not None
        for digit, alpha, p in BENCHMARK_HEAD_TRIPLES:
            for k in (1, 300, 2000):
                a, b = generate_constant_head(digit, alpha, k, p)
                assert self.assert_translated(p, a, b).steps[1:] == ((digit, alpha),) * k
        assert translated > 20

    def test_whole_grid_at_small_primes(self):
        for p in (3, 5, 7):
            for b in range(1, 61):
                for a in range(-60, 61):
                    if a % p and b % p and math.gcd(a, b) == 1:
                        self.assert_translated(p, a, b)


class TestReconstructionAndAbsorption:
    def test_reconstruction(self):
        for p in (3, 5, 7):
            for a, b in coprime_pairs(71 + p, 80):
                if a % p == 0 or b % p == 0:
                    continue
                exp = schneider_expand(a, b, p)
                assert exp.stationary_from is not None or exp.finite_end
                value = schneider_evaluate(exp.steps, exp.tail, p)
                assert value == Fraction(a, b)

    def test_coprimality_chain(self):
        for p in (3, 5):
            for a, b in coprime_pairs(73 + p, 60):
                if a % p == 0 or b % p == 0:
                    continue
                exp = schneider_expand(a, b, p)
                ys = [a, b, *y_trace(exp)]
                for m in range(len(ys) - 1):
                    assert math.gcd(ys[m], ys[m + 1]) == 1
                for y in y_trace(exp):
                    assert y % p != 0

    def test_absorbing_tail(self):
        fixtures = [(2, 5, 3), (1259, 701, 3), (3044, 673, 5), (-1, 1, 7)]
        for a, b, p in fixtures:
            exp = schneider_expand(a, b, p)
            assert exp.stationary_from is not None
            ys = [a, b, *y_trace(exp)]
            y_prev, y_cur = ys[-2], ys[-1]
            assert (y_prev, y_cur) in ((1, -1), (-1, 1))
            for _ in range(10):
                digit, alpha, y_next = raw_step(y_prev, y_cur, p)
                assert (digit, alpha) == (p - 1, 1)
                assert y_next == -y_cur  # tail y values alternate +-1
                y_prev, y_cur = y_cur, y_next

    def test_digit_ranges(self):
        for p in (3, 5, 7):
            for a, b in coprime_pairs(79 + p, 40):
                if a % p == 0 or b % p == 0:
                    continue
                exp = schneider_expand(a, b, p)
                for m, (digit, alpha) in enumerate(exp.steps):
                    assert 1 <= digit <= p - 1
                    assert alpha >= 1


class TestStepLaw:
    """The step loop against raw_step, far beyond the small grids."""

    def test_large_heights(self):
        rng = random.Random(83)
        for p in (3, 5, 7, 101):
            for digits in (300, 1000):
                a, b = random_input(rng, digits, p)
                exp = schneider_expand(a, b, p)
                assert len(exp.steps) > digits
                assert any(s.alpha >= 2 for s in exp.steps)
                assert_step_law(exp, a, b, p)

    def test_guard_lemmas(self):
        rng = random.Random(97)
        for p in (3, 7, 101, 10**9 + 7):
            for digits in (1, 3, 30, 300, 1000):
                a, b = random_input(rng, digits, p)
                assert_guard_lemmas(schneider_expand(a, b, p), a, b, p)
            for r in (5, 40):  # a + b = p**r: a run of (p-1, 1) steps first
                assert_guard_lemmas(schneider_expand(p**r - 2, 2, p), p**r - 2, 2, p)
        for digit, alpha, p in ((1, 1, 3), (1, 2, 3), (3, 1, 5), (5, 1, 7), (1, 1, 101)):
            for k in (0, 1, 20, 2000):
                a, b = generate_constant_head(digit, alpha, k, p)
                assert_guard_lemmas(schneider_expand(a, b, p), a, b, p)

    def test_constant_heads_with_large_exponents(self):
        for digit, alpha, p in ((1, 3, 3), (2, 3, 5), (3, 3, 7)):
            a, b = generate_constant_head(digit, alpha, 2000, p)
            exp = schneider_expand(a, b, p)
            assert exp.steps == ((digit, alpha),) * 2001
            assert_step_law(exp, a, b, p)

    def test_finite_ends(self):
        rng = random.Random(89)
        fixtures = [(3, (7, 2, [(2, 1)])), (3, (19, 7, [(1, 1)] * 3)), (3, (2, 1, []))]
        for p in (3, 5, 7, 101):
            for length in (1, 5, 400, 2000):
                fixtures.append((p, finite_end_input(rng, length, p)))
        for p, (a, b, head) in fixtures:
            exp = schneider_expand(a, b, p)
            assert exp.finite_end and list(exp.steps) == head
            assert_step_law(exp, a, b, p)
            assert schneider_evaluate(exp.steps, exp.tail, p) == Fraction(a, b)


class TestBatchedKernel:
    """The kernel, which takes its steps in batches on residues above a bound,
    against the single-step reference on inputs on both sides of the bound."""

    @staticmethod
    def assert_matches_reference(a, b, p):
        exp = schneider_expand(a, b, p)
        got = (list(exp.steps), exp.stationary_from, exp.finite_end, exp.tail)
        assert got == reference_expansion(a, b, p), (a, b, p)
        return exp

    @staticmethod
    def batched(a, b, p):
        # the input starts above the bound and p is small enough for batches
        depth = schneider._BATCH_WIDTH // p.bit_length()
        width = min(abs(a), b).bit_length()
        return depth >= schneider._BATCH_DEPTH_MIN and width > 2 * schneider._BATCH_WIDTH

    def test_random_inputs(self):
        rng = random.Random(101)
        for p in (3, 5, 7, 101, 65537, 10**9 + 7):
            for digits in (1, 30, 250, 300, 1000, 3000):
                a, b = random_input(rng, digits, p)
                assert self.batched(a, b, p) == (digits >= 300 and p < 2**17)
                self.assert_matches_reference(a, b, p)

    def test_long_stationary_runs(self):
        # a + b = p**r: r - 1 or so (p-1, 1) steps on a pair that starts far above the bound
        for p, r in ((3, 1500), (5, 700), (7, 1000), (101, 400), (65537, 200)):
            exp = self.assert_matches_reference(p**r - 2, 2, p)
            assert exp.steps[: r - 2] == ((p - 1, 1),) * (r - 2)
            exp = self.assert_matches_reference(-(p**r) + 2, 2, p)

    def test_finite_ends(self):
        rng = random.Random(103)
        for p in (3, 7, 101, 65537):
            a, b, head = finite_end_input(rng, 2000, p)
            assert self.batched(a, b, p)
            exp = self.assert_matches_reference(a, b, p)
            assert exp.finite_end and list(exp.steps) == head
            a, b = -a, b  # a negative input, of the same size
            self.assert_matches_reference(a, b, p)

    def test_constant_heads(self):
        for p in (3, 5, 7, 101):
            for alpha in (1, 2, 5, 9):
                for digit in {1, p - 2, p - 1} - {p - 1 if alpha == 1 else 0}:
                    k = 1500 // alpha
                    a, b = generate_constant_head(digit, alpha, k, p)
                    assert self.batched(a, b, p)
                    exp = self.assert_matches_reference(a, b, p)
                    assert exp.steps == ((digit, alpha),) * (k + 1)

    def test_exponent_past_the_residues(self):
        # a step above the bound whose exponent the residues cannot tell
        # (alpha >= K - 1) is taken on the full pair
        rng = random.Random(107)
        for p in (3, 7):
            depth = schneider._BATCH_WIDTH // p.bit_length()
            for alpha in (depth - 2, depth - 1, depth, 3 * depth):
                head = [(rng.randint(1, p - 1), rng.choice((1, 2))) for _ in range(1500)]
                head.insert(200, (rng.randint(1, p - 1), alpha))
                a, b = finite_end_pair(head, 1, p)
                assert self.batched(a, b, p)
                exp = self.assert_matches_reference(a, b, p)
                assert list(exp.steps) == head

    def test_head_analysis_with_no_pair_runs_no_kernel(self, monkeypatch):
        # the default pair is read off the first step's definition, not off an expansion,
        # even on an input above the batch bound
        a, b = generate_constant_head(1, 2, 1000, 3)
        assert self.batched(a, b, 3)

        def fail(*args):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(schneider, "schneider_expand", fail)
        monkeypatch.setattr(schneider, "_batches", fail)
        report = head_analysis(a, b, None, None, 3)
        assert (report.digit, report.alpha, report.head_len) == (1, 2, 1001)


def head_values(report):
    """(t1, t2, theta) of a HeadReport as exact QuadraticElements: t1, t2 = (digit -+ sqrt(D)) / 2,
    the roots of T**2 - digit*T - p**alpha, and theta = (sx + sy*sqrt(D)) / n."""
    digit, disc = report.digit, report.disc
    t1 = QuadraticElement(Fraction(digit, 2), Fraction(-1, 2), disc)
    t2 = QuadraticElement(Fraction(digit, 2), Fraction(1, 2), disc)
    return t1, t2, QuadraticElement(Fraction(report.sx, report.n), Fraction(report.sy, report.n), disc)


class TestHeadAnalysis:
    def test_2_5_fixture(self):
        report = head_analysis(2, 5, 1, 1, 3)
        t1, t2, theta = head_values(report)
        assert abs(float(t1) - (-1.303)) < 1e-3
        assert abs(float(t2) - 2.303) < 1e-3
        assert abs(float(theta) - (-5.523)) < 1e-3
        assert theta == QuadraticElement(Fraction(-77, 27), Fraction(-20, 27), 13)
        assert report.head_len - 1 == 3
        assert report.head_len == 4
        assert report.exact_identity
        assert (t2 / t1) ** 3 == theta

    def test_1259_701_fixture_with_errata(self):
        report = head_analysis(1259, 701, 1, 2, 3)
        assert report.head_len - 1 == 5
        assert report.head_len == 6
        assert report.exact_identity
        # the characteristic roots belong to T**2 - T - 9, not T**2 - T - 3
        t1, _, theta = head_values(report)
        residual = t1 * t1 - t1 - 9
        assert residual == QuadraticElement(0)
        assert abs(float(theta) - (-73.736)) > 1

    def test_3044_673_fixture_with_errata(self):
        report = head_analysis(3044, 673, 3, 2, 5)
        assert report.head_len - 1 == 3
        assert report.head_len == 4
        assert report.exact_identity
        assert abs(float(head_values(report)[2]) - 11.211) > 1

    def test_root_identities(self):
        report = head_analysis(2, 5, 1, 1, 3)
        for root in head_values(report)[:2]:
            assert root * root - 1 * root - 3 == QuadraticElement(0)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="stationary pair"):
            head_analysis(2, 5, 2, 1, 3)
        # the one-step head -2 = 1 - 3 before the stationary tail: theta = 1 = (t2/t1)**0
        report = head_analysis(-2, 1, 1, 1, 3)
        assert report.exact_identity and report.head_len == 1
        assert head_values(report)[2] == QuadraticElement(1)
        # the inputs schneider_expand refuses, refused with its messages
        for a, b, message in (
            (0, 1, "numerator must be nonzero"),
            (2, 0, "denominator must be positive"),
            (2, -5, "denominator must be positive"),
            (9, 2, "numerator must be coprime to p"),
            (2, 9, "denominator must be coprime to p"),
        ):
            with pytest.raises(ValueError, match=message):
                head_analysis(a, b, 1, 1, 3)
        # no gcd is taken: 4/10 answers as 2/5 does (the record's integers scale by 2**2)
        scaled, reduced = head_analysis(4, 10, 1, 1, 3), head_analysis(2, 5, 1, 1, 3)
        assert (scaled.head_len, scaled.exact_identity, head_values(scaled)[2]) == (
            reduced.head_len, reduced.exact_identity, head_values(reduced)[2])
        # but the input rules read the pair as given: p | g fails the unit-pair check, and
        # alpha_max is that of the scaled pair, so 2000/5000 takes an exponent 2/5 refuses
        assert head_analysis(1259, 701, None, None, 3).head_len == 6
        with pytest.raises(ValueError, match="numerator must be coprime to p"):
            head_analysis(3 * 1259, 3 * 701, None, None, 3)
        assert head_analysis(2000, 5000, 1, 4, 3).head_len is None
        with pytest.raises(ValueError, match="exponent must be at most 3 for 2/5 at p=3, got 4"):
            head_analysis(2, 5, 1, 4, 3)

    def test_pair_read_off_the_first_step(self):
        # with no pair given, the first step's, which 4/10 shares with 2/5, as the rest
        scaled, reduced = head_analysis(4, 10, None, None, 3), head_analysis(2, 5, None, None, 3)
        assert (reduced.digit, reduced.alpha, reduced.head_len) == (1, 1, 4)
        assert (scaled.head_len, scaled.exact_identity, head_values(scaled)[2]) == (
            reduced.head_len, reduced.exact_identity, head_values(reduced)[2])
        # stationary at once (-1 at p=3) and a finite end at once (3 at p=5): no first step
        for a, b, p in ((-1, 1, 3), (3, 1, 5)):
            with pytest.raises(ValueError, match="input has no head step to analyze"):
                head_analysis(a, b, None, None, p)

    def test_integer_identity_matches_field_reference(self):
        # the twelve benchmark head triples, then a spread with D squarefree or not
        triples = BENCHMARK_HEAD_TRIPLES + [
            (1, 1, 3), (2, 1, 5), (3, 1, 5), (2, 2, 5), (5, 1, 7), (6, 2, 7),
        ]
        for digit, alpha, p in triples:
            for k in (0, 1, 2, 7, 60, 333, 1000):
                a, b = generate_constant_head(digit, alpha, k, p)
                report = head_analysis(a, b, digit, alpha, p)
                assert report.head_len == k + 1
                assert report.exact_identity and report.head_len - 1 == k
                t1, t2, theta = head_values(report)
                assert (t2 / t1) ** k == theta
                # a +- p keeps the first digit but breaks the constant head
                for shifted in (a + p, a - p) if k >= 7 else ():
                    off = head_analysis(shifted, b, digit, alpha, p)
                    assert not off.exact_identity
                    assert off.head_len is None

    def test_run_power_check_matches_the_identity_itself(self):
        # lemma (vi), one power of the step matrix, against the identity (T2/T1)**e = theta in
        # Z[sqrt(D)] (replay.head_identity) on seeded calls: constant heads with and without a
        # random tail below them, random inputs of 3 and 40 digits, the same inputs scaled by
        # g, and the pair left out, given, or wrong.  Each call's ValueError or verdict agrees
        rng = random.Random(33)
        calls = exact = scaled = 0
        for p in (3, 5, 7, 11, 13, 101, 65537, 10**9 + 7):
            inputs = []
            for _ in range(60):
                digit, alpha, k = rng.randrange(1, p), rng.randint(1, 3), rng.choice((0, 1, 2, 9, 40, 150))
                if (digit, alpha) == (p - 1, 1):
                    continue
                a, b = generate_constant_head(digit, alpha, k, p)
                y_cur, y_next = rng.randrange(1, 10**12) * rng.choice((-1, 1)), rng.randrange(1, 10**12)
                for _ in range(k + 1):
                    y_cur, y_next = digit * y_cur + p**alpha * y_next, y_cur
                tailed = (y_cur, y_next) if y_next > 0 else (-y_cur, -y_next)
                inputs += [(a, b, digit, alpha), (*tailed, digit, alpha)]
            for digits in (3, 40):
                for _ in range(20):
                    b = rng.randrange(1, 10**digits)
                    inputs.append((rng.randrange(1, 10**digits) * rng.choice((-1, 1)), b,
                                   rng.randrange(1, p), rng.randint(1, 2)))
            inputs += [(g * a, g * b, digit, alpha) for g in (2, 4) for a, b, digit, alpha in inputs[:40]]
            for a, b, digit, alpha in inputs:
                g = gcd(a, b)
                for pair in ((None, None), (digit, alpha), (None, alpha), (digit, None),
                             (digit, alpha + 1), (digit % (p - 1) + 1, alpha)):
                    calls += 1
                    try:
                        report = head_analysis(a, b, *pair, p)
                    except ValueError:
                        continue
                    assert (report.head_len, report.exact_identity) == head_identity(report, p), (a, b, pair, p)
                    if g > 1:  # only the value a/b decides the answer, where both are asked
                        try:
                            reduced = head_analysis(a // g, b // g, *pair, p)
                        except ValueError:  # an exponent past the smaller input's size
                            reduced = None
                        if reduced is not None:
                            assert report[6:] == reduced[6:], (a, b, pair, p)
                            scaled += 1
                    exact += report.exact_identity
        assert calls > 10000 and exact > 1000 and scaled > 1000, (calls, exact, scaled)

    def test_quotient_test_matches_the_cross_multiplication(self, monkeypatch):
        # lemma (vi) decided by one division, q, r = divmod(a, U) then b == q*W, against
        # a*W == b*U: on the corpus's constant heads, scaled by g prime to p, with v built for
        # e - 1, e and e + 1 (_run_power planted to shift the power head_analysis asks for)
        from test_corpus import CONSTANT_HEADS

        run_power, shift, vectors = schneider._run_power, [0], []

        def shifted(digit, pa, r):
            hi, lo = run_power(digit, pa, r + shift[0])
            vectors.append((hi - pa * lo, (1 + digit) * lo - hi))  # (U, W) = M**(r+shift) (1, -1)
            return hi, lo

        monkeypatch.setattr(schneider, "_run_power", shifted)
        checked = 0
        for digit, alpha, k, p in CONSTANT_HEADS:
            a, b = constant_head_product(digit, alpha, k, p)
            big = (1 << 70) + 3
            while big % p == 0:
                big += 2
            for g in (1, 2, big):
                for shift[0] in (-1, 0, 1):
                    vectors.clear()
                    report = head_analysis(g * a, g * b, None, None, p)
                    (big_u, big_w), = vectors
                    cross = g * a * big_w == g * b * big_u
                    assert report.exact_identity == cross == (shift[0] == 0), (digit, alpha, k, p, g, shift)
                    assert report.head_len == (k + 1 if cross else None)
                    checked += 1
        assert checked == 9 * len(CONSTANT_HEADS)

    def test_non_constant_head_input(self):
        # no exact identity, so no length: 7/2 has head (2,1) once, then a finite
        # end; the (1,40) input starts (1,40), (1,2), (1,1), ... with |t2/t1| - 1
        # about 2.9e-10, where a float-derived length read 201
        for a, b, digit, alpha in (
            (7, 2, 1, 2),
            (147808829414345923291767879288269439998, 1478088294143459233039255447473263687, 1, 40),
        ):
            report = head_analysis(a, b, digit, alpha, 3)
            assert not report.exact_identity
            assert report.head_len is None

    def test_theta_minus_one_meets_no_exponent(self):
        # x = 0 gives theta = -1 and e = 0, where v = sy = 0: only the sign of the rational
        # part, u*n' against sx'*4**e, tells the identity fails
        for a, b, digit, alpha, p in ((-1, 4, 2, 2, 3), (-1, 2, 2, 1, 5), (17, 23, 4, 2, 5)):
            report = head_analysis(a, b, digit, alpha, p)
            assert head_values(report)[2] == QuadraticElement(-1)
            assert not report.exact_identity and report.head_len is None

    def test_long_heads_certify_past_the_float_range(self):
        # theta overflows a float on these heads (the k = 1500 (1,1) head at p = 3
        # first): the exponent comes from valuations, float(theta) raises;
        # the (1,40) head at p = 3 has |t2/t1| - 1 about 2.9e-10
        for digit, alpha, p, k in ((1, 1, 3, 1500), (4, 1, 7, 2000), (1, 40, 3, 1000)):
            a, b = generate_constant_head(digit, alpha, k, p)
            report = head_analysis(a, b, digit, alpha, p)
            assert report.exact_identity and report.head_len == k + 1
            if alpha == 1:
                with pytest.raises(OverflowError):
                    float(head_values(report)[2])
            else:
                assert math.isfinite(float(head_values(report)[2]))

    def test_exponent_stays_within_the_input_size(self):
        # a real convergent of the infinite (1,20) head's value at p = 3: |theta| is
        # about 7e26 and |t2/t1| - 1 about 1.7e-5, so log|theta| / log|t2/t1| is near
        # 3.65e6, but the identity forces p**(alpha*e) to divide n, which allows
        # e <= 4; w**(3.65e6) would not end
        report = head_analysis(3294299955222442, 55788786613, 1, 20, 3)
        assert report.head_len is None and not report.exact_identity

    def test_heads_certify_at_large_p(self):
        # |t2/t1| - 1 is 1e-20 or less here, below the resolution of a double
        for p in LARGE_PRIMES:
            for digit, alpha, k in LARGE_P_HEADS:
                a, b = generate_constant_head(digit, alpha, k, p)
                assert schneider_expand(a, b, p).steps == ((digit, alpha),) * (k + 1)
                report = head_analysis(a, b, digit, alpha, p)
                assert report.exact_identity and report.head_len == k + 1

    def test_records_hold_no_float_or_fraction(self):
        # the records are exact: display floats are made by the CLI alone, from these values
        def leaves(value):
            if isinstance(value, tuple):  # a record, its steps or its tail pair
                for item in value:
                    yield from leaves(item)
            else:
                yield value

        assert schneider.HeadReport._fields == (
            "digit", "alpha", "disc", "sx", "sy", "n", "head_len", "exact_identity")
        assert not hasattr(schneider.SchneiderExpansion, "tail_value")
        records = [schneider_expand(7, 2, 3)]  # a finite end
        cases = [(digit, alpha, 20, p) for digit, alpha, p in BENCHMARK_HEAD_TRIPLES]
        for digit, alpha, k, p in cases + [(1, 1, 1500, 3)]:
            a, b = generate_constant_head(digit, alpha, k, p)
            records += [head_analysis(a, b, digit, alpha, p), schneider_expand(a, b, p)]
        for record in records:
            assert not any(isinstance(leaf, (float, Fraction)) for leaf in leaves(record))

    def test_no_float_decides_the_head(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a logarithm was taken")

        monkeypatch.setattr(math, "log", unreachable)
        monkeypatch.setattr(math, "log1p", unreachable)
        cases = [(digit, alpha, 1000, p) for digit, alpha, p in BENCHMARK_HEAD_TRIPLES]
        cases += [(digit, alpha, k, p) for p in LARGE_PRIMES for digit, alpha, k in LARGE_P_HEADS]
        for digit, alpha, k, p in cases:
            a, b = generate_constant_head(digit, alpha, k, p)
            report = head_analysis(a, b, digit, alpha, p)
            assert report.exact_identity and report.head_len == k + 1


class TestGenerator:
    def test_fixtures(self):
        # four (1, 1) step matrices at p = 3, the steps of 2/5: generate_constant_head(1, 1, 3, 3)
        # is (u - v, w - z) of their product, sign-normalized
        exp = schneider_expand(2, 5, 3)
        assert exp.steps == ((1, 1),) * 4
        assert list(schneider_convergents(exp))[-1] == (19, 21, 7, 12)
        assert generate_constant_head(1, 1, 3, 3) == (2, 5)
        assert generate_constant_head(1, 1, 0, 3) == (-2, 1)
        assert generate_constant_head(1, 2, 5, 3) == (1259, 701)
        assert generate_constant_head(3, 2, 3, 5) == (3044, 673)

    def test_one_power_is_the_product_of_the_steps(self):
        # M**(k+1) (1, -1) by one _run_power against the k+1 products one at a time, on every
        # k below 70, powers of 2 and their neighbours, and the heads of the pinned CLI calls
        cases = []
        for p in (3, 5, 7, 11, 101, 65537, 10**9 + 7):
            pairs = {(1, 1), (1, 2), (2, 1), (p - 1, 2), (p // 2, 3)} - {(p - 1, 1)}
            ks = [*range(70), 127, 128, 500, 1950]
            cases += [(digit, alpha, k, p) for digit, alpha in pairs for k in ks]
        cases += [(1, 2, 40, 100000000000000000039), (1, 2, 2000, 3), (1, 2, 20000, 3),
                  (1, 1, 10000, 10**9 + 7), (3, 3, 1950, 7)]
        for digit, alpha, k, p in cases:
            assert generate_constant_head(digit, alpha, k, p) == constant_head_product(digit, alpha, k, p)
        assert len(cases) > 2000

    def test_zero_head_value(self):
        a, b = generate_constant_head(1, 1, 0, 3)
        assert Fraction(a, b) == 1 + Fraction(3, -1)

    def test_round_trip_small(self):
        for p in (3, 5):
            for digit in range(1, p):
                for alpha in (1, 2):
                    if (digit, alpha) == (p - 1, 1):
                        continue
                    for k in range(5):
                        a, b = generate_constant_head(digit, alpha, k, p)
                        exp = schneider_expand(a, b, p)
                        assert exp.steps == ((digit, alpha),) * (k + 1)
                        assert exp.stationary_from == k + 1

    def test_round_trip_through_head_analysis(self):
        for p in (3, 5):
            for digit in range(1, p):
                for alpha in (1, 2):
                    if (digit, alpha) == (p - 1, 1):
                        continue
                    for k in range(5):
                        a, b = generate_constant_head(digit, alpha, k, p)
                        report = head_analysis(a, b, digit, alpha, p)
                        assert report.exact_identity
                        assert report.head_len == k + 1

    def test_stationary_pair_rejected(self):
        with pytest.raises(ValueError, match="stationary pair"):
            generate_constant_head(2, 1, 4, 3)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k must be nonnegative"):
            generate_constant_head(1, 1, -1, 3)
