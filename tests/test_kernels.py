"""The two expansion kernels against plain single-step references.

Each reference is its module docstring's recurrence, one full-size step at a
time, with a pow call for every inverse and no table, carried residue or
batch.  The kernels carry residues from step to step, keep a dict of
inverses (and, for Schneider, of step records) for each expansion and, for
Schneider above a bound, step in batches on residues mod p**K: every such
shortcut must give the reference's steps exactly, its tail markers included,
and so must the runs of one repeated step that the kernel takes as one power
(lemma (v)) at the input pair.  schneider_pair takes a whole head of one step
the same way, found by value (_leading_run, checked against a plain scan), and
steps every other head, one whose run ends inside it included: it must give
the pair of a back-substitution one level at a time.
A Browkin step records (k, x) alone, so the reference's beta_n are checked
against the betas replayed from the record (tests/replay.py).
"""

import contextlib
import io
import json
import random
from math import gcd

import pytest

from padic_cf import cli, exactarith, oracle, schneider
from padic_cf.browkin import browkin_expand
from padic_cf.exactarith import vp_split
from padic_cf.schneider import generate_constant_head, head_analysis, schneider_expand, schneider_pair

from replay import beta_trace, constant_head_product, k_trace, y_trace

PRIMES = (3, 5, 101, 65537, 10**9 + 7)


def _valuation(n, p):
    # vp(n) of a nonzero integer
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def reference_browkin(alpha, beta, p):
    """The steps of alpha/beta as (k, x, beta_n) triples."""
    k = _valuation(beta, p)
    b_prev, b_cur, steps = alpha, beta // p**k, []
    while True:
        modulus = p ** (1 + k)
        x = b_prev * pow(b_cur, -1, modulus) % modulus
        if x > modulus // 2:
            x -= modulus
        steps.append((k, x, b_cur))
        delta = b_prev - x * b_cur
        if delta == 0:
            return steps
        v = _valuation(delta, p)  # k_n + k_{n+1}
        k, b_prev, b_cur = v - k, b_cur, delta // p**v


def reference_schneider(a, b, p):
    """(steps, stationary_from, finite_end, tail) of a/b: the steps as (digit, alpha) pairs."""
    y_prev, y_cur, steps = a, b, []
    while (y_prev, y_cur) not in ((1, -1), (-1, 1)):
        digit = y_prev * pow(y_cur, -1, p) % p
        delta = y_prev - digit * y_cur
        if delta == 0:
            return steps, None, True, (y_prev, y_cur)
        alpha = _valuation(delta, p)
        steps.append((digit, alpha))
        y_prev, y_cur = y_cur, delta // p**alpha
    return steps, len(steps), False, (-1, 1)


def browkin_record(exp):
    # the steps of an expansion in reference_browkin's form: (k, x) with the replayed beta
    return [(k, x, beta) for (k, x), beta in zip(exp.steps, beta_trace(exp), strict=True)]


def assert_browkin_matches(a, b, p):
    exp = browkin_expand(a, b, p)
    assert browkin_record(exp) == reference_browkin(a, b, p), (a, b, p)
    return exp


def assert_schneider_matches(a, b, p):
    exp = schneider_expand(a, b, p)
    got = (list(exp.steps), exp.stationary_from, exp.finite_end, exp.tail)
    assert got == reference_schneider(a, b, p), (a, b, p)
    return exp


def browkin_input(ks, xs, p):
    """a/b whose Browkin expansion has exponents ks and residues xs, then ends.

    Built backwards from beta_N = 1, beta_{N+1} = 0 by beta_{n-1} = x_n beta_n +
    p**(k_n + k_{n+1}) beta_{n+1}; each x_n must be prime to p where k_n >= 1
    and |x_n| < p**(1+k_n)/2, so the forward step reads x_n back.
    """
    b_cur, b_next = 1, 0
    for n in reversed(range(len(ks))):
        k_next = ks[n + 1] if n + 1 < len(ks) else 0
        b_cur, b_next = xs[n] * b_cur + p ** (ks[n] + k_next) * b_next, b_cur
    a, b = b_cur, b_next * p ** ks[0]
    return (a, b) if b > 0 else (-a, -b)


def random_residue(rng, k, p):
    # x with |x| < p**(1+k)/2, prime to p
    half = p ** (1 + k) // 2
    while True:
        x = rng.randint(-half, half)
        if x % p:
            return x


def random_pair(rng, digits, p, p_free=True):
    while True:
        a = rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10**digits)
        b = rng.randrange(10 ** (digits - 1), 10**digits)
        if gcd(a, b) == 1 and not (p_free and (a % p == 0 or b % p == 0)):
            return a, b


class TestBrowkin:
    def test_k0_zero_then_k1_one(self):
        # beta_0 must be known mod p**2 at the second step: known only mod p,
        # -47/4 at p = 3 reconstructed to -50
        exp = assert_browkin_matches(-47, 4, 3)
        assert k_trace(exp)[:2] == [0, 1]
        rng = random.Random(31)
        for p in PRIMES:
            for _ in range(20):
                ks = [0, 1] + [rng.choice((1, 1, 2)) for _ in range(rng.randint(0, 6))]
                xs = [rng.randint(-(p // 2), p // 2)] + [random_residue(rng, k, p) for k in ks[1:]]
                a, b = browkin_input(ks, xs, p)
                exp = assert_browkin_matches(a, b, p)
                assert k_trace(exp) == ks and [s.x for s in exp.steps] == xs

    def test_k0_positive_and_runs_of_large_k(self):
        rng = random.Random(37)
        for p in PRIMES:
            for k0 in (1, 2, 5):
                # runs of k >= 2, a k = 1 step after each, and a run at the end
                ks = [k0] + [2, 3, 2, 1, 4, 4, 1, 1, 2, 6]
                xs = [random_residue(rng, k, p) for k in ks]
                a, b = browkin_input(ks, xs, p)
                exp = assert_browkin_matches(a, b, p)
                assert k_trace(exp) == ks and [s.x for s in exp.steps] == xs

    @pytest.mark.parametrize("p", PRIMES)
    def test_random_inputs(self, p):
        rng = random.Random(p)
        for digits in (1, 2, 30, 300):
            for p_free in (True, False):
                for _ in range(5):
                    a, b = random_pair(rng, digits, p, p_free)
                    assert_browkin_matches(a, b, p)
                    if a % p:
                        assert_browkin_matches(a, b * p ** rng.randint(1, 3), p)
        a, b = random_pair(rng, 3000, p)
        assert_browkin_matches(a, b, p)

    def test_sweep_grid_slice(self):
        for p in (3, 5, 7):
            for b in range(1, 41):
                for a in range(-40, 41):
                    if a and gcd(a, b) == 1:
                        assert_browkin_matches(a, b, p)


class TestSchneider:
    @pytest.mark.parametrize("p", PRIMES)
    def test_random_inputs(self, p):
        rng = random.Random(p)
        for digits in (1, 2, 30, 300, 3000):
            for _ in range(5 if digits < 300 else 1):
                a, b = random_pair(rng, digits, p)
                assert_schneider_matches(a, b, p)

    def test_large_exponents_and_finite_ends(self):
        # built backwards from a finite end (last, 1): exponents up to 7, above and below
        # the batch bound where p allows batches
        rng = random.Random(43)
        for p in PRIMES:
            for length in (5, 60, 3000 if p < 2**17 else 300):
                head = [(rng.randint(1, p - 1), rng.choice((1, 1, 2, 3, 7))) for _ in range(length)]
                y_cur, y_next = rng.randint(1, p - 1), 1
                for digit, alpha in reversed(head):
                    y_cur, y_next = digit * y_cur + p**alpha * y_next, y_cur
                a, b = (y_cur, y_next) if y_next > 0 else (-y_cur, -y_next)
                exp = assert_schneider_matches(a, b, p)
                assert exp.finite_end and list(exp.steps) == head

    def test_constant_heads_and_stationary_runs(self):
        for p in (3, 5, 101):
            for digit, alpha in ((1, 1), (1, 2), (p - 2, 3)):
                a, b = generate_constant_head(digit, alpha, 1500, p)
                exp = assert_schneider_matches(a, b, p)
                assert exp.steps == ((digit, alpha),) * 1501
            assert_schneider_matches(p**1200 - 2, 2, p)

    def test_batch_path_at_3000_digits(self):
        rng = random.Random(47)
        for p in (3, 5, 101, 65537):
            a, b = random_pair(rng, 3000, p)
            assert min(abs(a), b).bit_length() > 2 * schneider._BATCH_WIDTH
            assert_schneider_matches(a, b, p)

    @pytest.mark.parametrize("p", (3, 5, 101))
    def test_each_residue_inverted_once(self, p, monkeypatch):
        # 1 and p-1 are their own inverses; any other residue costs one pow per expansion
        calls = []
        monkeypatch.setattr(schneider, "pow", lambda *args: calls.append(args) or pow(*args),
                            raising=False)
        a, b = random_pair(random.Random(59), 3000, p)
        exp = schneider_expand(a, b, p)
        assert len(exp.steps) > 1000
        assert len(calls) == len(set(calls)) <= p - 3

    @pytest.mark.parametrize("p", (5, 101))
    def test_pow_calls_within_steps_plus_one(self, p, monkeypatch):
        # finite and stationary expansions: the dict's lookups are one per step, but the one past
        # the last step, at a finite end, is for y = +-1, so it makes at most min(p-3, steps) pow
        # calls mod p, as the module docstring states.  Below _RUN_GATE the first step is
        # schneider_first_step's, whose one pow comes first, and the dict serves the steps after
        # it; (3p + 2)/(p + 2), a finite end after two steps, reaches the bound there.  The entry
        # run's inverse mod a power of 2 is exactarith's _inverse_power, no pow here
        calls = []
        monkeypatch.setattr(schneider, "pow", lambda *args: (args[2] == p and calls.append(args)) or pow(*args),
                            raising=False)
        rng = random.Random(61)
        inputs = [random_pair(rng, 40, p) for _ in range(40)] + [(1, p + 1), (p - 1, 1), (-1, 1)]
        reached = False
        for a, b in inputs + [(3 * p + 2, p + 2)]:
            calls.clear()
            exp = schneider_expand(a, b, p)
            first = int(min(abs(a), b).bit_length() <= schneider._RUN_GATE)
            assert calls[:first] == [(b, -1, p)] * first
            looked_up, later = calls[first:], max(len(exp.steps) - first, 0)
            assert len(looked_up) == len(set(looked_up)) <= min(p - 3, later)
            reached |= first and exp.finite_end and len(looked_up) == later > 0
        assert reached

    def test_equal_steps_share_one_record(self):
        # one SchneiderStep object per distinct (digit, alpha) of every expansion, small ones
        # with 2p >= bits included, in the single-step loop and the batches alike
        rng = random.Random(67)
        inputs = [(*random_pair(rng, 300, p), p) for p in (3, 7, 101)]
        a, b = random_pair(rng, 3000, 3)
        assert min(abs(a), b).bit_length() > 2 * schneider._BATCH_WIDTH
        inputs += [(a, b, 3), (*generate_constant_head(1, 2, 300, 5), 5), (-1, 1, 3)]
        inputs += [(43, 28, 3), (-365, 53, 7), (1259, 701, 101)]
        for a, b, p in inputs:
            exp = schneider_expand(a, b, p)
            assert all(type(s) is schneider.SchneiderStep for s in exp.steps), (a, b, p)
            assert len({id(s) for s in exp.steps}) == len(set(exp.steps)), (a, b, p)


def stepwise_pair(head, tail, p):
    """The reference for schneider_pair: its back-substitution, one level at a time."""
    num, den = tail
    if num == 0:
        raise ZeroDivisionError("zero tail value")
    for step in reversed(head):
        if num == 0:
            raise ZeroDivisionError("zero denominator in back-substitution")
        num, den = step[0] * num + p ** step[1] * den, num
    return num, den


def outcome(fn, *args):
    # the pair fn returns, or the type and message of what it raises
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)


def head_over_tail(head, tail, p):
    """a/b whose expansion starts with head and continues as tail's pair (y_{n-1}, y_n),
    two units mod p, would: built back from it by y_{m-1} = d*y_m + p**alpha*y_{m+1}."""
    y_cur, y_next = tail
    for digit, alpha in reversed(head):
        y_cur, y_next = digit * y_cur + p**alpha * y_next, y_cur
    return (y_cur, y_next) if y_next > 0 else (-y_cur, -y_next)


def min_bits(pair):
    # the bits of min(|a|, b), which the kernel's run gate reads
    return min(abs(pair[0]), pair[1]).bit_length()


def norm_form(x, y, digit, alpha, p):
    # Q(x, y) of lemma (v) for the step (digit, alpha)
    return x * (x - digit * y) - p**alpha * y * y


RUN_PRIMES = (3, 5, 7, 11, 101, 10**9 + 7)


@pytest.fixture
def powers(monkeypatch):
    # the r of every _run_power call, the kernel's runs and schneider_pair's
    calls = []
    run_power = schneider._run_power

    def counted(digit, pa, r):
        calls.append(r)
        return run_power(digit, pa, r)

    monkeypatch.setattr(schneider, "_run_power", counted)
    return calls


class TestRuns:
    """Lemma (v) of the schneider module: a run of one step (d, alpha), read off one
    valuation of Q and taken as one power of the step matrix, in the kernel (at the input
    pair) and in schneider_pair.  The tests of either loop count _run_power calls, so
    each fails if no run was taken.  generate_constant_head is one power itself, so a test
    that counts or plants _run_power before it builds its input builds the head by
    replay.constant_head_product."""

    @staticmethod
    def seeded_expansions(p):
        rng = random.Random(p)
        inputs = [random_pair(rng, digits, p) for digits in (1, 2, 30, 100, 300) for _ in range(3)]
        top = 3 if p > 3 else 2
        for digit, alpha in ((1, 1), (1, 2), (max(1, p - 2), top)):
            inputs.append(generate_constant_head(digit, alpha, 300, p))
            inputs.append(head_over_tail([(digit, alpha)] * 300, random_pair(rng, 40, p), p))
        inputs.append(head_over_tail([(p - 1, 1)] * 300, random_pair(rng, 40, p), p))
        return [schneider_expand(a, b, p) for a, b in inputs]

    @pytest.mark.parametrize("p", RUN_PRIMES)
    def test_run_law_at_every_pair(self, p):
        # from each pair (y_{m-1}, y_m), with (d, alpha) its step and v = vp(Q) of that step,
        # the next (v-1)//alpha steps are (d, alpha); Q is never 0 before a recorded step; and
        # where that run is 2 or more, adj(M**r) (y_{m-1}, y_m) / (-p**alpha)**r is the pair reached
        pairs = jumps = 0
        for exp in self.seeded_expansions(p):
            ys, steps = [exp.a, exp.b, *y_trace(exp)], exp.steps
            for m, (digit, alpha) in enumerate(steps):
                form = norm_form(ys[m], ys[m + 1], digit, alpha, p)
                assert form != 0, (exp.a, exp.b, p, m)
                r = (vp_split(form, p)[0] - 1) // alpha
                assert m + r <= len(steps) and steps[m:m + r] == ((digit, alpha),) * r
                if r >= 2 and m % 37 == 0:
                    pa = p**alpha
                    hi, lo = schneider._run_power(digit, pa, r)
                    scale = (-pa) ** r
                    reached = ((hi - digit * lo) * ys[m] - pa * lo * ys[m + 1], hi * ys[m + 1] - lo * ys[m])
                    assert reached == (scale * ys[m + r], scale * ys[m + r + 1])
                    jumps += 1
                pairs += 1
        assert pairs > 2000 and jumps > 20

    def test_run_power_is_the_step_matrix_power(self):
        for digit, pa in ((1, 3), (2, 25), (100, 101), (1, 10**9 + 7)):
            m00, m01, m10, m11 = 1, 0, 0, 1
            for r in range(1, 70):
                m00, m01, m10, m11 = m00 * digit + m01, m00 * pa, m10 * digit + m11, m10 * pa
                hi, lo = schneider._run_power(digit, pa, r)
                assert (m00, m01, m10, m11) == (hi, pa * lo, lo, hi - digit * lo), (digit, pa, r)

    @pytest.mark.parametrize("k", (40, 300, 600, 1500, 5000))
    def test_constant_heads_jump(self, k, powers):
        triples = [(1, 2, 3), (1, 3, 3), (2, 3, 5), (1, 1, 101)]
        if k < 5000:
            triples += [(3, 2, 7), (2, 1, 101), (99, 3, 101)]
        for digit, alpha, p in triples:
            powers.clear()
            a, b = constant_head_product(digit, alpha, k, p)
            assert min(abs(a), b).bit_length() > schneider._RUN_GATE
            exp = assert_schneider_matches(a, b, p)
            assert exp.steps == ((digit, alpha),) * (k + 1)
            assert len({id(step) for step in exp.steps}) == 1
            assert powers and sum(powers) > k // 2, (digit, alpha, p)

    def test_run_ending_mid_expansion(self, powers):
        # a constant head over a random tail: the run ends where the tail's own steps start,
        # above the batch bound, and the batches go on from the pair the run reached
        rng = random.Random(71)
        for p in (3, 5, 101):
            for digit, alpha in ((1, 1), (2, 2), (1, 3)):
                powers.clear()
                tail = random_pair(rng, 400, p)
                a, b = head_over_tail([(digit, alpha)] * 800, tail, p)
                exp = assert_schneider_matches(a, b, p)
                assert exp.steps[:800] == ((digit, alpha),) * 800
                assert exp.steps[800:] == schneider_expand(*tail, p).steps
                assert powers, (p, digit, alpha)

    @pytest.mark.parametrize("p, k", ((3, 1000), (10**9 + 7, 40)))
    def test_inexact_run_division_names_the_input(self, p, k, monkeypatch):
        # a wrong power (a defect) leaves a remainder, raised with the input as a batch's is
        run_power = schneider._run_power
        monkeypatch.setattr(schneider, "_run_power", lambda digit, pa, r: (run_power(digit, pa, r)[0] + 1, 0))
        a, b = constant_head_product(1, 2, k, p)
        with pytest.raises(ArithmeticError) as caught:
            schneider_expand(a, b, p)
        assert str(caught.value) == f"inexact run division by (-{p}**2)**{k} in the expansion of {a}/{b}"

    def test_long_stationary_digit_run(self, powers):
        # (p-1, 1) runs above the batch bound, where Q = (x - p*y)(x + y), over a random tail
        rng = random.Random(73)
        for p in (3, 5, 101):
            powers.clear()
            tail = random_pair(rng, 400, p)
            a, b = head_over_tail([(p - 1, 1)] * 1500, tail, p)
            exp = assert_schneider_matches(a, b, p)
            assert exp.steps[:1500] == ((p - 1, 1),) * 1500 and powers, p

    @pytest.mark.parametrize("p", (65537, 10**9 + 7))
    def test_entry_run_at_large_p(self, p, powers):
        # at 10**9+7 no batch runs, and at 65537 none before the entry run: the kernel takes the
        # whole head at the input pair, so the records are the run's one object, which the
        # single-step loop's last step takes too; the reconstruction compares records by value,
        # so its one power covers all 2,001 records, the last one included
        a, b = constant_head_product(1, 1, 2000, p)
        exp = assert_schneider_matches(a, b, p)
        assert exp.steps == ((1, 1),) * 2001
        assert len({id(step) for step in exp.steps}) == 1
        assert powers == [2000]
        powers.clear()
        assert oracle.schneider_reconstruction(a, b, exp).ok and powers == [2001]

    def test_entry_run_only_on_a_head_above_the_bound(self, powers):
        # one power at the input pair of a constant head above the run gate, whatever p is, on
        # either side of the batch bound; none on a random input above the gate (no batch is one
        # repeated step either) and none on a head below it, the longest head that fits there
        rng = random.Random(83)
        for p in (3, 101, 65537, 10**9 + 7):
            below = max(k for k in range(1, 80) if min_bits(generate_constant_head(1, 1, k, p)) <= schneider._RUN_GATE)
            cases = [(generate_constant_head(1, 2, 1000, p), True, 1), (generate_constant_head(1, 2, 40, p), True, 1),
                     (random_pair(rng, 400, p), True, 0), (random_pair(rng, 25, p), True, 0),
                     (generate_constant_head(1, 1, below, p), False, 0)]
            for (a, b), above, taken in cases:
                powers.clear()
                assert (min_bits((a, b)) > schneider._RUN_GATE) == above
                assert_schneider_matches(a, b, p)
                assert len(powers) == taken, (p, a, b)

    @pytest.mark.parametrize("p", PRIMES)
    def test_entry_run_between_the_gate_and_the_batch_bound(self, p, powers):
        # a constant head, and a head over a random tail, of more than _RUN_GATE bits and at most
        # 2W: one _run_power, at the input pair, whose run covers the head but for its last step
        # at most, and the single-step replay's steps, tail markers and tail
        rng = random.Random(p + 7)
        top = 3 if p > 3 else 2
        for digit, alpha in ((1, 1), (1, 2), (max(1, p - 2), top)):
            k = 2
            while min_bits(constant_head_product(digit, alpha, k + 1, p)) <= schneider._BATCH_WIDTH:
                k += 1  # the longest head below half the batch bound, so a tail fits too
            head = constant_head_product(digit, alpha, k, p)
            over_tail = head_over_tail([(digit, alpha)] * (k + 1), random_pair(rng, 20, p), p)
            for a, b in (head, over_tail):
                assert schneider._RUN_GATE < min_bits((a, b)) and max(abs(a), b).bit_length() <= 2 * schneider._BATCH_WIDTH
                powers.clear()
                exp = assert_schneider_matches(a, b, p)
                assert exp.steps[:k + 1] == ((digit, alpha),) * (k + 1)
                assert len(powers) == 1 and k <= powers[0] <= k + 1, (p, digit, alpha, powers)

    @pytest.mark.parametrize("p", (3, 101, 10**9 + 7))
    def test_a_short_first_width_doubles_to_the_pair(self, p, monkeypatch, powers):
        # _run_pair's first modulus planted far too small (a margin of minus the input's bits):
        # the forward identity fails, the width doubles, and the pair it keeps is the exact one.
        # Each width inverts det M**run mod 2**width once, so the inverse records the widths
        rng = random.Random(p + 11)
        widths = []
        inverse_power = schneider._inverse_power
        monkeypatch.setattr(schneider, "_inverse_power",
                            lambda p, m, width: widths.append(width) or inverse_power(p, m, width))
        for digit, alpha, digits in ((1, 2, 1), (1, 1, 40), (2, 1, 200)):
            a, b = head_over_tail([(digit, alpha)] * 200, random_pair(rng, digits, p), p)
            monkeypatch.setattr(schneider, "_RUN_MARGIN", -max(abs(a), b).bit_length())
            widths.clear()
            powers.clear()
            assert_schneider_matches(a, b, p)
            assert len(powers) == 1 and widths[0] == 1 and len(widths) > 2, (p, digits, widths)
            assert widths == [min(2**n, max(abs(a), b).bit_length() + 1) for n in range(len(widths))]

    def test_a_wrong_first_digit_takes_no_entry_run(self, monkeypatch, powers):
        # every inverse planted as 1: (2y + 1)/y at p = 5 takes the digit 2 for its true 4, which
        # leaves alpha = 0 at the input pair, so no run is taken and the batch meets the defect
        monkeypatch.setattr(schneider, "pow", lambda r, e, m: 1, raising=False)
        y = 3 + 5 * 10**300
        with pytest.raises(ArithmeticError) as caught:
            schneider_expand(2 * y + 1, y, 5)
        assert str(caught.value) == f"inexact step: a batch reached y = 0 in the expansion of {2 * y + 1}/{y}"
        assert powers == []

    @pytest.mark.parametrize("p", (3, 7, 101))
    def test_every_admitted_run_is_taken_as_one_power(self, p, powers):
        # a head of L steps over a random tail, above the gate, has vp(Q) >= L*alpha at the input
        # pair, so lemma (v) reads a run r = (vp(Q) - 1)//alpha with L - 1 <= r <= L.  The residue
        # test p**(2 alpha + 1) | Q admits exactly the runs of 2 steps or more, and each one it
        # admits is taken as one power; r = 1 takes none
        rng = random.Random(p + 13)
        for digit, alpha in ((1, 1), (2, 1), (1, 2)):
            for length in (2, 3, 5, 7, 9):
                tail = random_pair(rng, 60, p)
                while schneider_expand(*tail, p).steps[0] == (digit, alpha):
                    tail = random_pair(rng, 60, p)
                a, b = head_over_tail([(digit, alpha)] * length, tail, p)
                assert min_bits((a, b)) > schneider._RUN_GATE
                run = (vp_split(norm_form(a, b, digit, alpha, p), p)[0] - 1) // alpha
                assert length - 1 <= run <= length, (p, digit, alpha, length, run)
                powers.clear()
                exp = assert_schneider_matches(a, b, p)
                assert exp.steps[:length] == ((digit, alpha),) * length
                assert powers == ([run] if run >= 2 else []), (p, digit, alpha, length, powers)

    @staticmethod
    def pair_inputs():
        # (head, tail, p): expansions with long runs, and heads of one shared record over tails
        rng = random.Random(79)
        out, shortest = [], schneider._RUN_MIN  # the shortest run taken as a power
        for p in (3, 5, 101, 10**9 + 7):
            for digit, alpha in ((1, 1), (1, 2), (p - 1, 1)):
                for k in (shortest - 1, shortest, shortest + 1, 200, 1500):
                    exp = schneider_expand(*head_over_tail([(digit, alpha)] * k, random_pair(rng, 50, p), p), p)
                    out.append((exp.steps, exp.tail, p))
            for k in (600, 3000):
                exp = schneider_expand(*generate_constant_head(1, 2, k, p), p)
                out.append((exp.steps, exp.tail, p))
            exp = schneider_expand(*random_pair(rng, 1000, p), p)
            out.append((exp.steps, exp.tail, p))
            step = schneider.SchneiderStep(1, 2)
            mixed = ([step] * (shortest + 8) + list(exp.steps[:100]) + [step] * (shortest + 1)
                     + [(1, 2)] * 50 + [step] * 200)
            out.append((mixed, exp.tail, p))
        return out

    def test_leading_run_is_the_plain_scan(self):
        # _leading_run against a scan of one record at a time, on plain tuples and on records:
        # records are compared by value, and a head is taken only when it is one run whole
        rng = random.Random(89)
        shortest = schneider._RUN_MIN
        for make in (lambda d, e: tuple([d, e]), schneider.SchneiderStep):  # a new object each call
            A, B = make(1, 2), make(2, 1)
            tail = [make(rng.randrange(1, 3), rng.randrange(1, 3)) for _ in range(300)]
            heads = {
                "empty": [],
                "63": [A] * (shortest - 1),
                "64": [A] * shortest,
                "65": [A] * (shortest + 1),
                "run-then-step": [A] * 100 + [B] + tail,
                "repeat-after": [A] * shortest + [B] + [A] * 100,
                "equal-not-identical": [make(1, 2) for _ in range(200)],
                "whole-head": [A] * 2001,
                "whole-head-equal-last": [A] * 2000 + [make(1, 2)],
            }
            for n in range(1, 3 * shortest):  # one other record at each place, or first or last
                heads[f"other-at-{n}"] = [A] * n + [B] + [A] * (3 * shortest - n)
                heads[f"other-last-{n}"] = [A] * n + [B]
                heads[f"other-first-{n}"] = [B] + [A] * n
            assert len({id(row) for row in heads["equal-not-identical"]}) == 200
            for name, head in heads.items():
                scan = len(head) if len(head) >= shortest and all(row == head[0] for row in head) else 0
                for form in (head, tuple(head)):
                    assert schneider._leading_run(form) == scan, (name, type(form))
            taken = [name for name, head in heads.items() if schneider._leading_run(head)]
            assert taken == ["64", "65", "equal-not-identical", "whole-head", "whole-head-equal-last"]

    def test_pair_matches_the_step_loop(self, powers):
        inputs = self.pair_inputs()
        powers.clear()  # the kernel's runs: only schneider_pair's count below
        for head, tail, p in inputs:
            assert schneider_pair(head, tail, p) == stepwise_pair(head, tail, p), (len(head), p)
        assert powers

    @pytest.mark.parametrize("p", (3, 5, 101))
    def test_defects_inside_a_run_give_the_step_loop_outcome(self, p, powers):
        # a constant head of 300 records with records planted inside it or as the whole of it
        # (a digit of 0 or p, an exponent of 0), a tail numerator that p divides, a zero tail,
        # a tail that makes a numerator 0 inside the run, and another unit tail; each gives
        # what the step loop gives, pair or exception, and so the same verdict
        a, b = generate_constant_head(1, 2, 299, p)
        exp = schneider_expand(a, b, p)
        steps, tail = list(exp.steps), exp.tail
        good = steps[0]
        assert steps == [good] * 300
        powers.clear()  # the kernel's runs: only schneider_pair's count below
        planted = []
        for bad in ((0, 2), (p, 2), (0, 1), (p, 1), (1, 0)):
            record = schneider.SchneiderStep(*bad)
            planted.append((steps[:100] + [record] * 80 + steps[180:], tail))  # a bad run inside
            planted.append((steps[:100] + [record] + steps[101:], tail))  # a bad record in a run
            planted.append(([record] * 300, tail))  # a bad run, whole
        planted += [
            (steps, (p * tail[0], tail[1])),
            (steps, (p, -1)),  # numerators that p divides, none of them 0
            (steps, (0, 1)),
            (steps, (2, 1)),  # a unit tail of another value
            ([good] * 80, (p**2, -1)),  # 1*p**2 + p**2*(-1) = 0 at the second level
            ([schneider.SchneiderStep(p, 1)] * 80, (1, -1)),  # p*1 + p*(-1) = 0 likewise
            ([schneider.SchneiderStep(0, 1)] * 80, (1, 5)),
        ]
        for head, planted_tail in planted:
            got = outcome(schneider_pair, head, planted_tail, p)
            assert got == outcome(stepwise_pair, head, planted_tail, p), (head[:2], planted_tail)
            record = exp._replace(steps=tuple(head), tail=planted_tail)
            verdict = oracle.schneider_reconstruction(a, b, record).ok
            assert verdict == (isinstance(got[0], int) and got[1] != 0 and got[0] * b == got[1] * a)
        # the intact head over the unit tail (2, 1) passes the guard and is taken as one power,
        # by schneider_pair and by the reconstruction; under every other plant the guard fails
        # or the head is not one run, and it is stepped
        assert powers == [300] * 2


# the text of the coprimality error, at every kernel entry
COPRIME_MESSAGE = "numerator and denominator must be coprime, got gcd = {}"



class TestReadsAreCertified:
    """The kernel's entry run and head_analysis read vp(Q) and vp(n) off the low end
    (exactarith.vp_read) and keep a read only where an exact identity certifies it: an exact
    pair prime to p from _run_pair (the converse of lemma (v)), or lemma (vi)'s identity.  Each
    read planted below is wrong; each call must still give the single-step replay's record, or
    the report that exact valuations alone give."""

    @staticmethod
    def plant_run(monkeypatch, alpha, run):
        # vp_read planted to read alpha*run + 1, from which the kernel takes a run of run steps
        monkeypatch.setattr(schneider, "vp_read", lambda n, p: alpha * run + 1)

    @staticmethod
    def plant_shift(monkeypatch, shift):
        # vp_read planted to read the exact valuation plus shift
        monkeypatch.setattr(schneider, "vp_read", lambda n, p: vp_split(n, p)[0] + shift)

    @staticmethod
    def lemma_run(a, b, digit, alpha, p):
        # the run lemma (v) reads off the exact vp(Q): the whole run, or all of it but its last step
        return (vp_split(norm_form(a, b, digit, alpha, p), p)[0] - 1) // alpha

    @staticmethod
    def whole_run(a, b, digit, alpha, p):
        # the steps (digit, alpha) the single-step replay takes from (a, b) before any other
        steps = reference_schneider(a, b, p)[0]
        return next((i for i, step in enumerate(steps) if step != (digit, alpha)), len(steps))

    @staticmethod
    def heads(p):
        # (digit, alpha, a, b): constant heads of 301 steps, and the same heads over random tails
        rng = random.Random(p + 17)
        out = []
        for digit, alpha in ((1, 1), (1, 2), (2, 1) if p > 3 else (1, 3)):
            out.append((digit, alpha, *constant_head_product(digit, alpha, 300, p)))
            out.append((digit, alpha, *head_over_tail([(digit, alpha)] * 301, random_pair(rng, 30, p), p)))
        return out

    @pytest.mark.parametrize("p", (3, 7, 101, 10**9 + 7))
    def test_a_read_one_step_long_takes_the_exact_run(self, p, monkeypatch, powers):
        # a read one step past the whole run (v + alpha where lemma (v) reads it whole): the
        # division by (-p**alpha)**(r+1) is inexact, so no pair is found and the exact
        # valuation's run is taken.  (v + alpha where lemma (v) reads all but the last step is
        # the whole run, exact and prime to p, and kept: the heads ending in (1, -1) below)
        kept = 0
        for digit, alpha, a, b in self.heads(p):
            whole, run = self.whole_run(a, b, digit, alpha, p), self.lemma_run(a, b, digit, alpha, p)
            self.plant_run(monkeypatch, alpha, whole + 1)
            powers.clear()
            exp = assert_schneider_matches(a, b, p)
            assert powers == [whole + 1, run], (p, digit, alpha, powers)
            assert exp.steps[:301] == ((digit, alpha),) * 301
            if run < whole:
                self.plant_shift(monkeypatch, alpha)
                powers.clear()
                assert_schneider_matches(a, b, p)
                assert powers == [whole], (p, digit, alpha, powers)
                kept += 1
        assert kept

    @pytest.mark.parametrize("p", (3, 7, 101, 10**9 + 7))
    def test_a_read_one_step_short_leaves_the_last_to_the_loop(self, p, monkeypatch, powers):
        # a read one step short of the whole run, and v - alpha: that run is certified (every
        # step of it is (d, alpha)) and kept, and the steps it leaves are taken by the batches or
        # the single-step loop
        for digit, alpha, a, b in self.heads(p):
            whole, run = self.whole_run(a, b, digit, alpha, p), self.lemma_run(a, b, digit, alpha, p)
            self.plant_run(monkeypatch, alpha, whole - 1)
            powers.clear()
            assert_schneider_matches(a, b, p)
            assert powers == [whole - 1], (p, digit, alpha, powers)
            self.plant_shift(monkeypatch, -alpha)
            powers.clear()
            assert_schneider_matches(a, b, p)
            assert powers == [run - 1], (p, digit, alpha, powers)

    @pytest.mark.parametrize("p", (3, 7, 101))
    def test_a_read_past_a_deeper_step_is_not_prime_to_p(self, p, monkeypatch, powers):
        # a head of 300 steps (d, alpha), then (d, alpha + 1): the true run is 300, and a read one
        # step past it divides exactly, but to a pair (x, y) with p | y, so the run is refused and
        # the exact run taken
        rng = random.Random(p + 19)
        pairs = []
        run_pair = schneider._run_pair
        monkeypatch.setattr(schneider, "_run_pair", lambda *args: pairs.append(run_pair(*args)) or pairs[-1])
        for digit, alpha in ((1, 1), (2, 1), (1, 2)):
            head = [(digit, alpha)] * 300 + [(digit, alpha + 1)]
            a, b = head_over_tail(head, random_pair(rng, 30, p), p)
            assert self.lemma_run(a, b, digit, alpha, p) == self.whole_run(a, b, digit, alpha, p) == 300
            self.plant_run(monkeypatch, alpha, 301)
            powers.clear()
            pairs.clear()
            exp = assert_schneider_matches(a, b, p)
            assert exp.steps[:301] == tuple(head)
            assert powers == [301, 300], (p, digit, alpha, powers)
            (x, y), reached = pairs
            assert x % p and y % p == 0 and reached[1] % p, (p, digit, alpha)

    @pytest.mark.parametrize("p", (3, 7, 101, 10**9 + 7))
    def test_a_wrong_read_gives_the_exact_head_report(self, p, monkeypatch):
        # head_analysis on constant heads and on heads over tails, with vp(n) read right, off by
        # one either way, off by alpha either way, and not read: the report of vp_split alone
        for digit, alpha, a, b in self.heads(p):
            monkeypatch.setattr(schneider, "vp_read", lambda n, p: None)
            exact = head_analysis(a, b, None, None, p)
            assert exact.exact_identity == (b == constant_head_product(digit, alpha, 300, p)[1])
            for shift in (0, 1, -1, alpha, -alpha):
                self.plant_shift(monkeypatch, shift)
                assert head_analysis(a, b, None, None, p) == exact, (p, digit, alpha, shift)
                assert head_analysis(a, b, digit, alpha, p) == exact, (p, digit, alpha, shift)

    def test_long_heads_take_no_full_size_valuation(self, monkeypatch):
        # at the benchmark's 12 head triples, heads of k >= 796: neither expand-schneider --json nor
        # head --json calls vp_split on the kernel's form Q or on head_analysis' n, whose reads
        # the run's pair and the identity certify
        from test_schneider import BENCHMARK_HEAD_TRIPLES

        seen = []
        for module in (schneider, exactarith):
            split = module.vp_split
            monkeypatch.setattr(module, "vp_split", lambda n, p, split=split: seen.append(n) or split(n, p))
        for digit, alpha, p in BENCHMARK_HEAD_TRIPLES:
            for k in (796, 1300, 2000):
                a, b = generate_constant_head(digit, alpha, k, p)
                report = head_analysis(a, b, None, None, p)
                for command in ("expand-schneider", "head"):
                    seen.clear()
                    with contextlib.redirect_stdout(io.StringIO()) as out:
                        assert cli.main([command, "-p", str(p), "--json", "--", f"{a}/{b}"]) == 0
                    assert seen and json.loads(out.getvalue())
                    assert norm_form(a, b, digit, alpha, p) not in seen and report.n not in seen, (digit, alpha, p, k)


class TestLowestTermsAtTheEntryRun:
    """Lemma (vii) of the schneider module: above the batch bound the kernel checks lowest
    terms on the pair its entry run reaches, whose gcd is that of (a, b), so the error names
    the gcd a check at (a, b) names, and it comes before any batch."""

    @staticmethod
    def scaled_inputs(p):
        # a constant head and a random input above the bound, each scaled by 5 and by a g
        # prime to p above 2**960: (g*a, g*b, g, the pair reached by the entry run or None)
        rng = random.Random(p)
        big = (1 << 961) + 1
        while big % p == 0:
            big += 2
        head, tail = generate_constant_head(1, 2, 1000, p), (p * p - 1, 1)  # +-M (1, -1)
        out = []
        for g in (5, big):
            out.append((g * head[0], g * head[1], g, (g * tail[0], g * tail[1])))
            a, b = random_pair(rng, 400, p)
            out.append((g * a, g * b, g, None))
        return out

    @pytest.mark.parametrize("p", (3, 7, 101, 65537))
    def test_the_error_names_the_inputs_gcd(self, p, monkeypatch):
        checked = []
        require = schneider.require_coprime
        monkeypatch.setattr(schneider, "require_coprime", lambda x, y: checked.append((x, y)) or require(x, y))
        for a, b, g, reached in self.scaled_inputs(p):
            assert min(abs(a), b).bit_length() > 2 * schneider._BATCH_WIDTH
            checked.clear()
            with pytest.raises(ValueError) as caught:
                schneider_expand(a, b, p)
            assert str(caught.value) == COPRIME_MESSAGE.format(g)
            # a head is checked on the small pair its run reached, a random input at (a, b)
            assert [(abs(x), abs(y)) for x, y in checked] == [tuple(map(abs, reached or (a, b)))]

    @pytest.mark.parametrize("p", (3, 5, 101, 65537))
    def test_a_finite_end_at_the_input_names_its_gcd(self, p):
        # a/b = d*b/b, d in 1..p-1, leaves a - d*b = 0 at the input pair: no run is taken and the
        # error names gcd = b, below the run gate, between it and the batch bound, and above both
        gate, bound = schneider._RUN_GATE, 2 * schneider._BATCH_WIDTH
        dens = [7**20 + 2, 7**400 + 2] if p == 5 else []  # 57 and 1,123 bits
        for bits in (gate // 2, gate + 1, (gate + bound) // 2, bound + 1, 2 * bound):
            b = (1 << bits) + 1
            while b % p == 0:
                b += 2
            dens.append(b)
        for b in dens:
            for digit in {1, 2, (p + 1) // 2, p - 1}:
                with pytest.raises(ValueError) as caught:
                    schneider_expand(digit * b, b, p)
                assert str(caught.value) == COPRIME_MESSAGE.format(b), (p, digit, b.bit_length())

    def test_the_check_comes_before_any_batch(self, monkeypatch):
        def planted(*args):
            raise AssertionError("a batch ran")

        monkeypatch.setattr(schneider, "_batches", planted)
        for p in (3, 7, 101):
            for a, b, g, _ in self.scaled_inputs(p):
                with pytest.raises(ValueError) as caught:
                    schneider_expand(a, b, p)
                assert str(caught.value) == COPRIME_MESSAGE.format(g)
            with pytest.raises(AssertionError, match="a batch ran"):  # the plant is live
                schneider_expand(a // g, b // g, p)

    def test_expand_schneider_exits_2(self, monkeypatch, capsys):
        # the kernel's error is the command's usage error where the CLI's rerun rule is planted
        # off; with the rule, the scaled pair runs again, reduced, and prints the reduced record
        reduced = cli._reduced
        for a, b, g, _ in self.scaled_inputs(7):
            argv = ["expand-schneider", "-p", "7", "--json", "--"]
            monkeypatch.setattr(cli, "_reduced", lambda args: False)
            with pytest.raises(SystemExit) as caught:
                cli.main(argv + [f"{a}/{b}"])
            assert caught.value.code == 2
            out, err = capsys.readouterr()
            assert out == "" and err.endswith(f"error: {COPRIME_MESSAGE.format(g)}\n")
            monkeypatch.setattr(cli, "_reduced", reduced)
            assert cli.main(argv + [f"{a}/{b}"]) == 0
            scaled = capsys.readouterr()
            assert cli.main(argv + [f"{a // g}/{b // g}"]) == 0
            assert scaled == capsys.readouterr() and scaled.err == ""
