"""The two expansion kernels against plain single-step references.

Each reference is its module docstring's recurrence, one full-size step at a
time, with a pow call for every inverse and no table, carried residue or
batch.  The kernels carry residues from step to step, keep a dict of
inverses (and, for Schneider, of step records) for each expansion and, for
Schneider above a bound, step in batches on residues mod p**K: every such
shortcut must give the reference's steps exactly, its tail markers included.
A Browkin step records (k, x) alone, so the reference's beta_n are checked
against the betas replayed from the record (tests/replay.py).
"""

import random
from math import gcd

import pytest

from padic_cf import schneider
from padic_cf.browkin import browkin_expand
from padic_cf.schneider import generate_constant_head, schneider_expand

from replay import beta_trace, k_trace

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
        # finite and stationary expansions: steps+1 lookups at most, but the one past the
        # last step, at a finite end, is for y = +-1, so at most min(p-3, steps) pow calls,
        # as the module docstring states; (p+2)/2, a finite end after one step, reaches it
        calls = []
        monkeypatch.setattr(schneider, "pow", lambda *args: calls.append(args) or pow(*args),
                            raising=False)
        rng = random.Random(61)
        inputs = [random_pair(rng, 40, p) for _ in range(40)] + [(1, p + 1), (p - 1, 1), (-1, 1)]
        reached = False
        for a, b in inputs + [(p + 2, 2)]:
            calls.clear()
            exp = schneider_expand(a, b, p)
            assert len(calls) == len(set(calls)) <= min(p - 3, len(exp.steps))
            reached |= exp.finite_end and len(calls) == len(exp.steps) > 0
        assert reached

    def test_equal_steps_share_one_record(self):
        # one SchneiderStep object per distinct (digit, alpha) of an expansion with 2p < bits,
        # in the single-step loop and the batches alike
        rng = random.Random(67)
        inputs = [(*random_pair(rng, 300, p), p) for p in (3, 7, 101)]
        a, b = random_pair(rng, 3000, 3)
        assert min(abs(a), b).bit_length() > 2 * schneider._BATCH_WIDTH
        inputs += [(a, b, 3), (*generate_constant_head(1, 2, 300, 5), 5), (-1, 1, 3)]
        for a, b, p in inputs:
            exp = schneider_expand(a, b, p)
            assert all(type(s) is schneider.SchneiderStep for s in exp.steps), (a, b, p)
            assert len({id(s) for s in exp.steps}) == len(set(exp.steps)), (a, b, p)
