"""The integer cores behind the oracle against the Fraction wrappers and
independent Fraction references, on random inputs up to 1,000 digits.

The cores are cf_pair and schneider_pair (back-substitution to an unreduced
pair) and convergent_triples (convergents scaled by D_n, yielded one prefix
at a time).  The public cf_evaluate, schneider_evaluate and
browkin_convergents wrap them and keep their Fraction results.  The oracle
checks the majorant one step at a time; the global statement, every
|beta_i| <= theta_i of theta_sequence, is tested here.  Its determinant
identity walks the beta chain and builds no convergent; the error identity
that ties the two, proved in the oracle module docstring, is tested here
against convergent_triples and the replayed betas.
"""

import contextlib
import hashlib
import io
import random
from fractions import Fraction
from math import gcd

from padic_cf import browkin_bound, browkin_expand, oracle
from padic_cf.browkin import Convergent, browkin_convergents, cf_evaluate, cf_pair, convergent_triples, theta_sequence
from padic_cf.cli import main
from padic_cf.schneider import schneider_evaluate, schneider_expand, schneider_pair

from replay import beta1_abs, beta_trace, k_trace, quotient_pairs

PRIMES = (3, 7, 101, 10**9 + 7)
DIGITS = (1, 40, 300, 1000)


def _inputs():
    # (p, a, b, digits), gcd(a, b) = 1, b > 0; the 1- and 300-digit ones put p**j into b
    rng = random.Random(2024)
    out = []
    for p in PRIMES:
        for i, digits in enumerate(DIGITS):
            while True:
                a = rng.randrange(1, 10**digits) * rng.choice((-1, 1))
                b = rng.randrange(1, 10**digits)
                if i % 2 == 0:
                    b *= p ** rng.randrange(1, 4)
                if gcd(a, b) == 1:
                    break
            out.append((p, a, b, digits))
    return out


INPUTS = _inputs()


def _reference_convergents(quotients):
    # the recurrence p_n = a_n p_{n-1} + p_{n-2} on Fractions, as it was computed before
    p_prev, q_prev = Fraction(1), Fraction(0)
    p_cur, q_cur = quotients[0], Fraction(1)
    out = [(p_cur, q_cur)]
    for a in quotients[1:]:
        p_cur, p_prev = a * p_cur + p_prev, p_cur
        q_cur, q_prev = a * q_cur + q_prev, q_cur
        out.append((p_cur, q_cur))
    return out


def _reference_theta(beta0_abs, beta1_abs, p, n):
    # theta_i * (2p**2)**i as integers: T_0 = |beta_0|, T_1 = 2p**2 |beta_1|,
    # T_{i+1} = p**2 T_i + 4p**2 T_{i-1}
    pp = p * p
    seq = [beta0_abs, 2 * pp * beta1_abs]
    while len(seq) < n:
        seq.append(pp * seq[-1] + 4 * pp * seq[-2])
    return [Fraction(t, (2 * pp) ** i) for i, t in enumerate(seq)]


def test_reconstruction_cores_agree_with_the_wrappers():
    for p, a, b, _ in INPUTS:
        r = Fraction(a, b)
        exp = browkin_expand(a, b, p)
        assert Fraction(exp.alpha, exp.beta0 * p ** exp.steps[0].k) == r
        num, den = cf_pair(exp.steps, p)
        assert den != 0 and num * b == den * a
        assert Fraction(num, den) == cf_evaluate(quotient_pairs(exp)) == r
        if a % p and b % p:
            sexp = schneider_expand(a, b, p)
            num, den = schneider_pair(sexp.steps, sexp.tail, p)
            assert den != 0 and num * b == den * a
            assert Fraction(num, den) == schneider_evaluate(sexp.steps, sexp.tail, p) == r


def test_convergent_and_theta_cores_agree_with_fraction_references():
    # the Fraction references slow down with steps * bits of p: they run where
    # that product is at most 3000 (12 of the 16 inputs, 1,000 digits at p = 3);
    # at 1,000 digits and p = 10**9+7 they alone take over 10 s
    for p, a, b, _ in INPUTS:
        exp = browkin_expand(a, b, p)
        if len(exp.steps) * p.bit_length() > 3000:
            continue
        reference = _reference_convergents([Fraction(x, den) for x, den in quotient_pairs(exp)])
        triples = list(convergent_triples(quotient_pairs(exp)))
        assert [(Fraction(pn, d), Fraction(qn, d)) for pn, qn, d in triples] == reference
        assert browkin_convergents(quotient_pairs(exp)) == [Convergent(pn, qn, pn / qn) for pn, qn in reference]
        assert reference[-1][0] / reference[-1][1] == Fraction(a, b)
        n = len(exp.steps) + 2
        thetas = _reference_theta(exp.beta0, beta1_abs(exp), p, n)
        assert theta_sequence(exp.beta0, beta1_abs(exp), p, n) == thetas


def test_betas_obey_the_step_law_and_the_majorant():
    # the step law the oracle checks, and the global statement it implies:
    # |beta_i| <= theta_i, with theta_0 = beta0 and theta_1 = |beta_1|
    rng = random.Random(16)
    for p in (3, 5, 101, 10**9 + 7):
        for digits in DIGITS:
            while True:
                a = rng.randrange(1, 10**digits) * rng.choice((-1, 1))
                b = rng.randrange(1, 10**digits) * p ** rng.randrange(0, 3)
                if gcd(a, b) == 1:
                    break
            exp = browkin_expand(a, b, p)
            betas = [abs(beta) for beta in beta_trace(exp)]
            assert betas[0] == exp.beta0
            thetas = theta_sequence(exp.beta0, beta1_abs(exp), p, max(2, len(betas)))
            assert all(beta <= theta for beta, theta in zip(betas, thetas)), (p, a, b)
            pp = p * p
            for i in range(2, len(betas)):
                assert 2 * pp * betas[i] <= pp * betas[i - 1] + 2 * betas[i - 2], (p, a, b, i)


def _identity_corpus():
    # (p, a, b): random inputs of 1 to 60 digits with k0 = vp(b) in 0..3, and one-step
    # inputs x/p**k0 with |x| < p**(1+k0)/2, for which a = x0*beta0 at once
    rng = random.Random(27)
    out = []
    for p in (3, 5, 7, 11, 101, 10**9 + 7):
        for _ in range(100):
            digits = rng.randrange(1, 61)
            while True:
                a = rng.randrange(1, 10**digits) * rng.choice((-1, 1))
                b = rng.randrange(1, 10**digits) * p ** rng.randrange(0, 4)
                if gcd(a, b) == 1:
                    break
            out.append((p, a, b))
        for k0 in range(4):
            half = p ** (1 + k0) // 2
            for x in {1, -1, half, -half, rng.randrange(1, half + 1)}:
                if k0 == 0 or x % p:
                    out.append((p, x, p**k0))
    return out


def test_error_identity_ties_the_beta_chain_to_the_convergents():
    # a*Q_n - beta0*p**k0*P_n = (-1)**n * beta_{n+1} * p**(k_0+...+k_{n+1}) * D_n, with
    # beta_{N+1} = 0: what the oracle's determinant identity rests on, checked against
    # the convergents it no longer builds
    corpus = _identity_corpus()
    assert any(len(browkin_expand(a, b, p).steps) == 1 for p, a, b in corpus)
    for p, a, b in corpus:
        exp = browkin_expand(a, b, p)
        betas, ks = [*beta_trace(exp), 0], [*k_trace(exp), 0]
        assert exp.beta0 * p ** ks[0] == b
        for n, (pn, qn, d) in enumerate(convergent_triples(quotient_pairs(exp))):
            scale = p ** sum(ks[:n + 2])
            assert a * qn - exp.beta0 * p ** ks[0] * pn == (-1) ** n * betas[n + 1] * scale * d, (p, a, b, n)
        assert n == len(exp.steps) - 1
        assert oracle.determinant_identity(a, b, exp).ok


def test_bound_and_verify_output_are_pinned():
    # sha256 of every n_bound and of the verify output, computed with the
    # Fraction oracle before the integer cores replaced it.  verify leaves out
    # the 1,000-digit inputs at p = 101 and 10**9+7, as it did when the pin was
    # made (then seconds each, mostly in the Schneider matrix laws' determinants).  The verify
    # pin was moved once since, when the battery added its schneider tail laws line.
    bounds, verified = hashlib.sha256(), hashlib.sha256()
    for p, a, b, digits in INPUTS:
        exp = browkin_expand(a, b, p)
        bounds.update(f"{p} {a}/{b} {browkin_bound(exp.beta0, beta1_abs(exp), p).n_bound}\n".encode())
        if digits > 300 and p > 7:
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["verify", "-p", str(p), "--", f"{a}/{b}"])
        verified.update(f"{p} {a}/{b} exit {code}\n{out.getvalue()}".encode())
    assert bounds.hexdigest() == "a2e16d89b156dbd9e0283c65645be512474b77a6847b7aeb3b1ee45d53f6e8cd"
    assert verified.hexdigest() == "5d2315927f7a024e928f7405174ab3d08b333a29b991a9463d07ff0419557483"
