"""A seeded corpus of in-process CLI calls, hashed: outputs that must not change.

About 1,000 calls of `verify` and of `expand-browkin` and `expand-schneider` in
text and `--json`, at p in {3, 5, 7, 11, 101, 10**9+7}, on random inputs of 1 to
60 digits with up to p**3 in the denominator, one-step Browkin inputs,
stationary and finite-end Schneider inputs built by reverse steps, inputs with p
in the numerator, and usage errors.  Each call's (exit code, stdout, stderr)
goes into one sha256 per command and mode.  A second digest covers the
verdicts of the three chain checks (majorant, determinant identity, Schneider
matrix laws) on the natural records of the same inputs and on planted ones.

A change that is meant to alter an output updates the digest here and names
the calls in CHANGES.md.
"""

import contextlib
import hashlib
import io
import random
from math import gcd

import pytest

from padic_cf import browkin, oracle, schneider
from padic_cf.cli import main

PRIMES = (3, 5, 7, 11, 101, 10**9 + 7)
MODES = {
    "verify": ("verify", []),
    "expand-browkin text": ("expand-browkin", []),
    "expand-browkin json": ("expand-browkin", ["--json"]),
    "expand-schneider text": ("expand-schneider", []),
    "expand-schneider json": ("expand-schneider", ["--json"]),
}
USAGE_ERRORS = (
    ["-p", "4", "2/5"],  # not a prime
    ["-p", "3", "0"],  # zero
    ["-p", "3", "1/0"],
    ["-p", "3", "abc"],
    ["2/5"],  # no -p
    ["-p", "3", "-5/7"],  # a negative rational without '--'
    ["-p", "3", "2/5", "extra"],
    ["-p", "3", "--", "2/9"],  # p in the denominator: a Schneider usage error only
    ["-p", "5", "--", "-10/3"],  # p in the numerator: likewise
)


def _reverse(rng, p, y_prev, y_cur):
    # (a, b) whose forward expansion steps back to the pair (y_prev, y_cur), by reverse
    # Schneider steps y_{m-1} = b_m*y_m + p**alpha_m*y_{m+1}, stopped near 60 digits
    for _ in range(rng.randint(1, 12)):
        digit, alpha = rng.randrange(1, p), rng.randint(1, 3)
        if len(str(digit * y_prev + p**alpha * y_cur)) > 60:
            break
        y_prev, y_cur = digit * y_prev + p**alpha * y_cur, y_prev
    return (y_prev, y_cur) if y_cur > 0 else (-y_prev, -y_cur)


def _inputs():
    # (p, a, b) per input class, gcd(a, b) = 1 and b > 0
    rng = random.Random(30)
    out = []
    for p in PRIMES:
        for i in range(22):  # random, 1 to 60 digits, k0 <= 3 and 0 in every other one
            digits = rng.randint(1, 60)
            while True:
                a = rng.randrange(1, 10**digits) * rng.choice((-1, 1))
                b = rng.randrange(1, 10 ** rng.randint(1, digits)) * p ** (i % 2 * rng.randint(1, 3))
                if gcd(a, b) == 1 and len(str(b)) <= 60:
                    break
            out.append((p, a, b))
        for k0 in range(4):  # one Browkin step: x / p**k0 with 2|x| < p**(1+k0)
            half = p ** (1 + k0) // 2
            x = rng.randrange(1, half + 1) * rng.choice((-1, 1))
            if k0 == 0 or x % p:
                out.append((p, x, p**k0))
        for _ in range(4):  # stationary from (1, -1), finite from (d, 1)
            out.append((p, *_reverse(rng, p, 1, -1)))
            out.append((p, *_reverse(rng, p, rng.randrange(1, p), 1)))
        out.append((p, -1, 1))  # stationary at once
        out.append((p, p - 1, 1))  # a finite end at once
        for _ in range(2):  # p in the numerator
            a = p * rng.randrange(1, 10**20) * rng.choice((-1, 1))
            b = rng.randrange(1, 10**20)
            while gcd(a, b) != 1:
                b += 1
            out.append((p, a, b))
    return out


INPUTS = _inputs()


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # a usage error
            code = exc.code
    return f"{argv}\nexit {code}\n{out.getvalue()}\n--\n{err.getvalue()}\n==\n".encode()


def test_corpus_inputs_cover_every_class():
    assert len(INPUTS) * len(MODES) + len(USAGE_ERRORS) * len(MODES) >= 1000
    assert max(len(str(abs(a))) for _, a, _ in INPUTS) == 60
    lengths = [len(browkin.browkin_expand(a, b, p).steps) for p, a, b in INPUTS]
    assert lengths.count(1) >= 4 * len(PRIMES)
    tails = [
        schneider.schneider_expand(a, b, p).finite_end
        for p, a, b in INPUTS if a % p and b % p
    ]
    assert tails.count(True) >= 4 * len(PRIMES) and tails.count(False) >= 4 * len(PRIMES)


CORPUS_DIGESTS = {
    "verify": "9c89850648322564f1c263054daf4ef816515ec90d279d48e0fcf6b9f8eccfe4",
    "expand-browkin text": "0ce4a72243b7a26f54eceea0c767933e4ce4f026a69a1cf41209b27587a38558",
    "expand-browkin json": "7948eb7d08458bc804cf634541d36c20ff73c054bb24d340eca6a89732339f8a",
    "expand-schneider text": "269b29274931e3d4b3ce03f4037ba733db6953e08a8988df9954cae9e858a196",
    "expand-schneider json": "8fa2f5ee9cbdd699c3812e0f4a333637f5d0a507e98e900fa2a695f792065c19",
}


@pytest.mark.parametrize("mode", MODES)
def test_corpus_outputs_are_pinned(mode):
    command, flags = MODES[mode]
    digest = hashlib.sha256()
    for p, a, b in INPUTS:
        digest.update(_call([command, "-p", str(p), *flags, "--", f"{a}/{b}"]))
    for argv in USAGE_ERRORS:
        digest.update(_call([command, *flags, *argv]))
    assert digest.hexdigest() == CORPUS_DIGESTS[mode]


def _browkin_plants(expansion):
    # (name, record): the natural record and records it does not describe
    p, steps = expansion.p, expansion.steps
    *head, (k, x) = steps
    yield "natural", expansion
    for n in sorted({0, len(steps) // 2, len(steps) - 1}):
        k_n, x_n = steps[n]
        for name, step in (("x+1", (k_n, x_n + 1)), ("x-1", (k_n, x_n - 1)), ("k+1", (k_n + 1, x_n))):
            changed = steps[:n] + (browkin.BrowkinStep(*step),) + steps[n + 1:]
            yield f"{name}@{n}", expansion._replace(steps=changed)
    yield "alpha+1", expansion._replace(alpha=expansion.alpha + 1)
    yield "last dropped", expansion._replace(steps=steps[:-1])
    split = (browkin.BrowkinStep(k, x - p**k), browkin.BrowkinStep(0, 1))
    yield "split last", expansion._replace(steps=(*head, *split))


def _schneider_plants(expansion):
    p, steps = expansion.p, expansion.steps
    num, den = expansion.tail
    yield "natural", expansion
    yield "wrong tail", expansion._replace(tail=(num + 1, den))
    if not steps:
        return
    for n in sorted({0, len(steps) // 2, len(steps) - 1}):
        digit, alpha = steps[n]
        for name, step in (("digit+1", (digit + 1, alpha)), ("digit-1", (digit - 1, alpha)),
                           ("alpha+1", (digit, alpha + 1)), ("alpha-1", (digit, alpha - 1))):
            changed = steps[:n] + (schneider.SchneiderStep(*step),) + steps[n + 1:]
            yield f"{name}@{n}", expansion._replace(steps=changed)
    *head, (digit, alpha) = steps
    deeper = (*head, schneider.SchneiderStep(digit, alpha + 1))
    yield "deeper last", expansion._replace(steps=deeper, tail=(p * num, den))
    yield "last dropped", expansion._replace(steps=steps[:-1])


def test_chain_check_verdicts_are_pinned():
    digest, failed = hashlib.sha256(), 0
    for p, a, b in INPUTS:
        for name, record in _browkin_plants(browkin.browkin_expand(a, b, p)):
            verdicts = (oracle.majorant(record).ok, oracle.determinant_identity(a, b, record).ok)
            digest.update(f"{p} {a}/{b} browkin {name} {verdicts}\n".encode())
            failed += name != "natural" and not all(verdicts)
        if a % p and b % p:
            for name, record in _schneider_plants(schneider.schneider_expand(a, b, p)):
                ok = oracle.schneider_matrix_laws(a, b, record).ok
                digest.update(f"{p} {a}/{b} schneider {name} {ok}\n".encode())
                failed += name != "natural" and not ok
    assert failed > 1000
    assert digest.hexdigest() == "6a7c996450c2ebc740d3b3ba1a80361ccac0640afe92b492bf58364a1febd4fe"
