"""A seeded corpus of in-process CLI calls, hashed: outputs that must not change.

About 1,000 calls of `verify` and of `expand-browkin` and `expand-schneider` in
text and `--json`, at p in {3, 5, 7, 11, 101, 10**9+7}, on random inputs of 1 to
60 digits with up to p**3 in the denominator, one-step Browkin inputs,
stationary and finite-end Schneider inputs built by reverse steps, inputs with p
in the numerator, and usage errors.  Each call's (exit code, stdout, stderr)
goes into one sha256 per command and mode.  `digits`, `bound` and `head`, in
text and `--json`, have digests of their own (MORE_DIGESTS), and so do constant
Schneider heads of 64 to 2,001 records through `expand-schneider` and `head`,
and `sweep` grids (SWEEP_CALLS) on stdout and through `--out`.  A second digest covers the
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


def _digits_calls(flags):
    # digits -n 1..80 on rationals with p-free denominators below 10**4 (short period
    # searches), p**0..p**3 in either part, and one 60-digit corpus input per prime, whose
    # period search stops at DIGIT_PERIOD_LIMIT
    rng = random.Random(36)
    calls = []
    for p in PRIMES:
        for i in range(12):
            while True:
                a = rng.randrange(1, 10 ** rng.randint(1, 30)) * rng.choice((-1, 1)) * p ** (i % 4 == 1)
                b = rng.randrange(1, 10**4) * p ** ((i % 4 == 3) * rng.randint(1, 3))
                if gcd(a, b) == 1:
                    break
            calls.append(["-p", str(p), "-n", str(rng.randint(1, 80)), *flags, "--", f"{a}/{b}"])
        a, b = next((a, b) for q, a, b in INPUTS if q == p and len(str(b)) >= 20)
        calls.append(["-p", str(p), "-n", "40", *flags, "--", f"{a}/{b}"])
    usage = (["-p", "3", "-n", "0", "2/5"], ["-p", "3", "-n", "100001", "2/5"], ["-p", "3", "2/5"])
    return calls + [[*argv[:-1], *flags, argv[-1]] for argv in usage]


def _bound_calls(flags):
    # bound on every corpus input, and on --beta0/--beta1 pairs from 1 to 40 digits
    rng = random.Random(37)
    calls = [["-p", str(p), *flags, "--", f"{a}/{b}"] for p, a, b in INPUTS]
    for p in PRIMES:
        for _ in range(8):
            beta0, beta1 = rng.randrange(1, 10 ** rng.randint(1, 40)), rng.randrange(0, 10 ** rng.randint(1, 40))
            calls.append(["-p", str(p), "--beta0", str(beta0), "--beta1", str(beta1), *flags])
    usage = (["-p", "3"], ["-p", "3", "--beta0", "5"], ["-p", "3", "--beta0", "5", "--beta1", "2", "2/5"])
    return calls + [[*argv, *flags] for argv in usage]


# constant heads (digit, alpha) repeated k+1 times: each whole expansion one run of one
# step, from 64 records to 2,001, every one above the kernel's run gate (_RUN_GATE, 64 bits)
# and the longer ones above its 960-bit batch bound
CONSTANT_HEADS = [
    (digit, alpha, k, p)
    for p, pairs, ks in (
        (3, ((1, 1), (1, 2), (2, 3)), (63, 64, 299, 2000)),
        (7, ((1, 1), (3, 3), (6, 2)), (63, 64, 299, 2000)),
        (101, ((1, 1), (2, 1), (100, 2)), (63, 299)),
        (10**9 + 7, ((1, 1), (5, 2)), (63, 99)),
    )
    for digit, alpha in pairs
    for k in ks
]


# shorter constant heads on both sides of the run gate, at 21 records and fewer than 64 (so
# schneider_pair steps them level by level)
GATE_HEADS = [
    (digit, alpha, k, p)
    for p, pairs, ks in (
        (3, ((1, 1),), (20, 50, 60)),
        (7, ((1, 1), (3, 3)), (20, 45)),
        (101, ((1, 1), (100, 2)), (4, 8, 11)),
        (65537, ((1, 1),), (2, 3, 6)),
    )
    for digit, alpha in pairs
    for k in ks
]


def _gate_head_calls(command, flags):
    calls = []
    for digit, alpha, k, p in GATE_HEADS:
        a, b = schneider.generate_constant_head(digit, alpha, k, p)
        calls.append(["-p", str(p), *flags, "--", f"{a}/{b}"])
        if command == "head":
            calls.append(["-p", str(p), "--digit", str(digit), "--exponent", str(alpha), *flags, "--", f"{a}/{b}"])
    return calls


def _head_calls(flags):
    # head on the corpus inputs (most have no constant head to measure: a usage error), on
    # the constant heads, and on the heads with --digit and --exponent, right and wrong
    calls = [["-p", str(p), *flags, "--", f"{a}/{b}"] for p, a, b in INPUTS]
    for digit, alpha, k, p in CONSTANT_HEADS:
        a, b = schneider.generate_constant_head(digit, alpha, k, p)
        calls.append(["-p", str(p), *flags, "--", f"{a}/{b}"])
        calls.append(["-p", str(p), "--digit", str(digit), "--exponent", str(alpha), *flags, "--", f"{a}/{b}"])
        calls.append(["-p", str(p), "--exponent", str(alpha + 1), *flags, "--", f"{a}/{b}"])
    return calls


def _head_expand_calls(flags):
    calls = []
    for digit, alpha, k, p in CONSTANT_HEADS:
        a, b = schneider.generate_constant_head(digit, alpha, k, p)
        calls.append(["-p", str(p), *flags, "--", f"{a}/{b}"])
    return calls


MORE_MODES = {
    "digits text": ("digits", lambda: _digits_calls([])),
    "digits json": ("digits", lambda: _digits_calls(["--json"])),
    "bound text": ("bound", lambda: _bound_calls([])),
    "bound json": ("bound", lambda: _bound_calls(["--json"])),
    "head text": ("head", lambda: _head_calls([])),
    "head json": ("head", lambda: _head_calls(["--json"])),
    "constant heads expand-schneider text": ("expand-schneider", lambda: _head_expand_calls([])),
    "constant heads expand-schneider json": ("expand-schneider", lambda: _head_expand_calls(["--json"])),
    "gate heads head json": ("head", lambda: _gate_head_calls("head", ["--json"])),
    "gate heads expand-schneider json": ("expand-schneider", lambda: _gate_head_calls("expand-schneider", ["--json"])),
}

MORE_DIGESTS = {
    "digits text": "b79bce0641498559fe2c501ab110c0b3f7e5a79ed10497af60906a30c35ae97f",
    "digits json": "ed147340b44ea263d483fb3b4e89b62076275d6a4f7b1b8e40dcebddc9bc8707",
    "bound text": "f5ca0de6f91cbb0069548c5db98b9a2894bff285e6c0456c1e089ca1d2b7a9ba",
    "bound json": "e9bfab5501d1d5911e6e91945094f9bc766a1f866518e8957881bcf564ec23a2",
    "head text": "632e7478bc75267fa3c501195a12c6e3ae3ae6c5dfaba04de3ef5044864b8e01",
    "head json": "dde8cedac1a5a549ec6ab25811935fcda6e17d36ef492270d38a1c770f1bc4fb",
    "constant heads expand-schneider text": "4498518a204a959e72e90a8ecce0a03a537d2348d52fe2ba5b1480a26c6bcf35",
    "constant heads expand-schneider json": "178acccb5c429dc06f2351b0d3aa05f01e865f26a1a9465d59cec85c67aa83c0",
    "gate heads head json": "cdcb01c99098da7c9cd7a2383676dd4462535c0a2bcac4c9f9b84c492486d7ed",
    "gate heads expand-schneider json": "f1d04be473d17653977bd640058eb0cb39db231ed9264612e9c5d6bdec536d8b",
}


def test_constant_heads_span_the_entry_bound():
    # the corpus's constant heads span the run gate (the gate heads with them) and the batch bound
    lengths, above_gate, above_batch = [], 0, 0
    for digit, alpha, k, p in CONSTANT_HEADS + GATE_HEADS:
        a, b = schneider.generate_constant_head(digit, alpha, k, p)
        steps = schneider.schneider_expand(a, b, p).steps
        assert steps.count(steps[0]) == len(steps) == k + 1
        lengths.append(len(steps))
        above_gate += min(abs(a), b).bit_length() > schneider._RUN_GATE
        above_batch += min(abs(a), b).bit_length() > 2 * schneider._BATCH_WIDTH
    head_lengths = lengths[:len(CONSTANT_HEADS)]
    assert min(head_lengths) == 64 and max(head_lengths) == 2001 and 0 < above_batch < len(head_lengths)
    assert 0 < above_gate - len(CONSTANT_HEADS) < len(GATE_HEADS)


@pytest.mark.parametrize("mode", MORE_MODES)
def test_more_outputs_are_pinned(mode):
    command, calls = MORE_MODES[mode]
    digest = hashlib.sha256()
    for argv in calls():
        digest.update(_call([command, *argv]))
    assert digest.hexdigest() == MORE_DIGESTS[mode]


# sweep grids: several prime sets (unsorted and repeated ones among them), 101, 65537 and
# 10**9+7, asymmetric ranges, p | a and p | b rows, |a| past 1,024, and usage errors
SWEEP_CALLS = (
    ["--primes", "3,5,7", "--max-num", "40", "--max-den", "9"],
    ["--primes", "101", "--max-num", "320", "--max-den", "4"],
    ["--primes", "101,103", "--max-num", "3", "--max-den", "210"],
    ["--primes", "1000000007,3", "--max-num", "12", "--max-den", "25"],
    ["--primes", "11,13", "--max-num", "6", "--max-den", "70"],
    ["--primes", "7,5,7,3", "--max-num", "9", "--max-den", "1"],
    ["--primes", "3", "--max-num", "1500", "--max-den", "2"],
    ["--primes", "65537,101", "--max-num", "1100", "--max-den", "1"],
    ["--primes", "3,9", "--max-num", "5", "--max-den", "5"],
    ["--primes", "3", "--max-num", "0", "--max-den", "5"],
)

SWEEP_DIGESTS = {
    "stdout": "b58c83e26d386b3c0579c7895fcba587219f76b661e91d036d325fc12a8c3f76",
    "out": "c74aa8028cf46a978e734f7deeebc22de1e0178eebdad369f8ade5123cb3b39d",
}


@pytest.mark.parametrize("mode", SWEEP_DIGESTS)
def test_sweep_outputs_are_pinned(mode, tmp_path):
    # each call's exit code, stdout and stderr (the summary line or the usage error), and
    # with --out the file it wrote; the temporary path is hashed as OUT
    digest = hashlib.sha256()
    for argv in SWEEP_CALLS:
        if mode == "stdout":
            digest.update(_call(["sweep", *argv]))
            continue
        path = tmp_path / "sweep.csv"
        digest.update(_call(["sweep", *argv, "--out", str(path)]).replace(str(path).encode(), b"OUT"))
        digest.update(path.read_bytes() if path.exists() else b"no file\n")
        path.unlink(missing_ok=True)
    assert digest.hexdigest() == SWEEP_DIGESTS[mode]


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
