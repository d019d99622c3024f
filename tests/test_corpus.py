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

The pin table is one statement of each pinned output of the large calls: inputs
of up to 10,000 digits, constant heads of up to 20,001 steps, heads over random
tails and the paths of the low-end read.  Each call runs in process within its
time limit (limited_run) and prints the stdout whose sha256 is in CI_PINS, or
that of the call SAME_AS names, with nothing on stderr; a usage error in
USAGE_PINS exits 2 with its pinned message.  SPELLINGS pairs argv spellings
that print the same bytes, and each of PLANTS (a reverted lambda2 float, a
reworded usage message, swapped head --json keys) fails a pinned call.

A change that is meant to alter an output updates the digest here and names
the calls in CHANGES.md.
"""

import contextlib
import hashlib
import inspect
import io
import random
from math import gcd

import pytest

from padic_cf import browkin, cli, oracle, schneider
from padic_cf.cli import main
from test_argv_fuzz import limited_run, no_digit_limit

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
    "verify": "bc8fbc54f17baae7ae3bdeabb5a6bffabe36c74eea3e4afeaa4b6cb0b26edd57",
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


def _head_over(tail, steps, p):
    # the pair whose Schneider expansion starts with steps and then expands tail, by reverse steps
    for digit, alpha in reversed(steps):
        tail = (digit * tail[0] + p**alpha * tail[1], tail[0])
    return tail


def _tail(seed, digits, p):
    # a seeded random tail: the first pair of digits-digit integers coprime and prime to p
    rng, low = random.Random(seed), 10 ** (digits - 1)
    while True:
        x = (rng.randrange(low, 10 * low), rng.randrange(low, 10 * low))
        if gcd(*x) == 1 and x[0] % p and x[1] % p:
            return x


def _ci_pin_calls():
    # name -> argv of each pinned call; a name is the file its stdout was first pinned as
    head = schneider.generate_constant_head
    large_p = 100000000000000000039
    big = "7" * 5000 + "/" + "2" * 4999 + "3"
    large = "7" * 3000 + "/" + "2" * 2999 + "5"
    # 3**6000 times a cofactor over 7, whose p-free part digits and bound take by vp_split's
    # ladder: 5, inside the 63-bit window of vp_read's low-end read, and a 40-digit c, past it
    rng = random.Random(40)
    c = next(c for c in iter(lambda: rng.randrange(10**39, 10**40), None) if c % 3 and c % 7)
    read, ladder = "%d/7" % (3**6000 * 5), "%d/7" % (3**6000 * c)
    rng = random.Random(400)
    tail400 = (rng.randrange(10**399, 10**400), rng.randrange(10**399, 10**400))
    with no_digit_limit():
        # constant heads: (1,2) of 41 steps at a 67-bit p, where |T2/T1| - 1 is about 1e-20; of
        # 2,001 steps at p = 3, above the batch bound; of 20,001 steps (21,969 characters), which the
        # kernel and the reconstruction each take as one power of its step matrix (lemma (v)); and
        # (1,1) of 10,001 steps at p = 10^9+7 (90,015 characters), where no batch runs: the entry
        # run takes it as one power at the input pair, and head checks lemma (vi) by one power
        head_large_p = "%d/%d" % head(1, 2, 40, large_p)
        long_head = "%d/%d" % head(1, 2, 2000, 3)
        run_head = "%d/%d" % head(1, 2, 20000, 3)
        run_head_1e9 = "%d/%d" % head(1, 1, 10000, 10**9 + 7)
    # a (1,2) head of 301 steps at p = 3 (about 540 bits): between the kernel's run gate and its
    # batch bound, the entry run takes it at the input pair and finds the pair it reaches by exact
    # division from the low end; head decides lemma (vi) by one quotient.  Over a random 400-digit
    # tail the run reaches a 400-digit pair, found at the low-end division's first width
    gate_head = "%d/%d" % head(1, 2, 300, 3)
    gate_run = "%d/%d" % _head_over(tail400, [(1, 2)] * 301, 3)
    calls = {
        # the largest count accepted: its truncation check sums the digits in halves, not by Horner,
        # and its period (1, 1, 0, -1, -1, 0) is certified by the digit period identity
        "digits_1_7.json": ["digits", "-p", "3", "-n", "100000", "--json", "1/7"],
        "digits_read.json": ["digits", "-p", "3", "-n", "8", "--json", read],
        "bound_read.json": ["bound", "-p", "3", "--json", read],
        "digits_ladder.json": ["digits", "-p", "3", "-n", "8", "--json", ladder],
        "bound_ladder.json": ["bound", "-p", "3", "--json", ladder],
        # the display floats are read off integers, lambda2's off -4/(p*(p + sqrt(D))): taken as
        # (p - sqrt(D))/(4p) it cancels to -2.22045e-16 at p = 100000007 and to 0.0 at 10^9+7
        "bound.json": ["bound", "-p", "100000007", "--json", "7/2"],
        "bound_1e9.json": ["bound", "-p", "1000000007", "--json", "7/2"],
        # the exact lambdas in text, printed off p's integers by cli._exact_str: an irrational pair
        # folded from D = 41, and an unfolded 19-digit radicand
        "bound_5.txt": ["bound", "-p", "5", "7/2"],
        "bound_1e9.txt": ["bound", "-p", "1000000007", "7/2"],
        # a 5,000-digit input, about 28,000 Schneider steps, most of them taken in batches: its y
        # trace is the one the matrix laws' chain divided, and the Browkin kernel carries its
        # residues step to step, its betas read off the reconstruction's back-substitution
        "schneider.txt": ["expand-schneider", "-p", "3", big],
        "browkin.json": ["expand-browkin", "-p", "3", "--json", big],
        "browkin.txt": ["expand-browkin", "-p", "3", big],
        # the full battery: on 1,000 digits at p = 3 the Schneider matrix laws on the eps chain; on
        # 3,000 and 10,000 digits at p = 10^9+7 the determinant identity walks the beta chain, with
        # no convergent, at a small multiple of the expansions
        "verify_1000.txt": ["verify", "-p", "3", "7" * 1000 + "/" + "2" * 999 + "5"],
        "verify_3000.txt": ["verify", "-p", "1000000007", large],
        "verify_10000.txt": ["verify", "-p", "1000000007", "7" * 10000 + "/" + "2" * 9999 + "5"],
        # 3,000 digits at p = 10^9+7 through text expand-schneider, with no batches at this p: 7,062
        # steps, each y of the trace divided by the matrix laws before it is printed; through
        # expand-browkin, almost every quotient record distinct, in --json by one "%" over the
        # records, scaled by 3 (browkin_expand's lowest-terms check fails, and the CLI reruns on
        # the reduced pair), in text (6.3 MB) and in --json at p = 101 by one "%" pass keyed by
        # exponent; through both branches of oracle.certified_digits, the text window alone and
        # --json at p = 101, where the period search stops at DIGIT_PERIOD_LIMIT
        "schneider_1e9.txt": ["expand-schneider", "-p", "1000000007", large],
        "browkin_1e9.json": ["expand-browkin", "-p", "1000000007", "--json", large],
        "browkin_1e9_x3.json": ["expand-browkin", "-p", "1000000007", "--json",
                                "/".join(str(3 * int(part)) for part in large.split("/"))],
        "browkin_1e9.txt": ["expand-browkin", "-p", "1000000007", large],
        "browkin_101.json": ["expand-browkin", "-p", "101", "--json", large],
        "digits_large.txt": ["digits", "-p", "3", "-n", "64", large],
        "digits_large_101.json": ["digits", "-p", "101", "-n", "64", "--json", large],
        # head_long.txt: the exact theta, thousands of digits, printed off the report's integers
        "head_large_p.json": ["head", "-p", str(large_p), "--json", head_large_p],
        "head_long.json": ["head", "-p", "3", "--json", long_head],
        "head_long.txt": ["head", "-p", "3", long_head],
        "schneider_run.json": ["expand-schneider", "-p", "3", "--json", run_head],
        "schneider_run_1e9.json": ["expand-schneider", "-p", "1000000007", "--json", run_head_1e9],
        "head_run_1e9.json": ["head", "-p", "1000000007", "--json", run_head_1e9],
        # the (3,3) head of 1,951 steps at p = 7 that expand-schneider takes in
        # test_cli.py::TestInputDigits::test_a_long_head_in_its_spellings
        "head_7.json": ["head", "-p", "7", "--json", "%d/%d" % head(3, 3, 1950, 7)],
        "schneider_gate.json": ["expand-schneider", "-p", "3", "--json", gate_head],
        "head_gate.json": ["head", "-p", "3", "--json", gate_head],
        "schneider_gate_run.json": ["expand-schneider", "-p", "3", "--json", gate_run],
        "head_gate_run.json": ["head", "-p", "3", "--json", gate_run],
        "head_exponent_1000000.txt": ["head", "-p", "3", "--digit", "1", "--exponent", "1000000", "2/5"],
    }
    # a (1,2) head of 1,500 steps over the 400-digit tail, and behind one (2,1) step: the run ends
    # inside the head, and only a whole head of one step is taken as one power, so every level is
    # stepped
    for name, steps in (("lead_run", [(1, 2)] * 1500), ("inner_run", [(2, 1)] + [(1, 2)] * 1500)):
        calls[f"schneider_{name}.json"] = ["expand-schneider", "-p", "3", "--json", "%d/%d" % _head_over(tail400, steps, 3)]
    # a (1,1) head of 2,001 steps at p = 101 over a random tail of 8 digits, and of 20: the entry
    # run's form is 101**2001 times a cofactor of 59 bits, which vp_read reads off the low end and
    # the run's exact pair certifies, and of 139 bits, past the read's window, where vp_split's
    # ladder gives the valuation; head finds no identity on either, so its exact valuation decides
    # head_len null
    for digits in (8, 20):
        tail_head = "%d/%d" % _head_over(_tail(digits, digits, 101), [(1, 1)] * 2001, 101)
        calls[f"schneider_tail_{digits}.json"] = ["expand-schneider", "-p", "101", "--json", tail_head]
        calls[f"head_tail_{digits}.json"] = ["head", "-p", "101", "--json", tail_head]
    # a (1,1) head of 4 steps and one of 8 over a random 60-digit tail at p = 10^9+7, above the run
    # gate: the residue test p**(2 alpha + 1) | Q admits each run, and the entry run takes it
    for length in (4, 8):
        short_run = "%d/%d" % _head_over(_tail(60, 60, 10**9 + 7), [(1, 1)] * length, 10**9 + 7)
        calls[f"schneider_run_{length}_1e9.json"] = ["expand-schneider", "-p", "1000000007", "--json", short_run]
    return calls


@pytest.fixture(scope="module")
def ci_pin_calls():
    return _ci_pin_calls()


# the eight "ok:" lines of verify's full battery on an input prime to p
VERIFY_OK = "db186806380573329d0b87892a940e7463f0410b0021c32e8846ab7bd4ddc49d"

# the sha256 of each pinned call's stdout; each call exits 0 and writes nothing to stderr
CI_PINS = {
    "digits_1_7.json": "1a9acfc9cf4ab491b41734634eb727a2916008cca55c56fbab7dedeab8880e11",
    "digits_read.json": "a3f225865a283c58d1af565c6d92fb08065dabc0654f000e00fc9ff3f177a829",
    "bound_read.json": "01174eb3a2f0c9c6528c44ec2fcb74a12a8c24a3e11e45d52fb87501c1f5825f",
    "digits_ladder.json": "acce6a25f4d08f195e332dfc82f27e368ed48d7399215422a32855421bff9978",
    "bound_ladder.json": "e9931596df22ece3e4293b289d8f4f4467a2ee3ffeb9aff101ab0067e20699a2",
    "head_large_p.json": "237e22e19525605c1db5ac7fb5040018053cd271f3ea27c703666c9ddcf1dc67",
    "bound.json": "0f3ccdb7b198b078e59aee378b518564b299a375989fceb49cca8149881e95ad",
    "bound_1e9.json": "ce23804d500ec3e2f195331e2ffafd9d556cf53bdc62ebd2716bf98cf6288af6",
    "bound_5.txt": "6464f9ce4bbd5be7292a67b395b77c548f72de648d319dff8fa5ab4746025770",
    "bound_1e9.txt": "eca29f4f7b2fb3b88979d606c9a5fbb7ea5b35590613dded0ddae371d547b6e4",
    "schneider.txt": "912f8ca4620499437eaf858c2dfeba7c1bdccaef57b71c6e9e2058a581583000",
    "browkin.json": "fa5c761ed61e159e27d704abbeea3650c5b4197b8bf0519c53212815e6344e92",
    "browkin.txt": "408037ffb758c319399a41aa95cba987129eb3b713397deb873ca8c470831e79",
    "verify_1000.txt": VERIFY_OK,
    "verify_3000.txt": VERIFY_OK,
    "verify_10000.txt": VERIFY_OK,
    "schneider_1e9.txt": "5d4bfe4649df6453724a09121a11e36e0fe9bb7431693028b1dd83b7b8bac889",
    "browkin_1e9.json": "64607e5e286f27137ac08b242426d6b1d199a13ecf54fe23906471081d17330a",
    "browkin_1e9.txt": "8ae8cad7627779a46b9083e76c257b8ab895c111f304a1afe3bbf3e145f73a45",
    "browkin_101.json": "e7b4afe141d3d4201eb824bf6626372521262847ba7723b28ff1f37ceabe0192",
    "digits_large.txt": "975f800378e68921478b43d5ccb331f0b3480b4932afbcec8ccb649584737c78",
    "digits_large_101.json": "697236caf1e9b9fe1c4a95d54ba7f8f6726f886bdcb95c448d89c6feba13d45e",
    "head_long.json": "5f4ec54c513d876c797757b41bd56b4357cecd9814e5f6a4cdbfe0033c9d0b36",
    "head_long.txt": "e0008b64131190451505c072f609234c29d4b23cec493a5eba49309129c64d55",
    "schneider_run.json": "5e742329b395b57203fb96f66e2aa0ae697ef40b1e4361aaae34876d1ad71c57",
    "schneider_run_1e9.json": "ffa5bc4a05162a6abbdbfd59689e20c6d5e8eaa3b05794d5a8beeb49f370ce1e",
    "head_run_1e9.json": "7df747ec35b8a65ecb7394297bcd23bc8fb00e74416c45679fe6e5b622d88ded",
    "head_7.json": "53cdbf2400683d14979247c906553d9e59150963b395c9c593cbe58066ed6097",
    "schneider_gate.json": "eabddf11f36ad989f818381eef63ff8ce1d635d3dfd4a8ddd557bac2c438290b",
    "head_gate.json": "9a894ac34944d4658b7777832dfed6673935022184dc825d43ae92f0ea8da562",
    "schneider_gate_run.json": "fe2fadff4e2fadce0165270b45ba723d7d7f2a1503f850331763feb1f2e767e2",
    "head_gate_run.json": "68630a39ded9084f3d9f43dbe9bd5cc7ca1baa03bb7474263c37018ddc5f0353",
    "schneider_lead_run.json": "2ff2f3b8d50f59a23e170a8be8204708312b42a1d34ebb329e23ca57e8d485d0",
    "schneider_inner_run.json": "a460cd206a1ec88063fa665d1ac5e9169ed7fdf1b6741070eee5796c4ab1459a",
    "schneider_tail_8.json": "0e9889e1636bfeec04b7a004cb6b17cdb08e497f0e7a0d4eb2f4195c0b2f9f65",
    "head_tail_8.json": "266f5401713e7314450d2f8c684218d9be96f8ee06ecda6bb736124cec43dd92",
    "schneider_tail_20.json": "0d395d9139167852f4bfaa34acc2e8bce1a88428c1b1b818a58c0269d53345ba",
    "head_tail_20.json": "3def0c0de4be1a652174a559bcb9bf1d427a7ad046df67004226becb3a97c9b6",
    "schneider_run_4_1e9.json": "f9ba87e3e5ef9af84adda898c0fcc647daf326ec18f8252ebf4f3cfc81370de7",
    "schneider_run_8_1e9.json": "ec5ecef55f55d930f08d284f409cf73e6e64aa28ba953e9bb471e9169904f2a9",
}

# calls that print the pinned bytes of the same query scaled by g, which the CLI takes with no gcd
# and reduces only by its rerun rule
SAME_AS = {
    "browkin_1e9_x3.json": "browkin_1e9.json",
}

# usage errors: exit 2, nothing on stdout, and this last line of stderr, below the usage argparse
# writes; an exponent past the input's alpha_max is refused before p**alpha is built
USAGE_PINS = {
    "head_exponent_1000000.txt": "padic-cf head: error: exponent must be at most 3 for 2/5 at p=3, got 1000000",
}

# a line each of these outputs shows, beside its digest
SHOWS = {
    "digits_large_101.json": '"period": null',  # the period search stops at DIGIT_PERIOD_LIMIT
    "head_large_p.json": '"head_len": 41',
    "head_long.json": '"head_len": 2001',
    "head_run_1e9.json": '"head_len": 10001',
    "head_7.json": '"head_len": 1951',
    "head_gate.json": '"head_len": 301',
    "head_gate_run.json": '"exact_identity": false',
    "head_tail_8.json": '"exact_identity": false',
    "head_tail_20.json": '"exact_identity": false',
}


def _failures(names, calls):
    # the names whose call, run within its time limit, does not print what is pinned for it
    failed = []
    for name in names:
        code, out, err = limited_run(calls[name])
        if name in USAGE_PINS:
            held = (code, out) == (2, "") and err.startswith("usage: ") and err.endswith(f"\n{USAGE_PINS[name]}\n")
        else:
            digest = CI_PINS[SAME_AS.get(name, name)]
            held = (code, err) == (0, "") and hashlib.sha256(out.encode()).hexdigest() == digest
            held = held and SHOWS.get(name, "") in out
        if not held:
            failed.append(name)
    return failed


@pytest.mark.parametrize("name", [*CI_PINS, *SAME_AS, *USAGE_PINS])
def test_ci_pins_hold_in_process(name, ci_pin_calls):
    assert _failures([name], ci_pin_calls) == []


def _planted(function, old, new):
    # function with the one occurrence of old in its source replaced by new, compiled in a copy
    # of its module's namespace
    source = inspect.getsource(function)
    assert source.count(old) == 1, old
    namespace = dict(function.__globals__)
    exec(compile(source.replace(old, new), inspect.getsourcefile(function), "exec"), namespace)
    return namespace[function.__name__]


# (function, its text, the planted text, a pinned call the plant fails): lambda2's float taken back
# to (p - sqrt(D))/(4p), one usage message reworded, and two keys of head --json swapped
PLANTS = {
    "lambda2 cancels": (cli._cmd_bound, "-4 / (p * (p + s * sqrt(m)))", "(p - s * sqrt(m)) / (4 * p)",
                        "bound_1e9.json"),
    "usage reworded": (schneider.head_analysis, "exponent must be at most", "exponent may be at most",
                       "head_exponent_1000000.txt"),
    "head keys swapped": (cli._cmd_head, '"head_len": report.head_len,\n                "exact_identity": report.exact_identity,',
                          '"exact_identity": report.exact_identity,\n                "head_len": report.head_len,',
                          "head_7.json"),
}


@pytest.mark.parametrize("plant", PLANTS)
def test_each_plant_fails_a_pinned_call(plant, ci_pin_calls, monkeypatch):
    # cli looks each planted name up at call time: its handlers in _SUBCOMMANDS, head_analysis
    # in its own namespace
    function, old, new, name = PLANTS[plant]
    planted = _planted(function, old, new)
    monkeypatch.setattr(cli, function.__name__, planted)
    for command, (help_text, handler, arguments) in cli._SUBCOMMANDS.items():
        if handler is function:
            monkeypatch.setitem(cli._SUBCOMMANDS, command, (help_text, planted, arguments))
    command = ci_pin_calls[name][0]
    assert name in _failures([other for other, argv in ci_pin_calls.items() if argv[0] == command], ci_pin_calls)


# one query spelled canonically and as argparse takes it ('=' values, abbreviations, attached
# values, the positional first): both print the same bytes and exit 0
SPELLINGS = [
    ("expand-browkin -p 3 -- 365/54", "expand-browkin --prime=3 365/54"),
    ("expand-browkin -p 3 -- 365/54", "expand-browkin --pr 3 -- 365/54"),
    ("expand-browkin -p 3 -- 365/54", "expand-browkin 365/54 -p3"),
    ("expand-schneider -p 3 --json 43/28", "expand-schneider --prime=3 --js 43/28"),
    ("digits -p 5 -n 7 -- -1793/100", "digits -p5 --count=7 -- -1793/100"),
    ("bound -p 3 --json 365/54", "bound --pr 3 --json 365/54"),
    ("head -p 3 --json 1259/701", "head --prime=3 --js 1259/701"),
    ("verify -p 3 2/5", "verify 2/5 -p3"),
    ("sweep --primes 3,5 --max-num 5 --max-den 5", "sweep --primes=3,5 --max-n 5 --max-d 5"),
]


@pytest.mark.parametrize("canonical, spelled", SPELLINGS, ids=[spelled for _, spelled in SPELLINGS])
def test_spellings_print_the_canonical_bytes(canonical, spelled):
    want = limited_run(canonical.split())
    assert want[0] == 0 and limited_run(spelled.split()) == want


# constant heads of 2 to 7 steps over 60-digit tails, above the run gate, at p = 65537 and
# 10**9+7: the entry run takes every run the residue test admits
SHORT_RUN_HEADS = [
    (digit, alpha, length, p)
    for p in (65537, 10**9 + 7)
    for digit, alpha in ((1, 1), (2, 1), (p - 2, 1), (1, 2))
    for length in range(2, 8)
]


def test_short_runs_over_tails_are_pinned():
    digest = hashlib.sha256()
    rng = random.Random(2026)
    for digit, alpha, length, p in SHORT_RUN_HEADS:
        tail = _tail(rng.random(), 60, p)
        a, b = _head_over(tail, [(digit, alpha)] * length, p)
        for argv in (["expand-schneider", "-p", str(p), "--json", "--", f"{a}/{b}"],
                     ["head", "-p", str(p), "--json", "--", f"{a}/{b}"]):
            assert min(abs(a), b).bit_length() > schneider._RUN_GATE
            digest.update(f"{argv}\n".encode() + repr(limited_run(argv)).encode())
    assert digest.hexdigest() == "e35b35e35c9a1b769c9572751fe5d8371e7c978b0093bd2ef60a708c81b14b25"
