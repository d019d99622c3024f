"""A seeded argv generator for the CLI's contract: every argv ends in exit 0 or in a
usage error, and two spellings of one query print the same bytes.

Standard library only, run in process through cli.main.  Each query is drawn from
a small grammar: every subcommand, and the top level, with its options in every
spelling TestDispatch.ARGVS uses ('=' values, abbreviations, attached values,
repeats, the positional first, help by -h and --help); primes valid and not
(near exactarith.FOLD_LIMIT, a Mersenne prime of 61 bits, one past the
primality test's limit, and malformed tokens); rationals from the corpus's
families (small, p | a and p | b, integers, not in lowest terms, zero,
malformed), constant Schneider heads on both sides of the kernel's run gate,
constant heads over random tails of 8 to 25 digits (where the entry run's form
has a cofactor on either side of exactarith.vp_read's window), and heights up
to 2,000 digits.  Each query is written twice, canonically and in a spelling
drawn at random, and the checks are:
  - the exit code is 0 or 2, the same for both spellings, and nothing raises
    past cli.main (a traceback);
  - each call ends within time_limit(argv), TIME_BASE plus TIME_PER_BIT for
    each bit of the digits in argv, or a timer stops it, so a hang fails;
  - exit 2 prints a usage line to stderr;
  - exit 0 prints the same stdout for both spellings: JSON where --json asks,
    else text whose lines follow the command's line grammar (TEXT_GRAMMAR).
The tier-1 slice is FUZZ_QUERIES queries (2,000 argvs); check() returns what it
finds, so each plant below shows that a defect of its kind is caught.  Beside
the slice, a few queries take one argument just under ARGV_CAP bytes, the
largest a single argv string may be, through the same checks.
"""

import contextlib
import io
import json
import random
import re
import signal
import sys
from math import gcd

import pytest

from padic_cf import cli, exactarith, schneider
from padic_cf.exactarith import vp_read, vp_split
from padic_cf.schneider import generate_constant_head, schneider_expand

FUZZ_SEED = 22
FUZZ_QUERIES = 1000  # two argvs each

PRIMES = (3, 5, 7, 11, 101, 4093, 4099, 65537, 10**9 + 7, 2**61 - 1)
BAD_PRIMES = ("1", "2", "9", "-3", "0", "4096", str(2**127 - 1), "٣", "1_1", "3.0", "")
BAD_RATIONALS = ("", "1/0", "abc", "1_000/7", "+3/5", "2/-5", "1/2/3", "٣٦٥/٥٤",
                 " 2/5", "2 /5", "0x10/3", "--")
BAD_INTEGERS = ("1_0", "٣", "+3", "1e3", "")

# the bytes of one argv string, terminating NUL included, that Linux's execve accepts
# (MAX_ARG_STRLEN, 32 pages of 4 KiB)
ARGV_CAP = 131_072

# a call may take TIME_BASE seconds and TIME_PER_BIT more for each bit of the digits in its argv:
# the slice's slowest call took about 0.05 s (2 CPUs, Python 3.11), a tenth of the least limit
TIME_BASE, TIME_PER_BIT = 0.5, 0.00025


def _listed(item):
    return rf"{item}(?:, {item})*"


# each command's text output, line by line (help text aside): what cli writes, read as a grammar
_NAT, _INT, _FRAC, _UFRAC, _PAIR = r"\d+", r"-?\d+", r"-?\d+(?:/\d+)?", r"\d+(?:/\d+)?", r"\(\d+,\d+\)"
_FLOAT = r"-?\d+(?:\.\d+)?(?:e[+-]\d+)?"  # str() of a float pinned to 6 digits
_EXACT = rf"(?:{_FRAC}|-?{_UFRAC}\*sqrt\(\d+\)|{_FRAC} [+-] {_UFRAC}\*sqrt\(\d+\))"  # cli._exact_str
_P, _TERM = r"\(p=\d+\)", r"\d+(?:\*\d+(?:\^-?\d+)?)?"
TEXT_GRAMMAR = {command: re.compile(grammar, re.ASCII) for command, grammar in {
    "expand-browkin": rf"input: {_FRAC} {_P}\nquotients: {_listed(_FRAC)}\nk: {_listed(_NAT)}\n"
                      rf"beta: {_listed(_INT)}\nbound N: \d+ \(length \d+ <= N\+1\)\nreconstructed: true\n",
    "expand-schneider": rf"input: {_FRAC} {_P}\nhead: (?:{_listed(_PAIR)})?\ny trace: (?:{_listed(_INT)})?\n"
                        rf"(?:stationary from index \d+ \(tail digit \d+, exponent 1, tail value -1\)"
                        rf"|finite end with tail value {_INT})\nreconstructed: true\n",
    "digits": rf"(?:0|-?{_TERM}(?: [+-]{_TERM})*)\n",
    "bound": rf"beta magnitudes: \d+, \d+ {_P}\nlambda1 = {_EXACT} \(~{_FLOAT}\)\n"
             rf"lambda2 = {_EXACT} \(~{_FLOAT}\)\nN = \d+\nexact certificate: (?:true|false)\n",
    "head": rf"head pair: \(\d+,\d+\) {_P}\n(?:T1 ~ {_FLOAT}, T2 ~ {_FLOAT}\n)?theta = {_EXACT}(?: \(~{_FLOAT}\))?\n"
            rf"(?:exact exponent: \d+\n)?head length: (?:\d+|unknown)\nexact identity: (?:true|false)\n",
    "verify": r"(?:ok: [a-z ]+\n)+",
    "sweep": r"p,a,b,browkin_len,bound_N,beta0_abs,beta1_abs,slack,schneider_steps_to_stationary\r\n"
             r"(?:\d+,-?\d+,\d+,\d+,\d+,\d+,\d+,\d+,\d*\r\n)*",
}.items()}


def run(argv):
    """(exit code, stdout, stderr) of cli.main(argv); any exception but SystemExit propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class Hang(BaseException):
    """A call past its time limit: a BaseException, so that no handler in cli.main takes it."""


def time_limit(argv):
    return TIME_BASE + TIME_PER_BIT * (sum(char.isdigit() for token in argv for char in token) * 10 // 3)


def limited_run(argv):
    """run(argv), stopped by a timer at time_limit(argv), which raises Hang in the call."""
    limit = time_limit(argv)

    def expire(signum, frame):
        raise Hang(f"no end within {limit:.2f} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        return run(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _rational(rng, p, tall):
    # a rational's text from one of the families; only where tall is set, up to 2,000 digits
    families = ["small", "small", "p|a", "p|b", "integer", "unreduced", "zero", "bad", "head", "tailed"]
    family = rng.choice(families + ["tall"] * tall)
    if family == "bad":
        return rng.choice(BAD_RATIONALS)
    if family == "zero":
        return rng.choice(("0", "0/5", "-0/1", "00/7"))
    if family == "head":  # a constant head of 2 to about 150 bits: both sides of the run gate
        digit, alpha = rng.randrange(1, min(p, 50)), rng.randint(1, 2)
        if (digit, alpha) == (p - 1, 1):
            alpha = 2
        a, b = generate_constant_head(digit, alpha, rng.randint(1, max(2, 150 // (alpha * p.bit_length()))), p)
        return f"{a}/{b}"
    if family == "tailed":  # a constant head of 64 to 2,000 bits (300 where not tall) over a tail
        digit, alpha = rng.randrange(1, min(p, 50)), rng.randint(1, 2)
        steps = max(2, rng.randint(64, 2000 if tall else 300) // (alpha * p.bit_length()))
        y, y_next = 0, 0
        while not (y % p and y_next % p and gcd(y, y_next) == 1):  # a tail of 8 to 25 digits
            y = rng.randrange(10**7, 10 ** rng.randint(8, 25)) * rng.choice((-1, 1))
            y_next = rng.randrange(10**7, 10 ** rng.randint(8, 25))
        for _ in range(steps):
            y, y_next = digit * y + p**alpha * y_next, y
        return f"{y}/{y_next}" if y_next > 0 else f"{-y}/{-y_next}"
    digits = int(20 * 100 ** rng.random()) if family == "tall" else rng.randint(1, 6)
    a = rng.randrange(1, 10**digits) * rng.choice((-1, 1))
    b = rng.randrange(1, 10**digits)
    if family == "p|a":
        a *= p
    elif family == "p|b":
        b *= p
    elif family == "integer":
        return str(a)
    elif family == "unreduced":
        g = rng.randint(2, 9)
        a, b = a * g, b * g
    return f"{a}/{b}"


def _integer(rng, good):
    return rng.choice(BAD_INTEGERS) if rng.random() < 0.05 else str(rng.choice(good))


def query(rng):
    """(command, options, positional): options a list of (long option, value or None for a
    flag), positional the rational's text or None."""
    command = rng.choice(("expand-browkin", "expand-schneider", "digits", "bound", "head", "verify", "sweep"))
    if rng.random() < 0.02:
        return command, [("--help", None)], None
    if command == "sweep":
        primes = ",".join(str(rng.choice((3, 5, 7, 11, 101))) for _ in range(rng.randint(1, 3)))
        primes = rng.choice((primes, primes, primes, "3,9", "3, 5", "", "٣", "3,,5"))
        options = [("--primes", primes), ("--max-num", _integer(rng, (1, 2, 3, 5, 7, 0, -1))),
                   ("--max-den", _integer(rng, (1, 2, 4, 6, 0)))]
        return command, [option for option in options if rng.random() > 0.03], None
    p = rng.choice(PRIMES)
    options = [("--prime", rng.choice(BAD_PRIMES) if rng.random() < 0.08 else str(p))] if rng.random() > 0.03 else []
    json_flag = command != "verify" and rng.random() < 0.5
    if command == "digits":
        options.append(("--count", _integer(rng, (1, 2, 7, 16, 64, 0, -1, 100_001, 10**9))))
    elif command == "head":
        if rng.random() < 0.3:
            options.append(("--digit", _integer(rng, (1, 2, p - 1, 0, -1, p))))
        if rng.random() < 0.3:
            options.append(("--exponent", _integer(rng, (1, 2, 3, 0, 10**12))))
    # tall inputs only where the cost stays near linear in the height: not the battery, the
    # Browkin records, the Schneider y trace of text, nor the period search of digits --json
    tall = p < 2**20 and (command in ("bound", "head") or (command == "expand-schneider" and json_flag)
                          or (command == "digits" and not json_flag))
    positional = _rational(rng, p, tall)
    if command == "bound":
        shape = rng.random()
        if shape < 0.35:  # the betas alone, both, one of them, or with the rational too
            positional = None
        if shape < 0.5:
            for option in rng.sample(("--beta0", "--beta1"), rng.choice((1, 2, 2, 2))):
                options.append((option, _integer(rng, (1, 2, 5, 10**20 + 1, 10**40 - 1, 10**400 + 1, 0, -3))))
    if json_flag:
        options.append(("--json", None))
    rng.shuffle(options)
    return command, options, positional


def canonical(command, options, positional):
    argv = [command]
    for name, value in options:
        argv += [name] if value is None else [name, value]
    return argv + ([] if positional is None else ["--", positional])


# the spellings argparse accepts for each long option, as in TestDispatch.ARGVS; each maps
# a value to the tokens that spell it ("-p" attached needs no '-' in front of a negative value)
SPELLINGS = {
    "--prime": (lambda v: ["--prime=" + v], lambda v: ["--pr", v], lambda v: ["-p" + v], lambda v: ["--pri", v],
                lambda v: ["-p", "5", "-p", v]),
    "--count": (lambda v: ["--count=" + v], lambda v: ["-n" + v], lambda v: ["--cou", v], lambda v: ["-n", "3", "-n", v]),
    "--digit": (lambda v: ["--digit=" + v], lambda v: ["--dig", v]),
    "--exponent": (lambda v: ["--exponent=" + v], lambda v: ["--exp", v]),
    "--beta0": (lambda v: ["--beta0=" + v],),
    "--beta1": (lambda v: ["--beta1=" + v],),
    "--primes": (lambda v: ["--primes=" + v], lambda v: ["--pri", v]),
    "--max-num": (lambda v: ["--max-num=" + v], lambda v: ["--max-n", v]),
    "--max-den": (lambda v: ["--max-den=" + v], lambda v: ["--max-d", v], lambda v: ["--max-den", "9", "--max-den", v]),
    "--json": (lambda v: ["--js"], lambda v: ["--jso"], lambda v: ["--json", "--json"]),
    "--help": (lambda v: ["-h"],),
}
SHORT = {"--prime": "-p", "--count": "-n"}


def spelled(rng, command, options, positional):
    """The same query in a spelling argparse parses: each option respelled or kept, values
    that start with '-' attached by '=', and the positional moved first where it can be."""
    argv = [command]
    first = positional is not None and positional[:1] not in ("-", "") and rng.random() < 0.4
    if first:
        argv.append(positional)
    for name, value in options:
        forms = SPELLINGS[name]
        if value is not None and value[:1] == "-":  # only '=' and attached forms take it
            forms = [form for form in forms if form("x")[0] in (name + "=x", SHORT.get(name, "") + "x")]
        if forms and rng.random() < 0.7:
            argv += rng.choice(forms)("" if value is None else value)
        else:
            argv += [name] if value is None else [f"{name}={value}"]
    if positional is not None and not first:
        argv += ["--", positional]
    return argv


def check(queries):
    """The contract's failures on a list of (canonical argv, spelled argv) pairs."""
    failures = []
    for argvs in queries:
        results = []
        for argv in argvs:
            try:
                results.append(limited_run(argv))
            except Hang as exc:
                failures.append((argv, f"hang: {exc}"))
                break
            except Exception as exc:  # a traceback: nothing but SystemExit may leave main
                failures.append((argv, f"raised {type(exc).__name__}: {exc}"))
                break
        else:
            (code, out, err), (code2, out2, _) = results
            if code not in (0, 2):
                failures.append((argvs[0], f"exit {code}: {err[-200:]}"))
            elif code2 != code:
                failures.append((argvs, f"exit {code} spelled as exit {code2}"))
            elif code == 2 and ("usage: padic-cf" not in err or "Traceback" in err):
                failures.append((argvs[0], f"exit 2 without a usage line: {err[-200:]}"))
            elif code == 0 and out2 != out:
                failures.append((argvs, "two spellings print different output"))
            elif code == 0 and "--help" not in argvs[0] and argvs[0][0] in TEXT_GRAMMAR:
                if "--json" in argvs[0]:
                    try:
                        json.loads(out)
                    except ValueError:
                        failures.append((argvs[0], "--json printed no JSON"))
                elif not TEXT_GRAMMAR[argvs[0][0]].fullmatch(out):
                    failures.append((argvs[0], "text output off its line grammar"))
    return failures


def fuzz_queries(seed, count):
    rng = random.Random(seed)
    queries = [(["-h"], ["--help"]), ([], ["--"]), (["bogus"], ["bogus", "-p", "3"])]
    while len(queries) < count:
        parts = query(rng)
        queries.append((canonical(*parts), spelled(rng, *parts)))
    return queries


@pytest.fixture(scope="module")
def slice_queries():
    return fuzz_queries(FUZZ_SEED, FUZZ_QUERIES)


def test_the_slice_keeps_the_contract(slice_queries):
    assert check(slice_queries) == []


def test_the_slice_covers_the_grammar(slice_queries):
    # every subcommand and every spelling family, exit 0 and exit 2, text output of every
    # command, heads on both sides of the run gate, heads over tails with the form's cofactor on
    # both sides of vp_read's window, p | a and p | b, and inputs of more than 1,000 digits
    tokens = {token.split("=")[0] for argvs in slice_queries for argv in argvs for token in argv}
    for expected in ("expand-browkin", "expand-schneider", "digits", "bound", "head", "verify", "sweep",
                     "--prime", "--pr", "--pri", "-p", "--count", "--cou", "--digit", "--dig", "--exponent",
                     "--exp", "--beta0", "--beta1", "--primes", "--max-num", "--max-n", "--max-den", "--max-d",
                     "--json", "--js", "--jso", "-h", "--help", "--"):
        assert expected in tokens, expected
    assert any(token.startswith("-p") and token[2:].isdigit() for token in tokens)
    assert any(token.startswith("-n") and token[2:].isdigit() for token in tokens)
    codes, texts = set(), set()
    for argvs in slice_queries[:300]:
        code = run(argvs[0])[0]
        codes.add(code)
        if code == 0 and "--json" not in argvs[0] and "--help" not in argvs[0]:
            texts.add(argvs[0][0])
    assert codes == {0, 2} and set(TEXT_GRAMMAR) <= texts
    sizes, sides, windows = [], set(), set()
    for argvs in slice_queries:
        argv = argvs[0]
        if "--" not in argv[:-1] or argv[-1].count("/") != 1 or not argv[-1].replace("/", "").lstrip("-").isdigit():
            continue
        a, b = map(int, argv[-1].split("/"))
        sizes.append(min(len(str(abs(a))), len(str(b))))
        p = argv[argv.index("--prime") + 1] if "--prime" in argv else None
        p = int(p) if p in map(str, PRIMES) else 0
        if p and a % p and b % p and sizes[-1] < 60 and gcd(a, b) == 1:
            steps = schneider_expand(a, b, p).steps
            if len(steps) > 2 and steps.count(steps[0]) == len(steps):  # a constant head
                sides.add(min(abs(a), b).bit_length() > schneider._RUN_GATE)
        if p and a % p and b % p and 8 < sizes[-1] < 700 and gcd(a, b) == 1 and abs(a) > 1:
            digit, alpha = schneider_expand(a, b, p).steps[0]
            form = a * (a - digit * b) - p**alpha * b * b
            length = (vp_split(form, p)[0] - 1) // alpha if form else 0
            if length >= 2 and form.bit_length() > exactarith._READ_BITS:  # a head over a tail
                windows.add(vp_read(form, p) is not None)
    assert max(sizes) > 1000 and sides == {False, True} and windows == {False, True}


@contextlib.contextmanager
def no_digit_limit():
    """str() of integers past the interpreter's int-to-str digit limit (Python 3.10.7 on), lifted
    as cli.main lifts it for its own call."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_heights_at_the_argv_cap():
    # constant heads whose a/b is 130,998 bytes (about 0.15 s a call on 2 CPUs), and a random
    # 65,001/64,001-digit rational through text digits and bound --json (0.3 s and 0.6 s); digits
    # --json is left out at that size, as its period search walks DIGIT_PERIOD_LIMIT digits of a
    # remainder of about 216,000 bits (15 s at p = 101)
    rng = random.Random(FUZZ_SEED)
    heads = {(1, 2, 119266, 3), (1, 1, 63977, 101)}
    queries = []
    with no_digit_limit():
        for digit, alpha, k, p in heads:
            positional = "%d/%d" % generate_constant_head(digit, alpha, k, p)
            for command in ("head", "expand-schneider"):
                queries.append((command, [("--prime", str(p)), ("--json", None)], positional))
        positional = f"{rng.randrange(10**65000, 10**65001)}/{rng.randrange(10**64000, 10**64001)}"
        queries.append(("digits", [("--prime", "101"), ("--count", "8")], positional))
        queries.append(("bound", [("--prime", "101"), ("--json", None)], positional))
    for _, _, positional in queries:
        assert len(positional.encode()) + 1 <= ARGV_CAP
    argvs = [(canonical(*parts), spelled(rng, *parts)) for parts in queries]
    with no_digit_limit():  # json.loads reads the printed integers by the same conversion
        assert check(argvs) == []
        lengths = {(int(argv[argv.index("--prime") + 1]), json.loads(run(argv)[1])["head_len"])
                   for argv, _ in argvs if argv[0] == "head"}
    assert lengths == {(p, k + 1) for _, _, k, p in heads}


# each plant is a defect of one kind the contract rules out; the first 400 queries catch it
PLANT_QUERIES = 400


class Escaped(Exception):
    pass


def test_catches_a_value_error_escaping_validate(monkeypatch, slice_queries):
    validate = cli._validate

    def planted(args):
        try:
            validate(args)
        except ValueError as exc:  # no longer a usage error
            raise Escaped(str(exc)) from exc

    monkeypatch.setattr(cli, "_validate", planted)
    failures = check(slice_queries[:PLANT_QUERIES])
    assert any("raised Escaped" in reason for _, reason in failures)


def test_catches_an_overflow_error_on_an_option_path(monkeypatch, slice_queries):
    bound = cli.browkin_bound

    def planted(beta0, beta1, p):
        float(beta0) * float(beta1)  # a float seed: OverflowError past 2**1024, as --beta0 10**400+1
        return bound(beta0, beta1, p)

    monkeypatch.setattr(cli, "browkin_bound", planted)
    failures = check(slice_queries[:PLANT_QUERIES])
    assert any(reason.startswith("exit 3: error: internal") for _, reason in failures)


def test_catches_a_spelling_whose_output_differs(monkeypatch, slice_queries):
    canonical_args = cli._canonical_args

    def planted(route, argv):
        args = canonical_args(route, argv)
        if args is not None and "json" in vars(args):
            args.json = not args.json  # the canonical route alone reads --json wrong
        return args

    monkeypatch.setattr(cli, "_canonical_args", planted)
    failures = check(slice_queries[:PLANT_QUERIES])
    assert any(reason == "two spellings print different output" for _, reason in failures)


def test_catches_a_text_line_off_its_grammar(monkeypatch, slice_queries):
    monkeypatch.setattr(cli, "_exact_str", lambda *args: "theta")  # bound's lambdas, head's theta
    failures = check(slice_queries[:PLANT_QUERIES])
    assert any(reason == "text output off its line grammar" for _, reason in failures)


def test_catches_a_hang(monkeypatch, slice_queries):
    terms, hung = cli._digit_terms, []

    def planted(*args):
        if not hung:  # the first text digits call never ends, but for the timer
            hung.append(args)
            while True:
                pass
        return terms(*args)

    monkeypatch.setattr(cli, "_digit_terms", planted)
    failures = check(slice_queries[:PLANT_QUERIES])
    assert hung and [reason for _, reason in failures if reason.startswith("hang: no end within")]
