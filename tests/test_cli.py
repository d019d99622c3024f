"""CLI contract tests: grammar, JSON schemas, exit codes, sweep CSV."""

import argparse
import contextlib
import csv
import decimal
import fractions
import functools
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest

import padic_cf
import padic_cf.browkin as browkin
import padic_cf.cli as cli
import padic_cf.exactarith as exactarith
import padic_cf.oracle as oracle
import padic_cf.schneider as schneider
from padic_cf.cli import main, parse_rational
from padic_cf.schneider import generate_constant_head

from replay import beta1_abs, beta_trace, head_identity, k_trace, quotient_pairs
from test_argv_fuzz import limited_run

SRC = Path(__file__).resolve().parents[1] / "src"
PERFBENCH = SRC.parent / "perfbench"


def planted_main(module, inverse="lambda r, e, m: r"):
    # the CLI in a fresh interpreter, with the inverses mod p in a kernel's module planted
    # as inverse(r, e, m) (by default each residue its own inverse), a defect
    return (f"import sys, padic_cf.{module} as kernel; kernel.pow = {inverse}\n"
            "from padic_cf.cli import main; sys.exit(main(sys.argv[1:]))")


# the Schneider kernel's planted defect: TestExpandSchneiderCommand's runaway loop
PLANTED_MAIN = planted_main("schneider")


def run_process(args, timeout=60):
    # a fresh interpreter on this checkout's package, output captured as bytes
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=timeout)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def unreachable(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} called")

    return fail


# each rule that gives a sweep row its first step, with the kernel a row runs when its line's
# store holds no tail for it and the certificate that runs that kernel
RULES = {"browkin_first": ("browkin_expand", "certified_browkin"),
         "schneider_first": ("schneider_expand", "certified_schneider")}


def browkin_rule_args(p, a, b):
    # the arguments browkin_first takes for row a/b: a and its line's constants, which name
    # the row, as modulus = p**(1+k0) and beta0 fix p and b
    _, beta0, modulus, inverse = browkin.browkin_line(b, p)
    return a, beta0, modulus, inverse


def kernel_rows(monkeypatch):
    # certificate -> the (p, a, b) of every sweep row that ran it, its kernel row, planted in
    # oracle; every other row took its tail from its line's store
    rows = {}
    for _, certificate in RULES.values():
        made = rows[certificate] = set()

        def certified(a, b, p, *args, certify=getattr(oracle, certificate), made=made):
            made.add((p, a, b))
            return certify(a, b, p, *args)

        monkeypatch.setattr(oracle, certificate, certified)
    return rows


def sweep_rows(text):
    # (p, a, b) of each row of a sweep CSV
    return [tuple(int(field) for field in row.split(",")[:3]) for row in text.splitlines()[1:]]


def kernels_take_their_own_first_step(monkeypatch):
    # a row that misses its line's store hands its kernel the first step it took, so a planted
    # rule reaches kernel rows too; with each kernel planted in oracle to take its own first
    # step instead, such a plant reaches the rows that take a stored tail alone
    monkeypatch.setattr(oracle, "browkin_expand", lambda a, b, p, first: browkin.browkin_expand(a, b, p))
    monkeypatch.setattr(oracle, "schneider_expand", lambda a, b, p, first: schneider.schneider_expand(a, b, p))


# the sweep grids whose derived records are checked, each with the sha256 of its CSV
SWEEP_GRIDS = [
    (["--primes", "3,5,7", "--max-num", "100", "--max-den", "100"],
     "356a4f1995605f0282d9dab5b2b123b320f7f794bd413af923dd4fa9fde993d9"),
    (["--primes", "3,11,101", "--max-num", "3000", "--max-den", "2"],
     "3c1522394971899b460b94a554e71372020342dde39381374a59982a496ef36c"),
    (["--primes", "3,5", "--max-num", "120", "--max-den", "54"],
     "b4bd7fa1bd4573dddbea3e34986102fad928e841a38dc25c6c955fec456633a3"),
    (["--primes", "3,5,101", "--max-num", "400", "--max-den", "30"],
     "eb6d164e562910107a44fa97acbad44cfdb97d849dd96b82409010195f4a349d"),
]
SWEEP_GRID_IDS = ["grid", "wide", "p-powers", "chains"]


def negated(pair):
    a, b = pair
    return -a, b


def run_json(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    return json.loads(out)


class TestParseRational:
    def test_valid(self):
        assert parse_rational("77/18") == (77, 18)
        assert parse_rational("-1793/100") == (-1793, 100)
        assert parse_rational("4/6") == (2, 3)
        assert parse_rational("5") == (5, 1)
        assert parse_rational("-7") == (-7, 1)

    def test_matches_fraction(self):
        # the pair is Fraction(text)'s numerator and denominator: same reduction, same sign
        rng = random.Random(13)

        def number():
            zeros = "0" * rng.choice((0, 0, 1, 3))
            return zeros + str(rng.choice((0, 1, rng.randrange(2, 10**6), rng.randrange(10**40))))

        texts = ["0", "-0", "0/7", "-0/1", "00/0001", "6/3", "-6/1", "12/18", "007/014"]
        for _ in range(2000):
            sign = rng.choice(("", "-"))
            num = number()
            if rng.random() < 0.3:
                texts.append(sign + num)
                continue
            den = number()
            if int(den) == 0:
                den = rng.choice(("1", "01"))
            if rng.random() < 0.3:  # a common factor to reduce
                factor = rng.randrange(2, 1000)
                num, den = str(int(num) * factor), str(int(den) * factor)
            texts.append(f"{sign}{num}/{den}")
        for text in texts:
            r = Fraction(text)
            assert parse_rational(text) == (r.numerator, r.denominator), text

    @pytest.mark.parametrize(
        "text", ["", "a/b", "1/0", "1//2", "+5", "1.5", "1/-2", "/3", "2/"]
    )
    def test_malformed(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    def test_trailing_newline_is_malformed(self):
        # a pattern ending in $ would also match before a final newline
        with pytest.raises(ValueError, match="malformed rational"):
            parse_rational("7/2\n")
        done = run_process(["-m", "padic_cf", "bound", "-p", "3", "7/2\n"])
        assert (done.returncode, done.stdout) == (2, b"")
        assert done.stderr.endswith(b"padic-cf bound: error: malformed rational '7/2\\n'\n")

    @pytest.mark.parametrize("text", ["\u0663\u0666\u0665/\u0665\u0664", "\uff13\uff16\uff15/54", "365/\u0665\u0664"])
    def test_non_ascii_digits_are_malformed(self, text):
        # int() reads every Unicode decimal digit, so a pattern on \d took the
        # Arabic-Indic "365/54" as 365/54
        with pytest.raises(ValueError, match="malformed rational"):
            parse_rational(text)
        done = run_process(["-m", "padic_cf", "expand-browkin", "-p", "3", text])
        assert (done.returncode, done.stdout) == (2, b"")
        assert b"malformed rational" in done.stderr


class TestExpandBrowkinCommand:
    def test_json_schema(self, capsys):
        payload = run_json(["expand-browkin", "-p", "3", "--json", "365/54"], capsys)
        assert list(payload) == ["p", "input", "quotients", "k", "beta", "bound_N", "reconstructed"]
        assert payload["input"] == "365/54"
        assert payload["quotients"][0] == {"num": -20, "den": 27}
        assert payload["k"] == [3, 1, 1, 1]
        assert payload["beta"] == [2, 5, -2, 1]
        assert payload["bound_N"] == 6
        assert payload["reconstructed"] is True

    def test_text_output(self, capsys):
        code, out, _ = run_cli(["expand-browkin", "-p", "3", "365/54"], capsys)
        assert code == 0
        assert "-20/27, 4/3, 2/3, -2/3" in out
        assert "reconstructed: true" in out

    def test_verification_failure_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "cf_pair", lambda steps, p, numerators: (0, 1))
        code, out, err = run_cli(["expand-browkin", "-p", "3", "365/54"], capsys)
        assert code == 1
        assert out == ""
        assert "FAIL" in err

    def test_printed_betas_are_the_replayed_trace(self, capsys):
        # the betas come off the reconstruction's back-substitution; the replay helper walks
        # them forward by the other recurrence, so the two must agree
        cases = [(p, text) for p in (3, 5, 101, 10**9 + 7) for text in ("1", "-1/3", "9", "7/2")]
        cases.append((10**20 + 39, "7/2"))
        rng = random.Random(26)
        for p in (3, 5, 101, 10**9 + 7):
            for digits in (1, 2, 40, 300):
                for shift in (0, 2):  # k0 > 0 at shift 2
                    while True:
                        a = rng.randrange(1, 10**digits) * rng.choice((-1, 1))
                        b = rng.randrange(1, 10**digits) * p**shift
                        if math.gcd(a, b) == 1:
                            break
                    cases.append((p, f"{a}/{b}"))
        one_step = 0
        for p, text in cases:
            exp = browkin.browkin_expand(*parse_rational(text), p)
            trace = beta_trace(exp)
            one_step += len(trace) == 1
            n_bound = browkin.browkin_bound(exp.beta0, beta1_abs(exp), p).n_bound
            code, out, _ = run_cli(["expand-browkin", "-p", str(p), "--", text], capsys)
            assert code == 0
            lines = out.splitlines()
            assert lines[3] == "beta: " + ", ".join(map(str, trace)), (p, text)
            assert lines[4].startswith(f"bound N: {n_bound} ")
            payload = run_json(["expand-browkin", "-p", str(p), "--json", "--", text], capsys)
            assert (payload["beta"], payload["bound_N"]) == (trace, n_bound), (p, text)
        assert one_step >= 8

    def test_planted_runaway_ends_at_the_default_cap(self, capsys, monkeypatch):
        # with every inverse taken as 1, 1/5 at p=3 steps on wrong digits and never
        # ends; the cap read off the input, 4 * ((4*1 + 3*5).bit_length() + 1) = 24
        # steps, ends it as a failed check
        monkeypatch.setattr(browkin, "pow", lambda r, e, m: 1, raising=False)
        code, out, err = run_cli(["expand-browkin", "-p", "3", "1/5"], capsys)
        assert (code, out) == (1, "")
        assert err == "FAIL: bound violated: expansion of 1/5 exceeded 24 steps\n"

    def test_planted_zero_beta_ends_the_p_strip(self):
        # with each residue taken as its own inverse, a step of 365/54 at p=3 divides inexactly
        # to a beta of 0, which the p-strip once divided by p forever; in a fresh process under
        # a timeout, so that a loop that does not end fails here and hangs nothing
        done = run_process(["-c", planted_main("browkin"), "expand-browkin", "-p", "3", "365/54"],
                           timeout=30)
        assert (done.returncode, done.stdout) == (1, b"")
        assert done.stderr == b"FAIL: inexact step: expansion of 365/54 reached a beta of 0\n"

    def test_height_beyond_float_range(self, capsys):
        code, out, err = run_cli(["expand-browkin", "-p", "5", f"{10**400 + 1}/{7**300}"], capsys)
        assert code == 0, err
        assert "bound N: 1629 " in out

    def test_21_digit_prime_answers(self, capsys):
        code, out, err = run_cli(["expand-browkin", "-p", "100000000000000000039", "7/2"], capsys)
        assert code == 0, err
        assert "bound N: 2 (length 2 <= N+1)" in out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ee0d56f09ceab9c6db52b3eadaa6b92c7d7ca173dea2394c975efbfba61a2e01"
        )

    def test_max_steps_is_usage_error(self, capsys):
        # the step cap is read off the input's bit length; no option sets it
        with pytest.raises(SystemExit) as exc:
            main(["expand-browkin", "-p", "3", "--max-steps", "1", "365/54"])
        assert exc.value.code == 2
        assert "--max-steps" in capsys.readouterr().err

    def test_output_is_pinned(self):
        # text and --json on the README fixtures and 300-digit inputs, some
        # with p**3 in the denominator; any change to a byte moves the hash
        inputs = [(3, "365/54"), (3, "77/18"), (5, "-1793/100"), (3, "5"), (3, "1"), (3, "-2/9")]
        rng = random.Random(6)
        for p in (3, 5, 7, 101):
            for shift in (0, 3):
                a = rng.randrange(10**299, 10**300) * rng.choice((1, -1))
                inputs.append((p, f"{a}/{rng.randrange(10**299, 10**300) * p**shift}"))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            for p, text in inputs:
                for flags in ([], ["--json"]):
                    assert main(["expand-browkin", "-p", str(p), *flags, "--", text]) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
            "02177f5cea442609eab25b12143c1260d43fc62e13a8f028700daba8b3d8e606"
        )


class TestExpandSchneiderCommand:
    def test_json_schema(self, capsys):
        payload = run_json(["expand-schneider", "-p", "3", "--json", "2/5"], capsys)
        assert list(payload) == ["p", "a", "b", "head", "stationary_from", "finite_end"]
        assert payload["head"] == [{"b": 1, "alpha": 1}] * 4
        assert payload["stationary_from"] == 4
        assert payload["finite_end"] is False

    def test_finite_end_json(self, capsys):
        payload = run_json(["expand-schneider", "-p", "3", "--json", "7/2"], capsys)
        assert payload["stationary_from"] is None
        assert payload["finite_end"] is True

    def test_precondition_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["expand-schneider", "-p", "3", "3/5"])
        assert exc.value.code == 2

    def test_2000_digit_input_answers(self, capsys):
        # 11,144 steps, past the fixed cap of 10,000 steps this command once had
        rng = random.Random(5)
        a = b = 3
        while a % 3 == 0 or b % 3 == 0:
            a, b = rng.randrange(10**1999, 10**2000), rng.randrange(10**1999, 10**2000)
            g = math.gcd(a, b)
            a, b = a // g, b // g
        payload = run_json(["expand-schneider", "-p", "3", "--json", f"{a}/{b}"], capsys)
        assert len(payload["head"]) == payload["stationary_from"] == 11144

    def test_planted_runaway_ends_at_the_default_cap(self, capsys, monkeypatch):
        # with each residue taken as its own inverse, 1/4 at p=5 steps on wrong digits
        # and never ends; the cap read off the input (3 bits), (2*3*(5+2) + 4) * (3+1)
        # = 184 steps, ends it as a failed check
        monkeypatch.setattr(schneider, "pow", lambda r, e, m: r, raising=False)
        code, out, err = run_cli(["expand-schneider", "-p", "5", "1/4"], capsys)
        assert (code, out) == (1, "")
        assert err == "FAIL: bound violated: expansion of 1/4 exceeded 184 steps\n"

    def test_planted_zero_y_ends_the_p_strip(self):
        # with each residue taken as its own inverse, 3/2 at p=5 takes the digit 1: delta = 1
        # gives y = 0, which the p-strip once divided by p forever.  Above the batch bound,
        # with every inverse planted as 1, a/b = (2y + 1)/y takes the digit 2 for its true 4,
        # the residues cannot tell the step, and the full pair gives y = 1 // 5 = 0.  Each in
        # a fresh process under a timeout, so that a loop that does not end hangs nothing
        done = run_process(["-c", PLANTED_MAIN, "expand-schneider", "-p", "5", "3/2"], timeout=30)
        assert (done.returncode, done.stdout) == (1, b"")
        assert done.stderr == b"FAIL: inexact step: expansion of 3/2 reached y = 0\n"
        y = 3 + 5 * 10**300
        text = f"{2 * y + 1}/{y}"
        done = run_process(["-c", planted_main("schneider", "lambda r, e, m: 1"),
                            "expand-schneider", "-p", "5", text], timeout=30)
        assert (done.returncode, done.stdout) == (1, b"")
        assert done.stderr == (
            f"FAIL: inexact step: a batch reached y = 0 in the expansion of {text}\n".encode())

    def test_output_is_pinned(self):
        # text and --json on the README fixtures, 300-digit inputs, two constant
        # heads with alpha = 3 and finite ends; any change to a byte moves the hash
        calls = [[text] for text in ("2/5", "1259/701", "7/2", "19/7", "-1", "2")]
        # 1259/701 and 19/7 run twice: the hash was pinned with a second, capped
        # call of each, whose cap let every step through
        calls += [["-p", "5", "3044/673"], ["1259/701"], ["19/7"]]
        calls = [argv if "-p" in argv else ["-p", "3", *argv] for argv in calls]
        rng = random.Random(8)
        for p in (3, 7, 101):
            for _ in range(2):
                a = b = p
                while a % p == 0 or b % p == 0 or math.gcd(a, b) != 1:
                    a = rng.randrange(10**299, 10**300) * rng.choice((1, -1))
                    b = rng.randrange(10**299, 10**300)
                calls.append(["-p", str(p), f"{a}/{b}"])
        for digit, alpha, p in ((1, 3, 3), (3, 3, 7)):
            for k in (20, 2000):
                a, b = generate_constant_head(digit, alpha, k, p)
                calls.append(["-p", str(p), f"{a}/{b}"])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            for argv in calls:
                for flags in ([], ["--json"]):
                    *options, text = argv
                    assert main(["expand-schneider", *options, *flags, "--", text]) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
            "90f92214c6724235baa24d1e54ec7f3ab05a62ff19065fcc3d93701359976cac"
        )


class TestDigitsCommand:
    def test_plain_rendering(self, capsys):
        code, out, _ = run_cli(["digits", "-p", "5", "-n", "7", "--", "-1793/100"], capsys)
        assert code == 0
        assert out.strip() == "-2*5^-2 +2*5^-1 -2 -2*5 +1*5^2 +1*5^3 +1*5^4"

    def test_plain_rendering_integer(self, capsys):
        code, out, _ = run_cli(["digits", "-p", "3", "-n", "3", "3"], capsys)
        assert out.strip() == "1*3"

    def test_json(self, capsys):
        payload = run_json(["digits", "-p", "5", "-n", "7", "--json", "--", "-1793/100"], capsys)
        assert payload["start_exponent"] == -2
        assert payload["digits"] == [-2, 2, -2, -2, 1, 1, 1]
        assert payload["preperiod_len"] == 4
        assert payload["period"] == [1]

    def test_json_period_past_the_limit_is_null(self, capsys):
        # the period of 1/1000003 at p=7 is longer than DIGIT_PERIOD_LIMIT states;
        # the keys stay, with null values, and the digits are still certified
        payload = run_json(["digits", "-p", "7", "-n", "4", "--json", "1/1000003"], capsys)
        assert payload["digits"] == [2, 1, -2, 0]
        assert payload["preperiod_len"] is None
        assert payload["period"] is None
        assert list(payload) == ["p", "input", "start_exponent", "digits", "count",
                                 "preperiod_len", "period"]

    def test_output_is_pinned(self):
        # text on the README fixture and 300-digit inputs, --json where the
        # period is short; any change to a byte moves the hash
        fixtures = [(5, "-1793/100"), (3, "3"), (3, "0"), (7, "-1/49"), (7, "98/5"),
                    (5, "22/1009"), (101, "-3/91")]
        calls = [["-p", str(p), "-n", "20", *flags, "--", text]
                 for p, text in fixtures for flags in ([], ["--json"])]
        rng = random.Random(9)
        for p in (3, 7, 101):
            for shift in (-2, 0, 2):
                a = rng.randrange(10**299, 10**300) * p ** max(shift, 0)
                b = rng.randrange(10**299, 10**300) * p ** max(-shift, 0)
                calls.append(["-p", str(p), "-n", "64", "--", f"{-a}/{b}"])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            for argv in calls:
                assert main(["digits", *argv]) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
            "2956253ca4bf99a7df0941dab417000d71495e86e53500e665e694d30950b8fc"
        )

    def test_count_required_positive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["digits", "-p", "5", "-n", "0", "1/2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("count", ["100001", "1000000000"])
    def test_count_past_the_period_limit_is_a_usage_error(self, count, capsys):
        # -n is bounded by digits.DIGIT_PERIOD_LIMIT, so a billion digits fail at once
        with pytest.raises(SystemExit) as exc:
            main(["digits", "-p", "3", "-n", count, "1/7"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"\npadic-cf digits: error: count must be at most 100000, got {count}\n")

    def test_count_up_to_the_limit_answers(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "DIGIT_PERIOD_LIMIT", 5)
        code, out, _ = run_cli(["digits", "-p", "3", "-n", "5", "1/7"], capsys)
        assert (code, out) == (0, "1 +1*3 -1*3^3 -1*3^4\n")
        with pytest.raises(SystemExit) as exc:
            main(["digits", "-p", "3", "-n", "6", "1/7"])
        assert exc.value.code == 2


class TestBoundCommand:
    def test_beta_mode(self, capsys):
        payload = run_json(["bound", "-p", "3", "--beta0", "2", "--beta1", "5", "--json"], capsys)
        assert payload["n_bound"] == 6
        assert payload["exact_certificate"] is True

    def test_rational_mode(self, capsys):
        payload = run_json(["bound", "-p", "5", "--json", "--", "-1793/100"], capsys)
        assert payload["beta0_abs"] == 4
        assert payload["beta1_abs"] == 13
        assert payload["n_bound"] == 6

    def test_rational_mode_does_not_expand(self, capsys, monkeypatch):
        rng = random.Random(4)
        cases = [(5, "-1793/100"), (3, "365/54"), (3, "2/5"), (3, "3/2"), (3, "1"), (7, "-9/13")]
        for digits in (300, 400):
            for p in (3, 7, 101):
                a = rng.randrange(10 ** (digits - 1), 10**digits)
                cases.append((p, f"{-a}/{rng.randrange(10 ** (digits - 1), 10**digits)}"))
        expected, one_step = [], 0
        for p, text in cases:
            expansion = browkin.browkin_expand(*parse_rational(text), p)
            one_step += len(expansion.steps) == 1  # |beta_1| reads 0
            betas = ["--beta0", str(expansion.beta0), "--beta1", str(beta1_abs(expansion))]
            expected.append([run_cli(["bound", "-p", str(p), *flags, *betas], capsys)
                             for flags in ([], ["--json"])])
        assert one_step > 0
        monkeypatch.setattr(oracle, "browkin_expand", unreachable("browkin_expand"))
        monkeypatch.setattr(browkin, "browkin_expand", unreachable("browkin_expand"))
        for (p, text), want in zip(cases, expected):
            got = [run_cli(["bound", "-p", str(p), *flags, "--", text], capsys)
                   for flags in ([], ["--json"])]
            assert got == want

    def test_needs_input(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "-p", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "betas", [["--beta0", "5", "--beta1", "3"], ["--beta0", "5"], ["--beta1", "3"]]
    )
    def test_rational_with_betas_is_usage_error(self, betas, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "-p", "3", *betas, "7/2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "padic-cf bound: error: bound takes a rational or --beta0/--beta1, not both\n"
        )

    def test_output_is_pinned(self):
        # text and --json, from a rational (README fixtures and 300-digit inputs,
        # some with p**3 in the denominator) and from --beta0/--beta1; any change
        # to a byte moves the hash
        inputs = [(3, "365/54"), (3, "77/18"), (5, "-1793/100"), (3, "5"), (3, "1"),
                  (3, "-2/9"), (3, "2/5")]
        rng = random.Random(11)
        for p in (3, 5, 7, 101):
            for shift in (0, 3):
                a = rng.randrange(10**299, 10**300) * rng.choice((1, -1))
                inputs.append((p, f"{a}/{rng.randrange(10**299, 10**300) * p**shift}"))
        calls = [[str(p), "--", text] for p, text in inputs]
        betas = [(3, 2, 5), (5, 4, 13), (3, 1, 0), (7, 10**300, 10**299)]
        calls += [[str(p), "--beta0", str(b0), "--beta1", str(b1)] for p, b0, b1 in betas]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            for p, *rest in calls:
                for flags in ([], ["--json"]):
                    assert main(["bound", "-p", p, *flags, *rest]) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
            "c8a31d0a6070d4319eddf399675c563c3c4e17dee1f04829cbd849b588fbb49d"
        )

    @pytest.mark.parametrize("p", [3, 5, 101, 16651, 100000007, 10**9 + 7, 10**20 + 39])
    def test_lambda2_float_keeps_its_digits(self, p, capsys):
        # lambda2 = (p - sqrt(p*p + 16)) / (4p), whose two terms nearly cancel at large p,
        # against that difference taken to 50 significant digits in decimal
        with decimal.localcontext() as ctx:
            ctx.prec = 50 + 2 * len(str(p))  # the digits the cancellation takes, and 50 more
            want = (p - decimal.Decimal(p * p + 16).sqrt()) / (4 * p)
            want = float(f"{want:.6g}")
        assert run_json(["bound", "-p", str(p), "--json", "7/2"], capsys)["lambda2_float"] == want

    def test_height_beyond_float_range_certifies(self, capsys):
        huge = str(10**400)
        payload = run_json(["bound", "-p", "3", "--beta0", huge, "--beta1", huge, "--json"], capsys)
        assert payload["n_bound"] == 2274
        assert payload["exact_certificate"] is True


class TestLargeRadicands:
    # folding a radicand trial-divides only up to FOLD_LIMIT, so these answer at once;
    # both heads start with (1,40) at p = 3, the second is the constant head with k = 3
    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "-p", "100000007", "7/2"],
            ["bound", "-p", "100000007", "--json", "7/2"],
            ["head", "-p", "3", "--",
             "147808829414345923291767879288269439998/1478088294143459233039255447473263687"],
            ["head", "-p", "3", "--json", "--",
             "147808829414345923291767879288269439998/147808829414345923303925544747326368799"],
        ],
    )
    def test_answers_within_the_timeout(self, argv):
        done = run_process(["-m", "padic_cf", *argv], timeout=30)
        assert done.returncode == 0, done.stderr
        assert done.stderr == b""

    def test_unfolded_radicand_is_printed(self, capsys):
        # p*p + 16 = 10000001400000065 has no square factor f*f with f <= FOLD_LIMIT
        code, out, _ = run_cli(["bound", "-p", "100000007", "7/2"], capsys)
        assert code == 0
        assert "lambda1 = 1/4 + 1/400000028*sqrt(10000001400000065) (~0.5)" in out
        assert "N = 2" in out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b6722ad8efc58b700acb3d74529204207d014904abe7e4e31eec765fb6e00369"
        )


def field_f6(value):
    # the display float as made from a QuadraticElement: the reference for cli._f6
    try:
        approx = float(value)
    except OverflowError:
        return None
    return float(f"{approx:.6g}") if math.isfinite(approx) else None


class TestDisplayFloats:
    def test_f6_matches_the_field_float(self):
        # (x + y*sqrt(d)) / den read off integers, against the QuadraticElement's float;
        # repr tells -0.0 from 0.0, which JSON prints apart
        a, b = generate_constant_head(2, 1, 30, 5)
        report = schneider.head_analysis(a, b, 2, 1, 5)
        assert report.disc == 24  # 4*5 + 2*2, a square factor to fold
        cases = [
            (2, -1, 24, 2), (2, 1, 24, 2), (report.sx, report.sy, report.disc, report.n),
            (3, 1, 25, 12), (3, -1, 25, 12),  # the bound at p = 3: D = 25, a square
            (7, 0, 13, 3), (-7, 0, 24, 5), (0, 0, 13, 5),  # y = 0
            (5, 3, 13, -7), (0, 3, 24, -7), (0, 0, 13, -7), (-4, 1, 25, -3),  # den < 0
            (-1, 0, 13, 10**400), (-1, 1, 25, 10**400),  # below the float range
            (10**400, 1, 13, 1), (1, 10**400, 13, 3), (1, -(10**400), 25, 3),  # past it
            (10**308, 10**308, 13, 1), (-(10**308), -(10**308), 24, 1),
        ]
        rng = random.Random(24)
        for _ in range(3000):
            bits = rng.choice((4, 30, 60, 200, 1100))
            x, y = (rng.randrange(-(2**bits), 2**bits) for _ in range(2))
            den = rng.choice((1, -1)) * rng.randrange(1, 2 ** rng.choice((3, 40, 1100)))
            d = rng.randrange(1, 200) * rng.choice((1, 4, 9, 25, 49, 4096, 4099**2))
            cases.append((x, y, d, den))
        for x, y, d, den in cases:
            want = field_f6(exactarith.QuadraticElement(Fraction(x, den), Fraction(y, den), d))
            got = cli._f6(x, y, den, exactarith.square_part(d))
            assert repr(got) == repr(want), (x, y, d, den)

    def test_exact_str_matches_the_field_str(self):
        # (x + y*sqrt(d)) / den printed off integers, against the QuadraticElement's str()
        limit = exactarith.FOLD_LIMIT
        cases = [
            (1, 1, 41, 4), (1, -1, 41, 4), (3, 1, 25, 12), (3, -1, 25, 12),  # the bounds
            (2, -1, 24, 2), (0, 3, 24, -7), (0, -3, 13, 6), (0, 0, 13, -7),  # x = 0
            (7, 0, 13, 3), (-7, 0, 24, -5), (6, 0, 24, 4),  # y = 0
            (5, 3, 13, -7), (-4, 1, 25, -3), (4, 2, 12, -6),  # den < 0
            (1, 1, (limit + 3) ** 2, 5), (1, 1, 13 * (limit + 3) ** 2, -5),  # past FOLD_LIMIT**2
        ]
        rng = random.Random(28)
        for _ in range(2000):
            digits = rng.choice((1, 3, 20, 1000))
            x, y = (rng.choice((0, 1, 1, 1)) * rng.randrange(-(10**digits), 10**digits)
                    for _ in range(2))
            den = rng.choice((1, -1)) * rng.randrange(1, 10 ** rng.choice((1, 2, 12, 1000)))
            d = rng.randrange(1, 200) * rng.choice((1, 4, 9, 25, 49, 4096, 4099**2, 4111**2))
            if rng.random() < 0.1:  # a square d: the value is rational
                d = rng.randrange(1, 10**6) ** 2
            cases.append((x, y, d, den))
        for x, y, d, den in cases:
            want = str(exactarith.QuadraticElement(Fraction(x, den), Fraction(y, den), d))
            assert cli._exact_str(x, y, den, exactarith.square_part(d)) == want, (x, y, d, den)

    def test_no_command_builds_a_field_element(self, capsys, monkeypatch):
        # every subcommand, in text and in --json: the exact values and their floats are read
        # off the reports' integers, so no Fraction and no QuadraticElement is built
        def refuse(*args, **kwargs):
            raise AssertionError("built a Fraction or a QuadraticElement")

        heads = [(3, "2/5"), (3, "-8"), (5, "3044/673"), (3, "1258/701")]
        for digit, alpha, k, p in ((1, 1, 1500, 3), (2, 1, 30, 5), (1, 2, 40, 10**20 + 39)):
            heads.append((p, "%d/%d" % generate_constant_head(digit, alpha, k, p)))
        bounds = [["-p", "3", "7/2"], ["-p", "3", "--beta0", "2", "--beta1", "5"],
                  ["-p", "100000007", "7/2"], ["-p", "5", "--", "-1793/100"]]
        units = [(3, "2/5"), (3, "1259/701"), (7, "-400/9"), (1000000007, "7/2")]  # a, b prime to p
        rationals = units + [(3, "365/54"), (5, "-1793/100")]
        monkeypatch.setattr(Fraction, "__new__", refuse)
        monkeypatch.setattr(exactarith.QuadraticElement, "__init__", refuse)
        for p, text in heads:
            payload = run_json(["head", "-p", str(p), "--json", "--", text], capsys)
            assert payload["exact_identity"] is (payload["head_len"] is not None)
            code, out, _ = run_cli(["head", "-p", str(p), "--", text], capsys)
            assert code == 0 and "theta = " in out
        for argv in bounds:
            assert run_json(["bound", "--json", *argv], capsys)["exact_certificate"] is True
            code, out, _ = run_cli(["bound", *argv], capsys)
            assert code == 0 and "lambda1 = " in out and "lambda2 = " in out
        for p, text in rationals:
            commands = [["expand-browkin"], ["digits", "-n", "12"]]
            if (p, text) in units:
                commands.append(["expand-schneider"])
            for command in commands:
                argv = [*command, "-p", str(p), "--", text]
                assert run_json([argv[0], "--json", *argv[1:]], capsys)
                code, out, _ = run_cli(argv, capsys)
                assert code == 0 and out
            code, out, _ = run_cli(["verify", "-p", str(p), "--", text], capsys)
            assert code == 0 and "FAIL" not in out
        code, out, err = run_cli(["sweep", "--primes", "3,5,7", "--max-num", "9", "--max-den", "9"],
                                 capsys)
        assert code == 0 and out.startswith("p,a,b,") and err.startswith("sweep ok")


class TestHeadCommand:
    def test_json_schema(self, capsys):
        payload = run_json(["head", "-p", "3", "--json", "2/5"], capsys)
        assert list(payload) == [
            "T1_float",
            "T2_float",
            "theta_float",
            "exact_exponent",
            "head_len",
            "exact_identity",
        ]
        assert payload["exact_exponent"] == 3
        assert payload["head_len"] == 4
        assert payload["exact_identity"] is True
        assert abs(payload["T1_float"] - (-1.303)) < 1e-3

    def test_one_step_head(self, capsys):
        # -8 = 1 - 9: the (1,2) step once, then the stationary tail, where theta = 1
        code, out, err = run_cli(["head", "-p", "3", "--json", "--", "-8"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "T1_float": -2.54138, "T2_float": 3.54138, "theta_float": 1.0,
            "exact_exponent": 0, "head_len": 1, "exact_identity": True,
        }
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "09fd8fa1dc2a488878e1aafe5db91d027230c98f574a0bdeea092efc9013fb6f"
        )

    def test_explicit_pair(self, capsys):
        payload = run_json(
            ["head", "-p", "3", "--digit", "1", "--exponent", "2", "--json", "1259/701"],
            capsys,
        )
        assert payload["head_len"] == 6

    def test_head_past_the_float_range_answers(self, capsys):
        # theta of the k = 1500 (1,1) head at p = 3 overflows a float: no "(~...)"
        # in text, null in JSON with the key kept, and the length still certified
        a, b = generate_constant_head(1, 1, 1500, 3)
        code, out, err = run_cli(["head", "-p", "3", f"{a}/{b}"], capsys)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[1] == "T1 ~ -1.30278, T2 ~ 2.30278"
        assert lines[2].startswith("theta = ") and "~" not in lines[2]
        assert lines[3:] == ["exact exponent: 1500", "head length: 1501", "exact identity: true"]
        payload = run_json(["head", "-p", "3", "--json", f"{a}/{b}"], capsys)
        assert payload == {
            "T1_float": -1.30278, "T2_float": 2.30278, "theta_float": None,
            "exact_exponent": 1500, "head_len": 1501, "exact_identity": True,
        }

    def test_no_identity_prints_no_length(self, capsys):
        # the (1,40) head of this input has length 1, then (1,2), (1,1), ... follow
        text = "147808829414345923291767879288269439998/1478088294143459233039255447473263687"
        code, out, _ = run_cli(["head", "-p", "3", "--", text], capsys)
        assert code == 0
        assert out.splitlines()[-2:] == ["head length: unknown", "exact identity: false"]
        payload = run_json(["head", "-p", "3", "--json", "--", text], capsys)
        assert payload["head_len"] is None and payload["exact_exponent"] is None

    @pytest.mark.parametrize("option", ["--digit", "--exponent"])
    def test_one_option_takes_the_other_from_the_first_step(self, option, capsys):
        # 2/5 at p=3 starts with (1,1): either option at 1 leaves the pair as it was
        code, out, _ = run_cli(["head", "-p", "3", option, "1", "2/5"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "head pair: (1,1) (p=3)"
        assert "head length: 4" in out.splitlines()

    def test_pair_comes_from_first_step_without_expanding(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "schneider_expand", unreachable("schneider_expand"))
        monkeypatch.setattr(schneider, "schneider_expand", unreachable("schneider_expand"))
        assert run_json(["head", "-p", "3", "--json", "2/5"], capsys)["head_len"] == 4
        a, b = generate_constant_head(1, 2, 300, 3)
        code, out, _ = run_cli(["head", "-p", "3", f"{a}/{b}"], capsys)
        assert code == 0
        assert "head pair: (1,2) (p=3)" in out
        assert "head length: 301" in out

    def test_output_is_pinned(self):
        # text and --json for the benchmark's twelve head triples at k = 20 and
        # 200 and the three table fixtures; any change to a byte moves the hash
        triples = [
            (1, 2, 3), (1, 3, 3), (1, 2, 5), (2, 3, 5), (1, 2, 7), (2, 2, 7),
            (3, 3, 7), (1, 1, 11), (2, 2, 11), (1, 1, 13), (1, 1, 101), (2, 1, 101),
        ]
        inputs = [(3, "2/5"), (3, "1259/701"), (5, "3044/673")]
        for digit, alpha, p in triples:
            for k in (20, 200):
                a, b = generate_constant_head(digit, alpha, k, p)
                inputs.append((p, f"{a}/{b}"))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            for p, text in inputs:
                for flags in ([], ["--json"]):
                    assert main(["head", "-p", str(p), *flags, "--", text]) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
            "b77a89d1f2ac75553910f6b4d74e6d213ae981e8b7a28f7aa919113a8ad2b2a7"
        )

    def test_exponent_past_the_input_is_usage_error(self, capsys):
        # p**alpha > |a| + (p-1)*b >= |a - digit*b|: no expansion of 2/5 starts with (1, alpha),
        # so alpha > 3 is refused before p**alpha is built, however large alpha is
        payload = run_json(["head", "-p", "3", "--digit", "1", "--exponent", "3", "--json", "2/5"],
                           capsys)
        assert payload["head_len"] is None
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["head", "-p", "3", "--digit", "1", "--exponent", "1000000", "--json", "2/5"])
        assert time.perf_counter() - start < 1
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "padic-cf head: error: exponent must be at most 3 for 2/5 at p=3, got 1000000\n"
        )

    @pytest.mark.parametrize(
        "p, text, message",
        [
            ("3", "-1", "input has no head step to analyze"),  # stationary from the start
            ("5", "3", "input has no head step to analyze"),  # finite end on the first step
            ("3", "3/5", "numerator must be coprime to p"),
            ("3", "5/3", "denominator must be coprime to p"),
        ],
    )
    def test_usage_errors(self, p, text, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["head", "-p", p, "--", text])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"padic-cf head: error: {message}\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("9/2", "numerator must be coprime to p"),
            ("2/9", "denominator must be coprime to p"),
        ],
    )
    def test_explicit_pair_takes_only_expandable_inputs(self, text, message, capsys):
        # with --digit and --exponent no expansion step runs, and the input is still checked
        with pytest.raises(SystemExit) as exc:
            main(["head", "-p", "3", "--digit", "1", "--exponent", "1", "--", text])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"padic-cf head: error: {message}\n")

    @pytest.mark.parametrize("p", [100000000000000000039, 10**21 + 117])
    def test_heads_certify_at_large_p(self, p, capsys):
        for digit, alpha, k in ((1, 2, 5), (2, 3, 3), (1, 2, 40)):
            a, b = generate_constant_head(digit, alpha, k, p)
            payload = run_json(["head", "-p", str(p), "--json", f"{a}/{b}"], capsys)
            assert payload["head_len"] == k + 1 and payload["exact_exponent"] == k
            assert payload["exact_identity"] is True


class TestVerifyCommand:
    def test_ok(self, capsys):
        code, out, _ = run_cli(["verify", "-p", "3", "2/5"], capsys)
        assert code == 0
        assert "FAIL" not in out
        assert "ok: browkin reconstruction" in out
        assert "ok: schneider reconstruction" in out

    def test_skips_schneider_when_p_divides(self, capsys):
        code, out, _ = run_cli(["verify", "-p", "3", "365/54"], capsys)
        assert code == 0
        assert "schneider" not in out

    def test_output_is_pinned(self):
        # the README fixtures and 300-digit inputs, some with p**3 in the
        # denominator (no Schneider checks); any change to a byte moves the hash
        inputs = [(3, "365/54"), (3, "77/18"), (5, "-1793/100"), (3, "5"), (3, "2/5"),
                  (3, "1259/701"), (5, "3044/673"), (3, "-1")]
        rng = random.Random(12)
        for p in (3, 5, 7, 101):
            for shift in (0, 3):
                a = rng.randrange(10**299, 10**300) * rng.choice((1, -1))
                inputs.append((p, f"{a}/{rng.randrange(10**299, 10**300) * p**shift}"))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            for p, text in inputs:
                assert main(["verify", "-p", str(p), "--", text]) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
            "3b184fa67131d7d5d13095dcfda63a82d0131023b10808003070668ed89ed7f8"
        )


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "argv",
        [
            ["expand-browkin", "-p", "3", "--json", "365/54"],
            ["expand-schneider", "-p", "3", "--json", "2/5"],
            ["digits", "-p", "5", "-n", "7", "--json", "--", "-1793/100"],
            ["bound", "-p", "5", "--json", "--beta0", "4", "--beta1", "13"],
            ["head", "-p", "5", "--json", "3044/673"],
        ],
    )
    def test_reemission_is_byte_identical(self, argv, capsys):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        line = out.strip()
        assert json.dumps(json.loads(line)) == line

    @pytest.mark.parametrize(
        "p, make",
        [
            (3, lambda: generate_constant_head(1, 2, 2000, 3)),  # alpha = 2
            (3, lambda: negated(generate_constant_head(1, 2, 2000, 3))),
            (7, lambda: generate_constant_head(3, 3, 2000, 7)),  # alpha = 3
            (3, lambda: (7, 2)),  # a finite Schneider end
            (3, lambda: (-1793, 100)),
        ],
        ids=["head-1-2-3", "negated-head-1-2-3", "head-3-3-7", "finite-end", "negative"],
    )
    def test_per_step_arrays_match_the_dict_payload(self, p, make, capsys):
        # the line printed equals json.dumps of the payload built as dicts, per step
        a, b = make()
        text = f"{a}/{b}"
        sch = schneider.schneider_expand(a, b, p)
        want = json.dumps({
            "p": p, "a": a, "b": b,
            "head": [{"b": d, "alpha": e} for d, e in sch.steps],
            "stationary_from": sch.stationary_from,
            "finite_end": sch.finite_end,
        })
        assert run_cli(["expand-schneider", "-p", str(p), "--json", "--", text], capsys) == (
            0, want + "\n", ""
        )
        bro = browkin.browkin_expand(a, b, p)
        want = json.dumps({
            "p": p,
            "input": text,
            "quotients": [{"num": x, "den": den} for x, den in quotient_pairs(bro)],
            "k": k_trace(bro),
            "beta": beta_trace(bro),
            "bound_N": browkin.browkin_bound(bro.beta0, beta1_abs(bro), p).n_bound,
            "reconstructed": True,
        })
        assert run_cli(["expand-browkin", "-p", str(p), "--json", "--", text], capsys) == (
            0, want + "\n", ""
        )


class TestSweepCommand:
    def test_csv_contract(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        code, _, err = run_cli(
            ["sweep", "--primes", "3,5", "--max-num", "8", "--max-den", "8",
             "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        assert "sweep ok" in err
        with open(out_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "p", "a", "b", "browkin_len", "bound_N", "beta0_abs", "beta1_abs",
            "slack", "schneider_steps_to_stationary",
        ]
        keys = []
        for row in rows[1:]:
            p, a, b = int(row[0]), int(row[1]), int(row[2])
            keys.append((p, b, a))
            assert int(row[7]) >= 0  # slack
            if row[8] != "":
                assert int(row[8]) >= 0
            if a % p == 0 or b % p == 0:
                assert row[8] == ""
        assert keys == sorted(keys)

    def test_stdout_mode(self, capsys):
        code, out, err = run_cli(["sweep", "--primes", "3", "--max-num", "2", "--max-den", "2"], capsys)
        assert code == 0
        assert out.splitlines()[0].startswith("p,a,b,")
        assert "sweep ok" in err

    def test_unopenable_out_path_is_a_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "rows.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--primes", "3", "--max-num", "2", "--max-den", "2",
                  "--out", str(out_path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.splitlines()[-1]
        assert last.startswith(f"padic-cf sweep: error: cannot open {out_path}: ")
        assert "FAIL" not in captured.err

    def test_grid_output_is_pinned(self, capsys):
        # 3,331 CSV lines; any change to a row, its order or its format moves the hash
        code, out, err = run_cli(
            ["sweep", "--primes", "3,5,7", "--max-num", "30", "--max-den", "30"], capsys
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "af553650d1041f496064792fc4bbde6b8e65bdb7857976ba402cb72ba46b1988"
        )
        assert err == "sweep ok: max browkin_len 6, min slack 0, max steps to stationarity 13\n"

    def test_rows_build_no_fraction(self, capsys):
        # the sweep passes each row's a, b through as integers: a profile hook
        # sees no call into fractions.py (no Fraction built, compared or read)
        seen = []

        def hook(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == fractions.__file__:
                seen.append(frame.f_code.co_name)

        sys.setprofile(hook)
        try:
            code = main(["sweep", "--primes", "3,5", "--max-num", "12", "--max-den", "12"])
        finally:
            sys.setprofile(None)
        assert code == 0
        assert "sweep ok" in capsys.readouterr().err
        assert seen == []

    def test_one_bound_call_per_row(self, capsys, monkeypatch):
        # one kernel and one bound call per row that misses its line's store, the kernel handed
        # the row's first step; a row that takes a stored tail takes the report stored with it
        bound, calls = oracle.browkin_bound, []
        kernel = kernel_rows(monkeypatch)["certified_browkin"]
        expand, expanded = oracle.browkin_expand, []

        def counted(*args):
            calls.append(args)
            return bound(*args)

        def unreachable(*args):
            raise AssertionError("browkin_expand called browkin_bound")

        monkeypatch.setattr(oracle, "browkin_bound", counted)
        monkeypatch.setattr(oracle, "browkin_expand", lambda *args: expanded.append(args) or expand(*args))
        monkeypatch.setattr(browkin, "browkin_bound", unreachable)
        code, out, _ = run_cli(["sweep", "--primes", "3", "--max-num", "5", "--max-den", "5"], capsys)
        assert code == 0
        rows = sweep_rows(out)
        assert 0 < len(kernel) < len(rows)
        assert [args[:3] for args in expanded] == [(a, b, p) for p, a, b in rows if (p, a, b) in kernel]
        assert all(len(args) == 4 and args[3] for args in expanded)
        assert len(calls) == len(kernel)

    def test_each_row_takes_its_first_step_once(self, capsys, monkeypatch):
        # each rule that applies to a row runs once for it, counted through oracle's globals and
        # the kernel modules' own, and a row that misses its line's store hands its kernel the
        # step that rule gave: no kernel row computes its first step again.  No step function
        # runs, so no row checks its input again: the line's filter admits only inputs in
        # lowest terms, and sweep checks each prime once
        taken, handed, checked = {}, [], []
        for module in (oracle, browkin, schneider):
            for name in set(RULES) & set(vars(module)):
                def counted(*args, rule=getattr(module, name), name=name):
                    out = rule(*args)
                    taken.setdefault((name, *args), []).append(out)
                    return out

                monkeypatch.setattr(module, name, counted)
            for name in {"browkin_betas", "schneider_first_step"} & set(vars(module)):
                monkeypatch.setattr(module, name, lambda *args, name=name: checked.append(name))
        for rule, (kernel, _) in RULES.items():
            def handing(a, b, p, *first, expand=getattr(oracle, kernel), rule=rule):
                handed.append((rule, p, a, b, first))
                return expand(a, b, p, *first)

            monkeypatch.setattr(oracle, kernel, handing)
        code, out, _ = run_cli(["sweep", "--primes", "3,5,7", "--max-num", "30", "--max-den", "30"], capsys)
        assert code == 0 and checked == []
        rows = sweep_rows(out)
        want = {("browkin_first", *browkin_rule_args(p, a, b)): (p, a, b) for p, a, b in rows}
        want |= {("schneider_first", a, b, p, pow(b, -1, p)): (p, a, b) for p, a, b in rows if a % p and b % p}
        assert taken.keys() == want.keys() and all(len(outs) == 1 for outs in taken.values())
        assert 0 < len(handed) < len(want)
        rules = {(key[0], *row): outs[0] for key, outs in taken.items() for row in [want[key]]}
        for rule, p, a, b, first in handed:
            out = rules[rule, p, a, b]
            if rule == "browkin_first":
                k0, beta0, _, _ = browkin.browkin_line(b, p)
                assert first == ((browkin.BrowkinStep(k0, out[0]), beta0, out[1]),), (p, a, b)
            else:
                assert first == (None if out is None else (schneider.SchneiderStep(*out[:2]), out[2]),), (p, a, b)

    def test_one_primality_test_per_step_and_bound_call(self, capsys, monkeypatch):
        # above exactarith's prime table each is_odd_prime call runs 13 Miller-Rabin bases: a
        # sweep runs one per --primes entry and one per bound call, and none for a row's first
        # step or in a kernel, which goes on from the step its row took
        calls = {}

        def counted(name, function):
            def count(*args):
                calls[name] = calls.get(name, 0) + 1
                return function(*args)
            return count

        monkeypatch.setattr(exactarith, "is_odd_prime", counted("is_odd_prime", exactarith.is_odd_prime))
        for name in ("browkin_bound", "browkin_expand", "schneider_expand"):
            monkeypatch.setattr(oracle, name, counted(name, getattr(oracle, name)))
        argv = ["sweep", "--primes", "65537,5", "--max-num", "40", "--max-den", "20"]
        assert run_cli(argv, capsys)[0] == 0
        assert calls["browkin_expand"] and calls["schneider_expand"]
        assert calls["is_odd_prime"] == 2 + calls["browkin_bound"]

    @staticmethod
    def watch_stores(monkeypatch):
        # (kind, p, b) -> the most entries the line's store held once a row of it stored its tail
        most, line = {}, []
        certify, store = oracle.certified_line, oracle._store

        def watched_line(p, b, max_num):
            line[:] = p, b
            yield from certify(p, b, max_num)

        def watched_store(tails, key, entry):
            store(tails, key, entry)
            kind = "browkin" if len(entry) == 4 else "schneider"  # a Schneider entry has 7 fields
            most[kind, *line] = max(most.get((kind, *line), 0), len(tails))

        monkeypatch.setattr(oracle, "certified_line", watched_line)
        monkeypatch.setattr(oracle, "_store", watched_store)
        return most

    def test_rows_past_the_store_cap_run_the_kernel(self, capsys, monkeypatch):
        # with the cap at 1 the 30x30 grid is byte for byte the default one: each line's store
        # holds one tail, the last kernel row's, and a row whose tail was dropped runs the kernel
        argv = ["sweep", "--primes", "3,5,7", "--max-num", "30", "--max-den", "30"]
        counts = []
        for cap in (oracle.TAIL_STORE_CAP, 1):
            monkeypatch.setattr(oracle, "TAIL_STORE_CAP", cap)
            expand, expanded = oracle.browkin_expand, []
            monkeypatch.setattr(oracle, "browkin_expand", lambda *args: expanded.append(args) or expand(*args))
            most = self.watch_stores(monkeypatch)
            counts.append((run_cli(argv, capsys), len(expanded), max(most.values())))
            monkeypatch.undo()
        (default, kernel_rows, largest), (capped, capped_rows, capped_largest) = counts
        assert capped == default and default[0] == 0
        assert capped_largest == 1 < largest <= oracle.TAIL_STORE_CAP
        assert kernel_rows < capped_rows

    def test_a_line_store_holds_at_most_its_cap(self, capsys, monkeypatch, tmp_path):
        # a store holds one tail per kernel row of its line, so a long line reaches the cap, and
        # a full store drops its oldest entry: no line store grows past it
        most = self.watch_stores(monkeypatch)
        argv = ["sweep", "--primes", "3", "--max-num", "20000", "--max-den", "3"]
        code, _, err = run_cli(argv + ["--out", str(tmp_path / "rows.csv")], capsys)
        assert code == 0 and err.startswith("sweep ok")
        # at b = 3 rows with 3 | a are skipped, and no row runs Schneider
        assert most == {("browkin", 3, 1): oracle.TAIL_STORE_CAP, ("schneider", 3, 1): oracle.TAIL_STORE_CAP,
                        ("browkin", 3, 2): oracle.TAIL_STORE_CAP, ("schneider", 3, 2): oracle.TAIL_STORE_CAP,
                        ("browkin", 3, 3): oracle.TAIL_STORE_CAP}

    def test_a_mirror_with_one_sign_kept_fails(self, capsys, monkeypatch):
        # browkin_first planted to hand row 43/2 the key -delta_0: the row takes the tail of the
        # opposite delta_0, the one its own negates, and the stored beta_1 its resumed
        # reconstruction reads gives another value, so the sweep stops at that row with no row
        # written for it
        rule = oracle.browkin_first

        def planted(*args):
            x, delta = rule(*args)
            return x, -delta if args == browkin_rule_args(3, 43, 2) else delta

        monkeypatch.setattr(oracle, "browkin_first", planted)
        code, out, err = run_cli(["sweep", "--primes", "3", "--max-num", "50", "--max-den", "3"], capsys)
        assert code == 1
        assert err == "FAIL: browkin reconstruction failed at p=3, 43/2\n"
        rows = out.splitlines()
        assert rows[-1].startswith("3,41,2,")
        assert not any(row.startswith("3,43,2,") for row in rows)

    def test_a_mirror_report_with_another_beta1_is_not_printed(self, capsys, monkeypatch):
        # every report is planted with |beta_1| + 1, the ones a line stores among them: no row
        # reuses one, whether it takes its tail by delta_0 or negated by -delta_0, each runs the
        # bound on its own betas and prints that bound beside the planted |beta_1|
        argv = ["sweep", "--primes", "3,5", "--max-num", "20", "--max-den", "6"]
        default = run_cli(argv, capsys)[1].splitlines()
        bound, calls = oracle.browkin_bound, []

        def planted(*args):
            calls.append(args)
            report = bound(*args)
            return report._replace(beta1_abs=report.beta1_abs + 1)

        monkeypatch.setattr(oracle, "browkin_bound", planted)
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        rows = out.splitlines()
        assert len(calls) == len(rows) - 1
        unplanted = [row.split(",") for row in rows[1:]]
        for fields in unplanted:
            fields[6] = str(int(fields[6]) - 1)
        assert unplanted and [",".join(fields) for fields in unplanted] == default[1:]

    @pytest.mark.parametrize("argv, digest", SWEEP_GRIDS, ids=SWEEP_GRID_IDS)
    def test_derived_records_are_the_kernels(self, argv, digest, monkeypatch, tmp_path):
        # a row that takes its tail from its line's store, by delta_0, -delta_0 or y_1, builds no
        # record: it stands for its first step followed by the tail of the kernel row that stored
        # the key, negated for -delta_0, with that row's markers and tail value for Schneider.
        # That record is the kernel's record of the row, compared with == (the tail lemmas,
        # browkin and schneider docstrings), on every such row, and the CSV is pinned by its
        # sha256.  The grids: the 100x100 one; |a| up to 3,000, where rows with p | a take no
        # Schneider column; lines with p**k | b up to 27 = 3**3, 54 = 2*3**3 and 25 = 5**2; and
        # b up to 30, with lines with p | b up to 27.  Each sweep ends within 10 s
        kernel = kernel_rows(monkeypatch)
        path = tmp_path / "rows.csv"
        code, _, err = limited_run(["sweep", *argv, "--out", str(path)], 10)
        assert code == 0 and err.startswith("sweep ok")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        stores, derived = {}, {"browkin": set(), "schneider": set()}
        for p, a, b in sweep_rows(path.read_text()):
            browkin_tails, schneider_tails = stores.setdefault((p, b), ({}, {}))
            record = browkin.browkin_expand(a, b, p)
            first, _, delta = browkin.browkin_betas(a, b, p)
            if (p, a, b) in kernel["certified_browkin"]:
                browkin_tails[delta] = record.steps[1:]
            else:
                tail = browkin_tails.get(delta)
                if tail is None:  # the stored tail of -delta_0, negated
                    tail = tuple((k, -x) for k, x in browkin_tails[-delta])
                assert (first, *tail) == record.steps, (p, a, b)
                derived["browkin"].add((p, b))
            if a % p == 0 or b % p == 0:
                continue
            record = schneider.schneider_expand(a, b, p)
            first = schneider.schneider_first_step(a, b, p)
            if (p, a, b) in kernel["certified_schneider"]:
                if first is not None:
                    schneider_tails[first[1]] = record
            else:
                source = schneider_tails[first[1]]
                assert source._replace(a=a, b=b, steps=(first[0], *source.steps[1:])) == record, (p, a, b)
                derived["schneider"].add((p, b))
        assert derived["browkin"] and derived["schneider"]
        if argv[1] == "3,5":
            assert derived["browkin"] >= {(3, 9), (3, 27), (3, 54), (5, 25)}

    @pytest.mark.parametrize("argv, digest", SWEEP_GRIDS, ids=SWEEP_GRID_IDS)
    def test_every_row_through_its_kernel_gives_the_pinned_csv(self, argv, digest, monkeypatch, tmp_path):
        # with nothing ever stored, every row runs its kernels, and the CSV is byte for byte the
        # one the stores give: each derived row prints what its kernels print
        monkeypatch.setattr(oracle, "_store", lambda tails, key, entry: None)
        kernel = kernel_rows(monkeypatch)
        path = tmp_path / "rows.csv"
        code, _, err = limited_run(["sweep", *argv, "--out", str(path)], 20)
        assert code == 0 and err.startswith("sweep ok")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        rows = sweep_rows(path.read_text())
        assert kernel["certified_browkin"] == set(rows)
        assert kernel["certified_schneider"] == {(p, a, b) for p, a, b in rows if a % p and b % p}

    def test_a_translation_past_the_stationary_exclusion_fails(self, capsys, monkeypatch, tmp_path):
        # schneider_first planted without its a + b != 0 exclusion gives -1/1 the step (p-1, 1)
        # to y_1 = -1, the key -2/1 stored: the row stands for -2/1's one-step tail after that
        # step, which has -1's value, and the tail laws refuse it for -1/1, as its last step,
        # its own first where the tail is empty, is (p-1, 1), the stationary tail's own
        def planted(a, b, p, inverse):
            digit = a * inverse % p
            if a == digit * b:
                return None
            alpha, y1 = exactarith.vp_split(a - digit * b, p)
            return digit, alpha, y1

        monkeypatch.setattr(oracle, "schneider_first", planted)
        argv = ["sweep", "--primes", "3", "--max-num", "2", "--max-den", "1",
                "--out", str(tmp_path / "rows.csv")]
        assert run_cli(argv, capsys) == (1, "", "FAIL: schneider tail laws failed at p=3, -1/1\n")

    def test_a_translated_step_out_of_range_fails(self, capsys, monkeypatch, tmp_path):
        # browkin_first planted to move x_0 up by p**(1+k0), past p**(1+k0)/2 but with its key
        # kept: the sweep's first row, -100/1, hands the step to its kernel, whose record has
        # another value.  With the kernels taking their own, a row that takes a stored tail
        # fails the derived step range check, at the first such row, not written
        rule = oracle.browkin_first

        def planted(a, beta0, modulus, inverse):
            x, delta = rule(a, beta0, modulus, inverse)
            return x + modulus, delta

        monkeypatch.setattr(oracle, "browkin_first", planted)
        path = tmp_path / "rows.csv"
        argv = ["sweep", "--primes", "3,5,7", "--max-num", "100", "--max-den", "100", "--out", str(path)]
        assert run_cli(argv, capsys) == (1, "", "FAIL: browkin reconstruction failed at p=3, -100/1\n")
        kernels_take_their_own_first_step(monkeypatch)
        assert run_cli(argv, capsys) == (1, "", "FAIL: browkin derived step range failed at p=3, -99/1\n")
        rows = path.read_text().splitlines()
        assert rows[-1].startswith("3,-100,1,") and not any(row.startswith("3,-99,1,") for row in rows)

    @pytest.mark.parametrize("argv, digest", SWEEP_GRIDS, ids=SWEEP_GRID_IDS)
    def test_resumed_pairs_are_the_full_passes(self, argv, digest, monkeypatch, tmp_path):
        # every pair a row's reconstruction compares with a/b is the pair the full
        # back-substitution of the kernel's record of the row computes: cf_pair's up to the
        # sign s = beta_N, and schneider_pair's exactly.  A kernel row's is that pass; a derived
        # row resumes it from its line's store at level 1 (the resumption lemma, oracle
        # docstring).  The pairs are taken through oracle's _equals, each kind's after its rule
        pairs, kind, line = [], [], []
        equals, certify = oracle._equals, oracle.certified_line
        monkeypatch.setattr(oracle, "_equals", lambda pair, a, b: pairs.append((*kind, *line, pair, a, b))
                            or equals(pair, a, b))
        for name in RULES:
            monkeypatch.setattr(oracle, name, lambda *args, rule=getattr(oracle, name), name=name:
                                kind.__setitem__(slice(None), [name]) or rule(*args))

        def watched_line(p, b, max_num):
            line[:] = [p]
            yield from certify(p, b, max_num)

        monkeypatch.setattr(oracle, "certified_line", watched_line)
        path = tmp_path / "rows.csv"
        code, _, err = limited_run(["sweep", *argv, "--out", str(path)], 10)
        assert code == 0 and err.startswith("sweep ok")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        rows = sweep_rows(path.read_text())
        want = [("browkin_first", p, a, b) for p, a, b in rows]
        want += [("schneider_first", p, a, b) for p, a, b in rows if a % p and b % p]
        assert sorted(call[:2] + call[3:] for call in pairs) == sorted(want)
        for name, p, (num, den), a, b in pairs:
            if name == "browkin_first":
                record = browkin.browkin_expand(a, b, p)
                assert browkin.cf_pair(record.steps, p) in ((num, den), (-num, -den)), (p, a, b)
            else:
                record = schneider.schneider_expand(a, b, p)
                assert (num, den) == schneider.schneider_pair(record.steps, record.tail, p), (p, a, b)

    @pytest.mark.parametrize("rule, wrong, a", [
        ("browkin_first", lambda a, beta0, modulus, inverse, key: key - beta0 * modulus, -97),
        ("schneider_first", lambda a, b, p, inverse, key: key - b, -92),
    ], ids=["browkin", "schneider"])
    def test_a_translated_later_step_changed_fails(self, rule, wrong, a, capsys, monkeypatch, tmp_path):
        # a rule planted to hand every row a wrong key, the delta_0 of row a - p*b (p*b =
        # beta0 * p**(1+k0)) or the y_1 of row a - p**alpha_0*b.  The sweep's first row, -100/1,
        # hands it to its kernel, which goes on from it to another value.  With the kernels
        # taking their own, a row takes another row's tail, and its resumed reconstruction reads
        # the stored integers that go with it, not the row's own, so it fails at the first row
        # whose wrong key is stored, and that row is not written
        read = getattr(oracle, rule)

        def planted(*args):
            out = read(*args)
            return None if out is None else (*out[:-1], wrong(*args, out[-1]))

        monkeypatch.setattr(oracle, rule, planted)
        path = tmp_path / "rows.csv"
        argv = ["sweep", "--primes", "3,5,7", "--max-num", "100", "--max-den", "100", "--out", str(path)]
        check = rule.split("_")[0] + " reconstruction"
        assert run_cli(argv, capsys) == (1, "", f"FAIL: {check} failed at p=3, -100/1\n")
        kernels_take_their_own_first_step(monkeypatch)
        assert run_cli(argv, capsys) == (1, "", f"FAIL: {check} failed at p=3, {a}/1\n")
        rows = path.read_text().splitlines()
        assert rows[-1].startswith(f"3,{a - 1},1,") and not any(row.startswith(f"3,{a},1,") for row in rows)

    @pytest.mark.parametrize("first, check", [
        (lambda p, digit, alpha: (digit, alpha + 1), "schneider reconstruction"),
        (lambda p, digit, alpha: (p, alpha), "schneider derived step range"),
    ], ids=["exponent", "digit"])
    def test_a_translated_schneider_first_step_changed_fails(self, first, check, capsys, monkeypatch,
                                                             tmp_path):
        # schneider_first planted with its exponent raised by one, which the key y_1 does not
        # see, fails the resumed reconstruction; with its digit p, the derived step range.  Each
        # fails at the first row that takes a stored tail, which is not written, once the
        # kernels take their own first step: handed to the kernel of the sweep's first row,
        # -100/1, either gives a record of another value
        read = oracle.schneider_first

        def planted(a, b, p, inverse):
            out = read(a, b, p, inverse)
            return None if out is None else (*first(p, *out[:2]), out[2])

        monkeypatch.setattr(oracle, "schneider_first", planted)
        path = tmp_path / "rows.csv"
        argv = ["sweep", "--primes", "3,5,7", "--max-num", "100", "--max-den", "100", "--out", str(path)]
        assert run_cli(argv, capsys) == (1, "", "FAIL: schneider reconstruction failed at p=3, -100/1\n")
        kernels_take_their_own_first_step(monkeypatch)
        assert run_cli(argv, capsys) == (1, "", f"FAIL: {check} failed at p=3, -97/1\n")
        rows = path.read_text().splitlines()
        assert rows[-1].startswith("3,-98,1,") and not any(row.startswith("3,-97,1,") for row in rows)

    def test_closed_pipe_exits_141_quietly(self):
        # `sweep ... | head -1`: the reader takes one line and closes the pipe
        env = dict(os.environ, PYTHONPATH=str(SRC))
        argv = ["sweep", "--primes", "3", "--max-num", "100", "--max-den", "100"]
        with subprocess.Popen(
            [sys.executable, "-m", "padic_cf", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            assert proc.stdout.readline().startswith(b"p,a,b,")
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        assert proc.returncode == 141
        assert err == b""

    def test_bad_prime_list(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--primes", "3,4", "--max-num", "2", "--max-den", "2"])
        assert exc.value.code == 2


class TestWriteFailures:
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "-p", "3", "2/5"],
            ["head", "-p", "3", "--json", "2/5"],
            ["sweep", "--primes", "3", "--max-num", "3", "--max-den", "3"],
            ["sweep", "--primes", "3", "--max-num", "3", "--max-den", "3", "--out", "/dev/full"],
        ],
    )
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_full_device_exits_3(self, argv, unbuffered):
        # a write that fails is not a verification failure (1): exit 3, one line, no traceback;
        # block-buffered stdout fails only at a flush, and must not fail again at exit
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(SRC)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "wb") as full:
            done = subprocess.run(
                [sys.executable, "-m", "padic_cf", *argv],
                stdout=full, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        assert done.returncode == 3
        assert done.stderr.startswith(b"error: cannot write output: ")
        assert done.stderr.count(b"\n") == 1  # no traceback, and no "sweep ok" summary

    def test_failed_flush_exits_3(self, capsys, monkeypatch):
        # output held in a buffer fails when it is flushed, before main returns
        class FullBuffer(io.StringIO):
            def flush(self):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(sys, "stdout", FullBuffer())
        assert main(["verify", "-p", "3", "2/5"]) == 3
        assert capsys.readouterr().err == "error: cannot write output: [Errno 28] No space left on device\n"


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["expand-browkin", "-p", "4", "1/2"],
            ["expand-browkin", "-p", "9", "1/2"],
            ["expand-browkin", "-p", "2", "1/2"],
            ["expand-browkin", "-p", "3", "1/0"],
            ["expand-browkin", "-p", "3", "x"],
            ["expand-browkin", "-p", "3", "0"],
            ["head", "-p", "3", "--digit", "2", "--exponent", "1", "2/5"],
        ],
    )
    def test_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bound", "-p", "3", "--beta0", "5", "7/2"],
             "bound takes a rational or --beta0/--beta1, not both"),  # from _validate
            (["expand-schneider", "-p", "3", "3/5"],
             "numerator must be coprime to p"),  # a ValueError raised by the command
        ],
        ids=["validate", "command"],
    )
    def test_usage_names_the_subcommand(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: padic-cf {argv[0]} [-h] -p PRIME ")
        assert captured.err.endswith(f"\npadic-cf {argv[0]}: error: {message}\n")

    @staticmethod
    def library_rules():
        # (argv, message): each input rule the library raises ValueError for, on every
        # command it reaches; the CLI only reports it
        for p in ("9", "2"):
            for argv in (["expand-browkin", "-p", p, "2/5"], ["expand-schneider", "-p", p, "2/5"],
                         ["digits", "-p", p, "-n", "5", "2/5"], ["bound", "-p", p, "7/2"],
                         ["bound", "-p", p, "--beta0", "2", "--beta1", "5"], ["head", "-p", p, "2/5"],
                         ["head", "-p", p, "--digit", "1", "--exponent", "1", "2/5"],
                         ["verify", "-p", p, "2/5"]):
                yield argv, f"p must be an odd prime, got {p}"
        for command in ("expand-browkin", "bound", "verify"):
            yield [command, "-p", "3", "0"], "cannot expand zero"
        for command in ("expand-schneider", "head"):
            yield [command, "-p", "3", "0"], "numerator must be nonzero"
        yield ["digits", "-p", "3", "-n", "0", "2/5"], "count must be positive"
        yield ["head", "-p", "3", "--", "-222958/513481"], "|theta| < 1: no constant head to measure"
        yield ["head", "-p", "3", "--digit", "0", "--exponent", "1", "2/5"], "digit must be in 1..2, got 0"
        yield ["head", "-p", "3", "--digit", "1", "--exponent", "0", "2/5"], "exponent must be positive, got 0"
        yield ["bound", "-p", "3", "--beta0", "0", "--beta1", "0"], "beta0 magnitude must be >= 1"
        yield ["bound", "-p", "3", "--beta0", "1", "--beta1", "-1"], "beta1 magnitude must be >= 0"
        # every prime is checked before the CSV header is written
        yield ["sweep", "--primes", "3,9", "--max-num", "2", "--max-den", "2"], "p must be an odd prime, got 9"
        # and the sweep's ranges, a rule of the CLI's own
        yield ["sweep", "--primes", "3", "--max-num", "0", "--max-den", "1"], "sweep ranges must be positive"

    @pytest.mark.parametrize(
        "argv, message",
        [pytest.param(argv, message, id=" ".join(argv)) for argv, message in library_rules()],
    )
    def test_library_rule_is_the_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: padic-cf {argv[0]} [-h] ")
        assert captured.err.endswith(f"\npadic-cf {argv[0]}: error: {message}\n")
        assert captured.err.count("error:") == 1

    def test_prime_past_the_primality_limit(self, capsys):
        limit = "3317044064679887385961981"  # padic_cf.exactarith.PRIME_LIMIT
        for argv in (["expand-schneider", "-p", "3317044064679887385961983", "7/2"],
                     ["sweep", "--primes", f"3,{limit}", "--max-num", "2", "--max-den", "2"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"padic-cf {argv[0]}: error: p must be below {limit}, " in captured.err

    @pytest.mark.parametrize(
        "argv, unknown",
        [
            (["expand-browkin", "-p", "3", "--max-steps", "1", "365/54"], "--max-steps 365/54"),
            (["expand-schneider", "-p", "3", "--max-steps", "5", "1259/701"],
             "--max-steps 1259/701"),
            (["expand-schneider", "-p", "3", "--bogus", "365/53"], "--bogus"),
            (["expand-schneider", "-p", "3", "365/53", "--json", "--bogus=2"], "--bogus=2"),
        ],
        ids=["browkin-max-steps", "schneider-max-steps", "schneider-bogus",
             "schneider-bogus-after"],
    )
    def test_unknown_option_names_the_subcommand(self, argv, unknown, capsys):
        # nothing runs: in the --max-steps calls the number would otherwise be taken as the rational
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: padic-cf {argv[0]} [-h] -p PRIME ")
        assert captured.err.endswith(f"\npadic-cf {argv[0]}: error: unrecognized arguments: {unknown}\n")

    # each integer option in three forms int() reads but the CLI does not: a
    # non-ASCII digit, surrounding spaces and an underscore between digits
    INTEGER_OPTIONS = {
        "prime": (["expand-browkin", "-p", "{}", "365/54"], ["\u0663", " 3", "1_1"]),
        "count": (["digits", "-p", "3", "-n", "{}", "2/5"], ["\u0661\u0660", " 10 ", "1_0"]),
        "beta0": (["bound", "-p", "3", "--beta0", "{}", "--beta1", "5"], ["\u0662", "2 ", "1_2"]),
        "beta1": (["bound", "-p", "3", "--beta0", "2", "--beta1", "{}"], ["\u0665", " 5", "1_5"]),
        "digit": (["head", "-p", "3", "--digit", "{}", "2/5"], ["\u0661", " 1", "0_1"]),
        "exponent": (["head", "-p", "3", "--exponent", "{}", "2/5"], ["\u0661", "1 ", "0_1"]),
        "max-num": (["sweep", "--primes", "3", "--max-num", "{}", "--max-den", "1"], ["\u0661", " 1", "1_0"]),
        "max-den": (["sweep", "--primes", "3", "--max-num", "1", "--max-den", "{}"], ["\u0661", " 1", "1_0"]),
        "primes": (["sweep", "--primes", "{}", "--max-num", "1", "--max-den", "1"], ["\u0663", "3, 5", "1_1"]),
    }

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param([arg.format(value) for arg in argv], id=f"{option}-{form}")
            for option, (argv, values) in INTEGER_OPTIONS.items()
            for form, value in zip(("unicode", "spaces", "underscore"), values)
        ]
        + [pytest.param(["digits", "-p", " 3", "-n", "1_0", "2/5"], id="prime-and-count")],
    )
    def test_integer_options_take_ascii_digits_only(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: padic-cf {argv[0]} [-h] ")
        assert f"\npadic-cf {argv[0]}: error: " in captured.err
        assert "malformed integer" in captured.err or "malformed prime list" in captured.err

    def test_negative_rational_needs_separator(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["digits", "-p", "5", "-n", "3", "-1793/100"])
        assert exc.value.code == 2


@functools.cache
def _reference_parser():
    # the CLI's grammar written out add_argument by add_argument, apart from cli's table: the
    # top-level parser and each subcommand's, by name.  argparse alone parses with it, so it
    # writes the help, usage and error text each Python's argparse writes
    parser = argparse.ArgumentParser(
        prog="padic-cf",
        description="Exact Browkin and Schneider p-adic continued fractions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    integer = cli._parse_integer

    def add_prime(command_parser):
        command_parser.add_argument("-p", "--prime", type=integer, required=True, help="odd prime base")

    def add_rational(command_parser):
        command_parser.add_argument(
            "rational", help="rational input, 'num' or 'num/den' (negatives after --)"
        )

    eb = sub.add_parser("expand-browkin", help="Browkin expansion with length bound")
    add_prime(eb)
    eb.add_argument("--json", action="store_true")
    add_rational(eb)

    es = sub.add_parser("expand-schneider", help="Schneider expansion to stationarity")
    add_prime(es)
    es.add_argument("--json", action="store_true")
    add_rational(es)

    dg = sub.add_parser("digits", help="symmetric base-p digits")
    add_prime(dg)
    dg.add_argument("-n", "--count", type=integer, required=True, help="number of digits")
    dg.add_argument("--json", action="store_true")
    add_rational(dg)

    bd = sub.add_parser("bound", help="certified expansion-length bound")
    add_prime(bd)
    bd.add_argument("--beta0", type=integer, default=None, help="|beta_0| (with --beta1)")
    bd.add_argument("--beta1", type=integer, default=None, help="|beta_1| (with --beta0)")
    bd.add_argument("--json", action="store_true")
    bd.add_argument("rational", nargs="?", default=None)

    hd = sub.add_parser("head", help="constant-head length certificate")
    add_prime(hd)
    hd.add_argument(
        "--digit", type=integer, default=None, help="head digit (default: from expansion)"
    )
    hd.add_argument(
        "--exponent", type=integer, default=None, help="head exponent (default: from expansion)"
    )
    hd.add_argument("--json", action="store_true")
    add_rational(hd)

    vf = sub.add_parser("verify", help="run the full oracle battery on one input")
    add_prime(vf)
    add_rational(vf)

    sw = sub.add_parser("sweep", help="CSV bound-tightness sweep over coprime pairs")
    sw.add_argument("--primes", required=True, help="comma-separated odd primes")
    sw.add_argument("--max-num", type=integer, required=True)
    sw.add_argument("--max-den", type=integer, required=True)
    sw.add_argument("--out", default=None, help="CSV output path (default stdout)")
    return parser, sub.choices


def _top_level_parse(argv):
    # argv through the reference top-level parser, then its subcommand's, as cli parses every
    # argv off the canonical route
    parser, subparsers = _reference_parser()
    args, unknown = parser.parse_known_args(argv)
    command_parser = subparsers[args.command]
    if unknown:
        command_parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    return args, command_parser


class TestDispatch:
    """A canonical subcommand argv is read off the actions add_argument returned
    for the subcommand's table; every other argv goes to the top-level parser,
    which hands the rest of argv to the subcommand's parser.  Both routes give
    what the reference parser, the grammar written out add_argument by
    add_argument, gives."""

    ARGVS = [
        [],
        ["-h"],
        ["bogus"],
        ["expand-browkin"],
        ["expand-browkin", "-h"],
        ["expand-browkin", "-p", "3", "1/2", "--bogus"],
        ["--", "expand-browkin", "-p", "3", "1/2"],
        ["-p", "3", "expand-browkin", "1/2"],
        ["expand-browkin", "--prime=3", "1/2"],
        ["expand-browkin", "--pr", "3", "1/2"],
        ["expand-browkin", "-p", "3", "1/2", "-h"],
        ["expand-browkin", "-p", "3", "--", "1/2", "3/4"],
        ["expand-schneider", "-p3", "--json", "--", "-365/53"],
        ["digits", "-p", "5", "-n", "7", "--", "-1793/100"],
        ["bound", "-p", "3", "--beta0", "2", "--beta1", "5", "--json"],
        ["head", "-p", "3", "--json", "1259/701"],
        ["verify", "-p", "3", "2/5"],
        ["sweep", "--primes", "3,5", "--max-num", "3", "--max-den", "3"],
        ["sweep", "-h"],
        # each other subcommand's help, and each subcommand's usage error with nothing given
        ["expand-schneider", "-h"], ["digits", "-h"], ["bound", "-h"], ["head", "-h"], ["verify", "-h"],
        ["expand-schneider"], ["digits"], ["bound"], ["head"], ["verify"], ["sweep"],
        # the edges of the canonical route: each of these but the last four goes to argparse
        ["expand-browkin", "-p", "3", "-p", "5", "365/54"],
        ["expand-schneider", "-p", "3", "--json", "--json", "1/2"],
        ["expand-browkin", "-p", "-3", "1/2"],
        ["head", "-p", "3", "--digit", "-1", "1259/701"],
        ["head", "-p", "3", "-8"],
        ["expand-browkin", "-p", "3", "--"],
        ["bound", "-p", "3", "--"],
        ["bound", "-p", "3", "--", "7/2", "--"],
        ["digits", "-p", "3", "2/5", "-n"],
        ["sweep", "--primes", "3", "--max-num=3", "--max-den", "3"],
        ["expand-browkin", "365/54", "-p", "3"],
        ["expand-browkin", "-p", "3", ""],
        ["expand-browkin", "-p", "3", "--", "--"],
        ["bound", "--beta1", "5", "--beta0", "2", "-p", "3"],
        # each subcommand's non-canonical spellings: '=' values, abbreviations, attached values
        # and repeats, which argparse parses
        ["expand-schneider", "--prime=3", "--json", "2/5"],
        ["digits", "-p", "5", "--count=7", "--", "-1793/100"],
        ["bound", "-p", "3", "--beta0=2", "--beta1=5"],
        ["head", "-p", "3", "--digit=1", "--exponent=1", "2/5"],
        ["verify", "--prime=3", "2/5"],
        ["sweep", "--primes=3,5", "--max-num", "3", "--max-den", "2"],
        ["expand-schneider", "--pr", "3", "--js", "2/5"],
        ["bound", "--pri", "3", "--beta0", "2", "--beta1", "5", "--json", "--json"],
        ["head", "--prime", "3", "--dig", "1", "2/5"],
        ["sweep", "--pri", "3", "--max-n", "3", "--max-d", "2"],
        ["expand-browkin", "-p", "3", "--jso", "365/54"],
        ["digits", "-p5", "-n7", "2/5"],
        ["verify", "2/5", "-p3"],
        ["digits", "-p", "5", "-n", "7", "-n", "8", "2/5"],
        ["verify", "-p", "5", "-p", "3", "2/5"],
        ["sweep", "--primes", "3", "--max-num", "3", "--max-den", "2", "--max-den", "3"],
        ["expand-browkin", "--json", "-p", "3", "--json", "365/54"],
    ]

    # the Namespace of each ARGVS entry that parses; every other entry exits, with help or a
    # usage error, before any command runs
    NAMESPACES = {
        ("expand-browkin", "--prime=3", "1/2"):
            dict(command="expand-browkin", prime=3, json=False, rational="1/2"),
        ("expand-browkin", "--pr", "3", "1/2"):
            dict(command="expand-browkin", prime=3, json=False, rational="1/2"),
        ("expand-schneider", "-p3", "--json", "--", "-365/53"):
            dict(command="expand-schneider", prime=3, json=True, rational="-365/53"),
        ("digits", "-p", "5", "-n", "7", "--", "-1793/100"):
            dict(command="digits", prime=5, count=7, json=False, rational="-1793/100"),
        ("bound", "-p", "3", "--beta0", "2", "--beta1", "5", "--json"):
            dict(command="bound", prime=3, beta0=2, beta1=5, json=True, rational=None),
        ("head", "-p", "3", "--json", "1259/701"):
            dict(command="head", prime=3, digit=None, exponent=None, json=True, rational="1259/701"),
        ("verify", "-p", "3", "2/5"):
            dict(command="verify", prime=3, rational="2/5"),
        ("sweep", "--primes", "3,5", "--max-num", "3", "--max-den", "3"):
            dict(command="sweep", primes="3,5", max_num=3, max_den=3, out=None),
        ("expand-browkin", "-p", "3", "-p", "5", "365/54"):
            dict(command="expand-browkin", prime=5, json=False, rational="365/54"),
        ("expand-schneider", "-p", "3", "--json", "--json", "1/2"):
            dict(command="expand-schneider", prime=3, json=True, rational="1/2"),
        ("expand-browkin", "-p", "-3", "1/2"):
            dict(command="expand-browkin", prime=-3, json=False, rational="1/2"),
        ("head", "-p", "3", "--digit", "-1", "1259/701"):
            dict(command="head", prime=3, digit=-1, exponent=None, json=False, rational="1259/701"),
        ("head", "-p", "3", "-8"):
            dict(command="head", prime=3, digit=None, exponent=None, json=False, rational="-8"),
        ("bound", "-p", "3", "--"):
            dict(command="bound", prime=3, beta0=None, beta1=None, json=False, rational=None),
        ("sweep", "--primes", "3", "--max-num=3", "--max-den", "3"):
            dict(command="sweep", primes="3", max_num=3, max_den=3, out=None),
        ("expand-browkin", "365/54", "-p", "3"):
            dict(command="expand-browkin", prime=3, json=False, rational="365/54"),
        ("expand-browkin", "-p", "3", ""):
            dict(command="expand-browkin", prime=3, json=False, rational=""),
        ("expand-browkin", "-p", "3", "--", "--"):
            dict(command="expand-browkin", prime=3, json=False, rational="--"),
        ("bound", "--beta1", "5", "--beta0", "2", "-p", "3"):
            dict(command="bound", prime=3, beta0=2, beta1=5, json=False, rational=None),
        ("expand-schneider", "--prime=3", "--json", "2/5"):
            dict(command="expand-schneider", prime=3, json=True, rational="2/5"),
        ("digits", "-p", "5", "--count=7", "--", "-1793/100"):
            dict(command="digits", prime=5, count=7, json=False, rational="-1793/100"),
        ("bound", "-p", "3", "--beta0=2", "--beta1=5"):
            dict(command="bound", prime=3, beta0=2, beta1=5, json=False, rational=None),
        ("head", "-p", "3", "--digit=1", "--exponent=1", "2/5"):
            dict(command="head", prime=3, digit=1, exponent=1, json=False, rational="2/5"),
        ("verify", "--prime=3", "2/5"):
            dict(command="verify", prime=3, rational="2/5"),
        ("sweep", "--primes=3,5", "--max-num", "3", "--max-den", "2"):
            dict(command="sweep", primes="3,5", max_num=3, max_den=2, out=None),
        ("expand-schneider", "--pr", "3", "--js", "2/5"):
            dict(command="expand-schneider", prime=3, json=True, rational="2/5"),
        ("bound", "--pri", "3", "--beta0", "2", "--beta1", "5", "--json", "--json"):
            dict(command="bound", prime=3, beta0=2, beta1=5, json=True, rational=None),
        ("head", "--prime", "3", "--dig", "1", "2/5"):
            dict(command="head", prime=3, digit=1, exponent=None, json=False, rational="2/5"),
        ("sweep", "--pri", "3", "--max-n", "3", "--max-d", "2"):
            dict(command="sweep", primes="3", max_num=3, max_den=2, out=None),
        ("expand-browkin", "-p", "3", "--jso", "365/54"):
            dict(command="expand-browkin", prime=3, json=True, rational="365/54"),
        ("digits", "-p5", "-n7", "2/5"):
            dict(command="digits", prime=5, count=7, json=False, rational="2/5"),
        ("verify", "2/5", "-p3"):
            dict(command="verify", prime=3, rational="2/5"),
        ("digits", "-p", "5", "-n", "7", "-n", "8", "2/5"):
            dict(command="digits", prime=5, count=8, json=False, rational="2/5"),
        ("verify", "-p", "5", "-p", "3", "2/5"):
            dict(command="verify", prime=3, rational="2/5"),
        ("sweep", "--primes", "3", "--max-num", "3", "--max-den", "2", "--max-den", "3"):
            dict(command="sweep", primes="3", max_num=3, max_den=3, out=None),
        ("expand-browkin", "--json", "-p", "3", "--json", "365/54"):
            dict(command="expand-browkin", prime=3, json=True, rational="365/54"),
    }

    @staticmethod
    def run(argv):
        out, err = io.StringIO(newline=""), io.StringIO(newline="")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        return out.getvalue(), err.getvalue(), code

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "empty")
    def test_same_as_the_top_level_parse(self, argv, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
        got = self.run(argv)
        monkeypatch.setattr(cli, "_parse", _top_level_parse)
        assert got == self.run(argv)

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "empty")
    def test_pinned_namespace(self, argv, capsys):
        # cli and the reference parser each give the pinned Namespace, or each exit; the test
        # above compares the (stdout, stderr, exit code) of each exit
        want = self.NAMESPACES.get(tuple(argv))
        if want is None:
            with pytest.raises(SystemExit):
                cli._parse(argv)
            with pytest.raises(SystemExit):
                _top_level_parse(argv)
            return
        assert vars(cli._parse(argv)[0]) == want
        assert vars(_top_level_parse(argv)[0]) == want

    def test_subcommand_skips_the_top_level_parser(self, capsys, monkeypatch):
        parser, commands = cli._build_parser()
        calls = []
        parse = parser.parse_known_args
        monkeypatch.setattr(parser, "parse_known_args", lambda *a: calls.append(a) or parse(*a))
        assert main(["bound", "-p", "3", "7/2"]) == 0
        assert calls == []
        with pytest.raises(SystemExit):
            main(["bogus"])
        assert len(calls) == 1
        # a canonical subcommand argv never reaches the top-level parser, and every other one
        # reaches it exactly once: no second argparse route parses it
        off_route = 0
        for argv in self.ARGVS:
            if not argv or argv[0] not in commands:
                continue
            canonical = cli._canonical_args(commands[argv[0]][1], argv) is not None
            off_route += not canonical
            calls.clear()
            with contextlib.suppress(SystemExit):
                main(argv)
            assert len(calls) == (0 if canonical else 1), argv
        assert off_route >= 17

    def test_canonical_argv_skip_the_subcommand_parser(self, capsys, monkeypatch, tmp_path):
        # the benchmark's query shapes and the sweep's, text and --json, never reach argparse
        _, commands = cli._build_parser()
        calls = []
        for command_parser, _ in commands.values():
            parse = command_parser.parse_known_args
            monkeypatch.setattr(command_parser, "parse_known_args",
                                lambda *a, parse=parse: calls.append(a) or parse(*a))
        a, b = generate_constant_head(1, 2, 20, 3)
        argvs = [["sweep", "--primes", "3,5", "--max-num", "3", "--max-den", "2"],
                 ["sweep", "--out", str(tmp_path / "sweep.csv"), "--max-den", "2", "--max-num", "3",
                  "--primes", "3"],
                 ["verify", "-p", "3", "--", "-365/54"], ["verify", "365/54", "--prime", "3"],
                 ["bound", "--beta0", "2", "--beta1", "5", "-p", "3"]]
        for command, extra in (("expand-browkin", []), ("expand-schneider", []),
                               ("digits", ["-n", "64"]), ("bound", []), ("head", [])):
            for json_flag in ([], ["--json"]):
                argvs.append([command, "-p", "3", *extra, *json_flag, "--", f"{a}/{b}"])
                argvs.append([command, *json_flag, f"{a}/{b}", *extra, "--prime", "3"])
        for argv in argvs:
            assert main(argv) == 0, argv
        assert calls == []

    def test_same_as_argparse_on_a_corpus(self, monkeypatch, tmp_path):
        # seeded argv built from each subcommand's options: random order, repeats,
        # abbreviations, '=' and attached values, values that start with '-' or use non-ASCII
        # digits, 0-2 positionals, with and without '--'; each gives the same (stdout, stderr,
        # exit code) with the canonical route as with argparse alone, and each argv the route
        # accepts gives argparse's Namespace
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
        monkeypatch.chdir(tmp_path)  # where a sweep --out writes
        _, subparsers = _reference_parser()
        rng = random.Random(29)
        values = ["3", "5", "7", "2", "1", "-3", "\u0663", "0", "x"]
        rationals = ["1/2", "-7/2", "365/54", "2/5", "", "0", "-8", "1/0", "1259/701"]
        argvs = []
        for _ in range(3000):
            command = rng.choice(list(subparsers))
            canonical = rng.random() < 0.5
            tokens = []
            for action in subparsers[command]._actions:
                if not action.option_strings or action.default == argparse.SUPPRESS:
                    continue  # the positional, and -h (the fixed cases above test help)
                for _ in range(1 if canonical else rng.choice((0, 1, 1, 2))):
                    option = rng.choice(action.option_strings)
                    spelling = "exact" if canonical else rng.choice(("exact", "=", "abbrev"))
                    if spelling == "abbrev" and option.startswith("--"):
                        option = option[: rng.randrange(3, len(option) + 1)]
                    if action.nargs == 0:
                        tokens.append([option])
                        continue
                    value = rng.choice(values[:5] if canonical else values)
                    if spelling == "=":
                        tokens.append([option + ("" if len(option) == 2 else "=") + value])
                    else:
                        tokens.append([option, value])
            rng.shuffle(tokens)
            argv = [command, *chain.from_iterable(tokens)]
            for _ in range(1 if canonical else rng.choice((0, 1, 1, 2))):
                rational = rng.choice(rationals[:4] if canonical else rationals)
                if rng.random() < 0.5:
                    argv += ["--", rational]
                else:
                    argv.insert(rng.randrange(1, len(argv) + 1), rational)
            argvs.append(argv)

        got, accepted = [], 0
        for argv in argvs:
            args = cli._canonical_args(cli._build_parser()[1][argv[0]][1], argv)
            if args is not None:
                accepted += 1
                want, unknown = subparsers[argv[0]].parse_known_args(
                    argv[1:], argparse.Namespace(command=argv[0]))
                assert (list(vars(args).items()), []) == (list(vars(want).items()), unknown), argv
            got.append(self.run(argv))
        assert 0.3 < accepted / len(argvs) < 0.7
        monkeypatch.setattr(cli, "_canonical_args", lambda route, argv: None)
        for argv, output in zip(argvs, got):
            assert output == self.run(argv), argv


class TestJsonPairs:
    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [(1, 1)],
            [(2, 1)] * 40,
            [(i, 3 ** abs(i)) for i in range(-20, 20)],
            [(1, 1), (2, 1), (1, 1), (2, 1), (1, 2), (1, 1)],  # half distinct
            [(1, 1), (2, 1), (1, 1), (3, 1), (1, 2)],  # more than half
            [(-(10**400), 3), (10**400, 3)] * 3,
            [(1, 1), (2, 1), (1, 1), (2, 1), (1, 1), (1, 1)],  # a third distinct
            [(1, 1), (2, 1), (1, 2), (1, 1), (1, 1), (2, 1), (1, 1), (1, 1)],  # over a third
        ],
        ids=["empty", "one", "all-equal", "all-distinct", "half", "most", "large", "third",
             "over-third"],
    )
    def test_equals_json_dumps(self, rows):
        want = json.dumps([{"num": x, "den": y} for x, y in rows])
        assert cli._json_pairs(rows, "num", "den") == want

    def test_step_records(self):
        a, b = generate_constant_head(1, 2, 300, 3)
        for exp in (schneider.schneider_expand(a, b, 3), schneider.schneider_expand(365, 53, 101)):
            want = json.dumps([{"b": d, "alpha": e} for d, e in exp.steps])
            assert cli._json_pairs(exp.steps, "b", "alpha") == want
        exp = browkin.browkin_expand(-(10**300 + 7), 10**299 + 3, 101)
        want = json.dumps([{"num": x, "den": y} for x, y in quotient_pairs(exp)])
        assert cli._json_pairs(quotient_pairs(exp), "num", "den") == want

    def test_browkin_records_with_p(self):
        # Browkin step records (k, x) are written as (x, p**k) by the writer keyed by
        # exponent: k0 > 0 and repeated rows at p = 3, distinct rows at the larger primes
        for a, b, p in ((-(10**300 + 7), 3**5 * (10**299 + 3), 3), (365, 54, 3),
                        (-(10**300 + 7), 10**299 + 3, 101), (10**300 + 7, 7 * 10**9 + 49, 10**9 + 7),
                        (1, 1, 3), (-2, 9, 3)):
            exp = browkin.browkin_expand(a, b, p)
            want = json.dumps([{"num": x, "den": y} for x, y in quotient_pairs(exp)])
            assert cli._quotients(exp.steps, p, True)[0] == want, (a, b, p)

    def test_browkin_text_quotients(self):
        # the same pass in text: x/p**k, or x alone at k = 0, beside the ks
        for a, b, p in ((365, 54, 3), (-(10**300 + 7), 10**299 + 3, 101), (1, 1, 3), (-2, 9, 3),
                        (10**300 + 7, 7 * 10**9 + 49, 10**9 + 7)):
            exp = browkin.browkin_expand(a, b, p)
            want = ", ".join(str(x) if y == 1 else f"{x}/{y}" for x, y in quotient_pairs(exp))
            assert cli._quotients(exp.steps, p, False) == (want, tuple(k_trace(exp))), (a, b, p)


class TestJsonPairRuns:
    """_json_pairs writes _RUN_MIN or more rows all equal, a constant head, as one text
    repeated; every mix of runs and other rows must still be json.dumps' text."""

    R = schneider._RUN_MIN // 2  # the cases' runs are 2*R = _RUN_MIN rows or more

    @staticmethod
    def want(rows, p=None):
        if p is None:
            return json.dumps([{"b": x, "alpha": y} for x, y in rows])
        return json.dumps([{"num": x, "den": p**k} for k, x in rows])

    def cases(self):
        R, step = self.R, schneider.SchneiderStep
        shared, other = step(1, 2), step(2, 1)
        mixed = [step(1, 1), other, step(1, 1), step(4, 3)]
        return {
            "start": [shared] * (2 * R) + mixed,
            "middle": mixed + [shared] * (3 * R + 5) + mixed,
            "end": mixed + [shared] * (2 * R),
            "shortest-run": [shared] * (2 * R),
            "one-short": [shared] * (2 * R - 1),
            "one-short-between": mixed + [shared] * (2 * R - 1) + mixed,
            "two-runs": [shared] * (2 * R + 1) + [other] * (5 * R),
            "runs-apart": [shared] * (2 * R) + mixed + [other] * (2 * R) + mixed + [shared] * (7 * R),
            "equal-not-identical": [step(1, 2) for _ in range(5 * R)],
            "identical-and-equal": [shared] * (2 * R) + [step(1, 2) for _ in range(3 * R)],
        }

    def test_equals_json_dumps(self):
        for name, rows in self.cases().items():
            assert cli._json_pairs(rows, "b", "alpha") == self.want(rows), name
            assert cli._json_pairs(tuple(rows), "b", "alpha") == self.want(rows), name

    def test_browkin_records_that_are_one_object(self):
        for name, rows in self.cases().items():
            records = [browkin.BrowkinStep(*row) for row in rows]  # (k, x) = (digit, alpha)
            shared = {id(row): record for row, record in zip(rows, records)}
            records = [shared[id(row)] for row in rows]  # one object where rows had one
            assert cli._quotients(records, 5, True)[0] == self.want(records, 5), name

    def test_a_run_is_formatted_once(self, monkeypatch):
        # a constant head's record goes through _json_rows once, alone, whatever the head's
        # length; rows that are not one run, a run that ends inside them included, go through
        # it once, all of them
        calls = []
        json_rows = cli._json_rows
        monkeypatch.setattr(cli, "_json_rows", lambda part, *args: calls.append(len(part)) or json_rows(part, *args))
        for name, want in (("shortest-run", [1]), ("equal-not-identical", [1]), ("start", [2 * self.R + 4]),
                           ("one-short", [2 * self.R - 1])):
            calls.clear()
            rows = self.cases()[name]
            assert cli._json_pairs(rows, "b", "alpha") == self.want(rows)
            assert calls == want, name


class TestInputDigits:
    """Each command that prints its input prints str() of the reduced pair: argv's own digits
    when they are canonical (no leading zero, and in lowest terms, as the command's own
    certificate proves), else the converted pair, which the rerun rule reduces."""

    # (canonical, spellings of the same value) for inputs prime to 3
    SPELLINGS = [
        ("-7/5", ["-007/5", "-7/05", "-14/10", "-0007/0005"]),
        ("11", ["11/1", "011", "22/2", "011/001"]),
        ("2/5", ["02/5", "4/10", "2/005"]),
    ]
    COMMANDS = [
        ["expand-browkin", "-p", "3"], ["expand-schneider", "-p", "3"], ["digits", "-p", "3", "-n", "8"],
    ]

    def test_parse_input(self):
        assert cli._parse_input("-7/5") == ((-7, 5), ("-7", "5"))
        assert cli._parse_input("5") == ((5, 1), ("5", "1"))
        assert cli._parse_input("5/1") == ((5, 1), ("5", "1"))
        assert cli._parse_input("0") == ((0, 1), ("0", "1"))
        # the pair as spelled, not reduced; argv's digits wherever neither part has a leading zero
        for text, pair, digits, reduced in (
            ("-007/5", (-7, 5), None, (-7, 5)), ("-0", (0, 1), None, (0, 1)), ("-0/7", (0, 7), None, (0, 1)),
            ("0/5", (0, 5), ("0", "5"), (0, 1)), ("4/6", (4, 6), ("4", "6"), (2, 3)),
            ("5/01", (5, 1), None, (5, 1)), ("00", (0, 1), None, (0, 1)),
            ("-10/15", (-10, 15), ("-10", "15"), (-2, 3)),
        ):
            assert cli._parse_input(text) == (pair, digits), text
            assert parse_rational(text) == reduced, text

    def test_spellings_print_what_str_prints(self, capsys):
        for canonical, spellings in self.SPELLINGS:
            a, b = parse_rational(canonical)
            for command in self.COMMANDS:
                for json_flag in ([], ["--json"]):
                    want = run_cli(command + json_flag + ["--", canonical], capsys)
                    assert want[0] == 0, want
                    if json_flag and command[0] != "expand-schneider":
                        assert json.loads(want[1])["input"] == cli._fraction_str(a, b)
                    elif json_flag:
                        assert json.loads(want[1])["a"] == a and json.loads(want[1])["b"] == b
                    for text in spellings:
                        assert run_cli(command + json_flag + ["--", text], capsys) == want, (command, text)
                        if text[0] != "-":  # without the '--' too
                            assert run_cli(command + json_flag + [text], capsys) == want, (command, text)

    def test_a_long_head_in_its_spellings(self, capsys):
        # a (3,3) head of 1,951 steps at p = 7 (5,086 characters): the entry run's form and head's
        # n have their valuations by one division by the largest power of 7 that fits, lowest
        # terms is checked on the pair the run reaches, and the JSON prints argv's digits
        a, b = generate_constant_head(3, 3, 1950, 7)
        want = run_cli(["expand-schneider", "-p", "7", "--json", f"{a}/{b}"], capsys)
        got = json.loads(want[1])
        assert want[0] == 0 and (got["a"], got["b"]) == (a, b)
        assert hashlib.sha256(want[1].encode()).hexdigest() == (
            "04166eedec8e9dd230989291883636101c0caa7b161b714c3eeaf358f6498170"
        )
        sign = "-" if a < 0 else ""
        for text in (f"{sign}00{abs(a)}/000{b}", f"{2 * a}/{2 * b}", f"{3 * a}/0{3 * b}"):
            assert run_cli(["expand-schneider", "-p", "7", "--json", "--", text], capsys) == want


class TestOneReduction:
    """The CLI reduces no canonical input by a gcd: head --json and expand-schneider --json prove
    lowest terms by their own certificates (cli module docstring), so on a constant head no gcd
    call sees an operand of more than 64 bits.  A scaled head runs again, reduced, at most once,
    and prints the canonical head's bytes."""

    HEADS = [(1, 2, 2000, 3), (3, 3, 1950, 7), (1, 1, 1500, 101), (1, 1, 150, 10**9 + 7)]

    @staticmethod
    def counters(monkeypatch):
        # (gcd calls on an operand over 64 bits, kernel calls per command), counted through cli's
        # and exactarith's globals
        wide, calls, gcd = [], {"head": 0, "expand-schneider": 0}, math.gcd

        def counted_gcd(*args):
            if max(map(abs, args)).bit_length() > 64:
                wide.append(args)
            return gcd(*args)

        def counted(name, function):
            def call(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return call

        monkeypatch.setattr(cli, "gcd", counted_gcd)
        monkeypatch.setattr(exactarith.math, "gcd", counted_gcd)
        monkeypatch.setattr(cli, "head_analysis", counted("head", cli.head_analysis))
        certified = counted("expand-schneider", oracle.certified_schneider)
        monkeypatch.setattr(oracle, "certified_schneider", certified)
        return wide, calls

    def test_a_canonical_head_takes_no_wide_gcd(self, monkeypatch, capsys):
        wide, calls = self.counters(monkeypatch)
        for digit, alpha, k, p in self.HEADS:
            a, b = generate_constant_head(digit, alpha, k, p)
            assert max(abs(a), b).bit_length() >= 2000
            for command in ("head", "expand-schneider"):
                code, out, _ = run_cli([command, "-p", str(p), "--json", "--", f"{a}/{b}"], capsys)
                assert code == 0 and out
            assert json.loads(out)["a"] == a  # argv's own digits
        assert wide == [] and calls == {"head": 4, "expand-schneider": 4}

    def test_a_scaled_head_reruns_once(self, monkeypatch, capsys):
        # scaled by p, both commands fail the unit-pair check and rerun; scaled by 11, head's
        # certificate holds as given and expand-schneider fails lemma (vii)'s check and reruns
        digit, alpha, k, p = self.HEADS[1]
        a, b = generate_constant_head(digit, alpha, k, p)
        for command, g, runs in (("head", 7, 2), ("head", 11, 1), ("expand-schneider", 7, 2),
                                 ("expand-schneider", 11, 2)):
            argv = [command, "-p", str(p), "--json", "--"]
            want = run_cli(argv + [f"{a}/{b}"], capsys)
            wide, calls = self.counters(monkeypatch)
            assert run_cli(argv + [f"{g * a}/{g * b}"], capsys) == want, (command, g)
            assert calls[command] == runs and len(wide) == runs - 1, (command, g)
            monkeypatch.undo()


class TestHeadDegenerateTheta:
    """head_analysis' y = 0 (theta = 1) and x = 0 (theta = -1) branches, as they were before
    its products were formed once each."""

    @staticmethod
    def expected(a, b, digit, alpha, p):
        # the report by the formulas as first written, each product formed where it is used
        pa = p**alpha
        disc = 4 * pa + digit * digit
        big_p, q = digit - 2 * pa, 2 * a - b * digit
        x, y = big_p * q - b * disc, big_p * b - q
        assert x * y >= 0
        return (digit, alpha, disc, x * x + disc * y * y, 2 * x * y, x * x - disc * y * y)

    def test_reports(self):
        # y = 0 at a/b = digit - p**alpha; x = 0 at a/b = (disc + digit*(digit - 2p**alpha)) /
        # (2*(digit - 2p**alpha))
        cases = []
        for p in (3, 5, 7, 11, 101):
            for digit in range(1, min(p, 8)):
                for alpha in (1, 2, 3):
                    if (digit, alpha) == (p - 1, 1):
                        continue
                    pa = p**alpha
                    disc, big_p = 4 * pa + digit * digit, digit - 2 * pa
                    for value in (Fraction(digit - pa), Fraction(disc + digit * big_p, 2 * big_p)):
                        a, b = value.numerator, value.denominator
                        if a % p and b % p:
                            cases.append((a, b, digit, alpha, p))
        assert len(cases) > 80
        zeros = {0: 0, 1: 0}
        for a, b, digit, alpha, p in cases:
            report = schneider.head_analysis(a, b, digit, alpha, p)
            assert report[:6] == self.expected(a, b, digit, alpha, p), (a, b, digit, alpha, p)
            assert (report.head_len, report.exact_identity) == head_identity(report, p)
            assert report.sy == 0
            zeros[report.n < 0] += 1  # theta = -1 where n = -sx, 1 where n = sx
        assert zeros[0] and zeros[1]

    def test_head_command(self, capsys):
        # outputs recorded before the change
        assert run_cli(["head", "-p", "3", "--digit", "1", "--exponent", "1", "--", "-4/5"], capsys)[1] == (
            "head pair: (1,1) (p=3)\nT1 ~ -1.30278, T2 ~ 2.30278\ntheta = -1 (~-1.0)\n"
            "head length: unknown\nexact identity: false\n")
        assert run_cli(["head", "-p", "3", "--json", "--digit", "1", "--exponent", "1", "--", "-4/5"],
                       capsys)[1] == (
            '{"T1_float": -1.30278, "T2_float": 2.30278, "theta_float": -1.0, "exact_exponent": null, '
            '"head_len": null, "exact_identity": false}\n')
        assert run_cli(["head", "-p", "7", "--digit", "3", "--exponent", "2", "--", "-46"], capsys)[1] == (
            "head pair: (3,2) (p=7)\nT1 ~ -5.65891, T2 ~ 8.65891\ntheta = 1 (~1.0)\nexact exponent: 0\n"
            "head length: 1\nexact identity: true\n")


class TestParserReuse:
    def test_second_call_builds_no_parser(self, capsys, monkeypatch):
        assert main(["bound", "-p", "3", "7/2"]) == 0
        init, built = argparse.ArgumentParser.__init__, []

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert main(["bound", "-p", "3", "7/2"]) == 0
        assert built == []

    def test_calls_in_one_process_match_fresh_processes(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
        a, b = generate_constant_head(1, 1, 1500, 3)
        # a failed check needs a defect: this call runs with PLANTED_MAIN's runaway loop,
        # in this process and in the fresh one
        planted = ["expand-schneider", "-p", "5", "1/4"]
        calls = [
            ["expand-browkin", "-p", "3", "365/54"],
            ["bound", "-p", "3", "--beta0", "5", "7/2"],
            planted,
            ["head", "-p", "3", f"{a}/{b}"],
            ["sweep", "--primes", "3", "--max-num", "5", "--max-den", "5"],
            ["expand-browkin", "-p", "3", "365/54"],
        ]
        codes = []
        for argv in calls:
            # newline="" keeps the CSV's \r\n as written, as a process's stdout does
            out, err = io.StringIO(newline=""), io.StringIO(newline="")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    monkeypatch.context() as patch:
                if argv is planted:
                    patch.setattr(schneider, "pow", lambda r, e, m: r, raising=False)
                try:
                    code, raised = main(argv), False
                except SystemExit as exc:
                    code, raised = exc.code, True
            assert raised == (code == 2), argv
            fresh = run_process(["-c", PLANTED_MAIN, *argv] if argv is planted
                                else ["-m", "padic_cf", *argv])
            got = (out.getvalue().encode(), err.getvalue().encode(), code)
            assert got == (fresh.stdout, fresh.stderr, fresh.returncode), argv
            codes.append(code)
        assert codes == [0, 2, 1, 0, 0, 0]


class TestSizeRule:
    """The CLI takes and prints integers of any size: main lifts Python's
    4,300-digit limit on int/str conversion while it runs."""

    def test_5000_digit_bound_answers(self):
        # built as text: this process keeps Python's limit
        rng = random.Random(11)
        num, den = ("".join(rng.choices("123456789", k=5000)) for _ in range(2))
        text = f"{num}/{den}"
        done = run_process(["-m", "padic_cf", "bound", "-p", "3", text])
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout.splitlines()[-2].startswith(b"N = ")

    def test_7000_step_head_prints_in_full(self):
        a, b = generate_constant_head(1, 1, 7000, 3)
        done = run_process(["-m", "padic_cf", "head", "-p", "3", f"{a}/{b}"])
        assert (done.returncode, done.stderr) == (0, b"")
        lines = done.stdout.decode().splitlines()
        assert len(lines[2]) > 5000 and lines[2].startswith("theta = ")
        assert lines[3:] == ["exact exponent: 7000", "head length: 7001", "exact identity: true"]

    def test_malformed_rational_is_still_a_usage_error(self):
        done = run_process(["-m", "padic_cf", "bound", "-p", "3", "12x/5"])
        assert (done.returncode, done.stdout) == (2, b"")
        assert done.stderr.endswith(b"padic-cf bound: error: malformed rational '12x/5'\n")

    def test_limit_is_restored_on_return(self, capsys):
        limit = sys.get_int_max_str_digits()
        assert main(["bound", "-p", "3", "7/2"]) == 0
        with pytest.raises(SystemExit):
            main(["bound", "-p", "3", "12x/5"])
        assert sys.get_int_max_str_digits() == limit


def test_cli_import_loads_no_dataclasses():
    # every record is a NamedTuple; -S keeps site's own imports out of the count
    code = "import sys, padic_cf.cli; print('dataclasses' in sys.modules)"
    assert run_process(["-S", "-c", code]).stdout == b"False\n"


# the names no command reaches, by the module that defines them: the tests' exact references,
# which the benchmark's tracer also wraps by name
UNEXPORTED = {
    browkin: ["Convergent", "browkin_convergents", "cf_evaluate", "theta_sequence"],
    schneider: ["schneider_convergents", "schneider_evaluate"],
    exactarith: ["QuadraticElement", "vp"],
}


def test_package_exports_only_what_commands_reach():
    for module, names in UNEXPORTED.items():
        for name in names:
            assert not hasattr(padic_cf, name), name
            assert getattr(module, name).__module__ == module.__name__, name
    public = {name for name, value in vars(padic_cf).items()
              if not name.startswith("_") and not isinstance(value, type(sys))}
    assert len(padic_cf.__all__) == len(set(padic_cf.__all__)) == 17
    assert set(padic_cf.__all__) == public


def test_benchmark_tracer_finds_every_traced_name():
    # perfbench/tracer.py wraps library functions it looks up by name: one
    # deleted or renamed would fail every traced benchmark run
    code = (
        f"import sys; sys.path.insert(0, {str(PERFBENCH)!r}); import padic_cf.cli\n"
        "from tracer import Tracer; Tracer().install()"
    )
    done = run_process(["-c", code])
    assert done.returncode == 0, done.stderr.decode()
