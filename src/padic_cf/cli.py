"""Command-line front end.

Subcommands: expand-browkin, expand-schneider, digits, bound, head, verify,
sweep.  Rationals cross the boundary as strings "num" or "num/den" (put
negative values after --) and may have any number of digits: main lifts
Python's limit on int/str conversion while it runs.  parse_rational turns
each into the integer pair (a, b) of a/b in lowest terms with b > 0, the one
input form of the library.  A command is first given the pair as argv spells
it, with no gcd taken: the proof that a/b is in lowest terms comes from the
certificate the command runs anyway.  expand-browkin, bound a/b, digits and
verify check it by require_lowest_terms (in browkin_expand, browkin_betas and
digits._unit_form); expand-schneider by require_coprime, at (a, b) below
schneider._RUN_GATE and above it at the pair the entry run reaches, which has
the gcd of (a, b) (schneider lemma (vii)); head by lemma (vi), as below.  Where
argv's text has no leading zero (nor "-0") in either part, its digits are
str(a) and str(b) once that proof holds: they ride beside the pair on the
command's Namespace, and expand-browkin, expand-schneider and digits print the
input off them rather than converting the pair back.
The rerun rule: where a command raises ValueError, or head's report has
head_len None, the CLI takes one gcd(a, b).  Where it is not 1, the CLI reduces
the pair, drops argv's digits and runs the command again, on the pair it
would have had had the CLI reduced every input first; no command prints before
either test.  So every spelling of a rational prints the same bytes to stdout
and stderr and exits with the same code, usage errors included.  head needs two
facts for (a, b) = (g*a', g*b'), a'/b' in lowest terms and g > 1 (p | g fails
schneider's unit-pair check, a ValueError, so p does not divide g), where its
report on (a, b) has head_len certified:
  - Every field head prints is that of (a', b').  The first step's digit
    a*b**-1 mod p and alpha = vp(a - digit*b) are unchanged by g, as are the
    signs of x and y, which scale by g, and vp(sx) and vp(n), as (sx, sy, n)
    scale by g**2: so the one e the valuations allow is unchanged, and lemma
    (vi)'s identity holds at e for (a, b) exactly when it does for (a', b'),
    both being parallel to the same v.  Each *_float is a correctly rounded
    quotient of integers scaled alike, and _exact_str reduces its fractions.
  - alpha <= alpha_max of (a', b'), so head_analysis would not reject (a', b').
    The identity gives (a', b') = +-M**(e+1) (1, -1), as v is primitive and
    a'/b' in lowest terms; by lemma (v'), 1 and -1 being prime to p, its first
    step is (digit, alpha), so a' - digit*b' = p**alpha * y with y != 0, and
    p**alpha <= |a'| + (p-1)*b', the bound alpha_max is read off.
So a certified head_len needs no gcd, and head_len None reruns on the reduced
pair, whose alpha_max usage error, if due, it then gives.  Integer options and
--primes tokens are an optional '-' and ASCII digits, as a rational's parts are.
Every ValueError the library raises on a command's input (p, a zero rational,
the digit count, the betas, a head with no first step) is that command's usage
error, printed with the subcommand's usage; _validate checks only what the
library cannot know.  `head` hands --digit and --exponent to head_analysis as
given, None when left out, and prints the pair the report holds.
`head --exponent alpha` is a usage error when alpha*(p.bit_length()-1) >=
(|a| + (p-1)*b).bit_length(): then p**alpha exceeds |a - digit*b|, so no
expansion of a/b starts with (digit, alpha), and it is rejected before any
power is built.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 an output write failed (as to a full
disk) or an internal error (reserved; no known input reaches it), 141 when
the reader closes stdout early, as in `padic-cf sweep ... | head -1`.
Every printed value of the form (x + y*sqrt(d))/den is read off the integers
of a report: its exact text by _exact_str, its display float by _f6 (bound's
lambda2 float by -4/(p*(p + sqrt(D)))), so no command builds a Fraction or a
QuadraticElement.
Every record a command prints comes from one of padic_cf.oracle's certificate
functions, which pick and run its checks; the oracle module docstring tables
which check certifies each printed field, and cli names no check.
`--json` prints one json.dumps-style line; its per-step arrays are formatted as
text straight from the step records, with no dict per step, by one writer per
record kind.  expand-browkin's quotients (k, x), in text and in --json, take
one pass keyed by exponent: one template per distinct k, with p**k written in
({"num": %d, "den": p**k} in --json, %d/p**k or %d alone at k = 0 in text),
then one "%" over the xs; "k" prints the same ks.  expand-schneider's "head"
takes _json_pairs: 64 or more rows all equal, as a constant head has, are one
text repeated (schneider._leading_run, which compares rows by value); any
other rows take one "%" over them when more than a third are distinct, else
one "%d" template per distinct row.
One table, _SUBCOMMANDS, declares each subcommand: its help, its handler and
its arguments in argparse's add order.  The argparse parsers are built from it
once per process, on the first main() call, and beside each subcommand parser
the table of its canonical route, read off the Action objects add_argument
returns (option strings, dest, nargs, const, type, default, required): each
exact option string's action, the positional, every default and the required
dests.  When argv[0] names a subcommand and the rest of argv is canonical, its
Namespace is built from that table, with no argparse pass: every token is an
exact option string given once, whose value (if it takes one) does not start
with '-', or the one positional, optionally after a single '--'.  Every other argv
(-h, an empty argv, an unknown subcommand, an abbreviation, an '=' or attached
value, a repeat, a value starting with '-', anything missing or extra) goes to
the top-level parser's parse_known_args, which hands the rest of argv to the
subcommand's parser, so argparse alone writes help, usage and error text, each
error with the subcommand's usage, and both routes give the same Namespace.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import re
import sys
from itertools import chain, product
from math import gcd, isfinite, sqrt

from . import oracle
from .browkin import browkin_betas, browkin_bound
from .digits import DIGIT_PERIOD_LIMIT
from .exactarith import require_odd_prime, square_part
from .schneider import _leading_run, head_analysis

# ASCII digits only: int() also reads any Unicode digit, surrounding spaces and underscores
_INTEGER_RE = re.compile(r"-?[0-9]+")
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")

SWEEP_COLUMNS = [
    "p",
    "a",
    "b",
    "browkin_len",
    "bound_N",
    "beta0_abs",
    "beta1_abs",
    "slack",
    "schneider_steps_to_stationary",
]
# one sweep row as csv.writer writes it: ints bare, "" where no stationary index, "\r\n" ends it.
# Kept: csv.writer's writerow per row reads rows_per_s x0.98 on sweep_grid
# (BENCH_translated_certificates.json, "row_writer")
_SWEEP_ROW = "%d,%d,%d,%d,%d,%d,%d,%d,%s\r\n"

# a sweep row first takes its records from row a - b of its (p, b) line, by the translation
# lemmas (browkin and schneider module docstrings); a Browkin record the translation misses, for
# 0 < a <= SWEEP_MIRROR_CAP, takes the certified record of -a/b, written earlier in the same line,
# by the mirror lemma (browkin module docstring); rows past it run the kernel.  Each line holds
# at most this many mirror records, well under 1 MB, and at most b translation records of each kind.
# Without the mirror, sweep_grid reads rows_per_s x0.95 (BENCH_special_paths_2.json, row 5)
SWEEP_MIRROR_CAP = 1024


def parse_rational(text: str) -> tuple[int, int]:
    """Parse 'num' or 'num/den' into the pair (a, b) of a/b in lowest terms, b > 0."""
    (a, b), _ = _parse_input(text)
    g = gcd(a, b)
    return a // g, b // g


def _parse_input(text: str) -> tuple[tuple[int, int], tuple[str, str] | None]:
    # the pair (a, b), b > 0, as text spells it, not reduced: the command's own certificate
    # proves lowest terms, else the rerun rule reduces it (module docstring); and (str(a),
    # str(b)) read off text's own digits when neither part has a leading zero (nor "-0"), so
    # a command prints the input without converting it back; else None.  Kept: without it,
    # 1.68x on a 90,015-character head (BENCH_special_paths.json, row 4)
    match = _RATIONAL_RE.fullmatch(text)
    if not match:
        raise ValueError(f"malformed rational {text!r}")
    num, den = match.group(1), match.group(2) or "1"
    a, b = int(num), int(den)
    if b == 0:
        raise ValueError(f"zero denominator in {text!r}")
    canonical = den[0] != "0" and (num[0] != "0" or num == "0") and num[:2] != "-0"
    return (a, b), ((num, den) if canonical else None)


def _reduced(args: argparse.Namespace) -> bool:
    # the rerun rule's one gcd (module docstring): True, with args.rational reduced and argv's
    # digits dropped, where the pair was not in lowest terms; else False, args unchanged
    a, b = args.rational
    g = gcd(a, b)
    if g == 1:
        return False
    args.rational, args.input_digits = (a // g, b // g), None
    return True


def _parse_integer(text: str) -> int:
    """Parse an integer option or --primes token: an optional '-' and ASCII digits."""
    if not _INTEGER_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"malformed integer {text!r}")
    return int(text)


def _input_digits(args: argparse.Namespace) -> tuple[str, str]:
    # (str(a), str(b)) of the input pair: argv's own digits where they are canonical
    a, b = args.rational
    return args.input_digits or (str(a), str(b))


def _input_str(args: argparse.Namespace) -> str:
    # _fraction_str of the input pair
    num, den = _input_digits(args)
    return num if den == "1" else f"{num}/{den}"


def _fraction_str(num: int, den: int) -> str:
    # str(Fraction(num, den)) for den > 0: in lowest terms
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def _exact_str(x: int, y: int, den: int, root: tuple[int, int]) -> str:
    # the exact text of (x + y*sqrt(d)) / den, den != 0, with _f6's arguments: the str() of
    # QuadraticElement(Fraction(x, den), Fraction(y, den), d), which folds d = s*s*m to
    # y*s*sqrt(m), and a rational value (y = 0 or m = 1) to (x + y*s) / den
    s, m = root
    if den < 0:  # as Fraction has it: the sign on the numerator
        x, y, den = -x, -y, -den
    if m == 1 or not y:
        return _fraction_str(x + y * s, den)
    irrational = f"{_fraction_str(abs(y) * s, den)}*sqrt({m})"
    if not x:
        return irrational if y > 0 else "-" + irrational
    return f"{_fraction_str(x, den)} {'-' if y < 0 else '+'} {irrational}"


def _f6(x: int, y: int, den: int, root: tuple[int, int]) -> float | None:
    # the one display float of the exact value (x + y*sqrt(d)) / den, den != 0, pinned to 6
    # significant digits for stable output; None when it lies past the float range.  root is
    # square_part(d) = (s, m), d = s*s*m, taken once per report: the float is the one of
    # QuadraticElement(Fraction(x, den), Fraction(y, den), d), whose parts are each one int
    # division, correctly rounded as Fraction.__float__ rounds
    s, m = root
    if den < 0:  # as Fraction has it: 0 / -1 is -0.0, a zero Fraction's float 0.0
        x, y, den = -x, -y, -den
    try:
        if m == 1 or not y:  # a rational value: the element folds to d = 1
            approx = (x + y * s) / den + 0.0
        else:
            approx = x / den + y * s / den * sqrt(m)
    except OverflowError:
        return None
    return float(f"{approx:.6g}") if isfinite(approx) else None


def _json_pairs(rows, key0: str, key1: str) -> str:
    # the text json.dumps writes for [{key0: row[0], key1: row[1]} for row in rows], each row
    # a hashable pair of integers, as Schneider step records are.  schneider._RUN_MIN or more
    # rows all equal, as a constant head has, are written as one text repeated
    # (schneider._leading_run); any other rows by _json_rows
    run = _leading_run(rows)  # kept: without it, 1.35x on a long head (BENCH_special_paths.json, row 3)
    if run:
        text = _json_rows(rows[:1], key0, key1)
        return f"[{text}{(', ' + text) * (run - 1)}]"
    return f"[{_json_rows(rows, key0, key1)}]"


def _json_rows(rows, key0: str, key1: str) -> str:
    # _json_pairs' text for rows, without the brackets
    template = f'{{"{key0}": %d, "{key1}": %d}}'
    distinct = set(rows)
    # the two paths take the same time at about a third of the rows distinct
    # (BENCH_step_tables.json, "json_pairs_paths"); kept: one "%" always reads x1.26 on
    # expand-schneider --json at 5,000 digits and p = 3 (BENCH_special_paths_2.json, row 11)
    if 3 * len(distinct) > len(rows):
        return ", ".join([template] * len(rows)) % tuple(chain.from_iterable(rows))
    # mostly repeated, as Schneider steps at a small p: format each distinct row once
    text = {row: template % row for row in distinct}
    return ", ".join(map(text.__getitem__, rows))


def _quotients(steps, p: int, as_json: bool) -> tuple[str, tuple[int, ...]]:
    # (text, ks) of the partial quotients x/p**k of nonempty Browkin step records (k, x), in one
    # pass keyed by exponent: one template per distinct k, with p**k written in and a "%d" for
    # x, then one "%" over the xs.  With as_json the text is json.dumps' of
    # [{"num": x, "den": p**k}, ...]; else ", "-joined x/p**k, or x alone where k = 0
    ks, xs = zip(*steps)
    if as_json:
        per_k = {k: f'{{"num": %d, "den": {p**k}}}' for k in set(ks)}
        return f"[{', '.join(map(per_k.__getitem__, ks)) % xs}]", ks
    per_k = {k: f"%d/{p**k}" if k else "%d" for k in set(ks)}
    return ", ".join(map(per_k.__getitem__, ks)) % xs, ks


def _cmd_expand_browkin(args: argparse.Namespace) -> int:
    p = args.prime
    expansion, betas, report = oracle.certified_browkin(*args.rational, p)
    quotients, ks = _quotients(expansion.steps, p, args.json)
    if args.json:
        print(
            f'{{"p": {p}, "input": {json.dumps(_input_str(args))}, '
            f'"quotients": {quotients}, "k": {json.dumps(ks)}, "beta": {json.dumps(betas)}, '
            f'"bound_N": {report.n_bound}, "reconstructed": true}}'
        )
    else:
        print(f"input: {_input_str(args)} (p={p})")
        print("quotients: " + quotients)
        print("k: " + ", ".join(map(str, ks)))
        print("beta: " + ", ".join(map(str, betas)))
        print(f"bound N: {report.n_bound} (length {len(ks)} <= N+1)")
        print("reconstructed: true")
    return 0


def _cmd_expand_schneider(args: argparse.Namespace) -> int:
    ys = None if args.json else []  # text prints the y trace the matrix laws divide
    expansion, _ = oracle.certified_schneider(*args.rational, args.prime, ys)
    if args.json:
        num, den = _input_digits(args)
        print(
            f'{{"p": {args.prime}, "a": {num}, "b": {den}, '
            f'"head": {_json_pairs(expansion.steps, "b", "alpha")}, '
            f'"stationary_from": {json.dumps(expansion.stationary_from)}, '
            f'"finite_end": {json.dumps(expansion.finite_end)}}}'
        )
    else:
        print(f"input: {_input_str(args)} (p={args.prime})")
        print("head: " + ", ".join(f"({d},{e})" for d, e in expansion.steps))
        print("y trace: " + ", ".join(map(str, ys)))
        if expansion.stationary_from is not None:
            print(
                f"stationary from index {expansion.stationary_from}"
                f" (tail digit {args.prime - 1}, exponent 1, tail value -1)"
            )
        else:
            num, den = expansion.tail  # |den| = 1 at a finite end
            print(f"finite end with tail value {num // den}")
        print("reconstructed: true")
    return 0


def _digit_terms(p: int, start: int, digits) -> str:
    terms = []
    for offset, digit in enumerate(digits):
        if digit == 0:
            continue
        exponent = start + offset
        if exponent == 0:
            mag = str(abs(digit))
        elif exponent == 1:
            mag = f"{abs(digit)}*{p}"
        else:
            mag = f"{abs(digit)}*{p}^{exponent}"
        sign = "-" if digit < 0 else "+"
        if not terms and digit > 0:
            terms.append(mag)
        else:
            terms.append(f"{sign}{mag}")
    return " ".join(terms) if terms else "0"


def _cmd_digits(args: argparse.Namespace) -> int:
    split = args.json  # the period is printed in --json only
    window, preperiod, period = oracle.certified_digits(*args.rational, args.prime, args.count, split)
    if args.json:
        found = period is not None  # else the search stopped at DIGIT_PERIOD_LIMIT
        print(json.dumps(
            {
                "p": args.prime,
                "input": _input_str(args),
                "start_exponent": window.start_exponent,
                "digits": list(window.digits),
                "count": window.count,
                "preperiod_len": len(preperiod) if found else None,
                "period": list(period) if found else None,
            }
        ))
    else:
        print(_digit_terms(args.prime, window.start_exponent, window.digits))
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    if args.rational is not None:
        beta0, beta1 = browkin_betas(*args.rational, args.prime)
    else:
        beta0, beta1 = args.beta0, args.beta1
    p = args.prime
    report = browkin_bound(beta0, beta1, p)
    # lambda1, lambda2 = (p +- sqrt(D)) / (4p) with D = p*p + 16; lambda2's float is read off
    # -4 / (p*(p + sqrt(D))), whose terms share a sign: p - sqrt(D) cancels at large p
    s, m = root = square_part(p * p + 16)
    lambda1, lambda2 = _f6(p, 1, 4 * p, root), float(f"{-4 / (p * (p + s * sqrt(m))):.6g}")
    if args.json:
        print(json.dumps(
            {
                "p": p,
                "beta0_abs": beta0,
                "beta1_abs": beta1,
                "lambda1_float": lambda1,
                "lambda2_float": lambda2,
                "n_bound": report.n_bound,
                "exact_certificate": report.exact_certificate,
            }
        ))
    else:
        print(f"beta magnitudes: {beta0}, {beta1} (p={p})")
        print(f"lambda1 = {_exact_str(p, 1, 4 * p, root)} (~{lambda1})")
        print(f"lambda2 = {_exact_str(p, -1, 4 * p, root)} (~{lambda2})")
        print(f"N = {report.n_bound}")
        print(f"exact certificate: {'true' if report.exact_certificate else 'false'}")
    return 0


def _cmd_head(args: argparse.Namespace) -> int:
    report = head_analysis(*args.rational, args.digit, args.exponent, args.prime)
    if report.head_len is None and _reduced(args):  # no proof of lowest terms: rerun reduced
        report = head_analysis(*args.rational, args.digit, args.exponent, args.prime)
    # t1, t2 = (digit -+ sqrt(D)) / 2 and theta = (sx + sy*sqrt(D)) / n
    root = square_part(report.disc)
    t1, t2 = _f6(report.digit, -1, 2, root), _f6(report.digit, 1, 2, root)
    theta = _f6(report.sx, report.sy, report.n, root)
    exact_exponent = None if report.head_len is None else report.head_len - 1
    if args.json:
        print(json.dumps(
            {
                "T1_float": t1,
                "T2_float": t2,
                "theta_float": theta,
                "exact_exponent": exact_exponent,
                "head_len": report.head_len,
                "exact_identity": report.exact_identity,
            }
        ))
    else:
        print(f"head pair: ({report.digit},{report.alpha}) (p={args.prime})")
        if t1 is not None and t2 is not None:
            print(f"T1 ~ {t1}, T2 ~ {t2}")
        approx = "" if theta is None else f" (~{theta})"
        print(f"theta = {_exact_str(report.sx, report.sy, report.n, root)}{approx}")
        if report.exact_identity:
            print(f"exact exponent: {exact_exponent}")
        print(f"head length: {'unknown' if report.head_len is None else report.head_len}")
        print(f"exact identity: {'true' if report.exact_identity else 'false'}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = oracle.battery(*args.rational, args.prime)
    for name, ok in checks:
        print(f"{'ok' if ok else 'FAIL'}: {name}")
    return 0 if all(ok for _, ok in checks) else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    out = sys.stdout
    if args.out is not None:
        try:
            out = open(args.out, "w", newline="")
        except OSError as exc:  # a usage error, not a failed check
            raise ValueError(f"cannot open {args.out}: {exc}") from exc
    try:
        csv.writer(out).writerow(SWEEP_COLUMNS)
        max_len = 0
        min_slack = None
        max_stationary = None
        for p, b in product(args.primes, range(1, args.max_den + 1)):
            mirrors = {}  # a -> the certified (expansion, report) of -a/b, a <= SWEEP_MIRROR_CAP
            # a -> the certified records of (a - b)/b with the state of their pass, the betas or
            # the pair a translated row resumes, stored only for a row a that pops them: a != 0
            # and a <= max-num, and for Schneider p not dividing a.  A mirror needs no betas:
            # kept there, they read peak_rss_mb x1.004 on sweep_grid
            # (BENCH_translated_certificates.json, "mirror_state")
            browkin_shifts, schneider_shifts = {}, {}
            for a in range(-args.max_num, args.max_num + 1):
                if a == 0 or gcd(abs(a), b) != 1:
                    continue
                browkin_certified = oracle.certified_browkin(
                    a, b, p, mirrors.pop(a, None), browkin_shifts.pop(a, None))
                expansion, _, report = browkin_certified
                if -SWEEP_MIRROR_CAP <= a < 0:
                    mirrors[-a] = expansion, report
                target = a + b
                if target and target <= args.max_num:
                    browkin_shifts[target] = browkin_certified
                _, beta0, beta1, n_bound = report
                browkin_len = len(expansion.steps)
                slack = n_bound + 1 - browkin_len
                stationary = ""
                if a % p != 0 and b % p != 0:
                    schneider_certified = oracle.certified_schneider(
                        a, b, p, shift=schneider_shifts.pop(a, None))
                    if target % p and target <= args.max_num:  # target != 0, as p | 0
                        schneider_shifts[target] = schneider_certified
                    sexp = schneider_certified[0]
                    if sexp.stationary_from is not None:
                        stationary = sexp.stationary_from
                        if max_stationary is None or stationary > max_stationary:
                            max_stationary = stationary
                out.write(_SWEEP_ROW % (p, a, b, browkin_len, n_bound, beta0, beta1, slack, stationary))
                if browkin_len > max_len:
                    max_len = browkin_len
                if min_slack is None or slack < min_slack:
                    min_slack = slack
    finally:  # a write that fails on either target raises here, before the summary
        if out is sys.stdout:
            out.flush()
        else:
            out.close()
    print(
        f"sweep ok: max browkin_len {max_len}, min slack {min_slack},"
        f" max steps to stationarity {max_stationary}",
        file=sys.stderr,
    )
    return 0


_PRIME = "-p", "--prime", dict(type=_parse_integer, required=True, help="odd prime base")
_JSON = "--json", dict(action="store_true")
_RATIONAL = "rational", dict(help="rational input, 'num' or 'num/den' (negatives after --)")

# each subcommand's help, handler and arguments, in argparse's add order: each argument its
# option strings (or its name) and then its add_argument keywords
_SUBCOMMANDS = {
    "expand-browkin": (
        "Browkin expansion with length bound", _cmd_expand_browkin, (_PRIME, _JSON, _RATIONAL)),
    "expand-schneider": (
        "Schneider expansion to stationarity", _cmd_expand_schneider, (_PRIME, _JSON, _RATIONAL)),
    "digits": ("symmetric base-p digits", _cmd_digits, (
        _PRIME,
        ("-n", "--count", dict(type=_parse_integer, required=True, help="number of digits")),
        _JSON, _RATIONAL)),
    "bound": ("certified expansion-length bound", _cmd_bound, (
        _PRIME,
        ("--beta0", dict(type=_parse_integer, help="|beta_0| (with --beta1)")),
        ("--beta1", dict(type=_parse_integer, help="|beta_1| (with --beta0)")),
        _JSON,
        ("rational", dict(nargs="?")))),
    "head": ("constant-head length certificate", _cmd_head, (
        _PRIME,
        ("--digit", dict(type=_parse_integer, help="head digit (default: from expansion)")),
        ("--exponent", dict(type=_parse_integer, help="head exponent (default: from expansion)")),
        _JSON, _RATIONAL)),
    "verify": ("run the full oracle battery on one input", _cmd_verify, (_PRIME, _RATIONAL)),
    "sweep": ("CSV bound-tightness sweep over coprime pairs", _cmd_sweep, (
        ("--primes", dict(required=True, help="comma-separated odd primes")),
        ("--max-num", dict(type=_parse_integer, required=True)),
        ("--max-den", dict(type=_parse_integer, required=True)),
        ("--out", dict(help="CSV output path (default stdout)")))),
}


@functools.cache
def _build_parser():
    # the top-level parser, and for each subcommand its parser and the canonical route's table,
    # read off the actions add_argument returns: each option string's action, the positional,
    # every default and the required dests
    parser = argparse.ArgumentParser(
        prog="padic-cf", description="Exact Browkin and Schneider p-adic continued fractions.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (help_text, _, arguments) in _SUBCOMMANDS.items():
        command_parser = sub.add_parser(name, help=help_text)
        actions = [command_parser.add_argument(*names, **kwargs) for *names, kwargs in arguments]
        options = {option: action for action in actions for option in action.option_strings}
        positional = next((action for action in actions if not action.option_strings), None)
        defaults = {action.dest: action.default for action in actions}
        required = {action.dest for action in actions if action.required}
        commands[name] = command_parser, (options, positional, defaults, required)
    return parser, commands


def _validate(args: argparse.Namespace) -> None:
    # the input rules the library cannot know: the sweep's primes and ranges, the rational's
    # syntax, bound's rational or betas, and digits -n at most DIGIT_PERIOD_LIMIT
    if args.command == "sweep":  # every prime before the CSV header
        try:
            primes = [_parse_integer(tok) for tok in args.primes.split(",")]
        except argparse.ArgumentTypeError:
            raise ValueError(f"malformed prime list {args.primes!r}") from None
        for p in primes:
            require_odd_prime(p)
        if args.max_num < 1 or args.max_den < 1:
            raise ValueError("sweep ranges must be positive")
        args.primes = sorted(set(primes))
        return
    if args.rational is not None:
        args.rational, args.input_digits = _parse_input(args.rational)
    if args.command == "bound":
        if args.rational is None and (args.beta0 is None or args.beta1 is None):
            raise ValueError("bound needs a rational or both --beta0 and --beta1")
        if args.rational is not None and (args.beta0 is not None or args.beta1 is not None):
            raise ValueError("bound takes a rational or --beta0/--beta1, not both")
    if args.command == "digits" and args.count > DIGIT_PERIOD_LIMIT:
        raise ValueError(f"count must be at most {DIGIT_PERIOD_LIMIT}, got {args.count}")


def main(argv=None) -> int:
    if not hasattr(sys, "set_int_max_str_digits"):  # before Python 3.10.7: no limit to lift
        return _main(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _canonical_args(route, argv) -> argparse.Namespace | None:
    # the Namespace the subcommand parser's parse_known_args(argv[1:], Namespace(command=argv[0]))
    # builds, read off route (the subcommand's table in _build_parser), when every token is an
    # exact option string given once, whose value (if it takes one) does not start with '-', or
    # the one positional, optionally after a '--' that only it follows; None for every other
    # argv, which argparse parses (and reports, as -h or an error).  Kept:
    # without it, large_height latency_p50_ms reads 1.20x (BENCH_special_paths.json, row 7)
    options, positional, defaults, required = route
    values = {}
    i, end = 1, len(argv)
    while i < end:
        token = argv[i]
        i += 1
        action = options.get(token)
        if action is None:  # the positional
            if token == "--" and i == end - 1:
                token = argv[i]
                i += 1
            elif token[:1] == "-":
                return None
            action = positional
            if action is None:
                return None
        elif action.nargs == 0:
            token = action.const
        elif i == end or argv[i][:1] == "-":
            return None
        else:
            token = argv[i]
            i += 1
            if action.type is not None:
                try:
                    token = action.type(token)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
        if action.dest in values:
            return None
        values[action.dest] = token
    if not values.keys() >= required:
        return None
    args = argparse.Namespace(command=argv[0], **defaults)
    vars(args).update(values)
    return args


def _parse(argv) -> tuple[argparse.Namespace, argparse.ArgumentParser]:
    # (args, the subcommand's parser); a usage error exits 2
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = commands.get(argv[0]) if argv else None
    args = None if command is None else _canonical_args(command[1], argv)
    if args is not None:
        return args, command[0]
    # every other argv: the top-level parser hands the rest of argv to the subcommand's parser
    args, unknown = parser.parse_known_args(argv)
    command_parser = commands[args.command][0]
    if unknown:  # reported with the subcommand's usage, as every usage error is
        command_parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    return args, command_parser


def _main(argv) -> int:
    args, command_parser = _parse(argv)
    try:
        _validate(args)
        handler = _SUBCOMMANDS[args.command][1]
        try:
            code = handler(args)
        except ValueError:  # the rerun rule: a pair not in lowest terms runs again, reduced
            if getattr(args, "rational", None) is None or not _reduced(args):
                raise
            code = handler(args)
        sys.stdout.flush()  # a buffered write that fails is reported here, not at exit
        return code
    except OSError as exc:  # the output could not be written
        # stdout keeps what it failed to write: point its fd at devnull, or the flush at exit
        # fails again (a traceback and exit 120); an in-memory stdout has no fd
        with open(os.devnull, "wb") as devnull, contextlib.suppress(io.UnsupportedOperation):
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):  # the reader closed stdout: 128 + SIGPIPE
            return 141
        print(f"error: cannot write output: {exc}", file=sys.stderr)  # as to a full disk
        return 3
    except ValueError as exc:  # a rule on the input, _validate's or the library's
        command_parser.error(str(exc))
    except OverflowError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:  # includes oracle.VerificationError
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
