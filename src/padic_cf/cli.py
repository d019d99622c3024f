"""Command-line front end.

Subcommands: expand-browkin, expand-schneider, digits, bound, head, verify,
sweep.  Rationals cross the boundary as strings "num" or "num/den" (put
negative values after --) and may have any number of digits: main lifts
Python's limit on int/str conversion while it runs.  parse_rational turns
each into the integer pair (a, b) of a/b in lowest terms with b > 0, the one
input form of the library.  Integer options and --primes tokens are an
optional '-' and ASCII digits, as a rational's parts are.
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
Every computed expansion is certified by padic_cf.oracle before it is printed.
expand-browkin prints the betas that the reconstruction check's
back-substitution hands back (oracle.browkin_reconstruction), and it and sweep
take |beta_1| for browkin_bound from them, so no replay runs after the check;
`bound` given a rational reads beta0 and |beta_1| off the first step alone.
`--json` prints one json.dumps-style line; its per-step arrays (expand-schneider's
"head", expand-browkin's "quotients") are formatted as text straight from the
step records, with no dict per step: one "%" over all the rows when more than
a third are distinct, else one "%d" template per distinct row.  A Browkin
record (k, x) is written {"num": x, "den": p**k}, with p**k taken once per
distinct exponent on the "%" path.
The argparse parsers are built once per process, on the first main() call.
When argv[0] names a subcommand, main hands the rest of argv straight to that
subcommand's parser; the top-level parser runs only for -h, an empty argv or
an unknown subcommand, and the two routes print the same usage and help.
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
from itertools import chain
from math import gcd, isfinite, sqrt

from . import oracle
from .browkin import browkin_betas, browkin_bound, browkin_expand
from .digits import DIGIT_PERIOD_LIMIT, digit_period, padic_digits
from .exactarith import require_odd_prime, square_part
from .schneider import head_analysis, schneider_expand

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


def parse_rational(text: str) -> tuple[int, int]:
    """Parse 'num' or 'num/den' into the pair (a, b) of a/b in lowest terms, b > 0."""
    match = _RATIONAL_RE.fullmatch(text)
    if not match:
        raise ValueError(f"malformed rational {text!r}")
    a, b = int(match.group(1)), int(match.group(2) or 1)
    if b == 0:
        raise ValueError(f"zero denominator in {text!r}")
    g = gcd(a, b)
    return a // g, b // g


def _parse_integer(text: str) -> int:
    """Parse an integer option or --primes token: an optional '-' and ASCII digits."""
    if not _INTEGER_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"malformed integer {text!r}")
    return int(text)


def _rat_str(a: int, b: int) -> str:
    return str(a) if b == 1 else f"{a}/{b}"


def _fraction_str(num: int, den: int) -> str:
    # str(Fraction(num, den)) for den > 0: in lowest terms
    g = gcd(num, den)
    return _rat_str(num // g, den // g)


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


def _json_pairs(rows, key0: str, key1: str, p: int | None = None) -> str:
    # the text json.dumps writes for [{key0: row[0], key1: row[1]} for row in rows], each row
    # a hashable pair of integers; given p, each row is a Browkin step record (k, x), written
    # as the pair (x, p**k)
    template = f'{{"{key0}": %d, "{key1}": %d}}'
    distinct = set(rows)
    # the two paths take the same time at about a third of the rows distinct
    # (BENCH_step_tables.json, "json_pairs_paths")
    if 3 * len(distinct) > len(rows):  # as Browkin quotients at a large p
        if p is None:
            templates, values = [template] * len(rows), tuple(chain.from_iterable(rows))
        else:  # one template per exponent, p**k written in: a "%d" for x alone
            ks, values = zip(*rows)
            per_k = {k: f'{{"{key0}": %d, "{key1}": {p**k}}}' for k in set(ks)}
            templates = map(per_k.__getitem__, ks)
        return "[" + ", ".join(templates) % values + "]"
    # mostly repeated, as Schneider steps at a small p: format each distinct row once
    if p is None:
        text = {row: template % row for row in distinct}
    else:
        text = {(k, x): template % (x, p**k) for k, x in distinct}
    return "[" + ", ".join(map(text.__getitem__, rows)) + "]"


def _certified_browkin(a: int, b: int, p: int):
    # the expansion of a/b, its betas beta_0, ..., beta_N and its bound report, all certified:
    # the betas and |beta_1| come off the reconstruction check's own pass (a failed check
    # leaves them unchecked, and require reports it before anything is printed)
    expansion = browkin_expand(a, b, p)
    betas: list[int] = []
    recon = oracle.browkin_reconstruction(a, b, expansion, betas)
    report = browkin_bound(expansion.beta0, abs(betas[1]) if len(betas) > 1 else 0, p)
    oracle.require(p, a, b, recon, oracle.browkin_length_bound(expansion, report))
    return expansion, betas, report


def _cmd_expand_browkin(args: argparse.Namespace) -> int:
    a, b = args.rational
    p = args.prime
    expansion, betas, report = _certified_browkin(a, b, p)
    steps = expansion.steps
    if args.json:
        print(
            f'{{"p": {p}, "input": {json.dumps(_rat_str(a, b))}, '
            f'"quotients": {_json_pairs(steps, "num", "den", p)}, '
            f'"k": {json.dumps([k for k, _ in steps])}, "beta": {json.dumps(betas)}, '
            f'"bound_N": {report.n_bound}, "reconstructed": true}}'
        )
    else:
        print(f"input: {_rat_str(a, b)} (p={p})")
        print("quotients: " + ", ".join(_rat_str(x, p**k) for k, x in steps))
        print("k: " + ", ".join(str(k) for k, _ in steps))
        print("beta: " + ", ".join(map(str, betas)))
        print(f"bound N: {report.n_bound} (length {len(steps)} <= N+1)")
        print("reconstructed: true")
    return 0


def _cmd_expand_schneider(args: argparse.Namespace) -> int:
    a, b = args.rational
    expansion = schneider_expand(a, b, args.prime)
    oracle.require(args.prime, a, b, oracle.schneider_reconstruction(a, b, expansion))
    if args.json:
        print(
            f'{{"p": {args.prime}, "a": {a}, "b": {b}, '
            f'"head": {_json_pairs(expansion.steps, "b", "alpha")}, '
            f'"stationary_from": {json.dumps(expansion.stationary_from)}, '
            f'"finite_end": {json.dumps(expansion.finite_end)}}}'
        )
    else:
        print(f"input: {_rat_str(a, b)} (p={args.prime})")
        print("head: " + ", ".join(f"({d},{e})" for d, e in expansion.steps))
        print("y trace: " + ", ".join(str(y) for y in expansion.y_trace))
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
    a, b = args.rational
    window = padic_digits(a, b, args.prime, args.count)
    check = oracle.digit_truncation_identity(a, b, window)
    oracle.require(args.prime, a, b, check)
    if args.json:
        _, preperiod, period = digit_period(a, b, args.prime)
        found = period is not None  # else the search stopped at DIGIT_PERIOD_LIMIT
        print(json.dumps(
            {
                "p": args.prime,
                "input": _rat_str(a, b),
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


def _sweep_rows(primes, max_num, max_den):
    for p in primes:
        for b in range(1, max_den + 1):
            for a in range(-max_num, max_num + 1):
                if a == 0 or gcd(abs(a), b) != 1:
                    continue
                yield p, a, b


def _cmd_sweep(args: argparse.Namespace) -> int:
    out = sys.stdout
    if args.out is not None:
        try:
            out = open(args.out, "w", newline="")
        except OSError as exc:  # a usage error, not a failed check
            raise ValueError(f"cannot open {args.out}: {exc}") from exc
    try:
        writer = csv.writer(out)
        writer.writerow(SWEEP_COLUMNS)
        max_len = 0
        min_slack = None
        max_stationary = None
        for p, a, b in _sweep_rows(args.primes, args.max_num, args.max_den):
            expansion, _, report = _certified_browkin(a, b, p)
            _, beta0, beta1, n_bound = report
            browkin_len = len(expansion.steps)
            slack = n_bound + 1 - browkin_len
            stationary = ""
            if a % p != 0 and b % p != 0:
                sexp = schneider_expand(a, b, p)
                oracle.require(p, a, b, oracle.schneider_reconstruction(a, b, sexp))
                if sexp.stationary_from is not None:
                    stationary = sexp.stationary_from
                    if max_stationary is None or stationary > max_stationary:
                        max_stationary = stationary
            writer.writerow([p, a, b, browkin_len, n_bound, beta0, beta1, slack, stationary])
            max_len = max(max_len, browkin_len)
            min_slack = slack if min_slack is None else min(min_slack, slack)
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


def _add_prime_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-p", "--prime", type=_parse_integer, required=True, help="odd prime base")


def _add_rational_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "rational", help="rational input, 'num' or 'num/den' (negatives after --)"
    )


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # the top-level parser and each subcommand's, by name; errors go to the latter
    parser = argparse.ArgumentParser(
        prog="padic-cf",
        description="Exact Browkin and Schneider p-adic continued fractions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    eb = sub.add_parser("expand-browkin", help="Browkin expansion with length bound")
    _add_prime_option(eb)
    eb.add_argument("--json", action="store_true")
    _add_rational_argument(eb)

    es = sub.add_parser("expand-schneider", help="Schneider expansion to stationarity")
    _add_prime_option(es)
    es.add_argument("--json", action="store_true")
    _add_rational_argument(es)

    dg = sub.add_parser("digits", help="symmetric base-p digits")
    _add_prime_option(dg)
    dg.add_argument("-n", "--count", type=_parse_integer, required=True, help="number of digits")
    dg.add_argument("--json", action="store_true")
    _add_rational_argument(dg)

    bd = sub.add_parser("bound", help="certified expansion-length bound")
    _add_prime_option(bd)
    bd.add_argument("--beta0", type=_parse_integer, default=None, help="|beta_0| (with --beta1)")
    bd.add_argument("--beta1", type=_parse_integer, default=None, help="|beta_1| (with --beta0)")
    bd.add_argument("--json", action="store_true")
    bd.add_argument("rational", nargs="?", default=None)

    hd = sub.add_parser("head", help="constant-head length certificate")
    _add_prime_option(hd)
    hd.add_argument(
        "--digit", type=_parse_integer, default=None, help="head digit (default: from expansion)"
    )
    hd.add_argument(
        "--exponent", type=_parse_integer, default=None, help="head exponent (default: from expansion)"
    )
    hd.add_argument("--json", action="store_true")
    _add_rational_argument(hd)

    vf = sub.add_parser("verify", help="run the full oracle battery on one input")
    _add_prime_option(vf)
    _add_rational_argument(vf)

    sw = sub.add_parser("sweep", help="CSV bound-tightness sweep over coprime pairs")
    sw.add_argument("--primes", required=True, help="comma-separated odd primes")
    sw.add_argument("--max-num", type=_parse_integer, required=True)
    sw.add_argument("--max-den", type=_parse_integer, required=True)
    sw.add_argument("--out", default=None, help="CSV output path (default stdout)")
    return parser, sub.choices


_COMMANDS = {
    "expand-browkin": _cmd_expand_browkin,
    "expand-schneider": _cmd_expand_schneider,
    "digits": _cmd_digits,
    "bound": _cmd_bound,
    "head": _cmd_head,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


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
        args.rational = parse_rational(args.rational)
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


def _parse(argv) -> tuple[argparse.Namespace, argparse.ArgumentParser]:
    # (args, the subcommand's parser); a usage error exits 2
    parser, subparsers = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command_parser = subparsers.get(argv[0]) if argv else None
    if command_parser is not None:  # the top-level parser would pass it the rest of argv
        args, unknown = command_parser.parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
    else:  # -h, no argv or an unknown subcommand: the top-level parser reports it
        args, unknown = parser.parse_known_args(argv)
        command_parser = subparsers[args.command]
    if unknown:  # reported with the subcommand's usage, as every usage error is
        command_parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    return args, command_parser


def _main(argv) -> int:
    args, command_parser = _parse(argv)
    try:
        _validate(args)
        code = _COMMANDS[args.command](args)
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
