"""Independent checks of the program's outputs.

Standard library only, and nothing here imports padic_cf: every value is
rebuilt from the printed output by the benchmark's own arithmetic (integer
back-substitution, its own valuations, a high-precision decimal check of the
length bound).  A check raises WrongOutput naming what disagreed.
"""

from __future__ import annotations

import hashlib
import json
import re
from decimal import Context
from fractions import Fraction

from workloads import (
    DIGITS_WINDOW,
    SWEEP_ROWS,
    SWEEP_SHA256,
    SWEEP_SUMMARY,
    Query,
)


class WrongOutput(Exception):
    """The program printed a result that the benchmark's own check rejects."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise WrongOutput(message)


def _valuation(n: int, p: int, limit: int) -> int:
    # p-adic valuation of a nonzero integer, counted no further than `limit`
    v = 0
    while v < limit and n % p == 0:
        n //= p
        v += 1
    return v


def _has_valuation_at_least(r: Fraction, p: int, m: int) -> bool:
    if r == 0:
        return True
    den_v = _valuation(r.denominator, p, r.denominator.bit_length())
    return _valuation(r.numerator, p, m + den_v) - den_v >= m


def _symmetric(x: int, m: int) -> int:
    s = x % m
    return s - m if s > m // 2 else s


def _first_browkin_betas(r: Fraction, p: int) -> tuple[int, int]:
    """(|beta_0|, |beta_1|) from the first Browkin step, done directly."""
    num, den = r.numerator, r.denominator
    k0 = _valuation(den, p, den.bit_length())
    beta0 = den // p**k0
    x0 = _symmetric(num * pow(beta0, -1, p ** (1 + k0)), p ** (1 + k0))
    delta = num - x0 * beta0
    if delta == 0:
        return beta0, 0
    shifted = delta // p**k0
    k1 = _valuation(shifted, p, shifted.bit_length())
    return beta0, abs(shifted // p**k1)


_BOUND_CTX = Context(prec=120)
_BOUND_MARGIN = _BOUND_CTX.create_decimal("1e-90")


def _bound_is_right(beta0: int, beta1: int, p: int, n: int) -> bool:
    """n is the largest integer with lambda1**n * C >= 1, where
    lambda1 = (p + sqrt(p*p+16)) / (4p) and C = beta0 + 4p*beta1/sqrt(p*p+16)."""
    if n < 0:
        return False
    c = _BOUND_CTX
    root = c.sqrt(p * p + 16)
    log_lam = c.ln(c.divide(c.add(p, root), 4 * p))
    capacity = c.add(beta0, c.divide(c.multiply(4 * p, beta1), root))
    log_cap = c.ln(capacity)
    at_n = c.add(log_cap, c.multiply(n, log_lam))
    beyond = c.add(at_n, log_lam)
    return at_n > -_BOUND_MARGIN and beyond < -_BOUND_MARGIN


def check_query(query: Query, stdout: str) -> None:
    """Check the output of one query that exited 0."""
    r = Fraction(query.a, query.b)
    checker = _CHECKS[query.command]
    try:
        checker(query, r, stdout)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        raise WrongOutput(f"unreadable output ({type(exc).__name__}: {exc})") from None


def _check_expand_browkin(query: Query, r: Fraction, stdout: str) -> None:
    p = query.p
    out = json.loads(stdout)
    _require(out["p"] == p and Fraction(out["input"]) == r, "echoed input differs")
    quotients = [Fraction(q["num"], q["den"]) for q in out["quotients"]]
    _require(len(quotients) == len(out["k"]) == len(out["beta"]), "trace lengths differ")
    for q, k in zip(quotients, out["k"]):
        _require(2 * abs(q) < p, f"partial quotient {q} not below p/2")
        _require(p**k % q.denominator == 0, f"partial quotient {q} not in Z[1/p]")
    # back-substitution a0 + 1/(a1 + ...) on an unreduced integer pair
    num, den = quotients[-1].numerator, quotients[-1].denominator
    for q in reversed(quotients[:-1]):
        _require(num != 0, "back-substitution divides by zero")
        num, den = q.numerator * num + q.denominator * den, q.denominator * num
    _require(num * r.denominator == den * r.numerator, "quotients do not rebuild the input")
    beta0, beta1 = _first_browkin_betas(r, p)
    _require(out["beta"][0] == beta0, "beta_0 differs")
    _require(len(quotients) == 1 or abs(out["beta"][1]) == beta1, "beta_1 differs")
    n = out["bound_N"]
    _require(len(quotients) <= n + 1, f"length {len(quotients)} exceeds bound N+1 = {n + 1}")
    _require(_bound_is_right(beta0, beta1, p, n), f"bound N = {n} is not the certified bound")
    _require(out["reconstructed"] is True, "reconstructed is not true")


def _check_bound(query: Query, r: Fraction, stdout: str) -> None:
    out = json.loads(stdout)
    beta0, beta1 = _first_browkin_betas(r, query.p)
    _require(out["p"] == query.p, "echoed prime differs")
    _require((out["beta0_abs"], out["beta1_abs"]) == (beta0, beta1), "beta magnitudes differ")
    n = out["n_bound"]
    _require(_bound_is_right(beta0, beta1, query.p, n), f"bound N = {n} is not the certified bound")
    _require(isinstance(out["exact_certificate"], bool), "exact_certificate is not a boolean")


def _schneider_matrix(head, p):
    u, v, w, z = 1, 0, 0, 1
    for digit, alpha in head:
        pa = p**alpha
        u, v, w, z = u * digit + v, u * pa, w * digit + z, w * pa
    return u, v, w, z


def _check_expand_schneider(query: Query, r: Fraction, stdout: str) -> None:
    p = query.p
    out = json.loads(stdout)
    _require((out["p"], out["a"], out["b"]) == (p, r.numerator, r.denominator), "echoed input differs")
    head = [(step["b"], step["alpha"]) for step in out["head"]]
    for digit, alpha in head:
        _require(1 <= digit <= p - 1 and alpha >= 1, f"step ({digit},{alpha}) out of range")
    u, v, w, z = _schneider_matrix(head, p)
    # a/b = (u*t + v) / (w*t + z) for the tail value t, so t is forced
    a, b = r.numerator, r.denominator
    tail = Fraction(v * b - z * a, w * a - u * b) if w * a != u * b else None
    if out["stationary_from"] is not None:
        _require(not out["finite_end"], "both tail markers set")
        _require(out["stationary_from"] == len(head), "stationary_from is not the head length")
        _require(tail == -1, "head with the stationary tail -1 does not rebuild the input")
    else:
        _require(out["finite_end"] is True, "no tail marker set")
        _require(tail is not None and tail.denominator == 1 and 1 <= tail <= p - 1,
                 "head does not rebuild the input with a digit as finite tail")
    if query.k is not None:
        _require(head == [(query.digit, query.alpha)] * (query.k + 1),
                 f"head is not ({query.digit},{query.alpha}) repeated {query.k + 1} times")
        _require(out["stationary_from"] == query.k + 1, "constant head does not end in the stationary tail")


_TERM_RE = re.compile(r"^([+-]?)(\d+)(?:\*(\d+)(?:\^(-?\d+))?)?$")


def _check_digits(query: Query, r: Fraction, stdout: str) -> None:
    p = query.p
    total = Fraction(0)
    exponents = []
    for term in stdout.split():
        match = _TERM_RE.match(term)
        _require(match is not None, f"unreadable digit term {term!r}")
        sign, digit, base, exponent = match.groups()
        e = 0 if base is None else (1 if exponent is None else int(exponent))
        _require(base is None or int(base) == p, f"term {term!r} has the wrong base")
        _require(1 <= int(digit) <= (p - 1) // 2, f"digit of {term!r} out of range")
        exponents.append(e)
        total += (-1 if sign == "-" else 1) * int(digit) * Fraction(p) ** e
    start = _valuation(r.numerator, p, r.numerator.bit_length()) - _valuation(
        r.denominator, p, r.denominator.bit_length()
    )
    end = start + DIGITS_WINDOW
    _require(exponents and exponents[0] == start, "first digit is not at the valuation of the input")
    _require(exponents == sorted(set(exponents)) and exponents[-1] < end, "exponents out of order or range")
    _require(_has_valuation_at_least(r - total, p, end), "digits do not agree with the input mod p^(start+n)")


def _check_head(query: Query, r: Fraction, stdout: str) -> None:
    out = json.loads(stdout)
    _require(out["head_len"] == query.k + 1, f"head_len {out['head_len']} != k+1 = {query.k + 1}")
    _require(out["exact_exponent"] == query.k, "exact_exponent is not k")
    _require(out["exact_identity"] is True, "no exact identity")


_CHECKS = {
    "expand-browkin": _check_expand_browkin,
    "bound": _check_bound,
    "expand-schneider": _check_expand_schneider,
    "digits": _check_digits,
    "head": _check_head,
}


def check_sweep(csv_bytes: bytes, stderr: str) -> None:
    rows = csv_bytes.count(b"\n") - 1
    _require(rows == SWEEP_ROWS, f"sweep wrote {rows} rows, expected {SWEEP_ROWS}")
    digest = hashlib.sha256(csv_bytes).hexdigest()
    _require(digest == SWEEP_SHA256, f"sweep CSV sha256 {digest} differs from the pinned one")
    _require(stderr.strip() == SWEEP_SUMMARY, f"sweep summary line differs: {stderr.strip()!r}")
