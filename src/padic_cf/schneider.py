"""Schneider continued fraction expansion of a rational, its convergent
matrices, stationarity detection, and exact head-length analysis.

The expansion writes a/b = b0 + p**a0/(b1 + p**a1/(...)) with digits in
{1,...,p-1} and exponents >= 1, driven by the integer recurrence

    y_{-1} = a,  y_0 = b
    b_m = y_{m-1} * y_m**-1 mod p,   alpha_m = vp(y_{m-1} - b_m y_m)
    y_{m+1} = (y_{m-1} - b_m y_m) / p**alpha_m

Every y_m is prime to p, so the step loop carries r_m = y_m mod p, never 0,
beside y_m: the digit b_m = r_{m-1} * r_m**-1 mod p costs no big-integer
operation, and one exact division of y_{m-1} - b_m y_m by p, then one more
per further factor of p, yields alpha_m, y_{m+1} and r_{m+1} together.  The
inverses r**-1 mod p come from a dict made for each expansion.  It starts
with 1 and p-1, their own inverses, and inverts any other residue on its
first use.  Lookups are made only for the digits b_m of the pairs
(y_{m-1}, y_m) the expansion reaches: one for each step it records, and one
more at a finite end, for y_m = +-1 (lemma (iv)), whose inverse the dict
starts with.  So an expansion makes at most min(p-3, steps) pow calls and
none at p = 3.  A second dict maps the int b_m + p*alpha_m to the one
SchneiderStep of that step, made on its first use: always in the batches,
and in the single-step loop where 2p < bits (bits as below) only, as an
expansion has about p distinct steps and in shorter ones lookups cost more
than they save.  Both dicts go when the expansion returns.

Every rational either terminates (some y_{m-1} - b_m y_m hits 0) or is
absorbed by the stationary loop: once (y_m, y_{m+1}) = (t, -t) with |t| = 1,
every later step is (p-1, 1) and the remaining tail has exact value -1.

The step loop's cap comes from the input.  Let H_m = max(|y_{m-1}|, |y_m|),
so H_0 = max(|a|, b) < 2**bits with bits = max(|a|, b).bit_length(), and
H_m >= 1 as no y_m is 0.
  (i) |y_{m+1}| <= (|y_{m-1}| + b_m |y_m|) / p**alpha_m <= H_m, since
      b_m <= p-1 and alpha_m >= 1: H never increases.
 (ii) After a step other than (p-1, 1), b_m <= p-2 or alpha_m >= 2, so
      |y_{m+1}| <= (p-1) H_m / p, and then H_{m+2} <= c H_m with
      c = (p*p - p + 1) / (p*p).  Of K such steps, at least K/2 lie two or
      more apart, each multiplying H by at most c before the next, so
      c**(K/2 - 1) H_0 >= 1.  As ln(1/c) >= (p-1)/p**2 >= 1/(p+2) and
      ln H_0 < bits, K < 2 bits (p+2) + 2.
(iii) Every pair (y_{m-1}, y_m) is coprime, as (a, b) is and y_{m-1} =
      b_m y_m + p**alpha_m y_{m+1}.  So s_m = y_{m-1} + y_m is 0 exactly at
      the stationary pairs +-(1, -1), and the loop tests stationarity by that
      one add (a batch ends on the exact pair).  A (p-1, 1) step maps s_m,
      nonzero before each recorded step, to s_m / p, so a run of r such steps
      has p**r <= |s_m| <= 2 H_0 < 2**(bits+1), which gives r <= bits.
Hence at most K + (K+1) bits < (2 bits (p+2) + 4)(bits + 1) steps are
recorded, and that count is the cap: a guard against a defect in the loop,
quadratic in bits, not the paper's length bound.

Above a bound, steps are taken in batches, on residues (Lehmer's method for
Euclid's algorithm, in the p-adic direction).  Let W = _BATCH_WIDTH and
K = W // p.bit_length().  When x = y_{m-1} and x' = y_m mod p**P and
vp(x - b_m x') = alpha < P, then alpha = alpha_m and (x - b_m x') / p**alpha
= y_{m+1} mod p**(P - alpha): the next steps depend only on y_{m-1}, y_m
mod p**K.  A batch steps on those residues (|x| < p**K <= 2**W, and as in
(i) no later residue is larger) while at least 2 digits of precision are
left, and keeps the matrix C with p**s (y_{j-1}, y_j) = C (y_{m-1}, y_m), s
the batch's exponent sum; one exact division by p**s then gives the pair it
reached, without forming the y values in between.  A first step whose
exponent the residues cannot tell (alpha_m >= K-1) is taken on the full pair.
 (iv) Batches run only while min(|y_{m-1}|, |y_m|) >= 2**(2W), and K >= 2
      (the loop asks K >= _BATCH_DEPTH_MIN, for speed); they meet neither a
      stationary pair (H = 1) nor a finite end (y_{m-1} = b_m y_m with the
      pair coprime, so |y_m| = 1 and H <= p-1).  For y_{m-1} = b_m y_m +
      p**alpha_m y_{m+1} gives H_m <= (p-1+p**alpha_m) H_{m+1} < 2 p**alpha_m
      H_{m+1}, and a batch's n <= s <= K-1 steps divide H by less than
      2**n p**s < 2**K p**K <= 2**(3W/2), as p.bit_length() >= 2.  So H stays
      above 2**(W/2) >= 2**p.bit_length() > p-1, since K >= 2 means
      p.bit_length() <= W/2.
So every pair the batches pass over is one the single-step loop would step
from without stopping, and every stationary pair and finite end lies below
the bound, where the single-step loop runs.

A constant head of k+1 identical (digit, exponent) steps satisfies
(T2/T1)**k = theta where T1, T2 are the roots of T**2 - digit*T - p**exponent
and theta is a ratio of conjugate products.  head_analysis reads the one k it
allows off two p-adic valuations and checks the identity for that k exactly,
on integer pairs in Z[sqrt(4p**exponent + digit**2)]; no float takes part.
The check runs on p-free parts.  With theta = (sx + sy*sqrt(D))/n and
w**k = u + v*sqrt(D), the identity is u*n == sx*(4p**exponent)**k and
v*n == sy*(4p**exponent)**k; write n = p**vn n' and sx = p**vs sx' with n',
sx' prime to p and vn = vs + exponent*k.  Dividing the first equation by
p**vn and the second by p**(exponent*k) gives u*n' == sx'*4**k and
v*n'*p**vs == sy*4**k, the same equations, on input-sized products and with
no power of p**exponent built.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from typing import NamedTuple

from .exactarith import require_lowest_terms, require_odd_prime, vp_split


class SchneiderStep(NamedTuple):
    b: int
    alpha: int


class SchneiderExpansion(NamedTuple):
    """Recorded non-stationary head plus the tail marker.

    Exactly one of stationary_from / finite_end describes the tail, in every
    record schneider_expand returns (a loop past its cap raises instead):
    stationary_from is the index of the first of the everlasting (p-1, 1)
    steps (= len(steps)); finite_end means the next digit would divide
    exactly, leaving an integer tail.  tail is the exact value of the
    unexpanded tail after the recorded steps, as an unreduced integer pair
    (num, den): (-1, 1) for the stationary tail, else the last pair
    (y_{n-1}, y_n) the steps reached, with |den| = 1 at a finite end.
    """

    p: int
    a: int
    b: int
    steps: tuple[SchneiderStep, ...]
    stationary_from: int | None
    finite_end: bool
    tail: tuple[int, int]

    @property
    def y_trace(self) -> Iterator[int]:
        """y_1, y_2, ..., one per step, replayed from (a, b) through the recurrence."""
        p, y_prev, y_cur = self.p, self.a, self.b
        for digit, alpha in self.steps:
            y_prev, y_cur = y_cur, (y_prev - digit * y_cur) // p**alpha
            yield y_cur


class HeadReport(NamedTuple):
    """Exact certificate for the length of a constant (digit, exponent) head.

    The record holds integers only: disc = D = 4p**alpha + digit**2, and theta
    = (sx + sy*sqrt(D)) / n, the ratio of conjugate products.  exact_identity
    means (t2/t1)**(head_len-1) equals theta, checked exactly on integer pairs
    in Z[sqrt(D)]; otherwise head_len is None.  t1, t2 = (digit -+ sqrt(D)) / 2,
    the roots of T**2 - digit*T - p**alpha, are fixed by the pair; `head`
    prints them and theta off these integers.
    """

    digit: int
    alpha: int
    disc: int
    sx: int
    sy: int
    n: int
    head_len: int | None
    exact_identity: bool


_BATCH_WIDTH = 480  # W: bits of the residues a batch steps on (module docstring, (iv))
# fewest digits K a batch steps on: with fewer (p above 17 bits), its full-size products
# and division cost more than the single steps they replace
_BATCH_DEPTH_MIN = 28
_record = tuple.__new__  # a record without the NamedTuple's Python-level __new__


def _batches(
    y_prev: int, y_cur: int, p: int, depth: int, steps: list, cap: int, inverses: dict,
    records: dict,
) -> tuple[int, int]:
    # steps y_prev, y_cur in batches on residues mod p**depth while both stay at or above
    # 2**(2W) and a whole batch fits under the cap; returns the pair reached.  inverses and
    # records are the expansion's tables: r to r**-1 mod p, digit + p*alpha to its record
    pows = [p**e for e in range(depth + 1)]
    modulus, bound, append = pows[depth], 2 * _BATCH_WIDTH, steps.append
    while min(abs(y_prev), abs(y_cur)).bit_length() > bound and len(steps) + depth <= cap:
        x_prev, x_cur = y_prev % modulus, y_cur % modulus
        r_prev, r_cur = x_prev % p, x_cur % p
        # precision digits left, and C = [[c00, c01], [c10, c11]]
        left, c00, c01, c10, c11 = depth, 1, 0, 0, 1
        while left >= 2:
            inverse = inverses.get(r_cur)
            if inverse is None:
                inverse = inverses[r_cur] = pow(r_cur, -1, p)
            digit = r_prev * inverse % p
            x_next, alpha = (x_prev - digit * x_cur) // p, 1
            r_next = x_next % p
            while not r_next and alpha + 1 < left:
                x_next //= p
                alpha += 1
                r_next = x_next % p
            if not r_next:
                break  # alpha >= left: the residues cannot tell this step
            left -= alpha
            pa = pows[alpha]
            c00, c01, c10, c11 = pa * c10, pa * c11, c00 - digit * c10, c01 - digit * c11
            key = digit + p * alpha
            record = records.get(key)
            if record is None:
                record = records[key] = _record(SchneiderStep, (digit, alpha))
            append(record)
            x_prev, x_cur, r_prev, r_cur = x_cur, x_next, r_cur, r_next
        if left < depth:
            scale = pows[depth - left]
            (y_prev, rem_prev), (y_cur, rem_cur) = (
                divmod(c00 * y_prev + c01 * y_cur, scale), divmod(c10 * y_prev + c11 * y_cur, scale))
            if rem_prev or rem_cur:
                raise ArithmeticError(f"inexact batch division by {p}**{depth - left}")
        else:
            # the first step's exponent is depth - 1 or more: take it, digit and all, on the full pair
            y_next, alpha = (y_prev - digit * y_cur) // p, 1
            if not y_next:  # only a wrong digit (a defect) leaves 0, which p divides forever
                raise ArithmeticError("inexact step: a batch reached y = 0")
            while not y_next % p:
                y_next //= p
                alpha += 1
            append(records.setdefault(digit + p * alpha, _record(SchneiderStep, (digit, alpha))))
            y_prev, y_cur = y_cur, y_next
    return y_prev, y_cur


def _require_unit_pair(a: int, b: int, p: int) -> None:
    # what an expansion and a head ask of a/b: a nonzero, b positive, both prime to p
    require_odd_prime(p)
    if a == 0:
        raise ValueError("numerator must be nonzero")
    if b < 1:
        raise ValueError("denominator must be positive")
    if a % p == 0:
        raise ValueError("numerator must be coprime to p")
    if b % p == 0:
        raise ValueError("denominator must be coprime to p")


def schneider_expand(a: int, b: int, p: int) -> SchneiderExpansion:
    """Expand a/b until stationarity or finite termination.

    Requires a nonzero, b positive, and a, b, p pairwise coprime.  The step
    loop is capped by a count read off the bit length of the input, above
    every possible step count (module docstring); exceeding the cap raises
    ArithmeticError, and so does a y of 0 in a p-strip (single step or a
    batch's full-pair step), which only a wrong digit can leave.
    """
    _require_unit_pair(a, b, p)
    require_lowest_terms(a, b)

    # above every step count the module docstring allows, so only a defect reaches it
    bits = max(abs(a), b).bit_length()
    cap = (2 * bits * (p + 2) + 4) * (bits + 1)
    y_prev, y_cur = a, b
    steps: list[SchneiderStep] = []
    append = steps.append
    inverses = {1: 1, p - 1: p - 1}  # r -> r**-1 mod p; 1 and p-1 are their own inverses
    records: dict[int, SchneiderStep] = {}  # digit + p*alpha -> the one record of that step
    share = 2 * p < bits  # where steps repeat enough for the lookups to pay (module docstring)
    depth = _BATCH_WIDTH // p.bit_length()
    if _BATCH_DEPTH_MIN <= depth and min(abs(a), b).bit_length() > 2 * _BATCH_WIDTH:
        try:
            y_prev, y_cur = _batches(a, b, p, depth, steps, cap, inverses, records)
        except ArithmeticError as exc:  # a defect: named with the input, as the cap is
            raise ArithmeticError(f"{exc} in the expansion of {a}/{b}") from None
    # below the batch bound: one step at a time, r_prev, r_cur carrying y_{m-1} mod p
    # and y_m mod p, never 0, until the sum is 0 at a stationary pair (lemma (iii))
    r_prev, r_cur = y_prev % p, y_cur % p
    while y_prev + y_cur:
        inverse = inverses.get(r_cur)
        if inverse is None:
            inverse = inverses[r_cur] = pow(r_cur, -1, p)
        digit = r_prev * inverse % p
        delta = y_prev - digit * y_cur
        if not delta:  # a finite end
            return _record(SchneiderExpansion, (p, a, b, tuple(steps), None, True, (y_prev, y_cur)))
        if len(steps) == cap:
            raise ArithmeticError(f"bound violated: expansion of {a}/{b} exceeded {cap} steps")
        y_next, alpha = delta // p, 1  # exact: digit makes delta divisible by p
        r_next = y_next % p
        while not r_next:
            if not y_next:  # only a wrong digit (a defect) leaves 0, which p divides forever
                raise ArithmeticError(f"inexact step: expansion of {a}/{b} reached y = 0")
            y_next //= p
            alpha += 1
            r_next = y_next % p
        if share:
            record = records.get(key := digit + p * alpha)
            if record is None:
                record = records[key] = _record(SchneiderStep, (digit, alpha))
        else:
            record = _record(SchneiderStep, (digit, alpha))
        append(record)
        y_prev, y_cur, r_prev, r_cur = y_cur, y_next, r_cur, r_next
    return _record(SchneiderExpansion, (p, a, b, tuple(steps), len(steps), False, (-1, 1)))


def schneider_pair(head, tail: tuple[int, int], p: int) -> tuple[int, int]:
    """Unreduced (num, den) of b0 + p**a0/(b1 + ... + p**ak/(tail num/den)).

    head is a SchneiderExpansion's steps or a list of (digit, alpha) pairs;
    items 0 and 1 of each record are read, last record first.  A zero tail
    or zero partial denominator raises ZeroDivisionError.
    """
    num, den = tail
    if num == 0:
        raise ZeroDivisionError("zero tail value")
    for step in reversed(head):
        if num == 0:
            raise ZeroDivisionError("zero denominator in back-substitution")
        num, den = step[0] * num + p ** step[1] * den, num
    return num, den


def schneider_evaluate(head, tail: tuple[int, int], p: int) -> Fraction:
    """Exact back-substitution of b0 + p**a0/(b1 + ... + p**ak/(tail num/den)),
    on schneider_pair.  tail is an integer pair (num, den), den != 0, as
    SchneiderExpansion.tail gives it; the everlasting (p-1, 1) tail is
    (-1, 1), its exact value.
    """
    return Fraction(*schneider_pair(head, tail, p))


def schneider_convergents(expansion: SchneiderExpansion) -> Iterator[tuple[int, int, int, int]]:
    """Yield the matrix prefixes M_m as tuples (u, v, w, z); the m-th convergent is u/w.

    det M_m = (-1)**(m+1) * p**(alpha_0+...+alpha_m), and the truncation
    error a/b - U_m/W_m has valuation exactly alpha_0+...+alpha_m.
    """
    p, u, v, w, z = expansion.p, 1, 0, 0, 1
    for digit, alpha in expansion.steps:
        pa = p**alpha
        u, v, w, z = u * digit + v, u * pa, w * digit + z, w * pa
        yield u, v, w, z


def _check_head_pair(digit: int, alpha: int, p: int) -> None:
    if not 1 <= digit <= p - 1:
        raise ValueError(f"digit must be in 1..{p - 1}, got {digit}")
    if alpha < 1:
        raise ValueError(f"exponent must be positive, got {alpha}")
    if (digit, alpha) == (p - 1, 1):
        raise ValueError("the stationary pair (p-1, 1) has no constant head")


def head_analysis(a: int, b: int, digit: int | None, alpha: int | None, p: int) -> HeadReport:
    """Certify the length of the constant (digit, alpha) head of a/b.

    Returns head_len = e + 1 for the one exponent e that p-adic valuations allow,
    once (t2/t1)**e = theta is checked for it exactly on integer pairs in
    Z[sqrt(D)]; else head_len is None.  a/b is taken as schneider_expand takes
    it, but need not be in lowest terms: only its value decides the answer
    (the report's sx, sy and n scale by g**2 for a/b given as ga/gb).

    digit, alpha or both may be None: each is then that of a/b's first step,
    b0 = a*b**-1 mod p and alpha0 = vp(a - b0*b), read off the definition and
    not off an expansion, so that it too depends only on the value a/b.  An
    a/b with no first step, a finite end (a = b0*b) or stationary (a + b = 0)
    at once, raises ValueError.

    The check runs on p-free parts: with n = p**vn n', sx = p**vs sx' and
    vn = vs + alpha*e, the equations u*n == sx*(4p**alpha)**e and
    v*n == sy*(4p**alpha)**e hold exactly when u*n' == sx'*4**e and
    v*n'*p**vs == sy*4**e, dividing the first by p**vn and the second by
    p**(alpha*e).
    """
    _require_unit_pair(a, b, p)
    if digit is None or alpha is None:
        first = a * pow(b, -1, p) % p
        delta = a - first * b
        if not delta or a + b == 0:
            raise ValueError("input has no head step to analyze")
        digit = first if digit is None else digit
        alpha = vp_split(delta, p)[0] if alpha is None else alpha
    _check_head_pair(digit, alpha, p)
    # before any power is built: p**alpha >= 2**(alpha*(p.bit_length()-1)), so when that
    # exponent reaches the bit length of |a| + (p-1)*b, p**alpha > |a| + (p-1)*b >=
    # |a - digit*b|, p**alpha cannot divide a nonzero a - digit*b, and no expansion of a/b
    # starts with (digit, alpha); the largest exponent left is alpha_max
    alpha_max = ((abs(a) + (p - 1) * b).bit_length() - 1) // (p.bit_length() - 1)
    if alpha > alpha_max:
        raise ValueError(f"exponent must be at most {alpha_max} for {a}/{b} at p={p}, got {alpha}")

    # 4(t1 - p**alpha)(a - b*t1) = x + y*sqrt(D) is never 0: D = s*s would force
    # (s - digit)(s + digit) = 4p**alpha, i.e. the stationary pair (p-1, 1)
    pa = p**alpha
    disc = 4 * pa + digit * digit
    big_p, q = digit - 2 * pa, 2 * a - b * digit
    x, y = big_p * q - b * disc, big_p * b - q
    # x*y < 0 makes |theta| < 1; y = 0 makes theta = 1, the one-step head d - p**alpha (e = 0),
    # and x = 0 makes theta = -1, which no e meets
    if x * y < 0:
        raise ValueError("|theta| < 1: no constant head to measure")
    # theta = (x + y*sqrt(D)) / (x - y*sqrt(D)) = (sx + sy*sqrt(D)) / n, with sx > 0 and n != 0
    sx, sy, n = x * x + disc * y * y, 2 * x * y, x * x - disc * y * y
    # t1*t2 = -p**alpha, so (t2/t1)**e = w**e / (4p**alpha)**e with w = -(digit + sqrt(D))**2;
    # the identity holds iff w**e * n == (sx + sy*sqrt(D)) * (4p**alpha)**e.  In Z_p take
    # sqrt(D) = s = digit mod p: digit + s is a unit, digit - s has valuation alpha, so the rational
    # part u = (w(s)**e + w(-s)**e) / 2 of w**e is a unit, and u*n == sx*(4p**alpha)**e forces
    # vp(n) = vp(sx) + alpha*e: one e, with p**(alpha*e) <= |n|, so powers stay input-sized
    (vn, n_free), (vs, sx_free) = vp_split(n, p), vp_split(sx, p)
    e, rem = divmod(vn - vs, alpha)
    exact = False
    if e >= 0 and not rem:
        u, v, bu, bv, i = 1, 0, -(digit * digit + disc), -2 * digit, e
        while i:
            if i & 1:
                u, v = u * bu + v * bv * disc, u * bv + v * bu
            bu, bv, i = bu * bu + bv * bv * disc, 2 * bu * bv, i >> 1
        # the identity on p-free parts, as the docstring derives it
        four_e = 1 << 2 * e
        exact = u * n_free == sx_free * four_e and v * n_free * p**vs == sy * four_e
    return _record(HeadReport, (digit, alpha, disc, sx, sy, n, e + 1 if exact else None, exact))


def generate_constant_head(digit: int, alpha: int, k: int, p: int) -> tuple[int, int]:
    """Rational a/b whose expansion is (digit, alpha) repeated k+1 times,
    then the stationary tail.

    Built as the product of k+1 copies of [[digit, p**alpha], [1, 0]]
    applied to the stationary tail vector (1, -1), sign-normalized to b > 0.
    """
    require_odd_prime(p)
    _check_head_pair(digit, alpha, p)
    if k < 0:
        raise ValueError("k must be nonnegative")
    pa, u, v, w, z = p**alpha, 1, 0, 0, 1
    for _ in range(k + 1):
        u, v, w, z = u * digit + v, u * pa, w * digit + z, w * pa
    a, b = u - v, w - z
    if b < 0:
        a, b = -a, -b
    return a, b
