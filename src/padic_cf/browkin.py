"""Browkin continued fraction expansion of a rational, its convergents,
the majorant sequence that forces termination, and the certified length
bound.

The expansion writes r = a0 + 1/(a1 + 1/(...)) with every partial quotient
an = xn / p**kn taken from Z[1/p] with |an| < p/2.  Bookkeeping runs on an
integer pair (beta_{n-1}, beta_n):

    r = alpha / (beta * p**k0),  beta_{-1} = alpha,  beta_0 = beta
    xn     = symmetric residue of beta_{n-1} * beta_n**-1  mod p**(1+kn)
    delta  = beta_{n-1} - xn * beta_n          (divisible by p**(1+kn))
    k_{n+1} = vp(delta) - kn,   beta_{n+1} = delta / p**(kn + k_{n+1})

Since xn makes delta divisible by p**(1+kn), k_{n+1} >= 1 and the step loop
divides delta exactly by p**(1+kn), then strips the remaining factors of p.
xn needs beta_{n-1} and beta_n only modulo p**(1+kn), so the loop carries
those residues from step to step.  A step with k_{n+1} = 1 reads beta_{n+1}
mod p**2 once, which also shows that k_{n+1} = 1, and takes beta_n mod p**2
from its carried residue, known mod p**(1+kn), a multiple of p**2 as kn >= 1
for n >= 1.  Only k0 may be 0, so beta_0 is carried mod p**(2+k0): known
only mod p, it could not give a k1 = 1 step beta_0 mod p**2.  A step with
k_{n+1} >= 2 reduces both full integers mod p**(1+k_{n+1}).

beta_{n+1} = 0 terminates: the last complete quotient equals its partial
quotient exactly.  |beta_n| is dominated by a linear recurrence whose decay
certifies that at most n_bound + 1 quotients can appear.  A record stores no
beta past beta_0: cf_pair's back-substitution hands them back to the
reconstruction check, and the oracle's chain walk replays them for the others.

The tail lemma.  An expansion is its first step followed by the expansion of
its first complete quotient r_1 = beta_0 / (beta_1 * p**k1), so len(a/b) =
1 + len(r_1).  Let (k0, x_0) be the first step of a/b, with delta_0 = a -
x_0*beta_0 = beta_1 * p**(k0+k1).  Every step from n = 1 on, and every beta
from beta_0 on, is read off the pair (beta_0, beta_1) alone by the step rule,
and that pair is fixed by b, whose k0 and beta_0 depend on b alone, and
delta_0.  So two inputs over one b with one delta_0 share every step past the
first, beta_0, |beta_1| and so the bound N; delta_0 = 0 is a one-step
expansion, with no step past the first.  And from (beta_0, -beta_1), for the
delta_0 of opposite sign, the steps from n = 1 on are (k_n, -x_n), with the
betas beta'_n = (-1)**n * beta_n: if beta'_{n-1} and beta'_n are
(-1)**(n-1) beta_{n-1} and (-1)**n beta_n, then beta'_{n-1} * beta'_n**-1 is
-(beta_{n-1} * beta_n**-1), and the symmetric residue mod the odd modulus
p**(1+kn) is an odd function, so x'_n = -x_n; then delta'_n = beta'_{n-1} -
x'_n*beta'_n = (-1)**(n-1) * delta_n, so k'_{n+1} = k_{n+1}, beta'_{n+1} =
(-1)**(n+1) beta_{n+1}, and delta'_n = 0 exactly where delta_n = 0 (the mirror
lemma's reason: -a/b is the case x'_0 = -x_0).  That tail has the length, and
the bound N, of the one it negates.  So all a row prints or checks of its
tail is its length, k_1 and beta_1, with beta_1 negated for -delta_0, and
beta_0, which is the line's.

The first step's rule is stated once, in browkin_first: k0, beta_0, the
modulus p**(1+k0) and beta_0**-1 mod that modulus depend on b alone
(browkin_line), and then x_0 and delta_0 are a few small-integer operations.
browkin_betas is the input rules followed by that rule, and browkin_expand
goes on from it, its step loop starting at n = 1 from (beta_0, delta_0).  The
sweep takes a line's constants once and the rule once per row
(oracle.certified_line): a row whose delta_0 or -delta_0 an earlier kernel row
of its line stored takes that row's length, k_1, beta_1 and bound report,
and builds no record; any other row hands its kernel the step it
took, so each row takes its first step once.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from math import isqrt, lcm
from typing import NamedTuple

from .exactarith import require_lowest_terms, require_odd_prime, vp_split


class BrowkinStep(NamedTuple):
    """One expansion step: exponent kn and residue xn; the partial quotient is
    an = xn/p**kn, already in lowest terms (xn is prime to p whenever kn > 0)."""

    k: int
    x: int


class BrowkinExpansion(NamedTuple):
    """The expansion of alpha / (beta0 * p**k0), k0 = steps[0].k, in lowest terms,
    to the step whose delta is 0; no beta past beta0 is stored (module docstring)."""

    p: int
    alpha: int
    beta0: int
    steps: tuple[BrowkinStep, ...]


class Convergent(NamedTuple):
    pn: Fraction
    qn: Fraction
    value: Fraction


class BoundReport(NamedTuple):
    """Certified bound: at most n_bound + 1 partial quotients, where n_bound is
    the largest n with lambda1**n * capacity >= 1 and capacity =
    2|beta1|/(lambda1-lambda2) + |beta0|; browkin_bound certifies it.  The
    record holds integers only: lambda1, lambda2 = (p +- sqrt(p**2 + 16)) / (4p)
    are fixed by p, and `bound` prints them off it."""

    p: int
    beta0_abs: int
    beta1_abs: int
    n_bound: int
    exact_certificate = True  # n_bound is always certified exactly; `bound` still reports it


_record = tuple.__new__  # a record without the NamedTuple's Python-level __new__


def browkin_expand(a: int, b: int, p: int, first: tuple | None = None) -> BrowkinExpansion:
    """Full Browkin expansion of a/b, a nonzero, a and b coprime, b > 0.

    The expansion goes on from its first step: first is browkin_betas(a, b, p), taken here
    when not given, with its input rules and messages.  The step loop is capped by a count
    read off the bit length of the input, above n_bound + 1; reaching the cap raises
    ArithmeticError, and so does a beta of 0 before the p-strip, which only an inexact
    division can leave.
    """
    step, beta, delta = browkin_betas(a, b, p) if first is None else first
    steps: list[BrowkinStep] = [step]
    b_cur = beta  # beta_0 is positive and p-free; the sign lives in a
    # lambda1 <= 2/3 for p >= 3 and capacity < 4|a| + 3*beta, so N + 1 < 2*bits + 1 < cap
    cap = 4 * ((4 * abs(a) + 3 * beta).bit_length() + 1)
    # r_prev, r_cur are congruent to beta_{n-1}, beta_n modulo p**(1+kn), and r_cur also
    # modulo p**2: a k_{n+1} = 1 step reads beta_n mod p**2 off r_cur, and kn = 0 only at n = 0
    p2, modulus = p * p, p ** (1 + step[0])
    r_cur = beta % (modulus * p)
    while delta:
        b_prev, b_cur = b_cur, delta // modulus  # exact, and k_{n+1} >= 1
        r_prev, r_cur = r_cur, b_cur % p2
        # kept: reducing both betas every step reads x1.10 on the 100x100 sweep
        # (BENCH_special_paths_2.json, row 13)
        if r_cur % p:  # k_{n+1} = 1: both residues carried, one full-size reduction
            k = 1
            modulus = p2
        else:  # k_{n+1} >= 2: strip p, then reduce both full integers
            if not b_cur:  # only an inexact division (a defect) leaves 0, which p divides forever
                raise ArithmeticError(f"inexact step: expansion of {a}/{b} reached a beta of 0")
            b_cur, k = b_cur // p, 2
            while not b_cur % p:
                b_cur //= p
                k += 1
            modulus = p ** (1 + k)
            r_prev, r_cur = b_prev % modulus, b_cur % modulus
        if len(steps) == cap:
            raise ArithmeticError(f"bound violated: expansion of {a}/{b} exceeded {cap} steps")
        x = r_prev * pow(r_cur, -1, modulus) % modulus
        if x > modulus >> 1:  # the symmetric residue
            x -= modulus
        steps.append(_record(BrowkinStep, (k, x)))
        delta = b_prev - x * b_cur
    return _record(BrowkinExpansion, (p, a, beta, tuple(steps)))


def browkin_line(b: int, p: int) -> tuple[int, int, int, int]:
    """(k0, beta0, modulus, inverse): the constants of the first step over b, k0 = vp(b),
    beta0 = b / p**k0, modulus = p**(1 + k0) and inverse = beta0**-1 mod modulus.  They depend
    on b and p alone, so a sweep takes them once per (p, b) line."""
    k0, beta0 = vp_split(b, p)
    modulus = p ** (1 + k0)
    return k0, beta0, modulus, pow(beta0, -1, modulus)


def browkin_first(a: int, beta0: int, modulus: int, inverse: int) -> tuple[int, int]:
    """(x0, delta0), the first step's rule over a line's constants (browkin_line): x0 is the
    symmetric residue of a * beta0**-1 mod p**(1+k0), a reduced first, and delta0 = a -
    x0*beta0.  It asks nothing of a: the input rules are browkin_betas', and a sweep's line
    holds only inputs that meet them."""
    x0 = a % modulus * inverse % modulus
    if x0 > modulus >> 1:
        x0 -= modulus
    return x0, a - x0 * beta0


def browkin_betas(a: int, b: int, p: int) -> tuple[BrowkinStep, int, int]:
    """(first step, beta0, delta0) of a/b's Browkin expansion: the input rules and messages of
    browkin_expand, which goes on from it, then browkin_first over browkin_line(b, p).

    delta0 = a - x0*beta0 = beta_1 * p**(k0+k1) with beta_1 prime to p, so |beta_1| is the
    p-free part of |delta0|, and 0 for a one-step expansion, where delta0 = 0.  Over one b,
    delta0 fixes every later step (the tail lemma in the module docstring).
    """
    require_odd_prime(p)
    if a == 0:
        raise ValueError("cannot expand zero")
    require_lowest_terms(a, b)
    k0, beta0, modulus, inverse = browkin_line(b, p)
    x0, delta0 = browkin_first(a, beta0, modulus, inverse)
    return _record(BrowkinStep, (k0, x0)), beta0, delta0


def cf_pair(steps, p: int, numerators: list[int] | None = None) -> tuple[int, int]:
    """Unreduced (num, den), den != 0, of a0 + 1/(a1 + 1/(... + 1/aN)), where
    a_n = x_n / p**k_n for the step records (k_n, x_n) of steps, in order.

    The back-substitution starts at level N from (x_N, p**k_N) and takes level
    n to (x_n*num + p**k_n*den, p**k_n*num).  Every den is p**k_n times the
    numerator of the level below, c_n (c_N = 1), so the loop carries (num, c_n)
    and one product per level: num_n = x_n*num_{n+1} + p**(k_n+k_{n+1}) * c_{n+1}.
    Given a list, numerators receives c_N, c_{N-1}, ..., c_0: for the steps of
    an expansion these are s*beta_N, ..., s*beta_0 with one sign s (the numerator
    lemma in the oracle module docstring).  A zero tail value raises
    ZeroDivisionError.
    """
    levels = reversed(steps)
    try:
        k, num = next(levels)
    except StopIteration:
        raise ValueError("empty quotient sequence") from None
    cofactor = 1
    keep = None if numerators is None else numerators.append
    if keep:
        keep(cofactor)
    for k_n, x in levels:  # k is k_{n+1}
        if num == 0:
            raise ZeroDivisionError("divergent finite fraction")
        num, cofactor = x * num + p ** (k_n + k) * cofactor, num
        k = k_n
        if keep:
            keep(cofactor)
    return num, p**k * cofactor


def cf_evaluate(quotients) -> Fraction:
    """Exact back-substitution of a0 + 1/(a1 + 1/(... + 1/ak)), on cf_pair.

    Each quotient is an integer pair (num, den) with den > 0, such as (x_n, p**k_n)
    for the step records of an expansion.  Over the common denominator
    D = lcm(den_0, ..., den_k), a_n = y_n / D with y_n = num_n * (D // den_n),
    which cf_pair takes as the step record (1, y_n) with base D.
    """
    quotients = list(quotients)
    common = lcm(*(den for _, den in quotients))
    return Fraction(*cf_pair([(1, num * (common // den)) for num, den in quotients], common))


def convergent_triples(quotients) -> Iterator[tuple[int, int, int]]:
    """Yield (P_n, Q_n, D_n) for the quotients a_n = num_n/den_n, integer pairs
    with den_n > 0: the convergent p_n/q_n scaled by D_n = den_0 * ... * den_n.

    p_n = a_n p_{n-1} + p_{n-2} becomes P_n = num_n P_{n-1} + den_n den_{n-1} P_{n-2}
    (Q_n likewise), started at n = 0 by P_{-2} = Q_{-1} = 0, P_{-1} = Q_{-2} = 1
    and den_{-1} = D_{-1} = 1; the determinant law p_n q_{n-1} - p_{n-1} q_n =
    (-1)**(n+1) reads P_n Q_{n-1} - P_{n-1} Q_n = (-1)**(n+1) D_n D_{n-1}.
    """
    p_prev, p_cur, q_prev, q_cur, d, den = 0, 1, 1, 0, 1, 1
    for num, den_next in quotients:
        link, den = den_next * den, den_next
        p_cur, p_prev = num * p_cur + link * p_prev, p_cur
        q_cur, q_prev = num * q_cur + link * q_prev, q_cur
        d *= den
        yield p_cur, q_cur, d


def browkin_convergents(quotients) -> list[Convergent]:
    """Convergents p_n/q_n of the quotient sequence a_0, a_1, ..., integer
    pairs (num, den) with den > 0 such as (x_n, p**k_n) for an expansion's
    step records, on convergent_triples; successive pairs satisfy
    p_n q_{n-1} - p_{n-1} q_n = (-1)**(n+1).
    """
    return [
        Convergent(Fraction(pn, d), Fraction(qn, d), Fraction(pn, qn))
        for pn, qn, d in convergent_triples(quotients)
    ]


def theta_sequence(beta0_abs: int, beta1_abs: int, p: int, n: int) -> list[Fraction]:
    """Majorant sequence theta dominating |beta_n| (see oracle.majorant):
    theta_0 = |beta_0|, theta_1 = |beta_1|, theta_{i+1} = theta_i/2 + theta_{i-1}/p**2.
    """
    if n < 2:
        raise ValueError("need at least two terms")
    seq = [Fraction(beta0_abs), Fraction(beta1_abs)]
    while len(seq) < n:
        seq.append(seq[-1] / 2 + seq[-2] / (p * p))
    return seq


def _length_seed(a: int, b: int, p: int, disc: int) -> int:
    # 0 if a + b*(p + 2) < D * 2**8, which puts the capacity below 2**8 as
    # sqrt(D) <= p + 2 (N <= 13 at p = 3, N <= 9 at p >= 5): there walking up
    # from 0 costs less than this estimate.  A large a or b fails on its size
    # alone, before any product.  Kept: the seed always reads x1.18 on the [wide]
    # sweep of test_derived_records_are_the_kernels (BENCH_special_paths_2.json, row 12)
    cut = disc << 8
    if a < cut and b < cut and a + b * (p + 2) < cut:
        return 0
    # else about log2(capacity) / log2(1/lambda1), capacity = (a + b*sqrt(D))/D and
    # 1/lambda1 = 4p/(p + sqrt(D)), as integers scaled by 2**bits, bits about
    # log2(bit length) + 2.  log2(capacity) is read off its bit length, linear
    # between powers of 2 (at most 0.09 low); log2(1/lambda1), whose error N
    # multiplies, by squaring its mantissa once per bit.
    bits = max(a, b * p).bit_length().bit_length() + 2
    width = bits + 8
    root = isqrt(disc << 2 * width)  # about sqrt(D) * 2**width
    capacity = ((a << width) + b * root) // disc  # about capacity * 2**width
    top = capacity.bit_length() - 1
    log_capacity = (capacity << bits >> top) + ((top - width - 1) << bits)
    m, log_ratio = (4 * p << 2 * width) // ((p << width) + root), 0  # 1/lambda1 in (1, 2)
    for _ in range(bits):
        m = m * m >> width
        log_ratio <<= 1
        if m >> width > 1:
            m >>= 1
            log_ratio += 1
    return max(0, log_capacity // log_ratio)


def browkin_bound(beta0_abs: int, beta1_abs: int, p: int) -> BoundReport:
    """Certified bound N: at most N+1 partial quotients can appear.

    lambda1 > |lambda2| are the roots of 2 p**2 X**2 - p**2 X - 2 = 0, i.e.
    (p +- sqrt(D)) / (4p) with D = p**2+16.  N is the largest n with
    lambda1**n * capacity >= 1, i.e. with

        x_n + y_n*sqrt(D) >= D * (4p)**n,  x_n + y_n*sqrt(D) = (p + sqrt(D))**n * (a + b*sqrt(D)),

    where a = D|beta0| and b = 4p|beta1|; x_n, y_n >= 0, so each test is an
    integer sign test: D * (4p)**n - x_n <= 0 or D * y_n**2 >= that gap squared.
    With r = isqrt(D), r <= sqrt(D) < r + 1, so y_n * r >= gap or y_n * (r + 1)
    <= gap decides most tests with one product; the squares settle the rest.

    The walk starts at n0 = 0 when a + b*(p + 2) < D * 2**8, so that the
    capacity is below 2**8 and N <= 13: walking up from 0 is then cheaper
    than an estimate (timed under CPython 3.11 on 300 random inputs per N:
    up to N = 15 at p = 3 and 7, N = 16 at p = 101).  Else it starts at an
    integer seed n0 ~ log2(capacity) / log2(1/lambda1) from fixed-point
    base-2 logarithms, with (p + sqrt(D))**n0 taken by repeated squaring and
    multiplied once by a + b*sqrt(D).  From n0 the search walks one n at a
    time: down while the test fails, else up while it holds, and stops where
    the result changes.  A step up maps (x, y) to (p*x + D*y, x + p*y); a
    step down is its inverse ((D*y - p*x)/16, (x - p*y)/16), exact because
    (p + sqrt(D)) * (sqrt(D) - p) = 16 and x_n + y_n*sqrt(D) is
    (p + sqrt(D)) times x_{n-1} + y_{n-1}*sqrt(D).  lambda1 < 1, so the test
    holds exactly for n <= N; the walk stops only on the n that holds with
    n + 1 failing, and the test holds at n = 0 (capacity >= 1), so N does
    not depend on n0, which sets only how many steps are taken.
    """
    require_odd_prime(p)
    if beta0_abs < 1:
        raise ValueError("beta0 magnitude must be >= 1")
    if beta1_abs < 0:
        raise ValueError("beta1 magnitude must be >= 0")

    disc, four_p = p * p + 16, 4 * p
    a, b = disc * beta0_abs, four_p * beta1_abs
    root = isqrt(disc)
    n = start = _length_seed(a, b, p, disc)
    x, y, scale = a, b, disc
    if n:
        u, v = 1, 0
        for bit in bin(n)[2:]:  # (p + sqrt(D))**n = u + v*sqrt(D)
            u, v = u * u + v * v * disc, 2 * u * v
            if bit == "1":
                u, v = p * u + disc * v, u + p * v
        x, y, scale = u * a + v * b * disc, u * b + v * a, disc * four_p**n
    while True:
        gap = scale - x  # the test x + y*sqrt(D) >= scale, where x, y >= 0
        if gap <= 0 or y * root >= gap or y * (root + 1) > gap and y * y * disc >= gap * gap:
            if n < start:  # down to the first n that holds
                return _record(BoundReport, (p, beta0_abs, beta1_abs, n))
            x, y = p * x + disc * y, x + p * y
            scale *= four_p
            n += 1
        elif n > start:  # up to the first n that fails
            return _record(BoundReport, (p, beta0_abs, beta1_abs, n - 1))
        else:
            x, y = (disc * y - p * x) >> 4, (x - p * y) >> 4
            scale //= four_p
            n -= 1
