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
(y_{m-1}, y_m) the expansion reaches: one for each step it records (the
entry run below may look up the first one twice), and one more at a finite
end, for y_m = +-1 (lemma (iv)), whose inverse the dict starts with.  So an
expansion makes at most min(p-3, steps) pow calls mod p and none at p = 3
(the entry run's inverse mod a power of 2 is exactarith's, no pow here).  A
second dict maps the int b_m + p*alpha_m to the one SchneiderStep of that
step, made on its first use, in the entry run, the batches and the
single-step loop alike, so equal steps share one record.  Both dicts go when
the expansion returns.

A record stores no y but its tail: oracle.schneider_matrix_laws walks the y
chain forward from (a, b) and hands back the values it divided.

Every rational either terminates (some y_{m-1} - b_m y_m hits 0) or is
absorbed by the stationary loop: once (y_m, y_{m+1}) = (t, -t) with |t| = 1,
every later step is (p-1, 1) and the remaining tail has exact value -1.

The translation lemma.  Let (b_0, alpha_0) be the first step of a/b, with
delta = a - b_0*b.  If b_0 + 1 <= p - 1, a/b has at least one step and
a + 2b != 0, the expansion of (a + b)/b has the steps of a/b with b_0
replaced by b_0 + 1, and the same tail, stationary index and finite-end flag.
Proof: gcd(a + b, b) = gcd(a, b), and (a + b) * b**-1 = b_0 + 1 mod p, a digit
in 1..p-1, so p does not divide a + b and b'_0 = b_0 + 1.  Then delta' = a + b
- (b_0 + 1)*b = delta, so alpha'_0 = alpha_0 and y'_1 = y_1, and from the pair
(y_0, y_1) = (b, y_1) the y chain is a/b's: every later step, the last pair
and both markers are read off pairs (y_{m-1}, y_m) with m >= 1.  Only the
input pair's two tests differ.  Its finite end is delta = 0, the same for
both, and a/b with a step has delta != 0.  Its stationarity test is a + b = 0
for a/b, which a step rules out, and a + 2b = 0 for (a + b)/b: then b = 1 and
the target -1/1 is stationary from index 0, while -2/1 has the step (p-2, 1).
A source with no step is stationary at once (-1/1) or a finite end d/1, whose
tail (d, 1) the lemma would have to change; schneider_translation returns None
for these, for b_0 = p - 1 and for a + 2b = 0, and else builds the record by
one new first step.

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

A run of one repeated step (d, alpha) is taken at once, by one valuation and
one power of the step matrix M = [[d, p**alpha], [1, 0]].  Let Q(x, y) =
x*(x - d*y) - p**alpha*y**2, the norm form of the step.
  (v) If x, y are prime to p and vp(Q(x, y)) > alpha, the step from (x, y) is
      (d, alpha): with beta = vp(x - d*y), beta < alpha gives vp(Q) = beta
      and beta > alpha gives vp(Q) = alpha, so beta = alpha, x = d*y mod p
      and the digit is d.  After that step, y_{m-1} = d*y_m + p**alpha*y_{m+1}
      gives Q(y_m, y_{m+1}) = -Q(y_{m-1}, y_m) / p**alpha.  So from a pair with
      v = vp(Q) finite the next r = (v - 1)//alpha steps are all (d, alpha);
      each pair passed over has vp(Q) > alpha, so it is neither a finite end
      (x = d*y makes vp(Q) = alpha) nor stationary (Q = 0 there for (p-1, 1),
      where Q = (x - p*y)(x + y) and x + y is the s of (iii); for any other
      step vp(Q) = vp(1 + d - p**alpha) <= alpha).  As (y_{m-1}, y_m) =
      M**r (y_{m+r-1}, y_{m+r}) and det M = -p**alpha, the pair reached is
      adj(M**r) (y_{m-1}, y_m) / (-p**alpha)**r, an exact division.  The
      kernel does it from the low end (Jebelean, "An algorithm for exact
      division", J. Symbolic Computation 15, 1993): (-p**alpha)**r is odd, so
      the quotient is adj(M**r) (y_{m-1}, y_m) (-p**alpha)**-r mod 2**width,
      read as a symmetric residue, which is the quotient itself once width
      exceeds its bits; the inverse of det M**r = (-p**alpha)**r mod 2**width
      is (-1)**r times exactarith's p**(-alpha*r) mod 2**width, the power the
      low-end reads of valuations take.  The pair reached is
      small when the run is long, and a residue is kept only when (y_{m-1},
      y_m) = M**r (x, y) holds, so width starts at a guess from bit lengths
      and doubles up to bits + 1, where every pair the steps reach is a
      residue (lemma (i)): a residue that still fails there is a remainder.
 (v') Conversely, if (a, b) = M**r (x, y) for integers x, y prime to p, then
      the first r steps from (a, b) are (d, alpha), they reach (x, y), and
      no pair before (x, y) is a finite end or stationary, unless Q(a, b) = 0.
      For the pairs between, (u_i, u_{i+1}) = M**(r-i) (x, y) for i = 0..r,
      have u_i = d*u_{i+1} + p**alpha*u_{i+2}: going down from u_{r+1} = y and
      u_r = x, each u_i = d*u_{i+1} mod p is prime to p, as d is.  So from
      (u_i, u_{i+1}) the digit is u_i * u_{i+1}**-1 = d mod p, and u_i -
      d*u_{i+1} = p**alpha*u_{i+2} with p not dividing u_{i+2} has valuation
      alpha exactly and is not 0: the step is (d, alpha), to (u_{i+1},
      u_{i+2}), and the pair is no finite end.  A stationary pair's step is
      (p-1, 1), so only a run of (p-1, 1) could pass one, and there
      Q(a, b) = (-p)**i Q(u_i, u_{i+1}) = 0 (the form at a stationary pair).
      So an exact pair prime to p proves the run, however r was found: the
      kernel reads r off a candidate valuation of Q (exactarith.vp_read, off
      the low end, with no division of Q) and keeps it only on such a pair.
      A read one step too long finds no exact pair, or one with p | x*y (a
      pair one step past a step (d, alpha') with alpha' > alpha is (x, p**(alpha'
      - alpha) z)), and then vp_split's exact valuation decides, after which
      a remainder is a defect, raised.  A read too short is a shorter run,
      also true, whose last steps the steps after it take.
(vii) That division keeps the gcd: for x, y prime to p and (x', y') the pair
      r steps (d, alpha) reach, gcd(x, y) = gcd(x', y').  For (x, y) = M**r
      (x', y') makes gcd(x', y') divide gcd(x, y), and (-p**alpha)**r (x', y') =
      adj(M**r) (x, y), as det M**r = (-p**alpha)**r, makes gcd(x, y) divide
      p**(alpha*r) gcd(x', y'), where p does not divide gcd(x, y) as it does not
      divide x.  Nor does (v) ask x, y to be coprime: scaling both by g prime to p
      scales Q by g**2 and leaves its valuation and the digit as they are.  So the
      kernel checks that a/b is in lowest terms on the pair its entry run reaches,
      numbers of the size the run leaves, and names the same gcd as a check at
      (a, b) would.
_run_power gives M**r in O(log r) products, off the Lucas sequence u_0 = 0,
u_1 = 1, u_{n+1} = d*u_n + p**alpha*u_{n-1}: M**r = [[u_{r+1}, p**alpha*u_r],
[u_r, p**alpha*u_{r-1}]].  It is the one power of the module, used in four
places:
  - the kernel, once, at the input pair: where min(|a|, b) has more than
    _RUN_GATE bits, at any p, it reads the first step (d, alpha) off (a, b),
    its digit through the expansion's inverses and alpha off a - d*b by
    exactarith.int_vp (one residue mod a power of p of one digit), and
    tries (v) at (a, b) before any batch: one residue test of
    p**(2 alpha + 1) | Q, which admits only runs of 2 steps or more, then one
    form, one read of its valuation certified by (v'), else one exact
    valuation, and one power and one exact division from the low end; the run
    capped as the batches are and recorded as r references to one record, and
    a remainder raised as an ArithmeticError named with the input.  It checks
    lowest terms on the pair reached, by (vii), before any batch; below the
    gate, at (a, b).  _batches builds its table of p**e, e <= K, only once a
    batch runs, so an input the run leaves below the bound builds none.  A
    wrong digit (a defect) leaves alpha = 0, and a/b = d*b/b, a finite end
    that only an input not in lowest terms has at the gate, leaves a - d*b = 0:
    then no run is taken, and the steps or the gcd check meet it.  So a
    constant head of more than about _RUN_GATE bits is one run, at every p and
    on both sides of the batch bound.  A run that starts further in is stepped
    by the batches and the single-step loop, which have no such test.
  - schneider_pair takes one run only, a whole head of _RUN_MIN or more
    records of one step, found by value (_leading_run: records compared equal,
    so no caller depends on the kernel sharing them), and applies it as M**r
    to the tail (num, den).  It does so only for a digit in 1..p-1, an
    exponent >= 1 and a tail numerator prime to p: then each numerator in the
    run is d times the one below it mod p, prime to p and never 0, so the step
    loop would raise nowhere in the run and would reach the same pair.
    Otherwise, and for every head that is not one run (a run that ends inside
    the head included), it steps level by level, as the kernel does.
  - head_analysis, by lemma (vi).
  - generate_constant_head, which builds M**(k+1) (1, -1) by (vi)'s closed form.

A constant head of k+1 identical steps (d, alpha) satisfies (T2/T1)**k = theta.
Here T1, T2 = (d -+ sqrt(D))/2 with D = 4p**alpha + d*d are the roots of
T**2 - d*T - p**alpha, and theta = (T1 - p**alpha)(a - b*T1) / ((T2 -
p**alpha)(a - b*T2)), the ratio of conjugate products.  D is not a square:
D = s*s would force (s - d)(s + d) = 4p**alpha, i.e. the stationary pair
(p-1, 1).  So T1 != T2 are irrational, and no factor of theta is 0 for b != 0.
 (vi) (T2/T1)**e = theta(a, b) holds exactly when (a, b) is parallel to
      v = M**(e+1) (1, -1), that is when a*W == b*U for (U, W) = v.  For
      l2 = (1, -T1) and l1 = (1, -T2) are left eigenvectors of M with
      eigenvalues T2 and T1 (l2 M = (d - T1, p**alpha) = T2 l2, as T1 + T2 = d
      and T1*T2 = -p**alpha), and T_i - p**alpha = T_i (1 + T_j), so
      theta(a, b) = T1 (1 + T2) l2.(a, b) / (T2 (1 + T1) l1.(a, b)).  At v,
      l2.v / l1.v = (T2/T1)**(e+1) (1 + T1) / (1 + T2), so
      theta(v) = (T2/T1)**e.
      And theta(a, b) depends on (a, b) only through (a - b*T1) / (a - b*T2),
      a Moebius map of a/b, one to one as T1 != T2.  By the Lucas form of M**r,
      (U, W) = (u_{e+2} - p**alpha*u_{e+1}, u_{e+1} - p**alpha*u_e), and
      p**alpha*u_e = u_{e+2} - d*u_{e+1} by the recurrence, so
      W = (1 + d)*u_{e+1} - u_{e+2}.
      And v is primitive: adj(M**(e+1)) v = det(M**(e+1)) (1, -1) makes
      gcd(U, W) divide det M**(e+1) = (-p**alpha)**(e+1), while M = [[d, 0],
      [1, 0]] mod p gives (U, W) = (d**(e+1), d**e) mod p, so p divides
      neither U nor W, and gcd(U, W) = 1.  So a*W == b*U, with b != 0, holds
      exactly when (a, b) = q v for an integer q (U divides a*W, so U divides
      a, and q = a/U), whether or not a/b is in lowest terms; U != 0 as p does
      not divide it.  One _run_power(d, p**alpha, e + 1) and one division,
      q, r = divmod(a, U), then b == q*W when r = 0, decide the identity: the
      quotient has about the bits a has beyond v's, and both products are
      that small quotient times numbers the size of v.
head_analysis reads the one e the identity allows off two p-adic valuations
(its comments give the argument) and checks (vi) for that e; no float takes
part.  For a/b given as ga/gb with p not dividing g, the identity holds at e
exactly when it does for a/b, both being parallel to the same v; the cli
module docstring gives what else holds for such a pair.
vp(sx) is small and is read off sx mod a power of p of one digit
(exactarith.int_vp); vp(n) is first read off the low end of n
(exactarith.vp_read), and that read needs no proof where the identity holds
at the e it gives, since an identity at any e forces that e to be the one
the valuations allow.  Where there is no read, or the identity fails at its
e, vp_split's exact vp(n) decides, so a head_len of None is always decided
by exact valuations.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from typing import NamedTuple

from .exactarith import _inverse_power, int_vp, require_coprime, require_odd_prime, vp_read, vp_split


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


class HeadReport(NamedTuple):
    """Exact certificate for the length of a constant (digit, exponent) head.

    The record holds integers only: disc = D = 4p**alpha + digit**2, and theta
    = (sx + sy*sqrt(D)) / n, the ratio of conjugate products.  exact_identity
    means (t2/t1)**(head_len-1) equals theta, checked exactly by lemma (vi) of
    the module docstring; otherwise head_len is None.  t1, t2 = (digit -+ sqrt(D)) / 2,
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
# shortest constant head schneider_pair takes as one power and cli._json_pairs writes as one
# text repeated (BENCH_schneider_runs.json, "run_stride")
_RUN_MIN = 64
# bits of min(|a|, b) above which the kernel tries the entry run at the input pair: a constant
# head gains from about 40 bits at p = 3 to about 90 at p = 101, and an input with no run pays
# x1.03-1.08 at 64-128 bits (BENCH_entry_run.json, "gate"); the sweep's inputs, of at most 12
# bits, stay below it, where trying the run costs x1.1-1.3 (a gate at 0: x1.10 on the 100x100
# sweep, BENCH_special_paths_2.json, row 6)
_RUN_GATE = 64
# bits _run_pair's first modulus adds to its guess of the pair's size; the full width at once
# reads x2.8 on the head_7.json pin (BENCH_special_paths_2.json, row 9)
_RUN_MARGIN = 64
_record = tuple.__new__  # a record without the NamedTuple's Python-level __new__


def _run_power(digit: int, pa: int, r: int) -> tuple[int, int]:
    # (u_{r+1}, u_r), r >= 1, with M**r = [[u_{r+1}, pa*u_r], [u_r, pa*u_{r-1}]] for the step
    # matrix M = [[digit, pa], [1, 0]] (lemma (v)), doubling n by u_{2n+1} = u_{n+1}**2 +
    # pa*u_n**2 and u_{2n} = u_n*(2*u_{n+1} - digit*u_n), then stepping n by one on a set bit
    hi, lo = 1, 0  # (u_{n+1}, u_n) at n = 0
    for bit in bin(r)[2:]:
        hi, lo = hi * hi + pa * lo * lo, lo * (2 * hi - digit * lo)
        if bit == "1":
            hi, lo = digit * hi + pa * lo, hi
    return hi, lo


def _run_pair(a: int, b: int, digit: int, p: int, alpha: int, run: int, bits: int) -> tuple[int, int] | None:
    # (x, y) with (a, b) = M**run (x, y) for the step matrix M of (digit, alpha), bits =
    # max(|a|, b).bit_length(), or None if there is none: adj(M**run) (a, b) / det M**run, found mod
    # 2**width from the low end (Jebelean's exact division; det M**run = (-p**alpha)**run is odd, and
    # its inverse is (-1)**run * p**(-alpha*run) mod 2**width) and kept once (a, b) = M**run (x, y), four
    # products of input size by width bits.  width starts at bits less lo's bits plus _RUN_MARGIN
    # (at least 1, so that doubling ends) and doubles up to bits + 1, where every pair the steps
    # reach, below 2**bits by lemma (i), is its own symmetric residue
    pa = p**alpha
    hi, lo = _run_power(digit, pa, run)  # M**run = [[hi, pa*lo], [lo, hi - digit*lo]]
    top, plo, full = hi - digit * lo, pa * lo, bits + 1
    width = min(max(bits - lo.bit_length() + _RUN_MARGIN, 1), full)
    while True:
        modulus = 1 << width
        mask, half = modulus - 1, modulus >> 1
        a_low, b_low, hi_low, lo_low = a & mask, b & mask, hi & mask, lo & mask
        top_low, plo_low = top & mask, plo & mask
        scale = _inverse_power(p, alpha * run, width) * (-1) ** run
        x = (top_low * a_low - plo_low * b_low) * scale & mask
        y = (hi_low * b_low - lo_low * a_low) * scale & mask
        x, y = x - modulus if x >= half else x, y - modulus if y >= half else y
        if a == hi * x + plo * y and b == lo * x + top * y:
            return x, y
        if width == full:  # a remainder: no such pair
            return None
        width = min(2 * width, full)


def _entry_run(
    a: int, b: int, digit: int, p: int, alpha: int, form: int, bits: int, cap: int,
) -> tuple[int, int, int]:
    # (run, x, y): lemma (v) at (a, b), whose step is (digit, alpha) and whose form is Q(a, b) =
    # form != 0 with p**(2 alpha + 1) | Q, so a run of 2 steps or more, and the pair run steps
    # reach.  The run is first read off vp_read's candidate valuation of Q and kept only when
    # _run_pair finds an exact pair prime to p, which proves it by the converse of lemma (v),
    # whatever the read; else it comes off vp_split, after which a remainder is a defect, raised.
    # Every such run is taken: leaving runs under 8 steps to the single steps measured no faster
    # (BENCH_special_paths_2.json, row 1)
    v = vp_read(form, p)
    if v is not None:
        run = min((v - 1) // alpha, cap)
        pair = _run_pair(a, b, digit, p, alpha, run, bits)
        if pair is not None and pair[0] % p and pair[1] % p:
            return run, *pair
    run = min((vp_split(form, p)[0] - 1) // alpha, cap)
    pair = _run_pair(a, b, digit, p, alpha, run, bits)
    if pair is None:
        raise ArithmeticError(f"inexact run division by (-{p}**{alpha})**{run}")
    return run, *pair


def _batches(
    y_prev: int, y_cur: int, p: int, depth: int, steps: list, cap: int, inverses: dict,
    records: dict,
) -> tuple[int, int]:
    # steps y_prev, y_cur in batches on residues mod p**depth while both stay at or above
    # 2**(2W) and a whole batch fits under the cap; returns the pair reached.  inverses and
    # records are the expansion's tables: r to r**-1 mod p, digit + p*alpha to its record
    bound, append, pows = 2 * _BATCH_WIDTH, steps.append, None
    while min(abs(y_prev), abs(y_cur)).bit_length() > bound and len(steps) + depth <= cap:
        if pows is None:  # p**e for e <= depth, built once a batch runs
            pows = [p**e for e in range(depth + 1)]
            modulus = pows[depth]
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

    # above every step count the module docstring allows, so only a defect reaches it
    bits = max(abs(a), b).bit_length()
    cap = (2 * bits * (p + 2) + 4) * (bits + 1)
    y_prev, y_cur = a, b
    steps: list[SchneiderStep] = []
    append = steps.append
    inverses = {1: 1, p - 1: p - 1}  # r -> r**-1 mod p; 1 and p-1 are their own inverses
    # digit + p*alpha -> the one record of that step; a new record per step reads x1.21 at 5,000
    # digits and p = 3 (BENCH_special_paths_2.json, row 10)
    records: dict[int, SchneiderStep] = {}
    depth = _BATCH_WIDTH // p.bit_length()
    if min(abs(a), b).bit_length() > _RUN_GATE:
        try:
            # the entry run, at any p: the first step (digit, alpha), then lemma (v) at (a, b)
            r_cur = b % p
            inverse = inverses.get(r_cur)
            if inverse is None:
                inverse = inverses[r_cur] = pow(r_cur, -1, p)
            digit = a % p * inverse % p
            delta = a - digit * b
            # delta = 0 (a finite end, so a/b is not in lowest terms) and alpha = 0 (a wrong
            # digit, a defect) take no run: the checks and steps below meet them
            alpha = int_vp(delta, p) if delta else 0
            pa, run = p**alpha, 0
            # a run of 2 or more needs vp(Q) > 2 alpha, tested on residues before Q is formed
            modulus = pa * pa * p
            if alpha and not (a % modulus * (delta % modulus) - pa * (b % modulus) ** 2) % modulus:
                form = a * delta - pa * b * b
                if form:
                    run, y_prev, y_cur = _entry_run(a, b, digit, p, alpha, form, bits, cap)
            if run:  # a run of r steps (d, alpha): one power, one exact division
                record = records[digit + p * alpha] = _record(SchneiderStep, (digit, alpha))
                steps.extend([record] * run)
            # lemma (vii): the pair reached has the gcd of (a, b).  Kept: checked at (a, b)
            # instead, 1.24x on a 90,015-character head (BENCH_special_paths.json, row 5)
            require_coprime(y_prev, y_cur)
            if _BATCH_DEPTH_MIN <= depth:
                y_prev, y_cur = _batches(y_prev, y_cur, p, depth, steps, cap, inverses, records)
        except ArithmeticError as exc:  # a defect: named with the input, as the cap is
            raise ArithmeticError(f"{exc} in the expansion of {a}/{b}") from None
    else:
        require_coprime(a, b)
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
        record = records.get(key := digit + p * alpha)
        if record is None:
            record = records[key] = _record(SchneiderStep, (digit, alpha))
        append(record)
        y_prev, y_cur, r_prev, r_cur = y_cur, y_next, r_cur, r_next
    return _record(SchneiderExpansion, (p, a, b, tuple(steps), len(steps), False, (-1, 1)))


def schneider_translation(expansion: SchneiderExpansion) -> SchneiderExpansion | None:
    """The expansion of (a + b)/b from the expansion of a/b, by the translation lemma (module
    docstring): b_0 moved to b_0 + 1, every later step, the tail and its markers kept; None
    where the lemma does not apply, as b_0 = p - 1, a/b has no step or a + 2b = 0."""
    p, a, b, steps, stationary_from, finite_end, tail = expansion
    if not steps or a + 2 * b == 0:
        return None
    digit, alpha = steps[0]
    if digit + 1 >= p:
        return None
    first = _record(SchneiderStep, (digit + 1, alpha))
    return _record(SchneiderExpansion, (p, a + b, b, (first,) + steps[1:], stationary_from, finite_end, tail))


def schneider_pair(head, tail: tuple[int, int], p: int) -> tuple[int, int]:
    """Unreduced (num, den) of b0 + p**a0/(b1 + ... + p**ak/(tail num/den)).

    head is a SchneiderExpansion's steps or a list of (digit, alpha) pairs;
    items 0 and 1 of each record are read, last record first.  A zero tail
    or zero partial denominator raises ZeroDivisionError.  A head of _RUN_MIN
    or more records all equal (_leading_run) is taken as one power of its
    step matrix where the module docstring's guard allows, giving the pair
    the step loop gives; every other head is stepped one level at a time.
    """
    num, den = tail
    if num == 0:
        raise ZeroDivisionError("zero tail value")
    run = _leading_run(head) if len(head) >= _RUN_MIN else 0  # a sweep head skips the call
    if run:
        digit, alpha = head[0][0], head[0][1]
        if 0 < digit < p and alpha >= 1 and num % p:  # no numerator in the run is 0
            pa = p**alpha
            hi, lo = _run_power(digit, pa, run)  # M**r = [[hi, pa*lo], [lo, hi - digit*lo]]
            return hi * num + pa * lo * den, lo * num + (hi - digit * lo) * den
    for step in reversed(head):
        if num == 0:
            raise ZeroDivisionError("zero denominator in back-substitution")
        num, den = step[0] * num + p ** step[1] * den, num
    return num, den


def _leading_run(head) -> int:
    # len(head) when head is one run of _RUN_MIN or more equal records, a constant head;
    # else 0: a length test, one compare of the last record, then one C-level count
    if len(head) < _RUN_MIN or head[-1] != head[0] or head.count(head[0]) != len(head):
        return 0
    return len(head)


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
    once (t2/t1)**e = theta is checked for it exactly by lemma (vi) of the
    module docstring: a/b is the value of v = M**(e+1) (1, -1), the constant
    head of e+1 steps, exactly when a*W == b*U for (U, W) = v, decided by one
    division as v is primitive: a = q*U and b = q*W.  Else head_len
    is None.  a/b is taken as schneider_expand takes it, but need not be in
    lowest terms, and no gcd is taken.  The input rules read the pair as given:
    a/b given as ga/gb with p | g fails the unit-pair check, and alpha_max is
    that of (ga, gb), so head_analysis(2000, 5000, 1, 4, 3) reports where
    (2, 5) raises.  Where a report on (ga, gb), p not dividing g, has head_len
    certified, the report is that of (a, b) with sx, sy and n scaled by g**2,
    and alpha is within the alpha_max of (a, b), as the cli module docstring
    proves.

    digit, alpha or both may be None: each is then that of a/b's first step,
    b0 = a*b**-1 mod p and alpha0 = vp(a - b0*b), read off the definition and
    not off an expansion, so that ga/gb with p not dividing g has a/b's.  An
    a/b with no first step, a finite end (a = b0*b) or stationary (a + b = 0)
    at once, raises ValueError.
    """
    _require_unit_pair(a, b, p)
    if digit is None or alpha is None:
        first = a * pow(b, -1, p) % p
        delta = a - first * b
        if not delta or a + b == 0:
            raise ValueError("input has no head step to analyze")
        digit = first if digit is None else digit
        alpha = int_vp(delta, p) if alpha is None else alpha
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
    # x, y of opposite signs make |theta| < 1; y = 0 makes theta = 1, the one-step head
    # d - p**alpha (e = 0), and x = 0 makes theta = -1, which no e meets
    if (x < 0 < y) or (y < 0 < x):
        raise ValueError("|theta| < 1: no constant head to measure")
    # theta = (x + y*sqrt(D)) / (x - y*sqrt(D)) = (sx + sy*sqrt(D)) / n, with sx > 0 and n != 0
    xx, dyy = x * x, disc * (y * y)
    sx, sy, n = xx + dyy, 2 * (x * y), xx - dyy
    # t1*t2 = -p**alpha, so (t2/t1)**e = w**e / (4p**alpha)**e with w = -(digit + sqrt(D))**2;
    # the identity holds iff w**e * n == (sx + sy*sqrt(D)) * (4p**alpha)**e.  In Z_p take
    # sqrt(D) = s = digit mod p: digit + s is a unit, digit - s has valuation alpha, so the rational
    # part u = (w(s)**e + w(-s)**e) / 2 of w**e is a unit, and u*n == sx*(4p**alpha)**e forces
    # vp(n) = vp(sx) + alpha*e: one e, with p**(alpha*e) <= |n|, so powers stay input-sized.
    # vp(n) is first read off n's low end (vp_read): an identity at the e it gives is the one e
    # allowed, so it certifies the read; no read, or no identity, and vp_split decides.  Kept:
    # vp_split alone here and in _entry_run reads x1.17 on head_7 (BENCH_special_paths_2.json, row 7)
    vsx, read = int_vp(sx, p), vp_read(n, p)
    head_len = None if read is None else _head_length(a, b, digit, alpha, pa, read - vsx)
    if head_len is None and (exact_v := vp_split(n, p)[0]) != read:
        head_len = _head_length(a, b, digit, alpha, pa, exact_v - vsx)
    return _record(HeadReport, (digit, alpha, disc, sx, sy, n, head_len, head_len is not None))


def _head_length(a: int, b: int, digit: int, alpha: int, pa: int, gap: int) -> int | None:
    # e + 1 where gap = vp(n) - vp(sx) = alpha*e with e >= 0 and lemma (vi)'s identity holds at e,
    # else None.  (U, W) = M**(e+1) (1, -1) off (u_{e+2}, u_{e+1}), as p**alpha*u_e = hi - digit*lo;
    # v is primitive, so a*W == b*U exactly when a = q*U and b = q*W for an integer q
    e, rem = divmod(gap, alpha)
    if e < 0 or rem:
        return None
    hi, lo = _run_power(digit, pa, e + 1)
    q, r = divmod(a, hi - pa * lo)
    return e + 1 if not r and b == q * ((1 + digit) * lo - hi) else None


def generate_constant_head(digit: int, alpha: int, k: int, p: int) -> tuple[int, int]:
    """Rational a/b whose expansion is (digit, alpha) repeated k+1 times,
    then the stationary tail.

    Built as M**(k+1) (1, -1), the product of k+1 copies of M = [[digit, p**alpha],
    [1, 0]] applied to the stationary tail vector, sign-normalized to b > 0: by the
    Lucas form of M**r that is (u_{k+2} - p**alpha*u_{k+1}, (1 + digit)*u_{k+1} -
    u_{k+2}), one _run_power, as in lemma (vi).
    """
    require_odd_prime(p)
    _check_head_pair(digit, alpha, p)
    if k < 0:
        raise ValueError("k must be nonnegative")
    pa = p**alpha
    hi, lo = _run_power(digit, pa, k + 1)
    a, b = hi - pa * lo, (1 + digit) * lo - hi
    if b < 0:
        a, b = -a, -b
    return a, b
