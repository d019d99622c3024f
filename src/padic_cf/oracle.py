"""The exact oracle: which checks certify which output.

Each check re-derives one law of an expansion by exact arithmetic.  The
certificate functions certified_browkin, certified_schneider and
certified_digits make one kind of record each, run its checks and `require`
them before they hand it back, and certified_line certifies the sweep's rows
over one (p, b) line; with battery they are all the CLI calls here, so this
module alone picks each command's checks.  The kernels that make a certified
record (browkin_expand, schneider_expand, padic_digits, digit_period) and the
rules that give a sweep row its first step (browkin_first, schneider_first)
are reached through this module's globals only, as is the browkin_bound that
certifies a length: rebinding one here (to plant a defect, or to trace it)
reaches every command that prints its record, that is expand-browkin, sweep
and verify for browkin_expand, expand-schneider, sweep and verify for
schneider_expand, sweep alone for the rules, digits and verify for
padic_digits, and digits --json for digit_period.  A sweep row takes its
first step here, once, and a row that misses its line's store hands that
step to its kernel, so a rule rebound here reaches the kernel rows of the
sweep too.  Called from here without a step (expand-browkin,
expand-schneider below schneider._RUN_GATE and verify), a kernel takes its
own from its module's step function, browkin.browkin_betas or
schneider.schneider_first_step, the input rules followed by the rule.
`bound` and `head` call browkin_betas, browkin_bound and head_analysis from
the CLI's own globals and run no check here.

What certifies each printed field ("none": printed unchecked; fields that echo
the input or an option are left out):

  command            field                            check
  expand-browkin     quotients, k, their value        browkin reconstruction
  (text and --json)  their word sizes, as |x_n| <     none (determinant identity
                     p**(1+k_n)/2 and k_n >= 1         holds them, in verify only)
                     beta                             browkin reconstruction (its pass)
                     the length <= N + 1              browkin length bound
                     N itself                         none
  sweep              browkin_len                      browkin reconstruction (a derived
                                                      row's resumed) and browkin length bound
                                                      (a derived row's on its stored length)
                     a derived row's first step       browkin derived step range
                     a derived row's later steps      none: no record is built; its resumed
                                                      reconstruction reads their level-1 pair
                     a kernel row's word sizes        none
                     beta0_abs, beta1_abs             browkin reconstruction (its pass, or
                                                      its store entry's source's)
                     bound_N, slack >= 0              browkin length bound; N itself none
                     schneider_steps_to_stationary    schneider tail laws (a derived row's on
                                                      its stored length, markers, tail and
                                                      last step)
                     (a derived row's Schneider       schneider derived step range and
                     first step, not printed)         schneider reconstruction (resumed)
  expand-schneider   head, its value                  schneider reconstruction
  (text)             head, digit range and exponents  schneider matrix laws
                     y trace                          schneider matrix laws (its chain)
                     where it stops, the tail value   schneider tail laws and
                                                      reconstruction
  expand-schneider   head, its value                  schneider reconstruction
  (--json)           head, digit range and exponents  none
                     stationary_from, finite_end      schneider tail laws
  digits             the digits, start_exponent       digit truncation identity
  (text and --json)  preperiod_len, period            digit period identity (--json)
                     "period": null at the limit      none
  verify             each verdict line                the check it names (battery)
  bound              beta magnitudes, N, lambdas      none
                     exact certificate                none
  head               head pair, T1, T2, theta         none
                     head_len, exact identity         none (lemma (vi) runs inside
                                                        schneider.head_analysis)

The input a/b is a pair of coprime integers with b > 0, and every check
runs on plain integers: a reconstruction is an unreduced pair (num, den)
from the back-substitution core, equal to the input exactly when den != 0
and num * b == den * a.

The numerator lemma.  Let (k_n, x_n), n = 0..N, be the Browkin expansion of
a/b, with betas beta_{-1} = a, beta_0 = b / p**k_0 > 0, ..., beta_N.  Then
cf_pair's back-substitution holds (s*beta_{n-1}, s*p**k_n*beta_n) after
level n, where s = beta_N = +-1; at level 0 that is s*(a, b).  Proof: every
beta_n with n >= 0 is prime to p, so beta_{n-1} = x_n*beta_n +
p**(k_n+k_{n+1})*beta_{n+1} gives gcd(beta_n, beta_{n+1}) =
gcd(beta_{n-1}, beta_n) = ... = gcd(a, beta_0) = 1.  The last step has delta
= beta_{N-1} - x_N*beta_N = 0, so beta_N divides beta_{N-1} and is +-1, and
the starting pair (x_N, p**k_N) is (s*beta_{N-1}, s*p**k_N*beta_N).  If
level n+1 holds (s*beta_n, s*p**k_{n+1}*beta_{n+1}), level n holds
(x_n*s*beta_n + p**k_n*s*p**k_{n+1}*beta_{n+1}, p**k_n*s*beta_n) =
(s*beta_{n-1}, s*p**k_n*beta_n) by the same identity.  So the numerators
below each level, which cf_pair can keep, are s*beta_N, ..., s*beta_0, and s
is the sign of the last of them, as beta_0 > 0: browkin_reconstruction hands
back the whole beta trace from the pass that checks the quotients.

The resumption lemma.  cf_pair and schneider_pair back-substitute from the
last level down, and levels N, ..., 1 read p and the steps past the first
(and, for Schneider, the tail) alone.  So a record whose p and later steps
(and tail and markers) are a stored tail, taken from a kernel record whose
pass was certified, holds after level 1 exactly the integers that pass held
there: for Browkin the level-1 pair (s*beta_0, s*p**k_1*beta_1), by the
numerator lemma from the betas the source's reconstruction handed back; for
Schneider (num_1, den_1) = (den, (num - d_0*den) / p**alpha_0), read back from
the source's pair (num, den) and first step (d_0, alpha_0), an exact division
as num = d_0*num_1 + p**alpha_0*den_1.  A sweep row builds no such record: its
line's store keeps, per key, the integers that pair is made of.  For Browkin
that is k_1 and beta_1, with beta_0 the line's, kept only where the source's
pass has the line's beta_0, as it has for the expansion (the numerator lemma:
p**k_0 * beta_0 = b); for Schneider the pair itself.  A stored Browkin tail
taken negated, for the opposite delta_0, holds (s*beta_0, -s*p**k_1*beta_1)
there: negating every x_n from n = 1 on negates the first complete quotient
(the tail lemma, browkin docstring).  Level 0 then applies the row's own
first step: (x_0*beta_0 + p**(k_0+k_1)*beta_1, p**k_0*beta_0) = (x_0*beta_0 +
p**(k_0+k_1)*beta_1, b), with k_1 = 0 and beta_1 = 0 for a one-step tail,
whose beta_0 is 1, and (d_0*num_1 + p**alpha_0*den_1, num_1).  That is the
pair a full pass over the record the row stands for computes (for Browkin up
to the sign s, which leaves _equals' verdict as it is), with the shared levels
not computed again, and num_1 != 0 as the source's pair has den != 0.  The
stored integers, not the row's own key, enter that pair: a key that names
another tail gives another value, which reconstruction refuses.  So a derived
sweep row keeps its reconstruction, under the same check name, at the cost of
its first step and a few products.  Its other checks read the store the same
way: the length bound takes 1 plus the tail's length, the length the source
stored, and the tail laws take that length, the source's markers and tail,
and its last step, or the row's own first step where the tail is empty.

The error identity.  Let P_n, Q_n be the convergents of the same expansion
scaled by D_n = p**(k_0+...+k_n), as browkin.convergent_triples yields them.
For n = 0..N, with beta_{N+1} = 0,

    a*Q_n - beta_0*p**k_0*P_n = (-1)**n * beta_{n+1} * p**(k_0+...+k_{n+1}) * D_n.

Proof: the step identity divided by beta_n*p**k_n gives the complete quotients
r_n = beta_{n-1}/(beta_n*p**k_n) = a_n + 1/r_{n+1}, and the errors e_n =
q_n*a/b - p_n obey e_n = -e_{n-1}/r_{n+1} from e_{-1} = -1, so e_n = (-1)**n *
beta_{n+1} * p**(k_1+...+k_{n+1}) / beta_0; multiply by b*D_n.  So the error
of every prefix, and the last convergent's equality with a/b (beta_{N+1} = 0),
are laws of the beta chain: determinant_identity checks that chain and
builds no convergent.

The chain walk.  Both expansions obey y_{m-1} = d_m*y_m + p**e_m*y_{m+1}, with
(d, e) = (x_n, k_n + k_{n+1}) on the beta chain and (b_m, alpha_m) on the y
chain.  _walk is the one forward walk of it in the package.  On the same chain
the determinant identity implies the majorant (see majorant's step law).
"""

from itertools import chain
from math import gcd
from typing import NamedTuple

from .browkin import BrowkinStep, browkin_bound, browkin_expand, browkin_first, browkin_line, cf_pair
from .digits import _digit_sum, digit_period, padic_digits
from .schneider import SchneiderStep, schneider_expand, schneider_first, schneider_pair


class Check(NamedTuple):
    name: str
    ok: bool


_record = tuple.__new__  # a Check without the NamedTuple's Python-level __new__


class VerificationError(ArithmeticError):
    """A computed output failed an exact check."""


def _equals(pair: tuple[int, int], a: int, b: int) -> bool:
    # a correct record gives s*(a, b) exactly, s = +-1 (the numerator lemma, and for Schneider
    # the y chain run backwards from its tail): that pair is tested before any product.  Kept:
    # without it, 1.13x on a constant head (BENCH_special_paths.json, row 6)
    if pair == (a, b) or pair == (-a, -b):
        return True
    num, den = pair
    return den != 0 and num * b == den * a


def browkin_reconstruction(a: int, b: int, expansion, betas: list[int] | None = None) -> Check:
    """cf_pair's back-substitution of the steps, against a/b.

    Given a list, betas also receives beta_0, ..., beta_N off the same pass:
    cf_pair keeps s*beta_N, ..., s*beta_0 (the numerator lemma), read here in
    reverse and times s, the sign of s*beta_0.  Nothing else computes them on
    a command's path, so every beta a command prints is a value this check used.
    """
    steps = expansion.steps
    try:  # an empty record has no value: (0, 0) is no input's pair
        pair = cf_pair(steps, expansion.p, betas) if steps else (0, 0)
    except ZeroDivisionError:  # a complete quotient of 0 on the way: not a/b
        pair = (0, 0)
    if betas:
        betas.reverse()
        if betas[0] < 0:  # s = -1
            betas[:] = [-beta for beta in betas]
    return _record(Check, ("browkin reconstruction", _equals(pair, a, b)))


def browkin_length_bound(expansion, report) -> Check:
    """len(steps) <= N + 1 for the report's N; None, no report, certifies no length."""
    ok = report is not None and len(expansion.steps) <= report.n_bound + 1
    return _record(Check, ("browkin length bound", ok))


def _walk(p: int, y_prev: int, y_cur: int, links):
    """divmod(y_{m-1} - d*y_m, p**e) = (y_{m+1}, remainder) for each link (d, e) in
    turn, from (y_{-1}, y_0) = (y_prev, y_cur): every beta or y a check reads."""
    for d, e in links:
        y_prev, (y_cur, rem) = y_cur, divmod(y_prev - d * y_cur, p**e)
        yield y_cur, rem


def _beta_links(steps):
    # (x_n, k_n + k_{n+1}) for n < N: _walk from (alpha, beta0) yields beta_1, ..., beta_N
    return ((x, k + k_next) for (k, x), (k_next, _) in zip(steps, steps[1:]))


def majorant(expansion) -> Check:
    """|beta_i| <= theta_i of browkin.theta_sequence, checked one step at a time on
    beta_0 = beta0 and the quotients beta_1, ..., beta_N that _walk yields.

    beta_{n+1} = (beta_{n-1} - x_n beta_n) / p**(k_n + k_{n+1}), |x_n| < p**(1+k_n)/2
    and k_n, k_{n+1} >= 1 for n >= 1, so |beta_{n+1}| <= |beta_n|/2 + |beta_{n-1}|/p**2:
    the step law 2p**2 |beta_i| <= p**2 |beta_{i-1}| + 2|beta_{i-2}| (i >= 2), on
    input-sized integers.  By induction from theta_0 = beta0 = beta_0 and theta_1 =
    |beta_1| it gives |beta_i| <= theta_i = theta_{i-1}/2 + theta_{i-2}/p**2.
    """
    p, beta0 = expansion.p, expansion.beta0
    betas = (abs(beta) for beta, _ in _walk(p, expansion.alpha, beta0, _beta_links(expansion.steps)))
    pp, ok, before, prev = p**2, True, abs(beta0), next(betas, 0)
    for beta in betas:
        ok &= 2 * pp * beta <= pp * prev + 2 * before
        before, prev = prev, beta
    return _record(Check, ("majorant", ok))


def determinant_identity(a: int, b: int, expansion) -> Check:
    """The record's beta chain, from its own (alpha, beta0), is that of a/b's Browkin
    expansion: by the error identity (module docstring) that gives the determinant law
    of every prefix and a last convergent equal to a/b, with no convergent built.

    alpha == a and beta0 * p**k_0 == b; k_n >= 1 for n >= 1 and 2|x_n| < p**(1+k_n);
    for n < N, delta_n = beta_{n-1} - x_n*beta_n divides exactly by p**(k_n+k_{n+1}) to
    beta_{n+1}; and delta_N = 0, read as beta_{N+1} off the last link (x_N, 0), the
    one beta the check reads.  With every beta prime to p, these fix each x_n as the
    symmetric residue of beta_{n-1}/beta_n mod p**(1+k_n) and each k_{n+1} as
    vp(delta_n) - k_n.  No beta is reduced mod p: x_n*beta_n = beta_{n-1} mod p, so
    beta_n is prime to p when beta_{n-1} is, and beta_0 is, as it divides b and,
    where p divides b, it does not divide a = x_0*beta_0 mod p.
    """
    p, steps = expansion.p, expansion.steps
    if not steps:
        return _record(Check, ("determinant identity", False))
    ok = expansion.alpha == a and expansion.beta0 * p ** steps[0].k == b
    ok &= all(k >= 1 for k, _ in steps[1:]) and all(2 * abs(x) < p ** (1 + k) for k, x in steps)
    links = chain(_beta_links(steps), [(steps[-1].x, 0)])
    for beta, rem in _walk(p, expansion.alpha, expansion.beta0, links):
        ok &= not rem
    return _record(Check, ("determinant identity", ok and beta == 0))


def digit_truncation_identity(a: int, b: int, window) -> Check:
    """a/b minus the window's value is 0 or has valuation >= start_exponent + count.

    The value is T * p**s, T its prefix_sum and s = start_exponent, so a/b minus
    it is (a - b*T*p**s) / b; b*p**s is an integer and vp(b) = max(0, -s), so the
    law is p**(count + max(s, 0)) dividing the integer a - b*T*p**s.

    That law implies the law of every shorter prefix T_L: T - T_L is a multiple of
    p**L and b*p**s one of p**max(s, 0), so p**(L + max(s, 0)) divides a - b*T_L*p**s.
    """
    p, s, count = window.p, window.start_exponent, window.count
    scaled_b = b * p**s if s >= 0 else b // p**-s
    ok = (a - scaled_b * window.prefix_sum(count)) % p ** (count + max(s, 0)) == 0
    return _record(Check, ("digit truncation identity", ok))


def digit_period_identity(a: int, b: int, p: int, start: int, preperiod, period) -> Check:
    """a/b = p**s * (P + p**l * R / (1 - p**m)), and no shorter split gives it.

    s is the start exponent, l and m the lengths of the preperiod and the period,
    and P and R their digit sums sum(d_i * p**i); cross-multiplied, the value law
    is an integer identity.  Symmetric digits write a/b one way only, so with every
    digit in range the split is a/b's once it is minimal, by two tests: the period
    is no power u**k of a shorter word, that is no proper divisor d of m is a period
    of it (the tail's periods are closed under gcd, so a shorter period of the tail
    would give such a d), and a nonempty preperiod's last digit differs from the
    period's last (else both shift back by one digit).
    """
    m = len(period)
    if not m or not all(2 * abs(digit) < p for digit in chain(preperiod, period)):
        return _record(Check, ("digit period identity", False))
    pm = p**m
    value = _digit_sum(preperiod, p) * (1 - pm) + p ** len(preperiod) * _digit_sum(period, p)
    if start >= 0:  # a*(1 - p**m) == b*p**s*value, p**s on the side where it is an integer
        ok = a * (1 - pm) == b * value * p**start
    else:
        ok = a * (1 - pm) * p**-start == b * value
    ok &= not preperiod or preperiod[-1] != period[-1]
    ok &= all(period[d:] != period[:-d] for d in range(1, m // 2 + 1) if not m % d)
    return _record(Check, ("digit period identity", ok))


def _schneider_pass(expansion) -> tuple[int, int]:
    # schneider_pair's back-substitution of the steps onto the record's tail
    try:
        return schneider_pair(expansion.steps, expansion.tail, expansion.p)
    except ZeroDivisionError:  # a zero tail, or a partial denominator of 0 on the way: not a/b
        return 0, 0


def schneider_reconstruction(a: int, b: int, expansion) -> Check:
    """schneider_pair's back-substitution of the steps onto the record's tail, against a/b."""
    return _record(Check, ("schneider reconstruction", _equals(_schneider_pass(expansion), a, b)))


def schneider_tail_laws(expansion) -> Check:
    """The place where the record stops, by two O(1) laws.  A finite end has no
    stationary index, |den| = 1 and 0 < num*den < p: the last pair is (d*s, s) with
    s = +-1 and d a digit.  Any other record is stationary from its end on, with the
    tail (-1, 1) and a last step other than (p-1, 1), or that step would be the
    tail's first.  Neither the reconstruction nor the matrix laws read the markers.
    """
    steps = expansion.steps
    ok = _stops(expansion.p, len(steps), steps[-1] if steps else None, *expansion[4:])
    return _record(Check, ("schneider tail laws", ok))


def _stops(p: int, length: int, last, stationary_from, finite_end: bool, tail: tuple[int, int]) -> bool:
    # the tail laws on a record's length, last step (None for no step), markers and tail
    num, den = tail
    if finite_end:
        return stationary_from is None and abs(den) == 1 and 0 < num * den < p
    return stationary_from == length and (num, den) == (-1, 1) and last != (p - 1, 1)


def schneider_matrix_laws(a: int, b: int, expansion, ys: list[int] | None = None) -> Check:
    """det M_m = (-1)**(m+1) p**s and vp(r - U_m/W_m) = s, s = alpha_0+...+alpha_m,
    for every prefix M_m of the step matrices [[b_m, p**alpha_m], [1, 0]], on the
    small side: no matrix is built.  Given a list, ys receives y_1, ..., y_N, the
    values the check divided.

    Each step matrix has determinant -p**alpha_m.  a*W_m - b*U_m = p**s eps_m with
    eps_m = (b_m eps_{m-1} + eps_{m-2}) / p**alpha_m, eps_{-2} = a, eps_{-1} = -b, and
    r - U/W = (a*W - b*U) / (b*W), so with b and W prime to p the valuation law is
    every division exact and every eps_m prime to p.  While they are exact, eps_m =
    (-1)**m y_{m+1}, so the check walks the y chain from (a, b).  With alpha_m >= 1,
    p divides y_{m-1} - b_m y_m, so y_m, b_m and W_m = b_m W_{m-1} mod p are prime to
    p when y_{m-1} is; a or b is, and if p divides b the first division fails, so
    only the last y is reduced mod p.  The chain must end at the record's tail,
    y_{N-1}/y_N = num/den, so a record with its last step dropped fails too.  Each
    digit must lie in 1..p-1, as Schneider's do: b_m + p with the tail moved to match
    keeps the value and every law above, but is not the expansion.
    """
    p, steps = expansion.p, expansion.steps
    ok = all(0 < digit < p and alpha >= 1 for digit, alpha in steps)
    keep = None if ys is None else ys.append
    y_prev, y_cur = a, b
    for y_next, rem in _walk(p, a, b, steps):
        ok &= not rem
        y_prev, y_cur = y_cur, y_next
        if keep:
            keep(y_next)
    num, den = expansion.tail
    ok &= y_cur % p != 0 and num * y_cur == den * y_prev
    return _record(Check, ("schneider matrix laws", ok))


def battery(a: int, b: int, p: int) -> list[Check]:
    """Every check that applies to a nonzero a/b, as `verify` prints them."""
    expansion = browkin_expand(a, b, p)
    first_link = _beta_links(expansion.steps[:2])  # none for a one-step expansion: |beta_1| = 0
    beta1, _ = next(_walk(p, expansion.alpha, expansion.beta0, first_link), (0, 0))
    # a record's beta0 below 1 forms no report, so its length bound fails
    report = browkin_bound(expansion.beta0, abs(beta1), p) if expansion.beta0 >= 1 else None
    checks = [
        browkin_reconstruction(a, b, expansion),
        browkin_length_bound(expansion, report),
        majorant(expansion),
        determinant_identity(a, b, expansion),
        digit_truncation_identity(a, b, padic_digits(a, b, p, 12)),
    ]
    if a % p != 0 and b % p != 0:
        sexp = schneider_expand(a, b, p)
        checks.append(schneider_reconstruction(a, b, sexp))
        if sexp.steps:
            checks.append(schneider_matrix_laws(a, b, sexp))
        checks.append(schneider_tail_laws(sexp))
    return checks


def certified_browkin(a: int, b: int, p: int, first: tuple | None = None):
    """(expansion, betas, report): the Browkin expansion of a/b, its betas beta_0, ..., beta_N
    and its bound report, all certified: the betas, beta_0 and |beta_1| among them, come off the
    reconstruction check's own pass, and the bound reads them only once that check has passed.
    first is handed to browkin_expand, which goes on from it: a sweep row's first step, or None
    to take its own."""
    expansion = browkin_expand(a, b, p, first)
    betas: list[int] = []
    require(p, a, b, browkin_reconstruction(a, b, expansion, betas))
    report = browkin_bound(betas[0], abs(betas[1]) if len(betas) > 1 else 0, p)
    require(p, a, b, browkin_length_bound(expansion, report))
    return expansion, betas, report


def certified_schneider(a: int, b: int, p: int, ys: list[int] | None = None, first=...):
    """(expansion, pair): the Schneider expansion of a/b, certified by its reconstruction, whose
    pass gives pair, and its tail laws; given a list, also by the matrix laws, whose chain fills
    ys with y_1, ..., y_N.  first is handed to schneider_expand, which goes on from it below
    schneider._RUN_GATE: a sweep row's first step, None included, or ... to take its own."""
    expansion = schneider_expand(a, b, p, first)
    pair = _schneider_pass(expansion)
    if not _equals(pair, a, b):  # its Check built on failure
        require(p, a, b, _record(Check, ("schneider reconstruction", False)))
    if ys is None:  # the sweep's and --json's path: no chain walked
        require(p, a, b, schneider_tail_laws(expansion))
    else:
        require(p, a, b, schneider_matrix_laws(a, b, expansion, ys), schneider_tail_laws(expansion))
    return expansion, pair


# entries a (p, b) line's store of each kind holds: full, it drops its oldest entry.  A line
# stores one tail per kernel row, so without a cap a long line's store grows with max-num: 8,889
# Schneider tails on --primes 3 --max-num 20000 --max-den 3 (BENCH_tail_lemma.json, "memory")
TAIL_STORE_CAP = 1024


def _store(tails: dict, key: int, entry: tuple) -> None:
    # tails[key] = entry, the oldest entry dropped first where tails is full
    if len(tails) >= TAIL_STORE_CAP:
        del tails[next(iter(tails))]
    tails[key] = entry


def certified_line(p: int, b: int, max_num: int):
    """Yield (a, browkin_len, report, stationary_from) for each a/b in lowest terms with 0 < |a|
    <= max_num, a ascending: the sweep's rows over one (p, b) line, each certified before it is
    yielded.  stationary_from is None where the Schneider column is empty: p | a*b, or a finite
    end.  p is an odd prime: sweep checks each --primes entry once, and a line's first row runs
    its kernel and so browkin_bound, which checks it.

    The line's constants are taken once: browkin_line(b, p), and b**-1 mod p where p does not
    divide b.  Every row is in lowest terms by the line's filter, so no row checks its input
    again.  Each row takes its first step from the rules, browkin_first and schneider_first,
    and looks its first complete quotient up in its line's store of that kind (the tail lemmas,
    browkin and schneider docstrings): Browkin's by delta_0, then -delta_0, Schneider's by y_1.
    A miss is a kernel row: certified_browkin or certified_schneider goes on from the step it
    took, and it stores, under the key read off its certified record, what a row with that key
    prints and checks.  For Browkin that is the record's length, k_1, beta_1 and the bound
    report (None where the report does not hold beta_0 and |beta_1|, so that each such row runs
    the bound); for Schneider the record's length, its last step (None for one step), its
    markers and tail, and the level-1 pair of its pass.  A hit builds no record and meets, on
    those integers, the checks a record would: the derived step range, the reconstruction
    resumed at level 1 and the length bound or tail laws (the resumption lemma).
    """
    k0, beta0, modulus, inverse = browkin_line(b, p)
    b_inverse = pow(b, -1, p) if b % p else None  # no Schneider column where p | b
    browkin_tails, schneider_tails = {}, {}
    for a in range(-max_num, max_num + 1):
        if a == 0 or gcd(a, b) != 1:
            continue
        x, delta = browkin_first(a, beta0, modulus, inverse)
        stored, sign = browkin_tails.get(delta), 1
        # kept: without the -delta_0 lookup the 100x100 sweep runs 13,233 Browkin kernel rows,
        # not 6,622 (BENCH_tail_lemma.json, "negated_lookup")
        if stored is None:
            stored, sign = browkin_tails.get(-delta), -1
        if stored is None:  # a kernel row
            first = _record(BrowkinStep, (k0, x)), beta0, delta
            expansion, betas, report = certified_browkin(a, b, p, first)
            steps = expansion.steps
            length = len(steps)
            if betas[0] == beta0:  # a derived row resumes with the line's beta_0 (resumption lemma)
                k1, beta1 = (steps[1].k, betas[1]) if length > 1 else (0, 0)  # none past one step
                # a report that does not hold its own betas is not reused: the rows run the bound
                reused = report if report[:3] == (p, beta0, abs(beta1)) else None
                _store(browkin_tails, a - steps[0].x * beta0, (length, k1, beta1, reused))
        else:  # each Check built on failure
            length, k1, beta1, report = stored
            if not (2 * abs(x) < modulus and (not k0 or x % p)):
                require(p, a, b, _record(Check, ("browkin derived step range", False)))
            if not _equals((x * beta0 + p ** (k0 + k1) * sign * beta1, b), a, b):  # b = p**k0 * beta_0
                require(p, a, b, _record(Check, ("browkin reconstruction", False)))
            if report is None:
                report = browkin_bound(beta0, abs(beta1), p)
            if length > report.n_bound + 1:
                require(p, a, b, _record(Check, ("browkin length bound", False)))
        stationary = None
        if b_inverse is not None and a % p:
            first = schneider_first(a, b, p, b_inverse)
            stored = None if first is None else schneider_tails.get(first[2])
            if stored is None:  # a kernel row
                step = None if first is None else (_record(SchneiderStep, first[:2]), first[2])
                expansion, (num, den) = certified_schneider(a, b, p, None, step)
                steps = expansion.steps
                if steps:
                    digit, alpha = steps[0]
                    pa = p**alpha  # exact: y_1's, and num = digit*num_1 + pa*den_1 with num_1 = den
                    last = steps[-1] if len(steps) > 1 else None
                    entry = len(steps), last, *expansion[4:], den, (num - digit * den) // pa
                    _store(schneider_tails, (a - digit * b) // pa, entry)
                stationary = expansion.stationary_from
            else:  # each Check built on failure
                digit, alpha, _ = first
                count, last, stationary, finite_end, tail, num, den = stored
                if not (0 < digit < p and alpha >= 1):
                    require(p, a, b, _record(Check, ("schneider derived step range", False)))
                if not _equals((digit * num + p**alpha * den, num), a, b):
                    require(p, a, b, _record(Check, ("schneider reconstruction", False)))
                if last is None:  # an empty tail: the row's own step is its last
                    last = digit, alpha
                if not _stops(p, count, last, stationary, finite_end, tail):
                    require(p, a, b, _record(Check, ("schneider tail laws", False)))
        yield a, length, report, stationary


def certified_digits(a: int, b: int, p: int, count: int, split: bool):
    """(window, preperiod, period): the first count digits of a/b, certified by the digit
    truncation identity; with split, digit_period's split, certified by the digit period
    identity once a period is found.  Both are None without split, or where the search
    stopped at DIGIT_PERIOD_LIMIT."""
    window = padic_digits(a, b, p, count)
    require(p, a, b, digit_truncation_identity(a, b, window))
    start, preperiod, period = digit_period(a, b, p) if split else (None, None, None)
    if period is not None:
        require(p, a, b, digit_period_identity(a, b, p, start, preperiod, period))
    return window, preperiod, period


def require(p: int, a: int, b: int, *checks: Check) -> None:
    """Raise VerificationError naming the first failed check, p and the input a/b."""
    for name, ok in checks:
        if not ok:
            raise VerificationError(f"{name} failed at p={p}, {a}/{b}")
