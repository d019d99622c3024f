"""The exact oracle: which checks certify which output.

Each check re-derives one law of an expansion by exact arithmetic.  Commands
pass their checks to `require` before printing anything.  Library functions
are reached through this module's globals only, so rebinding one here (to
plant a defect, or to trace it) reaches every check.

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
"""

from typing import NamedTuple

from .browkin import browkin_bound, browkin_expand, cf_pair, convergent_triples
from .digits import padic_digits
from .schneider import schneider_convergents, schneider_expand, schneider_pair


class Check(NamedTuple):
    name: str
    ok: bool


_record = tuple.__new__  # a Check without the NamedTuple's Python-level __new__


class VerificationError(ArithmeticError):
    """A computed output failed an exact check."""


def _equals(pair: tuple[int, int], a: int, b: int) -> bool:
    num, den = pair
    return den != 0 and num * b == den * a


def browkin_reconstruction(a: int, b: int, expansion, betas: list[int] | None = None) -> Check:
    """cf_pair's back-substitution of the steps, against a/b.

    Given a list, betas also receives beta_0, ..., beta_N off the same pass:
    cf_pair keeps s*beta_N, ..., s*beta_0 (the numerator lemma), read here in
    reverse and times s, the sign of s*beta_0.  Nothing else computes them on
    a command's path, so every beta a command prints is a value this check used.
    """
    try:
        pair = cf_pair(expansion.steps, expansion.p, betas)
    except ZeroDivisionError:  # a complete quotient of 0 on the way: not a/b
        pair = (0, 0)
    if betas:
        betas.reverse()
        if betas[0] < 0:  # s = -1
            betas[:] = [-beta for beta in betas]
    return _record(Check, ("browkin reconstruction", _equals(pair, a, b)))


def browkin_length_bound(expansion, report) -> Check:
    return _record(Check, ("browkin length bound", len(expansion.steps) <= report.n_bound + 1))


def majorant(expansion) -> Check:
    """|beta_i| <= theta_i of browkin.theta_sequence, checked one step at a time on
    the betas that expansion.beta_trace replays from the quotients.

    beta_{n+1} = (beta_{n-1} - x_n beta_n) / p**(k_n + k_{n+1}), |x_n| < p**(1+k_n)/2
    and k_n, k_{n+1} >= 1 for n >= 1, so |beta_{n+1}| <= |beta_n|/2 + |beta_{n-1}|/p**2:
    the step law 2p**2 |beta_i| <= p**2 |beta_{i-1}| + 2|beta_{i-2}| (i >= 2), on
    input-sized integers.  By induction from theta_0 = beta0 = beta_0 (the replay's
    start) and theta_1 = |beta_1| it gives |beta_i| <= theta_i = theta_{i-1}/2 + theta_{i-2}/p**2.
    """
    betas, pp, ok = map(abs, expansion.beta_trace), expansion.p**2, True
    before, prev = next(betas), next(betas, 0)
    for beta in betas:
        ok &= 2 * pp * beta <= pp * prev + 2 * before
        before, prev = prev, beta
    return _record(Check, ("majorant", ok))


def determinant_identity(a: int, b: int, expansion) -> Check:
    """P_n Q_{n-1} - P_{n-1} Q_n = (-1)**(n+1) D_n D_{n-1} on the convergents
    scaled by D_n = p**(k_0+...+k_n), and the last convergent is a/b.

    Each triple must follow from the two before it by convergent_triples'
    recurrence, whose multipliers x_n, d_n = p**k_n and L_n = d_n d_{n-1} are
    small.  It gives Delta_n = P_n Q_{n-1} - P_{n-1} Q_n = -L_n Delta_{n-1}
    from Delta_0 = -d_0, hence the law by induction; the last triple against
    a/b is the one full-size test.
    """
    quotients = expansion.quotient_pairs
    triples = convergent_triples(quotients)
    ok, count = True, 0
    p2, q2, p1, q1, d1, den1 = 0, 1, 1, 0, 1, 1  # P_{n-2}, Q_{n-2}, the triple n-1, d_{n-1}
    for count, ((x, den), triple) in enumerate(zip(quotients, triples), 1):
        ok &= triple == (x * p1 + den * den1 * p2, x * q1 + den * den1 * q2, den * d1)
        p2, q2, (p1, q1, d1), den1 = p1, q1, triple, den
    ok &= count == len(quotients) and next(triples, None) is None
    return _record(Check, ("determinant identity", ok and _equals((p1, q1), a, b)))


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


def schneider_reconstruction(a: int, b: int, expansion) -> Check:
    pair = schneider_pair(expansion.steps, expansion.tail, expansion.p)
    return _record(Check, ("schneider reconstruction", _equals(pair, a, b)))


def schneider_matrix_laws(a: int, b: int, expansion) -> Check:
    """det M_m = (-1)**(m+1) p**s and vp(r - U_m/W_m) = s, s = alpha_0+...+alpha_m,
    checked in time linear in each prefix's size.

    Every M_m must be M_{m-1} [[b_m, p**alpha_m], [1, 0]], M_{-1} the
    identity, and each step matrix has determinant -p**alpha_m: that is the
    determinant law.  Then U_m = b_m U_{m-1} + p**alpha_{m-1} U_{m-2}, W_m
    likewise, so a*W_m - b*U_m = p**s eps_m with eps_m = (b_m eps_{m-1} +
    eps_{m-2}) / p**alpha_m, eps_{-2} = a and eps_{-1} = -b.  r - U/W =
    (a*W - b*U) / (b*W) with b and W prime to p, so the valuation is exactly s
    iff every division is exact and every eps_m is prime to p; a zero
    difference fails.
    """
    p, steps = expansion.p, expansion.steps
    matrices = schneider_convergents(expansion)
    ok, count, eps_prev, eps = True, 0, a, -b
    u, v, w, z = 1, 0, 0, 1
    for count, ((digit, alpha), matrix) in enumerate(zip(steps, matrices), 1):
        pa = p**alpha
        ok &= matrix == (u * digit + v, u * pa, w * digit + z, w * pa)
        eps_prev, (eps, rem) = eps, divmod(digit * eps + eps_prev, pa)
        ok &= not rem and eps % p != 0
        u, v, w, z = matrix
    ok &= count == len(steps) and next(matrices, None) is None
    return _record(Check, ("schneider matrix laws", ok))


def battery(a: int, b: int, p: int) -> list[Check]:
    """Every check that applies to a nonzero a/b, as `verify` prints them."""
    expansion = browkin_expand(a, b, p)
    report = browkin_bound(expansion.beta0, expansion.beta1_abs, p)
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
    return checks


def require(p: int, a: int, b: int, *checks: Check) -> None:
    """Raise VerificationError naming the first failed check, p and the input a/b."""
    for name, ok in checks:
        if not ok:
            raise VerificationError(f"{name} failed at p={p}, {a}/{b}")
