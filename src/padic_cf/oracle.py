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
"""

from typing import NamedTuple

from .browkin import browkin_bound, browkin_expand, cf_pair
from .digits import padic_digits
from .schneider import schneider_expand, schneider_pair


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
    """The record's beta chain, from its own (alpha, beta0), is that of a/b's Browkin
    expansion: by the error identity (module docstring) that gives the determinant law
    of every prefix and a last convergent equal to a/b, with no convergent built.

    alpha == a and beta0 * p**k_0 == b; for n < N, delta_n = beta_{n-1} - x_n*beta_n
    divides exactly by p**(k_n+k_{n+1}) to beta_{n+1}, and delta_N = 0; k_n >= 1 for
    n >= 1 and 2|x_n| < p**(1+k_n).  With every beta prime to p, these fix each x_n
    as the symmetric residue of beta_{n-1}/beta_n mod p**(1+k_n) and each k_{n+1} as
    vp(delta_n) - k_n.  No beta is reduced mod p: x_n*beta_n = beta_{n-1} mod p, so
    beta_n is prime to p when beta_{n-1} is, and beta_0 is, as it divides b and,
    where p divides b, it does not divide a = x_0*beta_0 mod p.
    """
    p, steps, b_prev, b_cur = expansion.p, expansion.steps, expansion.alpha, expansion.beta0
    ok = bool(steps) and b_prev == a and b_cur * p ** steps[0].k == b
    for (k, x), (k_next, _) in zip(steps, steps[1:]):
        pk = p**k
        b_prev, (b_cur, rem) = b_cur, divmod(b_prev - x * b_cur, pk * p**k_next)
        ok &= k_next >= 1 and 2 * abs(x) < p * pk and not rem
    if ok:
        k, x = steps[-1]
        ok = 2 * abs(x) < p ** (1 + k) and b_prev == x * b_cur
    return _record(Check, ("determinant identity", ok))


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
    for every prefix M_m of the step matrices [[b_m, p**alpha_m], [1, 0]], on the
    small side: no matrix is built.

    Each step matrix has determinant -p**alpha_m.  a*W_m - b*U_m = p**s eps_m with
    eps_m = (b_m eps_{m-1} + eps_{m-2}) / p**alpha_m = (-1)**m y_{m+1}, eps_{-2} = a,
    eps_{-1} = -b, and r - U/W = (a*W - b*U) / (b*W), so with b and W prime to p the
    valuation law is every division exact and every eps_m prime to p.  With
    alpha_m >= 1, p divides b_m eps_{m-1} + eps_{m-2}, so eps_{m-1}, b_m and W_m =
    b_m W_{m-1} mod p are prime to p when eps_{m-2} is; a or b is, and if p divides b
    the first division fails, so only the last eps (-b with no step) is reduced mod p.
    The chain must end at the record's tail, y_{N-1}/y_N = -eps_{N-2}/eps_{N-1} =
    num/den, so a record with its last step dropped fails too.  Each digit must lie
    in 1..p-1, as Schneider's do: b_m + p with the tail moved to match keeps the value
    and every law above, but is not the expansion.
    """
    p, eps_prev, eps, ok = expansion.p, a, -b, True
    for digit, alpha in expansion.steps:
        eps_prev, (eps, rem) = eps, divmod(digit * eps + eps_prev, p**alpha)
        ok &= 0 < digit < p and alpha >= 1 and not rem
    num, den = expansion.tail
    ok &= eps % p != 0 and num * eps + den * eps_prev == 0
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
