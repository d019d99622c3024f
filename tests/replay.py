"""Forward replays of the traces an expansion record does not store: the tests'
references for the betas, the y values and the quotient pairs; the head
identity itself, the reference for head_analysis; the plain valuation
ladder, the reference for vp_split; square folding by every trial
divisor, the reference for square_part's primes; the product of a constant
head's step matrices, the reference for generate_constant_head; and the
period search by a table of remainders, the reference for digit_period.

Both replays walk y_{m+1} = (y_{m-1} - d_m*y_m) // p**e_m, with floor division, so
a planted record replays to some trace rather than raising.
"""

import math


def _replay(p, y_prev, y_cur, links):
    out = []
    for d, e in links:
        y_prev, y_cur = y_cur, (y_prev - d * y_cur) // p**e
        out.append(y_cur)
    return out


def beta_trace(expansion):
    """[beta_0, ..., beta_N] of a BrowkinExpansion, from beta_{-1} = alpha and beta_0 = beta0
    by beta_{n+1} = (beta_{n-1} - x_n*beta_n) / p**(k_n + k_{n+1})."""
    steps = expansion.steps
    links = [(x, k + k_next) for (k, x), (k_next, _) in zip(steps, steps[1:])]
    return [expansion.beta0, *_replay(expansion.p, expansion.alpha, expansion.beta0, links)]


def beta1_abs(expansion):
    """|beta_1|, or 0 for a one-step expansion: browkin_bound's second input."""
    betas = beta_trace(expansion)
    return abs(betas[1]) if len(betas) > 1 else 0


def y_trace(expansion):
    """[y_1, ..., y_N] of a SchneiderExpansion, from y_{-1} = a and y_0 = b by
    y_{m+1} = (y_{m-1} - b_m*y_m) / p**alpha_m."""
    return _replay(expansion.p, expansion.a, expansion.b, expansion.steps)


def quotient_pairs(expansion):
    """The Browkin partial quotients x_n/p**k_n as integer pairs (x_n, p**k_n)."""
    return [(x, expansion.p**k) for k, x in expansion.steps]


def k_trace(expansion):
    return [k for k, _ in expansion.steps]


def _valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_split_ladder(n, p):
    """(v, n // p**v) for a nonzero n by the ladder alone: p, p**2, p**4, ... divided out while
    each divides, then the same powers tried in reverse, written out apart from vp_split."""
    if n % p:
        return 0, n
    n, v, powers, power = n // p, 1, [p], p * p
    q, r = divmod(n, power)
    while not r:
        n, v = q, 2 * v + 1
        powers.append(power)
        power *= power
        q, r = divmod(n, power)
    for i in range(len(powers) - 1, -1, -1):
        q, r = divmod(n, powers[i])
        if not r:
            n, v = q, v + (1 << i)
    return v, n


def head_identity(report, p):
    """(head_len, exact_identity) of a HeadReport by the identity (T2/T1)**e = theta itself, on
    integer pairs in Z[sqrt(D)].  theta = (sx + sy*sqrt(D))/n and T1*T2 = -p**alpha, so
    (T2/T1)**e = w**e / (4p**alpha)**e with w = -(digit + sqrt(D))**2, and the identity is
    w**e * n == (sx + sy*sqrt(D)) * (4p**alpha)**e, checked at the one e that valuations
    allow, vp(n) = vp(sx) + alpha*e."""
    digit, alpha, disc, sx, sy, n = report[:6]
    e, rem = divmod(_valuation(n, p) - _valuation(sx, p), alpha)
    if e < 0 or rem:
        return None, False
    u, v, bu, bv, i = 1, 0, -(digit * digit + disc), -2 * digit, e
    while i:
        if i & 1:
            u, v = u * bu + v * bv * disc, u * bv + v * bu
        bu, bv, i = bu * bu + bv * bv * disc, 2 * bu * bv, i >> 1
    scale = (4 * p**alpha) ** e
    exact = u * n == sx * scale and v * n == sy * scale
    return (e + 1 if exact else None), exact


def square_part_every_f(n, limit=4096):
    """(s, m) with n = s*s*m by trial division by every f = 2, 3, 4, ... while f*f <= m, up to
    limit, then the cofactor folded whole if it is a square (square_part by every f)."""
    s, m, f = 1, n, 2
    while f * f <= m:
        if f > limit:
            root = math.isqrt(m)
            return (s * root, 1) if root * root == m else (s, m)
        ff = f * f
        while m % ff == 0:
            m //= ff
            s *= f
        f += 1
    return s, m


def constant_head_product(digit, alpha, k, p):
    """(a, b) of M**(k+1) (1, -1), M = [[digit, p**alpha], [1, 0]], sign-normalized to b > 0:
    the k+1 matrix products one at a time (generate_constant_head by the product)."""
    pa, u, v, w, z = p**alpha, 1, 0, 0, 1
    for _ in range(k + 1):
        u, v, w, z = u * digit + v, u * pa, w * digit + z, w * pa
    a, b = u - v, w - z
    return (-a, -b) if b < 0 else (a, b)


def digit_period_by_states(a, b, p, limit):
    """(start_exponent, preperiod, period) of a/b (coprime, b > 0) by a table of every
    remainder state, the first state seen twice pinning the cycle; (start, None, None) once
    limit digits are out with no state seen twice (digit_period without its lemma)."""
    v, n, d = 0, a, b
    while n and n % p == 0:
        n, v = n // p, v + 1
    while d % p == 0:
        d, v = d // p, v - 1
    inverse, seen, digits = pow(d, -1, p), {n: 0}, []
    while True:
        digit = n * inverse % p
        digit -= p if digit > p // 2 else 0
        n = (n - digit * d) // p
        digits.append(digit)
        if n in seen:
            return v, tuple(digits[: seen[n]]), tuple(digits[seen[n] :])
        if len(digits) == limit:
            return v, None, None
        seen[n] = len(digits)
