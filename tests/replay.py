"""Forward replays of the traces an expansion record does not store: the tests'
references for the betas, the y values and the quotient pairs.

Both replays walk y_{m+1} = (y_{m-1} - d_m*y_m) // p**e_m, with floor division, so
a planted record replays to some trace rather than raising.
"""


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
