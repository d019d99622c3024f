"""Seeded inputs for the three workloads.

Standard library only: the benchmark builds every input itself and never
asks the program under test to make one.  The same seed gives the same
stream of queries.

Query workloads are produced in rounds.  A round holds one query for every
cell of a fixed grid (command x prime x size level), in shuffled order, and
the sizes spread evenly over each level from round to round (see
_positions).  The sizes do not depend on the seed: costs grow steeply with
size, so which sizes a run drew would otherwise move its p95 more than the
program does.  The seed
sets the numbers of large_height, their signs, and the query order.
Runs execute whole rounds.  No query (command and input) is ever repeated
within a stream.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

# sweep_grid: the fixed grid of the sweep subcommand; the seed does not apply.
SWEEP_ARGS = ("sweep", "--primes", "3,5,7", "--max-num", "100", "--max-den", "100")
SWEEP_ROWS = 36_522
# sha256 of the CSV and the stderr summary line written by the program at
# the first commit that carries this benchmark.
SWEEP_SHA256 = "356a4f1995605f0282d9dab5b2b123b320f7f794bd413af923dd4fa9fde993d9"
SWEEP_SUMMARY = "sweep ok: max browkin_len 8, min slack 0, max steps to stationarity 19"

# large_height: random rationals prime to p whose numerator and denominator
# digit counts are log-uniform over [DIGITS_MIN, DIGITS_MAX].  The upper end stays below
# the heights where the float seed of browkin_bound overflows (about 10**308),
# because the workloads must be ones on which no call fails.
# verify is left out: its 0.1-2 s calls on these heights swing with a
# shared CPU's speed far more than the probe scaling in run.py corrects.
LARGE_HEIGHT_COMMANDS = ("expand-browkin", "bound", "expand-schneider", "digits")
LARGE_HEIGHT_PRIMES = (3, 7, 101)
DIGITS_MIN, DIGITS_MAX = 20, 300
SIZE_LEVELS = 4
DIGITS_WINDOW = 64  # digits -n; `digits --json` is left out (see CHANGES.md)

# constant_heads: a/b whose Schneider expansion starts with (digit, alpha)
# repeated k+1 times, k log-uniform over [K_MIN, K_MAX].  Each (digit, alpha,
# p) has |T2/T1|**2000 well below the float range, since head_analysis still
# converts theta to a float; none is the stationary pair (p-1, 1).
HEAD_COMMANDS = ("head", "expand-schneider")
HEAD_TRIPLES = (
    (1, 2, 3),
    (1, 3, 3),
    (1, 2, 5),
    (2, 3, 5),
    (1, 2, 7),
    (2, 2, 7),
    (3, 3, 7),
    (1, 1, 11),
    (2, 2, 11),
    (1, 1, 13),
    (1, 1, 101),
    (2, 1, 101),
)
K_MIN, K_MAX = 20, 2000
K_LEVELS = 5


@dataclass(frozen=True)
class Query:
    """One CLI call.  digit, alpha and k are set for constant heads only."""

    command: str
    p: int
    a: int
    b: int
    digit: int | None = None
    alpha: int | None = None
    k: int | None = None

    def argv(self) -> list[str]:
        args = [self.command, "-p", str(self.p)]
        if self.command == "digits":
            args += ["-n", str(DIGITS_WINDOW)]
        else:
            args.append("--json")
        return args + ["--", f"{self.a}/{self.b}"]

    def describe(self) -> str:
        size = f"{len(str(abs(self.a)))}/{len(str(self.b))} digits"
        head = "" if self.k is None else f", head ({self.digit},{self.alpha}) k={self.k}"
        return f"{self.command} p={self.p} input {size}{head}: {self.a}/{self.b}"


def rounds(workload: str, seed: int):
    """Endless (or, for constant heads, finite) iterator of query rounds."""
    if workload == "large_height":
        return _large_height_rounds(seed)
    if workload == "constant_heads":
        return _constant_head_rounds(seed)
    raise ValueError(f"no query stream for workload {workload!r}")


_GOLDEN = (5**0.5 - 1) / 2


def _positions(offset: float, round_index: int, count: int) -> list[float]:
    """One point inside each of `count` equal strata of [0, 1).

    Round r puts every point at the same place in its stratum, offset +
    r * golden ratio (mod 1), so successive rounds fill the strata evenly
    (a low-discrepancy sequence)."""
    frac = (offset + round_index * _GOLDEN) % 1.0
    return [(i + frac) / count for i in range(count)]


def _log_uniform(lo: int, hi: int, u: float) -> int:
    return min(hi, int(lo * (hi / lo) ** u))


def _large_height_rounds(seed: int):
    rng = random.Random(f"large_height:{seed}")
    seen: set[tuple[int, int]] = set()
    for r in itertools.count():
        nums = _positions(0.5, r, SIZE_LEVELS)
        dens = _positions(0.0, r, SIZE_LEVELS)
        # pair numerator level i with denominator level i + r: every
        # SIZE_LEVELS rounds cover each pair of levels once
        dens = dens[r % SIZE_LEVELS:] + dens[: r % SIZE_LEVELS]
        batch = []
        for command in LARGE_HEIGHT_COMMANDS:
            for p in LARGE_HEIGHT_PRIMES:
                for u, w in zip(nums, dens):
                    a, b = _random_rational(rng, p, u, w, seen)
                    batch.append(Query(command, p, a, b))
        rng.shuffle(batch)
        yield batch


def _random_rational(rng, p, u, w, seen):
    num_digits = _log_uniform(DIGITS_MIN, DIGITS_MAX + 1, u)
    den_digits = _log_uniform(DIGITS_MIN, DIGITS_MAX + 1, w)
    while True:
        a = rng.randrange(10 ** (num_digits - 1), 10**num_digits)
        b = rng.randrange(10 ** (den_digits - 1), 10**den_digits)
        g = math.gcd(a, b)
        a, b = a // g, b // g
        if rng.random() < 0.5:
            a = -a
        # a and b prime to p: expand-schneider rejects anything else
        if a % p == 0 or b % p == 0:
            continue
        if (a, b) not in seen:
            seen.add((a, b))
            return a, b


def _constant_head_rounds(seed: int):
    rng = random.Random(f"constant_heads:{seed}")
    used: set[tuple] = set()
    for r in itertools.count():
        batch = []
        for digit, alpha, p in HEAD_TRIPLES:
            for command in HEAD_COMMANDS:
                for level, u in enumerate(_positions(0.5, r, K_LEVELS)):
                    k = _fresh_k(rng, used, (command, digit, alpha, p), level, u)
                    if k is None:
                        return  # every k of some level is spent: the stream ends
                    a, b = constant_head_rational(digit, alpha, k, p)
                    batch.append(Query(command, p, a, b, digit, alpha, k))
        rng.shuffle(batch)
        yield batch


def _fresh_k(rng, used, key, level, u):
    # k log-uniform over [K_MIN, K_MAX] at position u; a k already used for
    # this command and head pair is replaced by a random unused k of the
    # same level
    lo = round(K_MIN * (K_MAX / K_MIN) ** (level / K_LEVELS))
    hi = round(K_MIN * (K_MAX / K_MIN) ** ((level + 1) / K_LEVELS))
    if level == K_LEVELS - 1:
        hi = K_MAX + 1
    k = max(lo, min(hi - 1, _log_uniform(K_MIN, K_MAX + 1, u)))
    if (*key, k) in used:
        free = [j for j in range(lo, hi) if (*key, j) not in used]
        if not free:
            return None
        k = rng.choice(free)
    used.add((*key, k))
    return k


def constant_head_rational(digit: int, alpha: int, k: int, p: int) -> tuple[int, int]:
    """a/b in lowest terms with Schneider head (digit, alpha) * (k+1), then
    the stationary tail: k+1 matrices [[digit, p**alpha], [1, 0]] applied to
    the tail vector (1, -1)."""
    pa = p**alpha
    u, v, w, z = 1, 0, 0, 1
    for _ in range(k + 1):
        u, v, w, z = u * digit + v, u * pa, w * digit + z, w * pa
    a, b = u - v, w - z
    if b < 0:
        a, b = -a, -b
    g = math.gcd(a, b)
    return a // g, b // g
