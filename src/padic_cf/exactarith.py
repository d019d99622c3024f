"""Exact arithmetic foundation: the primality test, p-adic valuations,
symmetric residues, modular inverses, and real quadratic field elements.

Everything here is exact integer/rational arithmetic.  Every valuation
routine and every inverse mod a power of 2 of the package is here; only the
step loops of both expansions, Schneider's batches among them, divide p out
of each new y inline.  The library's own paths run on plain integers:
int_vp gives a valuation that is most likely small off one residue mod a
one-digit power of p (and the ladder of divisions past it), vp_split gives a
valuation with its p-free cofactor, and vp_read reads a candidate valuation
off the low bits of a large n = p**v * c with c of at most about 64 bits,
where a ladder of divisions would divide by powers of p the size of n: the
quotient n / p**m for the largest m that surely divides such an n is
n * p**-m mod 2**K (Jebelean's exact division from the low end; p**-m by
_inverse_power's masked square-and-multiply, cheaper than pow's even
modulus, which also gives schneider's runs the inverse they divide by),
kept when it is small.
Nothing divides n, so the read is not a proof: vp_read's callers
(schneider's entry run and head_analysis) each certify it by an exact
identity and fall back to vp_split, which runs the ladder alone.  The
Browkin bound and the head certificate test their identities on integer
pairs in Z[sqrt(D)], and the CLI prints (x + y*sqrt(d))/den off
its integers and square_part(d).  No library path builds a
QuadraticElement: it stays as the tests' exact reference for those values,
and because the benchmark tracer (perfbench/tracer.py) wraps four of its
methods by name.
Its float (``__float__``) is an approximation for display only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress


# Deterministic Miller-Rabin: the 13 prime bases 2..41 decide every n below PRIME_LIMIT, the
# least strong pseudoprime to all of them (psi_13 of OEIS A014233; Sorenson and Webster 2017)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981
FOLD_LIMIT = 4096  # the largest trial divisor when folding a radicand, and the prime table's top


def _sieve(limit: int) -> bytearray:
    # sieve[n] is 1 exactly for the primes n <= limit (Eratosthenes)
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for f in range(2, math.isqrt(limit) + 1):
        if sieve[f]:
            sieve[f * f :: f] = bytes(len(range(f * f, limit + 1, f)))
    return sieve


# the one prime table, built at import: is_odd_prime reads it, square_part folds its squares
_IS_PRIME = _sieve(FOLD_LIMIT)
_FOLD_SQUARES = tuple((f, f * f) for f in compress(range(FOLD_LIMIT + 1), _IS_PRIME))


def is_odd_prime(p: int) -> bool:
    """True for primes >= 3 (2 is deliberately rejected).

    A table up to FOLD_LIMIT, deterministic Miller-Rabin above it, certified below
    PRIME_LIMIT (about 3.3e24); an odd p at or above the limit raises ValueError.
    Every p above the table runs all 13 bases (BENCH_special_paths_2.json,
    row 3).
    """
    if p <= FOLD_LIMIT:
        return p > 2 and _IS_PRIME[p] == 1
    if not p & 1:
        return False
    if p >= PRIME_LIMIT:
        raise ValueError(f"p must be below {PRIME_LIMIT}, the limit of the primality test, got {p}")
    d, s = p - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _BASES:
        x = pow(a, d, p)
        if x != 1 and x != p - 1:
            for _ in range(s - 1):
                x = x * x % p
                if x == p - 1:
                    break
            else:
                return False
    return True


def require_odd_prime(p: int) -> None:
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


def require_coprime(a: int, b: int) -> None:
    """Raise ValueError, naming gcd(a, b), unless a and b are coprime."""
    g = math.gcd(a, b)
    if g != 1:
        raise ValueError(f"numerator and denominator must be coprime, got gcd = {g}")


def require_lowest_terms(a: int, b: int) -> None:
    """Raise ValueError unless a/b is in lowest terms with b > 0."""
    if b < 1:
        raise ValueError("denominator must be positive")
    require_coprime(a, b)


# fewest bits of n for which vp_read reads off the low end: on constant heads' forms
# the read costs x1.09 of the ladder at 640 bits, x0.98-0.99 at 768 and x0.86-0.88 at 896
# (BENCH_low_end.json, "floor")
_READ_BITS = 768


def _inverse_power(p: int, m: int, width: int) -> int:
    # p**-m mod 2**width for odd p and m >= 1: p's inverse, then square-and-multiply with a mask
    # after each product, x0.5-0.75 of pow(p, -m, 2**width), which reduces each product by a long
    # division (BENCH_low_end.json, "inverses").  The low-end reads and schneider._run_pair's
    # inverse of det M**r = (-p**alpha)**r share it.  Kept: with pow, the schneider_run.json pin
    # reads x1.05 (BENCH_special_paths_2.json, row 4)
    mask = (1 << width) - 1
    base = out = pow(p, -1, mask + 1)
    for bit in bin(m)[3:]:
        out = out * out & mask
        if bit == "1":
            out = out * base & mask
    return out


def _low_quotient(n: int, p: int) -> tuple[int, int] | None:
    # (m, q): m the largest exponent that p**64's bit length certifies with p**m < 2**(bits - 64),
    # bits that of n, and q = n * p**-m mod 2**(q_bits + 64) as a symmetric residue, kept only when
    # |q| <= 2**q_bits.  As 2**(width-1) <= p**64 < 2**width, the quotient n // p**m has fewer than
    # q_bits bits, so q is that quotient whenever p**m divides n; else None, but for a false read
    # with odds about 2**-63 (exact division from the low end: Jebelean, J. Symbolic Computation 15,
    # 1993).  n needs more than 64 + width/64 bits, so that m >= 1
    bits, width = n.bit_length(), (p**64).bit_length()
    m = (bits - 64) * 64 // width
    q_bits = bits - m * (width - 1) // 64
    mask = (1 << (q_bits + 64)) - 1
    t = (n & mask) * _inverse_power(p, m, q_bits + 64) & mask
    if t >> q_bits == 0:
        return m, t
    if (mask - t) >> q_bits == 0:
        return m, t - mask - 1
    return None


def vp_split(n: int, p: int) -> tuple[int, int]:
    """(v, n // p**v) for a nonzero integer n, v its p-adic valuation: p, p**2,
    p**4, ... are divided out while each divides, then the same powers are tried
    in reverse, so the p-free cofactor comes with v at no further cost.
    """
    if n == 0:
        raise ValueError("valuation of zero undefined")
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


def vp_read(n: int, p: int) -> int | None:
    """A candidate for vp(n), read off the low bits of n, or None: m + vp(q) for
    the quotient q = n / p**m read from the low end (n * p**-m mod
    2**(q_bits + 64), kept when it fits q_bits), m the largest exponent with
    p**m < 2**(bits - 64).  It reads n = p**v * c whenever |c| < 2**63, as a
    constant head's norm forms are, for then p**m divides n; for n of
    _READ_BITS bits or fewer, and when the residue does not fit, it gives
    None.  It builds no p**m and makes no division of n, so it never
    claims exactness: a residue that fits by chance (odds about 2**-63) reads a
    wrong v, and each caller certifies the read by an exact identity of its own
    and falls back to vp_split when it cannot.
    """
    if n.bit_length() <= _READ_BITS:
        return None
    read = _low_quotient(n, p)
    if read is None or not read[1]:
        return None
    return read[0] + vp_split(read[1], p)[0]


def int_vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer whose valuation is most likely
    small, read off n mod p**j with j = max(2, 30 // p.bit_length()), so that
    p**j < 2**30 is one CPython digit for p < 2**15: exact while p**j does not
    divide n, with no division of n by p (x0.2-0.6 of vp_split's ladder,
    BENCH_low_end.json, "small_vp"); vp_split's v where p**j divides n, and
    vp_split's ValueError for n = 0.  vp_split alone reads x1.13 on the
    head_7.json pin's `head` (BENCH_special_paths_2.json, row 8).
    """
    rest = n % p ** max(2, 30 // p.bit_length())
    if not rest:
        return vp_split(n, p)[0]
    v = 0
    while not rest % p:
        rest //= p
        v += 1
    return v


def vp(r: Fraction | int, p: int) -> int:
    """Signed p-adic valuation: r = p**v * (u/w) with p dividing neither u nor w."""
    r = Fraction(r)
    if r == 0:
        raise ValueError("valuation of zero undefined")
    return int_vp(r.numerator, p) - int_vp(r.denominator, p)


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a modulo m, in [1, m-1]."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise ValueError(f"not invertible: gcd({a}, {m}) != 1") from None


def symmetric_residue(x: int, m: int) -> int:
    """Residue of x modulo odd m in the symmetric range [-(m-1)/2, (m-1)/2]."""
    if m < 3 or m % 2 == 0:
        raise ValueError(f"modulus must be odd and >= 3, got {m}")
    s = x % m
    return s - m if s > m // 2 else s


def _sign_of(q: Fraction) -> int:
    return (q > 0) - (q < 0)


def square_part(n: int) -> tuple[int, int]:
    """(s, m) with n = s*s*m, folding square factors f*f with f <= FOLD_LIMIT,
    then the cofactor if it is a perfect square: m = 1 exactly when n is a square.

    Only prime f are tried: once the primes below a composite f are folded, m
    holds each of them at most once, so f*f cannot divide m, and trying every
    f would give the same (s, m).  The cofactor is tested for a square once
    the primes are spent, where trying every f tests it only from 4097**2 up:
    no square below that is left, as one with no prime factor up to 4093 is 1
    (returned before) or at least 4099**2.
    """
    s, m = 1, n
    for f, ff in _FOLD_SQUARES:
        if ff > m:
            return s, m
        while not m % ff:
            m //= ff
            s *= f
    root = math.isqrt(m)
    return (s * root, 1) if root * root == m else (s, m)


class QuadraticElement:
    """Exact element x + y*sqrt(d) of a real quadratic field.

    Square factors of the radicand fold into y on construction, so rational
    values always normalize to d = 1 and equality is plain componentwise
    comparison.  Folding stops at f*f with f = FOLD_LIMIT, then folds the
    cofactor only if it is a square: d is squarefree below 2*(FOLD_LIMIT+1)**2
    and may keep the square of a larger prime above it.  Elements with
    distinct irrational radicands refuse to mix: each computation lives in a
    single field.
    """

    __slots__ = ("x", "y", "d")

    def __init__(self, x: Fraction | int = 0, y: Fraction | int = 0, d: int = 1) -> None:
        x, y = Fraction(x), Fraction(y)
        if d < 1:
            raise ValueError(f"radicand must be positive, got {d}")
        if y == 0:
            d = 1
        elif d > 1:
            s, d = square_part(d)
            y *= s
        if d == 1:
            x, y = x + y, Fraction(0)
        self.x = x
        self.y = y
        self.d = d

    def sign(self) -> int:
        """Exact sign of the real number x + y*sqrt(d); no floating point."""
        if self.y == 0:
            return _sign_of(self.x)
        if self.x == 0:
            return _sign_of(self.y)
        sx, sy = _sign_of(self.x), _sign_of(self.y)
        if sx == sy:
            return sx
        # opposite-sign parts: compare x**2 against y**2 * d exactly
        gap = self.x * self.x - self.y * self.y * self.d
        if gap == 0:
            return 0  # impossible for a radicand that is not a square
        return sx if gap > 0 else sy

    def _coerce(self, other: object) -> QuadraticElement | None:
        if isinstance(other, QuadraticElement):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticElement(other)
        return None

    def _common_d(self, other: QuadraticElement) -> int:
        if self.d == other.d or other.d == 1:
            return self.d
        if self.d == 1:
            return other.d
        raise ValueError(f"mixed radicands: sqrt({self.d}) vs sqrt({other.d})")

    def __add__(self, other: object) -> QuadraticElement:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = self._common_d(other)
        return QuadraticElement(self.x + other.x, self.y + other.y, d)

    __radd__ = __add__

    def __neg__(self) -> QuadraticElement:
        return QuadraticElement(-self.x, -self.y, self.d)

    def __sub__(self, other: object) -> QuadraticElement:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> QuadraticElement:
        return (-self) + other

    def __mul__(self, other: object) -> QuadraticElement:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = self._common_d(other)
        x = self.x * other.x + self.y * other.y * d
        y = self.x * other.y + self.y * other.x
        return QuadraticElement(x, y, d)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> QuadraticElement:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.x == 0 and other.y == 0:
            raise ZeroDivisionError("division by zero quadratic element")
        # multiply by the conjugate; the norm of a nonzero element is nonzero
        norm = other.x * other.x - other.y * other.y * other.d
        return self * QuadraticElement(other.x / norm, -other.y / norm, other.d)

    def __pow__(self, n: int) -> QuadraticElement:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (QuadraticElement(1) / self) ** (-n)
        out = QuadraticElement(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self.x == coerced.x and self.y == coerced.y and self.d == coerced.d

    def __hash__(self) -> int:
        return hash((self.x, self.y, self.d))

    def __bool__(self) -> bool:
        return self.x != 0 or self.y != 0

    def __float__(self) -> float:
        return float(self.x) + float(self.y) * math.sqrt(self.d)

    def __repr__(self) -> str:
        return f"QuadraticElement({self.x}, {self.y}, d={self.d})"

    def __str__(self) -> str:
        if self.y == 0:
            return str(self.x)
        if self.x == 0:
            return f"{self.y}*sqrt({self.d})"
        op = "-" if self.y < 0 else "+"
        return f"{self.x} {op} {abs(self.y)}*sqrt({self.d})"
