"""Exact arithmetic foundation: the primality test, p-adic valuations,
symmetric residues, modular inverses, and real quadratic field elements.

Everything here is exact integer/rational arithmetic.  The library's own
paths run on plain integers: vp_split gives a valuation with its p-free
cofactor, the Browkin bound and the head certificate test their identities
on integer pairs in Z[sqrt(D)], and the CLI prints (x + y*sqrt(d))/den off
its integers and square_part(d).  No library path builds a QuadraticElement:
it stays as the tests' exact reference for those values, and because the
benchmark tracer (perfbench/tracer.py) wraps four of its methods by name.
Its float (``__float__``) is an approximation for display only.
"""

from __future__ import annotations

import math
from fractions import Fraction


# Deterministic Miller-Rabin: the first k prime bases decide every n below psi_k,
# the least strong pseudoprime to all of them (OEIS A014233); the last, psi_13 for
# the bases 2..41, is PRIME_LIMIT (Sorenson and Webster 2017).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSEUDOPRIME_BOUNDS = (
    2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747, 3_474_749_660_383,
    341_550_071_728_321, 341_550_071_728_321, 3_825_123_056_546_413_051,
    3_825_123_056_546_413_051, 3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)
PRIME_LIMIT = _PSEUDOPRIME_BOUNDS[-1]
# the odd primes below 43**2, where every composite has a prime factor <= 41
_SMALL_ODD_PRIMES = frozenset(_BASES[1:]).union(
    n for n in range(43, 43 * 43, 2) if math.gcd(n, math.prod(_BASES)) == 1
)


def is_odd_prime(p: int) -> bool:
    """True for primes >= 3 (2 is deliberately rejected).

    A table below 43**2, deterministic Miller-Rabin above it, certified below
    PRIME_LIMIT (about 3.3e24); an odd p at or above the limit raises ValueError.
    Only the first k bases are tried, k the least with p below psi_k: 4 at
    p = 10**9 + 7, all 13 near the limit.
    """
    if p < 43 * 43:
        return p in _SMALL_ODD_PRIMES
    if not p & 1:
        return False
    if p >= PRIME_LIMIT:
        raise ValueError(f"p must be below {PRIME_LIMIT}, the limit of the primality test, got {p}")
    d, s = p - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a, bound in zip(_BASES, _PSEUDOPRIME_BOUNDS):
        x = pow(a, d, p)
        if x != 1 and x != p - 1:
            for _ in range(s - 1):
                x = x * x % p
                if x == p - 1:
                    break
            else:
                return False
        if p < bound:  # the bases up to a decide every n below bound
            break
    return True


def require_odd_prime(p: int) -> None:
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


def require_lowest_terms(a: int, b: int) -> None:
    """Raise ValueError unless a/b is in lowest terms with b > 0."""
    if b < 1:
        raise ValueError("denominator must be positive")
    if math.gcd(a, b) != 1:
        raise ValueError(f"numerator and denominator must be coprime, got gcd = {math.gcd(a, b)}")


def vp_split(n: int, p: int) -> tuple[int, int]:
    """(v, n // p**v) for a nonzero integer n, v its p-adic valuation: p, p**2,
    p**4, ... are divided out while each divides, then the same powers are tried
    in reverse, so the p-free cofactor comes with v at no further cost."""
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


def int_vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer, vp_split's v."""
    return vp_split(n, p)[0]


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


FOLD_LIMIT = 4096  # the largest trial divisor when folding a radicand


def square_part(n: int) -> tuple[int, int]:
    """(s, m) with n = s*s*m, folding square factors f*f with f <= FOLD_LIMIT,
    then the cofactor if it is a perfect square: m = 1 exactly when n is a square."""
    s, m, f = 1, n, 2
    while f * f <= m:
        if f > FOLD_LIMIT:
            root = math.isqrt(m)
            return (s * root, 1) if root * root == m else (s, m)
        ff = f * f
        while m % ff == 0:
            m //= ff
            s *= f
        f += 1
    return s, m


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
