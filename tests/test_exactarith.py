"""Foundation tests: valuations, symmetric residues, modular inverses,
and exact quadratic field arithmetic."""

import math
import random
from fractions import Fraction

import pytest

import padic_cf.exactarith as exactarith
from padic_cf.exactarith import (
    PRIME_LIMIT,
    QuadraticElement,
    int_vp,
    is_odd_prime,
    mod_inverse,
    square_part,
    symmetric_residue,
    vp,
    vp_split,
)

from replay import square_part_every_f, vp_split_ladder

PROBE_PRIMES = (3, 5, 7, 101, 65537, 10**9 + 7)


def brute_inverse(a, m):
    """Independent oracle: scan every residue."""
    for t in range(m):
        if (a * t) % m == 1:
            return t
    raise AssertionError(f"no inverse of {a} mod {m}")


def brute_symmetric(x, m):
    """Independent oracle: scan the symmetric range."""
    half = (m - 1) // 2
    hits = [s for s in range(-half, half + 1) if (x - s) % m == 0]
    assert len(hits) == 1
    return hits[0]


class TestValuation:
    def test_fixtures(self):
        assert vp(Fraction(77, 18), 3) == -2
        assert vp(Fraction(9, 2), 3) == 2
        assert vp(Fraction(365, 54), 3) == -3
        assert vp(Fraction(-1793, 100), 5) == -2
        assert vp(45, 3) == 2
        assert vp(Fraction(1, 7), 7) == -1

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            vp(Fraction(0), 3)
        with pytest.raises(ValueError, match="zero"):
            int_vp(0, 3)

    def test_int_vp_matches_repeated_division(self):
        def by_division(n, p):
            v, (q, r) = 0, divmod(n, p)
            while not r:
                n, v = q, v + 1
                q, r = divmod(n, p)
            return v

        # v = 2**j - 1, 2**j, 2**j + 1 meet the edges of the squaring; the reference
        # costs time quadratic in v, so few large v are tried
        rng = random.Random(20261018)
        for p in (3, 5, 101, 65537, 10**21 + 117):
            for v in list(range(18)) + [31, 32, 33, 127, 128, 255, 1023, 1024, 5000]:
                u = rng.randrange(p * p) * p + rng.randrange(1, p)  # prime to p
                n = rng.choice((1, -1)) * u * p**v
                assert int_vp(n, p) == v == by_division(n, p)

    def test_int_vp_around_its_residue(self, monkeypatch):
        # int_vp reads v off n mod p**j and takes vp_split's ladder only where p**j divides n: v just below,
        # at and above j, cofactors small, past 64 bits and negative; for p >= 2**15, j = 2 and
        # p**2 is two CPython digits (30 bits each).  It takes no low-end read, which would miss on
        # the 3,000-bit cofactors past _READ_BITS
        ladders, reads = [], []
        ladder, low_quotient = exactarith.vp_split, exactarith._low_quotient
        monkeypatch.setattr(exactarith, "vp_split", lambda n, p: ladders.append(n) or ladder(n, p))
        monkeypatch.setattr(exactarith, "_low_quotient", lambda n, p: reads.append(n) or low_quotient(n, p))
        rng = random.Random(20261021)
        large = 0
        for p in PROBE_PRIMES:
            j = residue_power(p)
            assert j == 2 and p * p >= 2**30 if p >= 2**15 else p**j < 2**30
            for v in (0, 1, j - 1, j, j + 1, 2 * j + 3):
                for c in (1, -1, p + 1, -(p - 1), rng.getrandbits(100) * p + 1, -(rng.getrandbits(3000) * p + 2)):
                    n = c * p**v
                    ladders.clear()
                    assert int_vp(n, p) == vp_split_ladder(n, p)[0] == v, (p, v, c)
                    assert ladders == [n] * (v >= j), (p, v, c)
                    large += v >= j and n.bit_length() > exactarith._READ_BITS
        assert reads == [] and large == 3 * len(PROBE_PRIMES)

    def test_multiplicative_and_ultrametric(self):
        rng = random.Random(20260810)
        for p in (3, 5, 7):
            for _ in range(300):
                r = Fraction(rng.randint(-400, 400) or 1, rng.randint(1, 400))
                s = Fraction(rng.randint(-400, 400) or 1, rng.randint(1, 400))
                assert vp(r * s, p) == vp(r, p) + vp(s, p)
                if r + s != 0:
                    lo = min(vp(r, p), vp(s, p))
                    assert vp(r + s, p) >= lo
                    if vp(r, p) != vp(s, p):
                        assert vp(r + s, p) == lo


def probe_exponent(n, p):
    """The m of the low-end read (exactarith._low_quotient) on n, the largest exponent p**64's
    bit length certifies below 2**(bits - 64), bits that of n."""
    return (n.bit_length() - 64) * 64 // (p**64).bit_length()


def residue_power(p):
    """j of int_vp's residue mod p**j: int_vp runs vp_split only where p**j divides n."""
    return max(2, 30 // p.bit_length())


def probed(p):
    """A valuation whose p**v alone has more than _READ_BITS bits, so that a low-end read of n
    finds a quotient for any cofactor."""
    return exactarith._READ_BITS // (p.bit_length() - 1) + 1


def decoy(p, m):
    """(n, v): p**v exactly divides n, j <= v, the read tries p**m > p**v, and n is p**m plus a
    multiple of 2**k, k the bits of the read's residue, so that the residue fits (it reads the
    quotient 1) and only the product tells the read missed."""
    width = (p**64).bit_length()
    bits = 64 + -(-m * width // 64)  # the least bit length that reads p**m
    k = bits - m * (width - 1) // 64 + 64
    v = (bits - k - 2) * 64 // width  # p**v < 2**(bits - k - 2)
    w = (1 << (bits - 1 - k)) // p**v + 1
    while w % p == 0:
        w += 1
    n = p**m + (p**v * w << k)
    assert n.bit_length() == bits > exactarith._READ_BITS and residue_power(p) <= v < m
    return n, v


class TestVpSplitProbe:
    """vp_split answers as the plain ladder does on the inputs where a low-end read of n would
    hit and where it would miss: powers of p on both sides of _READ_BITS, cofactors inside and
    past the read's 63-bit window, and decoys whose low bits fit a wrong quotient."""

    def cofactors(self, p, rng):
        # prime to p, inside the read's 63-bit window and past it, negative ones among them
        return (1, -1, 2, -(p + 1), (1 << 62) // p * p + 1, -((1 << 62) // p * p + 2), (1 << 70) // p * p - 1,
                rng.getrandbits(2000) * p + 1)

    def test_powers_and_cofactors(self):
        # v below, at and above j, and large; n of _READ_BITS and _READ_BITS + 1 bits
        rng = random.Random(20261019)
        for p in PROBE_PRIMES:
            j = residue_power(p)
            cases = [(v, c) for v in (0, 1, j - 1, j, j + 1, 62, 63, 64, 65, 126, 127, 128, 1000, probed(p))
                     for c in self.cofactors(p, rng)]
            for v in (j - 1, j, (exactarith._READ_BITS - 40) // p.bit_length()):
                for bits in (exactarith._READ_BITS, exactarith._READ_BITS + 1):
                    c = (1 << (bits - 1)) // p**v + 1
                    while c % p == 0:
                        c += 1
                    assert (c * p**v).bit_length() == bits, (p, v, bits)
                    cases += [(v, c), (v, -c)]
            for v, c in cases:
                n = c * p**v
                assert vp_split(n, p) == vp_split_ladder(n, p) == (v, c), (p, v, c)

    def test_around_the_estimate(self):
        # cofactors of 1 to 300 bits put the read's m below, at and above v
        for p in PROBE_PRIMES:
            for v in (probed(p), probed(p) + 1000):
                seen = set()
                for j in range(301):
                    c = (1 << j) + 1
                    while c % p == 0:
                        c += 2
                    n = c * p**v
                    gap = probe_exponent(n, p) - v
                    if gap in (-1, 0, 1):
                        seen.add(gap)
                        assert vp_split(n, p) == vp_split_ladder(n, p) == (v, c), (p, v, c)
                        assert vp_split(-n, p) == (v, -c)
                assert seen == {-1, 0, 1}, (p, v, seen)

    @pytest.mark.parametrize("p", PROBE_PRIMES)
    def test_a_passing_residue_is_not_a_hit(self, p):
        width = (p**64).bit_length()
        m0 = (exactarith._READ_BITS - 64) * 64 // width + 1  # the least m decoy() can give
        for m in (m0, m0 + 1, 2 * m0, 5000):
            n, v = decoy(p, m)
            assert probe_exponent(n, p) == m and exactarith._low_quotient(n, p) == (m, 1)
            assert vp_split(n, p) == vp_split_ladder(n, p), (p, m)
            assert vp_split(n, p)[0] == v


class TestSquarePart:
    """square_part tries prime trial divisors only: it must fold as trying every f does."""

    def test_near_the_fold_limit(self):
        limit = exactarith.FOLD_LIMIT
        assert limit == 4096
        near = [4093**2, 4096**2 * 3, 4097**2, 4099**2 * 5, 4099**2, 4093**2 * 4099**2,
                4093 * 4099, 4097**2 * 4099**2, 4098**2, 4095**2 * 7, 4099**3, 4099**4]
        for n in near + [c * n for n in near for c in (2, 3, 4, 9, 4093, 4099**2)]:
            assert square_part(n) == square_part_every_f(n), n
        assert square_part(4099**2 * 5) == (1, 4099**2 * 5)  # past the limit, not a square
        assert square_part(4097**2 * 4099**2) == (4097 * 4099, 1)

    def test_small_and_random_radicands(self):
        rng = random.Random(20261020)
        cases = list(range(-3, 5000))
        cases += [p * p + 16 for p in (3, 5, 7, 11, 101, 65537, 10**9 + 7, 10**20 + 39)]
        for _ in range(300):  # a product of random prime powers, squares among them
            n = 1
            for _ in range(rng.randint(1, 6)):
                n *= rng.choice((2, 3, 5, 7, 11, 4091, 4093, 4099, 4111)) ** rng.randint(1, 4)
            cases.append(n * rng.randint(1, 10**6))
        cases += [rng.getrandbits(rng.randint(1, 200)) for _ in range(300)]
        for n in cases:
            assert square_part(n) == square_part_every_f(n), n


class TestModInverse:
    def test_fixtures_against_brute_force(self):
        for a, m in [(1, 27), (2, 27), (4, 125)]:
            assert mod_inverse(a, m) == brute_inverse(a, m)
        assert mod_inverse(2, 27) == 14
        assert mod_inverse(4, 125) == 94

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(500):
            m = rng.randint(2, 10_000)
            a = rng.randint(1, m - 1)
            if math.gcd(a, m) != 1:
                continue
            t = mod_inverse(a, m)
            assert 1 <= t <= m - 1
            assert (a * t) % m == 1

    def test_not_invertible(self):
        with pytest.raises(ValueError, match="not invertible"):
            mod_inverse(6, 27)
        with pytest.raises(ValueError, match="modulus"):
            mod_inverse(1, 1)


class TestSymmetricResidue:
    def test_fixtures(self):
        assert symmetric_residue(4, 25) == 4
        assert symmetric_residue(25, 27) == -2
        assert symmetric_residue(17, 25) == -8

    def test_matches_brute_force(self):
        rng = random.Random(11)
        for _ in range(500):
            m = rng.randrange(3, 301, 2)
            x = rng.randint(-10_000, 10_000)
            s = symmetric_residue(x, m)
            assert s == brute_symmetric(x, m)
            assert (x - s) % m == 0
            assert abs(s) <= (m - 1) // 2

    def test_even_modulus_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            symmetric_residue(3, 10)


class TestQuadraticElement:
    def test_square_radicand_normalizes(self):
        assert QuadraticElement(0, 1, 25) == QuadraticElement(5)
        assert QuadraticElement(0, 1, 25).y == 0
        assert QuadraticElement(0, 1, 12) == QuadraticElement(0, 2, 3)
        assert QuadraticElement(Fraction(1, 2), 0, 41).d == 1

    def test_folding_is_bounded(self):
        # 4099 is a prime above FOLD_LIMIT: its square folds only as the whole cofactor
        q = 4099
        assert QuadraticElement(0, 1, 4 * q * q) == QuadraticElement(2 * q)
        assert QuadraticElement(0, 1, 12 * q * q) == QuadraticElement(0, 2, 3 * q * q)
        unfolded = QuadraticElement(1, 1, 2 * q * q)
        assert unfolded.d == 2 * q * q and unfolded.sign() == 1
        assert (unfolded - 1) * (unfolded - 1) == 2 * q * q

    def test_mixed_radicands_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            QuadraticElement(0, 1, 2) + QuadraticElement(0, 1, 3)

    def test_rational_mixes_with_anything(self):
        e = QuadraticElement(1, 2, 5) + QuadraticElement(3)
        assert e == QuadraticElement(4, 2, 5)
        assert QuadraticElement(1, 1, 5) * 2 == QuadraticElement(2, 2, 5)

    def test_division_round_trip(self):
        rng = random.Random(13)
        for _ in range(200):
            d = rng.choice([2, 3, 5, 13, 41])
            a = QuadraticElement(rng.randint(-9, 9), rng.randint(-9, 9), d)
            b = QuadraticElement(rng.randint(-9, 9), rng.randint(-9, 9) or 1, d)
            assert (a / b) * b == a

    def test_defining_equation_of_sqrt(self):
        root = QuadraticElement(0, 1, 13)
        assert root * root == QuadraticElement(13)
        assert root**2 == QuadraticElement(13)


class TestQfPow:
    def test_zero_exponent_is_unit(self):
        assert QuadraticElement(7, -3, 5) ** 0 == QuadraticElement(1)

    def test_cube_fixture_integer_oracle(self):
        # (7 + sqrt(13))**3 expanded by hand in integers: 616 + 160*sqrt(13)
        x, y = 7, 1
        cube_x = x**3 + 3 * x * y**2 * 13
        cube_y = 3 * x**2 * y + y**3 * 13
        assert (cube_x, cube_y) == (616, 160)
        e = QuadraticElement(Fraction(-7, 6), Fraction(-1, 6), 13)
        expected = QuadraticElement(Fraction(-616, 216), Fraction(-160, 216), 13)
        assert e**3 == expected
        assert expected == QuadraticElement(Fraction(-77, 27), Fraction(-20, 27), 13)

    def test_exponent_additivity(self):
        rng = random.Random(17)
        for _ in range(200):
            e = QuadraticElement(
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                rng.choice([2, 3, 7, 41]),
            )
            i, j = rng.randint(0, 6), rng.randint(0, 6)
            assert e ** (i + j) == e**i * e**j

    def test_negative_power_of_unit(self):
        e = QuadraticElement(3, 1, 2)  # norm 9 - 2 = 7
        assert e**-1 * e == QuadraticElement(1)


class TestQfSign:
    def test_fixtures(self):
        assert QuadraticElement(0, 0, 41).sign() == 0
        # (5 - sqrt(41))/20: 41 > 25 so the root dominates
        assert QuadraticElement(Fraction(1, 4), Fraction(-1, 20), 41).sign() == -1
        assert QuadraticElement(Fraction(1, 4), Fraction(1, 20), 41).sign() == 1

    def test_agrees_with_float_evaluation(self):
        rng = random.Random(19)
        for _ in range(1000):
            e = QuadraticElement(
                Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
                Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
                rng.choice([2, 3, 5, 6, 7, 13, 41, 65]),
            )
            approx = float(e)
            if abs(approx) > 1e-9:  # floats only trusted away from zero
                assert e.sign() == (1 if approx > 0 else -1)
            else:
                assert e.sign() == 0 or abs(approx) <= 1e-9


def test_is_odd_prime():
    assert [n for n in range(2, 30) if is_odd_prime(n)] == [3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_odd_prime_matches_trial_division():
    # the table up to FOLD_LIMIT and Miller-Rabin above it
    def trial(n):
        return n > 2 and n % 2 == 1 and all(n % f for f in range(3, math.isqrt(n) + 1, 2))

    assert [n for n in range(-3, 200_000) if is_odd_prime(n) != trial(n)] == []


def test_one_prime_table_serves_the_test_and_the_fold():
    # one sieve up to FOLD_LIMIT: is_odd_prime reads it there (2 and negatives are False) and
    # runs Miller-Rabin above it, and square_part folds the squares of the same primes
    def trial(n):
        return n > 2 and n % 2 == 1 and all(n % f for f in range(3, math.isqrt(n) + 1, 2))

    assert [n for n in range(-10, 20_001) if is_odd_prime(n) != trial(n)] == []
    limit = exactarith.FOLD_LIMIT
    assert [f for f, _ in exactarith._FOLD_SQUARES] == [2] + [n for n in range(limit + 1) if is_odd_prime(n)]
    assert [n for n in range(-10, 20_001) if square_part(n) != square_part_every_f(n)] == []


@pytest.mark.parametrize(
    "n",
    [
        561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,  # Carmichael
        2047, 3277, 4033, 3215031751,  # strong pseudoprimes to base 2 (the last to 2, 3, 5, 7)
        1373653, 25326001,  # to the first 2 and 3 primes
        2152302898747, 3474749660383, 341550071728321,  # to the first 5, 6, 7 primes
        3825123056546413051, 318665857834031151167461,  # to the first 9 and 12 primes
        (10**9 + 7) * (10**9 + 9), (2**31 - 1) ** 2, 3**49,
    ],
)
def test_is_odd_prime_rejects_pseudoprimes(n):
    assert not is_odd_prime(n)


@pytest.mark.parametrize(
    "p", [1_000_003, 10**9 + 7, 2**31 - 1, 2**61 - 1, 10**18 + 9, 10**20 + 39, 10**24 + 7]
)
def test_is_odd_prime_accepts_large_primes(p):
    assert is_odd_prime(p)


# psi_k, the least strong pseudoprime to the first k prime bases (OEIS A014233); is_odd_prime
# runs all 13 bases, and psi_13 is its PRIME_LIMIT
PSEUDOPRIME_BOUNDS = (
    2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747, 3_474_749_660_383,
    341_550_071_728_321, 341_550_071_728_321, 3_825_123_056_546_413_051,
    3_825_123_056_546_413_051, 3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)


def test_pseudoprime_bounds():
    # psi_k is composite and passes the first k bases, so is_odd_prime must try more of them on it
    def strong_probable_prime(n, a):
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        x = pow(a, d, n)
        return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, s))

    bases, bounds = exactarith._BASES, PSEUDOPRIME_BOUNDS
    assert len(bounds) == len(bases) and bounds[-1] == PRIME_LIMIT
    assert list(bounds) == sorted(bounds) and bounds[0] == 2047 == 23 * 89
    for k, psi in enumerate(bounds[:-1], 1):
        assert all(strong_probable_prime(psi, a) for a in bases[:k])
        assert not all(strong_probable_prime(psi, a) for a in bases)  # composite
        assert not is_odd_prime(psi)
        # the odd numbers just below psi_k are decided by the first k bases
        below = [n for n in range(psi - 200, psi, 2)]
        assert [n for n in below if is_odd_prime(n)] == [
            n for n in below if all(strong_probable_prime(n, a) for a in bases)]


def test_prime_limit():
    # bases 2..41 are proven below the limit; the limit itself is a strong
    # pseudoprime to all of them, so it and every odd p above are refused
    assert PRIME_LIMIT == 3_317_044_064_679_887_385_961_981
    assert not is_odd_prime(318_665_857_834_031_151_167_461)  # below, composite
    assert not is_odd_prime(PRIME_LIMIT + 1)  # even: no test needed
    for p in (PRIME_LIMIT, PRIME_LIMIT + 2, 2**89 - 1):
        with pytest.raises(ValueError, match=f"p must be below {PRIME_LIMIT}"):
            is_odd_prime(p)
