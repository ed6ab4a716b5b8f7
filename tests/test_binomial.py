import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import prefix_table_reference
import pytest
from prefix_table_reference import binom_mod_table

from wolsten import binomial
from wolsten.binomial import (
    binom,
    binom_mod,
    binom_valuation,
    kummer_valuation_check,
    legendre_valuation,
    ratio,
    rising_binom,
)
from wolsten.errors import (
    BudgetExceededError,
    PreconditionError,
    ZeroDenominatorError,
)
from wolsten.padic import PrimePower, primes_in_range, valuation


class TestBinom:
    def test_small(self):
        assert binom(4, 1) == 4
        assert binom(20, 5) == 15504

    def test_zero_convention(self):
        assert binom(5, 7) == 0
        assert binom(5, -1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(PreconditionError):
            binom(-1, 0)

    def test_pascal(self):
        for n in range(1, 61):
            for r in range(1, n + 1):
                assert binom(n, r) == binom(n - 1, r - 1) + binom(n - 1, r)


class TestRisingBinom:
    def test_r_zero(self):
        for n in (-5, 0, 3, 100):
            assert rising_binom(n, 0) == 1

    def test_small(self):
        assert rising_binom(3, 2) == 6  # 3*4/2!

    def test_matches_shifted_binomial(self):
        for n in range(1, 21):
            for r in range(0, 21):
                assert rising_binom(n, r) == binom(n + r - 1, r)

    def test_negative_arguments(self):
        assert rising_binom(-2, 3) == 0  # hits zero in the product
        assert rising_binom(-5, 2) == 10  # (-5)(-4)/2
        assert rising_binom(-5, 5) == -1  # (-5)(-4)(-3)(-2)(-1)/5!

    def test_always_integral(self):
        for n in range(-12, 13):
            for r in range(0, 9):
                assert rising_binom(n, r).denominator == 1


class TestValuations:
    def test_kummer_examples(self):
        assert kummer_valuation_check(7, 2, 1)  # v_7(3432) == v_7(2) == 0
        assert kummer_valuation_check(11, 4, 0)
        assert kummer_valuation_check(7, 8, 1)

    def test_kummer_grid(self):
        for p in primes_in_range(2, 31):
            for n in range(0, 25):
                for r in range(0, n + 1):
                    assert kummer_valuation_check(p, n, r)

    def test_legendre_matches_exact_factorial(self):
        for p in primes_in_range(2, 31):
            for n in range(1, 201):
                assert legendre_valuation(n, p) == valuation(math.factorial(n), p)
        assert legendre_valuation(0, 5) == 0

    def test_binom_valuation_matches_exact(self):
        for p in (3, 7):
            for n in range(0, 40):
                for r in range(0, n + 1):
                    assert binom_valuation(n, r, p) == valuation(binom(n, r), p)


class TestRatio:
    def test_plain(self):
        assert ratio(binom(14, 7), binom(2, 1)) == 1716

    def test_remark_ratio(self):
        value = ratio(binom(20, 5), binom(4, 1))
        assert value == 3876
        assert 3876 % 5**5 == 751

    def test_overline_ratio(self):
        assert ratio(rising_binom(3, 3), rising_binom(1, 1)) == 10

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominatorError, match=r"ratio 4/0"):
            ratio(binom(4, 1), binom(2, 5))

    def test_fraction_result(self):
        value = ratio(1, binom(4, 2))
        assert isinstance(value, Fraction) and value == Fraction(1, 6)


class TestBinomMod:
    def test_dense_grid_matches_exact(self):
        for p, k in ((2, 3), (3, 2), (5, 1), (7, 3), (11, 2)):
            m = PrimePower(p, k)
            q = m.modulus
            for a in range(0, 120):
                for b in range(0, a + 1):
                    assert binom_mod(a, b, m) == math.comb(a, b) % q, (p, k, a, b)

    def test_out_of_range_is_zero(self):
        m = PrimePower(7, 3)
        assert binom_mod(5, 7, m) == 0
        assert binom_mod(5, -1, m) == 0

    def test_random_large(self):
        rng = random.Random(321)
        for p, k in ((3, 5), (7, 5), (13, 3), (31, 3)):
            m = PrimePower(p, k)
            q = m.modulus
            for _ in range(40):
                a = rng.randrange(0, 30000)
                b = rng.randrange(0, a + 1)
                assert binom_mod(a, b, m) == math.comb(a, b) % q, (p, k, a, b)

    def test_wilson_sign_powers_of_two(self):
        # p = 2 flipped the table route's Wilson sign for k >= 3; its block
        # is the single factor z + 1.
        for k in (1, 2, 3, 4, 6):
            m = PrimePower(2, k)
            for a in range(0, 70):
                for b in range(0, a + 1):
                    assert binom_mod(a, b, m) == math.comb(a, b) % m.modulus

    def test_huge_modulus_prefix_route(self):
        # q = 31^7 far above the argument: no level reaches a full block of q.
        m = PrimePower(31, 7)
        a, b = 20000, 8551
        assert binom_mod(a, b, m) == math.comb(a, b) % m.modulus

    def test_moduli_either_side_of_the_table_cap(self):
        # 19^5 lies just under the old prefix table's 2^22 cap and 23^5
        # just over it, where that route raised; arguments past q wrap.
        rng = random.Random(55)
        for p in (19, 23):
            m = PrimePower(p, 5)
            q = m.modulus
            cases = [(N * p**3 + n, R * p**3 + r) for N, R, n, r in
                     ((6, 1, 12, 3), (6, 6, 0, 12), (3, 0, 5, 5), (1, 1, 12, 12))]
            cases += [(a, rng.randrange(0, a + 1))
                      for a in (rng.randrange(0, 40000) for _ in range(40))]
            cases += [(q - 1, b) for b in (0, 1, 2, 17, q - 1, q - 40)]
            cases += [(q, 1), (q + 3, 2), (q + 1000, 19), (q + 1000, q + 990), (2 * q + 5, 3)]
            for a, b in cases:
                assert binom_mod(a, b, m) == math.comb(a, b) % q, (p, a, b)

    def test_memory_does_not_grow_with_the_argument(self):
        # The prefix table held 8 bytes per unit up to the argument, 27 MB
        # here; the block product holds polynomials of k coefficients.
        for cached in (binomial._block, binomial._wilson, binomial._p_free_factorial):
            cached.cache_clear()
        a = 6 * 83**3 + 12  # the largest bailey5 argument at p = 83, N = 6
        tracemalloc.start()
        try:
            for b in (2, 83**3, a // 2):
                binom_mod(a, b, PrimePower(83, 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024  # 43 KB on CPython 3.11

    def test_p_bound(self):
        m = PrimePower(2097169, 1)  # the first prime past 2^21
        with pytest.raises(BudgetExceededError, match=r"^p=2097169: the modular binomials need p < 2097152$"):
            binom_mod(5, 2, m)
        assert binom_mod(5, 2, PrimePower(2097143, 1)) == 10  # the last prime below


class TestBinomModOracles:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_against_math_comb(self, p):
        # Small arguments with any b, and arguments up to (p + 1) q whose
        # b or a - b stays small enough to expand.
        rng = random.Random(p)
        for k in range(1, 10):
            m = PrimePower(p, k)
            q = m.modulus
            cases = [(a, rng.randrange(a + 1)) for a in (rng.randrange(3000) for _ in range(12))]
            for j in (1, 2, p + 1):
                a = j * q + rng.randrange(q)
                cases += [(a, 2), (a, rng.randrange(40)), (a, max(a - rng.randrange(40), 0))]
            for a, b in cases:
                assert binom_mod(a, b, m) == math.comb(a, b) % q, (p, k, a, b)

    @pytest.mark.parametrize("p", [37, 61, 83])
    def test_against_the_prefix_table(self, p):
        # Grid arguments N p^3 + n as the Np^3 claims take them, and random
        # ones, below the table's old cap; mod p^2 they wrap past q.
        rng = random.Random(p)
        p3 = p**3
        cases = [(N * p3 + n, R * p3 + r)
                 for N, R, n, r in itertools.product(range(4), range(4), (0, 1, p // 2, p - 1),
                                                     (0, 2, p - 1))
                 if R * p3 + r <= N * p3 + n]
        cases += [(a, rng.randrange(a + 1)) for a in (rng.randrange(3 * p3) for _ in range(100))]
        try:
            for k in (2, 5):
                for a, b in cases:
                    assert binom_mod(a, b, PrimePower(p, k)) == binom_mod_table(a, b, p, k), (k, a, b)
        finally:
            prefix_table_reference._tables.clear()

    def test_huge_arguments_satisfy_pascal_and_lucas(self):
        # Past any table: Pascal's rule mod p^k, and Lucas' theorem mod p.
        rng = random.Random(9)
        for p, k in ((2, 9), (7, 5), (83, 5), (10007, 3)):
            m = PrimePower(p, k)
            for _ in range(30):
                a = rng.randrange(10**30)
                b = rng.randrange(1, a)
                pascal = binom_mod(a - 1, b, m) + binom_mod(a - 1, b - 1, m)
                assert binom_mod(a, b, m) == pascal % m.modulus, (p, k, a, b)
                lucas, x, y = 1, a, b
                while x:
                    lucas = lucas * math.comb(x % p, y % p) % p
                    x, y = x // p, y // p
                assert binom_mod(a, b, PrimePower(p, 1)) == lucas, (p, a, b)
