import math
import random
from fractions import Fraction

import pytest

from wolsten import binomial
from wolsten.binomial import (
    binom,
    binom_mod,
    binom_shifted,
    binom_valuation,
    kummer_valuation_check,
    legendre_valuation,
    ratio,
    rising_binom,
)
from wolsten.errors import (
    BudgetExceededError,
    PreconditionError,
    WolstenError,
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
        # p = 2 flips the Wilson sign for k >= 3
        for k in (1, 2, 3, 4, 6):
            m = PrimePower(2, k)
            for a in range(0, 70):
                for b in range(0, a + 1):
                    assert binom_mod(a, b, m) == math.comb(a, b) % m.modulus

    def test_huge_modulus_prefix_route(self):
        # q far above the table cap but above the argument: no-wrap route
        m = PrimePower(31, 7)
        a, b = 20000, 8551
        assert binom_mod(a, b, m) == math.comb(a, b) % m.modulus

    def test_moduli_either_side_of_the_table_cap(self):
        # 19^5 lies just under the table cap, 23^5 just over it.
        rng = random.Random(55)
        for p in (19, 23):
            m = PrimePower(p, 5)
            q = m.modulus
            cases = [(N * p**3 + n, R * p**3 + r) for N, R, n, r in
                     ((6, 1, 12, 3), (6, 6, 0, 12), (3, 0, 5, 5), (1, 1, 12, 12))]
            cases += [(a, rng.randrange(0, a + 1))
                      for a in (rng.randrange(0, 40000) for _ in range(40))]
            if q < binomial._TABLE_CAP:  # else q - 1 exceeds the prefix table
                cases += [(q - 1, b) for b in (0, 1, 2, 17, q - 1, q - 40)]
            for a, b in cases:
                assert binom_mod(a, b, m) == math.comb(a, b) % q, (p, a, b)
        # Arguments past the modulus wrap: the full table under the cap ...
        m = PrimePower(19, 5)
        q = m.modulus
        for a, b in ((q, 1), (q + 3, 2), (q + 1000, 19), (q + 1000, q + 990), (2 * q + 5, 3)):
            assert binom_mod(a, b, m) == math.comb(a, b) % q, (a, b)
        # ... and no route over it.
        with pytest.raises(BudgetExceededError):
            binom_mod(23**5 + 1, 1, PrimePower(23, 5))

    def test_no_wrap_table_stays_argument_sized(self, monkeypatch):
        monkeypatch.setattr(binomial, "_tables", {})
        a = 6 * 13**3 + 12  # the largest bailey5 argument at p = 13, below 13^5
        for b in (1, 13**3, a // 2):
            binom_mod(a, b, PrimePower(13, 5))
        assert len(binomial._tables[(13, 13**5)]) <= a + 1


class TestBinomShifted:
    def test_matches_comb_on_dense_grids(self):
        for a in range(0, 30):
            for b in range(0, a + 1):
                for n in range(0, 7):
                    for r in range(0, 7):
                        assert binom_shifted(a, b, n, r) == math.comb(a + n, b + r), (a, b, n, r)

    def test_matches_comb_on_thm2_grids(self):
        # N = 0, R = 0, R = N and n < r (zero binomials) are all included.
        for p in (5, 7, 11):
            p3 = p**3
            for N in range(0, 4):
                for R in range(0, N + 1):
                    for n in range(0, p):
                        for r in range(0, p):
                            got = binom_shifted(N * p3, R * p3, n, r)
                            assert got == math.comb(N * p3 + n, R * p3 + r), (p, N, R, n, r)

    def test_rejects_bad_arguments(self):
        for args in ((3, 4, 0, 0), (3, -1, 0, 0), (3, 1, -1, 0), (3, 1, 0, -1)):
            with pytest.raises(PreconditionError):
                binom_shifted(*args)

    def test_inexact_division_raises(self, monkeypatch):
        # A wrong base binomial must not pass silently: 121 * 6 * 7 / (4 * 5)
        # is not an integer.
        monkeypatch.setattr(binomial, "_comb_cached", lambda n, r: math.comb(n, r) + 1)
        with pytest.raises(WolstenError, match="inexact"):
            binom_shifted(10, 3, 0, 2)
