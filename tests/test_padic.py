import random
from fractions import Fraction

import pytest

from wolsten.errors import (
    MixedModulusError,
    NonIntegralError,
    NotInvertibleError,
    PreconditionError,
)
from wolsten.padic import (
    INFINITE,
    PrimePower,
    Residue,
    batch_inverse,
    format_rational,
    inverse_mod,
    is_prime,
    padic_congruent,
    parse_rational,
    primes_in_range,
    reduce_mod,
    valuation,
)


class TestPrimality:
    def test_small_primes(self):
        assert [p for p in range(2, 40) if is_prime(p)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
        ]

    def test_carmichael_and_strong_pseudoprimes(self):
        for n in (561, 1105, 25326001, 3215031751):
            assert not is_prime(n)

    def test_four_bases_agree_with_the_sieve_below_their_bound(self):
        # Below 3215031751 is_prime uses the witnesses 2, 3, 5 and 7 only.
        lo, hi = 3215031751 - 3000, 3215031751 + 1000
        assert primes_in_range(lo, hi) == [n for n in range(lo, hi + 1) if is_prime(n)]
        assert primes_in_range(2, 100000) == [n for n in range(2, 100001) if is_prime(n)]

    def test_large_primes(self):
        assert is_prime(16843)
        assert is_prime(2124679)
        assert not is_prime(16843 * 2124679)

    def test_primes_in_range(self):
        assert primes_in_range(5, 30) == [5, 7, 11, 13, 17, 19, 23, 29]
        assert primes_in_range(20, 22) == []
        assert len(primes_in_range(2, 20000)) == 2262

    def test_window_near_1e8_matches_is_prime(self):
        lo, hi = 99_999_900, 100_000_100
        assert primes_in_range(lo, hi) == [n for n in range(lo, hi + 1) if is_prime(n)]

    def test_random_windows_match_the_full_range(self):
        full = [n for n in range(0, 5000) if is_prime(n)]
        assert primes_in_range(0, 4999) == full
        rng = random.Random(8)
        for _ in range(300):
            lo = rng.randrange(-5, 4900)
            hi = lo + rng.randrange(-2, 100)
            assert primes_in_range(lo, hi) == [p for p in full if lo <= p <= hi], (lo, hi)


class TestPrimePower:
    def test_modulus(self):
        assert PrimePower(7, 5).modulus == 16807
        assert str(PrimePower(5, 3)) == "5^3"

    def test_rejects_composite(self):
        with pytest.raises(PreconditionError):
            PrimePower(6, 2)

    def test_rejects_zero_exponent(self):
        with pytest.raises(PreconditionError):
            PrimePower(7, 0)

    def test_parse(self):
        assert PrimePower.parse("5^3") == PrimePower(5, 3)
        assert PrimePower.parse("13") == PrimePower(13, 1)
        with pytest.raises(PreconditionError):
            PrimePower.parse("5^3^2")

    def test_no_overflow_at_scan_scale(self):
        big = PrimePower(9999991, 5)  # prime just below 10^7
        assert big.modulus == 9999991**5


class TestResidue:
    def test_normalizes(self):
        m = PrimePower(7, 2)
        assert Residue(50, m).value == 1
        assert Residue(-1, m).value == 48

    def test_arithmetic(self):
        m = PrimePower(5, 3)
        a, b = Residue(100, m), Residue(30, m)
        assert (a + b).value == 5
        assert (a - b).value == 70
        assert (a * b).value == 3000 % 125
        assert (-b).value == 95
        assert (Residue(2, m) ** 7).value == 128 % 125

    def test_mixed_modulus_is_error(self):
        a = Residue(1, PrimePower(5, 3))
        b = Residue(1, PrimePower(5, 2))
        c = Residue(1, PrimePower(7, 3))
        for other in (b, c):
            with pytest.raises(MixedModulusError):
                a + other
            with pytest.raises(MixedModulusError):
                a * other

    def test_serializes_as_decimal_string(self):
        assert str(Residue(1323, PrimePower(7, 4))) == "1323"


class TestValuation:
    def test_paper_value(self):
        # H(1;4) = 25/12 is divisible by 5^2 and no higher power
        assert valuation(Fraction(25, 12), 5) == 2

    def test_unit(self):
        assert valuation(1, 7) == 0

    def test_derived(self):
        assert valuation(Fraction(49, 90), 7) == 2

    def test_negative_valuation(self):
        assert valuation(Fraction(3, 49), 7) == -2

    def test_zero_is_infinite(self):
        assert valuation(0, 5) == INFINITE
        assert valuation(Fraction(0), 5) == INFINITE
        assert INFINITE > 10**9

    def test_multiplicative(self):
        rng = random.Random(421)
        for _ in range(200):
            x = Fraction(rng.randint(-500, 500) or 1, rng.randint(1, 500))
            y = Fraction(rng.randint(-500, 500) or 1, rng.randint(1, 500))
            for p in (2, 3, 7):
                assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)


class TestReduceMod:
    def test_paper_wolstenholme_instance(self):
        assert reduce_mod(Fraction(25, 12), PrimePower(5, 2)).value == 0

    def test_zero(self):
        assert reduce_mod(Fraction(0), PrimePower(7, 5)).value == 0

    def test_derived_inverse(self):
        # 20 * 27 = 540 = 11*49 + 1
        assert reduce_mod(Fraction(1, 20), PrimePower(7, 2)).value == 27

    def test_non_integral(self):
        with pytest.raises(NonIntegralError):
            reduce_mod(Fraction(1, 5), PrimePower(5, 2))

    def test_ring_homomorphism_on_random_inputs(self):
        rng = random.Random(99)
        m = PrimePower(7, 3)
        for _ in range(150):
            x = Fraction(rng.randint(-300, 300), rng.choice([1, 2, 3, 5, 9, 11]))
            y = Fraction(rng.randint(-300, 300), rng.choice([1, 4, 6, 13, 15]))
            assert reduce_mod(x + y, m) == reduce_mod(x, m) + reduce_mod(y, m)
            assert reduce_mod(x * y, m) == reduce_mod(x, m) * reduce_mod(y, m)


class TestInverse:
    def test_one(self):
        m = PrimePower(7, 5)
        assert inverse_mod(Residue(1, m)).value == 1

    def test_extended_gcd_oracle(self):
        assert inverse_mod(Residue(20, PrimePower(7, 2))).value == 27

    def test_reduction_first(self):
        assert inverse_mod(Residue(15, PrimePower(7, 1))).value == 1

    def test_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            inverse_mod(Residue(14, PrimePower(7, 3)))

    def test_inverse_property(self):
        rng = random.Random(7)
        for p, k in ((5, 3), (7, 2), (9999991, 2)):
            m = PrimePower(p, k)
            for _ in range(25):
                v = rng.randrange(1, m.modulus)
                if v % p == 0:
                    v += 1
                a = Residue(v, m)
                assert (a * inverse_mod(a)).value == 1


class TestBatchInverse:
    def test_small(self):
        m = PrimePower(7, 1)
        vals = [Residue(v, m) for v in (1, 2, 3)]
        assert [r.value for r in batch_inverse(vals)] == [1, 4, 5]

    def test_singleton(self):
        m = PrimePower(11, 4)
        assert [r.value for r in batch_inverse([Residue(1, m)])] == [1]

    def test_matches_pointwise(self):
        m = PrimePower(5, 3)
        vals = [Residue(k, m) for k in range(1, 5)]
        assert batch_inverse(vals) == [inverse_mod(v) for v in vals]

    def test_matches_pointwise_large_random(self):
        rng = random.Random(2024)
        m = PrimePower(10007, 2)
        vals = []
        while len(vals) < 10**4:
            v = rng.randrange(1, m.modulus)
            if v % 10007:
                vals.append(Residue(v, m))
        assert batch_inverse(vals) == [inverse_mod(v) for v in vals]

    def test_error_names_offending_index(self):
        m = PrimePower(5, 3)
        vals = [Residue(3, m), Residue(10, m), Residue(4, m)]
        with pytest.raises(NotInvertibleError, match="index 1"):
            batch_inverse(vals)

    def test_mixed_modulus(self):
        with pytest.raises(MixedModulusError):
            batch_inverse([Residue(1, PrimePower(5, 3)), Residue(1, PrimePower(5, 2))])

    def test_empty(self):
        assert batch_inverse([]) == []


class TestPadicCongruent:
    def test_paper_proof_value(self):
        assert padic_congruent(Fraction(45, 16), 0, 5, 1) == (True, 1)

    def test_reflexive(self):
        for x in (Fraction(3, 7), Fraction(0), Fraction(-22, 9)):
            ok, v = padic_congruent(x, x, 11, 4)
            assert ok and v == INFINITE

    def test_exact_valuation_witness(self):
        ok, v = padic_congruent(Fraction(7, 10), Fraction(7, 45), 7, 2)
        assert ok and v == 2

    def test_agrees_with_residue_equality(self):
        rng = random.Random(5)
        m = 2
        for _ in range(200):
            a = Fraction(rng.randint(-200, 200), rng.choice([1, 2, 3, 4, 6, 9]))
            b = Fraction(rng.randint(-200, 200), rng.choice([1, 2, 3, 4, 6, 9]))
            mod = PrimePower(5, m)
            ok, _ = padic_congruent(a, b, 5, m)
            assert ok == (reduce_mod(a, mod) == reduce_mod(b, mod))

    def test_precision_must_be_positive(self):
        with pytest.raises(PreconditionError):
            padic_congruent(1, 2, 5, 0)


class TestSerialization:
    def test_rational_round_trip(self):
        assert format_rational(Fraction(25, 12)) == "25/12"
        assert format_rational(Fraction(-3)) == "-3/1"
        assert parse_rational("25/12") == Fraction(25, 12)
        assert parse_rational("7") == Fraction(7)

    def test_always_lowest_terms(self):
        assert format_rational(Fraction(50, 24)) == "25/12"
