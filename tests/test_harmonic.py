import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from fraction_reference import compositions, mhs_prefixes

from wolsten import harmonic
from wolsten.errors import PreconditionError
from wolsten.harmonic import (
    Composition,
    composition_sum,
    composition_sum_bruteforce,
    composition_sum_exact,
    fn_polynomial_coeffs,
    fp_polynomial_coeffs,
    genwols_check,
    h12_checks,
    mhs_exact,
    mhs_mod,
    shuffle_check,
    stirling1,
    stirling_mhs_check,
)
from wolsten.padic import PrimePower, primes_in_range, reduce_mod


class TestComposition:
    def test_parse(self):
        assert Composition.parse("1,2").parts == (1, 2)
        assert Composition.parse("1^3").parts == (1, 1, 1)
        assert Composition.parse("2,1^2").parts == (2, 1, 1)

    def test_depth_weight(self):
        c = Composition.of(3, 1, 4)
        assert c.depth == 3 and c.weight == 8

    def test_repeat(self):
        assert Composition.repeat(2, 3).parts == (2, 2, 2)

    def test_rejects_bad_parts(self):
        with pytest.raises(PreconditionError):
            Composition.of()
        with pytest.raises(PreconditionError):
            Composition.of(1, 0)


class TestMhsExact:
    def test_harmonic_number(self):
        assert mhs_exact(Composition.of(1), 4) == Fraction(25, 12)

    def test_depth_two(self):
        assert mhs_exact(Composition.of(1, 2), 4) == Fraction(17, 32)

    def test_empty_sum(self):
        assert mhs_exact(Composition.of(2), 0) == 0
        assert mhs_exact(Composition.of(1, 1, 1), 2) == 0

    def test_brute_force_cross_check(self):
        # depth-2 sums by direct double loop
        for (s1, s2), n in (((1, 2), 6), ((2, 3), 8), ((1, 1), 5)):
            brute = sum(
                Fraction(1, k1**s1 * k2**s2)
                for k2 in range(1, n + 1)
                for k1 in range(1, k2)
            )
            assert mhs_exact(Composition.of(s1, s2), n) == brute

    def test_index_order_matters(self):
        assert mhs_exact(Composition.of(1, 2), 4) != mhs_exact(Composition.of(2, 1), 4)


class TestMhsExactIntegerRoute:
    # The integer route and its per-process cache of (m, lcm(1..m), N)
    # against the Fraction recurrence it replaced.
    COMPS = [c for w in range(1, 6) for c in compositions(w)]

    @pytest.fixture
    def cache(self, monkeypatch):
        fresh = {}
        monkeypatch.setattr(harmonic, "_mhs_cache", fresh)
        return fresh

    def test_matches_reference_in_shuffled_order(self, cache):
        # 31 compositions of weight <= 5, n in 0..80 shuffled: calls extend
        # the cached state, fall below it, and cycle past the 16-entry bound.
        assert len(self.COMPS) == 31
        want = {c: mhs_prefixes(c, 80) for c in self.COMPS}
        ns = random.Random(7).sample(range(81), 81)
        for c in self.COMPS:
            for n in ns:
                assert mhs_exact(Composition(c), n) == want[c][n], (c, n)
                assert len(cache) <= 16
        for n in ns:
            for c in self.COMPS:
                assert mhs_exact(Composition(c), n) == want[c][n], (c, n)
                assert len(cache) <= 16
        assert len(cache) == 16 and list(cache)[-1] == self.COMPS[-1]

    def test_call_below_cached_m_keeps_the_state(self, cache):
        c = Composition.of(2, 1)
        mhs_exact(c, 60)
        state = cache[c.parts]
        assert mhs_exact(c, 10) == mhs_prefixes(c.parts, 10)[10]
        assert cache[c.parts] is state and state[0] == 60

    def test_threads_on_one_composition(self, cache):
        c = Composition.of(2, 1)
        want = mhs_prefixes(c.parts, 120)
        orders = [random.Random(seed).sample(range(121), 121) for seed in range(4)]
        wrong = []

        def work(order):
            try:
                wrong.extend(n for n in order if mhs_exact(c, n) != want[n])
            except Exception as exc:  # reported through the assertion below
                wrong.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(o,)) for o in orders]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


class TestMhsMod:
    def test_wolstenholme_instance(self):
        assert mhs_mod(Composition.of(1), 4, PrimePower(5, 2)).value == 0

    def test_empty(self):
        assert mhs_mod(Composition.of(1), 0, PrimePower(7, 5)).value == 0

    def test_higher_precision(self):
        assert mhs_mod(Composition.of(1), 6, PrimePower(7, 2)).value == 0
        assert mhs_mod(Composition.of(1), 6, PrimePower(7, 4)).value == 1323

    def test_requires_n_below_p(self):
        with pytest.raises(PreconditionError):
            mhs_mod(Composition.of(1), 7, PrimePower(7, 2))

    def test_matches_exact_reduction(self):
        # weight <= 6, n <= 30, moduli 5^3, 7^3, 11^2
        comps = [
            Composition.of(1),
            Composition.of(2),
            Composition.of(3),
            Composition.of(1, 1),
            Composition.of(1, 2),
            Composition.of(2, 1),
            Composition.of(2, 3),
            Composition.of(1, 1, 1),
            Composition.of(2, 2, 2),
            Composition.of(1, 2, 3),
            Composition.of(1, 1, 1, 1),
        ]
        for m in (PrimePower(5, 3), PrimePower(7, 3), PrimePower(11, 2)):
            for c in comps:
                for n in range(0, min(30, m.p - 1) + 1):
                    assert mhs_mod(c, n, m) == reduce_mod(mhs_exact(c, n), m)


class TestShuffle:
    def test_examples(self):
        assert shuffle_check(1, 1, 4)
        assert shuffle_check(2, 3, 0)
        assert shuffle_check(1, 2, 6)

    def test_grid(self):
        for s in range(1, 5):
            for t in range(1, 5):
                for n in range(0, 31):
                    assert shuffle_check(s, t, n)


class TestGenwols:
    def test_odd_weight_mod_p2(self):
        rep = genwols_check(1, 1, 7)
        assert rep.ok and rep.diff_valuation >= 2

    def test_even_weight_mod_p(self):
        rep = genwols_check(2, 1, 7)
        assert rep.ok and rep.precision == 1

    def test_depth_three(self):
        rep = genwols_check(1, 3, 11)
        assert rep.ok and rep.diff_valuation >= 2

    def test_grid(self):
        for s in range(1, 9):
            for d in range(1, 9):
                if s * d > 8:
                    continue
                for p in primes_in_range(s * d + 3, 31):
                    assert genwols_check(s, d, p).ok

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            genwols_check(3, 2, 7)  # needs p >= 9


class TestStirling:
    def test_diagonal(self):
        for n in range(1, 21):
            assert stirling1(n, n) == 1

    def test_subdiagonal(self):
        assert stirling1(4, 3) == 6
        for n in range(2, 15):
            assert stirling1(n, n - 1) == n * (n - 1) // 2

    def test_first_column(self):
        assert stirling1(5, 1) == 24
        for n in range(1, 12):
            assert stirling1(n, 1) == math.factorial(n - 1)

    def test_mhs_identity_example(self):
        assert stirling1(5, 2) == 50
        assert stirling_mhs_check(5, 2)

    def test_mhs_identity_trivial(self):
        assert stirling_mhs_check(1, 1)

    def test_mhs_identity_grid(self):
        for n in range(1, 15):
            for j in range(1, n + 1):
                assert stirling_mhs_check(n, j)

    def test_domain(self):
        with pytest.raises(PreconditionError):
            stirling1(4, 0)
        with pytest.raises(PreconditionError):
            stirling1(4, 5)


class TestFactorialPolynomials:
    def test_falling_small(self):
        assert fp_polynomial_coeffs(2) == [0, -1, 1]
        assert fp_polynomial_coeffs(1) == [0, 1]

    def test_rising_small(self):
        # F_2(x) = (x+1)(x+2) = 2 + 3x + x^2 = 2!(1 + H(1;2)x + H(1,1;2)x^2)
        assert fn_polynomial_coeffs(2) == [2, 3, 1]
        assert mhs_exact(Composition.of(1), 2) == Fraction(3, 2)

    def test_rising_matches_harmonic_sums(self):
        for n in range(1, 9):
            coeffs = fn_polynomial_coeffs(n)
            fact = math.factorial(n)
            assert coeffs[0] == fact
            for j in range(1, n + 1):
                assert coeffs[j] == fact * mhs_exact(Composition.repeat(1, j), n)

    def test_falling_at_p_recovers_factorial(self):
        for p in primes_in_range(2, 31):
            coeffs = fp_polynomial_coeffs(p)
            value = sum(c * p**i for i, c in enumerate(coeffs))
            assert value == math.factorial(p)

    def test_variant_relation(self):
        # F_n(x) = (-1)^(n+1) f_{n+1}(-x) / x, checked on coefficients
        for n in range(1, 10):
            f = fp_polynomial_coeffs(n + 1)
            sign = (-1) ** (n + 1)
            shifted = [sign * (-1) ** (i + 1) * c for i, c in enumerate(f[1:])]
            assert fn_polynomial_coeffs(n) == shifted


class TestH12:
    def test_p7(self):
        a, b = h12_checks(7)
        assert a.ok and b.ok

    def test_exact_identity_even_at_composite_n(self):
        for n in (4, 6, 10, 12):
            lhs = 2 * mhs_exact(Composition.of(1, 1), n) + mhs_exact(Composition.of(2), n)
            assert lhs == mhs_exact(Composition.of(1), n) ** 2

    def test_chain_valuation_p11(self):
        _, b = h12_checks(11)
        assert b.ok and b.diff_valuation >= 4

    def test_grid(self):
        for p in primes_in_range(7, 31):
            a, b = h12_checks(p)
            assert a.ok and b.ok

    def test_requires_seven(self):
        with pytest.raises(PreconditionError):
            h12_checks(5)


class TestCompositionSums:
    def test_p3_unique_composition(self):
        assert composition_sum(3, 3, PrimePower(3, 1)).value == 1

    def test_paper_p5(self):
        assert composition_sum_exact(3, 5) == Fraction(7, 4)
        assert composition_sum(3, 5, PrimePower(5, 1)).value == 3

    def test_derived_p7(self):
        assert composition_sum_bruteforce(3, 7) == Fraction(29, 15)
        assert composition_sum(3, 7, PrimePower(7, 1)).value == 1

    def test_identity_route_equals_bruteforce(self):
        for n_parts in (2, 3, 4):
            for p in (5, 7, 11, 13):
                exact = composition_sum_exact(n_parts, p)
                brute = composition_sum_bruteforce(n_parts, p)
                assert exact == brute
                for k in (1, 2):
                    m = PrimePower(p, k)
                    assert composition_sum(n_parts, p, m) == reduce_mod(brute, m)

    def test_bruteforce_nonprime_total(self):
        # plain enumeration is defined for any total
        assert composition_sum_bruteforce(2, 4) == Fraction(1, 3) + Fraction(1, 4) + Fraction(1, 3)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            composition_sum(1, 5, PrimePower(5, 1))
        with pytest.raises(PreconditionError):
            composition_sum(7, 5, PrimePower(5, 1))
        with pytest.raises(PreconditionError):
            composition_sum(3, 7, PrimePower(5, 1))
