import collections
import functools
import itertools
import math
import pickle
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import grid_domain_reference as reference
import pytest

from wolsten import bernoulli, checks_binomial, padic, suite
from wolsten.bernoulli import bernoulli_exact
from wolsten.binomial import binom, binom_mod, ratio, rising_binom
from wolsten.errors import (
    BudgetExceededError,
    NonIntegralError,
    PreconditionError,
    WolstenError,
    ZeroDenominatorError,
)
from wolsten.harmonic import composition_sum_bruteforce
from wolsten.padic import INFINITE, PrimePower, Residue, primes_in_range, valuation
from wolsten.parallel import parallel_map
from wolsten.report import (
    congruence_report,
    encode_report,
    join_lines,
    reports_to_jsonl,
)
from wolsten.suite import (
    CLAIMS,
    check_bailey4,
    check_bailey5,
    check_cor_ijk,
    check_ji_zhoucai,
    check_kazandzidis,
    check_main,
    check_main_exp,
    check_prop_ijk,
    check_thm2_case1,
    check_thm2_case2,
    check_wolstenholme,
    find_exact_quadruples,
    grid_reports,
    lookup_claim,
    run_check,
    thm2_c_value,
)


def _spilled(blocks) -> str:
    """The text of grid_blocks' spill files, in the order returned."""
    return "".join(Path(path).read_text(encoding="utf-8") for path, _, _ in blocks)


class TestWolstenholme:
    def test_p5(self):
        rep = check_wolstenholme(5)
        assert rep.ok and rep.lhs_exact == Fraction(25, 12) and rep.diff_valuation == 2

    def test_p7(self):
        rep = check_wolstenholme(7)
        assert rep.ok and rep.lhs_exact == Fraction(49, 20)

    def test_p13(self):
        assert check_wolstenholme(13).ok

    def test_small_primes_rejected(self):
        with pytest.raises(PreconditionError):
            check_wolstenholme(3)


class TestBailey4:
    def test_trivial(self):
        rep = check_bailey4(7, 1, 1)
        assert rep.ok and rep.diff_valuation == INFINITE

    def test_direct_arithmetic(self):
        # 3432 - 2 = 3430 = 343 * 10
        rep = check_bailey4(7, 2, 1)
        assert rep.ok and rep.lhs_exact == 3432 and rep.diff_valuation == 3

    def test_mod_p3_instance(self):
        # binom(20,5) - 4 = 15500 = 125 * 124
        rep = check_bailey4(5, 4, 1)
        assert rep.ok and rep.diff_valuation == 3

    def test_zero_convention(self):
        rep = check_bailey4(7, 1, 2)
        assert rep.ok and rep.lhs_residue == 0 and rep.diff_valuation == INFINITE


class TestBailey5:
    def test_paper_exact_example(self):
        rep = check_bailey5(7, 4, 2, 5, 2)
        assert rep.ok
        # the same congruence is exact even mod 7^5
        assert check_bailey5(7, 4, 2, 5, 2, precision=5).ok

    def test_trivial_N_zero(self):
        rep = check_bailey5(7, 0, 0, 5, 2)
        assert rep.ok and rep.diff_valuation == INFINITE

    def test_negative_control_passes_3_fails_5(self):
        rep = check_bailey5(5, 3, 1, 4, 1)
        assert rep.ok and rep.diff_valuation == 4
        assert not check_bailey5(5, 3, 1, 4, 1, precision=5).ok

    def test_requires_small_n_r(self):
        with pytest.raises(PreconditionError):
            check_bailey5(7, 1, 1, 7, 0)

    def test_modular_route_matches_exact(self):
        # p = 17 forces the modular route; math.comb is the oracle here
        rep = check_bailey5(17, 2, 1, 9, 4)
        assert rep.lhs_exact is None
        a, b = 2 * 17**3 + 9, 17**3 + 4
        lhs = math.comb(a, b)
        rhs = math.comb(2, 1) * math.comb(9, 4)
        assert rep.lhs_residue == lhs % 17**3
        assert rep.diff_valuation == valuation(lhs - rhs, 17)
        assert rep.ok

    @pytest.mark.parametrize("precision", [1, 3, 5, 6])
    def test_modular_route_matches_exact_on_a_grid(self, precision):
        # N >= 1 at p = 13 puts the top argument past 2000: the modular
        # route, with passing and failing checks at precisions 5 and 6.
        p = 13
        for N, R, n, r in itertools.product(range(1, 3), range(0, 3), (0, 1, 5, 12), (0, 2, 12)):
            rep = check_bailey5(p, N, R, n, r, precision=precision)
            lhs = math.comb(N * p**3 + n, R * p**3 + r) if R <= N else 0
            rhs = math.comb(N, R) * math.comb(n, r)
            v = valuation(lhs - rhs, p)
            assert rep.lhs_residue == lhs % p**precision
            assert rep.rhs_residue == rhs % p**precision
            assert rep.diff_valuation == v
            assert rep.ok == (v >= precision)

    def test_exact_equality_big_arguments(self):
        rep = check_bailey5(31, 6, 6, 12, 12)
        assert rep.ok and rep.diff_valuation == INFINITE


class TestKazandzidis:
    def test_k2_p7(self):
        rep = check_kazandzidis(7, 2, 1, form="K2")
        assert rep.ok and rep.lhs_exact == 1716

    def test_k2_p3_correction(self):
        rep = check_kazandzidis(3, 2, 1, form="K2")
        assert rep.ok
        assert rep.lhs_exact == 10 and rep.rhs_exact == -17

    def test_k1_p3_correction(self):
        rep = check_kazandzidis(3, 1, 1, form="K1")
        assert rep.ok
        assert rep.lhs_exact == 10 and rep.rhs_exact == -17

    def test_k1_p5_diagonal(self):
        rep = check_kazandzidis(5, 1, 1, form="K1")
        assert rep.ok and rep.lhs_exact == 126

    def test_k1_negative_n(self):
        assert check_kazandzidis(5, -2, 1, form="K1").ok

    def test_k1_zero_denominator(self):
        with pytest.raises(ZeroDenominatorError):
            check_kazandzidis(5, 0, 2, form="K1")

    def test_k1_side_equals_the_rising_products(self):
        # The side comes from binomials, not from the rising products;
        # between n = 1 - r and n = 0 both products vanish.
        for p in (3, 5, 7, 11):
            for n in range(-12, 13):
                for r in range(1, 7):
                    try:
                        want = ratio(rising_binom(n * p, r * p), rising_binom(n, r))
                    except ZeroDenominatorError:
                        with pytest.raises(ZeroDenominatorError, match="ratio 0/0"):
                            checks_binomial._rising_ratio(p, n, r)
                        continue
                    assert checks_binomial._rising_ratio(p, n, r) == want, (p, n, r)

    def test_k1_past_its_exact_bound_writes_the_same_line(self, monkeypatch):
        # The value has about 5000 digits, so its exact text is null either
        # way; the residues give the same valuation and verdict.
        exact = check_kazandzidis(1009, 12, 6, form="K1")
        monkeypatch.setattr(checks_binomial, "_K1_EXACT_DIGITS", 1000)
        by_residues = check_kazandzidis(1009, 12, 6, form="K1")
        assert exact.lhs_exact is not None and by_residues.lhs_exact is None
        assert encode_report(by_residues) == encode_report(exact)
        assert encode_report(by_residues, "csv") == encode_report(exact, "csv")

    def test_k1_with_a_huge_n_stays_exact(self):
        # a = 5 (10^400 + 1) - 1 is past a float; binom(a, 5) is not large.
        n = 10**400
        rep = check_kazandzidis(5, n, 1, form="K1")
        assert rep.lhs_exact == Fraction(binom(5 * n + 4, 5), n) and rep.ok

    def test_k1_at_the_domain_edge_is_quick(self):
        # n = p - 2, r = p // 2 at p = 997: the rising products took minutes.
        start = time.perf_counter()
        rep = check_kazandzidis(997, 995, 498, form="K1")
        assert time.perf_counter() - start < 1.0
        assert rep.ok and rep.lhs_exact is None and rep.diff_valuation == 3

    def test_bridge(self):
        # K1 at (n, r) and K2 at (n + r, r) wrap the same exact ratio
        for p in (3, 5, 7, 11):
            for n in range(1, 9):
                for r in range(1, n + 1):
                    k1 = check_kazandzidis(p, n, r, form="K1")
                    k2 = check_kazandzidis(p, n + r, r, form="K2")
                    assert k1.lhs_exact == k2.lhs_exact
                    assert k1.verdict == k2.verdict

    def test_k2_grid_p3(self):
        for n in range(1, 9):
            for r in range(1, n + 1):
                assert check_kazandzidis(3, n, r, form="K2").ok

    def test_k2_grid_soundness(self):
        for p in primes_in_range(7, 31):
            for n in range(0, 13):
                for r in range(0, n + 1):
                    assert check_kazandzidis(p, n, r, form="K2").ok, (p, n, r)

    def test_bad_form(self):
        with pytest.raises(PreconditionError):
            check_kazandzidis(7, 2, 1, form="K3")

    # Small n on the exact route, and n past _EXACT_ARG_LIMIT / p on the
    # modular one.
    _K2_POINTS = {5: [*range(41), *range(390, 421)], 7: [*range(41), *range(300, 331)],
                  11: range(31), 13: range(31)}

    def test_k2_improved_modulus(self):
        # Kazandzidis: binom(np, rp) / binom(n, r) == 1 mod p^3 p^v_p(nr(n-r))
        # for p >= 5 and 0 < r < n.  Below p^5, main_p5 gives the same
        # difference as w_p nr(n-r) p^3, whose valuation is the bound
        # while w_p is a p-unit.
        modular = high = 0
        for p, ns in self._K2_POINTS.items():
            for n in ns:
                for r in range(1, n):
                    bound = 3 + valuation(n * r * (n - r), p)
                    rep = check_kazandzidis(p, n, r, form="K2")
                    assert rep.diff_valuation >= bound, (p, n, r)
                    modular += rep.lhs_exact is None
                    high += bound >= 6
                    if bound < 5 and p >= 7:
                        main = check_main(p, n, r)
                        assert main.ok and main.lhs_residue % p**3 == rep.lhs_residue
                        assert rep.diff_valuation == valuation(main.rhs_residue - 1, p) == bound
        assert (modular, high) == (17924, 964)


class TestMain:
    def test_exact_seven_instance(self):
        # 18523 - 1716 = 16807 = 7^5
        rep = check_main(7, 2, 1)
        assert rep.ok and rep.lhs_exact == 1716 and rep.rhs_exact == 18523
        assert rep.diff_valuation == 5

    def test_r_zero(self):
        rep = check_main(11, 3, 0)
        assert rep.ok and rep.diff_valuation == INFINITE

    def test_negative_control_residues(self):
        rep = check_main(5, 4, 1)
        assert not rep.ok
        assert rep.lhs_residue == 751 and rep.rhs_residue == 126
        assert rep.diff_valuation == 4

    def test_n_less_than_r_is_error(self):
        with pytest.raises(ZeroDenominatorError):
            check_main(7, 1, 2)

    def test_spot_grid(self):
        for p in (7, 11):
            for n in range(0, 7):
                for r in range(0, n + 1):
                    assert check_main(p, n, r).ok

    def test_refinement_chain(self):
        # mod-p^5 pass forces the bailey4 mod-p^3 pass on the same (p, n, r)
        for p in (7, 11):
            for n in range(0, 13):
                for r in range(0, n + 1):
                    if check_main(p, n, r).ok:
                        assert check_bailey4(p, n, r).ok


class TestMainExp:
    def test_e1_matches_main(self):
        a = check_main_exp(7, 3, 1, 1)
        b = check_main(7, 3, 1)
        assert a.lhs_exact == b.lhs_exact and a.verdict == b.verdict

    def test_e2_instances(self):
        assert check_main_exp(7, 2, 1, 2).ok
        assert check_main_exp(11, 3, 2, 2).ok

    def test_budget(self):
        # 5 * 7^9 is past the old n p^e <= 10^6 budget, and 6 * 89^3 past
        # the old prefix table.  binom_mod's bound on p is the budget, met
        # before w_p costs anything.
        assert check_main_exp(7, 5, 1, 9).ok
        assert check_main_exp(89, 6, 1, 3).ok
        with pytest.raises(BudgetExceededError, match=r"^p=2097169: the modular binomials need p < 2097152$"):
            check_main_exp(2097169, 2, 1, 1)


class TestThm2Case1:
    def test_paper_example_exact(self):
        rep = check_thm2_case1(7, 4, 2, 5, 2)
        assert rep.ok
        # the c-term vanishes mod p^5: c has 7-adic valuation 2
        assert valuation(thm2_c_value(7, 4, 2, 5, 2), 7) >= 2

    def test_symmetric_cancellation(self):
        for (N, n) in ((3, 4), (5, 2)):
            assert thm2_c_value(7, N, N, n, n) == 0
            rep = check_thm2_case1(7, N, N, n, n)
            assert rep.ok and rep.diff_valuation == INFINITE

    def test_negative_control(self):
        assert thm2_c_value(5, 3, 1, 4, 1) == Fraction(1675, 12)
        rep = check_thm2_case1(5, 3, 1, 4, 1)
        assert not rep.ok
        assert rep.lhs_residue == 2501 and rep.rhs_residue == 1

    def test_c_value_matches_the_fraction_formula(self):
        # thm2_c_value sums integers over L = lcm(1..p-1); the reference sums
        # the harmonic numbers as Fractions.
        for p in primes_in_range(5, 19):
            h = [sum(Fraction(1, i) for i in range(1, n + 1)) for n in range(p)]
            w = suite._wp(p)
            for N, R, n, r in itertools.product(range(p), repeat=4):
                if R <= N and r <= n:
                    c = h[n] * N - h[r] * R + (w * N * R - h[n - r]) * (N - R)
                    assert thm2_c_value(p, N, R, n, r) == c, (p, N, R, n, r)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            check_thm2_case1(7, 2, 3, 4, 1)  # R > N
        with pytest.raises(PreconditionError):
            check_thm2_case1(7, 3, 1, 7, 1)  # n >= p


class TestThm2Case2:
    def test_zero_target_when_N_equals_R(self):
        rep = check_thm2_case2(7, 2, 2, 1, 3)
        assert rep.ok and rep.rhs_exact == 0 and rep.diff_valuation >= 5

    def test_derived_instance(self):
        assert check_thm2_case2(7, 2, 1, 1, 3).ok

    def test_exploratory_p5_samples(self):
        # reported observations backing the stated belief; N, R up to 30
        for (N, R) in ((30, 17), (12, 5), (25, 25), (8, 1), (30, 0)):
            for n in range(1, 5):
                for r in range(n + 1, 5):
                    assert check_thm2_case2(5, N, R, n, r).ok

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            check_thm2_case2(7, 2, 1, 3, 3)  # needs n < r
        with pytest.raises(PreconditionError):
            check_thm2_case2(7, 2, 1, 0, 3)  # needs n >= 1


class TestSection4:
    def test_prop_p3(self):
        rep = check_prop_ijk(3)
        assert rep.ok and rep.lhs_exact == Fraction(3, 2)

    def test_prop_p5(self):
        rep = check_prop_ijk(5)
        assert rep.ok and rep.lhs_exact == Fraction(45, 16)

    def test_prop_p7(self):
        assert check_prop_ijk(7).ok

    def test_cor_p7_values(self):
        rep = check_cor_ijk(7)
        assert rep.ok
        assert rep.lhs_exact == Fraction(29, 15)
        assert rep.rhs_exact == -2 * bernoulli_exact(4) == Fraction(1, 15)
        assert rep.lhs_residue == 1 and rep.rhs_residue == 1

    def test_cor_p5(self):
        rep = check_cor_ijk(5)
        assert rep.ok and rep.lhs_residue == 3 and rep.rhs_residue == 3

    def test_cor_routes_disagree(self, monkeypatch):
        w = suite._wp(7)
        quotient = bernoulli.wolstenholme_quotient
        monkeypatch.setattr(bernoulli, "wolstenholme_quotient",
                            lambda p: quotient(p)._replace(value=quotient(p).value + 1))
        rep = check_cor_ijk(7)
        # The exact route alone clears mod 7; the quotient route disagrees.
        assert rep.verdict == "fail" and rep.diff_valuation == 1
        assert rep.rhs_residue == 6 * (w + 1) % 7 != 6 * w % 7
        assert rep.rhs_exact == Fraction(1, 15)

    def test_cor_beyond_exact_bound(self):
        rep = check_cor_ijk(499)
        assert rep.ok and rep.lhs_exact is None

    def test_cor_at_first_irregular_prime(self):
        rep = check_cor_ijk(16843)
        assert rep.ok
        assert rep.lhs_residue == 0 and rep.rhs_residue == 0

    def test_ji_specializes_to_cor(self):
        a = check_ji_zhoucai(11, 3)
        b = check_cor_ijk(11)
        assert a.rhs_exact == b.rhs_exact and a.ok and b.ok

    def test_ji_even_case(self):
        rep = check_ji_zhoucai(7, 2)
        assert rep.ok and rep.precision == 2
        assert rep.lhs_exact == Fraction(7, 10) and rep.rhs_exact == Fraction(7, 45)
        assert rep.diff_valuation == 2

    def test_ji_n5_p11(self):
        assert check_ji_zhoucai(11, 5).ok

    def test_ji_matches_bruteforce(self):
        for p in (7, 11, 13):
            for n in range(2, 7):
                if n > p - 2:
                    continue
                rep = check_ji_zhoucai(p, n)
                assert rep.lhs_exact == composition_sum_bruteforce(n, p)
                assert rep.ok

    def test_ji_bounds(self):
        with pytest.raises(PreconditionError):
            check_ji_zhoucai(7, 6)
        with pytest.raises(PreconditionError):
            check_ji_zhoucai(7, 1)


class TestQuadrupleSearch:
    def test_p7_nontrivial_list(self):
        hits = find_exact_quadruples(7)
        nontrivial = [(h.N, h.R, h.n, h.r) for h in hits if h.nontrivial]
        assert sorted(nontrivial) == sorted(
            [
                (4, 2, 5, 2),
                (4, 2, 5, 3),
                (5, 2, 6, 1),
                (4, 2, 6, 3),
                (5, 1, 6, 3),
                (5, 4, 6, 3),
                (5, 3, 6, 5),
            ]
        )

    def test_trivial_diagonal_always_hits(self):
        hits = find_exact_quadruples(7)
        found = {(h.N, h.R, h.n, h.r) for h in hits}
        for N in range(1, 7):
            for n in range(1, 7):
                assert (N, N, n, n) in found

    def test_lexicographic_order(self):
        hits = find_exact_quadruples(7)
        keys = [(h.N, h.R, h.n, h.r) for h in hits]
        assert keys == sorted(keys)

    def test_matches_math_comb_oracle(self):
        # Brute force, independent of check_bailey5.  At p = 7 the N = 6 rows
        # take its modular route and the others its exact one.
        p, p3 = 7, 7**3
        tuples = [(N, R, n, r) for N in range(1, p) for R in range(1, N + 1)
                  for n in range(1, p) for r in range(1, n + 1)]
        assert len(tuples) == 441
        oracle = [
            (N, R, n, r) for N, R, n, r in tuples
            if (math.comb(N * p3 + n, R * p3 + r) - math.comb(N, R) * math.comb(n, r)) % p**5 == 0
        ]
        assert [(h.N, h.R, h.n, h.r) for h in find_exact_quadruples(p)] == oracle

    @staticmethod
    def _bailey5_hits(p):
        # The binomial route: every tuple through the bailey5 check mod p^5.
        tuples = [(N, R, n, r) for N in range(1, p) for R in range(1, N + 1)
                  for n in range(1, p) for r in range(1, n + 1)]
        return [t for t in tuples if check_bailey5(p, *t, precision=5).ok]

    @pytest.mark.parametrize("p", [7, 11, 13, 17])
    def test_matches_bailey5_oracle(self, p):
        assert [(h.N, h.R, h.n, h.r) for h in find_exact_quadruples(p)] == self._bailey5_hits(p)

    def test_sample_past_the_old_table_matches_bailey5(self):
        # p = 47's grid arguments were past binom_mod's old 2^22 prefix
        # table.  1000 hits and 1000 tuples at random (mostly not hits).
        p, rng = 47, random.Random(47)
        hits = {(h.N, h.R, h.n, h.r) for h in find_exact_quadruples(p)}
        tuples = [(N, R, n, r) for N in range(1, p) for R in range(1, N + 1)
                  for n in range(1, p) for r in range(1, n + 1)]
        sample = rng.sample(sorted(hits), 1000) + rng.sample(tuples, 1000)
        assert len(hits) == 2629 and sum(t not in hits for t in sample) > 900
        for t in sample:
            assert check_bailey5(p, *t, precision=5).ok == (t in hits), t

    def test_computes_no_binomial(self, monkeypatch):
        oracle = self._bailey5_hits(13)

        def refuse(*args, **kwargs):
            raise AssertionError("the search computed a binomial")

        monkeypatch.setattr(checks_binomial, "binom_mod", refuse)
        monkeypatch.setattr(checks_binomial, "check_bailey5", refuse)
        assert [(h.N, h.R, h.n, h.r) for h in find_exact_quadruples(13)] == oracle

    def test_workers_do_not_change_output(self):
        assert find_exact_quadruples(7, workers=2) == find_exact_quadruples(7)

    def test_p11_has_nontrivial_hits(self):
        hits = find_exact_quadruples(11)
        assert any(h.nontrivial for h in hits)

    def test_hits_have_no_csv_form(self):
        hit = find_exact_quadruples(7)[0]
        assert encode_report(hit) == '{"N":1,"R":1,"n":1,"r":1,"nontrivial":false}\n'
        with pytest.raises(PreconditionError, match="QuadrupleHit records have no CSV form"):
            encode_report(hit, "csv")


class TestDispatchAndGrids:
    def test_run_check_dispatch(self):
        reps = run_check("main_p5", 7, {"n": 2, "r": 1})
        assert len(reps) == 1 and reps[0].claim_id == "main_p5"
        pair = run_check("h12", 7, {})
        assert [r.claim_id for r in pair] == ["h12", "h12p"]

    def test_unknown_claim(self):
        with pytest.raises(PreconditionError):
            run_check("nonsense", 7, {})

    def test_grid_filters_domain(self):
        reps = grid_reports("main_p5", 7, {"n": range(0, 4), "r": range(0, 4)})
        assert len(reps) == 10  # pairs with r <= n
        assert all(r.ok for r in reps)

    def test_grid_workers_deterministic(self):
        a = grid_reports("bailey4", 7, {"n": range(0, 6), "r": range(0, 6)})
        b = grid_reports("bailey4", 7, {"n": range(0, 6), "r": range(0, 6)}, workers=2)
        assert reports_to_jsonl(a) == reports_to_jsonl(b)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_grid_lines_encode_grid_reports(self, fmt, workers, tmp_path):
        # p = 5 fails 37 of these 91 checks; only failed checks carry a report.
        ranges = {"n": range(0, 13), "r": range(0, 13)}
        reps = grid_reports("main_p5", 5, ranges)
        blocks = suite.grid_blocks("main_p5", [5], ranges, tmp_path, workers=workers, fmt=fmt)
        expected = "".join(encode_report(r, fmt) for r in reps)
        assert _spilled(blocks) == expected
        assert [r for _, _, failed in blocks for r in failed] == [r for r in reps if not r.ok]
        assert sum(len(failed) for _, _, failed in blocks) == 37

    # Each case against grid_reports at each prime: two reports per point
    # (h12), a 12675-point modular grid, which is cut into two slabs inside
    # p = 17's grid (bailey5),
    # and an exploratory prime (thm2_case2 at p = 5).  A slab minimum of 7
    # cuts every stream, mostly across primes.
    _STREAMS = {
        "main_p5": ([5], {"n": range(13), "r": range(13)}),
        "h12": (primes_in_range(7, 101), {}),
        "bailey5": ([13, 17, 19], {"N": range(5), "R": range(5), "n": range(13), "r": range(13)}),
        "thm2_case2": ([5, 7, 11], {"N": range(3), "R": range(3), "n": range(7), "r": range(7)}),
    }

    @staticmethod
    @functools.cache
    def _stream_oracle(claim_id):
        primes, ranges = TestDispatchAndGrids._STREAMS[claim_id]
        return [r for p in primes for r in grid_reports(claim_id, p, ranges)]

    @pytest.mark.parametrize("slab_min", [None, 7])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("claim_id", list(_STREAMS))
    def test_slab_stream_matches_grid_reports(self, claim_id, workers, fmt, slab_min, monkeypatch,
                                              tmp_path):
        if slab_min is not None:
            monkeypatch.setattr(suite, "_SLAB_MIN", slab_min)
        primes, ranges = self._STREAMS[claim_id]
        reps = self._stream_oracle(claim_id)
        blocks = suite.grid_blocks(claim_id, primes, ranges, tmp_path, workers=workers, fmt=fmt)
        assert (len(blocks) > 1) == (slab_min is not None or claim_id == "bailey5")
        expected = "".join(encode_report(r, fmt) for r in reps)
        assert _spilled(blocks) == expected
        assert [r for _, _, failed in blocks for r in failed] == [r for r in reps if not r.ok]
        counts = {}
        for _, per_prime, _ in blocks:
            for p, n in per_prime.items():
                counts[p] = counts.get(p, 0) + n
        assert counts == {p: n for p in primes if (n := sum(r.p == p for r in reps))}

    def test_workload_grid_hands_the_pool_a_few_slabs(self, monkeypatch, tmp_path):
        # The benchmark's bailey5 grid: 4 primes of 8281 points each.
        calls = []

        def record(fn, items, workers):
            calls.append((fn.__name__, list(items), workers))
            return []

        monkeypatch.setattr(suite, "parallel_map", record)
        ranges = {"N": range(7), "R": range(7), "n": range(13), "r": range(13)}
        suite.grid_blocks("bailey5", [13, 17, 19, 23], ranges, tmp_path, workers=2)
        [(name, slabs, workers)] = calls
        # At least two slabs per worker, each of at least _SLAB_MIN points.
        assert name == "_grid_one" and workers == 2 and 4 <= len(slabs) <= 8
        assert min(stop - start for *_, start, stop, _ in slabs) >= suite._SLAB_MIN
        # The slabs, in stream order, cover the 33124 points once, end to
        # end, each with its own spill file in the directory given.
        covered = [(primes[0], start, stop) for _, primes, _, _, _, start, stop, _ in slabs]
        assert covered[0][:2] == (13, 0) and covered[-1][0] == 23
        assert sum(stop - start for _, start, stop in covered) == 33124
        paths = [Path(path) for *_, path in slabs]
        assert len(set(paths)) == len(slabs) and {p.parent for p in paths} == {tmp_path}

    @pytest.mark.parametrize("side, slab_min, workers, count", [
        (4, 3, 1, 4),
        (4, 5, 2, 3),  # 16 points: 5, 5 and 6, not 5, 5, 5 and 1
        (4, 9, 2, 1),  # under two slabs' minimum: one slab, run inline
        (4, 17, 2, 1),
        (5, 3, 2, 8),
    ])
    def test_every_slab_holds_the_minimum(self, side, slab_min, workers, count, monkeypatch,
                                          tmp_path):
        calls = []
        monkeypatch.setattr(suite, "parallel_map", lambda fn, items, w: calls.extend(items) or [])
        monkeypatch.setattr(suite, "_SLAB_MIN", slab_min)
        ranges = {"n": range(side), "r": range(side)}
        suite.grid_blocks("main_p5", [5], ranges, tmp_path, workers=workers)
        sizes = [stop - start for *_, start, stop, _ in calls]
        assert len(sizes) == count and sum(sizes) == side * side
        assert min(sizes) >= min(slab_min, side * side)

    def test_workload_grid_results_are_small(self, monkeypatch, tmp_path):
        # The same grid's 6.3 MB of report lines stay in the spill files:
        # the pool carries back only line counts and failed reports.
        sizes = []

        def measured(fn, items, workers):
            results = parallel_map(fn, items, workers)
            sizes.extend(len(pickle.dumps(r)) for r in results)
            return results

        monkeypatch.setattr(suite, "parallel_map", measured)
        ranges = {"N": range(7), "R": range(7), "n": range(13), "r": range(13)}
        blocks = suite.grid_blocks("bailey5", [13, 17, 19, 23], ranges, tmp_path, workers=2)
        assert len(sizes) == len(blocks) > 1 and sum(sizes) < 64 * 1024
        assert sum(Path(path).stat().st_size for path, _, _ in blocks) == 6300605

    def test_grid_tests_each_prime_a_few_times(self, monkeypatch, tmp_path):
        # Each modulus p^k is tested prime once, not once a check: the
        # checkers' p and the modular sides' moduli are cached.
        calls, is_prime = [], padic.is_prime

        def counted(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(padic, "is_prime", counted)
        monkeypatch.setattr(suite, "is_prime", counted)
        suite._require_prime.cache_clear()
        checks_binomial._prime_power.cache_clear()
        ranges = {"N": range(3), "R": range(3), "n": range(13), "r": range(13)}
        blocks = suite.grid_blocks("bailey5", [13, 17, 19, 23], ranges, tmp_path)
        assert sum(sum(counts.values()) for _, counts, _ in blocks) == 6084
        assert set(calls) == {13, 17, 19, 23} and len(calls) <= 4 * 4

    def test_missing_range(self):
        with pytest.raises(PreconditionError):
            grid_reports("main_p5", 7, {"n": range(3)})

    def test_unknown_claim_in_grid(self):
        with pytest.raises(PreconditionError, match="unknown claim 'nonsense'"):
            grid_reports("nonsense", 7, {})

    @pytest.mark.parametrize("claim_id", ["prop_ijk", "cor_ijk", "ji_zhoucai", "h12", "genwols"])
    def test_fixed_precision_rejected(self, claim_id):
        with pytest.raises(PreconditionError, match=f"claim {claim_id} fixes its own precision"):
            run_check(claim_id, 7, {}, precision=3)
        with pytest.raises(PreconditionError, match="fixes its own precision"):
            grid_reports(claim_id, 7, {}, precision=3)


# One in-domain instance per claim, at the smallest prime its checker
# accepts, with the exact report text it writes.
_INSTANCES = {
    "wolstenholme": (
        5, {},
        '{"claim_id":"wolstenholme","p":5,"params":{},"precision":2,"lhs":{"exact":"25/12","residue":"0"},"rhs":{"exact":"0/1","residue":"0"},"diff_valuation":2,"verdict":"pass"}\n'
    ),
    "bailey4": (
        5, {"n": 2, "r": 1},
        '{"claim_id":"bailey4","p":5,"params":{"n":2,"r":1},"precision":3,"lhs":{"exact":"252/1","residue":"2"},"rhs":{"exact":"2/1","residue":"2"},"diff_valuation":3,"verdict":"pass"}\n'
    ),
    "bailey5": (
        5, {"N": 2, "R": 1, "n": 3, "r": 1},
        '{"claim_id":"bailey5","p":5,"params":{"N":2,"R":1,"n":3,"r":1},"precision":3,"lhs":{"exact":"723910126864214128701458617457228158461516762600804647229294000597900392256/1","residue":"6"},"rhs":{"exact":"6/1","residue":"6"},"diff_valuation":3,"verdict":"pass"}\n'
    ),
    "kazandzidis_k1": (
        3, {"n": 2, "r": 1},
        '{"claim_id":"kazandzidis_k1","p":3,"params":{"n":2,"r":1},"precision":3,"lhs":{"exact":"28/1","residue":"1"},"rhs":{"exact":"-53/1","residue":"1"},"diff_valuation":4,"verdict":"pass"}\n'
    ),
    "kazandzidis_k2": (
        3, {"n": 2, "r": 1},
        '{"claim_id":"kazandzidis_k2","p":3,"params":{"n":2,"r":1},"precision":3,"lhs":{"exact":"10/1","residue":"10"},"rhs":{"exact":"-17/1","residue":"10"},"diff_valuation":3,"verdict":"pass"}\n'
    ),
    "main_p5": (
        5, {"n": 2, "r": 1},
        '{"claim_id":"main_p5","p":5,"params":{"n":2,"r":1},"precision":5,"lhs":{"exact":"126/1","residue":"126"},"rhs":{"exact":"5751/1","residue":"2626"},"diff_valuation":4,"verdict":"fail"}\n'
    ),
    "main_exp": (
        5, {"n": 2, "r": 1, "e": 1},
        '{"claim_id":"main_exp","p":5,"params":{"e":1,"n":2,"r":1},"precision":5,"lhs":{"exact":"126/1","residue":"126"},"rhs":{"exact":"5751/1","residue":"2626"},"diff_valuation":4,"verdict":"fail"}\n'
    ),
    "thm2_case1": (
        5, {"N": 2, "R": 1, "n": 3, "r": 1},
        '{"claim_id":"thm2_case1","p":5,"params":{"N":2,"R":1,"c":"283/6","n":3,"r":1},"precision":5,"lhs":{"exact":"120651687810702354783576436242871359743586127100134107871549000099650065376/1","residue":"2876"},"rhs":{"exact":"35381/6","residue":"2251"},"diff_valuation":4,"verdict":"fail"}\n'
    ),
    "thm2_case2": (
        5, {"N": 2, "R": 1, "n": 1, "r": 3},
        '{"claim_id":"thm2_case2","p":5,"params":{"N":2,"R":1,"n":1,"r":3},"precision":5,"lhs":{"exact":"173243067045382272030518289442117040145650781563618948123364269535379447875/2","residue":"500"},"rhs":{"exact":"-125/6","residue":"500"},"diff_valuation":6,"verdict":"pass"}\n'
    ),
    "prop_ijk": (
        3, {},
        '{"claim_id":"prop_ijk","p":3,"params":{"first_link_valuation":1},"precision":1,"lhs":{"exact":"3/2","residue":"0"},"rhs":{"exact":"0/1","residue":"0"},"diff_valuation":1,"verdict":"pass"}\n'
    ),
    "cor_ijk": (
        5, {},
        '{"claim_id":"cor_ijk","p":5,"params":{},"precision":1,"lhs":{"exact":"7/4","residue":"3"},"rhs":{"exact":"-1/3","residue":"3"},"diff_valuation":2,"verdict":"pass"}\n'
    ),
    "ji_zhoucai": (
        5, {"n_parts": 3},
        '{"claim_id":"ji_zhoucai","p":5,"params":{"n_parts":3},"precision":1,"lhs":{"exact":"7/4","residue":"3"},"rhs":{"exact":"-1/3","residue":"3"},"diff_valuation":2,"verdict":"pass"}\n'
    ),
    "h12": (
        7, {},
        '{"claim_id":"h12","p":7,"params":{"h1_squared_valuation":4},"precision":4,"lhs":{"exact":"2401/400","residue":"0"},"rhs":{"exact":"2401/400","residue":"0"},"diff_valuation":"inf","verdict":"pass"}\n'
        '{"claim_id":"h12p","p":7,"params":{"second_link_valuation":5},"precision":4,"lhs":{"exact":"49/10","residue":"245"},"rhs":{"exact":"-37583/3600","residue":"245"},"diff_valuation":4,"verdict":"pass"}\n'
    ),
    "genwols": (
        5, {"s": 1, "d": 1},
        '{"claim_id":"genwols","p":5,"params":{"d":1,"s":1},"precision":2,"lhs":{"exact":"25/12","residue":"0"},"rhs":{"exact":"0/1","residue":"0"},"diff_valuation":2,"verdict":"pass"}\n'
    ),
}


class TestRegistry:
    def test_every_row_has_an_instance(self):
        assert [c.id for c in CLAIMS] == list(_INSTANCES)

    @pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.id)
    def test_row(self, claim):
        p, params, jsonl = _INSTANCES[claim.id]
        assert tuple(params) == claim.params
        point = tuple(params.values())
        assert list(claim.points(p, tuple(range(v, v + 1) for v in point))) == [point]
        assert claim.domain is None or claim.domain(p, *point)
        reports = run_check(claim.id, p, params)
        assert [r.claim_id for r in reports] == list(claim.reports)
        assert reports_to_jsonl(reports) == jsonl
        for alias in claim.aliases:
            assert lookup_claim(alias) is claim

    @pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.id)
    def test_min_p_is_the_smallest_prime_the_checker_takes(self, claim):
        p, params, _ = _INSTANCES[claim.id]
        assert claim.min_p == p
        for q in primes_in_range(2, p - 1):
            with pytest.raises(PreconditionError, match=rf"p={q}\b"):
                run_check(claim.id, q, params)

    def test_names_unique(self):
        names = [name for c in CLAIMS for name in (c.id, *c.aliases)]
        assert len(names) == len(set(names))

    def test_readme_lists_every_claim(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        paragraph = re.search(r"^Claims:.*?(?=\n\n)", readme, re.M | re.S).group(0)
        listed = set(re.findall(r"`([a-z0-9_]+)`", paragraph))
        for claim in CLAIMS:
            assert {claim.id, *claim.aliases} <= listed, claim.id


class TestDomainBounds:
    """The registry's loop bounds against the old product-and-filter enumeration."""

    # Parameter ranges as the CLI builds them: caps past p, scalars (some
    # negative, some out of the domain) and ranges that start above 0.
    _GRIDS = [
        {"N": range(7), "R": range(7), "n": range(13), "r": range(13), "e": range(1, 3),
         "n_parts": range(14), "s": range(4), "d": range(4)},
        {"N": range(2, 3), "R": range(4), "n": range(21), "r": range(4, 5), "e": range(2, 3),
         "n_parts": range(5, 6), "s": range(1, 2), "d": range(3, 4)},
        {"N": range(2), "R": range(1, 2), "n": range(-1, 0), "r": range(-1, 9), "e": range(0, 1),
         "n_parts": range(2, 3), "s": range(-1, 0), "d": range(-5, -4)},
        {"N": range(3, 4), "R": range(3, 4), "n": range(6, 7), "r": range(5, 6), "e": range(1, 2),
         "n_parts": range(3, 4), "s": range(2, 3), "d": range(2, 3)},
    ]

    @pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.id)
    def test_same_points_in_the_same_order(self, claim):
        for p, grid in itertools.product((3, 5, 7, 11, 13), self._GRIDS):
            ranges = {name: grid[name] for name in claim.params}
            axes = tuple(ranges[name] for name in claim.params)
            expected = [point for _, point in reference.indexed_points(claim, p, ranges)]
            assert list(claim.points(p, axes)) == expected, (p, ranges)

    def test_thm2_grids_build_only_their_domain(self):
        # The benchmark's thm2 grids: 24843 points of the products at p = 7, 11
        # and 13, of which 5180 (case 1) and 3528 (case 2) are in the domain.
        axes = (range(7), range(7), range(13), range(13))
        for claim_id, size in (("thm2_case1", 5180), ("thm2_case2", 3528)):
            claim = lookup_claim(claim_id)
            assert sum(len(list(claim.points(p, axes))) for p in (7, 11, 13)) == size

    @pytest.mark.parametrize("claim", [c for c in CLAIMS if c.params], ids=lambda c: c.id)
    def test_a_slab_visits_its_part_of_the_product(self, claim):
        # A slab's points at a prime are those of the product's index range
        # [a, b) in the domain; cuts fall inside rows, at their ends and
        # past the product's ends.
        rng = random.Random(claim.id)
        for p, grid in itertools.product((5, 7, 13), self._GRIDS[:2]):
            ranges = {name: grid[name] for name in claim.params}
            axes = tuple(ranges[name] for name in claim.params)
            indexed = reference.indexed_points(claim, p, ranges)
            size = math.prod(map(len, axes))
            cuts = {0, 1, size - 1, size, *(rng.randrange(size + 1) for _ in range(12))}
            for a, b in itertools.combinations(sorted(cuts), 2):
                got = list(claim.points(p, axes, suite._point(axes, a), suite._point(axes, b)))
                assert got == [point for i, point in indexed if a <= i < b], (p, ranges, a, b)

    def test_bounds_name_each_later_parameter(self):
        # (lower bounds, exclusive upper bounds) per parameter, each as
        # (ref, c) for env[ref] + c, env = (0, p, *earlier parameters).
        assert suite._loops(lookup_claim("thm2_case2")) == (
            ([], []), ([], [(2, 1)]), ([(0, 1)], [(1, 0)]), ([(4, 1)], [(1, 0)]))
        assert suite._loops(lookup_claim("ji_zhoucai")) == (([(0, 2)], [(1, -1)]),)
        assert [lookup_claim("thm2_case1").top(name, 13) for name in ("N", "R", "n", "r")] == [
            None, None, 12, 12]


class TestCongruenceEngine:
    """congruence_report's three forms of side: exact, a function k -> lhs mod p^k, residues."""

    def test_function_form_matches_exact_form(self):
        # Lucas' rhs makes most differences nonzero and some zero; a zero
        # difference never shows mod any p^k, so that form raises instead.
        agree = 0
        for p, a in itertools.product((5, 7, 11, 13), range(60)):
            for b in range(a + 1):
                lhs, rhs = binom(a, b), binom(a // p, b // p) * binom(a % p, b % p)

                def side(k):
                    return binom_mod(a, b, PrimePower(p, k))

                for precision in range(1, 7):
                    if lhs == rhs:
                        if precision == 1 + (a + b) % 6:  # one precision per pair suffices
                            with pytest.raises(BudgetExceededError, match=r"exceeds p\^64"):
                                congruence_report("x", p, precision, side, rhs, {})
                        continue
                    exact = congruence_report("x", p, precision, lhs, rhs, {})
                    rep = congruence_report("x", p, precision, side, rhs, {})
                    assert (rep.lhs_residue, rep.rhs_residue, rep.diff_valuation, rep.verdict) == (
                        exact.lhs_residue, exact.rhs_residue, exact.diff_valuation, exact.verdict
                    ), (p, a, b, precision)
                    assert rep.lhs_exact is None and rep.rhs_exact == exact.rhs_exact
                    agree += 1
        assert agree == 40272

    def test_the_p64_bound_names_the_check(self):
        with pytest.raises(BudgetExceededError, match=r"^bailey4 p=7 \{'n': 2, 'r': 1\}: difference valuation"):
            congruence_report("bailey4", 7, 3, lambda k: 21, 21, {"n": 2, "r": 1})

    def test_budget_error_of_the_lhs_names_the_check(self, monkeypatch):
        def refuse(a, b, m):
            raise BudgetExceededError(f"binom({a}, {b}) refused")

        monkeypatch.setattr(checks_binomial, "binom_mod", refuse)
        with pytest.raises(
            BudgetExceededError,
            match=r"^bailey5 p=89 \{'N': 6, 'R': 3, 'n': 5, 'r': 2\}: binom\(4229819, 2114909\) refused$",
        ):
            check_bailey5(89, 6, 3, 5, 2)

    def test_residue_form(self):
        m = PrimePower(7, 1)
        rep = congruence_report("x", 7, 1, Residue(3, m), Residue(10, m), {})
        assert (rep.lhs_residue, rep.rhs_residue, rep.diff_valuation, rep.verdict) == (3, 3, 1, "pass")
        assert rep.lhs_exact is None and rep.rhs_exact is None
        rep = congruence_report("x", 7, 1, Residue(3, m), Residue(4, m), {})
        assert (rep.lhs_residue, rep.rhs_residue, rep.diff_valuation, rep.verdict) == (3, 4, 0, "fail")
        assert not congruence_report("x", 7, 1, Residue(3, m), Residue(3, m), {}, holds=False).ok

    @pytest.mark.parametrize("precision, rhs", [
        (1, Residue(3, PrimePower(7, 2))),
        (1, Residue(3, PrimePower(5, 1))),
        (1, 3),
        (2, Residue(3, PrimePower(7, 1))),  # a residue mod 7 cannot decide mod 7^2
    ])
    def test_residue_form_needs_one_modulus(self, precision, rhs):
        with pytest.raises(PreconditionError, match=rf"^x: residues mod 7\^1 cannot decide .* mod 7\^{precision}$"):
            congruence_report("x", 7, precision, Residue(3, PrimePower(7, 1)), rhs, {})

    def test_fraction_sides_run_no_primality_test(self, monkeypatch):
        calls = []
        monkeypatch.setattr(padic, "is_prime", lambda n: calls.append(n) or True)
        rep = congruence_report("x", 7, 5, Fraction(1716), Fraction(18523), {})
        assert rep.ok and calls == []


class TestRatioSide:
    """_binom_side's modular route, binom(a, b) / den from binom_mod, against exact sides."""

    @staticmethod
    def comb_block(a: int, b: int, size: int) -> dict:
        """math.comb(a + n, b + r) for 0 <= n, r < size, by exact one-step recurrences."""
        block, first = {}, math.comb(a, b)
        for n in range(size):
            if n:
                first = first * (a + n) // (a + n - b)
            value = block[a + n, b] = first
            for r in range(1, size):
                value = value * (a + n - b - r + 1) // (b + r)
                block[a + n, b + r] = value
        return block

    def cases(self, combs: dict):
        # (checker, args, a, b) for binom(a, b) / den: the criterion-4 thm2
        # grids with the p = 5 negative controls, then main and K2.
        for p in (5, 7, 11, 13):
            p3 = p**3
            for N in range(7):
                for R in range(N + 1):
                    combs.update(self.comb_block(N * p3, R * p3, p))
                    for n, r in itertools.product(range(p), repeat=2):
                        if r <= n or n >= 1:
                            check = check_thm2_case1 if r <= n else check_thm2_case2
                            yield check, (p, N, R, n, r), N * p3 + n, R * p3 + r
        k2 = functools.partial(check_kazandzidis, form="K2")
        for p, n in itertools.product((211, 401), range(9)):
            for r in range(n + 1):
                yield check_main, (p, n, r), n * p, r * p
                yield k2, (p, n, r), n * p, r * p

    def test_comb_block(self):
        block = self.comb_block(2 * 7**3, 7**3, 7)
        assert all(block[a, b] == math.comb(a, b) for a, b in itertools.islice(block, 0, None, 5))
        assert self.comb_block(10, 10, 3)[10, 12] == 0

    def test_modular_side_matches_exact_side(self, monkeypatch):
        combs: dict = {}
        monkeypatch.setattr(checks_binomial, "binom",
                            lambda a, b: combs[a, b] if (a, b) in combs else binom(a, b))
        modular = 0
        for check, args, a, b in self.cases(combs):
            monkeypatch.setattr(checks_binomial, "_EXACT_ARG_LIMIT", math.inf)
            exact = check(*args)
            monkeypatch.setattr(checks_binomial, "_EXACT_ARG_LIMIT", 0)
            if not 2 <= b <= a - 2:  # binomials 0, 1 and a stay exact
                assert check(*args) == exact, args
                continue
            if exact.diff_valuation == INFINITE:  # never shows mod any p^k
                with pytest.raises(BudgetExceededError, match=r"exceeds p\^64"):
                    check(*args)
                continue
            rep = check(*args)
            assert (rep.lhs_residue, rep.rhs_residue, rep.diff_valuation, rep.verdict) == (
                exact.lhs_residue, exact.rhs_residue, exact.diff_valuation, exact.verdict
            ), args
            assert rep.lhs_exact is None and rep.rhs_exact == exact.rhs_exact, args
            modular += 1
        assert modular == 7468

    def test_exact_binomials_step_from_recent_ones(self, monkeypatch):
        # A thm2 grid's rows at p = 7 (b + 1 along a row, a + 1 at a row's
        # start), then the edges b = 0, b = a, b > a (binom(8, 9) = 0 is no
        # step to binom(9, 9)) and a jump: every value is math.comb's, and a
        # row of the grid costs no math.comb.
        combs = []
        monkeypatch.setattr(checks_binomial, "binom", lambda a, b: combs.append((a, b)) or binom(a, b))
        checks_binomial._near.clear()
        grid = [(4 * 343 + n, 2 * 343 + r) for n in range(7) for r in range(n + 1)]
        edges = [(5, 0), (6, 0), (6, 6), (7, 6), (7, 7), (7, 8), (7, 9), (8, 9), (9, 9), (1900, 3)]
        for a, b in grid + edges:
            assert checks_binomial._exact_binom(a, b) == math.comb(a, b), (a, b)
        assert combs == [grid[0], (5, 0), (6, 6), (8, 9), (9, 9), (1900, 3)]

    def test_large_arguments_take_the_modular_side(self):
        assert check_main(401, 8, 3).lhs_exact is None
        assert check_main(211, 8, 3).lhs_exact is not None  # 8 * 211 <= 2000

    def test_a_side_that_is_not_p_integral_raises(self):
        side = checks_binomial._binom_side(7, 4000, 100, 7**10)
        with pytest.raises(NonIntegralError, match="divisible by 7"):
            side(5)

    @staticmethod
    def _divisible_den_cases():
        # (claim, p, a, b, den) with p | den: K2 and main (e = 1, 2) at
        # binom(n p^e, r p^e) / binom(n, r), thm2_case1 at N >= p; and a
        # den with a p to spare, whose side is not p-integral.
        for p, e, n in itertools.product((3, 5, 7), (1, 2), range(16)):
            for r in range(n + 1):
                if binom(n, r) % p == 0:
                    yield "kazandzidis_k2/main", p, n * p**e, r * p**e, binom(n, r)
                    yield "not p-integral", p, n * p**e, r * p**e, binom(n, r) * p**3
        for p in (5, 7):
            for N, R, n, r in itertools.product(range(p, p + 3), range(p + 3), range(p), range(p)):
                den = binom(N, R) * binom(n, r)
                if R <= N and r <= n and den % p == 0:
                    yield "thm2_case1", p, N * p**3 + n, R * p**3 + r, den

    def test_integer_side_matches_the_fraction_side(self, monkeypatch):
        # The modular side divides binom(a, b) mod p^(k+v) by den's p^v and
        # its unit part; the reference reduces the Fraction over den.
        def outcome(f, k):
            try:
                return f(k)
            except NonIntegralError as exc:
                return str(exc)

        monkeypatch.setattr(checks_binomial, "_EXACT_ARG_LIMIT", 0)
        seen = collections.Counter()
        for claim, p, a, b, den in self._divisible_den_cases():
            side = checks_binomial._binom_side(p, a, b, den)
            if not callable(side):  # binomials 0, 1 and a stay exact
                continue
            v = valuation(den, p)

            def reference(k):
                return padic._reduce(Fraction(binom_mod(a, b, PrimePower(p, k + v)), den), p, k)

            for k in range(1, 8):
                assert outcome(side, k) == outcome(reference, k), (claim, p, a, b, den, k)
            seen[claim, isinstance(outcome(side, 5), str)] += 1
        assert seen.keys() == {("kazandzidis_k2/main", False), ("thm2_case1", False),
                               ("not p-integral", True)}


class TestReportSerialization:
    def test_congruence_report_extra_condition(self):
        rep = congruence_report("x", 7, 2, 50, Fraction(1), {}, holds=False)
        assert rep.diff_valuation == 2 and rep.verdict == "fail"
        assert (rep.lhs_residue, rep.rhs_residue) == (1, 1)
        assert rep.lhs_exact == Fraction(50) and isinstance(rep.lhs_exact, Fraction)
        assert congruence_report("x", 7, 2, 50, Fraction(1), {}).ok

    # (p, precision, lhs, rhs, holds): a zero difference, negative values,
    # a valuation far past the precision, a failing residue, a failed
    # extra condition.
    @pytest.mark.parametrize("p, precision, lhs, rhs, holds", [
        (7, 3, 1716, 1716, True),
        (5, 5, -751, 126, True),
        (5, 3, -3, -3 + 5**40 * 2, True),
        (13, 5, 10**60 + 7, -(10**59), True),
        (7, 2, 50, 1, False),
        (11, 1, 0, -11 * 4, True),
    ])
    def test_int_route_matches_fraction_route(self, p, precision, lhs, rhs, holds):
        fast = congruence_report("x", p, precision, lhs, rhs, {"k": 1}, holds=holds)
        slow = congruence_report("x", p, precision, Fraction(lhs), Fraction(rhs), {"k": 1}, holds=holds)
        assert (fast.lhs_residue, fast.rhs_residue) == (slow.lhs_residue, slow.rhs_residue)
        assert fast.diff_valuation == slow.diff_valuation == valuation(Fraction(lhs - rhs), p)
        assert fast.verdict == slow.verdict
        assert (fast.lhs_exact, fast.rhs_exact) == (slow.lhs_exact, slow.rhs_exact)
        assert isinstance(fast.lhs_exact, Fraction) and isinstance(fast.rhs_exact, Fraction)
        for fmt in ("json", "csv"):
            assert encode_report(fast, fmt) == encode_report(slow, fmt)
        assert fast == slow

    def test_precision_below_one_rejected(self):
        for lhs in (3, Fraction(3)):
            with pytest.raises(PreconditionError, match="precision must be >= 1, got 0"):
                congruence_report("x", 7, 0, lhs, 1, {})
        for precision in (0, -1):  # the exact and the modular route
            for N in (0, 2):
                with pytest.raises(PreconditionError, match=f"must be >= 1, got {precision}"):
                    check_bailey5(17, N, 1, 9, 4, precision=precision)

    def test_encoded_lines_join_into_the_report_file(self):
        reps = grid_reports("main_p5", 5, {"n": range(0, 6), "r": range(0, 6)})
        assert join_lines(encode_report(r) for r in reps) == reports_to_jsonl(reps)
        text = join_lines((encode_report(r, "csv") for r in reps), "csv")
        assert text.startswith("claim_id,p,params,precision,lhs_exact,")
        assert text.count("\n") == len(reps) + 1

    def test_jsonl_fields(self):
        import json

        rep = check_main(7, 2, 1)
        obj = json.loads(reports_to_jsonl([rep]))
        assert obj["claim_id"] == "main_p5"
        assert obj["p"] == 7
        assert obj["params"] == {"n": 2, "r": 1}
        assert obj["precision"] == 5
        assert obj["lhs"] == {"exact": "1716/1", "residue": "1716"}
        assert obj["rhs"] == {"exact": "18523/1", "residue": "1716"}
        assert obj["diff_valuation"] == 5
        assert obj["verdict"] == "pass"

    def test_infinite_valuation_serialization(self):
        import json

        rep = check_bailey4(7, 1, 1)
        obj = json.loads(reports_to_jsonl([rep]))
        assert obj["diff_valuation"] == "inf"

    def test_csv_projection(self):
        text = join_lines([encode_report(check_main(7, 2, 1), "csv")], "csv")
        header, row = text.splitlines()
        assert header.startswith("claim_id,p,params,precision")
        assert row.startswith("main_p5,7,n=2;r=1,5,1716/1,1716,18523/1,1716,5,pass")

    def test_unknown_claim_id_rejected(self, monkeypatch):
        # run_check accepts only the report ids of the claim's registry row
        rep = check_main(7, 2, 1)
        monkeypatch.setattr(checks_binomial, "check_bailey4", lambda p, n, r, precision=3: rep)
        with pytest.raises(WolstenError, match="bailey4 produced a 'main_p5' report"):
            run_check("bailey4", 7, {"n": 2, "r": 1})
