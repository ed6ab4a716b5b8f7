import dataclasses
import itertools
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest

from wolsten import suite
from wolsten.bernoulli import bernoulli_exact
from wolsten.errors import (
    BudgetExceededError,
    PreconditionError,
    WolstenError,
    ZeroDenominatorError,
)
from wolsten.harmonic import composition_sum_bruteforce
from wolsten.padic import INFINITE, primes_in_range, valuation
from wolsten.report import (
    congruence_report,
    encode_report,
    join_lines,
    reports_to_csv,
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
        with pytest.raises(BudgetExceededError):
            check_main_exp(7, 5, 1, 9)


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
        monkeypatch.setattr(suite, "_wp", lambda p: w + 1)
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
    def test_grid_lines_encode_grid_reports(self, fmt, workers):
        # p = 5 fails 37 of these 91 checks; only failed checks carry a report.
        ranges = {"n": range(0, 13), "r": range(0, 13)}
        reps = grid_reports("main_p5", 5, ranges)
        lines = suite.grid_lines("main_p5", 5, ranges, workers=workers, fmt=fmt)
        assert [line for line, _ in lines] == [encode_report(r, fmt) for r in reps]
        assert [rep for _, rep in lines] == [None if r.ok else r for r in reps]
        assert sum(rep is not None for _, rep in lines) == 37

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
        assert claim.domain is None or claim.domain(p, **params)
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
        lines = [encode_report(r, "csv") for r in reps]
        assert join_lines(lines, "csv") == reports_to_csv(reps)
        assert reports_to_csv(reps).startswith("claim_id,p,params,precision,lhs_exact,")

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
        text = reports_to_csv([check_main(7, 2, 1)])
        header, row = text.splitlines()
        assert header.startswith("claim_id,p,params,precision")
        assert row.startswith("main_p5,7,n=2;r=1,5,1716/1,1716,18523/1,1716,5,pass")

    def test_unknown_claim_id_rejected(self, monkeypatch):
        # run_check accepts only the report ids of the claim's registry row
        rep = check_main(7, 2, 1)
        row = dataclasses.replace(
            lookup_claim("bailey4"), check=lambda p, n, r, precision: rep
        )
        monkeypatch.setitem(suite._CLAIMS_BY_NAME, "bailey4", row)
        with pytest.raises(WolstenError, match="bailey4 produced a 'main_p5' report"):
            run_check("bailey4", 7, {"n": 2, "r": 1})
