import json
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from fraction_reference import bernoulli_numbers

from wolsten import bernoulli, kernel, padic
from wolsten.bernoulli import (
    KERNEL_P_LIMIT,
    bernoulli_exact,
    bernoulli_pm3_mod_p,
    irregular_scan,
    read_checkpoint,
    records_to_csv,
    records_to_jsonl,
    wolstenholme_quotient,
)
from wolsten.errors import PreconditionError, WolstenError
from wolsten.harmonic import Composition, mhs_exact
from wolsten.kernel import _w_mod_block, _w_mod_p
from wolsten.padic import PrimePower, is_prime, primes_in_range, reduce_mod, valuation
from wolsten.parallel import parallel_map


class TestBernoulliExact:
    def test_first_values(self):
        assert bernoulli_exact(0) == 1
        assert bernoulli_exact(1) == Fraction(-1, 2)
        assert bernoulli_exact(2) == Fraction(1, 6)
        assert bernoulli_exact(4) == Fraction(-1, 30)
        assert bernoulli_exact(12) == Fraction(-691, 2730)

    def test_odd_vanish(self):
        for k in (3, 5, 7, 9, 21):
            assert bernoulli_exact(k) == 0

    def test_von_staudt_clausen_denominator(self):
        # denominator of B_2k is the product of primes p with (p-1) | 2k
        assert bernoulli_exact(10).denominator == 66  # 2*3*11
        assert bernoulli_exact(16).denominator == 510  # 2*3*5*17

    def test_bound(self):
        with pytest.raises(PreconditionError):
            bernoulli_exact(401)
        assert bernoulli_exact(401, bound=500) == 0


class TestBernoulliTangentRoute:
    # The tangent-number route against the Fraction recurrence it replaced.
    @pytest.fixture
    def cache(self, monkeypatch):
        fresh = [Fraction(1)]
        monkeypatch.setattr(bernoulli, "_bernoulli_cache", fresh)
        return fresh

    def test_matches_reference(self, cache):
        want = bernoulli_numbers(400)
        for k in (4, 398, 10, 0, 1):
            assert bernoulli_exact(k) == want[k], k
        assert [bernoulli_exact(k) for k in range(401)] == want

    def test_growth_is_geometric_up_to_the_bound(self, cache):
        bernoulli_exact(4)
        assert len(cache) == 5
        bernoulli_exact(6)
        assert len(cache) == 9  # twice the last index, 4
        bernoulli_exact(10, bound=12)
        assert len(cache) == 13  # twice 8 is 16, past the bound
        with pytest.raises(PreconditionError):
            bernoulli_exact(13, bound=12)
        assert len(cache) == 13
        assert cache == bernoulli_numbers(12)


class TestWolstenholmeQuotient:
    def test_paper_w5(self):
        assert wolstenholme_quotient(5).value == 23

    def test_derived_w7(self):
        # H(1;6) = 49/20, so w_7 = 1/20 mod 49 = 27
        assert wolstenholme_quotient(7).value == 27

    def test_defining_property(self):
        for p in (5, 7, 11, 13):
            w = wolstenholme_quotient(p).value
            h = mhs_exact(Composition.of(1), p - 1)
            assert valuation(h - w * p * p, p) >= 4

    def test_defining_property_first_irregular_prime(self):
        # independent route: H(1;p-1) mod p^4 by direct pow-based inversion
        p = 16843
        w = wolstenholme_quotient(p).value
        q = p**4
        h = sum(pow(k, -1, q) for k in range(1, p)) % q
        assert h == w * p * p % q
        assert w % p == 0  # (p, p-3) is an irregular pair

    def test_range(self):
        for p in (5, 7, 11, 199):
            w = wolstenholme_quotient(p)
            assert 0 <= w.value < p * p
            assert w.modulus == PrimePower(p, 2)

    def test_requires_prime_at_least_five(self):
        for bad in (3, 4, 6):
            with pytest.raises(PreconditionError):
                wolstenholme_quotient(bad)


class TestBernoulliPm3:
    def test_p7_both_routes(self):
        # B_4 = -1/30 == 3 mod 7, and -3*27 == 3 mod 7
        assert bernoulli_pm3_mod_p(7, route="exact").value == 3
        assert bernoulli_pm3_mod_p(7, route="quotient").value == 3

    def test_p5_both_routes(self):
        assert bernoulli_pm3_mod_p(5, route="exact").value == 1
        assert bernoulli_pm3_mod_p(5, route="quotient").value == 1

    def test_route_agreement(self):
        for p in primes_in_range(7, 199):
            exact = bernoulli_pm3_mod_p(p, route="exact")
            quotient = bernoulli_pm3_mod_p(p, route="quotient")
            assert exact == quotient, p

    def test_glaisher_relation(self):
        # w_p + (1/3) B_{p-3} == 0 mod p
        for p in primes_in_range(5, 199):
            w = wolstenholme_quotient(p).value
            b = bernoulli_exact(p - 3)
            assert reduce_mod(w + Fraction(1, 3) * b, PrimePower(p, 1)).value == 0

    def test_unknown_route(self):
        with pytest.raises(PreconditionError):
            bernoulli_pm3_mod_p(7, route="magic")


def _w_by_sum(p):
    # Independent of the kernel: w_p == S/6 (mod p), S = sum_{k<=(p-1)/2} k^-3.
    return sum(pow(k, -3, p) for k in range(1, (p + 1) // 2)) * pow(6, -1, p) % p


class TestScanKernel:
    def test_blocks_against_the_inverse_cube_sum(self):
        primes = primes_in_range(5, 5000)
        for i in range(0, len(primes), 64):
            block = tuple(primes[i : i + 64])
            assert _w_mod_block(block) == [_w_by_sum(p) for p in block], block

    def test_blocks_against_the_quotient_at_spot_primes(self):
        block = (4999, 5003, 7919, 10007)
        assert _w_mod_block(block) == [wolstenholme_quotient(p).value % p for p in block]

    @pytest.mark.parametrize("block", [
        (5,), (7,), (5, 7), (4999,),
        (65519, 65521, 65537, 65539),  # uint32 lanes, then uint64 lanes
        (65537,),
    ])
    def test_block_shapes(self, block):
        assert _w_mod_block(block) == [_w_by_sum(p) for p in block]
        assert _w_mod_block(block) == [_w_mod_p(p) for p in block]

    def test_column_blocks(self, monkeypatch):
        # A 4 KiB buffer and blocks of 64 columns: 5..65521 share one
        # uint32 group whose rows end in different blocks, and 65537 runs
        # in uint64 lanes, 512 column blocks of its own.
        monkeypatch.setattr(kernel, "_BUFFER_BYTES", 1 << 12)
        monkeypatch.setattr(kernel, "_MAX_COLUMNS", 64)
        monkeypatch.setattr(kernel, "_spare", [])
        block = (5, 7, 101, 1019, 1031, 1033, 4999, 65521, 65537)
        assert kernel._groups(block) == [[5, 7, 101, 1019, 1031, 1033, 4999, 65521], [65537]]
        assert _w_mod_block(block) == [_w_by_sum(p) for p in block]

    def test_wolstenholme_primes_in_blocks(self):
        # 2124679 runs in column blocks of the default buffer.
        assert _w_mod_block((16831, 16843, 16871))[1] == 0
        w = _w_mod_block((2124667, 2124679, 2124757))
        assert w[1] == 0 and w[0] != 0 and w[2] != 0

    def test_block_errors_name_the_prime(self, monkeypatch):
        with pytest.raises(PreconditionError, match="p=9 "):
            _w_mod_block((5, 7, 9, 11))
        # 2 is a primitive root mod 5 and mod 11, but has order 3 mod 7.
        monkeypatch.setattr(kernel, "_primitive_root", lambda p: 2)
        with pytest.raises(WolstenError, match="self-check failed at p=7"):
            _w_mod_block((5, 7, 11))

    def test_threads_take_separate_buffers(self):
        blocks = [tuple(primes_in_range(lo, lo + 3000)) for lo in (5, 20000, 40000, 60000)]
        expected = [_w_mod_block(b) for b in blocks]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(_w_mod_block, b) for b in blocks * 3]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(old)
        assert results == expected * 3

    def test_block_memory_does_not_grow_with_its_primes(self):
        primes = primes_in_range(40000, 50000)[:64]
        _w_mod_block(tuple(primes))  # the buffers exist from here on
        peaks = []
        for n in (8, 64):
            tracemalloc.start()
            _w_mod_block(tuple(primes[:n]))
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        # One lane buffer alone is 1 MiB; what a block allocates is small
        # and the same for 8 primes and for 64.
        assert peaks[1] < 64 * 1024, peaks
        assert peaks[1] < peaks[0] + 8 * 1024, peaks

    def test_against_exact_bernoulli(self):
        # -3 w_p == B_{p-3} (mod p), with B_{p-3} from the exact recurrence
        for p in primes_in_range(5, 403):
            b = bernoulli_pm3_mod_p(p, route="exact").value
            assert -3 * _w_mod_p(p) % p == b, p
        assert _w_mod_p(5) == 3  # w_5 = 23

    def test_against_harmonic_quotient(self):
        # w_p from H(1;p-1) mod p^4, summed term by term
        for p in primes_in_range(5, 1999):
            assert _w_mod_p(p) == wolstenholme_quotient(p).value % p, p

    def test_against_exact_harmonic(self):
        # H(1;p-1) == w_p p^2 (mod p^3), with H(1;p-1) an exact rational
        for p in (5, 7, 13, 101):
            h = mhs_exact(Composition.of(1), p - 1)
            h3 = reduce_mod(h, PrimePower(p, 3)).value
            assert _w_mod_p(p) * p * p % p**3 == h3

    def test_wolstenholme_primes(self):
        for prev, p, nxt in ((16831, 16843, 16871), (2124667, 2124679, 2124757)):
            assert primes_in_range(prev, nxt) == [prev, p, nxt]
            assert _w_mod_p(p) == 0
            assert _w_mod_p(prev) != 0 and _w_mod_p(nxt) != 0

    def test_range_guard_names_p(self):
        p = next(q for q in range(KERNEL_P_LIMIT, KERNEL_P_LIMIT + 1000) if is_prime(q))
        with pytest.raises(PreconditionError, match=str(p)):
            _w_mod_p(p)
        with pytest.raises(PreconditionError, match="p=9 "):
            _w_mod_p(9)

    def test_self_check_rejects_a_non_primitive_root(self, monkeypatch):
        # mod 7: 2 has order 3, so the enumeration never reaches -1; 6 = -1
        # reaches it but folds onto 1 only
        for g in (2, 6):
            monkeypatch.setattr(kernel, "_primitive_root", lambda p, g=g: g)
            with pytest.raises(WolstenError, match="self-check failed at p=7"):
                _w_mod_p(7)


class TestScan:
    def test_no_irregular_below_100(self):
        records = irregular_scan(5, 100)
        assert [r.p for r in records] == primes_in_range(5, 100)
        assert not any(r.irregular for r in records)

    def test_w_consistent_with_quotient(self):
        records = irregular_scan(5, 60)
        for rec in records:
            assert rec.w_mod_p == wolstenholme_quotient(rec.p).value % rec.p

    def test_glaisher_by_construction(self):
        for rec in irregular_scan(5, 60):
            assert rec.b_pm3_mod_p == -3 * rec.w_mod_p % rec.p

    def test_records_skip_the_primality_test(self, monkeypatch):
        # The sieve already found these primes; building records must not
        # run Miller-Rabin on each of them again.
        calls = []
        monkeypatch.setattr(padic, "is_prime", lambda n: calls.append(n) or True)
        irregular_scan(5, 2000)
        assert calls == []

    def test_workers_do_not_change_output(self):
        base = records_to_jsonl(irregular_scan(5, 2000, workers=1))
        for workers in (2, 8):
            assert records_to_jsonl(irregular_scan(5, 2000, workers=workers)) == base

    @pytest.mark.parametrize(
        "lo, hi, blocks",
        [(22_000_000, 22_000_040, 2),  # five primes past the split threshold
         (16810, 16845, 1)],  # five cheap ones: one inline block, no pool
    )
    def test_narrow_window_blocks(self, monkeypatch, lo, hi, blocks):
        assert len(primes_in_range(lo, hi)) == 5
        calls = []

        def recording_map(fn, items, workers):
            calls.append(list(items))
            return parallel_map(fn, calls[-1], workers)

        monkeypatch.setattr(bernoulli, "parallel_map", recording_map)
        records = irregular_scan(lo, hi, workers=2)
        assert len(calls[0]) == blocks
        assert records == irregular_scan(lo, hi, workers=1)

    def test_jsonl_shape(self):
        lines = records_to_jsonl(irregular_scan(5, 12)).splitlines()
        objs = [json.loads(line) for line in lines]
        assert [o["p"] for o in objs] == [5, 7, 11]
        assert objs[0] == {"p": 5, "w_mod_p": "3", "b_pm3_mod_p": "1", "irregular": False}
        assert all(isinstance(o["w_mod_p"], str) for o in objs)

    def test_csv_shape(self):
        text = records_to_csv(irregular_scan(5, 12))
        lines = text.splitlines()
        assert lines[0] == "p,w_mod_p,b_pm3_mod_p,irregular"
        assert lines[1] == "5,3,1,false"

    def test_checkpoint_written(self, tmp_path):
        ck = tmp_path / "scan.ck"
        irregular_scan(5, 300, checkpoint_path=str(ck))
        data = read_checkpoint(str(ck))
        assert data["last_p"] == primes_in_range(5, 300)[-1]
        assert data["p_max"] == 300

    def test_checkpoint_replaced_atomically(self, tmp_path, monkeypatch):
        ck = tmp_path / "scan.ck"
        irregular_scan(5, 300, checkpoint_path=str(ck))
        before = ck.read_bytes()

        def killed_mid_write(obj, fh):
            fh.write('{"p_min": 5, "p_m')
            raise KeyboardInterrupt

        monkeypatch.setattr(bernoulli.json, "dump", killed_mid_write)
        with pytest.raises(KeyboardInterrupt):
            irregular_scan(5, 400, checkpoint_path=str(ck))
        assert ck.read_bytes() == before

    def test_truncated_checkpoint_names_path(self, tmp_path):
        ck = tmp_path / "scan.ck"
        ck.write_text('{"p_min": 5, "p_m')
        with pytest.raises(WolstenError, match="scan.ck"):
            read_checkpoint(str(ck))
        ck.write_text('{"p_min": 5, "p_max": 400}\n')
        with pytest.raises(WolstenError, match="last_p"):
            read_checkpoint(str(ck))

    def test_min_clamped_to_five(self):
        records = irregular_scan(2, 12)
        assert [r.p for r in records] == [5, 7, 11]
