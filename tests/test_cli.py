import argparse
import ast
import itertools
import hashlib
import importlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import grid_domain_reference as reference
import pytest

from wolsten import bernoulli, checks_binomial, cli, report, suite
from wolsten.cli import main
from wolsten.errors import BudgetExceededError, WolstenError
from wolsten.parallel import parallel_map
from wolsten.report import encode_report
from wolsten.suite import check_main


def run_cli(*argv):
    return main(list(argv))


class TestVerify:
    def test_grid_all_pass(self, capsys):
        assert run_cli("verify", "--claim", "main", "--p", "7", "--n-max", "12") == 0
        out = capsys.readouterr().out
        assert "main_p5: 91/91 pass" in out

    def test_negative_control_exits_one(self, capsys, tmp_path):
        out_file = tmp_path / "rep.json"
        code = run_cli(
            "verify", "--claim", "main", "--p", "5", "--n", "4", "--r", "1",
            "--out", str(out_file),
        )
        assert code == 1
        obj = json.loads(out_file.read_text().splitlines()[0])
        assert obj["lhs"]["residue"] == "751"
        assert obj["rhs"]["residue"] == "126"
        assert obj["verdict"] == "fail"

    def test_csv_output(self, tmp_path):
        out_file = tmp_path / "rep.csv"
        run_cli(
            "verify", "--claim", "bailey4", "--p", "7", "--n", "2", "--r", "1",
            "--out", str(out_file), "--format", "csv",
        )
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("claim_id,")
        assert lines[1].startswith("bailey4,7,")

    def test_workers_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify", "--claim", "thm2_case1", "--p", "7", "--N-max", "3",
                "--n-max", "4", "--out"]
        assert run_cli(*args, str(a)) == 0
        assert run_cli(*args, str(b), "--workers", "2") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bailey5_workers_byte_identical(self, tmp_path):
        for fmt in ("json", "csv"):
            a, b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
            args = ["verify", "--claim", "bailey5", "--pmin", "13", "--pmax", "17",
                    "--N-max", "2", "--n-max", "12", "--format", fmt, "--out"]
            assert run_cli(*args, str(a), "--workers", "1") == 0
            assert run_cli(*args, str(b), "--workers", "2") == 0
            assert a.read_bytes() == b.read_bytes()

    def test_failures_byte_identical_across_workers(self, tmp_path, capsys):
        # 37 of the 91 checks fail at p = 5, so the summary stops at 20.
        seen = []
        for workers in ("1", "2"):
            for fmt in ("json", "csv"):
                out = tmp_path / f"w{workers}.{fmt}"
                assert run_cli("verify", "--claim", "main", "--p", "5", "--n-max", "12",
                               "--workers", workers, "--format", fmt, "--out", str(out)) == 1
                seen.append((capsys.readouterr().out, out.read_bytes()))
        assert seen[:2] == seen[2:]
        assert seen[0][0] == seen[1][0]
        lines = seen[0][0].splitlines()
        assert lines[0] == "main_p5: 54/91 pass"
        assert len(lines) == 22 and lines[-1] == "  ..."
        assert all(line.startswith("  FAIL p=5 ") for line in lines[1:21])

    @pytest.mark.parametrize("extra", [(), ("--precision", "7")])
    def test_exploratory_on_two_workers_exits_zero(self, extra, capsys):
        # At p^7 33 of the 60 checks fail; the verdicts are still not asserted.
        assert run_cli("verify", "--claim", "thm2_case2", "--p", "5",
                       "--N-max", "3", "--n-max", "4", "--workers", "2", *extra) == 0
        out = capsys.readouterr().out
        assert out.endswith("exploratory run: verdicts reported, not asserted\n")
        assert ("  FAIL p=5 " in out) == bool(extra)

    def test_prime_range(self, capsys):
        assert run_cli("verify", "--claim", "prop_ijk", "--pmin", "3", "--pmax", "31") == 0
        assert "10/10 pass" in capsys.readouterr().out

    @pytest.mark.parametrize("claim, pmin, pmax, summary", [
        ("h12", "5", "60", "h12: 28/28 pass"),
        ("wolstenholme", "2", "30", "wolstenholme: 8/8 pass"),
    ])
    def test_range_skips_primes_below_the_claims_smallest(self, claim, pmin, pmax, summary,
                                                          capsys):
        assert run_cli("verify", "--claim", claim, "--pmin", pmin, "--pmax", pmax) == 0
        assert capsys.readouterr().out == summary + "\n"

    def test_explicit_prime_below_the_claims_smallest_exits_two(self, capsys):
        assert run_cli("verify", "--claim", "h12", "--p", "5") == 2
        assert "p=5" in capsys.readouterr().err

    def test_range_wholly_below_the_claims_smallest_exits_two(self, capsys):
        assert run_cli("verify", "--claim", "h12", "--pmin", "2", "--pmax", "6") == 2
        err = capsys.readouterr().err
        assert "[2, 6] has no prime >= 7" in err and "h12" in err

    @pytest.mark.parametrize("pmin, pmax", [
        ("5", "1000000000000"),
        ("10000000", "10000020"),  # --pmax is bounded however narrow the range
    ])
    def test_range_past_the_sieve_bound_exits_two_at_once(self, pmin, pmax, capsys):
        start = time.perf_counter()
        assert run_cli("verify", "--claim", "wolstenholme", "--pmin", pmin, "--pmax", pmax) == 2
        assert time.perf_counter() - start < 0.5
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: --pmin {pmin} --pmax {pmax}: ") and "--p" in err

    def test_oversized_grid_exits_two_before_enumerating(self, monkeypatch, capsys):
        # 100001 * 100001 * 7 * 7 points: enumerating them would exhaust memory.
        def refuse(*args, **kwargs):
            raise AssertionError("enumerated a grid past the bound")

        monkeypatch.setattr(cli, "grid_blocks", refuse)
        start = time.perf_counter()
        assert run_cli("verify", "--claim", "bailey5", "--p", "7",
                       "--N-max", "100000", "--n-max", "6") == 2
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: --N-max 100000 --n-max 6: the grid has 490009800049 points")

    @pytest.mark.parametrize("claim, primes, caps, clamped", [
        ("thm2_case1", ("--p", "7"), ("--N-max", "2"), "6"),
        ("bailey5", ("--pmin", "7", "--pmax", "12"), ("--N-max", "1"), "10"),
        ("thm2_case2", ("--p", "7"), ("--N-max", "1"), "6"),
    ])
    def test_n_cap_past_p_is_clamped_before_counting(self, claim, primes, caps, clamped,
                                                     tmp_path, capsys):
        # n, r < p in these claims' domains: --n-max 2000 counts as the largest
        # prime less one, past the bound untrimmed, and runs the same points.
        for n_max in ("2000", clamped):
            assert run_cli("verify", "--claim", claim, *primes, *caps, "--n-max", n_max,
                           "--out", str(tmp_path / f"{n_max}.json")) == 0
        assert (tmp_path / "2000.json").read_bytes() == (tmp_path / f"{clamped}.json").read_bytes()
        out = capsys.readouterr().out.splitlines()
        assert out[0] == out[1]

    @pytest.mark.parametrize("n_failed, ellipsis", [(20, False), (21, True)])
    def test_fail_summary_ellipsis_only_when_lines_are_left_out(
        self, n_failed, ellipsis, monkeypatch, capsys
    ):
        rep = check_main(5, 4, 1)
        assert not rep.ok

        def blocks(claim_id, primes, ranges, spill, *args, **kwargs):
            path = Path(spill) / "0.json"
            path.write_text(encode_report(rep), encoding="utf-8")
            return [(str(path), {5: 1}, [rep])] * n_failed

        monkeypatch.setattr(cli, "grid_blocks", blocks)
        assert run_cli("verify", "--claim", "main", "--p", "5", "--n", "4", "--r", "1") == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"main_p5: 0/{n_failed} pass"
        assert len([line for line in lines if line.startswith("  FAIL p=5 ")]) == 20
        assert (lines[-1] == "  ...") == ellipsis
        assert len(lines) == 21 + ellipsis

    def test_fail_summary_in_ascending_order_on_any_worker_count(self, monkeypatch, capsys):
        # A slab minimum of 5 cuts the 169 points into 4 slabs per worker.
        monkeypatch.setattr(suite, "_SLAB_MIN", 5)
        outs = []
        for workers in ("1", "2"):
            assert run_cli("verify", "--claim", "main", "--p", "5", "--n-max", "12",
                           "--workers", workers) == 1
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        failed = [r for r in suite.grid_reports("main_p5", 5, {"n": range(13), "r": range(13)})
                  if not r.ok]
        lines = outs[0].splitlines()
        assert lines[0] == "main_p5: 54/91 pass" and lines[-1] == "  ..." and len(failed) == 37
        shown = [ast.literal_eval(line.split("p=5 ", 1)[1].split(": lhs=")[0])
                 for line in lines[1:21]]
        assert shown == [r.params for r in failed[:20]]
        assert shown == sorted(shown, key=lambda params: (params["n"], params["r"]))

    def test_exploratory_p5_case2_exits_zero(self, capsys):
        code = run_cli(
            "verify", "--claim", "thm2_case2", "--p", "5",
            "--N-max", "6", "--n-max", "4",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "exploratory" in out

    def test_precision_override(self, capsys):
        code = run_cli(
            "verify", "--claim", "bailey5", "--p", "5", "--N", "3", "--R", "1",
            "--n", "4", "--r", "1", "--precision", "5",
        )
        assert code == 1  # Remark: fails at p^5 though it passes at p^3

    def test_genwols_claim(self):
        assert run_cli("verify", "--claim", "genwols", "--p", "11", "--s", "1", "--d", "3") == 0

    def test_ji_claim(self):
        assert run_cli("verify", "--claim", "ji_zhoucai", "--p", "11", "--n-parts", "4") == 0

    def test_h12_alias(self):
        assert run_cli("verify", "--claim", "h12p", "--p", "7") == 0


class TestVerifyUsageErrors:
    def test_unknown_claim(self, capsys):
        assert run_cli("verify", "--claim", "riemann", "--p", "7") == 2
        assert "unknown claim" in capsys.readouterr().err

    def test_missing_params(self, capsys):
        assert run_cli("verify", "--claim", "main", "--p", "7") == 2

    def test_composite_p(self, capsys):
        assert run_cli("verify", "--claim", "main", "--p", "9", "--n", "2", "--r", "1") == 2

    def test_missing_p(self):
        assert run_cli("verify", "--claim", "wolstenholme") == 2

    def test_fixed_precision_rejected(self, capsys):
        assert run_cli("verify", "--claim", "cor_ijk", "--p", "7", "--precision", "3") == 2
        err = capsys.readouterr().err
        assert "cor_ijk" in err and "precision" in err and len(err.splitlines()) == 1

    def test_unused_flag_rejected(self, capsys):
        code = run_cli("verify", "--claim", "main", "--p", "7", "--n-max", "3",
                       "--N", "4", "--s", "9")
        assert code == 2
        assert capsys.readouterr().err == "error: claim 'main_p5' does not take --N\n"

    def test_unused_max_flag_rejected(self, capsys):
        assert run_cli("verify", "--claim", "genwols", "--p", "11", "--s", "1", "--d", "3",
                       "--n-max", "4") == 2
        assert "does not take --n-max" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (("--claim", "main_exp", "--p", "7", "--n", "2", "--r", "1"), "--e"),
        (("--claim", "genwols", "--p", "11"), "--s"),
        (("--claim", "genwols", "--p", "11", "--s", "1"), "--d"),
        (("--claim", "ji_zhoucai", "--p", "11"), "--n-parts"),
    ])
    def test_missing_scalar_flag(self, argv, flag, capsys):
        assert run_cli("verify", *argv) == 2
        claim = argv[1]
        assert capsys.readouterr().err == f"error: claim {claim!r} needs {flag}\n"

    @pytest.fixture
    def refuse_from_n3_at_89(self, monkeypatch):
        """binom_mod refuses p = 89's arguments from 3 * 89^3 on, in workers too:
        each run's pool forks its workers after this patch."""
        binom_mod = checks_binomial.binom_mod

        def refuse(a, b, m):
            if m.p == 89 and a >= 3 * 89**3:
                raise BudgetExceededError(f"binom({a}, {b}) refused")
            return binom_mod(a, b, m)

        monkeypatch.setattr(checks_binomial, "binom_mod", refuse)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_budget_error_names_the_check(self, workers, refuse_from_n3_at_89, monkeypatch,
                                          capsys):
        # A slab per point: on 2 workers the error crosses the pool.  A grid
        # runs its points first to last, so the error names R = 0.
        monkeypatch.setattr(suite, "_SLAB_MIN", 1)
        code = run_cli("verify", "--claim", "bailey5", "--p", "89", "--N", "6", "--R-max", "3",
                       "--n", "5", "--r", "2", "--workers", workers)
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "error: bailey5 p=89 {'N': 6, 'R': 0, 'n': 5, 'r': 2}: binom(4229819, 2) refused\n"
        )

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_grid_past_the_p_bound_fails_before_other_work(self, workers, capsys):
        # The first prime past 2^21.  The grid's points with N = 0 and its
        # b <= 1 ones are exact; the first point on the modular route, N =
        # 1 and r = 2, raises before any other.  main's w_p would take
        # seconds; its modular side is refused first.
        for argv in (("bailey5", "--N-max", "6", "--n-max", "5"), ("main", "--n", "2", "--r", "1")):
            start = time.perf_counter()
            code = run_cli("verify", "--claim", argv[0], "--p", "2097169", *argv[1:],
                           "--workers", workers)
            assert code == 2 and time.perf_counter() - start < 1.0
            out, err = capsys.readouterr()
            assert out == "" and err == "error: p=2097169: the modular binomials need p < 2097152\n"

    @pytest.mark.parametrize("slab_min", [None, 100])
    def test_a_failing_point_is_named_the_same_on_any_worker_count(
        self, slab_min, refuse_from_n3_at_89, monkeypatch, capsys
    ):
        # Every point from N = 3 on at p = 89 raises, in several slabs; the
        # stream's first, N = 3 and r = 2, is named.  A slab minimum of 100
        # cuts the 4802 points into 8 slabs on 2 workers.
        if slab_min is not None:
            monkeypatch.setattr(suite, "_SLAB_MIN", slab_min)
        errs = []
        for workers in ("1", "2"):
            assert run_cli("verify", "--claim", "bailey5", "--pmin", "83", "--pmax", "89",
                           "--N-max", "6", "--n-max", "6", "--workers", workers) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            errs.append(err)
        assert errs[0] == errs[1]
        assert errs[0].startswith("error: bailey5 p=89 {'N': 3, 'R': 0, 'n': 0, 'r': 2}: ")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failing_grid_leaves_no_out_and_no_spill(self, workers, refuse_from_n3_at_89,
                                                     monkeypatch, tmp_path, capsys):
        # The slab files go to a hidden directory beside --out, which an
        # error removes, after every running slab has finished; p = 83's
        # slabs have written theirs.
        monkeypatch.setattr(suite, "_SLAB_MIN", 100)
        out = tmp_path / "grid.json"
        assert run_cli("verify", "--claim", "bailey5", "--pmin", "83", "--pmax", "89",
                       "--N-max", "6", "--n-max", "6", "--workers", workers,
                       "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith(
            "error: bailey5 p=89 {'N': 3, 'R': 0, 'n': 0, 'r': 2}: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_grid_leaves_only_its_out(self, workers, tmp_path, monkeypatch, capsys):
        # Without --out the slab files go to the system temporary directory.
        system_tmp = tmp_path / "tmp"
        system_tmp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(system_tmp))
        monkeypatch.setattr(suite, "_SLAB_MIN", 5)
        argv = ("verify", "--claim", "main", "--p", "7", "--n-max", "12", "--workers", workers)
        assert run_cli(*argv, "--out", str(tmp_path / "grid.json")) == 0
        assert run_cli(*argv) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.json", "tmp"]
        assert list(system_tmp.iterdir()) == []
        assert capsys.readouterr().out == "main_p5: 91/91 pass\n" * 2

    def test_spill_beside_an_unwritable_directory_goes_to_the_system_one(
        self, tmp_path, monkeypatch, capsys
    ):
        # An existing --out may be writable in a directory that takes no new
        # entry; its spill directory then goes to the system one.
        out = tmp_path / "grid.json"
        out.write_text("old")
        system_tmp = tmp_path / "tmp"
        system_tmp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(system_tmp))
        made = []
        mkdtemp = tempfile.mkdtemp

        def refuse_beside_out(suffix=None, prefix=None, dir=None):
            if dir is not None and Path(dir) == tmp_path:
                raise PermissionError(13, "Permission denied")
            made.append(mkdtemp(suffix, prefix, dir))
            return made[-1]

        monkeypatch.setattr(tempfile, "mkdtemp", refuse_beside_out)
        assert run_cli("verify", "--claim", "main", "--p", "7", "--n-max", "3",
                       "--out", str(out)) == 0
        assert [Path(d).parent for d in made] == [system_tmp]
        assert out.read_text().count("\n") == 10 and list(system_tmp.iterdir()) == []

    def test_spill_write_failure_exits_two(self, tmp_path, monkeypatch, capsys):
        def full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(suite, "open", full, raising=False)
        out = tmp_path / "grid.json"
        assert run_cli("verify", "--claim", "main", "--p", "7", "--n-max", "3",
                       "--out", str(out)) == 2
        out_text, err = capsys.readouterr()
        assert out_text == "" and err.count("\n") == 1
        assert err.startswith("error: cannot write the report to ")
        assert err.endswith(": No space left on device\n")
        assert list(tmp_path.iterdir()) == []

    def test_out_of_domain_scalar(self, capsys):
        code = run_cli("verify", "--claim", "thm2_case2", "--p", "7",
                       "--N", "1", "--R", "0", "--n", "3", "--r", "3")
        assert code == 2


class TestParamRanges:
    # Flag sets: none, grids, caps past p and past the grid bound, scalars
    # (some with a cap on their pair's other member), and flags a claim
    # does not take.
    _FLAG_SETS = [
        {}, {"n_max": 12}, {"N_max": 6, "n_max": 12}, {"r_max": 5},
        {"N_max": 3, "R_max": 1, "n_max": 20, "r_max": 3}, {"N_max": 2, "n_max": 2000},
        {"n": 4, "r": 1}, {"N": 2, "R": 1, "n": 3, "r": 1}, {"n": 4, "r_max": 30},
        {"N": 2, "R_max": 3, "n_max": 20}, {"R_max": 2, "N": 3, "n_max": 8},
        {"n_max": 4, "e": 2}, {"n": 2, "r": 1, "e": 3}, {"s": 1, "d": 3}, {"s": 2}, {"n_parts": 4},
        {"N_max": 100000, "n_max": 6}, {"N_max": 30, "n_max": 1000}, {"n_max": 3, "N": 4},
    ]

    @pytest.mark.parametrize("claim", suite.CLAIMS, ids=lambda c: c.id)
    def test_ranges_are_the_parents(self, claim):
        # cli._param_ranges reads the cap rules from the registry; the
        # reference keeps them in the CLI, keyed by claim id.
        cli._load("suite")
        seen = set()
        for flags, p_top in itertools.product(self._FLAG_SETS, (5, 7, 13, 101)):
            args = argparse.Namespace(**{dest: flags.get(dest) for dest in suite.PARAM_DESTS})
            outcomes = []
            for param_ranges in (cli._param_ranges, reference.param_ranges):
                try:
                    outcomes.append(param_ranges(claim, args, p_top))
                except WolstenError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (flags, p_top)
            seen.add(type(outcomes[0]))
        assert seen == {dict, str}


class TestUnwritableOutput:
    # Exit 1 means a failed check; a path that cannot be written is a
    # configuration error, found before the work starts.
    @pytest.fixture(params=["missing-dir", "directory"])
    def bad_path(self, request, tmp_path):
        return tmp_path / "missing" / "x.json" if request.param == "missing-dir" else tmp_path

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("started the work before checking the output path")

        monkeypatch.setattr(bernoulli, "primes_in_range", refuse)
        monkeypatch.setattr(cli, "grid_blocks", refuse)
        monkeypatch.setattr(cli, "find_exact_quadruples", refuse)

    @pytest.mark.parametrize("argv", [
        ("verify", "--claim", "main", "--p", "7", "--n-max", "4"),
        ("search", "--p", "7"),
        ("scan", "--pmin", "5", "--pmax", "2000"),
    ], ids=("verify", "search", "scan"))
    def test_out_exits_two(self, argv, bad_path, no_work, capsys):
        assert run_cli(*argv, "--out", str(bad_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {bad_path}: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_scan_checkpoint_exits_two(self, tmp_path, no_work, capsys):
        ck = tmp_path / "missing" / "ck.json"
        assert run_cli("scan", "--pmax", "2000", "--checkpoint", str(ck)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {ck}: ") and len(err.splitlines()) == 1


class TestScan:
    def test_output_and_summary(self, tmp_path, capsys):
        out_file = tmp_path / "irr.json"
        assert run_cli("scan", "--pmin", "5", "--pmax", "300", "--out", str(out_file)) == 0
        lines = out_file.read_text().splitlines()
        objs = [json.loads(line) for line in lines]
        assert objs[0]["p"] == 5
        assert not any(o["irregular"] for o in objs)
        assert "scanned 60 primes" in capsys.readouterr().err

    def test_csv_format(self, tmp_path):
        out_file = tmp_path / "irr.csv"
        run_cli("scan", "--pmin", "5", "--pmax", "50", "--out", str(out_file),
                "--format", "csv")
        lines = out_file.read_text().splitlines()
        assert lines[0] == "p,w_mod_p,b_pm3_mod_p,irregular"
        assert len(lines) == 1 + 13

    def test_workers_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("scan", "--pmin", "5", "--pmax", "1000", "--out", str(a))
        run_cli("scan", "--pmin", "5", "--pmax", "1000", "--out", str(b),
                "--workers", "3")
        assert a.read_bytes() == b.read_bytes()

    def test_resume_appends_remaining_range(self, tmp_path):
        full, part = tmp_path / "full.json", tmp_path / "part.json"
        ck = tmp_path / "scan.ck"
        run_cli("scan", "--pmin", "5", "--pmax", "400", "--out", str(full))
        run_cli("scan", "--pmin", "5", "--pmax", "97", "--out", str(part))
        ck.write_text(json.dumps({"p_min": 5, "p_max": 400, "last_p": 97}) + "\n")
        run_cli("scan", "--pmin", "5", "--pmax", "400", "--out", str(part),
                "--checkpoint", str(ck), "--resume")
        assert part.read_bytes() == full.read_bytes()

    def test_csv_resume_appends_remaining_range(self, tmp_path):
        full, part = tmp_path / "full.csv", tmp_path / "part.csv"
        ck = tmp_path / "scan.ck"
        run_cli("scan", "--pmin", "5", "--pmax", "400", "--out", str(full), "--format", "csv")
        run_cli("scan", "--pmin", "5", "--pmax", "97", "--out", str(part), "--format", "csv")
        ck.write_text(json.dumps({"p_min": 5, "p_max": 400, "last_p": 97}) + "\n")
        run_cli("scan", "--pmin", "5", "--pmax", "400", "--out", str(part), "--format", "csv",
                "--checkpoint", str(ck), "--resume")
        assert part.read_bytes() == full.read_bytes()
        assert part.read_text().count("p,w_mod_p") == 1

    @pytest.mark.parametrize("fmt, head", [
        ("json", '{"p":5,"w_mod_p":"3","b_pm3_mod_p":"1","irregular":false}\n'),
        ("csv", "p,w_mod_p,b_pm3_mod_p,irregular\n5,3,1,false\n"),
    ])
    def test_first_record_bytes(self, fmt, head, capsys):
        assert run_cli("scan", "--pmax", "100", "--format", fmt) == 0
        assert capsys.readouterr().out.startswith(head)

    def test_resume_keeps_the_scan_range(self, tmp_path):
        part, ck = tmp_path / "part.json", tmp_path / "scan.ck"
        run_cli("scan", "--pmin", "5", "--pmax", "97", "--out", str(part))
        ck.write_text(json.dumps({"p_min": 5, "p_max": 400, "last_p": 97}) + "\n")
        args = ("scan", "--pmin", "5", "--pmax", "400", "--out", str(part),
                "--checkpoint", str(ck), "--resume")
        assert run_cli(*args) == 0
        done = part.read_bytes()
        assert bernoulli.read_checkpoint(str(ck))["p_min"] == 5
        assert run_cli(*args) == 0
        assert part.read_bytes() == done

    def test_resume_without_checkpoint_keeps_output(self, tmp_path, capsys):
        out, ck = tmp_path / "out.json", tmp_path / "scan.ck"
        run_cli("scan", "--pmin", "5", "--pmax", "30", "--out", str(out))
        before = out.read_bytes()
        capsys.readouterr()
        assert run_cli("scan", "--pmin", "5", "--pmax", "30", "--out", str(out),
                       "--checkpoint", str(ck), "--resume") == 2
        err = capsys.readouterr().err
        assert str(out) in err and str(ck) in err and len(err.splitlines()) == 1
        assert out.read_bytes() == before

    def test_resume_without_output_keeps_checkpoint(self, tmp_path, capsys):
        out, ck = tmp_path / "out.json", tmp_path / "scan.ck"
        ck.write_text(json.dumps({"p_min": 5, "p_max": 400, "last_p": 97}) + "\n")
        before = ck.read_bytes()
        assert run_cli("scan", "--pmin", "5", "--pmax", "400", "--out", str(out),
                       "--checkpoint", str(ck), "--resume") == 2
        err = capsys.readouterr().err
        assert str(out) in err and str(ck) in err and len(err.splitlines()) == 1
        assert not out.exists() and ck.read_bytes() == before

    def test_resume_with_other_pmin(self, tmp_path, capsys):
        out, ck = tmp_path / "out.json", tmp_path / "scan.ck"
        run_cli("scan", "--pmin", "7", "--pmax", "30", "--out", str(out), "--checkpoint", str(ck))
        before = out.read_bytes()
        capsys.readouterr()
        assert run_cli("scan", "--pmin", "5", "--pmax", "30", "--out", str(out),
                       "--checkpoint", str(ck), "--resume") == 2
        err = capsys.readouterr().err
        assert str(ck) in err and "[7, 30]" in err and len(err.splitlines()) == 1
        assert out.read_bytes() == before

    def test_resume_requires_checkpoint(self, capsys):
        assert run_cli("scan", "--pmax", "100", "--resume") == 2

    def test_resume_from_truncated_checkpoint(self, tmp_path, capsys):
        ck = tmp_path / "scan.ck"
        ck.write_text('{"p_min": 5, "p_max": 4')
        assert run_cli("scan", "--pmax", "400", "--checkpoint", str(ck), "--resume") == 2
        err = capsys.readouterr().err
        assert f"cannot read checkpoint {ck}" in err and "Traceback" not in err

    @pytest.mark.parametrize("pmin, pmax", [(10, 5), (2, 4)])
    def test_range_below_five_or_inverted_exits_two(self, tmp_path, pmin, pmax, capsys):
        out_file = tmp_path / "s.json"
        out_file.write_text("kept\n")
        assert run_cli("scan", "--pmin", str(pmin), "--pmax", str(pmax), "--out", str(out_file)) == 2
        err = capsys.readouterr().err
        assert err == f"error: --pmax {pmax} must be at least --pmin {pmin} and at least 5\n"
        assert out_file.read_text() == "kept\n"

    def test_window_without_a_prime_exits_zero(self, tmp_path, capsys):
        out_file = tmp_path / "s.json"
        assert run_cli("scan", "--pmin", "24", "--pmax", "28", "--out", str(out_file)) == 0
        assert out_file.read_text() == ""

    def test_resume_checks_the_full_range(self, tmp_path, capsys):
        # Nothing is left after the checkpoint's last prime, and [5, 100] is valid.
        out_file, ck = tmp_path / "s.json", tmp_path / "scan.ck"
        assert run_cli("scan", "--pmax", "100", "--out", str(out_file)) == 0
        text = out_file.read_text()
        ck.write_text('{"p_min": 5, "p_max": 100, "last_p": 97}')
        argv = ("scan", "--pmax", "100", "--out", str(out_file), "--checkpoint", str(ck), "--resume")
        assert run_cli(*argv) == 0
        assert out_file.read_text() == text

    def test_past_kernel_bound_exits_two(self, monkeypatch, capsys):
        def no_sieve(lo, hi):
            raise AssertionError("sieved a range past the kernel bound")

        monkeypatch.setattr(bernoulli, "primes_in_range", no_sieve)
        assert run_cli("scan", "--pmin", "3030000000", "--pmax", "3030000100") == 2
        assert "p_max=3030000100" in capsys.readouterr().err

    def test_oversized_window_exits_two_before_sieving(self, monkeypatch, capsys):
        def no_sieve(lo, hi):
            raise AssertionError("sieved a window past the bound")

        monkeypatch.setattr(bernoulli, "primes_in_range", no_sieve)
        start = time.perf_counter()
        assert run_cli("scan", "--pmin", "5", "--pmax", "3000000000") == 2
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err == "error: --pmin 5 --pmax 3000000000: a window must be under 10000000\n"


class TestSearch:
    def test_p7_output(self, tmp_path, capsys):
        out_file = tmp_path / "hits.json"
        assert run_cli("search", "--p", "7", "--out", str(out_file)) == 0
        objs = [json.loads(line) for line in out_file.read_text().splitlines()]
        nontrivial = [(o["N"], o["R"], o["n"], o["r"]) for o in objs if o["nontrivial"]]
        assert len(nontrivial) == 7 and (4, 2, 5, 2) in nontrivial
        assert "7 nontrivial" in capsys.readouterr().err

    def test_first_hit_bytes(self, capsys):
        assert run_cli("search", "--p", "7") == 0
        out = capsys.readouterr().out
        assert out.startswith('{"N":1,"R":1,"n":1,"r":1,"nontrivial":false}\n')

    def test_p17_without_size_cap(self, tmp_path, capsys):
        out_file = tmp_path / "hits.json"
        assert run_cli("search", "--p", "17", "--workers", "2", "--out", str(out_file)) == 0
        assert len(out_file.read_text().splitlines()) == 304
        assert "p=17: 304 hits" in capsys.readouterr().err
        assert run_cli("search", "--p", "7", "--method", "modular") == 0

    def test_p47_past_the_old_table(self, capsys):
        # (p-1) p^3 + p - 1 was past binom_mod's old 2^22-entry prefix
        # table; the search computes no binomial anyway.
        assert run_cli("search", "--p", "47") == 0
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 2629 and err.startswith("p=47: 2629 hits")

    def test_past_the_bound_exits_two_at_once(self, capsys):
        # 131 is the first prime past cli._SEARCH_P_MAX.
        start = time.perf_counter()
        assert run_cli("search", "--p", "131", "--workers", "2") == 2
        assert time.perf_counter() - start < 0.5
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --p 131: the search takes primes up to 127\n"

    @pytest.mark.parametrize("p", ["100000007", "1000000000000"])
    def test_huge_p_exits_two_at_once(self, p, capsys):
        start = time.perf_counter()
        assert run_cli("search", "--p", p) == 2
        assert time.perf_counter() - start < 0.5
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: --p {p}: the search takes primes up to 127\n"

    @pytest.mark.parametrize("p, workers", [(17, 1), (37, 2)])
    def test_pool_only_where_it_pays(self, p, workers, monkeypatch):
        # (p(p-1)/2)^2 tuples at 0.45 us: 8 ms at p = 17 and 0.2 s at
        # p = 37, against twice the pool's start, 0.16 s.
        seen = []

        def record(fn, items, w):
            seen.append(w)
            return parallel_map(fn, items, w)

        monkeypatch.setattr(suite, "parallel_map", record)
        suite.find_exact_quadruples(p, workers=2)
        assert seen == [workers]

    @pytest.mark.parametrize("flag, value", [("--method", "exact"), ("--budget", "1")])
    def test_removed_options_exit_two(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("search", "--p", "7", flag, value)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and flag in err


class TestAdHoc:
    def test_mhs_exact(self, capsys):
        assert run_cli("mhs", "--s", "1,2", "--n", "4") == 0
        assert "17/32" in capsys.readouterr().out

    def test_mhs_mod(self, capsys):
        assert run_cli("mhs", "--s", "1", "--n", "6", "--mod", "7^4") == 0
        assert "1323" in capsys.readouterr().out

    def test_mhs_repeat_syntax(self, capsys):
        assert run_cli("mhs", "--s", "1^2", "--n", "4") == 0
        out = capsys.readouterr().out
        assert "H(1,1;4)" in out

    def test_mhs_bad_modulus(self, capsys):
        assert run_cli("mhs", "--s", "1", "--n", "4", "--mod", "6^2") == 2

    def test_mhs_bad_composition_exits_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wolsten.cli", "mhs", "--s", "a", "--n", "4"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: cannot parse composition 'a': bad token 'a'\n"

    def test_mhs_bad_composition_names_the_token(self, capsys):
        for text, token in (("1,x", "x"), ("2^b", "2^b"), ("1^", "1^"), ("2,1^0", "1^0"),
                            ("2,1^-3", "1^-3"), ("1,,2", ""), ("1_0", "1_0")):
            assert run_cli("mhs", "--s", text, "--n", "4") == 2
            out, err = capsys.readouterr()
            assert out == "" and f"bad token {token!r}" in err

    @pytest.mark.parametrize("count", ["10000000", "1000000000"])
    def test_mhs_depth_past_the_bound_exits_two(self, count, capsys):
        for mod in ((), ("--mod", "7^1")):
            assert run_cli("mhs", "--s", f"1^{count}", "--n", "1", *mod) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == (
                f"error: composition '1^{count}': token '1^{count}' takes the depth past 1000000\n")

    @pytest.mark.parametrize("text, token", [
        ("1" * 5000, "1" * 5000), ("2,1000000", "1000000"), ("1,0001000001^2", "0001000001^2"),
    ])
    def test_mhs_part_past_the_bound_exits_two(self, text, token, capsys):
        # A part of 10^6 or more is refused by its digits, before int()
        # reads it: 5000 digits are past str()'s limit.
        for mod in ((), ("--mod", "7^1")):
            assert run_cli("mhs", "--s", text, "--n", "1", *mod) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == (
                f"error: composition {text!r}: token {token!r} has a part of 10^6 or more\n")

    def test_bernoulli(self, capsys):
        assert run_cli("bernoulli", "--k", "12") == 0
        assert "-691/2730" in capsys.readouterr().out

    def test_bernoulli_mod(self, capsys):
        assert run_cli("bernoulli", "--k", "4", "--mod", "7^1") == 0
        assert "= 3 (mod 7^1)" in capsys.readouterr().out

    # H(1;12000) and B_2100 have numerators past 4300 digits, the default
    # int-to-string limit.
    @pytest.mark.parametrize(
        "argv, flag",
        [(("mhs", "--s", "1", "--n", "12000"), "--n 12000"),
         (("bernoulli", "--k", "2100"), "--k 2100")],
    )
    def test_value_past_the_digit_limit_exits_two(self, argv, flag):
        proc = subprocess.run(
            [sys.executable, "-m", "wolsten.cli", *argv], capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith(f"error: {flag}: ")
        assert f"int-to-string limit of {sys.get_int_max_str_digits()}" in proc.stderr

    @pytest.fixture
    def digit_limit(self):
        old = sys.get_int_max_str_digits()
        yield sys.set_int_max_str_digits
        sys.set_int_max_str_digits(old)

    @pytest.fixture
    def nothing_computed(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("computed a value the digit limit refuses")

        monkeypatch.setattr(cli, "mhs_exact", refuse)
        monkeypatch.setattr(cli, "bernoulli_exact", refuse)

    # |B_2500| > 2 * 2500! / (2 pi)^2500 has 5416 digits, and every prime in
    # (20000, 40000] divides the denominator of H(1;40000); (5000, 10000]
    # squared, that of H(2;10000).
    @pytest.mark.parametrize("argv, flag", [
        (("bernoulli", "--k", "2500"), "--k 2500"),
        (("mhs", "--s", "1", "--n", "40000"), "--n 40000"),
        (("mhs", "--s", "2", "--n", "10000"), "--n 10000"),
    ])
    def test_value_surely_past_the_digit_limit_is_refused_at_once(
        self, argv, flag, digit_limit, nothing_computed, capsys
    ):
        digit_limit(4300)
        assert run_cli(*argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"error: {flag}: the exact value has more digits than Python's int-to-string "
            "limit of 4300; give --mod for a residue\n"
        )

    @pytest.mark.parametrize("argv", [
        ("bernoulli", "--k", "2500"),
        ("mhs", "--s", "1", "--n", "40000"),
    ])
    def test_no_early_refusal_without_a_limit(self, argv, digit_limit, monkeypatch, capsys):
        digit_limit(0)
        monkeypatch.setattr(cli, "mhs_exact", lambda *a: Fraction(1, 6))
        monkeypatch.setattr(cli, "bernoulli_exact", lambda *a, **k: Fraction(1, 6))
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out.endswith(" = 1/6\n")

    def test_no_early_refusal_with_mod(self, digit_limit, monkeypatch, capsys):
        digit_limit(4300)
        monkeypatch.setattr(cli, "bernoulli_exact", lambda *a, **k: Fraction(1, 6))
        assert run_cli("bernoulli", "--k", "2500", "--mod", "7^1") == 0
        assert capsys.readouterr().out == "B_2500 = 6 (mod 7^1)\n"

    # The digit limit set to the size of the value's larger part: it prints,
    # and one digit less refuses it.
    @pytest.mark.parametrize("argv, value", [
        (("bernoulli", "--k", "1000"), lambda: bernoulli.bernoulli_exact(1000, bound=1000)),
        (("mhs", "--s", "1", "--n", "1500"),
         lambda: cli.mhs_exact(cli.Composition.of(1), 1500)),
    ])
    def test_value_just_under_the_digit_limit_prints(self, argv, value, digit_limit, capsys):
        v = value()
        digits = max(len(str(abs(v.numerator))), len(str(v.denominator)))
        assert digits > 640
        digit_limit(digits)
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out.endswith(f" = {v.numerator}/{v.denominator}\n")
        digit_limit(digits - 1)
        assert run_cli(*argv) == 2
        assert f"limit of {digits - 1}; " in capsys.readouterr().err

    def test_mhs_mod_past_its_bound_exits_two_at_once(self):
        # n = 10^8 would allocate gigabytes of residues before the first step.
        def one_gigabyte():
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))

        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "wolsten.cli", "mhs", "--s", "1", "--n", "100000000",
             "--mod", "100000007^1"],
            capture_output=True, text=True, preexec_fn=one_gigabyte, timeout=60,
        )
        assert time.perf_counter() - start < 1.0
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == ("error: --n 100000000: the modular sum takes n * 1 up to "
                               "1000000\n")

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs procfs")
    def test_w_p_memory_does_not_grow_with_p(self):
        # w_p at p = 200003 sums 200002 inverses mod p^4; held all at once
        # they took 45 MiB, in batches the whole process stays near 16 MiB.
        # VmHWM, unlike ru_maxrss, does not count the forking test process.
        script = (
            "from wolsten.cli import main\n"
            "code = main(['verify', '--claim', 'main', '--p', '200003', '--n', '2', '--r', '1'])\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(code, *[line.split()[1] for line in fh if line.startswith('VmHWM:')])\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        code, peak_kib = map(int, proc.stdout.split()[-2:])
        assert code == 0
        assert peak_kib < 30 * 1024

    def test_mhs_mod_bound_counts_depth(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "mhs_mod", lambda *a: "ok")
        assert run_cli("mhs", "--s", "1,1", "--n", "500000", "--mod", "500009^1") == 0
        assert run_cli("mhs", "--s", "1,1", "--n", "500001", "--mod", "500009^1") == 2
        out, err = capsys.readouterr()
        assert out == "H(1,1;500000) = ok (mod 500009^1)\n"
        assert err == "error: --n 500001: the modular sum takes n * 2 up to 1000000\n"


class TestReport:
    def test_renders_table(self, tmp_path, capsys):
        rep_file = tmp_path / "rep.json"
        run_cli("verify", "--claim", "main", "--p", "7", "--n-max", "3",
                "--out", str(rep_file))
        capsys.readouterr()
        assert run_cli("report", "--in", str(rep_file)) == 0
        out = capsys.readouterr().out
        assert "main_p5" in out and "verdict" in out and "10/10 pass" in out

    def test_renders_scan_records(self, tmp_path, capsys):
        rec_file = tmp_path / "irr.json"
        run_cli("scan", "--pmin", "5", "--pmax", "12", "--out", str(rec_file))
        capsys.readouterr()
        assert run_cli("report", "--in", str(rec_file)) == 0
        out = capsys.readouterr().out
        assert "3 records, 0 irregular" in out

    def test_missing_file(self, capsys):
        assert run_cli("report", "--in", "/no/such/file.json") == 2

    def test_reads_under_outdir(self, tmp_path, monkeypatch, capsys):
        # A relative --in is taken under WOLSTEN_OUTDIR, as --out is.
        (tmp_path / "od").mkdir()
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("WOLSTEN_OUTDIR", "od")
        assert run_cli("scan", "--pmin", "5", "--pmax", "50", "--out", "irr.json") == 0
        assert (tmp_path / "od" / "irr.json").exists()
        capsys.readouterr()
        assert run_cli("report", "--in", "irr.json") == 0
        out = capsys.readouterr().out
        assert "p=5  w_mod_p=" in out and "p=47  " in out
        assert "13 records, 0 irregular" in out

    @pytest.mark.parametrize("text, line", [
        ('{"p":5,"w_mod_p":"1","b_pm3_mod_p":"2","irregular":false}\n{"p": 5}\n', 2),
        ("[1,2]\n", 1),
        ('{"claim_id":"x"}\n', 1),
    ], ids=("scan-record-without-keys", "not-an-object", "report-without-keys"))
    def test_malformed_record(self, tmp_path, capsys, text, line):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert run_cli("report", "--in", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} line {line}: malformed ")
        assert len(err.splitlines()) == 1

    _TAKES = "wolsten report renders the JSON lines of verify reports and scan records\n"

    def test_search_hits_are_named(self, tmp_path, capsys):
        hits = tmp_path / "hits.json"
        assert run_cli("search", "--p", "7", "--out", str(hits)) == 0
        capsys.readouterr()
        assert run_cli("report", "--in", str(hits)) == 2
        assert capsys.readouterr().err == f"error: {hits} holds search hits; {self._TAKES}"

    @pytest.mark.parametrize("argv", [
        ("verify", "--claim", "main", "--p", "7", "--n-max", "3"),
        ("scan", "--pmax", "50"),
    ], ids=("verify", "scan"))
    def test_csv_is_not_json_lines(self, tmp_path, capsys, argv):
        path = tmp_path / "s.csv"
        assert run_cli(*argv, "--format", "csv", "--out", str(path)) == 0
        capsys.readouterr()
        assert run_cli("report", "--in", str(path)) == 2
        assert capsys.readouterr().err == f"error: {path} line 1 is not JSON; {self._TAKES}"

    def test_undecodable_file(self, tmp_path, capsys):
        path = tmp_path / "bin.json"
        path.write_bytes(b"\x80\x81\n")
        assert run_cli("report", "--in", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read report {path}: 'utf-8' codec can't decode")


    @pytest.mark.parametrize("argv, err", [
        (("mhs", "--s", "1", "--n", "100000"),
         "--n 100000: the exact sum takes n * 1 up to 40000; give --mod p^k with p > n"),
        (("mhs", "--s", "2", "--n", "20001"),
         "--n 20001: the exact sum takes n * 2 up to 40000; give --mod p^k with p > n"),
        (("bernoulli", "--k", "20000"),
         "--k 20000: B_k is computed exactly, also for --mod, up to k = 3000"),
        (("bernoulli", "--k", "3001", "--mod", "7^1"),
         "--k 3001: B_k is computed exactly, also for --mod, up to k = 3000"),
    ])
    def test_exact_value_past_its_bound_exits_two_at_once(self, argv, err, capsys):
        # Unbounded, mhs --n 100000 took 5.8 s and bernoulli --k 20000 over 200 s.
        start = time.perf_counter()
        assert run_cli(*argv) == 2
        assert time.perf_counter() - start < 0.5
        out, stderr = capsys.readouterr()
        assert out == "" and stderr.startswith(f"error: {err}") and stderr.count("\n") == 1
        assert ("--mod p^k" in stderr) == (argv[0] == "mhs")

    def test_long_value_with_p_in_its_denominator_exits_two(self, monkeypatch, capsys):
        # B_3000's denominator is divisible by 3001 (von Staudt-Clausen) and
        # its numerator has 6762 digits; a stand-in of that shape is fast.
        monkeypatch.setattr(cli, "bernoulli_exact", lambda k, bound: Fraction(10**6000 + 1, 3001))
        assert run_cli("bernoulli", "--k", "3000", "--mod", "3001^1") == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: denominator of a 19944-bit value is divisible by 3001; ")


class TestHugeExactValues:
    # Exact values past 4300 digits, and binomial sides known only by
    # their residues (main_exp and thm2_case1 here), are written as null;
    # residues and diff_valuation stay.
    @pytest.mark.parametrize("argv, v", [
        (("--claim", "main_exp", "--p", "11", "--n", "12", "--r", "5", "--e", "3"), 5),
        (("--claim", "thm2_case1", "--p", "17", "--N", "6", "--R", "3", "--n", "2", "--r", "1"), 5),
        (("--claim", "kazandzidis_k1", "--p", "1009", "--n", "12", "--r", "6"), 3),
    ], ids=("main_exp", "thm2_case1", "kazandzidis_k1"))
    def test_out_writes_null(self, tmp_path, capsys, argv, v):
        js, cs = tmp_path / "o.json", tmp_path / "o.csv"
        assert run_cli("verify", *argv, "--out", str(js)) == 0
        assert run_cli("verify", *argv, "--out", str(cs), "--format", "csv") == 0
        obj = json.loads(js.read_text())
        assert obj["lhs"]["exact"] is None
        assert obj["rhs"]["exact"] is not None
        assert obj["verdict"] == "pass" and obj["diff_valuation"] == v
        header, row = (line.split(",") for line in cs.read_text().splitlines())
        fields = dict(zip(header, row))
        assert fields["lhs_exact"] == "" and fields["lhs_residue"] == obj["lhs"]["residue"]
        capsys.readouterr()
        assert run_cli("report", "--in", str(js)) == 0
        assert "1/1 pass" in capsys.readouterr().out

    def test_thm2_case1_c_past_4300_digits_is_null(self, tmp_path, capsys):
        # c's numerator has more than 4300 digits here: c is written as null,
        # like a long exact value, where str() would raise, and as an empty
        # value in CSV.
        out, csv_out = tmp_path / "c.json", tmp_path / "c.csv"
        argv = ("--claim", "thm2_case1", "--p", "10007", "--N", "2", "--R", "1", "--n", "10005",
                "--r", "5003")
        assert run_cli("verify", *argv, "--out", str(out)) == 0
        text = out.read_text()
        assert '"params":{"N":2,"R":1,"c":null,"n":10005,"r":5003}' in text
        assert json.loads(text)["verdict"] == "pass"
        assert capsys.readouterr().out == "thm2_case1: 1/1 pass\n"
        assert run_cli("verify", *argv, "--out", str(csv_out), "--format", "csv") == 0
        assert csv_out.read_text().splitlines()[1].startswith(
            "thm2_case1,10007,N=2;R=1;c=;n=10005;r=5003,5,,")

    def test_the_bound_is_4300_digits_under_any_limit(self):
        below, at = 10**4300 - 1, 10**4300
        old = sys.get_int_max_str_digits()
        try:
            for limit in (0, 640, 4300):
                sys.set_int_max_str_digits(limit)
                assert report._exact_text(Fraction(-below, 7)) == "-" + "9" * 4300 + "/7"
                assert report._exact_text(Fraction(1, below)) == "1/" + "9" * 4300
                assert report._exact_text(Fraction(at, 7)) is None
                assert report._exact_text(Fraction(-at, 7)) is None
                assert report._exact_text(Fraction(1, at)) is None
        finally:
            sys.set_int_max_str_digits(old)

    # The exact lhs has 1991 digits at p = 401, between 640 and 4300, and
    # 5015 at p = 1009.
    @pytest.mark.parametrize("p, size", [("401", 2175), ("1009", 184)])
    def test_bytes_do_not_depend_on_the_digit_limit(self, tmp_path, p, size):
        argv = ["verify", "--claim", "kazandzidis_k1", "--p", p, "--n", "12", "--r", "6"]
        files = []
        for limit in (None, "0", "640"):
            env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
            if limit is not None:
                env["PYTHONINTMAXSTRDIGITS"] = limit
            files.append(tmp_path / f"limit{limit}.json")
            subprocess.run(
                [sys.executable, "-m", "wolsten.cli", *argv, "--out", str(files[-1])],
                env=env, check=True, capture_output=True,
            )
        assert [f.stat().st_size for f in files] == [size] * 3
        assert files[0].read_bytes() == files[1].read_bytes() == files[2].read_bytes()


class TestEnvironment:
    def test_workers_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WOLSTEN_WORKERS", "2")
        a = tmp_path / "a.json"
        run_cli("scan", "--pmin", "5", "--pmax", "200", "--out", str(a))
        monkeypatch.delenv("WOLSTEN_WORKERS")
        b = tmp_path / "b.json"
        run_cli("scan", "--pmin", "5", "--pmax", "200", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_workers_env_not_an_integer(self, monkeypatch, capsys):
        monkeypatch.setenv("WOLSTEN_WORKERS", "abc")
        assert run_cli("scan", "--pmin", "5", "--pmax", "50") == 2
        err = capsys.readouterr().err
        assert err == "error: WOLSTEN_WORKERS must be an integer, got 'abc'\n"

    def test_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WOLSTEN_OUTDIR", str(tmp_path))
        run_cli("scan", "--pmin", "5", "--pmax", "50", "--out", "rel.json")
        assert (tmp_path / "rel.json").exists()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wolsten.cli", "verify", "--claim",
             "wolstenholme", "--p", "13"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "1/1 pass" in proc.stdout

    @pytest.mark.skipif(shutil.which("wolsten") is None, reason="script not on PATH")
    def test_console_script(self):
        proc = subprocess.run(
            ["wolsten", "bernoulli", "--k", "2"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "1/6" in proc.stdout


class TestImports:
    def test_only_scan_loads_numpy(self):
        # numpy and multiprocessing cost more start-up than the rest of the
        # CLI; only the scan kernel uses numpy, and one worker needs no pool.
        script = (
            "import json, sys\n"
            "import wolsten.cli as cli\n"
            "loaded = lambda: [m for m in ('numpy', 'multiprocessing') if m in sys.modules]\n"
            "seen = [loaded()]\n"
            "cli.main(['verify', '--claim', 'main', '--p', '7', '--n-max', '6', '--workers', '1'])\n"
            "seen.append(loaded())\n"
            "cli.main(['mhs', '--s', '1', '--n', '4'])\n"
            "seen.append(loaded())\n"
            "cli.main(['scan', '--pmax', '30', '--workers', '1'])\n"
            "print(json.dumps([seen, 'wolsten.kernel' in sys.modules]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        seen, kernel_loaded = json.loads(proc.stdout.splitlines()[-1])
        assert seen == [[], [], []]
        assert kernel_loaded

    @staticmethod
    def _run(script, *args, **env):
        # A fresh process whose environment has exactly the OpenBLAS
        # setting given (none by default), whatever this process holds.
        environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                              capture_output=True, text=True, timeout=120,
                              env={**environ, **env})
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    _SCAN_THREADS = (
        "import json, os\n"
        "import wolsten.cli as cli\n"
        "cli.main(['scan', '--pmax', '30', '--workers', '1'])\n"
        "tasks = os.listdir('/proc/self/task') if os.path.isdir('/proc/self/task') else None\n"
        "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), tasks and len(tasks)]))\n"
    )

    def test_scan_starts_numpy_without_a_blas_thread_pool(self):
        # The kernel makes no BLAS call, so OpenBLAS gets one thread: the
        # process keeps its one thread after numpy is loaded.
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("needs /proc/self/task to count the threads")
        assert self._run(self._SCAN_THREADS) == ["1", 1]

    def test_scan_keeps_a_preset_blas_thread_count(self):
        assert self._run(self._SCAN_THREADS, OPENBLAS_NUM_THREADS="2")[0] == "2"

    def test_only_scan_sets_the_blas_thread_count(self):
        # verify, mhs and the kernel module itself leave the environment,
        # which subprocesses inherit, as they found it.
        script = (
            "import json, os\n"
            "import wolsten.cli as cli\n"
            "before = dict(os.environ)\n"
            "cli.main(['verify', '--claim', 'main', '--p', '7', '--n-max', '6', '--workers', '1'])\n"
            "cli.main(['mhs', '--s', '1', '--n', '4'])\n"
            "import wolsten.kernel\n"
            "print(json.dumps(dict(os.environ) == before))\n"
        )
        assert self._run(script) is True

    def test_grid_under_two_slabs_starts_no_pool(self, tmp_path):
        # 3042 points make one slab (each needs suite._SLAB_MIN), which runs
        # inline on 2 workers and writes what 1 worker writes.
        script = (
            "import json, sys\n"
            "import wolsten.cli as cli\n"
            "argv = ['verify', '--claim', 'bailey5', '--pmin', '13', '--pmax', '17',\n"
            "        '--N-max', '2', '--n-max', '12', '--workers', sys.argv[1], '--out', sys.argv[2]]\n"
            "code = cli.main(argv)\n"
            "print(json.dumps([code, 'multiprocessing' in sys.modules]))\n"
        )
        outs = [tmp_path / f"grid{w}.json" for w in (1, 2)]
        assert [self._run(script, w, out) for w, out in zip((1, 2), outs)] == [[0, False]] * 2
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_no_dataclasses_or_inspect_and_csv_on_demand(self, tmp_path):
        # Each costs start-up in every process (dataclasses brings inspect,
        # ast, dis and tokenize); csv loads with the first CSV line.
        script = (
            "import json, sys\n"
            "import wolsten.cli as cli\n"
            "loaded = lambda: [m for m in ('dataclasses', 'inspect', 'csv') if m in sys.modules]\n"
            "seen = [loaded()]\n"
            "cli.main(['verify', '--claim', 'main', '--p', '7', '--n-max', '6', '--workers', '1'])\n"
            "seen.append(loaded())\n"
            "cli.main(['mhs', '--s', '1', '--n', '4'])\n"
            "seen.append(loaded())\n"
            "cli.main(['verify', '--claim', 'main', '--p', '7', '--n-max', '6', '--format', 'csv',\n"
            "          '--out', sys.argv[1]])\n"
            "seen.append(loaded())\n"
            "print(json.dumps(seen))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "grid.csv")],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [[], [], [], ["csv"]]

    # Each command loads only the modules it runs: a process compiles
    # what it loads when no bytecode is cached.
    @staticmethod
    def _loaded(*argv):
        script = (
            "import json, sys\n"
            "import wolsten.cli as cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('wolsten'))]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        code, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0
        return {m.removeprefix("wolsten.") for m in loaded}

    def test_mhs_loads_exactly_harmonic_and_padic(self):
        assert self._loaded("mhs", "--s", "1", "--n", "4") == {
            "wolsten", "cli", "errors", "harmonic", "padic"}

    def test_mhs_as_a_module_lists_its_imports(self):
        # Under -m the CLI is __main__; -X importtime lists every module
        # the command loads, the lazily loaded ones too.
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "wolsten.cli", "mhs", "--s", "1", "--n", "4"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        names = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
        assert {n for n in names if n.startswith("wolsten")} == {
            "wolsten", "wolsten.errors", "wolsten.harmonic", "wolsten.padic"}

    @pytest.mark.parametrize("argv, absent", [
        (("bernoulli", "--k", "10"), {"suite", "binomial", "kernel", "parallel", "report"}),
        (("bernoulli", "--k", "10", "--mod", "7^2"),
         {"suite", "binomial", "kernel", "parallel", "report"}),
        (("scan", "--pmax", "30", "--workers", "1"), {"suite", "binomial"}),
        (("verify", "--claim", "h12", "--p", "7"), {"kernel"}),
        (("search", "--p", "7", "--workers", "1"), {"kernel"}),
        # A claim loads its own checker module only.
        (("verify", "--claim", "bailey5", "--p", "13", "--N-max", "1", "--n-max", "2"),
         {"harmonic", "bernoulli", "kernel"}),
        (("verify", "--claim", "genwols", "--p", "11", "--s", "1", "--d", "1", "--workers", "1"),
         {"binomial", "bernoulli", "parallel", "checks_binomial", "kernel"}),
        (("verify", "--claim", "h12", "--p", "7", "--workers", "2"),
         {"binomial", "bernoulli", "parallel", "checks_binomial", "kernel"}),
        (("verify", "--claim", "cor_ijk", "--p", "7"), {"binomial", "checks_binomial", "kernel"}),
        (("search", "--p", "7"), {"binomial", "checks_binomial", "kernel"}),
    ])
    def test_command_skips_modules_it_does_not_run(self, argv, absent):
        assert not self._loaded(*argv) & absent

    def test_report_loads_report_and_padic(self, tmp_path):
        scan = tmp_path / "scan.json"
        assert run_cli("scan", "--pmax", "30", "--workers", "1", "--out", str(scan)) == 0
        assert self._loaded("report", "--in", scan) == {"wolsten", "cli", "errors", "report",
                                                        "padic"}

    def test_verify_help_lists_every_claim(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            run_cli("verify", "--help")
        assert exit_.value.code == 0
        out = " ".join(capsys.readouterr().out.split())  # argparse wraps the help
        names = [name for c in suite.CLAIMS for name in (c.id, *c.aliases)]
        assert len(names) > len(suite.CLAIMS)
        assert f"one of: {', '.join(names)}" in out


class TestPinnedBytes:
    # sha256 of each report file: a change to the records or the encoder
    # must not move a byte.
    @pytest.mark.parametrize("argv, digest", [
        ("verify --claim bailey5 --pmin 13 --pmax 13 --N-max 2 --n-max 12",
         "4d6fd4e0f6558b9199b23a883d9e33dc09b25498286684e3042be12c3a377e3a"),
        ("verify --claim bailey5 --pmin 13 --pmax 13 --N-max 2 --n-max 12 --format csv",
         "f1d7ffdc420a3dbe70169459e9fb06620c476c0aa04033c57e7fcce4538eb0fa"),
        ("verify --claim thm2_case1 --pmin 7 --pmax 11 --N-max 3 --n-max 10",
         "d042b0275ae305f396e9e46bbb7a1f310e6574b8a085e4d11fb8dc29e00ba36a"),
        ("verify --claim thm2_case2 --pmin 5 --pmax 11 --N-max 2 --n-max 6",
         "0edaa46f00bf5d519ac776b75cfbfd3fa6d802f2bad6d7e3d94f8bd5d1b23ce6"),
        ("verify --claim thm2_case2 --pmin 5 --pmax 11 --N-max 2 --n-max 6 --format csv",
         "36947e64313da8e9f3908e9d0cfa2275f48c4519f0aa592d36f76d0228b7d038"),
        ("verify --claim kazandzidis_k2 --pmin 3 --pmax 11 --n-max 8",
         "2338fa8c243908674660a37a239ef24d1fbd2143b4d3c33bc5f922eae2917fe2"),
        ("verify --claim main_exp --pmin 7 --pmax 11 --n-max 4 --e 2",
         "de3c8de94cb59ec749887268edd647db9d23c02cb84f4aad5b992c7c4af00900"),
        # The modular side with 7 | binom(N, R) at N = 7, 8.
        ("verify --claim thm2_case1 --pmin 7 --pmax 7 --N-max 8 --n-max 3",
         "5792da58a8090c52ebfd40758fd3d608a6ebd070ae622166536e858e76d7361b"),
        ("scan --pmax 3000", "7040b73d97e0a515f4e69c39137b224a3d27e866534c792686e0faa97485a944"),
        ("scan --pmax 3000 --format csv",
         "ae181ffb516e32d7e98abfa9617d01580398f8e6b059056eeed4d4f9b5b23960"),
        ("search --p 17", "e8d69a81ae82db8e713f4c588a9744635393800bdb1797951bbd2a902f69e16d"),
    ])
    def test_report_digest(self, argv, digest, tmp_path):
        out = tmp_path / "report"
        assert run_cli(*argv.split(), "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestReadme:
    def test_cli_examples(self, tmp_path, monkeypatch, capsys):
        # Every `wolsten ...` line of README's CLI block, run as written: the
        # two p = 5 negative controls exit 1, the rest 0, and a trailing
        # comment is text the command prints.  `report --in` reads the
        # scan line's output.
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## CLI", 1)[1].split("```")[1]
        lines = [line for line in block.splitlines() if line.startswith("wolsten ")]
        assert sum("--p 5 " in line for line in lines) == 2
        monkeypatch.setenv("WOLSTEN_OUTDIR", str(tmp_path))
        scan_out = None
        for line in lines:
            command, _, comment = line.partition("#")
            argv = shlex.split(command)[1:]
            if argv[0] == "scan":
                scan_out = tmp_path / argv[argv.index("--out") + 1]
            if argv[0] == "report":
                argv[argv.index("--in") + 1] = str(scan_out)
            assert run_cli(*argv) == (1 if "--p 5 " in command else 0), line
            assert comment.strip() in capsys.readouterr().out, line

    def test_library_block(self):
        # README's Python block, run as written.  A trailing comment that is
        # an expression (`# 23`, `# Fraction(17, 32)`) is the value of its
        # line's expression; prose comments are not compared.
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
        lines = block.splitlines()
        namespace: dict = {}
        compared = []
        for stmt in ast.parse(block).body:
            if not isinstance(stmt, ast.Expr):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
                continue
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
            try:
                expected = eval(compile(comment, "README.md", "eval"), namespace)
            except SyntaxError:
                continue
            assert value == expected, lines[stmt.end_lineno - 1]
            compared.append(comment)
        assert compared == ["23", "Fraction(17, 32)", "('pass', 5)", "[16843]"]


class TestBenchProbe:
    def test_probe_plan_resolves(self):
        # bench/probe.py wraps wolsten functions by module and name; a name
        # deleted or renamed in src/ would leave its traced runs blind.  The
        # script is parsed, not imported.
        probe = Path(__file__).parents[1] / "bench" / "probe.py"
        assigned = {
            node.targets[0].id: node.value
            for node in ast.walk(ast.parse(probe.read_text(encoding="utf-8")))
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        }
        plan = [(entry.elts[0].value, entry.elts[1].value) for entry in assigned["plan"].elts]
        task_names = ast.literal_eval(assigned["task_names"])
        targets = plan + [(span.split(".")[0], fn) for fn, span in task_names.items()]
        assert len(plan) > 20 and len(task_names) == 3
        missing = [
            f"wolsten.{module}.{attr}" for module, attr in targets
            if not hasattr(importlib.import_module(f"wolsten.{module}"), attr)
        ]
        assert missing == []
