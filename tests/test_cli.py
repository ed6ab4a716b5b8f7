import json
import os
import shlex
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from wolsten import bernoulli, cli, report
from wolsten.cli import main
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

    @pytest.mark.parametrize("n_failed, ellipsis", [(20, False), (21, True)])
    def test_fail_summary_ellipsis_only_when_lines_are_left_out(
        self, n_failed, ellipsis, monkeypatch, capsys
    ):
        rep = check_main(5, 4, 1)
        assert not rep.ok
        monkeypatch.setattr(cli, "grid_lines", lambda *a, **k: [(encode_report(rep), rep)] * n_failed)
        assert run_cli("verify", "--claim", "main", "--p", "5", "--n", "4", "--r", "1") == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"main_p5: 0/{n_failed} pass"
        assert len([line for line in lines if line.startswith("  FAIL p=5 ")]) == 20
        assert (lines[-1] == "  ...") == ellipsis
        assert len(lines) == 21 + ellipsis

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

    def test_out_of_domain_scalar(self, capsys):
        code = run_cli("verify", "--claim", "thm2_case2", "--p", "7",
                       "--N", "1", "--R", "0", "--n", "3", "--r", "3")
        assert code == 2


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
        monkeypatch.setattr(cli, "grid_lines", refuse)
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

    def test_past_kernel_bound_exits_two(self, monkeypatch, capsys):
        def no_sieve(lo, hi):
            raise AssertionError("sieved a range past the kernel bound")

        monkeypatch.setattr(bernoulli, "primes_in_range", no_sieve)
        assert run_cli("scan", "--pmin", "3030000000", "--pmax", "3030000100") == 2
        assert "p_max=3030000100" in capsys.readouterr().err


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

    def test_past_the_prefix_table_exits_two_at_once(self, capsys):
        # (p-1) p^3 + p - 1 must fit binom_mod's 2^22-entry table: 43 is
        # the largest prime that does.
        start = time.perf_counter()
        assert run_cli("search", "--p", "47", "--workers", "2") == 2
        assert time.perf_counter() - start < 0.5
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: --p 47: ") and err.endswith("the largest prime it takes is 43\n")

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
        for text, token in (("1,x", "x"), ("2^b", "2^b"), ("1^", "1^")):
            assert run_cli("mhs", "--s", text, "--n", "4") == 2
            assert f"bad token {token!r}" in capsys.readouterr().err

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


class TestHugeExactValues:
    # Exact values past 4300 digits are written as null; residues and
    # diff_valuation stay.
    @pytest.mark.parametrize("argv", [
        ("--claim", "main_exp", "--p", "11", "--n", "12", "--r", "5", "--e", "3"),
        ("--claim", "thm2_case1", "--p", "17", "--N", "6", "--R", "3", "--n", "2", "--r", "1"),
    ], ids=("main_exp", "thm2_case1"))
    def test_out_writes_null(self, tmp_path, capsys, argv):
        js, cs = tmp_path / "o.json", tmp_path / "o.csv"
        assert run_cli("verify", *argv, "--out", str(js)) == 0
        assert run_cli("verify", *argv, "--out", str(cs), "--format", "csv") == 0
        obj = json.loads(js.read_text())
        assert obj["lhs"]["exact"] is None
        assert obj["rhs"]["exact"] is not None
        assert obj["verdict"] == "pass" and obj["diff_valuation"] == 5
        header, row = (line.split(",") for line in cs.read_text().splitlines())
        fields = dict(zip(header, row))
        assert fields["lhs_exact"] == "" and fields["lhs_residue"] == obj["lhs"]["residue"]
        capsys.readouterr()
        assert run_cli("report", "--in", str(js)) == 0
        assert "1/1 pass" in capsys.readouterr().out

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

    # At p = 11 the exact values have between 640 and 4300 digits, at
    # p = 17 more than 4300.
    @pytest.mark.parametrize("p, size", [("11", 2617), ("17", 221)])
    def test_bytes_do_not_depend_on_the_digit_limit(self, tmp_path, p, size):
        argv = ["verify", "--claim", "thm2_case1", "--p", p, "--N", "6", "--R", "3", "--n", "2", "--r", "1"]
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
