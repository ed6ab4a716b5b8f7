"""Self-test of the benchmark at reduced sizes; runs in well under a minute.

    python3 bench/selftest.py        (from the root of a checkout)

It checks the oracles against the paper's constants and against math.comb,
runs every workload at its small size untraced and one traced, checks
that the printed result has exactly the metrics BENCHMARK.json names, and
checks that corrupted outputs, failing invocations and a checkout without
src/ are reported as failures.  Exit code 0 means every check passed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import oracles
import run
import workloads

ROOT = Path.cwd()
SPEC = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())
failures: list[str] = []


def expect(ok: bool, label: str) -> None:
    print(("ok   " if ok else "FAIL ") + label)
    if not ok:
        failures.append(label)


def bench_run(*argv: str) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv), small=True)
    return code, out.getvalue().splitlines()


def oracle_tests() -> None:
    expect(oracles.self_check() == [], "oracles reproduce the paper constants")
    rng = random.Random(5)
    for _ in range(200):
        p = rng.choice((5, 7, 11, 13))
        N, R = rng.randrange(0, 4), rng.randrange(0, 4)
        n, r = rng.randrange(0, p), rng.randrange(0, p)
        k = rng.choice((1, 3, 5))
        want = math.comb(N * p**3 + n, R * p**3 + r) % p**k if R * p**3 + r <= N * p**3 + n else 0
        if oracles.comb_offset_mod(N * p**3, R * p**3, n, r, p, k) != want:
            expect(False, f"comb_offset_mod({N},{R},{n},{r}) at p={p}^{k}")
            return
    expect(True, "comb_offset_mod agrees with math.comb")
    expect(oracles.composition_sum_mod(3, 7, 2) == oracles.reduce(
        sum(oracles.Fraction(1, i * j * (7 - i - j)) for i in range(1, 6) for j in range(1, 7 - i)), 7, 2
    ), "composition sum agrees with enumeration")
    expect(len(oracles.primes_between(5, 50000)) == 5131, "sieve counts 5131 primes in [5, 50000]")


def result_tests() -> None:
    names = {"end_to_end": set(run.END_TO_END), "per_layer": set(run.PER_LAYER)}
    for kind, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        spec = {m["name"]: m["unit"] for m in SPEC[kind]}
        expect(spec == units, f"BENCHMARK.json {kind} names and units match run.py")
    for workload in workloads.NAMES:
        code, lines = bench_run("--workload", workload, "--seed", "3", "--seconds", "0")
        res = json.loads(lines[-1])
        expect(
            code == 0 and set(res) == {"correct", "attempted", "failed", "metrics"}
            and res["correct"] and res["failed"] == 0 and res["attempted"] > 0
            and set(res["metrics"]) == names["end_to_end"]
            and all(m["value"] > 0 for m in res["metrics"].values()),
            f"{workload}: untraced result line ({res['attempted']} ops, {res['failed']} failed)",
        )
    code, lines = bench_run("--workload", "scan", "--seed", "3", "--seconds", "0", "--trace", "1")
    res = json.loads(lines[-1])
    expect(code == 0 and res["correct"] and res["failed"] == 0
           and set(res["metrics"]) == names["per_layer"], "scan: traced result line")
    spans = (ROOT / ".bench_work" / "scan" / "trace.spans.jsonl").read_text().splitlines()
    expect(any('"bernoulli.scan_block"' in s for s in spans), "span file records the scan kernel")


def failure_tests() -> None:
    work = ROOT / ".bench_work" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(1)
    bench = run.Bench(ROOT, work, 1)
    op = workloads.scan(5, 200, 1, 100)  # samples every record
    proc = bench.cli([*op.args, "--out", "op0.out"], "op0")
    text = (work / "op0.out").read_text()
    expect(proc.code == 0 and op.check(text, proc.stdout, work, rng) == [], "clean scan output passes")
    recs = [json.loads(line) for line in text.splitlines()]
    p, w = recs[3]["p"], int(recs[3]["w_mod_p"]) + 1  # wrong, but self-consistent
    recs[3].update(w_mod_p=str(w % p), b_pm3_mod_p=str(-3 * w % p))
    bad = "".join(json.dumps(r) + "\n" for r in recs)
    expect(op.check(bad, "", work, rng) != [], "a wrong w_p caught by the Lehmer oracle")
    expect(op.check("".join(text.splitlines(True)[1:]), "", work, rng) != [], "a missing prime is caught")

    op = workloads.verify("main", 7, 7, {"n": 4}, 1, 20)
    proc = bench.cli([*op.args, "--out", "op1.out"], "op1")
    text = (work / "op1.out").read_text()
    expect(op.check(text, proc.stdout, work, rng) == [], "clean verify output passes")
    lines = [json.loads(line) for line in text.splitlines()]
    lines[5]["lhs"]["residue"] = str(int(lines[5]["lhs"]["residue"]) + 1)
    bad = "".join(json.dumps(o) + "\n" for o in lines)
    expect(op.check(bad, proc.stdout, work, rng) != [], "a wrong residue is caught")

    before = (bench.attempted, bench.failed)
    proc = bench.cli(["verify", "--claim", "main", "--p", "5", "--n", "4", "--r", "1"], "fail")
    bench.account("negative control", proc.code, proc.stderr, [])
    proc = bench.cli(["verify", "--claim", "main"], "usage")
    bench.account("usage error", proc.code, proc.stderr, [])
    expect(
        (bench.attempted - before[0], bench.failed - before[1]) == (2, 2) and not bench.wrong,
        "nonzero exit codes count as failed operations",
    )
    bench.account("traceback", 0, "Traceback (most recent call last):\n", [])
    expect(bench.failed - before[1] == 3 and not bench.wrong, "a traceback counts as a failed operation")
    bench.account("wrong output", 0, "", ["residue differs"])
    expect(bench.failed - before[1] == 4 and bench.wrong, "a failed output check makes the result incorrect")

    empty = work / "empty"
    empty.mkdir(exist_ok=True)
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=empty, capture_output=True, text=True, timeout=60,
    )
    expect(proc.returncode != 0 and proc.stdout == "", "a directory without src/ fails without a result")


def main() -> int:
    sys.set_int_max_str_digits(0)
    oracle_tests()
    failure_tests()
    result_tests()
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
