"""The wolsten benchmark: CLI workloads with end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs src/ from there and writes
only under .bench_work/.  Each invocation is a fresh `python -m
wolsten.cli` process, as users run it.

With --trace 0 the run repeats whole rounds of the workload's invocations
until their measured wall time adds up to about S seconds, and reports the
median round of each end-to-end metric.  With --trace 1 it runs every
invocation in process through bench/probe.py: traced, plain, and plain at
2 workers where the invocation uses 2; it reports the per-layer metrics and
the tracing overhead.  Both modes check the outputs against the oracles
in bench/oracles.py, and the seed chooses only which records are sampled
for that check.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy

import oracles
import workloads

BENCH = Path(__file__).resolve().parent
SETUP_PER_ROUND = 5  # set-up samples taken before each round, spread over the run
MIN_ROUNDS = 2
SETUP_ARGS = ("mhs", "--s", "1", "--n", "4")  # parses, imports, computes nothing sizeable
KERNEL_NEAR = (50_000, 1_000_000, 2_100_000)

# Units of the reported metrics; BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "results_per_s": "1/s",
    "report_bytes": "bytes", "peak_rss_mb": "MiB", "cpu_s": "s",
}
PER_LAYER = {
    "cli.import_s": "s", "cli.import_numpy_s": "s",
    "padic.sieve_s": "s", "padic.valuation_s": "s", "padic.valuation_calls": "count",
    "padic.reduce_s": "s",
    "binomial.exact_s": "s", "binomial.exact_calls": "count", "binomial.exact_bits": "bits",
    "binomial.mod_s": "s", "binomial.mod_calls": "count",
    "harmonic.mhs_exact_s": "s", "harmonic.mhs_exact_calls": "count", "harmonic.mhs_mod_s": "s",
    "bernoulli.kernel_ms_p50k": "ms", "bernoulli.kernel_ms_p1m": "ms",
    "bernoulli.kernel_ms_p2m": "ms", "bernoulli.scan_s": "s", "bernoulli.encode_s": "s",
    "bernoulli.records": "count", "bernoulli.exact_s": "s",
    "suite.grid_s": "s", "suite.check_s": "s", "suite.checks": "count",
    "suite.search_s": "s", "suite.search_tuples": "count",
    "report.encode_s": "s", "report.bytes": "bytes",
    "parallel.pool_start_s": "s", "parallel.tasks": "count", "parallel.ipc_bytes": "bytes",
    "parallel.speedup_2w": "ratio",
    "trace.overhead_s": "s",
}


@dataclass
class Proc:
    code: int
    wall: float  # s, spawn to exit
    cpu: float  # s, user + system of the process and its reaped children
    rss_mb: float  # MiB, largest resident set in the process tree
    stdout: str
    stderr: str


class Bench:
    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.work = work.resolve()
        self.rng = random.Random(seed)
        self.attempted = self.failed = 0
        self.wrong = False
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("WOLSTEN_")}
        self.env["PYTHONPATH"] = str(root / "src")

    def spawn(self, argv: list[str], label: str) -> Proc:
        out_path, err_path = self.work / f"{label}.stdout", self.work / f"{label}.stderr"
        usage_path = self.work / f"{label}.usage"
        usage_path.unlink(missing_ok=True)
        launcher = [sys.executable, "-S", str(BENCH / "launch.py"), str(usage_path)]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(launcher + argv, stdout=out, stderr=err, cwd=self.work, env=self.env)
            try:
                proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        stdout, stderr = out_path.read_text(errors="replace"), err_path.read_text(errors="replace")
        if proc.returncode != 0 or not usage_path.exists():
            return Proc(proc.returncode or -1, 0.0, 0.0, 0.0, stdout, stderr)
        u = json.loads(usage_path.read_text())
        return Proc(u["code"], u["wall"], u["cpu"], u["rss_mb"], stdout, stderr)

    def cli(self, args, label: str) -> Proc:
        return self.spawn([sys.executable, "-m", "wolsten.cli", *args], label)

    def account(self, label: str, code: int, stderr: str, problems: list[str]) -> None:
        """Record one operation.  It fails on an exit code other than 0, a
        traceback, or a problem found in its output; the last also makes
        the run's result incorrect."""
        self.attempted += 1
        self.wrong |= bool(problems)
        if code != 0:
            problems = [f"exit code {code}"] + problems
        if "Traceback (most recent call last)" in stderr:
            problems = ["traceback on stderr"] + problems
        if problems:
            self.failed += 1
            for p in problems[:5]:
                print(f"FAIL {label}: {p}", file=sys.stderr)

    def setup_times(self, n: int) -> list[float]:
        times = []
        for _ in range(n):
            proc = self.cli(SETUP_ARGS, "setup")
            ok = "H(1;4) = 25/12" in proc.stdout
            self.account("setup", proc.code, proc.stderr, [] if ok else [f"stdout {proc.stdout!r}"])
            times.append(proc.wall)
        return times

    def check(self, i: int, op: workloads.Op, stdout: str) -> list[str]:
        out = self.work / f"op{i}.out"
        if not out.exists():
            return ["no report written"]
        try:
            return op.check(out.read_text(), stdout, self.work, self.rng)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            return [f"unreadable report: {exc!r}"]

    def digest(self, i: int) -> str | None:
        out = self.work / f"op{i}.out"
        return hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None


# ------------------------------------------------------------- untraced

def measure(bench: Bench, ops: list[workloads.Op], seconds: float) -> dict:
    bench.setup_times(1)  # fills the bytecode cache; not timed
    setup, rounds, digests = [], [], {}
    # The measured time is the rounds' own wall time, without set-up and
    # output checks; another round starts while at least half of it fits.
    while len(rounds) < MIN_ROUNDS or sum(r["wall_s"] for r in rounds) * (1 + 0.5 / len(rounds)) <= seconds:
        setup += bench.setup_times(SETUP_PER_ROUND)
        wall = cpu = rss = size = 0.0
        for i, op in enumerate(ops):
            (bench.work / f"op{i}.out").unlink(missing_ok=True)
            proc = bench.cli([*op.args, "--out", f"op{i}.out"], f"op{i}")
            wall, cpu, rss = wall + proc.wall, cpu + proc.cpu, max(rss, proc.rss_mb)
            digest = bench.digest(i)
            size += (bench.work / f"op{i}.out").stat().st_size if digest else 0
            if not rounds:  # the first round is checked against the oracles,
                problems = bench.check(i, op, proc.stdout)
                digests[i] = digest
            else:  # later rounds must reproduce it byte for byte
                problems = [] if digest == digests[i] else ["report differs from round 1"]
            bench.account(f"op{i} {' '.join(op.args)}", proc.code, proc.stderr, problems)
        results = sum(op.results for op in ops)
        rounds.append({"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
                       "report_bytes": size, "results_per_s": results / wall})
        print(f"round {len(rounds)}: " + json.dumps(rounds[-1]), file=sys.stderr)
    metrics = {"setup_s": statistics.median(setup)}
    for key in rounds[0]:
        metrics[key] = statistics.median(r[key] for r in rounds)
    return metrics


# --------------------------------------------------------------- traced

def probe(bench: Bench, mode: str, label: str, args: list[str]) -> dict | None:
    result = bench.work / f"{label}.json"
    result.unlink(missing_ok=True)
    proc = bench.spawn([sys.executable, str(BENCH / "probe.py"), mode, str(result), "--", *args], label)
    if proc.code != 0 or not result.exists():
        bench.account(label, proc.code or -1, proc.stderr, [])
        return None
    return json.loads(result.read_text())


def self_times(spans: list) -> dict[str, list[float]]:
    """name -> [calls, inclusive s, self s]; self time excludes direct children."""
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    table: dict[str, list[float]] = {}
    for (name, _, start, end), covered in zip(spans, child):
        row = table.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - covered
    return table


def traced(bench: Bench, ops: list[workloads.Op]) -> dict:
    """Each op runs traced at 1 worker, then plain at 1 worker and, if the
    invocation uses 2, plain at 2; the plain runs give the tracing overhead
    and the parallel speed-up."""
    table: dict[str, list[float]] = {}
    counts: Counter = Counter()
    plain_s = traced_s = par1 = par2 = 0.0
    imports, numpy_imports, speedups = [], [], []
    with open(bench.work / "trace.spans.jsonl", "w", encoding="utf-8") as spans_out:
        for i, op in enumerate(ops):
            two = list(op.args)
            w = two.index("--workers") + 1
            one = two[:w] + ["1"] + two[w + 1 :]
            modes = [("traced", one), ("plain", one)] + ([("plain", two)] if two[w] != "1" else [])
            done, reference = [], None
            for mode, argv in modes:
                label = f"op{i}.{mode}{argv[w]}"
                (bench.work / f"op{i}.out").unlink(missing_ok=True)
                res = probe(bench, mode, label, [*argv, "--out", f"op{i}.out"])
                if res is None:
                    break
                digest = bench.digest(i)
                if reference is None:  # the traced run is checked against the oracles,
                    problems = bench.check(i, op, res["stdout"])
                    reference = digest
                else:  # the plain runs must reproduce it byte for byte
                    problems = [] if digest == reference else ["report differs from the traced run"]
                bench.account(f"{label} {' '.join(argv)}", res["code"], "", problems)
                done.append(res)
            if len(done) < len(modes):
                continue
            trace, plain, *plain2 = done
            traced_s += trace["main_s"]
            plain_s += plain["main_s"]
            if plain2:
                par1 += plain["parallel_s"]
                par2 += plain2[0]["parallel_s"]
                speedups.append(f"op{i} {' '.join(op.args[:5])}: parallel_map 1 worker "
                                f"{plain['parallel_s']:.4f} s, 2 workers {plain2[0]['parallel_s']:.4f} s")
            imports += [r["import_s"] for r in done]
            numpy_imports += [r["import_numpy_s"] for r in done]
            for name, row in self_times(trace["spans"]).items():
                acc = table.setdefault(name, [0, 0.0, 0.0])
                for k in range(3):
                    acc[k] += row[k]
            counts.update(trace["counts"])
            for sid, (name, parent, start, end) in enumerate(trace["spans"]):
                spans_out.write(json.dumps([i, sid, parent, name, round(start, 7), round(end, 7)]) + "\n")
    kernel_primes = [max(oracles.primes_between(n - 200, n)) for n in KERNEL_NEAR]
    micro = probe(bench, "micro", "micro", [str(p) for p in kernel_primes])
    if micro is not None:
        bench.account("micro", 0, "", [])

    def self_s(*names):
        return sum(table.get(n, [0, 0, 0])[2] for n in names)

    def incl_s(name):
        return table.get(name, [0, 0, 0])[1]

    def calls(*names):
        return sum(table.get(n, [0, 0, 0])[0] for n in names)

    kernel = micro["kernel_ms"] if micro else {}
    metrics = {
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "cli.import_numpy_s": statistics.median(numpy_imports) if numpy_imports else 0.0,
        "padic.sieve_s": self_s("padic.primes_in_range"),
        "padic.valuation_s": self_s("padic.valuation", "padic.padic_congruent"),
        "padic.valuation_calls": calls("padic.valuation", "padic.padic_congruent"),
        "padic.reduce_s": self_s("padic.reduce_mod"),
        "binomial.exact_s": self_s("binomial.binom", "binomial.rising_binom", "binomial.ratio"),
        "binomial.exact_calls": calls("binomial.binom", "binomial.rising_binom"),
        "binomial.exact_bits": counts["binomial.exact_bits"],
        "binomial.mod_s": self_s("binomial.binom_mod"),
        "binomial.mod_calls": calls("binomial.binom_mod"),
        "harmonic.mhs_exact_s": self_s("harmonic.mhs_exact"),
        "harmonic.mhs_exact_calls": calls("harmonic.mhs_exact"),
        "harmonic.mhs_mod_s": self_s("harmonic.mhs_mod"),
        "bernoulli.kernel_ms_p50k": kernel.get(str(kernel_primes[0]), 0.0),
        "bernoulli.kernel_ms_p1m": kernel.get(str(kernel_primes[1]), 0.0),
        "bernoulli.kernel_ms_p2m": kernel.get(str(kernel_primes[2]), 0.0),
        "bernoulli.scan_s": self_s("bernoulli.irregular_scan", "bernoulli.scan_block"),
        "bernoulli.encode_s": self_s("bernoulli.records_to_jsonl"),
        "bernoulli.records": counts["bernoulli.records"],
        "bernoulli.exact_s": self_s("bernoulli.bernoulli_exact"),
        "suite.grid_s": incl_s("suite.grid_reports"),
        "suite.check_s": incl_s("suite.run_check"),
        "suite.checks": counts["suite.checks"],
        "suite.search_s": incl_s("suite.find_exact_quadruples"),
        "suite.search_tuples": counts["suite.search_tuples"],
        "report.encode_s": self_s("report.reports_to_jsonl"),
        "report.bytes": counts["report.bytes"],
        "parallel.pool_start_s": micro["pool_start_s"] if micro else 0.0,
        "parallel.tasks": counts["parallel.tasks"],
        "parallel.ipc_bytes": counts["parallel.ipc_bytes"],
        "parallel.speedup_2w": par1 / par2 if par2 else 0.0,
        "trace.overhead_s": traced_s - plain_s,
    }
    lines = [f"{'span':34} {'calls':>9} {'incl s':>10} {'self s':>10}"]
    for name, (n, inc, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"{name:34} {n:9d} {inc:10.4f} {own:10.4f}")
    lines += speedups
    lines.append(f"untraced {plain_s:.4f} s, traced {traced_s:.4f} s, overhead {traced_s - plain_s:.4f} s")
    (bench.work / "trace.table.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines), file=sys.stderr)
    return metrics


# ---------------------------------------------------------------- main

def environment(root: Path) -> dict:
    src_lines = sum(
        len(f.read_text().splitlines()) for f in sorted((root / "src" / "wolsten").glob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(root),
        "src_lines": src_lines,
    }


def git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None, small: bool = False) -> int:
    """Command-line entry; small=True runs the self-test's reduced sizes."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "wolsten" / "cli.py").is_file():
        print(f"error: {root} has no src/wolsten/cli.py; run from a wolsten checkout", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)  # exact report values run to thousands of digits
    problems = oracles.self_check()
    if problems:
        print("error: oracle self-check failed: " + "; ".join(problems), file=sys.stderr)
        return 1
    work = root / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(root, work, args.seed)
    ops = workloads.build(args.workload, small=small)
    print(json.dumps({"env": environment(root), "workload": args.workload, "seed": args.seed}))
    raw = traced(bench, ops) if args.trace else measure(bench, ops, args.seconds)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": raw[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": not bench.wrong, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
