"""The benchmark's workloads: CLI invocations and the checks on their outputs.

Each workload is a list of ``Op``s, each one ``wolsten`` invocation that
writes its report through ``--out``.  An op's check reads that report and
compares it with the oracles, never with a stored copy of an earlier
output; ``rng`` (seeded from the benchmark's --seed) picks the sampled
records.  A check returns the problems it found, so an empty list means
the output is correct.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles

Check = Callable[[str, str, Path, random.Random], list[str]]


@dataclass(frozen=True)
class Op:
    args: tuple[str, ...]  # CLI arguments; the runner appends --out
    results: int  # primes scanned or checks decided, counted by the oracles
    check: Check


# ------------------------------------------------------------------ scan

def scan(pmin: int, pmax: int, workers: int, sample: int, checkpoint: bool = False) -> Op:
    primes = oracles.primes_between(max(pmin, 5), pmax)
    irregular = [p for p in oracles.PUBLISHED_IRREGULAR if pmin <= p <= pmax]
    args = ["scan", "--pmin", str(pmin), "--pmax", str(pmax), "--workers", str(workers)]
    if checkpoint:
        args += ["--checkpoint", "scan.ck"]

    def check(text: str, stdout: str, work: Path, rng: random.Random) -> list[str]:
        recs = [json.loads(line) for line in text.splitlines()]
        problems = []
        if [r["p"] for r in recs] != primes:
            problems.append(f"records cover {len(recs)} primes, the sieve counts {len(primes)}")
        found = [r["p"] for r in recs if r["irregular"]]
        if found != irregular:
            problems.append(f"irregular primes {found}, published {irregular}")
        for r in recs:
            p, w, b = r["p"], int(r["w_mod_p"]), int(r["b_pm3_mod_p"])
            if r["irregular"] != (w == 0) or b != -3 * w % p:
                problems.append(f"p={p}: inconsistent record {r}")
        picked = rng.sample(recs, min(sample, len(recs)))
        lehmer = oracles.b_pm3_mod_p([r["p"] for r in picked])
        for r in picked:
            if int(r["b_pm3_mod_p"]) != lehmer[r["p"]]:
                problems.append(f"p={r['p']}: B_(p-3) mod p is {r['b_pm3_mod_p']}, Lehmer gives {lehmer[r['p']]}")
        if checkpoint:
            ck = json.loads((work / "scan.ck").read_text())
            if (ck.get("p_max"), ck.get("last_p")) != (pmax, primes[-1]):
                problems.append(f"checkpoint {ck} does not mark the scan complete")
        return problems

    return Op(tuple(args), len(primes), check)


# ---------------------------------------------------------------- verify

_CLAIM_IDS = {"main": "main_p5"}
_FLAGS = {"n_parts": "--n-parts", "s": "--s", "d": "--d", "e": "--e"}  # scalars


def verify(claim: str, pmin: int, pmax: int, caps: dict, workers: int, sample: int) -> Op:
    """One grid run; caps holds each parameter's inclusive bound (n_max
    style for grid parameters, the value itself for scalar ones)."""
    claim_id = _CLAIM_IDS.get(claim, claim)
    args = ["verify", "--claim", claim, "--pmin", str(pmin), "--pmax", str(pmax)]
    for name, value in caps.items():
        args += [_FLAGS[name] if name in _FLAGS else f"--{name}-max", str(value)]
    args += ["--workers", str(workers)]
    expected = Counter()
    for p in oracles.primes_between(pmin, pmax):
        for params in oracles.claim_domain(claim_id, p, caps):
            expected[(p, tuple(sorted(params.items())))] += 1
    total = sum(expected.values())
    keys = {k for (_, params) in expected for k, _ in params}

    def check(text: str, stdout: str, work: Path, rng: random.Random) -> list[str]:
        lines = [json.loads(line) for line in text.splitlines()]
        problems = []
        seen = Counter(
            (o["p"], tuple(sorted((k, v) for k, v in o["params"].items() if k in keys)))
            for o in lines
        )
        if seen != expected:
            problems.append(f"{len(lines)} report lines, the claim's domain has {total}")
        ids = {"h12", "h12p"} if claim_id == "h12" else {claim_id}
        for o in lines:
            dv = o["diff_valuation"]
            if o["claim_id"] not in ids or o["verdict"] != "pass" or (dv != "inf" and dv < o["precision"]):
                problems.append(f"{o['claim_id']} p={o['p']} {o['params']}: {o['verdict']}, v={dv}")
                break
        if f"{claim_id}: {total}/{total} pass" not in stdout:
            problems.append(f"summary line {stdout.strip()!r} does not read {total}/{total}")
        for o in rng.sample(lines, min(sample, len(lines))):
            problems += _check_line(o)
        return problems

    return Op(tuple(args), total, check)


def _check_line(o: dict) -> list[str]:
    p = o["p"]
    prec, lhs, rhs = oracles.claim_residues(o["claim_id"], p, o["params"])
    where = f"{o['claim_id']} p={p} {o['params']}"
    got = (o["precision"], int(o["lhs"]["residue"]), int(o["rhs"]["residue"]))
    problems = [] if got == (prec, lhs, rhs) else [f"{where}: (precision, lhs, rhs) {got}, oracle {(prec, lhs, rhs)}"]
    for side in ("lhs", "rhs"):
        exact = o[side]["exact"]
        if exact is not None and oracles.reduce(Fraction(exact), p, prec) != int(o[side]["residue"]):
            problems.append(f"{where}: {side}.exact does not reduce to {side}.residue")
    if o["claim_id"] == "cor_ijk" and o["rhs"]["exact"] is not None:
        if Fraction(o["rhs"]["exact"]) != -2 * oracles.bernoulli(p - 3):
            problems.append(f"{where}: rhs.exact is not -2 B_(p-3)")
    return problems


# ---------------------------------------------------------------- search

def search(p: int, method: str | None, workers: int, sample: int) -> Op:
    args = ["search", "--p", str(p)] + (["--method", method] if method else [])
    args += ["--workers", str(workers)]

    def check(text: str, stdout: str, work: Path, rng: random.Random) -> list[str]:
        hits = [json.loads(line) for line in text.splitlines()]
        tuples = [(h["N"], h["R"], h["n"], h["r"]) for h in hits]
        problems = []
        for h, t in zip(hits, tuples):
            if h["nontrivial"] != (t[0] != t[1] or t[2] != t[3]):
                problems.append(f"hit {h}: wrong nontrivial flag")
            if not oracles.search_holds(p, *t):
                problems.append(f"hit {t} does not hold mod {p}^5")
        reported = set(tuples)
        trivial = {(N, N, n, n) for N in range(1, p) for n in range(1, p)}
        if not trivial <= reported:
            problems.append(f"{len(trivial - reported)} of {len(trivial)} trivial tuples missing")
        if p == 7 and reported - trivial != oracles.PAPER_SEVEN:
            problems.append(f"nontrivial hits {sorted(reported - trivial)} differ from the paper's seven")
        decided = [
            (N, R, n, r)
            for N in range(1, p) for R in range(1, N + 1)
            for n in range(1, p) for r in range(1, n + 1)
            if (N, R, n, r) not in reported
        ]
        for t in rng.sample(decided, min(sample, len(decided))):
            if oracles.search_holds(p, *t):
                problems.append(f"unreported tuple {t} holds mod {p}^5")
        return problems

    return Op(tuple(args), oracles.search_decided(p), check)


# ------------------------------------------------------------- workloads

def build(name: str, small: bool = False) -> list[Op]:
    """The ops of one workload; small=True gives the self-test's sizes.

    "scan" is the dense scan (many small primes, numpy kernel, pool) then
    the high scan (a few huge primes, fallback kernel, one inline block);
    "verify" is the exact-route grids then the modular-route grid and
    searches.  Each op's output is checked on its own.
    """
    if name == "scan":
        return scan_dense(small) + scan_high(small)
    if name == "verify":
        return verify_exact(small) + verify_modular(small)
    raise ValueError(f"unknown workload {name!r}")


def scan_dense(small: bool) -> list[Op]:
    return [scan(5, 2000 if small else 50000, 2, 12)]


def scan_high(small: bool) -> list[Op]:
    lo, hi = (16800, 16900) if small else (2124600, 2124700)
    return [scan(lo, hi, 2, 2, checkpoint=True)]


def verify_exact(small: bool) -> list[Op]:
    if small:
        return [
            verify("thm2_case1", 7, 7, {"N": 2, "n": 6}, 1, 4),
            verify("thm2_case2", 7, 7, {"N": 2, "n": 6}, 1, 4),
            verify("main", 7, 11, {"n": 6}, 1, 4),
            verify("kazandzidis_k1", 3, 5, {"n": 4}, 1, 4),
            verify("cor_ijk", 7, 31, {}, 1, 4),
            verify("h12", 7, 13, {}, 1, 4),
            verify("ji_zhoucai", 7, 19, {"n_parts": 4}, 1, 3),
            verify("genwols", 7, 19, {"s": 1, "d": 3}, 1, 3),
        ]
    ops = [
        verify("thm2_case1", 7, 13, {"N": 6, "n": 12}, 1, 6),
        verify("thm2_case2", 7, 13, {"N": 6, "n": 12}, 1, 6),
        verify("main", 7, 31, {"n": 12}, 1, 6),
        verify("main_exp", 7, 11, {"n": 4, "e": 2}, 1, 4),
        verify("kazandzidis_k1", 3, 11, {"n": 8}, 1, 4),
        verify("kazandzidis_k2", 3, 11, {"n": 8}, 1, 4),
    ]
    ops += [verify(c, 7, 401, {}, 1, 4) for c in ("wolstenholme", "h12", "prop_ijk", "cor_ijk")]
    ops += [verify("ji_zhoucai", 7, 47, {"n_parts": m}, 1, 3) for m in range(2, 7)]
    ops += [
        verify("genwols", 7, 61, {"s": s, "d": d}, 1, 3)
        for s, d in ((1, 1), (1, 2), (1, 3), (2, 2), (3, 1), (1, 5))
    ]
    return ops


def verify_modular(small: bool) -> list[Op]:
    return [
        verify("bailey5", 13, 13 if small else 23, {"N": 3 if small else 6, "n": 12}, 2, 6),
        search(7, None, 2, 12),
        search(11 if small else 17, "modular", 2, 12),
    ]


NAMES = ("scan", "verify")
