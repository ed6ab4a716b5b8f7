"""Bernoulli numbers, Wolstenholme quotients, and the irregular-pair scan.

Two independent routes reach B_{p-3} mod p: exact reduction of the
rational Bernoulli number, and -3 * w_p mod p through the Wolstenholme
quotient.  Their agreement is a tested invariant, not an assumption.
The scanner flags primes with H(1;p-1) == 0 mod p^3, equivalently primes
dividing the numerator of B_{p-3}.  It gets w_p mod p from E. Lehmer's
congruence sum_{k<=(p-1)/2} k^-3 == -2 B_{p-3} (mod p) (Ann. of Math. 39,
1938), summed mod p by ``wolsten.kernel`` in numpy passes over a block
of primes at once; the kernel is imported only when a scan starts.
The claims on Bernoulli numbers alone, cor_ijk and ji_zhoucai, are
checked here.
"""

from __future__ import annotations

import json
import math
import os
import threading
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from . import _import
from .errors import PreconditionError, WolstenError
from .harmonic import Composition, composition_sum, composition_sum_exact, mhs_mod
# reduce_mod is unused here; bench/probe.py patches it.
from .padic import PrimePower, Residue, is_prime, primes_in_range, reduce_mod  # noqa: F401

if TYPE_CHECKING:  # report loads with a scan or a claim check
    from .report import CongruenceReport


def __getattr__(name: str):
    # The scan's names from parallel and report load on first use, so that
    # `bernoulli --k` loads neither; one bound here first (bench/probe.py
    # wraps parallel_map) is kept.
    module = {"POOL_START_S": "parallel", "parallel_map": "parallel", "encode_report": "report",
              "join_lines": "report"}.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(_import(f"{__package__}.{module}"), name))

DEFAULT_EXACT_BOUND = 400

_bernoulli_cache: list[Fraction] = [Fraction(1)]
_bernoulli_lock = threading.Lock()


def _tangent_numbers(n: int) -> list[int]:
    # [T_1, ..., T_n], tan x = sum T_k x^(2k-1)/(2k-1)!, in O(n^2) integer
    # steps (Brent and Harvey, "Fast computation of Bernoulli, Tangent and
    # Secant numbers", 2013, algorithm TangentNumbers).
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def bernoulli_exact(k: int, bound: int = DEFAULT_EXACT_BOUND) -> Fraction:
    """Exact B_k, with B_1 = -1/2, from the integer tangent numbers T_n.

    B_(2n) = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)), and B_k = 0 for the other
    odd k.  The T_n come from Brent and Harvey's O(k^2) integer algorithm,
    with no gcd until each B_(2n) is reduced once.  The cache of B_0, B_1,
    ... grows at least geometrically, to max(k, twice its last index), but
    never past ``bound`` (default 400), which caps the cost of one call.
    """
    if k < 0:
        raise PreconditionError(f"k must be >= 0, got {k}")
    if k > bound:
        raise PreconditionError(f"k={k} exceeds the exact-route bound {bound}")
    with _bernoulli_lock:
        if len(_bernoulli_cache) <= k:
            top = min(max(k, 2 * (len(_bernoulli_cache) - 1)), bound)
            tangent = _tangent_numbers(top // 2)
            for i in range(len(_bernoulli_cache), top + 1):
                if i == 1:
                    b = Fraction(-1, 2)
                elif i % 2:
                    b = Fraction(0)
                else:
                    n = i // 2
                    b = Fraction((-1) ** (n - 1) * i * tangent[n - 1], 4**n * (4**n - 1))
                _bernoulli_cache.append(b)
        return _bernoulli_cache[k]


def wolstenholme_quotient(p: int) -> Residue:
    """The unique w_p mod p^2 with H(1;p-1) == w_p * p^2 (mod p^4)."""
    if not is_prime(p) or p < 5:
        raise PreconditionError(f"p={p} must be a prime >= 5")
    h = mhs_mod(Composition.of(1), p - 1, PrimePower(p, 4)).value
    if h % (p * p):
        raise WolstenError(
            f"H(1;{p - 1}) has {p}-adic valuation < 2; impossible for a prime >= 5"
        )
    return Residue(h // (p * p), PrimePower(p, 2))


def check_cor_ijk(p: int) -> CongruenceReport:
    """sum 1/(ijk) over i+j+k=p == -2 B_{p-3} mod p, for primes p >= 5.

    The right side always comes from the quotient route (-2 B == 6 w_p);
    when p is within the exact Bernoulli bound the exact route must agree
    or the verdict fails.  Beyond the bound the reported valuation is the
    residue-level lower bound (1 when congruent).
    """
    from .report import FAIL, congruence_report

    rhs_res = 6 * wolstenholme_quotient(p).value % p  # refuses p < 5
    if p - 3 <= DEFAULT_EXACT_BOUND:
        rhs = -2 * bernoulli_exact(p - 3)
        rep = congruence_report("cor_ijk", p, 1, composition_sum_exact(3, p), rhs, {})
        if rep.rhs_residue != rhs_res:
            # The routes disagree: report the quotient route's residue.
            rep = rep._replace(rhs_residue=rhs_res, verdict=FAIL)
        return rep
    m = PrimePower(p, 1)
    return congruence_report("cor_ijk", p, 1, composition_sum(3, p, m), Residue(rhs_res, m), {})


def check_ji_zhoucai(p: int, n_parts: int) -> CongruenceReport:
    """Arbitrary-length composition sums against Bernoulli numbers.

    Odd n:  sum == -(n-1)! B_{p-n}                   mod p.
    Even n: sum == -(n! n p / (2(n+1))) B_{p-n-1}    mod p^2.
    """
    if not is_prime(p) or p < 5:
        raise PreconditionError(f"p={p} must be a prime >= 5")
    if not 2 <= n_parts <= p - 2:
        raise PreconditionError(f"requires 2 <= n_parts <= p-2, got {n_parts}")
    from .report import congruence_report

    n = n_parts
    if n % 2:
        precision = 1
        rhs = -math.factorial(n - 1) * bernoulli_exact(p - n)
    else:
        precision = 2
        rhs = -Fraction(math.factorial(n) * n * p, 2 * (n + 1)) * bernoulli_exact(p - n - 1)
    lhs = composition_sum_exact(n, p)
    return congruence_report("ji_zhoucai", p, precision, lhs, rhs, {"n_parts": n})


# --------------------------------------------------------------------------
# Irregular-pair scan

# In the kernel's uint64 lanes a product of two residues below p fits
# while p < 2^32, and a row's sum of (p - 1)/2 of them stays below 2^62
# while p < 2^31.5, which this bound rounds down.  Every prime below it
# is also decided by padic's four-base Miller-Rabin test (to 3215031751).
KERNEL_P_LIMIT = 3_030_000_000

SCAN_BLOCK_SIZE = 64

# A large prime costs the kernel about 4.5 ns per unit of p (9.5 ms at
# p = 2124679, in 64-bit lanes, on a 2-core machine).  A block per worker
# repays the pool's start once a window's primes sum to about 3.6e7; the
# threshold, 2.5 times that (about 9e7), leaves a margin.
_NS_PER_P = 4.5e-9


class IrregularRecord(NamedTuple):
    """Per-prime scan result; irregular means p | numerator(B_{p-3})."""

    p: int
    w_mod_p: int
    b_pm3_mod_p: int
    irregular: bool

    CSV_COLUMNS = ("p", "w_mod_p", "b_pm3_mod_p", "irregular")

    def to_obj(self) -> dict:
        w, b = str(self.w_mod_p), str(self.b_pm3_mod_p)
        return {"p": self.p, "w_mod_p": w, "b_pm3_mod_p": b, "irregular": self.irregular}

    def csv_row(self) -> list:
        return [self.p, self.w_mod_p, self.b_pm3_mod_p, "true" if self.irregular else "false"]


def _scan_block(primes: tuple[int, ...]) -> list[tuple[int, int]]:
    from . import kernel

    return list(zip(primes, kernel._w_mod_block(primes)))


def irregular_scan(
    p_min: int,
    p_max: int,
    workers: int = 1,
    checkpoint_path: str | None = None,
    start: int = 0,
) -> list[IrregularRecord]:
    """Scan every prime in [p_min, p_max] for the irregular pair (p, p-3).

    Gets w_p mod p, which is -B_{p-3}/3 mod p, from Lehmer's congruence
    sum_{k<=(p-1)/2} k^-3 == -2 B_{p-3} (mod p) in O(p) numpy work per
    prime, and flags primes where it vanishes, that is where
    H(1;p-1) == 0 mod p^3.  p_max must be below KERNEL_P_LIMIT (3.03e9).
    Work is split into contiguous blocks of at most 64 primes across
    worker processes, and into at least one block per worker once the
    primes sum to about 9e7; output is sorted by p and independent of the
    worker count.  If checkpoint_path is given, the file is replaced
    atomically with the last block completed in order.  A resumed scan
    passes the first prime to scan as ``start``; its checkpoint still
    records p_min.
    """
    if p_max >= KERNEL_P_LIMIT:
        raise PreconditionError(
            f"p_max={p_max} must be below {KERNEL_P_LIMIT}, the scan kernel's bound"
        )
    if workers < 1:
        raise PreconditionError(f"workers must be >= 1, got {workers}")
    # Load numpy with the kernel before parallel_map forks its pool, so
    # the workers inherit it rather than each importing it again.
    from . import kernel  # noqa: F401

    primes = primes_in_range(max(p_min, start, 5), p_max)
    size = SCAN_BLOCK_SIZE
    if sum(primes) >= 2.5 * 2 * __getattr__("POOL_START_S") / _NS_PER_P:  # a block per worker
        size = min(size, -(-len(primes) // workers))
    blocks = [tuple(primes[i : i + size]) for i in range(0, len(primes), size)]
    records: list[IrregularRecord] = []
    for block_result in __getattr__("parallel_map")(_scan_block, blocks, workers):
        records += [IrregularRecord(p, w, -3 * w % p, w == 0) for p, w in block_result]
        if checkpoint_path is not None:
            _write_checkpoint(checkpoint_path, p_min, p_max, records[-1].p)
    return records


def _write_checkpoint(path: str, p_min: int, p_max: int, last_p: int) -> None:
    # Write beside the target and rename over it: a kill leaves either the
    # old checkpoint or the new one, never part of one.
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"p_min": p_min, "p_max": p_max, "last_p": last_p}, fh)
            fh.write("\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise WolstenError(f"cannot write checkpoint {path}: {exc.strerror or exc}") from None


def read_checkpoint(path: str) -> dict:
    """The checkpoint's {"p_min", "p_max", "last_p"}; WolstenError if unusable."""
    try:
        with open(path, encoding="utf-8") as fh:
            ck = json.load(fh)
    except (OSError, ValueError) as exc:
        raise WolstenError(f"cannot read checkpoint {path}: {exc}") from None
    keys = ("p_min", "p_max", "last_p")
    if not isinstance(ck, dict) or not all(isinstance(ck.get(k), int) for k in keys):
        raise WolstenError(f"checkpoint {path} lacks integer p_min, p_max and last_p")
    return ck


def records_to_jsonl(records: list[IrregularRecord]) -> str:
    encode = __getattr__("encode_report")
    return __getattr__("join_lines")(encode(r) for r in records)
