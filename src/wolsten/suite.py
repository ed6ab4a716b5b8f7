"""One verifier per congruence claim, each returning a CongruenceReport.

Every report comes from report.congruence_report.  The seven binomial
claims (bailey4, bailey5, kazandzidis_k2, main_p5, main_exp, thm2_case1,
thm2_case2) take their side binom(a, b) / den from _binom_side, under one
size rule: exact while the arguments are small, else k -> its residue mod
p^k, and the engine still finds the difference valuation exactly by
raising k.  cor_ijk past the exact Bernoulli bound hands it residues mod p.
Negative controls (the p = 5 failures) run through the same verifiers and
report the failing residues rather than raising.  The quadruple search
computes no binomial: it decides each tuple by Theorem 2's c mod p^2.

grid_reports returns a grid's reports in lexicographic order, one task
per point.  grid_blocks, the CLI's path, cuts a prime range's points into
a few slabs per worker; each worker checks its slab's points in order and
writes each report line to its own spill file as it goes.  That file is a
slab's only side effect: its result is its line counts per prime and its
failed reports, so no report text crosses the pool.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from fractions import Fraction
from typing import Callable, NamedTuple

from .bernoulli import (
    DEFAULT_EXACT_BOUND,
    bernoulli_exact,
    wolstenholme_quotient,
)
from .binomial import _check_p, binom, binom_mod, ratio, rising_binom
from .errors import PreconditionError, WolstenError
from .harmonic import (
    Composition,
    composition_sum,
    composition_sum_exact,
    genwols_check,
    h12_checks,
    mhs_exact,
)
# reduce_mod is unused here; bench/probe.py patches it.
from .padic import (
    PrimePower,
    Residue,
    _reduce,
    is_prime,
    padic_congruent,
    reduce_mod,
    valuation,
)
from .parallel import POOL_START_S, parallel_map
from .report import FAIL, CongruenceReport, congruence_report, encode_report

__all__ = [
    "QuadrupleHit",
    "check_wolstenholme",
    "check_bailey4",
    "check_bailey5",
    "check_kazandzidis",
    "check_main",
    "check_main_exp",
    "check_thm2_case1",
    "check_thm2_case2",
    "check_prop_ijk",
    "check_cor_ijk",
    "check_ji_zhoucai",
    "find_exact_quadruples",
    "thm2_c_value",
    "run_check",
    "grid_reports",
    "grid_blocks",
    "Claim",
    "CLAIMS",
    "lookup_claim",
]

# Largest top argument for which a binomial claim expands the exact
# binomial (roughly 600 decimal digits); beyond it the modular route runs.
_EXACT_ARG_LIMIT = 2_000


@functools.lru_cache(maxsize=16)
def _h1_over_lcm(m: int) -> tuple[int, list[int]]:
    """L = lcm(1, ..., m) and the integers L H(1;n) for 0 <= n <= m."""
    L = math.lcm(*range(1, m + 1))
    return L, list(itertools.accumulate((L // i for i in range(1, m + 1)), initial=0))


@functools.cache
def _wp(p: int) -> int:
    return wolstenholme_quotient(p).value


@functools.lru_cache(maxsize=256)  # a grid tests its prime once, not once a check
def _require_prime(p: int, minimum: int) -> None:
    if not is_prime(p) or p < minimum:
        raise PreconditionError(f"p={p} must be a prime >= {minimum}")


_prime_power = functools.lru_cache(maxsize=256)(PrimePower)  # the same for each modulus


def _binom_side(p: int, a: int, b: int, den: int = 1) -> Fraction | Callable[[int], int]:
    """binom(a, b) / den for congruence_report: exact while cheap, else k -> its residue mod p^k.

    A binomial 0, 1 or a stays exact, so an exact equality keeps its
    infinite valuation.  The modular side must be p-integral: with v =
    v_p(den), binom(a, b) mod p^(k+v), divided by p^v and by den's unit
    part, is the side mod p^k; when p^v does not divide it, a p is left in
    the denominator and NonIntegralError is raised.  A p past binom_mod's
    bound raises here, before the other side (w_p, Theorem 2's c) costs seconds.
    """
    if b <= 1 or b >= a - 1 or a <= _EXACT_ARG_LIMIT:
        return ratio(binom(a, b), den)
    _check_p(p)
    v = valuation(den, p)
    pv, unit = p**v, den // p**v

    def side(k: int) -> int:
        d = binom_mod(a, b, _prime_power(p, k + v))
        if d % pv:  # p^v does not divide binom(a, b)
            return _reduce(Fraction(d, den), p, k)  # raises NonIntegralError
        return d // pv * pow(unit, -1, p**k) % p**k

    return side


def check_wolstenholme(p: int, precision: int = 2) -> CongruenceReport:
    """H(1;p-1) == 0 mod p^2 for primes p >= 5."""
    _require_prime(p, 5)
    h = mhs_exact(Composition.of(1), p - 1)
    return congruence_report("wolstenholme", p, precision, h, 0, {})


def check_bailey4(p: int, n: int, r: int, precision: int = 3) -> CongruenceReport:
    """binom(np, rp) == binom(n, r) mod p^3, with binom(n, r) = 0 when n < r."""
    _require_prime(p, 5)
    if n < 0 or r < 0:
        raise PreconditionError("n and r must be non-negative")
    return congruence_report(
        "bailey4", p, precision, _binom_side(p, n * p, r * p), binom(n, r), {"n": n, "r": r}
    )


def check_bailey5(p: int, N: int, R: int, n: int, r: int, precision: int = 3) -> CongruenceReport:
    """binom(N p^3 + n, R p^3 + r) == binom(N, R) binom(n, r) mod p^3 for n, r < p."""
    _require_prime(p, 5)
    if min(N, R, n, r) < 0:
        raise PreconditionError("all parameters must be non-negative")
    if n >= p or r >= p:
        raise PreconditionError(f"requires n, r < p, got n={n}, r={r}, p={p}")
    p3 = p**3
    lhs = _binom_side(p, N * p3 + n, R * p3 + r)
    rhs = binom(N, R) * binom(n, r)
    return congruence_report("bailey5", p, precision, lhs, rhs, {"N": N, "R": R, "n": n, "r": r})


def check_kazandzidis(
    p: int, n: int, r: int, form: str = "K2", precision: int = 3
) -> CongruenceReport:
    """The rising-factorial (K1) and plain (K2) ratio congruences.

    For p > 3 the ratio is == 1 mod p^3; for p = 3 the right side carries
    the correction term 1 - p^2 n r (n+r) for K1 and 1 - p^2 n r (n-r)
    for K2.  K1 accepts any integer n (r >= 1); K2 needs n >= r >= 0.
    """
    _require_prime(p, 3)
    if form == "K1":
        if r < 1:
            raise PreconditionError(f"K1 needs r >= 1, got {r}")
        lhs = ratio(rising_binom(n * p, r * p), rising_binom(n, r))
        correction = n * r * (n + r)
    elif form == "K2":
        if not 0 <= r <= n:
            raise PreconditionError(f"K2 needs n >= r >= 0, got n={n}, r={r}")
        lhs = _binom_side(p, n * p, r * p, binom(n, r))
        correction = n * r * (n - r)
    else:
        raise PreconditionError(f"form must be 'K1' or 'K2', got {form!r}")
    rhs = Fraction(1 - p * p * correction) if p == 3 else Fraction(1)
    claim = "kazandzidis_k1" if form == "K1" else "kazandzidis_k2"
    return congruence_report(claim, p, precision, lhs, rhs, {"n": n, "r": r})


def check_main(p: int, n: int, r: int, precision: int = 5) -> CongruenceReport:
    """binom(np, rp) / binom(n, r) == 1 + w_p n r (n-r) p^3 mod p^5.

    The theorem holds for primes >= 7; p = 5 is accepted so the failing
    residues (751 vs 126 at n=4, r=1) can be reported.  n < r is an
    error, not a vacuous pass.
    """
    return _main_report("main_p5", p, n, r, 1, precision, {"n": n, "r": r})


def check_main_exp(p: int, n: int, r: int, e: int, precision: int = 5) -> CongruenceReport:
    """The same mod-p^5 congruence with p replaced by p^e, any e >= 1."""
    return _main_report("main_exp", p, n, r, e, precision, {"n": n, "r": r, "e": e})


def _main_report(
    claim_id: str, p: int, n: int, r: int, e: int, precision: int, params: dict
) -> CongruenceReport:
    _require_prime(p, 5)
    if e < 1:
        raise PreconditionError(f"e must be >= 1, got {e}")
    if n < 0 or r < 0:
        raise PreconditionError("n and r must be non-negative")
    pe = p**e
    # n < r surfaces as ZeroDenominatorError from the vanishing binom(n, r).
    lhs = _binom_side(p, n * pe, r * pe, binom(n, r))
    rhs = 1 + _wp(p) * n * r * (n - r) * p**3
    return congruence_report(claim_id, p, precision, lhs, rhs, params)


def _thm2_c(hn, hr, hd, w, N: int, R: int):
    """Theorem 2's c from H1(n), H1(r), H1(n-r) and w_p: Fractions, or residues mod p^2."""
    return hn * N - hr * R + (w * N * R - hd) * (N - R)


def thm2_c_value(p: int, N: int, R: int, n: int, r: int) -> Fraction:
    """The correction coefficient H1(n)N - H1(r)R + (w_p N R - H1(n-r))(N - R), for 0 <= r <= n."""
    L, h = _h1_over_lcm(max(n, p - 1))  # c L is an integer
    return Fraction(_thm2_c(h[n], h[r], h[n - r], _wp(p) * L, N, R), L)


def check_thm2_case1(
    p: int, N: int, R: int, n: int, r: int, precision: int = 5
) -> CongruenceReport:
    """binom(Np^3+n, Rp^3+r) / [binom(N,R) binom(n,r)] == 1 + c p^3 mod p^5.

    Requires r <= n < p and N >= R >= 0.  Valid as a theorem for p >= 7;
    p = 5 runs as a negative control (2501 vs 1 at N=3, R=1, n=4, r=1).
    """
    _require_prime(p, 5)
    if not (0 <= r <= n < p):
        raise PreconditionError(f"requires 0 <= r <= n < p, got n={n}, r={r}")
    if not 0 <= R <= N:
        raise PreconditionError(f"requires N >= R >= 0, got N={N}, R={R}")
    p3 = p**3
    lhs = _binom_side(p, N * p3 + n, R * p3 + r, binom(N, R) * binom(n, r))
    c = thm2_c_value(p, N, R, n, r)
    rhs = Fraction(c.denominator + c.numerator * p3, c.denominator)
    params = {"N": N, "R": R, "n": n, "r": r, "c": f"{c.numerator}/{c.denominator}"}
    return congruence_report("thm2_case1", p, precision, lhs, rhs, params)


def check_thm2_case2(
    p: int, N: int, R: int, n: int, r: int, precision: int = 5
) -> CongruenceReport:
    """binom(Np^3+n, Rp^3+r) / binom(N,R) == (-1)^(r-n+1) ((N-R)/r) binom(r-1,n)^-1 p^3.

    Mod p^5, for 1 <= n < r < p and N >= R >= 0.  Valid for p >= 7; at
    p = 5 the verdicts are exploratory observations, not assertions.
    """
    _require_prime(p, 5)
    if not (1 <= n < r < p):
        raise PreconditionError(f"requires 1 <= n < r < p, got n={n}, r={r}")
    if not 0 <= R <= N:
        raise PreconditionError(f"requires N >= R >= 0, got N={N}, R={R}")
    p3 = p**3
    lhs = _binom_side(p, N * p3 + n, R * p3 + r, binom(N, R))
    sign = -1 if (r - n + 1) % 2 else 1
    rhs = Fraction(sign * (N - R) * p3, r * binom(r - 1, n))
    return congruence_report("thm2_case2", p, precision, lhs, rhs, {"N": N, "R": R, "n": n, "r": r})


def check_prop_ijk(p: int) -> CongruenceReport:
    """2H(2,1;p-1) == -2H(1,2;p-1) == sum 1/(ijk) over i+j+k=p, mod p."""
    if not is_prime(p) or p < 3:
        raise PreconditionError(f"p={p} must be an odd prime")
    h21 = mhs_exact(Composition.of(2, 1), p - 1)
    h12 = mhs_exact(Composition.of(1, 2), p - 1)
    comp = composition_sum_exact(3, p)
    ok1, v1 = padic_congruent(2 * h21, -2 * h12, p, 1)
    return congruence_report(
        "prop_ijk", p, 1, 2 * h12 + comp, 0, {"first_link_valuation": int(v1)}, holds=ok1
    )


def check_cor_ijk(p: int) -> CongruenceReport:
    """sum 1/(ijk) over i+j+k=p == -2 B_{p-3} mod p, for primes p >= 5.

    The right side always comes from the quotient route (-2 B == 6 w_p);
    when p is within the exact Bernoulli bound the exact route must agree
    or the verdict fails.  Beyond the bound the reported valuation is the
    residue-level lower bound (1 when congruent).
    """
    _require_prime(p, 5)
    rhs_res = 6 * _wp(p) % p
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
    _require_prime(p, 5)
    if not 2 <= n_parts <= p - 2:
        raise PreconditionError(f"requires 2 <= n_parts <= p-2, got {n_parts}")
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
# Quadruple search


class QuadrupleHit(NamedTuple):
    """A tuple with binom(Np^3+n, Rp^3+r) == binom(N,R) binom(n,r) mod p^5: c == 0 mod p^2."""

    N: int
    R: int
    n: int
    r: int
    nontrivial: bool

    def to_obj(self) -> dict:
        return {"N": self.N, "R": self.R, "n": self.n, "r": self.r, "nontrivial": self.nontrivial}


def _search_rows(args: tuple[int, int, list[int], int]) -> list[QuadrupleHit]:
    p, N, h, w = args
    q = p * p
    return [
        QuadrupleHit(N, R, n, r, nontrivial=(N != R or n != r))
        for R in range(1, N + 1)
        for n in range(1, p)
        for r in range(1, n + 1)
        if _thm2_c(h[n], h[r], h[n - r], w, N, R) % q == 0
    ]


def find_exact_quadruples(p: int, workers: int = 1) -> list[QuadrupleHit]:
    """Exhaustive search of 1 <= R <= N < p, 1 <= r <= n < p for mod-p^5 coincidences.

    Records, in lexicographic order, every tuple for which the bailey5
    congruence holds mod p^5.  By Theorem 2 (check_thm2_case1) the binomial
    is binom(N,R) binom(n,r) (1 + c p^3) mod p^5, and binom(N,R) binom(n,r)
    is a p-unit here, so the hits are the tuples with c == 0 mod p^2.
    Tuples with R > N or r > n, whose right side vanishes, are left out.
    A search whose (p(p-1)/2)^2 tuples cannot repay a pool runs inline.
    """
    _require_prime(p, 7)
    L, h = _h1_over_lcm(p - 1)
    h = [_reduce(Fraction(x, L), p, 2) for x in h]
    rows = [(p, N, h, _wp(p)) for N in range(1, p)]
    if (p * (p - 1) // 2) ** 2 * 0.45e-6 < 2 * POOL_START_S:  # 0.45 us a tuple
        workers = 1
    return [hit for hits in parallel_map(_search_rows, rows, workers) for hit in hits]


# --------------------------------------------------------------------------
# Claim registry and grid driver


class _ClaimFields(NamedTuple):
    id: str
    params: tuple[str, ...]
    check: Callable[..., CongruenceReport | tuple[CongruenceReport, ...]]
    domain: Callable[..., bool] | None = None
    reports: tuple[str, ...] = ()
    aliases: tuple[str, ...] = ()
    takes_precision: bool = True
    exploratory: frozenset[int] = frozenset()
    min_p: int = 5


class Claim(_ClaimFields):
    """One claim: its parameters, checker, grid domain and report ids.

    ``check(p=p, **params)``, plus ``precision`` when one is given (only
    to a claim that ``takes_precision``; the checker's signature holds the
    default), returns one report or a tuple; ids outside ``reports`` (default: the
    id) are rejected.  ``domain(p, **params)`` trims grids; the checkers
    keep their own, looser, argument checks.  ``min_p`` is the smallest
    prime the checker takes; a prime range skips those below it.  Verdicts
    at ``exploratory`` primes are reported but not asserted.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace fills reports too

    def __new__(cls, *args, **kwargs) -> Claim:
        claim = super().__new__(cls, *args, **kwargs)
        return claim if claim.reports else claim._replace(reports=(claim.id,))


# h12 and genwols look their checkers up at call time, so a rebound
# module attribute (e.g. an instrumenting wrapper) is honoured.
CLAIMS = (
    Claim("wolstenholme", (), check_wolstenholme),
    Claim("bailey4", ("n", "r"), check_bailey4),
    Claim("bailey5", ("N", "R", "n", "r"), check_bailey5,
          lambda p, N, R, n, r: n < p and r < p),
    Claim("kazandzidis_k1", ("n", "r"), functools.partial(check_kazandzidis, form="K1"),
          lambda p, n, r: 1 <= r <= n, min_p=3),
    Claim("kazandzidis_k2", ("n", "r"), functools.partial(check_kazandzidis, form="K2"),
          lambda p, n, r: 0 <= r <= n, min_p=3),
    Claim("main_p5", ("n", "r"), check_main, lambda p, n, r: r <= n, aliases=("main",)),
    Claim("main_exp", ("n", "r", "e"), check_main_exp, lambda p, n, r, e: r <= n),
    Claim("thm2_case1", ("N", "R", "n", "r"), check_thm2_case1,
          lambda p, N, R, n, r: R <= N and r <= n < p),
    Claim("thm2_case2", ("N", "R", "n", "r"), check_thm2_case2,
          lambda p, N, R, n, r: R <= N and 1 <= n < r < p, exploratory=frozenset({5})),
    Claim("prop_ijk", (), check_prop_ijk, takes_precision=False, min_p=3),
    Claim("cor_ijk", (), check_cor_ijk, takes_precision=False),
    Claim("ji_zhoucai", ("n_parts",), check_ji_zhoucai,
          lambda p, n_parts: 2 <= n_parts <= p - 2, takes_precision=False),
    Claim("h12", (), lambda p: h12_checks(p), reports=("h12", "h12p"),
          aliases=("h12p",), takes_precision=False, min_p=7),
    Claim("genwols", ("s", "d"), lambda p, s, d: genwols_check(s, d, p),
          lambda p, s, d: p >= s * d + 3, takes_precision=False),
)

_CLAIMS_BY_NAME = {name: c for c in CLAIMS for name in (c.id, *c.aliases)}


def lookup_claim(name: str) -> Claim:
    """The registry row for a claim id or alias."""
    claim = _CLAIMS_BY_NAME.get(name)
    if claim is None:
        raise PreconditionError(f"unknown claim {name!r}")
    return claim


def _claim_for(claim_id: str, precision: int | None) -> Claim:
    claim = lookup_claim(claim_id)
    if precision is not None and not claim.takes_precision:
        raise PreconditionError(f"claim {claim.id} fixes its own precision; drop the override")
    return claim


def run_check(
    claim_id: str, p: int, params: dict, precision: int | None = None
) -> list[CongruenceReport]:
    """Run one claim instance; h12 yields its two linked reports."""
    claim = _claim_for(claim_id, precision)
    kwargs = {} if precision is None else {"precision": precision}
    out = claim.check(p=p, **params, **kwargs)
    reports = [out] if isinstance(out, CongruenceReport) else list(out)
    for rep in reports:
        if rep.claim_id not in claim.reports:
            raise WolstenError(f"claim {claim.id} produced a {rep.claim_id!r} report")
    return reports


def _grid_claim(claim_id: str, ranges: dict[str, range], precision: int | None) -> Claim:
    claim = _claim_for(claim_id, precision)
    for name in claim.params:
        if name not in ranges:
            raise PreconditionError(f"claim {claim.id} needs parameter {name!r}")
    return claim


def grid_reports(
    claim_id: str,
    p: int,
    ranges: dict[str, range],
    precision: int | None = None,
    workers: int = 1,
) -> list[CongruenceReport]:
    """Run a claim over the cartesian product of parameter ranges.

    Tuples violating the claim's domain constraints are skipped, the rest
    are enumerated in lexicographic order, one task per point; output
    order is deterministic for any worker count.
    """
    claim = _grid_claim(claim_id, ranges, precision)
    points = (dict(zip(claim.params, combo))
              for combo in itertools.product(*(ranges[name] for name in claim.params)))
    tasks = [params for params in points if claim.domain is None or claim.domain(p, **params)]
    check = functools.partial(run_check, claim.id, p, precision=precision)
    return [r for reps in parallel_map(check, tasks, workers) for r in reps]


# A slab: the claim, its parameter ranges, the primes it touches, its
# index range into their points, put end to end from the first prime's,
# and its spill file.  bench/probe.py names this task's span suite.grid_task.
def _grid_one(slab: tuple) -> tuple[dict[int, int], list[CongruenceReport]]:
    claim_id, primes, axes, precision, fmt, start, stop, path = slab
    claim = lookup_claim(claim_id)
    size = math.prod(map(len, axes))
    counts, failed = {}, []
    with open(path, "w", encoding="utf-8") as fh:
        for at, p in zip(itertools.count(0, size), primes):  # at: p's first point in the stream
            points = itertools.product(*axes)
            for combo in itertools.islice(points, max(start - at, 0), min(stop - at, size)):
                params = dict(zip(claim.params, combo))
                if claim.domain is not None and not claim.domain(p, **params):
                    continue
                reports = run_check(claim.id, p, params, precision)
                counts[p] = counts.get(p, 0) + len(reports)
                for rep in reports:
                    fh.write(encode_report(rep, fmt))
                    if not rep.ok:
                        failed.append(rep)
    return counts, failed


# A few slabs per worker balance uneven ones.  Every slab's checks, at
# 16 us for the cheapest claims (a bailey5 check), outweigh the pool's
# start; a stream under two slabs' minimum is one slab, which parallel_map
# runs inline.
_SLABS_PER_WORKER = 4
_SLAB_MIN = round(POOL_START_S / 16e-6)


def grid_blocks(
    claim_id: str, primes: list[int], ranges: dict[str, range], spill: str | os.PathLike,
    precision: int | None = None, workers: int = 1, fmt: str = "json",
) -> list[tuple[str, dict[int, int], list[CongruenceReport]]]:
    """grid_reports' checks at each of primes as (spill file, lines per prime, failed reports).

    The primes' points, end to end, are cut into contiguous slabs; a
    worker checks a slab's points in the domain and writes their lines in
    fmt ("json" or "csv") to the slab's file in the directory spill.  The
    files in the order returned hold the lines of grid_reports' reports at
    each prime.  The stream's first point that raises names the error, on
    any worker count: parallel_map returns, and so raises, in slab order.
    """
    claim = _grid_claim(claim_id, ranges, precision)
    axes = tuple(ranges[name] for name in claim.params)
    size = math.prod(map(len, axes))
    total = size * len(primes)
    count = max(min(_SLABS_PER_WORKER * workers, total // _SLAB_MIN), 1)  # each >= _SLAB_MIN
    bounds = [(i * total // count, (i + 1) * total // count) for i in range(count) if total]
    slabs = [(claim.id, primes[a // size : -(-b // size)], axes, precision, fmt,
              a % size, a % size + b - a, os.path.join(spill, f"{i}.{fmt}"))
             for i, (a, b) in enumerate(bounds)]
    results = parallel_map(_grid_one, slabs, workers)
    return [(slab[-1], counts, failed) for slab, (counts, failed) in zip(slabs, results)]
