"""One verifier per congruence claim, each returning a CongruenceReport.

Congruences between exact values are reported through
report.congruence_report; integer congruences may take the prime-power
modular route when the binomial arguments are too large to expand, with
the difference valuation still computed exactly by precision escalation.
Negative controls (the p = 5 failures) run through the same verifiers and
report the failing residues rather than raising.

A grid's points are enumerated once, by _grid_tasks.  grid_reports
returns the reports; grid_lines, the CLI's path, has each worker encode
its reports and send back the lines, with a report only for a failed
check.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

from .bernoulli import (
    DEFAULT_EXACT_BOUND,
    bernoulli_exact,
    wolstenholme_quotient,
)
from .binomial import binom, binom_mod, binom_shifted, ratio, rising_binom
from .errors import BudgetExceededError, PreconditionError, WolstenError
from .harmonic import (
    Composition,
    composition_sum,
    composition_sum_exact,
    genwols_check,
    h12_checks,
    mhs_exact,
)
# reduce_mod and valuation are unused here; bench/probe.py patches them.
from .padic import (
    PrimePower,
    _int_valuation,
    is_prime,
    padic_congruent,
    reduce_mod,
    valuation,
)
from .parallel import parallel_map
from .report import FAIL, CongruenceReport, congruence_report, encode_report, verdict_of

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
    "grid_lines",
    "Claim",
    "CLAIMS",
    "lookup_claim",
]

# Largest top argument for which integer congruences expand the exact
# binomial (roughly 600 decimal digits); beyond it the modular route runs.
_EXACT_ARG_LIMIT = 2_000

# Largest n p^e for which main_exp expands binom(n p^e, r p^e).
_EXP_BUDGET = 10**6

_h1_cache: list[Fraction] = [Fraction(0)]
_w_cache: dict[int, int] = {}
_cache_lock = threading.Lock()


def _h1(n: int) -> Fraction:
    """Harmonic number H(1;n), cached progressively."""
    with _cache_lock:
        while len(_h1_cache) <= n:
            _h1_cache.append(_h1_cache[-1] + Fraction(1, len(_h1_cache)))
        return _h1_cache[n]


def _wp(p: int) -> int:
    w = _w_cache.get(p)
    if w is None:
        w = wolstenholme_quotient(p).value
        _w_cache[p] = w
    return w


def _require_prime(p: int, minimum: int) -> None:
    if not is_prime(p) or p < minimum:
        raise PreconditionError(f"p={p} must be a prime >= {minimum}")


def _integer_congruence(
    claim_id: str,
    p: int,
    precision: int,
    a: int,
    b: int,
    rhs: int,
    params: dict,
) -> CongruenceReport:
    """Report for the integer congruence binom(a, b) == rhs mod p^precision."""
    if b < 0 or b > a or b <= 1 or b >= a - 1 or a <= _EXACT_ARG_LIMIT:
        return congruence_report(claim_id, p, precision, binom(a, b), rhs, params)
    q = PrimePower(p, precision).modulus  # PreconditionError if precision < 1
    # Residues only: raise the modulus until the difference shows.  A
    # passing check's difference vanishes mod p^precision, so the first
    # modulus is p^(precision+2); it gives lhs mod p^precision too.
    k = precision + 2
    lhs_k = binom_mod(a, b, PrimePower(p, k))
    lhs_res, d = lhs_k % q, (lhs_k - rhs) % p**k
    while not d:
        k += 2
        if k > 64:
            raise BudgetExceededError(f"difference valuation for binom({a},{b}) exceeds p^64")
        d = (binom_mod(a, b, PrimePower(p, k)) - rhs) % p**k
    v = _int_valuation(d, p)
    return CongruenceReport(
        claim_id=claim_id,
        p=p,
        precision=precision,
        lhs_residue=lhs_res,
        rhs_residue=rhs % q,
        diff_valuation=v,
        verdict=verdict_of(v >= precision),
        rhs_exact=Fraction(rhs),
        params=params,
    )


def check_wolstenholme(p: int, precision: int | None = None) -> CongruenceReport:
    """H(1;p-1) == 0 mod p^2 for primes p >= 5."""
    _require_prime(p, 5)
    m = 2 if precision is None else precision
    h = mhs_exact(Composition.of(1), p - 1)
    return congruence_report("wolstenholme", p, m, h, 0, {})


def check_bailey4(
    p: int, n: int, r: int, precision: int | None = None
) -> CongruenceReport:
    """binom(np, rp) == binom(n, r) mod p^3, with binom(n, r) = 0 when n < r."""
    _require_prime(p, 5)
    if n < 0 or r < 0:
        raise PreconditionError("n and r must be non-negative")
    m = 3 if precision is None else precision
    return _integer_congruence(
        "bailey4", p, m, n * p, r * p, binom(n, r), {"n": n, "r": r}
    )


def check_bailey5(
    p: int, N: int, R: int, n: int, r: int, precision: int | None = None
) -> CongruenceReport:
    """binom(N p^3 + n, R p^3 + r) == binom(N, R) binom(n, r) mod p^3 for n, r < p."""
    _require_prime(p, 5)
    if min(N, R, n, r) < 0:
        raise PreconditionError("all parameters must be non-negative")
    if n >= p or r >= p:
        raise PreconditionError(f"requires n, r < p, got n={n}, r={r}, p={p}")
    m = 3 if precision is None else precision
    p3 = p**3
    return _integer_congruence(
        "bailey5",
        p,
        m,
        N * p3 + n,
        R * p3 + r,
        binom(N, R) * binom(n, r),
        {"N": N, "R": R, "n": n, "r": r},
    )


def check_kazandzidis(
    p: int, n: int, r: int, form: str = "K2", precision: int | None = None
) -> CongruenceReport:
    """The rising-factorial (K1) and plain (K2) ratio congruences.

    For p > 3 the ratio is == 1 mod p^3; for p = 3 the right side carries
    the correction term 1 - p^2 n r (n+r) for K1 and 1 - p^2 n r (n-r)
    for K2.  K1 accepts any integer n (r >= 1); K2 needs n >= r >= 0.
    """
    _require_prime(p, 3)
    m = 3 if precision is None else precision
    if form == "K1":
        if r < 1:
            raise PreconditionError(f"K1 needs r >= 1, got {r}")
        lhs = ratio(rising_binom(n * p, r * p), rising_binom(n, r))
        correction = n * r * (n + r)
    elif form == "K2":
        if not 0 <= r <= n:
            raise PreconditionError(f"K2 needs n >= r >= 0, got n={n}, r={r}")
        lhs = ratio(binom(n * p, r * p), binom(n, r))
        correction = n * r * (n - r)
    else:
        raise PreconditionError(f"form must be 'K1' or 'K2', got {form!r}")
    rhs = Fraction(1 - p * p * correction) if p == 3 else Fraction(1)
    claim = "kazandzidis_k1" if form == "K1" else "kazandzidis_k2"
    return congruence_report(claim, p, m, lhs, rhs, {"n": n, "r": r})


def check_main(
    p: int, n: int, r: int, precision: int | None = None
) -> CongruenceReport:
    """binom(np, rp) / binom(n, r) == 1 + w_p n r (n-r) p^3 mod p^5.

    The theorem holds for primes >= 7; p = 5 is accepted so the failing
    residues (751 vs 126 at n=4, r=1) can be reported.  n < r is an
    error, not a vacuous pass.
    """
    _require_prime(p, 5)
    if n < 0 or r < 0:
        raise PreconditionError("n and r must be non-negative")
    m = 5 if precision is None else precision
    # n < r surfaces as ZeroDenominatorError from the vanishing binom(n, r).
    lhs = ratio(binom(n * p, r * p), binom(n, r))
    rhs = Fraction(1 + _wp(p) * n * r * (n - r) * p**3)
    return congruence_report("main_p5", p, m, lhs, rhs, {"n": n, "r": r})


def check_main_exp(
    p: int,
    n: int,
    r: int,
    e: int,
    precision: int | None = None,
) -> CongruenceReport:
    """The same mod-p^5 congruence with p replaced by p^e, any e >= 1."""
    _require_prime(p, 5)
    if e < 1:
        raise PreconditionError(f"e must be >= 1, got {e}")
    if n * p**e > _EXP_BUDGET:
        raise BudgetExceededError(f"n*p^e = {n * p**e} exceeds budget {_EXP_BUDGET}")
    m = 5 if precision is None else precision
    pe = p**e
    lhs = ratio(binom(n * pe, r * pe), binom(n, r))
    rhs = Fraction(1 + _wp(p) * n * r * (n - r) * p**3)
    return congruence_report("main_exp", p, m, lhs, rhs, {"n": n, "r": r, "e": e})


def thm2_c_value(p: int, N: int, R: int, n: int, r: int) -> Fraction:
    """The correction coefficient H1(n)N - H1(r)R + (w_p N R - H1(n-r))(N - R)."""
    return (
        _h1(n) * N
        - _h1(r) * R
        + (Fraction(_wp(p)) * N * R - _h1(n - r)) * (N - R)
    )


def check_thm2_case1(
    p: int, N: int, R: int, n: int, r: int, precision: int | None = None
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
    m = 5 if precision is None else precision
    p3 = p**3
    lhs = Fraction(binom_shifted(N * p3, R * p3, n, r), binom(N, R) * binom(n, r))
    c = thm2_c_value(p, N, R, n, r)
    rhs = 1 + c * p3
    params = {"N": N, "R": R, "n": n, "r": r, "c": f"{c.numerator}/{c.denominator}"}
    return congruence_report("thm2_case1", p, m, lhs, rhs, params)


def check_thm2_case2(
    p: int, N: int, R: int, n: int, r: int, precision: int | None = None
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
    m = 5 if precision is None else precision
    p3 = p**3
    lhs = Fraction(binom_shifted(N * p3, R * p3, n, r), binom(N, R))
    sign = -1 if (r - n + 1) % 2 else 1
    rhs = sign * Fraction(N - R, r) * Fraction(1, binom(r - 1, n)) * p3
    return congruence_report("thm2_case2", p, m, lhs, rhs, {"N": N, "R": R, "n": n, "r": r})


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
            rep = replace(rep, rhs_residue=rhs_res, verdict=FAIL)
        return rep
    lhs_res = composition_sum(3, p, PrimePower(p, 1)).value
    ok = lhs_res == rhs_res
    return CongruenceReport(
        claim_id="cor_ijk",
        p=p,
        precision=1,
        lhs_residue=lhs_res,
        rhs_residue=rhs_res,
        diff_valuation=1 if ok else 0,
        verdict=verdict_of(ok),
        params={},
    )


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


@dataclass(frozen=True)
class QuadrupleHit:
    """A tuple with binom(Np^3+n, Rp^3+r) == binom(N,R) binom(n,r) mod p^5."""

    N: int
    R: int
    n: int
    r: int
    nontrivial: bool

    def to_obj(self) -> dict:
        return {"N": self.N, "R": self.R, "n": self.n, "r": self.r, "nontrivial": self.nontrivial}


def _search_rows(args: tuple[int, int]) -> list[QuadrupleHit]:
    p, N = args
    return [
        QuadrupleHit(N, R, n, r, nontrivial=(N != R or n != r))
        for R in range(1, N + 1)
        for n in range(1, p)
        for r in range(1, n + 1)
        if check_bailey5(p, N, R, n, r, precision=5).ok
    ]


def find_exact_quadruples(p: int, workers: int = 1) -> list[QuadrupleHit]:
    """Exhaustive search of 1 <= R <= N < p, 1 <= r <= n < p for mod-p^5 coincidences.

    Records, in lexicographic order, every tuple for which the bailey5
    congruence holds mod p^5.  Tuples with R > N or r > n, whose right
    side binom(N,R) binom(n,r) vanishes, are left out.
    """
    _require_prime(p, 7)
    results = parallel_map(_search_rows, [(p, N) for N in range(1, p)], workers)
    return [hit for rows in results for hit in rows]


# --------------------------------------------------------------------------
# Claim registry and grid driver


@dataclass(frozen=True)
class Claim:
    """One claim: its parameters, checker, grid domain and report ids.

    ``check(p=p, **params)``, plus ``precision`` when ``takes_precision``,
    returns one report or a tuple; ids outside ``reports`` (default: the
    id) are rejected.  ``domain(p, **params)`` trims grids; the checkers
    keep their own, looser, argument checks.  ``min_p`` is the smallest
    prime the checker takes; a prime range skips those below it.  Verdicts
    at ``exploratory`` primes are reported but not asserted.
    """

    id: str
    params: tuple[str, ...]
    check: Callable[..., CongruenceReport | tuple[CongruenceReport, ...]]
    domain: Callable[..., bool] | None = None
    reports: tuple[str, ...] = ()
    aliases: tuple[str, ...] = ()
    takes_precision: bool = True
    exploratory: frozenset[int] = frozenset()
    min_p: int = 5

    def __post_init__(self) -> None:
        if not self.reports:
            object.__setattr__(self, "reports", (self.id,))


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
    kwargs = {"precision": precision} if claim.takes_precision else {}
    out = claim.check(p=p, **params, **kwargs)
    reports = [out] if isinstance(out, CongruenceReport) else list(out)
    for rep in reports:
        if rep.claim_id not in claim.reports:
            raise WolstenError(f"claim {claim.id} produced a {rep.claim_id!r} report")
    return reports


# One grid point's result on the CLI path: its encoded report line, with
# the report itself when the check failed (the FAIL summary needs it).
GridLine = tuple[str, CongruenceReport | None]


def _grid_tasks(
    claim_id: str, p: int, ranges: dict[str, range], precision: int | None, fmt: str | None
) -> list[tuple]:
    """The grid's points as tasks, in lexicographic order, domain applied."""
    claim = _claim_for(claim_id, precision)
    names = claim.params
    for name in names:
        if name not in ranges:
            raise PreconditionError(f"claim {claim.id} needs parameter {name!r}")
    tasks = []
    for combo in itertools.product(*(ranges[name] for name in names)):
        params = dict(zip(names, combo))
        if claim.domain is not None and not claim.domain(p, **params):
            continue
        tasks.append((claim.id, p, tuple(params.items()), precision, fmt))
    return tasks


def _grid_check(task: tuple) -> list[CongruenceReport]:
    claim_id, p, items, precision, _ = task
    return run_check(claim_id, p, dict(items), precision=precision)


# bench/probe.py names this task's span suite.grid_task.
def _grid_one(task: tuple) -> list[GridLine]:
    return [(encode_report(r, task[-1]), None if r.ok else r) for r in _grid_check(task)]


def grid_reports(
    claim_id: str,
    p: int,
    ranges: dict[str, range],
    precision: int | None = None,
    workers: int = 1,
) -> list[CongruenceReport]:
    """Run a claim over the cartesian product of parameter ranges.

    Tuples violating the claim's domain constraints are skipped, the rest
    are enumerated in lexicographic order; output order is deterministic
    for any worker count.
    """
    tasks = _grid_tasks(claim_id, p, ranges, precision, None)
    return [rep for group in parallel_map(_grid_check, tasks, workers) for rep in group]


def grid_lines(
    claim_id: str,
    p: int,
    ranges: dict[str, range],
    precision: int | None = None,
    workers: int = 1,
    fmt: str = "json",
) -> list[GridLine]:
    """grid_reports' checks as report lines in fmt ("json" or "csv").

    Each worker checks and encodes its points and sends back, per check,
    the line and, only if the check failed, its report: a line pickles
    in a small fraction of the time a report with Fraction fields takes.
    join_lines(line for line, _ in result) is the report file that
    reports_to_jsonl or reports_to_csv would write from grid_reports.
    """
    tasks = _grid_tasks(claim_id, p, ranges, precision, fmt)
    return [line for group in parallel_map(_grid_one, tasks, workers) for line in group]
