"""The claim registry, the grid driver and the quadruple search.

CLAIMS names each claim's checker, and lookup_claim loads its module:
checks_binomial (the binomial claims), harmonic (the claims on harmonic
sums alone) or bernoulli (those on Bernoulli numbers), so a verify
process loads only its claim's code; w_p, which main_p5, main_exp,
thm2_case1 and the search need, loads the harmonic and Bernoulli code
on first use.  The checkers, and the names they import, also resolve
here (PEP 562).

grid_reports returns a grid's reports in lexicographic order, one task
per point.  grid_blocks, the CLI's path, cuts a prime range's points into
a few slabs per worker; each worker checks its slab's points in order and
writes each report line to its own spill file as it goes.  That file is a
slab's only side effect: its result is its line counts per prime and its
failed reports, so no report text crosses the pool.  The quadruple search
computes no binomial: it decides each tuple by Theorem 2's c mod p^2.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

from . import _import
from .errors import PreconditionError, WolstenError
from .padic import _reduce, is_prime
from .report import PASS, CongruenceReport, encode_report


@functools.lru_cache(maxsize=256)  # a grid tests its prime once, not once a check
def _require_prime(p: int, minimum: int) -> None:
    if not is_prime(p) or p < minimum:
        raise PreconditionError(f"p={p} must be a prime >= {minimum}")


@functools.cache
def _wp(p: int) -> int:
    from .bernoulli import wolstenholme_quotient

    return wolstenholme_quotient(p).value


@functools.lru_cache(maxsize=16)
def _h1_over_lcm(m: int) -> tuple[int, list[int]]:
    """L = lcm(1, ..., m) and the integers L H(1;n) for 0 <= n <= m."""
    L = math.lcm(*range(1, m + 1))
    return L, list(itertools.accumulate((L // i for i in range(1, m + 1)), initial=0))


def _thm2_c(hn, hr, hd, w, N: int, R: int):
    """Theorem 2's c from H1(n), H1(r), H1(n-r) and w_p: Fractions, or residues mod p^2."""
    return hn * N - hr * R + (w * N * R - hd) * (N - R)


def __getattr__(name: str):
    if not name.startswith("__"):  # the import machinery probes dunders
        for module in ("checks_binomial", "harmonic", "bernoulli"):
            loaded = _import(f"{__package__}.{module}")
            if hasattr(loaded, name):
                return getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def parallel_map(fn: Callable, items: list, workers: int) -> list:
    """parallel.parallel_map, whose module loads only when more than one worker may run."""
    if workers == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from .parallel import parallel_map

    return parallel_map(fn, items, workers)


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
    from .parallel import POOL_START_S

    _require_prime(p, 7)
    L, h = _h1_over_lcm(p - 1)
    h = [_reduce(Fraction(x, L), p, 2) for x in h]
    rows = [(p, N, h, _wp(p)) for N in range(1, p)]
    if (p * (p - 1) // 2) ** 2 * 0.45e-6 < 2 * POOL_START_S:  # 0.45 us a tuple
        workers = 1
    return [hit for hits in parallel_map(_search_rows, rows, workers) for hit in hits]


# --------------------------------------------------------------------------
# Claim registry and grid driver

# verify's parameter flags as argparse dests, in help order (a flag the
# claim does not take is reported in this order); NAME_max bounds NAME.
# Where only the upper of a constrained pair is bounded (r <= n, R <= N),
# the lower one's cap falls back to it, and the claim's bounds trim it.
PARAM_DESTS = ("N", "R", "n", "r", "e", "s", "d", "n_parts", "N_max", "R_max", "n_max", "r_max")
CAP_FALLBACKS = {"r": "n", "R": "N"}


class _ClaimFields(NamedTuple):
    id: str
    params: tuple[str, ...]
    checker: str
    bounds: str = ""
    domain: Callable[..., bool] | None = None
    reports: tuple[str, ...] = ()
    aliases: tuple[str, ...] = ()
    takes_precision: bool = True
    exploratory: frozenset[int] = frozenset()
    min_p: int = 5


class Claim(_ClaimFields):
    """One claim: its parameters, checker, grid domain and report ids.

    ``check``, loaded from ``checker`` ("module.function"), is called as
    ``check(p, *point)``, plus ``precision`` when one is given (only to a
    claim that ``takes_precision``), and returns one report or a tuple;
    ids outside ``reports`` (default: the id) are rejected.  ``bounds``
    states the grid's domain as loop bounds, chained comparisons such as
    "R<=N r<=n<p" each bounding its later parameter, and ``domain(p,
    *point)`` what they cannot.  ``min_p`` is the smallest prime the
    checker takes.  Verdicts at ``exploratory`` primes are not asserted.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace fills reports too

    def __new__(cls, *args, **kwargs) -> Claim:
        claim = super().__new__(cls, *args, **kwargs)
        return claim if claim.reports else claim._replace(reports=(claim.id,))

    @property
    def check(self) -> Callable[..., CongruenceReport | tuple[CongruenceReport, ...]]:
        module, name = self.checker.split(".")
        return getattr(_import(f"{__package__}.{module}"), name)

    def top(self, name: str, p: int) -> int | None:
        """The largest value of parameter name that the bounds on p allow, or None."""
        tops = [p + c - 1 for ref, c in _loops(self)[self.params.index(name)][1] if ref == 1]
        return min(tops, default=None)

    def points(self, p: int, axes: tuple[range, ...], first=None, last=None) -> Iterator[tuple]:
        """The domain's points in the product of axes at p, in lexicographic
        order, from the product's point first on and before its point last."""
        points = _walk(_loops(self), axes, (0, p), first, last) if axes else iter([()])
        return points if self.domain is None else (x for x in points if self.domain(p, *x))


@functools.cache
def _loops(claim: Claim) -> tuple[tuple[list, list], ...]:
    # Per parameter, its lower and its exclusive upper bounds as (ref, c):
    # env[ref] + c, where env is (0, p, *the earlier parameters' values).
    refs = {"p": 1, **{name: 2 + i for i, name in enumerate(claim.params)}}

    def term(text: str) -> tuple[int, int]:
        name, _, minus = text.partition("-")
        return (0, int(name)) if name.isdigit() else (refs[name], -int(minus or 0))

    loops = tuple(([], []) for _ in claim.params)
    for chain in claim.bounds.split():
        parts = chain.split("<")
        for a, b in zip(parts, parts[1:]):
            strict = not b.startswith("=")
            (ra, ca), (rb, cb) = term(a.removeprefix("=")), term(b.removeprefix("="))
            if ra > rb:  # a < b + 1 - strict
                loops[ra - 2][1].append((rb, cb - ca + 1 - strict))
            else:  # b >= a + strict
                loops[rb - 2][0].append((ra, ca - cb + strict))
    return loops


def _walk(loops, axes, env, first, last) -> Iterator[tuple]:
    # The points under the prefix env[2:]; first and last hold the rest of a
    # slab's first point and of the point it stops before, while the prefix
    # is on their path, else None.
    i = len(env) - 2
    lows, highs = loops[i]
    lo = max([axes[i].start, *[env[ref] + c for ref, c in lows]])
    hi = min([axes[i].stop, *[env[ref] + c for ref, c in highs]])
    if first:
        lo = max(lo, first[0])
    if last:
        hi = min(hi, last[0] + (len(last) > 1))
    if i + 1 == len(axes):
        prefix = env[2:]
        for v in range(lo, hi):
            yield (*prefix, v)
        return
    for v in range(lo, hi):
        yield from _walk(loops, axes, (*env, v), first[1:] if first and v == first[0] else None,
                         last[1:] if last and v == last[0] else None)


CLAIMS = (
    Claim("wolstenholme", (), "harmonic.check_wolstenholme"),
    Claim("bailey4", ("n", "r"), "checks_binomial.check_bailey4"),
    Claim("bailey5", ("N", "R", "n", "r"), "checks_binomial.check_bailey5", "n<p r<p"),
    Claim("kazandzidis_k1", ("n", "r"), "checks_binomial.check_kazandzidis_k1", "1<=r<=n",
          min_p=3),
    Claim("kazandzidis_k2", ("n", "r"), "checks_binomial.check_kazandzidis_k2", "0<=r<=n",
          min_p=3),
    Claim("main_p5", ("n", "r"), "checks_binomial.check_main", "r<=n", aliases=("main",)),
    Claim("main_exp", ("n", "r", "e"), "checks_binomial.check_main_exp", "r<=n"),
    Claim("thm2_case1", ("N", "R", "n", "r"), "checks_binomial.check_thm2_case1",
          "R<=N r<=n<p r<p"),
    Claim("thm2_case2", ("N", "R", "n", "r"), "checks_binomial.check_thm2_case2",
          "R<=N 1<=n<r<p n<p", exploratory=frozenset({5})),
    Claim("prop_ijk", (), "harmonic.check_prop_ijk", takes_precision=False, min_p=3),
    Claim("cor_ijk", (), "bernoulli.check_cor_ijk", takes_precision=False),
    Claim("ji_zhoucai", ("n_parts",), "bernoulli.check_ji_zhoucai", "2<=n_parts<=p-2",
          takes_precision=False),
    Claim("h12", (), "harmonic.h12_checks", reports=("h12", "h12p"), aliases=("h12p",),
          takes_precision=False, min_p=7),
    Claim("genwols", ("s", "d"), "harmonic.check_genwols",
          domain=lambda p, s, d: p >= s * d + 3, takes_precision=False),
)

_CLAIMS_BY_NAME = {name: c for c in CLAIMS for name in (c.id, *c.aliases)}


def lookup_claim(name: str) -> Claim:
    """The registry row for a claim id or alias, with its checker's module loaded."""
    claim = _CLAIMS_BY_NAME.get(name)
    if claim is None:
        raise PreconditionError(f"unknown claim {name!r}")
    claim.check  # loads the checker's module
    return claim


def _checker(claim_id: str, precision: int | None) -> tuple[Claim, Callable]:
    # The claim and its checker, with the precision bound when one is given.
    claim = lookup_claim(claim_id)
    if precision is None:
        return claim, claim.check
    if not claim.takes_precision:
        raise PreconditionError(f"claim {claim.id} fixes its own precision; drop the override")
    return claim, functools.partial(claim.check, precision=precision)


def _reports(claim: Claim, out) -> tuple[CongruenceReport, ...]:
    reports = (out,) if type(out) is CongruenceReport else tuple(out)
    for rep in reports:
        if rep.claim_id not in claim.reports:
            raise WolstenError(f"claim {claim.id} produced a {rep.claim_id!r} report")
    return reports


def run_check(
    claim_id: str, p: int, params: dict, precision: int | None = None
) -> list[CongruenceReport]:
    """Run one claim instance; h12 yields its two linked reports."""
    claim, check = _checker(claim_id, precision)
    return list(_reports(claim, check(p, **params)))


def _axes(claim: Claim, ranges: dict[str, range]) -> tuple[range, ...]:
    for name in claim.params:
        if name not in ranges or ranges[name].step != 1:
            raise PreconditionError(f"claim {claim.id} needs parameter {name!r}: a range, step 1")
    return tuple(ranges[name] for name in claim.params)


def grid_reports(claim_id: str, p: int, ranges: dict[str, range], precision: int | None = None,
                 workers: int = 1) -> list[CongruenceReport]:
    """Run a claim over the points of a product of parameter ranges in its domain.

    The points are enumerated in lexicographic order, one task per point;
    output order is deterministic for any worker count.
    """
    claim, _ = _checker(claim_id, precision)
    tasks = [dict(zip(claim.params, point)) for point in claim.points(p, _axes(claim, ranges))]
    check = functools.partial(run_check, claim.id, p, precision=precision)
    return [r for reps in parallel_map(check, tasks, workers) for r in reps]


def _point(axes: tuple[range, ...], k: int) -> tuple[int, ...] | None:
    # The product's point at index k, or None at or past either end.
    if not 0 < k < math.prod(map(len, axes)):
        return None
    point = []
    for axis in reversed(axes):
        k, i = divmod(k, len(axis))
        point.append(axis[i])
    return tuple(reversed(point))


# A slab: the claim, its parameter ranges, the primes it touches, its
# index range into their products, put end to end from the first prime's,
# and its spill file.  bench/probe.py names this task's span suite.grid_task.
def _grid_one(slab: tuple) -> tuple[dict[int, int], list[CongruenceReport]]:
    claim_id, primes, axes, precision, fmt, start, stop, path = slab
    claim, check = _checker(claim_id, precision)
    size, counts, failed = math.prod(map(len, axes)), {}, []
    with open(path, "w", encoding="utf-8") as fh:
        for at, p in zip(itertools.count(0, size), primes):  # at: p's first point in the stream
            lines = 0
            for point in claim.points(p, axes, _point(axes, start - at), _point(axes, stop - at)):
                for rep in _reports(claim, check(p, *point)):
                    fh.write(encode_report(rep, fmt))
                    lines += 1
                    if rep.verdict != PASS:
                        failed.append(rep)
            if lines:
                counts[p] = lines
    return counts, failed


# A few slabs per worker balance uneven ones.  A slab holds at least the
# pool's start (0.08 s) over 16 us of points, the cost of a bailey5 check,
# the cheapest, when this rule was set; it is now about 9 us, but at 5000
# points the benchmark's bailey5 grid still runs as 6 slabs on 2 workers.
# A stream under two slabs' minimum is one slab, which runs inline.
_SLABS_PER_WORKER = 4
_SLAB_MIN = 5000


def grid_blocks(
    claim_id: str, primes: list[int], ranges: dict[str, range], spill: str | os.PathLike,
    precision: int | None = None, workers: int = 1, fmt: str = "json",
) -> list[tuple[str, dict[int, int], list[CongruenceReport]]]:
    """grid_reports' checks at each of primes as (spill file, lines per prime, failed reports).

    The primes' products of ranges, end to end, are cut into contiguous
    slabs; a worker checks a slab's points in the domain and writes their
    lines in fmt ("json" or "csv") to the slab's file in the directory
    spill.  The files in the order returned hold the lines of
    grid_reports' reports at each prime.  The stream's first point that
    raises names the error, on any worker count: parallel_map returns,
    and so raises, in slab order.
    """
    claim, _ = _checker(claim_id, precision)
    axes = _axes(claim, ranges)
    size = math.prod(map(len, axes))
    total = size * len(primes)
    count = max(min(_SLABS_PER_WORKER * workers, total // _SLAB_MIN), 1)  # each >= _SLAB_MIN
    bounds = [(i * total // count, (i + 1) * total // count) for i in range(count) if total]
    slabs = [(claim.id, primes[a // size : -(-b // size)], axes, precision, fmt,
              a % size, a % size + b - a, os.path.join(spill, f"{i}.{fmt}"))
             for i, (a, b) in enumerate(bounds)]
    results = parallel_map(_grid_one, slabs, workers)
    return [(slab[-1], counts, failed) for slab, (counts, failed) in zip(slabs, results)]
