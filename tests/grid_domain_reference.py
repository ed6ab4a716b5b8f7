"""How verify enumerated a grid and capped its ranges before the claim
registry stated each domain as loop bounds: every point of the product of
the parameter ranges, kept where the claim's domain predicate holds, and
the CLI's cap rules keyed by claim id.  Kept as the oracle that the loop
bounds and the registry's cap rules are tested against."""

import argparse
import itertools
import math

from wolsten.errors import WolstenError

# The domain predicates of the old registry rows.
DOMAINS = {
    "bailey5": lambda p, N, R, n, r: n < p and r < p,
    "kazandzidis_k1": lambda p, n, r: 1 <= r <= n,
    "kazandzidis_k2": lambda p, n, r: 0 <= r <= n,
    "main_p5": lambda p, n, r: r <= n,
    "main_exp": lambda p, n, r, e: r <= n,
    "thm2_case1": lambda p, N, R, n, r: R <= N and r <= n < p,
    "thm2_case2": lambda p, N, R, n, r: R <= N and 1 <= n < r < p,
    "ji_zhoucai": lambda p, n_parts: 2 <= n_parts <= p - 2,
    "genwols": lambda p, s, d: p >= s * d + 3,
}


def indexed_points(claim, p: int, ranges: dict[str, range]) -> list[tuple[int, tuple]]:
    """(index in the product, point) for the product's points in the domain, in order."""
    domain = DOMAINS.get(claim.id)
    combos = itertools.product(*(ranges[name] for name in claim.params))
    return [(i, c) for i, c in enumerate(combos)
            if domain is None or domain(p, **dict(zip(claim.params, c)))]


_PARAM_DESTS = ("N", "R", "n", "r", "e", "s", "d", "n_parts", "N_max", "R_max", "n_max", "r_max")
_CAP_FALLBACKS = {"r": "n", "R": "N"}
_N_BELOW_P = ("bailey5", "thm2_case1", "thm2_case2")
_GRID_LIMIT = 10**6


def param_ranges(claim, args: argparse.Namespace, p_top: int) -> dict[str, range]:
    """The old cli._param_ranges."""
    for dest in _PARAM_DESTS:
        if getattr(args, dest) is not None and dest.removesuffix("_max") not in claim.params:
            raise WolstenError(f"claim {claim.id!r} does not take --{dest.replace('_', '-')}")
    ranges: dict[str, range] = {}
    for name in claim.params:
        flag = name.replace("_", "-")
        scalar = getattr(args, name)
        cap = getattr(args, f"{name}_max", None)
        if cap is None and name in _CAP_FALLBACKS:
            cap = getattr(args, f"{_CAP_FALLBACKS[name]}_max", None)
        if cap is not None and name in ("n", "r") and claim.id in _N_BELOW_P:
            cap = min(cap, p_top - 1)
        if scalar is not None:
            ranges[name] = range(scalar, scalar + 1)
        elif cap is not None:
            ranges[name] = range(0, cap + 1)
        else:
            grid = f" or --{flag}-max" if f"{name}_max" in _PARAM_DESTS else ""
            raise WolstenError(f"claim {claim.id!r} needs --{flag}{grid}")
    points = math.prod(map(len, ranges.values()))
    if points > _GRID_LIMIT:
        flags = " ".join(f"--{d.replace('_', '-')} {getattr(args, d)}"
                         for d in _PARAM_DESTS if getattr(args, d) is not None)
        raise WolstenError(f"{flags}: the grid has {points} points per prime, past {_GRID_LIMIT}")
    return ranges
