"""Checkers of the binomial claims: Bailey's (bailey4, bailey5), Kazandzidis',
the mod-p^5 refinements (main_p5, main_exp) and Theorem 2's two cases.

Negative controls (the p = 5 failures) run through the same checkers and
report the failing residues rather than raising.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable

from .binomial import _check_p, binom, binom_mod, ratio
from .errors import PreconditionError
from .padic import PrimePower, _reduce, valuation
from .report import CongruenceReport, _exact_text, congruence_report
from .suite import _h1_over_lcm, _require_prime, _thm2_c, _wp

# Largest top argument for which a binomial claim expands the exact
# binomial (roughly 600 decimal digits); beyond it the modular route runs.
_EXACT_ARG_LIMIT = 2_000

_prime_power = functools.lru_cache(maxsize=256)(PrimePower)  # the same for each modulus

# b -> (a, binom(a, b)) of recent exact binomials: a grid's next one is
# mostly a step away (b + 1, or a + 1 at a row's start), a product and an
# exact division rather than a math.comb.
_near: dict[int, tuple[int, int]] = {}


def _exact_binom(a: int, b: int) -> int:
    if (prev := _near.get(b - 1)) and prev[0] == a:
        value = prev[1] * (a - b + 1) // b
    elif (prev := _near.get(b)) and prev[0] == a - 1 and b < a:
        value = prev[1] * a // (a - b)
    else:
        value = binom(a, b)
    if len(_near) >= 256:
        _near.clear()
    _near[b] = (a, value)
    return value


def _binom_side(p: int, a: int, b: int, den: int = 1) -> int | Fraction | Callable[[int], int]:
    """binom(a, b) / den for congruence_report: exact while cheap, else k -> its residue mod p^k.

    One size rule for every binomial claim; the engine still finds the
    difference valuation exactly by raising k.  The exact side is an int
    when den is 1.  A binomial 0, 1 or a stays exact, so an exact
    equality keeps its infinite valuation.  The modular side must be
    p-integral: with v = v_p(den), binom(a, b) mod p^(k+v), divided by
    p^v and by den's unit part, is the side mod p^k; when p^v does not
    divide it, a p is left in the denominator and NonIntegralError is
    raised.  A p past binom_mod's bound raises here, before the other
    side (w_p, Theorem 2's c) costs seconds.
    """
    if b <= 1 or b >= a - 1 or a <= _EXACT_ARG_LIMIT:
        return _exact_binom(a, b) if den == 1 else ratio(_exact_binom(a, b), den)
    _check_p(p)
    if den == 1:
        return lambda k: binom_mod(a, b, _prime_power(p, k))
    v = valuation(den, p)
    pv, unit = p**v, den // p**v

    def side(k: int) -> int:
        d = binom_mod(a, b, _prime_power(p, k + v))
        if d % pv:  # p^v does not divide binom(a, b)
            return _reduce(Fraction(d, den), p, k)  # raises NonIntegralError
        return d // pv * pow(unit, -1, p**k) % p**k

    return side


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
    rhs = math.comb(N, R) * math.comb(n, r)
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
        lhs = _rising_ratio(p, n, r)
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


# K1's side takes the function form once the bound binom(a, b) >= (a/k)^k,
# k = min(b, a - b), over den passes this many digits: a report writes a
# value past 4300 digits as null, so its residues give the same line.
# Below, the exact side has at most about 2 * 10^4 digits (60 ms).
_K1_EXACT_DIGITS = 10_000


def _rising_ratio(p: int, n: int, r: int) -> Fraction | Callable[[int], int]:
    """K1's side rising_binom(n p, r p) / rising_binom(n, r), for odd p and r >= 1.

    A rising binomial is binom(n + r - 1, r) for n >= 1 and (-1)^r binom(-n, r)
    for n <= -r, where the signs cancel; between, both sides vanish.
    """
    if n >= 1:
        a, b, den = (n + r) * p - 1, r * p, binom(n + r - 1, r)
    elif n + r <= 0:
        a, b, den = -n * p, r * p, binom(-n, r)
    else:
        return ratio(0, 0)  # raises ZeroDenominatorError
    k = min(b, a - b)
    if k == 0 or k * (math.log(a) - math.log(k)) - math.log(den) <= _K1_EXACT_DIGITS * math.log(10):
        return ratio(binom(a, b), den)
    return _binom_side(p, a, b, den)


check_kazandzidis_k1 = functools.partial(check_kazandzidis, form="K1")
check_kazandzidis_k2 = functools.partial(check_kazandzidis, form="K2")


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
    c is written as num/den, or null past the report's exact-value bound.
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
    params = {"N": N, "R": R, "n": n, "r": r, "c": _exact_text(c)}
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
