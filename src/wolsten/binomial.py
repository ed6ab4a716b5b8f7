"""Binomial coefficients: exact, rising-factorial, and modulo prime powers.

Exact big-integer evaluation (math.comb / exact rationals) is the default
route everywhere.  For integer congruences with huge arguments there is a
prime-power reduction based on Wilson-product factorials and Legendre's
carry count; it is verdict-equivalent to the exact route and tested
against it on dense grids.
"""

from __future__ import annotations

import functools
import math
import threading
from array import array
from fractions import Fraction

from .errors import (
    BudgetExceededError,
    PreconditionError,
    WolstenError,
    ZeroDenominatorError,
)
from .padic import PrimePower


def binom(n: int, r: int) -> int:
    """Standard binomial coefficient; 0 when r < 0 or r > n."""
    if n < 0:
        raise PreconditionError(f"n must be >= 0, got {n}")
    if r < 0 or r > n:
        return 0
    return math.comb(n, r)


def rising_binom(n: int, r: int) -> Fraction:
    """The rising-factorial binomial n(n+1)...(n+r-1) / r!, any integer n."""
    if r < 0:
        raise PreconditionError(f"r must be >= 0, got {r}")
    prod = 1
    for i in range(r):
        prod *= n + i
    return Fraction(prod, math.factorial(r))


@functools.lru_cache(maxsize=16)
def _comb_cached(n: int, r: int) -> int:
    return math.comb(n, r)


def binom_shifted(a: int, b: int, n: int, r: int) -> int:
    """binom(a + n, b + r) from a cached binom(a, b), for 0 <= b <= a, n, r >= 0.

    binom(a+n, b+r) = binom(a, b) * (a+1)...(a+n) / [(b+1)...(b+r)]
    * (a-b)! / (a-b+n-r)!, so a grid over small shifts (n, r) of one big
    binomial (the thm2 grids' binom(N p^3 + n, R p^3 + r)) pays for
    math.comb once per (a, b) and then 2 max(n, r) small factors a point.
    """
    if not 0 <= b <= a or n < 0 or r < 0:
        raise PreconditionError(f"need 0 <= b <= a and n, r >= 0, got {(a, b, n, r)}")
    c, d = a - b, n - r
    if c + d < 0:
        return 0
    # Of the last two ranges one is empty: (a-b)!/(a-b+d)! is a product
    # in the numerator when d < 0 and in the denominator when d > 0.
    num = math.prod(range(a + 1, a + n + 1)) * math.prod(range(c + d + 1, c + 1))
    den = math.prod(range(b + 1, b + r + 1)) * math.prod(range(c + 1, c + d + 1))
    value, rem = divmod(_comb_cached(a, b) * num, den)
    if rem:
        raise WolstenError(f"binom({a}+{n}, {b}+{r}): inexact division by {den}")
    return value


def legendre_valuation(n: int, p: int) -> int:
    """v_p(n!) by repeated division."""
    if n < 0:
        raise PreconditionError(f"n must be >= 0, got {n}")
    v = 0
    while n:
        n //= p
        v += n
    return v


def binom_valuation(n: int, r: int, p: int) -> int:
    """v_p(binom(n, r)) via Legendre's formula (the base-p carry count)."""
    if r < 0 or r > n:
        raise PreconditionError("binomial is zero, valuation undefined")
    return (
        legendre_valuation(n, p)
        - legendre_valuation(r, p)
        - legendre_valuation(n - r, p)
    )


def kummer_valuation_check(p: int, n: int, r: int) -> bool:
    """Whether v_p(binom(np, rp)) equals v_p(binom(n, r))."""
    if not 0 <= r <= n:
        raise PreconditionError(f"need 0 <= r <= n, got n={n}, r={r}")
    return binom_valuation(n * p, r * p, p) == binom_valuation(n, r, p)


def ratio(num: int | Fraction, den: int | Fraction) -> Fraction:
    """The exact ratio num / den; a vanishing den raises ZeroDenominatorError."""
    if den == 0:
        raise ZeroDenominatorError(f"ratio {num}/{den}: the denominator is zero")
    return Fraction(num) / den


# --------------------------------------------------------------------------
# Prime-power modular route
#
# binom(a,b) = p^e * F(a) / (F(b) F(a-b)) with e the carry count and
# F(n) the p-free part of n!.  Modulo q = p^k, F reduces through the
# generalized Wilson product: the product of all units up to q is -1 for
# odd p (and for q in {2,4}), so (m!)_p == (+-1)^(m // q) * g[m mod q]
# with g a prefix-product table of the units.  When q exceeds every
# argument no wrap occurs and the table only needs to reach the largest
# argument seen, which keeps escalated precisions (p^5, p^7, ...) cheap.

_TABLE_CAP = 1 << 22
_tables: dict[tuple[int, int], array | list] = {}
_tables_lock = threading.Lock()


def _unit_prefix(p: int, q: int, upto: int) -> array | list:
    with _tables_lock:
        g = _tables.get((p, q))
        if g is None:
            if len(_tables) >= 6:
                _tables.clear()
            # Compact 64-bit storage when the modulus allows it.
            g = array("q", [1]) if q < 2**63 else [1]
            _tables[(p, q)] = g
        if len(g) <= upto:
            acc = g[-1]
            for i in range(len(g), upto + 1):
                if i % p:
                    acc = acc * i % q
                g.append(acc)
        return g


def _p_free_factorial(n: int, p: int, q: int, wilson_negative: bool) -> int:
    if n < q:
        if n > _TABLE_CAP:
            raise BudgetExceededError(
                f"argument {n} too large for the prefix table (cap {_TABLE_CAP})"
            )
        # No wraps possible: every truncation n, n//p, ... stays below q.
        g = _unit_prefix(p, q, n)
        res = 1
        m = n
        while m:
            res = res * g[m] % q
            m //= p
        return res
    if q <= _TABLE_CAP:
        g = _unit_prefix(p, q, q - 1)
        res = 1
        wraps = 0
        m = n
        while m:
            res = res * g[m % q] % q
            wraps += m // q
            m //= p
        if wilson_negative and wraps % 2:
            res = q - res
        return res
    raise BudgetExceededError(
        f"modulus {q} too large for a table but smaller than argument {n}"
    )


def binom_mod(a: int, b: int, m: PrimePower) -> int:
    """binom(a, b) reduced modulo p^k without forming the big integer.

    Verdict-equivalent to binom(a, b) % p^k; intended for integer
    congruence checks whose arguments make exact evaluation costly.
    """
    if a < 0:
        raise PreconditionError(f"a must be >= 0, got {a}")
    if b < 0 or b > a:
        return 0
    p, q = m.p, m.modulus
    c = a - b
    e = (
        legendre_valuation(a, p)
        - legendre_valuation(b, p)
        - legendre_valuation(c, p)
    )
    if e >= m.k:
        return 0
    wilson_negative = not (p == 2 and m.k >= 3)
    fa = _p_free_factorial(a, p, q, wilson_negative)
    fb = _p_free_factorial(b, p, q, wilson_negative)
    fc = _p_free_factorial(c, p, q, wilson_negative)
    unit = fa * pow(fb * fc % q, -1, q) % q
    return p**e * unit % q
