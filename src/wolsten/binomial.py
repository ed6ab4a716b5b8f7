"""Binomial coefficients: exact, rising-factorial, and modulo prime powers.

Exact big-integer evaluation (math.comb / exact rationals) serves small
arguments.  Past them every binomial claim reads its binomial from
binom_mod, Granville's generalized Wilson product with Legendre's carry
count, whose cost grows with p (below P_BOUND) but hardly with the
arguments; it is verdict-equivalent to the exact route and tested against it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import (
    BudgetExceededError,
    PreconditionError,
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
    return Fraction(num, den)


# --------------------------------------------------------------------------
# Prime-power modular route
#
# binom(a,b) = p^e F(a) / (F(b) F(a-b)), with e the carry count and F(n) =
# G(n) G(n // p) G(n // p^2) ... the p-free part of n!, where G(m) is the
# product of the units up to m.  Mod q = p^k, G is Granville's generalized
# Wilson product ("Binomial coefficients modulo prime powers", 1997): with
# the block f(z) = (z+1)...(z+p-1) and H_t(z) = f(z) f(z+p) ... f(z+(t-1)p),
# G(tp + s) = H_t(0) (tp+1)...(tp+s).  Shifts are multiples of p and only
# z = 0 is read, so z^i weighs as p^i and H_t keeps k coefficients mod q.

P_BOUND = 1 << 21  # the block takes O(p k) steps: about 1.1 s near p = 10^6 at k = 7


def _check_p(p: int) -> None:
    if p >= P_BOUND:
        raise BudgetExceededError(f"p={p}: the modular binomials need p < {P_BOUND}")


@functools.lru_cache(maxsize=256)
def _block(p: int, k: int) -> tuple[int, ...]:
    """f, as a product in w = z(z+p) = (z+i)(z+p-i) - i(p-i), which weighs as p^2."""
    if p == 2:
        return ((1, 1) + (0,) * k)[:k]
    q = p**k
    g = [1] + [0] * ((k - 1) // 2)  # w^j for 2j < k
    for i in range(1, (p + 1) // 2):  # g <- g (w + i(p-i))
        g = [(x * i * (p - i) + y) % q for x, y in zip(g, [0, *g])]
    # w^j = z^j (z + p)^j puts C(j, i) p^(j-i) on z^(j+i).
    return tuple(sum(g[j] * math.comb(j, n - j) * p ** (2 * j - n)
                     for j in range((n + 1) // 2, min(n, len(g) - 1) + 1)) % q for n in range(k))


@functools.lru_cache(maxsize=1024)
def _wilson(p: int, k: int, t: int) -> tuple[int, ...]:
    """H_t for t >= 1, as H_h(z) H_(t-h)(z + hp) with h = t // 2: O(k^2 log t)."""
    if t == 1:
        return _block(p, k)
    h, q = t // 2, p**k
    f, g = _wilson(p, k, h), [0] * k
    for c in reversed(_wilson(p, k, t - h)):  # g <- g (z + hp) + c, by Horner
        g = [(x * h * p + y) % q for x, y in zip(g, [c, *g])]
    return tuple(sum(f[i] * g[n - i] for i in range(n + 1)) % q for n in range(k))


@functools.lru_cache(maxsize=4096)
def _p_free_factorial(n: int, p: int, k: int) -> int:
    t, q = n // p, p**k
    res = _p_free_factorial(t, p, k) * _wilson(p, k, t)[0] if t else 1
    for i in range(t * p + 1, n + 1):
        res = res * i % q
    return res % q


def binom_mod(a: int, b: int, m: PrimePower) -> int:
    """binom(a, b) reduced modulo p^k without forming the big integer.

    Verdict-equivalent to binom(a, b) % p^k; intended for integer
    congruence checks whose arguments make exact evaluation costly.  Any
    argument size is taken; p must be below P_BOUND (BudgetExceededError).
    """
    if a < 0:
        raise PreconditionError(f"a must be >= 0, got {a}")
    if b < 0 or b > a:
        return 0
    p, k, q = m.p, m.k, m.modulus
    _check_p(p)
    e = binom_valuation(a, b, p)
    if e >= k:
        return 0
    den = _p_free_factorial(b, p, k) * _p_free_factorial(a - b, p, k)
    return p**e * _p_free_factorial(a, p, k) * pow(den, -1, q) % q
