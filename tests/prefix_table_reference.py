"""The prefix-table route that binom_mod ran before the block product,
kept as the oracle it is tested against below the table's old 2^22 cap."""

from array import array

from wolsten.binomial import legendre_valuation

_tables: dict[tuple[int, int], array | list] = {}


def _unit_prefix(p: int, q: int, upto: int) -> array | list:
    # g[m] is the product of the units up to m, mod q.
    g = _tables.setdefault((p, q), array("q", [1]) if q < 2**63 else [1])
    acc = g[-1]
    for i in range(len(g), upto + 1):
        if i % p:
            acc = acc * i % q
        g.append(acc)
    return g


def _p_free_factorial(n: int, g: array | list, p: int, q: int, wilson_negative: bool) -> int:
    # The units up to q multiply to -1 (for odd p, and for q in {2, 4}),
    # so (m!)_p == (+-1)^(m // q) g[m mod q] at each level m = n // p^l.
    res, wraps, m = 1, 0, n
    while m:
        res = res * g[m % q] % q
        wraps += m // q
        m //= p
    if wilson_negative and wraps % 2:
        res = q - res
    return res


def binom_mod_table(a: int, b: int, p: int, k: int) -> int:
    """binom(a, b) mod p^k through a prefix table of the units up to min(a, p^k - 1)."""
    if b < 0 or b > a:
        return 0
    q, c = p**k, a - b
    e = legendre_valuation(a, p) - legendre_valuation(b, p) - legendre_valuation(c, p)
    if e >= k:
        return 0
    g = _unit_prefix(p, q, min(a, q - 1))
    negative = not (p == 2 and k >= 3)
    fa, fb, fc = (_p_free_factorial(n, g, p, q, negative) for n in (a, b, c))
    return p**e * fa * pow(fb * fc % q, -1, q) % q
