"""Multiple harmonic sums, Stirling numbers of the first kind, and the
composition sums they generate.

H(s_1,...,s_d; n) is the n-th partial sum of the nested series

    sum over 1 <= k_1 < ... < k_d <= n  of  k_1^(-s_1) * ... * k_d^(-s_d),

evaluated either exactly (Fraction) or in residue arithmetic modulo a
prime power.  Both evaluators run the same O(n*d) prefix recurrence

    P_j(m) = P_j(m-1) + P_{j-1}(m-1) * m^(-s_j),   P_0 = 1.

The exact evaluator runs it in integers, with no Fraction per step (a
Fraction sum reduces by a gcd of two growing numbers at every step).  It
keeps the numerators N_j = P_j(m) * L^(W_j) over L = lcm(1..m), where
W_j = s_1 + ... + s_j, so a step is N_j += N_{j-1} * (L/m)^(s_j); when m
is a prime power q^a, L grows by q and every N_j is first multiplied by
q^(W_j).  One Fraction(N_d, L^(W_d)) is reduced at the end.  The state
(m, L, N) of the 16 most recently advanced compositions is cached per
process, and a later call with a larger n continues from it, so H(s; p-1)
over the primes 7..401 costs one pass to 400 rather than one per prime.

Partial sums of divergent series (trailing exponent 1) are fully
supported; no index pattern is rejected.
"""

from __future__ import annotations

import itertools
import math
import threading
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .errors import NonIntegralError, PreconditionError
# reduce_mod and valuation are unused here; bench/probe.py patches them.
from .padic import (
    PrimePower,
    Residue,
    _batch_inverse_ints,
    is_prime,
    padic_congruent,
    reduce_mod,
    valuation,
)

if TYPE_CHECKING:  # report is imported by the claim checkers that build reports
    from .report import CongruenceReport


class Composition(NamedTuple("Composition", [("parts", tuple[int, ...])])):
    """A nonempty sequence of positive integer exponents (s_1,...,s_d)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too
    DEPTH_MAX = 10**6  # parse's bound: H(s;n) = 0 for n < depth, and it costs n * depth steps

    def __new__(cls, parts: tuple[int, ...]) -> Composition:
        if len(parts) == 0:
            raise PreconditionError("a composition needs at least one part")
        if any(s < 1 for s in parts):
            raise PreconditionError(f"parts must be positive: {parts}")
        return super().__new__(cls, parts)

    @property
    def depth(self) -> int:
        return len(self.parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @classmethod
    def of(cls, *parts: int) -> "Composition":
        return cls(tuple(parts))

    @classmethod
    def repeat(cls, s: int, d: int) -> "Composition":
        """The composition {s}^d, i.e. d copies of s."""
        return cls((s,) * d)

    @classmethod
    def parse(cls, text: str) -> "Composition":
        """Parse "1,2" as (1,2); the token "1^3" expands to 1,1,1.

        A token is ASCII digits, alone or followed by ^ and a count of at
        least 1; int() alone would also take "1_0", "-3" and "７".  A token
        that would take the depth past DEPTH_MAX is refused before it expands,
        and a part of 10^6 or more by its digits, before int() reads it.
        """
        parts: list[int] = []
        for tok in text.split(","):
            tok = tok.strip()
            base, hat, count = tok.partition("^")
            count = count.lstrip("0") if hat else "1"
            if not (tok.isascii() and base.isdigit() and count.isdigit()):
                raise PreconditionError(f"cannot parse composition {text!r}: bad token {tok!r}")
            if len(parts) + (int(count) if len(count) <= 7 else cls.DEPTH_MAX + 1) > cls.DEPTH_MAX:
                raise PreconditionError(
                    f"composition {text!r}: token {tok!r} takes the depth past {cls.DEPTH_MAX}")
            if len(base := base.lstrip("0") or "0") > 6:
                raise PreconditionError(
                    f"composition {text!r}: token {tok!r} has a part of 10^6 or more")
            parts.extend([int(base)] * int(count))
        return cls(tuple(parts))

    def __str__(self) -> str:
        return ",".join(str(s) for s in self.parts)


# Per composition, the integer state (m, lcm(1..m), [N_0, ..., N_d]), in
# the order the entries were last advanced; the first one is evicted.
_MHS_CACHE_SIZE = 16
_mhs_cache: dict[tuple[int, ...], tuple[int, int, list[int]]] = {}
_mhs_lock = threading.Lock()


def _mhs_advance(
    parts: tuple[int, ...], state: tuple[int, int, list[int]] | None, n: int
) -> tuple[int, int, list[int]]:
    # Run the integer recurrence from state (None: m = 0) to m = n, in a
    # new list, so a state once cached is never changed.
    m, big_l, rows = state or (0, 1, [1] + [0] * len(parts))
    rows = list(rows)
    weights = list(itertools.accumulate(parts))
    d = len(parts)
    for k in range(m + 1, n + 1):
        q = k // math.gcd(big_l, k)  # lcm(1..k) / lcm(1..k-1): q if k = q^a, else 1
        if q > 1:
            big_l *= q
            for j in range(1, d + 1):
                rows[j] *= q ** weights[j - 1]
        c = big_l // k
        for j in range(min(d, k), 0, -1):
            rows[j] += rows[j - 1] * c ** parts[j - 1]
    return n, big_l, rows


def mhs_exact(s: Composition, n: int) -> Fraction:
    """Exact value of H(s_1,...,s_d; n); the empty sum (n < depth) is 0.

    Continues the cached state of s when that stops at or below n; a
    smaller n is computed from scratch and leaves the cached state alone.
    """
    if n < 0:
        raise PreconditionError(f"n must be >= 0, got {n}")
    with _mhs_lock:
        cached = _mhs_cache.get(s.parts)
        if cached is not None and cached[0] > n:
            _, big_l, rows = _mhs_advance(s.parts, None, n)
        else:
            state = _mhs_advance(s.parts, cached, n)
            _mhs_cache.pop(s.parts, None)
            _, big_l, rows = _mhs_cache[s.parts] = state
            if len(_mhs_cache) > _MHS_CACHE_SIZE:
                del _mhs_cache[next(iter(_mhs_cache))]
    return Fraction(rows[-1], big_l ** s.weight)


# mhs_mod inverts this many denominators at a time: one modular inverse per
# batch, and a few hundred KB of residues however large n is.
_INVERSE_BATCH = 4096


def mhs_mod(s: Composition, n: int, m: PrimePower) -> Residue:
    """H(s; n) reduced modulo p^k, computed in residue arithmetic.

    Requires n < p so every denominator 1..n is invertible.  Agrees with
    reduce_mod(mhs_exact(s, n), m) and costs O(n * depth), inverting 1..n
    in batches of _INVERSE_BATCH, so its memory does not grow with n.
    """
    if n >= m.p:
        raise PreconditionError(f"n={n} must be < p={m.p} for modular evaluation")
    if n < 0:
        raise PreconditionError(f"n must be >= 0, got {n}")
    q = m.modulus
    d = s.depth
    if n < d:
        return Residue(0, m)
    # Every row steps at every denominator: rows[j - 1] stays 0 until the
    # (j - 1)-th, so the early steps of the high rows add nothing.
    steps = [(j, s.parts[j - 1]) for j in range(d, 0, -1)]
    rows = [1] + [0] * d
    for lo in range(1, n + 1, _INVERSE_BATCH):
        for v in _batch_inverse_ints(range(lo, min(lo + _INVERSE_BATCH, n + 1)), q, m.p):
            for j, e in steps:
                rows[j] = (rows[j] + rows[j - 1] * (v if e == 1 else pow(v, e, q))) % q
    return Residue(rows[d], m)


def _mhs_ones_exact(depth: int, n: int) -> Fraction:
    # H({1}^depth; n) with the empty-composition convention H({};n) = 1.
    if depth == 0:
        return Fraction(1)
    return mhs_exact(Composition.repeat(1, depth), n)


def shuffle_check(s: int, t: int, n: int) -> bool:
    """Exact shuffle relation H(s)H(t) = H(t,s) + H(t+s) + H(s,t) at n."""
    hs = mhs_exact(Composition.of(s), n)
    ht = mhs_exact(Composition.of(t), n)
    rhs = (
        mhs_exact(Composition.of(t, s), n)
        + mhs_exact(Composition.of(t + s), n)
        + mhs_exact(Composition.of(s, t), n)
    )
    return hs * ht == rhs


def check_wolstenholme(p: int, precision: int = 2) -> CongruenceReport:
    """H(1;p-1) == 0 mod p^2 for primes p >= 5."""
    if not is_prime(p) or p < 5:
        raise PreconditionError(f"p={p} must be a prime >= 5")
    from .report import congruence_report

    h = mhs_exact(Composition.of(1), p - 1)
    return congruence_report("wolstenholme", p, precision, h, 0, {})


def check_prop_ijk(p: int) -> CongruenceReport:
    """2H(2,1;p-1) == -2H(1,2;p-1) == sum 1/(ijk) over i+j+k=p, mod p."""
    if not is_prime(p) or p < 3:
        raise PreconditionError(f"p={p} must be an odd prime")
    from .report import congruence_report

    h21 = mhs_exact(Composition.of(2, 1), p - 1)
    h12 = mhs_exact(Composition.of(1, 2), p - 1)
    ok1, v1 = padic_congruent(2 * h21, -2 * h12, p, 1)
    return congruence_report("prop_ijk", p, 1, 2 * h12 + composition_sum_exact(3, p), 0,
                             {"first_link_valuation": int(v1)}, holds=ok1)


def check_genwols(p: int, s: int, d: int) -> CongruenceReport:
    return genwols_check(s, d, p)


def genwols_check(s: int, d: int, p: int) -> CongruenceReport:
    """Divisibility of H({s}^d; p-1): mod p^2 when s*d is odd, mod p when even.

    Requires p odd prime with p >= s*d + 3.
    """
    if s < 1 or d < 1:
        raise PreconditionError("s and d must be positive")
    if not is_prime(p) or p == 2:
        raise PreconditionError(f"p={p} must be an odd prime")
    if p < s * d + 3:
        raise PreconditionError(f"requires p >= s*d + 3, got p={p}, s*d={s * d}")
    from .report import congruence_report

    precision = 2 if (s * d) % 2 else 1
    h = mhs_exact(Composition.repeat(s, d), p - 1)
    return congruence_report("genwols", p, precision, h, 0, {"s": s, "d": d})


def stirling1(n: int, j: int) -> int:
    """Unsigned Stirling number of the first kind from the falling factorial.

    f_n(x) = x(x-1)...(x-n+1) expands as sum of (-1)^(n-j) S(n,j) x^j.
    """
    if not 1 <= j <= n:
        raise PreconditionError(f"need 1 <= j <= n, got n={n}, j={j}")
    c = fp_polynomial_coeffs(n)[j]
    return c if (n - j) % 2 == 0 else -c


def stirling_mhs_check(n: int, j: int) -> bool:
    """Exact identity S(n,j) = (n-1)! * H({1}^(j-1); n-1)."""
    if not 1 <= j <= n:
        raise PreconditionError(f"need 1 <= j <= n, got n={n}, j={j}")
    return stirling1(n, j) == math.factorial(n - 1) * _mhs_ones_exact(j - 1, n - 1)


def fp_polynomial_coeffs(n: int) -> list[int]:
    """Ascending coefficients of f_n(x) = x(x-1)(x-2)...(x-n+1)."""
    if n < 1:
        raise PreconditionError(f"n must be >= 1, got {n}")
    coeffs = [0, 1]
    for m in range(1, n):
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= m * c
        coeffs = nxt
    return coeffs


def h12_checks(p: int) -> tuple[CongruenceReport, CongruenceReport]:
    """The two harmonic identities behind the mod-p^5 binomial refinement.

    First report: 2 H(1,1;p-1) + H(2;p-1) equals H(1;p-1)^2 exactly, and
    that square vanishes mod p^4.  Second report: the chain
    2 H(1;p-1) == -p H(2;p-1) == 2p H(1,1;p-1) mod p^4.  Requires p >= 7.
    """
    if not is_prime(p) or p < 7:
        raise PreconditionError(f"p={p} must be a prime >= 7")
    from .report import congruence_report

    n = p - 1
    h1 = mhs_exact(Composition.of(1), n)
    h11 = mhs_exact(Composition.of(1, 1), n)
    h2 = mhs_exact(Composition.of(2), n)

    lhs_a = 2 * h11 + h2
    rhs_a = h1 * h1
    ok_sq, v_sq = padic_congruent(rhs_a, 0, p, 4)
    rep_a = congruence_report(
        "h12", p, 4, lhs_a, rhs_a, {"h1_squared_valuation": int(v_sq)},
        holds=lhs_a == rhs_a and ok_sq,
    )

    mid_b = -p * h2
    ok2, v2 = padic_congruent(mid_b, 2 * p * h11, p, 4)
    rep_b = congruence_report(
        "h12p", p, 4, 2 * h1, mid_b, {"second_link_valuation": int(v2)}, holds=ok2
    )
    return rep_a, rep_b


def composition_sum(n_parts: int, p: int, m: PrimePower) -> Residue:
    """Residue of  sum over l_1+...+l_n = p, l_i > 0  of  1/(l_1...l_n).

    Evaluated through the identity

        sum = (n_parts! / p) * H({1}^(n_parts-1); p-1),

    with the harmonic sum taken mod p^(k+1) so that the division by p
    retains k digits.  The division asserts the numerator's valuation
    first; the identity itself is gated by brute-force enumeration in the
    test suite.
    """
    if n_parts < 2:
        raise PreconditionError(f"n_parts must be >= 2, got {n_parts}")
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    if m.p != p:
        raise PreconditionError(f"modulus {m} does not match p={p}")
    if n_parts > p:
        raise PreconditionError(f"no composition of {p} into {n_parts} positive parts")
    lifted = PrimePower(p, m.k + 1)
    q = lifted.modulus
    h = mhs_mod(Composition.repeat(1, n_parts - 1), p - 1, lifted).value
    c = math.factorial(n_parts) % q * h % q
    if c % p != 0:
        raise NonIntegralError(
            f"composition sum for n={n_parts}, p={p} is not p-integral at precision {m.k}"
        )
    return Residue(c // p, m)


def composition_sum_exact(n_parts: int, p: int) -> Fraction:
    """Exact rational value of the composition sum, by the same identity."""
    if n_parts < 2:
        raise PreconditionError(f"n_parts must be >= 2, got {n_parts}")
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    if n_parts > p:
        raise PreconditionError(f"no composition of {p} into {n_parts} positive parts")
    return Fraction(math.factorial(n_parts), p) * _mhs_ones_exact(n_parts - 1, p - 1)


def composition_sum_bruteforce(n_parts: int, total: int) -> Fraction:
    """Direct enumeration over all compositions; the independent oracle.

    Cost is C(total-1, n_parts-1) terms, so keep total small.
    """
    if n_parts < 1:
        raise PreconditionError(f"n_parts must be >= 1, got {n_parts}")
    from itertools import combinations

    acc = Fraction(0)
    for cuts in combinations(range(1, total), n_parts - 1):
        prod = 1
        prev = 0
        for c in (*cuts, total):
            prod *= c - prev
            prev = c
        acc += Fraction(1, prod)
    return acc
