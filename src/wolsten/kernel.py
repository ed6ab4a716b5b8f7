"""The irregular-pair scan kernel: w_p mod p from Lehmer's congruence in int64.

This is the only module that imports numpy.  ``bernoulli.irregular_scan``
imports it before it starts any worker, so forked workers inherit it;
every other command runs without numpy.
"""

from __future__ import annotations

import numpy as np

from .bernoulli import KERNEL_P_LIMIT
from .errors import PreconditionError, WolstenError
from .padic import is_prime

_KERNEL_BLOCK = 1 << 16


def _primitive_root(p: int) -> int:
    # The least g with g^((p-1)/q) != 1 (mod p) for every prime q | p - 1.
    n, factors, d = p - 1, [], 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append(n)
    return next(
        g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors)
    )


def _mulmod(a: np.ndarray, c: int, p: int, out: np.ndarray) -> np.ndarray:
    # out = a * c mod p; floor division by a scalar is several times
    # faster in numpy than the remainder.
    np.multiply(a, c, out=out)
    out -= out // p * p
    return out


def _powers(x: int, n: int, p: int) -> np.ndarray:
    # [x^0, ..., x^(n-1)] mod p, doubling the known prefix each step.
    out = np.empty(n, dtype=np.int64)
    out[0] = 1
    m = 1
    while m < n:
        k = min(m, n - m)
        _mulmod(out[:k], pow(x, m, p), p, out[m : m + k])
        m += k
    return out


def _w_mod_p(p: int) -> int:
    """w_p mod p as S/6, where S = sum_{k<=(p-1)/2} k^-3 == 6 w_p (mod p).

    With g a primitive root and h = g^-3, the k <= (p-1)/2 are the g^i
    that are <= (p-1)/2, with k^-3 = h^i.  As g^((p-1)/2) == -1, the
    exponents past (p-1)/2 repeat the first half negated, so
    S = sum_{i<(p-1)/2} (h^i if g^i <= (p-1)/2 else -h^i).  The g^i and
    h^i run in blocks of m = 2^16 exponents, each block the previous one
    times g^m resp. h^m (two modular products per element), so memory is
    bounded by the block, never by p.

    Self-check, raising WolstenError: the enumeration closes at
    g^((p-1)/2) == h^((p-1)/2) == -1, and the folded values
    min(g^i, p - g^i) sum to 1 + 2 + ... + (p-1)/2, as they must when
    they run over 1..(p-1)/2 once each.
    """
    if not 5 <= p < KERNEL_P_LIMIT or not is_prime(p):
        raise PreconditionError(
            f"p={p} must be a prime with 5 <= p < {KERNEL_P_LIMIT} (int64 scan kernel)"
        )
    half = (p - 1) // 2
    g = _primitive_root(p)
    h = pow(g, -3, p)
    m = min(_KERNEL_BLOCK, half)
    g_blk, h_blk = _powers(g, m, p), _powers(h, m, p)
    g_step, h_step = pow(g, m, p), pow(h, m, p)
    s = folded = 0
    for start in range(0, half, m):
        if start:
            _mulmod(g_blk, g_step, p, g_blk)
            _mulmod(h_blk, h_step, p, h_blk)
        k = min(m, half - start)
        gi, hi = g_blk[:k], h_blk[:k]
        low = (gi <= half).astype(np.int64)
        s += 2 * int(np.dot(hi, low)) - int(hi.sum())
        # sum of min(g^i, p - g^i): g^i where low, p - g^i elsewhere
        folded += 2 * int(np.dot(gi, low)) - int(gi.sum()) + (k - int(low.sum())) * p
    closes = int(gi[-1]) * g % p == p - 1 and int(hi[-1]) * h % p == p - 1
    if not closes or folded != half * (half + 1) // 2:
        raise WolstenError(f"scan kernel self-check failed at p={p}")
    return s * pow(6, -1, p) % p
