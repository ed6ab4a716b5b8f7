"""The irregular-pair scan kernel: w_p mod p from Lehmer's congruence, a block of primes at once.

This is the only module that imports numpy.  ``bernoulli.irregular_scan``
imports it before it starts any worker, so forked workers inherit it;
every other command runs without numpy.

``_w_mod_block`` takes the primes of a scan block and splits them into
groups of consecutive primes.  A group's primes are the rows of one
array, and each numpy pass runs over all of them, with per-row moduli
and multipliers as column vectors.  A group's rows fit a fixed buffer
and run in blocks of at most 2^14 columns, so memory never grows with p
or with the block.  Every pass writes into buffers that are kept between
calls, and none casts.  The lanes are uint32 when every prime of the group is below
2^16, where (p-1)^2 < 2^32, and uint64 otherwise; the code is the same
for both.
"""

from __future__ import annotations

import numpy as np

from .bernoulli import KERNEL_P_LIMIT
from .errors import PreconditionError, WolstenError
from .padic import is_prime

# Bytes of one lane buffer, which holds 2 (g and h) x rows x columns of
# a group: 2^18 uint32 or 2^17 uint64 elements.  A block has at most
# 2^14 columns, so that its passes stay in cache.  Measured on a 2-core
# Xeon (2 MiB L2 per core), each of these costs about half as much time
# again: no cap, for p = 2124679, and a buffer of a quarter of this size
# (fewer rows per group), for the dense scan of the primes to 5*10^4.
_BUFFER_BYTES = 1 << 20
_MAX_COLUMNS = 1 << 14
_U32_BOUND = 1 << 16

# numpy (2.4 at least) buffers a ufunc whose inner rows are shorter than
# half its buffer, 8192 elements by default, to run longer inner loops.
# That copies a per-row modulus out to every element, and floor division
# by it falls from about 0.3 to 3 ns per element.  No pass here casts, so
# a small buffer only stops that; it takes the dense scan from 0.78 s to
# 0.59 s (5131 primes to 5*10^4, one process, measured on a 2-core Xeon).
_UFUNC_BUFSIZE = 1024

# Buffer sets not in use, one dict {dtype: buffers} each, kept at module
# level so that a worker process reuses them from block to block.
# list.pop and list.append are atomic, so threads that scan at once take
# separate sets.
_spare: list[dict] = []


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


def _mulmod(a: np.ndarray, c: np.ndarray, p: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    # out = a * c mod p, p broadcast along the rows; floor division by a
    # per-row constant is several times faster in numpy than the remainder.
    np.multiply(a, c, out=tmp)
    np.floor_divide(tmp, p, out=out)
    np.multiply(out, p, out=out)
    np.subtract(tmp, out, out=out)


def _powers(out: np.ndarray, x: np.ndarray, p: np.ndarray, tmp: np.ndarray) -> None:
    # out[..., i] = x^i mod p per row, doubling the known prefix each step;
    # x, a column, is squared in place as it goes.
    n = out.shape[-1]
    out[..., 0] = 1
    m = 1
    while m < n:
        k = min(m, n - m)
        _mulmod(out[..., :k], x, p, out[..., m : m + k], tmp[..., :k])
        m += k
        if m < n:
            _mulmod(x, x, p, x, tmp[..., :1])


def _lanes(p: int) -> type:
    # uint32 holds a product of two residues below 2^16, uint64 the rest.
    return np.uint32 if p < _U32_BOUND else np.uint64


def _budget(dtype: type) -> int:
    # Elements of one lane buffer.
    return _BUFFER_BYTES // np.dtype(dtype).itemsize


def _buffers(spare: dict, dtype: type) -> tuple[np.ndarray, ...]:
    if dtype not in spare:
        n = _budget(dtype)
        spare[dtype] = (np.empty(n, dtype), np.empty(n, dtype), np.empty(n // 2, dtype))
    return spare[dtype]


def _groups(primes: tuple[int, ...]) -> list[list[int]]:
    # Runs of consecutive primes that share lanes and whose g and h rows
    # fit one buffer: 2 x rows x min(max (p-1)/2, _MAX_COLUMNS) elements.
    groups: list[list[int]] = []
    top = 0
    for p in primes:
        half, dtype = (p - 1) // 2, _lanes(p)
        group = groups[-1] if groups else None
        width = min(max(top, half), _MAX_COLUMNS)
        if group and _lanes(group[0]) is dtype and 2 * (len(group) + 1) * width <= _budget(dtype):
            group.append(p)
            top = max(top, half)
        else:
            groups.append([p])
            top = half
    return groups


def _w_mod_group(primes: list[int], spare: dict) -> list[int]:
    dtype = _lanes(primes[0])
    n = len(primes)
    halves = [(p - 1) // 2 for p in primes]
    top = max(halves)
    m = min(top, _budget(dtype) // (2 * n), _MAX_COLUMNS)  # columns per block
    xs_flat, tmp_flat, high_flat = _buffers(spare, dtype)
    # xs[0, r] holds g_r^i and xs[1, r] holds h_r^i, i in the current block.
    xs = xs_flat[: 2 * n * m].reshape(2, n, m)
    tmp = tmp_flat[: 2 * n * m].reshape(2, n, m)
    high = high_flat[: n * m].reshape(n, m)
    roots = [_primitive_root(p) for p in primes]
    bases = roots + [pow(g, -3, p) for g, p in zip(roots, primes)]
    p_col = np.array(primes, dtype)[:, None]
    half_col = np.array(halves, dtype)[:, None]
    sign_bit = dtype(8 * np.dtype(dtype).itemsize - 1)
    _powers(xs, np.array(bases, dtype).reshape(2, n, 1), p_col, tmp)
    steps = np.array([pow(b, m, p) for b, p in zip(bases, primes * 2)], dtype).reshape(2, n, 1)
    # Per row: sums of g^i and h^i where g^i is high (above (p-1)/2), of
    # all g^i and h^i, and the count of high g^i.  In uint32 lanes a row
    # has fewer than 2^15 elements, each below 2^16, so no sum reaches
    # 2^31; in uint64 lanes fewer than 2^30.5, each below 2^31.5 (p is
    # below KERNEL_P_LIMIT), so no sum reaches 2^62.
    sums = np.zeros((5, n), dtype)
    block = np.empty((5, n), dtype)
    last = [(0, 0)] * n  # (g^((p-1)/2 - 1), h^((p-1)/2 - 1)) per row
    for start in range(0, top, m):
        w = min(m, top - start)
        x, t, hi = xs[..., :w], tmp[..., :w], high[:, :w]
        if start:
            _mulmod(x, steps, p_col, x, t)
        ending = [r for r, half in enumerate(halves) if start < half <= start + w]
        for r in ending:  # row r's last exponent is in this block
            j = halves[r] - 1 - start
            last[r] = (int(x[0, r, j]), int(x[1, r, j]))
            x[:, r, j + 1 :] = 0  # a zero is not high and adds nothing below
        # (p-1)/2 - g^i wraps past the sign bit exactly where g^i is high.
        np.subtract(half_col, x[0], out=hi)
        np.right_shift(hi, sign_bit, out=hi)
        np.multiply(x, hi, out=t)
        np.add.reduce(t, axis=2, out=block[:2])
        np.add.reduce(x, axis=2, out=block[2:4])
        np.add.reduce(hi, axis=1, out=block[4])
        sums += block
        for r in ending:
            x[:, r] = 0  # and stays zero through the later blocks
    results = []
    for (g_hi, h_hi, g_all, h_all, n_hi), p, half, g, h, (g_last, h_last) in zip(
        sums.T.tolist(), primes, halves, roots, bases[n:], last
    ):
        s = h_all - 2 * h_hi
        # The sum of min(g^i, p - g^i): g^i where low, p - g^i where high.
        folded = g_all - 2 * g_hi + n_hi * p
        closes = g_last * g % p == p - 1 and h_last * h % p == p - 1
        if not closes or folded != half * (half + 1) // 2:
            raise WolstenError(f"scan kernel self-check failed at p={p}")
        results.append(s * pow(6, -1, p) % p)
    return results


def _w_mod_block(primes: tuple[int, ...]) -> list[int]:
    """[w_p mod p for p in primes], each as S/6 with S = sum_{k<=(p-1)/2} k^-3 == 6 w_p (mod p).

    With g a primitive root and h = g^-3, the k <= (p-1)/2 are the g^i
    that are <= (p-1)/2, with k^-3 = h^i.  As g^((p-1)/2) == -1, the
    exponents past (p-1)/2 repeat the first half negated, so
    S = sum_{i<(p-1)/2} (h^i if g^i <= (p-1)/2 else -h^i).  The g^i and
    h^i of a group's rows run in blocks of columns, the first by doubling
    and each next one the previous times g^m resp. h^m.

    Self-check per prime, raising WolstenError that names it: the
    enumeration closes at g^((p-1)/2) == h^((p-1)/2) == -1, and the
    folded values min(g^i, p - g^i) sum to 1 + 2 + ... + (p-1)/2, as they
    must when they run over 1..(p-1)/2 once each.
    """
    for p in primes:
        if not 5 <= p < KERNEL_P_LIMIT or not is_prime(p):
            raise PreconditionError(
                f"p={p} must be a prime with 5 <= p < {KERNEL_P_LIMIT} (64-bit scan kernel)"
            )
    try:
        spare = _spare.pop()
    except IndexError:
        spare = {}
    bufsize = np.setbufsize(_UFUNC_BUFSIZE)
    try:
        return [w for group in _groups(primes) for w in _w_mod_group(group, spare)]
    finally:
        np.setbufsize(bufsize)
        _spare.append(spare)


def _w_mod_p(p: int) -> int:
    """w_p mod p: the block kernel on the block (p,)."""
    return _w_mod_block((p,))[0]
