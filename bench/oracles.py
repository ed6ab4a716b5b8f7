"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports wolsten.  Each quantity is computed by a different
route from the program's:

* B_{p-3} mod p by Lehmer's congruence
  sum_{k <= (p-1)/2} k^-3 == -2 B_{p-3}  (mod p)  (E. Lehmer, 1938),
  with the inverses taken by Fermat exponentiation in numpy;
* exact Bernoulli numbers by the Akiyama-Tanigawa algorithm;
* binomial residues from math.comb and exact Fractions;
* harmonic sums as direct modular sums, nested sums through Newton's
  identities, composition sums by dynamic programming over the parts;
* grid domains enumerated from the constraints stated with each claim.

``self_check`` ties the oracles to the published constants before any
workload runs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

# The seven nontrivial mod-7^5 quadruples (N, R, n, r) listed in the paper.
PAPER_SEVEN = frozenset({
    (4, 2, 5, 2), (4, 2, 5, 3), (5, 2, 6, 1), (4, 2, 6, 3),
    (5, 1, 6, 3), (5, 4, 6, 3), (5, 3, 6, 5),
})

# The only irregular pairs (p, p-3) below 1.2 * 10^7 (McIntosh and
# Roettger, Math. Comp. 76, 2007).
PUBLISHED_IRREGULAR = (16843, 2124679)


# ---------------------------------------------------------------- primes

def primes_between(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi] from a numpy sieve of Eratosthenes."""
    if hi < 2:
        return []
    composite = np.zeros(hi + 1, dtype=bool)
    composite[:2] = True
    for q in range(2, math.isqrt(hi) + 1):
        if not composite[q]:
            composite[q * q :: q] = True
    return [int(x) for x in np.flatnonzero(~composite[max(lo, 0) :]) + max(lo, 0)]


# ----------------------------------------------------- rationals mod p^k

def reduce(x: Fraction | int, p: int, k: int) -> int:
    """The residue of a p-integral rational modulo p^k."""
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ValueError(f"{x} is not {p}-integral")
    q = p**k
    return x.numerator * pow(x.denominator, -1, q) % q


# -------------------------------------------------------- harmonic sums

def harmonic_exact(n: int) -> Fraction:
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def power_sum_mod(p: int, n: int, e: int, q: int) -> int:
    """sum_{k=1}^{n} k^-e mod q, each inverse taken separately."""
    return sum(pow(k, -e, q) for k in range(1, n + 1)) % q


def wolstenholme_quotient(p: int) -> int:
    """w_p with H(1;p-1) == w_p p^2 (mod p^4), from a direct sum mod p^4."""
    s = power_sum_mod(p, p - 1, 1, p**4)
    if s % (p * p):
        raise ValueError(f"H(1;{p - 1}) is not divisible by {p}^2")
    return s // (p * p) % (p * p)


def nested_mod(p: int, s: int, d: int, k: int) -> int:
    """H({s}^d; p-1) mod p^k as the elementary symmetric function e_d of
    x_j = j^-s, through Newton's identities on the power sums of x_j."""
    q = p**k
    power = [0] + [power_sum_mod(p, p - 1, s * i, q) for i in range(1, d + 1)]
    e = [1]
    for m in range(1, d + 1):
        acc = sum((-1) ** (i - 1) * e[m - i] * power[i] for i in range(1, m + 1))
        e.append(acc * pow(m, -1, q) % q)
    return e[d]


def h_1_e_mod(p: int, e: int, q: int) -> int:
    """H(1,e;p-1) = sum_{a<b} 1/(a b^e) mod q."""
    prefix, total = 0, 0
    for b in range(1, p):
        total += prefix * pow(b, -e, q)
        prefix += pow(b, -1, q)
    return total % q


def composition_sum_mod(parts: int, p: int, k: int) -> int:
    """sum over l_1+...+l_parts = p, l_i >= 1, of 1/(l_1...l_parts) mod p^k,
    by dynamic programming on the running total."""
    q = p**k
    inv = [0] + [pow(j, -1, q) for j in range(1, p)]  # parts < p when parts >= 2
    f = [1] + [0] * p  # zero parts summing to 0
    for _ in range(parts):
        g = [0] * (p + 1)
        for total in range(1, p + 1):
            acc = 0
            for last in range(1, min(total, p - 1) + 1):
                if f[total - last]:
                    acc += f[total - last] * inv[last]
            g[total] = acc % q
        f = g
    return f[p]


# ----------------------------------------------------------- Bernoulli

_bernoulli: list[Fraction] = []


def bernoulli(n: int) -> Fraction:
    """Exact B_n (B_1 = +1/2 convention) by the Akiyama-Tanigawa algorithm."""
    if len(_bernoulli) <= n:
        _bernoulli.clear()
        row: list[Fraction] = []
        for m in range(n + 1):
            row.append(Fraction(1, m + 1))
            for j in range(m, 0, -1):
                row[j - 1] = j * (row[j - 1] - row[j])
            _bernoulli.append(row[0])
    return _bernoulli[n]


def lehmer_sums(primes: list[int]) -> dict[int, int]:
    """S_p = sum_{k=1}^{(p-1)/2} k^-3 mod p, for each prime p >= 5.

    Inverses come from k^(p-2) by square-and-multiply on int64 vectors;
    every product stays below p^2 < 2^63 for p < 3 * 10^9.
    """
    out = {}
    for p in primes:
        k = np.arange(1, (p - 1) // 2 + 1, dtype=np.int64)
        cube = k * k % p * k % p
        inv, base, e = np.ones_like(cube), cube, p - 2
        while e:
            if e & 1:
                inv = inv * base % p
            base = base * base % p
            e >>= 1
        out[p] = int(inv.sum() % p)
    return out


def b_pm3_mod_p(primes: list[int]) -> dict[int, int]:
    """B_{p-3} mod p from Lehmer's congruence: B_{p-3} == -S_p / 2."""
    return {p: -s * pow(2, -1, p) % p for p, s in lehmer_sums(primes).items()}


# ---------------------------------------------------------- binomials

@lru_cache(maxsize=256)
def _comb_mod(a: int, b: int, q: int) -> int:
    return math.comb(a, b) % q


def comb_offset_mod(A: int, B: int, n: int, r: int, p: int, k: int) -> int:
    """C(A + n, B + r) mod p^k for multiples A, B of p and 0 <= n, r < p.

    math.comb(A, B) is formed once per (A, B); the offsets multiply it by
    the exact ratio of small products, whose denominator is a p-unit.
    """
    q = p**k
    if B + r > A + n:
        return 0
    num = math.prod(range(A + 1, A + n + 1))
    den = math.prod(range(B + 1, B + r + 1))
    C = A - B
    if n >= r:
        den *= math.prod(range(C + 1, C + n - r + 1))
    else:
        num *= math.prod(range(C + n - r + 1, C + 1))
    return _comb_mod(A, B, q) * (num % q) * pow(den % q, -1, q) % q


# -------------------------------------------------------------- claims

def claim_residues(claim: str, p: int, params: dict) -> tuple[int, int, int]:
    """(precision, lhs residue, rhs residue) of one claim instance, as the
    claim is stated: the value pair whose difference the verdict is about."""
    g = params.get
    N, R, n, r = g("N"), g("R"), g("n"), g("r")
    if claim == "wolstenholme":
        return 2, power_sum_mod(p, p - 1, 1, p * p), 0
    if claim == "h12":  # 2 H(1,1) + H(2) against H(1)^2, mod p^4
        q = p**4
        h1 = power_sum_mod(p, p - 1, 1, q)
        lhs = 2 * h_1_e_mod(p, 1, q) + power_sum_mod(p, p - 1, 2, q)
        return 4, lhs % q, h1 * h1 % q
    if claim == "h12p":  # 2 H(1) against -p H(2), mod p^4
        q = p**4
        return 4, 2 * power_sum_mod(p, p - 1, 1, q) % q, -p * power_sum_mod(p, p - 1, 2, q) % q
    if claim == "prop_ijk":
        return 1, (2 * h_1_e_mod(p, 2, p) + composition_sum_mod(3, p, 1)) % p, 0
    if claim == "cor_ijk":
        return 1, composition_sum_mod(3, p, 1), reduce(-2 * bernoulli(p - 3), p, 1)
    if claim == "ji_zhoucai":
        m = params["n_parts"]
        if m % 2:
            rhs = -math.factorial(m - 1) * bernoulli(p - m)
            return 1, composition_sum_mod(m, p, 1), reduce(rhs, p, 1)
        rhs = -Fraction(math.factorial(m) * m * p, 2 * (m + 1)) * bernoulli(p - m - 1)
        return 2, composition_sum_mod(m, p, 2), reduce(rhs, p, 2)
    if claim == "genwols":
        s, d = params["s"], params["d"]
        k = 2 if s * d % 2 else 1
        return k, nested_mod(p, s, d, k), 0
    if claim in ("main_p5", "main_exp"):
        pe = p ** params.get("e", 1)
        lhs = Fraction(math.comb(n * pe, r * pe), math.comb(n, r))
        rhs = 1 + wolstenholme_quotient(p) * n * r * (n - r) * p**3
        return 5, reduce(lhs, p, 5), reduce(rhs, p, 5)
    if claim == "kazandzidis_k1":  # rising binomial n(n+1)...(n+r-1)/r! = C(n+r-1, r)
        lhs = Fraction(math.comb(n * p + r * p - 1, r * p), math.comb(n + r - 1, r))
        rhs = 1 - p * p * n * r * (n + r) if p == 3 else 1
        return 3, reduce(lhs, p, 3), reduce(rhs, p, 3)
    if claim == "kazandzidis_k2":
        lhs = Fraction(math.comb(n * p, r * p), math.comb(n, r))
        rhs = 1 - p * p * n * r * (n - r) if p == 3 else 1
        return 3, reduce(lhs, p, 3), reduce(rhs, p, 3)
    if claim == "thm2_case1":
        H = harmonic_exact
        c = H(n) * N - H(r) * R + (wolstenholme_quotient(p) * N * R - H(n - r)) * (N - R)
        lhs = Fraction(
            math.comb(N * p**3 + n, R * p**3 + r), math.comb(N, R) * math.comb(n, r)
        )
        return 5, reduce(lhs, p, 5), reduce(1 + c * p**3, p, 5)
    if claim == "thm2_case2":
        lhs = Fraction(math.comb(N * p**3 + n, R * p**3 + r), math.comb(N, R))
        sign = -1 if (r - n + 1) % 2 else 1
        rhs = sign * Fraction(N - R, r) / math.comb(r - 1, n) * p**3
        return 5, reduce(lhs, p, 5), reduce(rhs, p, 5)
    if claim == "bailey5":
        q = p**3
        lhs = comb_offset_mod(N * p**3, R * p**3, n, r, p, 3)
        return 3, lhs, math.comb(N, R) * math.comb(n, r) % q
    raise ValueError(f"no oracle for claim {claim!r}")


def claim_domain(claim: str, p: int, caps: dict) -> list[dict]:
    """Every parameter tuple of a grid run, from each claim's stated
    constraints; caps give the inclusive upper bound of each parameter."""
    cap = caps.get
    if claim in ("wolstenholme", "prop_ijk", "cor_ijk"):
        return [{}]
    if claim == "h12":
        return [{}, {}]  # two linked reports per prime
    if claim == "ji_zhoucai":
        m = caps["n_parts"]
        return [{"n_parts": m}] if 2 <= m <= p - 2 else []
    if claim == "genwols":
        s, d = caps["s"], caps["d"]
        return [{"s": s, "d": d}] if p >= s * d + 3 else []
    if claim in ("main_p5", "kazandzidis_k2", "main_exp", "kazandzidis_k1"):
        low = 1 if claim == "kazandzidis_k1" else 0
        out = [
            {"n": n, "r": r}
            for n in range(cap("n") + 1)
            for r in range(low, min(n, cap("r", cap("n"))) + 1)
        ]
        if claim == "main_exp":
            out = [dict(t, e=caps["e"]) for t in out]
        return out
    top_N, top_R = cap("N"), cap("R", cap("N"))
    top_n, top_r = cap("n"), cap("r", cap("n"))
    pairs = [(N, R) for N in range(top_N + 1) for R in range(top_R + 1)]
    small = range(min(top_n, p - 1) + 1)
    if claim == "bailey5":  # n, r < p; any N, R >= 0
        quads = [(N, R, n, r) for N, R in pairs for n in small for r in range(min(top_r, p - 1) + 1)]
    elif claim == "thm2_case1":  # R <= N, r <= n < p
        quads = [(N, R, n, r) for N, R in pairs if R <= N for n in small for r in range(min(n, top_r) + 1)]
    elif claim == "thm2_case2":  # R <= N, 1 <= n < r < p
        quads = [
            (N, R, n, r) for N, R in pairs if R <= N
            for n in small if n >= 1 for r in range(n + 1, min(top_r, p - 1) + 1)
        ]
    else:
        raise ValueError(f"no domain for claim {claim!r}")
    return [{"N": N, "R": R, "n": n, "r": r} for N, R, n, r in quads]


def search_decided(p: int) -> int:
    """Tuples 1 <= N, R, n, r <= p-1 with C(N,R) C(n,r) != 0 (R <= N, r <= n)."""
    t = (p - 1) * p // 2
    return t * t


def search_holds(p: int, N: int, R: int, n: int, r: int) -> bool:
    """C(N p^3 + n, R p^3 + r) == C(N,R) C(n,r) (mod p^5), with a nonzero right side."""
    rhs = math.comb(N, R) * math.comb(n, r)
    return rhs != 0 and comb_offset_mod(N * p**3, R * p**3, n, r, p, 5) == rhs % p**5


# ---------------------------------------------------------- self-check

def self_check() -> list[str]:
    """Compare the oracles with the paper's constants; returns the mismatches."""
    problems = []

    def expect(label, got, want):
        if got != want:
            problems.append(f"{label}: got {got}, want {want}")

    expect("w_5", wolstenholme_quotient(5), 23)
    expect("H(1;4)", harmonic_exact(4), Fraction(25, 12))
    expect("p=5 main control", claim_residues("main_p5", 5, {"n": 4, "r": 1})[1:], (751, 126))
    expect(
        "p=5 thm2 control",
        claim_residues("thm2_case1", 5, {"N": 3, "R": 1, "n": 4, "r": 1})[1:],
        (2501, 1),
    )
    expect("B_12", bernoulli(12), Fraction(-691, 2730))
    sums = lehmer_sums([16843, 16829])
    expect("Lehmer sum at 16843", sums[16843], 0)
    if sums[16829] == 0:
        problems.append("Lehmer sum vanishes at the regular prime 16829")
    for p in primes_between(5, 60):
        expect(f"Lehmer vs Akiyama-Tanigawa at p={p}", b_pm3_mod_p([p])[p], reduce(bernoulli(p - 3), p, 1))
        expect(f"w_p vs B_(p-3) at p={p}", -3 * wolstenholme_quotient(p) % p, reduce(bernoulli(p - 3), p, 1))
    found = {
        (N, R, n, r)
        for N in range(1, 7) for R in range(1, N + 1)
        for n in range(1, 7) for r in range(1, n + 1)
        if (N, n) != (R, r) and search_holds(7, N, R, n, r)
    }
    expect("nontrivial p=7 quadruples", found, set(PAPER_SEVEN))
    return problems
