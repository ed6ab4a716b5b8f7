"""Residue arithmetic modulo prime powers and p-adic valuation of rationals.

Everything downstream (harmonic sums, Bernoulli numbers, binomial
congruence checks) is built on the three value types here: ``PrimePower``
moduli, ``Residue`` congruence classes, and plain ``fractions.Fraction``
for exact rationals.  All values are immutable and all operations are
pure, so they are safe to share between worker processes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    MixedModulusError,
    NonIntegralError,
    NotInvertibleError,
    PreconditionError,
)

# Sentinel valuation of 0: compares greater than every finite valuation.
INFINITE = math.inf

# Deterministic Miller-Rabin witness sets: the first twelve primes decide
# every n < 3.3 * 10^24, and the first four every n below 3215031751, the
# least strong pseudoprime to bases 2, 3, 5 and 7 (Jaeschke, Math. Comp.
# 61, 1993), which covers the scan kernel's range.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_SMALL_BOUND = 3215031751

Rational = Fraction | int


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with a fixed base set)."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[:4] if n < _MR_SMALL_BOUND else _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, by a segmented Eratosthenes sieve.

    Only the window [lo, hi] is sieved, by the base primes up to sqrt(hi),
    so memory is O(hi - lo + sqrt(hi)) bytes however large hi is.
    """
    lo = max(lo, 2)
    if hi < lo:
        return []
    root = math.isqrt(hi)
    base = bytearray([1]) * (root + 1)
    window = bytearray([1]) * (hi - lo + 1)
    for p in range(2, root + 1):
        if base[p]:
            base[p * p :: p] = bytes(len(range(p * p, root + 1, p)))
            first = max(p * p, -(-lo // p) * p)
            window[first - lo :: p] = bytes(len(range(first, hi + 1, p)))
    return list(itertools.compress(range(lo, hi + 1), window))


@dataclass(frozen=True)
class PrimePower:
    """A modulus p^k with p prime and k >= 1."""

    p: int
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise PreconditionError(f"exponent must be >= 1, got {self.k}")
        if not is_prime(self.p):
            raise PreconditionError(f"{self.p} is not prime")

    @property
    def modulus(self) -> int:
        return self.p**self.k

    def __str__(self) -> str:
        return f"{self.p}^{self.k}"

    @classmethod
    def parse(cls, text: str) -> "PrimePower":
        """Parse the strict "p^k" form ("7^5"); a bare prime means k=1."""
        s = text.strip()
        if "^" in s:
            base, _, exp = s.partition("^")
            if not (base.strip().isdigit() and exp.strip().isdigit()):
                raise PreconditionError(f"cannot parse modulus {text!r}")
            return cls(int(base), int(exp))
        if not s.isdigit():
            raise PreconditionError(f"cannot parse modulus {text!r}")
        return cls(int(s), 1)


@dataclass(frozen=True)
class Residue:
    """An integer in [0, p^k) together with its modulus.

    Arithmetic is only defined between residues sharing one modulus;
    anything else raises MixedModulusError rather than coercing.
    """

    value: int
    modulus: PrimePower

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value % self.modulus.modulus)

    def _check(self, other: "Residue") -> None:
        if not isinstance(other, Residue):
            raise TypeError(f"cannot combine Residue with {type(other).__name__}")
        if other.modulus != self.modulus:
            raise MixedModulusError(
                f"mixed moduli {self.modulus} and {other.modulus}"
            )

    def __add__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue(self.value + other.value, self.modulus)

    def __sub__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue(self.value - other.value, self.modulus)

    def __neg__(self) -> "Residue":
        return Residue(-self.value, self.modulus)

    def __mul__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue(self.value * other.value, self.modulus)

    def __pow__(self, e: int) -> "Residue":
        if e < 0:
            return inverse_mod(self) ** (-e)
        return Residue(pow(self.value, e, self.modulus.modulus), self.modulus)

    def __str__(self) -> str:
        return str(self.value)


def valuation(x: Rational, p: int) -> int | float:
    """p-adic valuation v_p(x); 0 maps to the INFINITE sentinel.

    For x = p^e * u with numerator and denominator of u coprime to p,
    returns e (negative when p divides the denominator).
    """
    if x == 0:
        return INFINITE
    if isinstance(x, int):
        return _int_valuation(x, p)
    return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)


def _int_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def reduce_mod(x: Rational, m: PrimePower) -> Residue:
    """The unique residue congruent to x modulo p^k.

    Raises NonIntegralError when the (reduced) denominator of x is
    divisible by p, i.e. when v_p(x) < 0.
    """
    if isinstance(x, int):
        return Residue(x, m)
    if x.denominator % m.p == 0:
        raise NonIntegralError(
            f"denominator of {x} is divisible by {m.p}; cannot reduce mod {m}"
        )
    q = m.modulus
    return Residue(x.numerator * pow(x.denominator, -1, q), m)


def inverse_mod(a: Residue) -> Residue:
    """Multiplicative inverse modulo p^k, via extended gcd."""
    try:
        return Residue(pow(a.value, -1, a.modulus.modulus), a.modulus)
    except ValueError:
        raise NotInvertibleError(
            f"{a.value} is divisible by {a.modulus.p}, not invertible mod {a.modulus}"
        ) from None


def batch_inverse(values: list[Residue]) -> list[Residue]:
    """Elementwise inverses using one extended gcd plus O(n) products.

    Equivalent to mapping inverse_mod over the list.  A non-invertible
    entry raises NotInvertibleError naming its index.
    """
    if not values:
        return []
    m = values[0].modulus
    for v in values[1:]:
        if v.modulus != m:
            raise MixedModulusError(f"mixed moduli {m} and {v.modulus}")
    raw = _batch_inverse_ints([v.value for v in values], m.modulus, m.p)
    return [Residue(r, m) for r in raw]


def _batch_inverse_ints(values: list[int], q: int, p: int) -> list[int]:
    # Montgomery's trick: prefix products, one inversion, back-substitution.
    n = len(values)
    prefix = [0] * n
    acc = 1
    for i, v in enumerate(values):
        acc = acc * v % q
        prefix[i] = acc
    if acc % p == 0:
        for i, v in enumerate(values):
            if v % p == 0:
                raise NotInvertibleError(f"value at index {i} is divisible by {p}")
    inv = pow(acc, -1, q)
    out = [0] * n
    for i in range(n - 1, 0, -1):
        out[i] = inv * prefix[i - 1] % q
        inv = inv * values[i] % q
    out[0] = inv
    return out


def padic_congruent(
    a: Rational, b: Rational, p: int, m: int
) -> tuple[bool, int | float]:
    """Whether a == b (mod p^m) in the p-adic sense, with a witness.

    Returns (v_p(a - b) >= m, v_p(a - b)).  This is the meaning of every
    congruence between rational quantities checked by this library.
    """
    if m < 1:
        raise PreconditionError(f"precision must be >= 1, got {m}")
    d = Fraction(a) - Fraction(b)
    v = valuation(d, p)
    return v >= m, v


def format_rational(x: Rational) -> str:
    """Canonical "numerator/denominator" form in lowest terms."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(text: str) -> Fraction:
    """Inverse of format_rational; also accepts a bare integer."""
    return Fraction(text.strip())
