"""The Fraction recurrences that the exact evaluators ran before their
integer routes, kept as the oracles the integer routes are tested against."""

import math
from fractions import Fraction


def mhs_prefixes(parts: tuple[int, ...], n_max: int) -> list[Fraction]:
    """[H(parts; 0), ..., H(parts; n_max)] from the prefix recurrence
    P_j(m) = P_j(m-1) + P_{j-1}(m-1) * m^(-s_j), one Fraction per step."""
    d = len(parts)
    rows = [Fraction(1)] + [Fraction(0)] * d
    values = [rows[d]]
    for m in range(1, n_max + 1):
        inv_m = Fraction(1, m)
        for j in range(min(d, m), 0, -1):
            rows[j] += rows[j - 1] * inv_m ** parts[j - 1]
        values.append(rows[d])
    return values


def bernoulli_numbers(k_max: int) -> list[Fraction]:
    """[B_0, ..., B_k_max] from the recurrence sum_{j<=m} C(m+1, j) B_j = 0."""
    values = [Fraction(1)]
    for m in range(1, k_max + 1):
        acc = sum(math.comb(m + 1, j) * values[j] for j in range(m))
        values.append(-acc / (m + 1))
    return values


def compositions(weight: int) -> list[tuple[int, ...]]:
    """Every composition of weight, one per subset of the weight-1 gaps."""
    out = []
    for mask in range(1 << (weight - 1)):
        parts, run = [], 1
        for gap in range(weight - 1):
            if mask >> gap & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        out.append((*parts, run))
    return out
