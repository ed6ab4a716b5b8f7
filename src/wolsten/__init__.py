"""Exact verification of Wolstenholme-type binomial congruences.

A computational number theory library: residue arithmetic modulo prime
powers, multiple harmonic sums, Bernoulli numbers, Kazandzidis/Bailey
binomial congruences and their mod-p^5 refinement through the
Wolstenholme quotient, an irregular-pair (p, p-3) scanner, and a
nontrivial-congruence search tool.
"""

from .bernoulli import (
    IrregularRecord,
    bernoulli_exact,
    irregular_scan,
    wolstenholme_quotient,
)
from .binomial import (
    binom,
    binom_mod,
    kummer_valuation_check,
    ratio,
    rising_binom,
)
from .errors import (
    BudgetExceededError,
    NonIntegralError,
    NotInvertibleError,
    PreconditionError,
    WolstenError,
    ZeroDenominatorError,
)
from .harmonic import (
    Composition,
    composition_sum,
    composition_sum_bruteforce,
    composition_sum_exact,
    fp_polynomial_coeffs,
    genwols_check,
    h12_checks,
    mhs_exact,
    mhs_mod,
    shuffle_check,
    stirling1,
    stirling_mhs_check,
)
from .padic import (
    INFINITE,
    PrimePower,
    Residue,
    batch_inverse,
    inverse_mod,
    is_prime,
    padic_congruent,
    primes_in_range,
    reduce_mod,
    valuation,
)
from .report import CongruenceReport
from .suite import (
    QuadrupleHit,
    check_bailey4,
    check_bailey5,
    check_cor_ijk,
    check_ji_zhoucai,
    check_kazandzidis,
    check_main,
    check_main_exp,
    check_prop_ijk,
    check_thm2_case1,
    check_thm2_case2,
    check_wolstenholme,
    find_exact_quadruples,
    grid_reports,
    run_check,
    thm2_c_value,
)

__version__ = "0.1.0"
