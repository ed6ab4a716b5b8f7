"""Exact verification of Wolstenholme-type binomial congruences.

A computational number theory library: residue arithmetic modulo prime
powers, multiple harmonic sums, Bernoulli numbers, Kazandzidis/Bailey
binomial congruences and their mod-p^5 refinement through the
Wolstenholme quotient, an irregular-pair (p, p-3) scanner, and a
nontrivial-congruence search tool.

The public names below load their module on first use (PEP 562), so
``import wolsten`` loads no submodule and a CLI command compiles only
the modules it runs.  A new public name goes in ``_EXPORTS``.
"""

import sys

__version__ = "0.1.0"

_EXPORTS = {
    "bernoulli": (
        "IrregularRecord", "bernoulli_exact", "check_cor_ijk", "check_ji_zhoucai", "irregular_scan",
        "wolstenholme_quotient",
    ),
    "binomial": ("binom", "binom_mod", "kummer_valuation_check", "ratio", "rising_binom"),
    "errors": (
        "BudgetExceededError", "NonIntegralError", "NotInvertibleError", "PreconditionError",
        "WolstenError", "ZeroDenominatorError",
    ),
    "harmonic": (
        "Composition", "check_prop_ijk", "check_wolstenholme", "composition_sum",
        "composition_sum_bruteforce", "composition_sum_exact",
        "fp_polynomial_coeffs", "genwols_check", "h12_checks", "mhs_exact", "mhs_mod",
        "shuffle_check", "stirling1", "stirling_mhs_check",
    ),
    "padic": (
        "INFINITE", "PrimePower", "Residue", "batch_inverse", "inverse_mod", "is_prime",
        "padic_congruent", "primes_in_range", "reduce_mod", "valuation",
    ),
    "report": ("CongruenceReport",),
    "checks_binomial": (
        "check_bailey4", "check_bailey5", "check_kazandzidis", "check_main", "check_main_exp",
        "check_thm2_case1", "check_thm2_case2", "thm2_c_value",
    ),
    "suite": ("QuadrupleHit", "find_exact_quadruples", "grid_reports", "run_check"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def _import(name: str):
    """The module name, imported by an import statement's route, so that
    ``python -X importtime`` lists it (importlib.import_module bypasses it)."""
    __import__(name)
    return sys.modules[name]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
