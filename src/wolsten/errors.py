"""Exception types shared across the library."""


class WolstenError(Exception):
    """Base class for all library-specific errors."""


class PreconditionError(WolstenError, ValueError):
    """An operation was called outside its stated domain."""


class MixedModulusError(WolstenError, ValueError):
    """Two residues with different moduli were combined arithmetically."""


class NotInvertibleError(WolstenError, ArithmeticError):
    """A residue divisible by p has no inverse modulo p^k."""


class NegativeValuationError(WolstenError, ArithmeticError):
    """A rational with v_p < 0 cannot be reduced modulo a power of p."""


class NonIntegralError(NegativeValuationError):
    """A denominator divisible by p makes the value non p-integral."""


class ZeroDenominatorError(WolstenError, ZeroDivisionError):
    """The denominator of a binomial ratio evaluates to zero."""


class BudgetExceededError(WolstenError, ValueError):
    """A configurable size or cost bound was exceeded."""
