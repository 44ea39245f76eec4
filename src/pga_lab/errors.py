"""Exception hierarchy for pga_lab.

Validation errors subclass ValueError so callers can catch either the
library-specific type or the builtin.
"""


class PgaLabError(Exception):
    """Base class for all pga_lab errors."""


class ValueNotAboveBaseFee(PgaLabError, ValueError):
    """The opportunity value does not exceed the base fee (V <= g)."""


class NonPositiveFee(PgaLabError, ValueError):
    """The base fee is not strictly positive."""


class RateOutOfRange(PgaLabError, ValueError):
    """A revert penalty rate lies outside [0, 1], or a tax rate is negative."""


class TooFewAgents(PgaLabError, ValueError):
    """Fewer than two agents."""


class TooManyAgents(PgaLabError, ValueError):
    """More agents than the closed forms are checked for (model.MAX_AGENTS)."""


class IndexOutOfRange(PgaLabError, IndexError):
    """Agent index outside the profile."""


class OutOfSupport(PgaLabError, ValueError):
    """A bid or probability outside the domain of the distribution."""


class ArgumentOutOfRange(PgaLabError, ValueError):
    """A count, step, seed or bound argument outside its domain."""


class DegenerateNoRevertCost(PgaLabError):
    """r1 g = r2 = 0 with zero entry cost: the mixed closed form is undefined.

    Use pure_equilibrium for this regime.
    """


class CostOutOfRange(PgaLabError, ValueError):
    """Entry cost negative, not finite, or at or above the breakeven bid."""


class CostTooLarge(CostOutOfRange):
    """Entry cost at or above the breakeven bid V - g."""


class NotApplicable(PgaLabError):
    """Operation requested in a regime where it does not apply."""


class ConfigInvalid(PgaLabError, ValueError):
    """Market simulation configuration fails validation."""


class NumericsError(PgaLabError, ArithmeticError):
    """A closed-form evaluation left its tolerance envelope.

    Signals a formula or conditioning bug, not ordinary float noise: tiny
    residues inside the documented clamp windows are absorbed silently.
    """
