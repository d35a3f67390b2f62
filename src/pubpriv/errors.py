"""Exception hierarchy shared by all pubpriv modules, and the one integer check."""

import numpy as np


class PubPrivError(Exception):
    """Base class for all library-specific errors."""


class ValidationError(PubPrivError, ValueError):
    """An object violates its structural invariants (hermiticity, trace, stochasticity...)."""


class DimensionError(PubPrivError, ValueError):
    """Arguments have inconsistent or unsupported dimensions."""


class CapacityError(PubPrivError):
    """A composite dimension would exceed the configured dense-matrix ceiling."""


class BudgetError(PubPrivError):
    """An exact computation exceeds its enumeration budget (decoder, security mode)."""


class ConfigurationError(PubPrivError, ValueError):
    """A configuration is unusable as given (e.g. typicality acceptance too small)."""


class RuleError(PubPrivError):
    """Base class for resource-calculus rewriting errors."""


class RuleInapplicableError(RuleError):
    """A rule's consumed resources are not available; names the deficit term."""


class RelativityError(RuleError):
    """A relative (uniform-input-only) public channel was used without a uniformizing step."""


def check_integers(**values) -> None:
    """A ``ValidationError`` naming the first value that is not an int or a numpy integer; bool is not one."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
