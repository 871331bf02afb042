"""Shared exception types.

Every failure mode the library reports deliberately gets its own class so
callers (and the CLI exit-code mapping) can distinguish bad arguments from
exhausted budgets without parsing messages.
"""


class DomainError(ValueError):
    """A point lies outside the declared domain of a space or distribution."""


class ZeroMassError(ValueError):
    """A conditional average was requested over a region of zero mass."""


class InfeasibleParametersError(ValueError):
    """Bound parameters violate a feasibility constraint (e.g. k too small
    for the requested confidence level)."""


class UnsupportedMethodError(ValueError):
    """A config names a distribution family, experiment type or k-rule kind that does not exist."""


class ResourceLimitError(RuntimeError):
    """An exact computation would pass its term budget (the exact oracle's sum)."""
