"""Exception types shared across the package."""


class NsbfError(Exception):
    """Base class for all package-specific errors."""


class GridError(NsbfError, ValueError):
    """Invalid grid construction or out-of-domain evaluation."""


class PositivityError(NsbfError, ValueError):
    """A coefficient required to be strictly positive is not.

    Carries the first offending node index and its ordinate.
    """

    def __init__(self, name, index, y, value):
        self.name = name
        self.index = index
        self.y = y
        self.value = value
        super().__init__(
            f"{name} must be strictly positive; {name}(y={y!r}) = {value!r} "
            f"at node {index}"
        )


class NonFiniteError(NsbfError, ValueError):
    """A sampled coefficient or the transformed potential is nan or inf."""


class SeedError(NsbfError, RuntimeError):
    """Seed solution certificate failure (near-vanishing seed)."""


class RecurrenceError(NsbfError, RuntimeError):
    """Non-finite coefficient-ladder values, or a Bessel batch out of bound."""


class CacheError(NsbfError, ValueError):
    """Unreadable, mismatched, or corrupted coefficient cache."""


class OracleError(NsbfError, RuntimeError):
    """Reference-integration failure (consistency check or integrator abort)."""


class StiffnessError(OracleError):
    """Adaptive reference integrator drove the step size below resolution."""


class ExpressionError(NsbfError, ValueError):
    """Coefficient expression parse/evaluation failure, with column info."""

    def __init__(self, message, column=None):
        self.column = column
        if column is not None:
            message = f"{message} (column {column})"
        super().__init__(message)
