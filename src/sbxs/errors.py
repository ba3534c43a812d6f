"""Exception types shared across the package."""

import operator


class DomainError(ValueError):
    """Input outside the mathematical/physical domain of an operation."""


class ChannelClosedError(DomainError):
    """Requested photon-exchange channel is kinematically closed."""

    def __init__(self, n, message=None):
        self.n = n
        super().__init__(message or f"channel n={n} is closed")


class ConvergenceError(RuntimeError):
    """An iterative evaluation failed to reach the requested accuracy."""


class OracleInconsistencyError(RuntimeError):
    """The spinor-sum and trace forms of the oracle disagree; indicates a
    convention bug, never a tolerance issue."""


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def _integer(value, what):
    """value as an int: an int, a numpy integer or an integral float; any
    other value (NaN and +-inf included) is a DomainError naming it."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None
