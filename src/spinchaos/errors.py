"""Error taxonomy shared across the package.

Each class maps to a CLI exit code so batch callers can distinguish
bad inputs from blown capacity limits from numerical breakdown.
"""

import operator


class SpinchaosError(Exception):
    """Base class for package errors."""

    exit_code = 1


class ValidationError(SpinchaosError):
    """Malformed or out-of-contract input (configs, graphs, indices)."""

    exit_code = 2


class CapacityError(SpinchaosError):
    """Request exceeds a documented size cap (enumeration, grids, N)."""

    exit_code = 3


class NumericalError(SpinchaosError):
    """Numerical breakdown at runtime (overflow, degenerate statistics)."""

    exit_code = 4


def _integer(x, what: str) -> int:
    """x as an int: numpy ints pass, floats are refused, not truncated."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {x!r}") from None
