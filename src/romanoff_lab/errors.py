"""Error taxonomy shared by all modules.

Usage errors (bad values, out-of-table lookups, malformed specs) derive from
ValueError; resource errors (tables or budgets that would be exceeded) and
integrity errors (a table that breaks its own invariants) derive from
RuntimeError.  A RuntimeError class carries its CLI exit code as
``exit_code``: 3 for CapacityError, 4 for TableIntegrityError; a usage error
(or an OSError on a path) exits 2.
"""

from contextlib import contextmanager


class ParameterError(ValueError):
    """A parameter violates a documented precondition."""


class RangeError(ValueError):
    """An input lies outside the range covered by a sieve or prime table."""


class DomainError(ValueError):
    """An input is outside the mathematical domain of the operation."""


class ConstructionError(ValueError):
    """A requested construction is impossible (e.g. no prime in the window)."""


class CapacityError(RuntimeError):
    """A memory cap, operation budget, or overflow guard would be exceeded."""

    exit_code = 3


class TableIntegrityError(RuntimeError):
    """A table contradicts an invariant it must satisfy (e.g. a corrupted spf
    entry makes some gathered phi(n) fall outside [1, n])."""

    exit_code = 4


def check_finite(name: str, value: float) -> None:
    """ParameterError for nan or +-inf; unlike math.isfinite, takes ints of any size."""
    if not -float("inf") < value < float("inf"):
        raise ParameterError(f"{name}={value} is not a finite number")


def check_at_least(name: str, value: float, low: int) -> None:
    """ParameterError for value < low; a nan passes, to meet check_finite's message."""
    if value < low:
        raise ParameterError(f"{name}={value} must be >= {low}")


@contextmanager
def float64_range(s: int):
    """An OverflowError inside, from a float64 value that the power s takes
    out of range, becomes a CapacityError naming s."""
    try:
        yield
    except OverflowError:
        raise CapacityError(f"s={s} takes the report beyond the float64 range") from None
