"""Error taxonomy shared by all modules.

Usage errors (bad values, out-of-table lookups, malformed specs) derive from
ValueError; resource errors (tables or budgets that would be exceeded) and
integrity errors (a table that breaks its own invariants) derive from
RuntimeError.  The CLI maps usage errors to exit code 2, CapacityError to
exit code 3 and TableIntegrityError to exit code 4.
"""


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


class TableIntegrityError(RuntimeError):
    """A table contradicts an invariant it must satisfy (e.g. a corrupted spf
    entry makes some gathered phi(n) fall outside [1, n])."""
