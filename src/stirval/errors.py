"""Exception types shared across the package."""

__all__ = ["StirvalError", "DomainError", "UsageError", "RowTooLargeError", "InvariantError"]


class StirvalError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(StirvalError, ValueError):
    """An argument lies outside the domain an operation is defined on.

    The message names the violated constraint.
    """


class UsageError(StirvalError, ValueError):
    """A request is malformed (unknown suite name, bad flag combination)."""


class RowTooLargeError(StirvalError):
    """A row (or Bernoulli prefix) was requested beyond the configured cap."""


class InvariantError(StirvalError):
    """Two computations that must agree did not (an internal check failed).

    Raised explicitly rather than asserted, so the check survives ``python -O``.
    """
