"""Exception types shared across the library."""

from __future__ import annotations


class InvalidInputError(ValueError):
    """Input violates a documented precondition (bad degree, shape, range)."""


class UnsupportedSizeError(InvalidInputError):
    """Matrix or polynomial size beyond the supported conditioning guard."""


class ConvergenceError(RuntimeError):
    """A root or critical-point solve failed its acceptance gate.

    Carries the best iterates, the worst gated quantity (scaled residual or
    backward error) and the indices of the batch rows that failed, so
    callers can keep the rows that passed.
    """

    def __init__(self, message, best=None, residual=None, rows=None):
        super().__init__(message)
        self.best = best
        self.residual = residual
        self.rows = rows


class NumericConsistencyError(ArithmeticError):
    """A quantity that is mathematically real/zero failed its residual check."""


class RejectedStartError(ValueError):
    """Search objective is undefined at the requested start configuration."""
