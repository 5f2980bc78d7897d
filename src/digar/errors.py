"""Exception types shared across the package."""

__all__ = ["DigarError", "OutOfRangeError", "NonFiniteError", "DegenerateDenominatorError"]


class DigarError(Exception):
    """Base class for all domain errors raised by this package."""


class OutOfRangeError(DigarError):
    """A parameter, argument or horizon violates its admissible range."""


class NonFiniteError(DigarError):
    """A numeric input is NaN or infinite."""


class DegenerateDenominatorError(DigarError):
    """A ratio estimator hit a zero denominator."""
