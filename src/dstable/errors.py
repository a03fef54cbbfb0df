"""Exception types shared across the package."""

__all__ = ["DomainError", "PrecisionError", "InversionError"]


class DomainError(ValueError):
    """An argument is outside the documented domain of an operation."""


class PrecisionError(ArithmeticError):
    """A result could not be produced within the documented accuracy."""


class InversionError(ValueError):
    """Fourier inversion received or produced something that is not a PMF."""
