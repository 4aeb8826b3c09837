"""Shared exception and warning types."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class AccuracyWarning(RuntimeWarning):
    """A value was computed near a singular point; accuracy may be reduced."""


class QuadratureWarning(RuntimeWarning):
    """An adaptive quadrature stopped at its subdivision budget before
    reaching the requested tolerance."""
