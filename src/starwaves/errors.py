"""Exception types shared across the package."""

from __future__ import annotations


class StarwavesError(Exception):
    """Base class for all package errors."""


class ExprSyntaxError(StarwavesError):
    """Raised when an expression string cannot be parsed.

    Carries ``offset``, the character position where parsing failed.
    """

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExprDomainError(StarwavesError):
    """Raised when evaluating an expression outside its domain."""


class GraphConfigError(StarwavesError):
    """Raised for an inconsistent graph or problem description."""


class CompatibilityError(GraphConfigError):
    """Raised when initial and boundary data fail a required matching condition."""


class StabilityError(StarwavesError):
    """Raised when a requested time step violates the explicit-scheme stability bound."""


class NonFiniteError(StarwavesError):
    """Raised when a series term, or a measured error or remainder, is nan or infinite."""
