"""Shared exception types."""

from __future__ import annotations


class GuardExceeded(RuntimeError):
    """An input exceeds a size guard: the DP's state budget, the
    enumerator's edge count, a term count, a sweep size, a result's digits."""


class EdgeListParseError(ValueError):
    """Malformed edge-list input; carries the offending 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class NotATreeError(ValueError):
    """A tree-only operation was applied to a non-tree graph."""


class ExactnessError(ArithmeticError):
    """A division that a theorem makes exact left a remainder."""
