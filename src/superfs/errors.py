"""Exception types and the work budget shared across the package."""

from __future__ import annotations

import os

__all__ = ["ValidationError", "BudgetExceededError", "DecompositionError", "SnapError",
           "DEFAULT_BUDGET", "check_budget"]

DEFAULT_BUDGET = 100_000_000


def check_budget(required: int, what: str) -> None:
    """Raise BudgetExceededError("<what>, budget is <limit>") when `required`
    exceeds the work budget, SUPERFS_BUDGET if set, else DEFAULT_BUDGET; call
    it before the work is allocated."""
    env = os.environ.get("SUPERFS_BUDGET")
    limit = float(env) if env else float(DEFAULT_BUDGET)
    if required > limit:
        raise BudgetExceededError(f"{what}, budget is {int(limit)}", required=required)


class ValidationError(ValueError):
    """Raised when an input object violates a structural contract."""


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would exceed the configured work budget."""

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class DecompositionError(RuntimeError):
    """Raised when the numerical decomposition cannot certify a result."""


class SnapError(RuntimeError):
    """Raised when a computed value is not near any admissible exact value."""
