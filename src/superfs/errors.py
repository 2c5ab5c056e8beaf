"""Exception types and the work budget shared across the package."""

from __future__ import annotations

import math
import os

__all__ = ["ValidationError", "BudgetExceededError", "DecompositionError", "SnapError",
           "DEFAULT_BUDGET", "check_budget"]

DEFAULT_BUDGET = 100_000_000


def check_budget(required: int, what: str) -> None:
    """Raise BudgetExceededError("<what>, budget is <limit>") when `required`
    exceeds the work budget, SUPERFS_BUDGET if set and not empty, else
    DEFAULT_BUDGET; call it before the work is allocated. A SUPERFS_BUDGET
    that is not a finite positive number raises ValidationError. A whole
    budget is shown as an integer, any other as its float value."""
    env = os.environ.get("SUPERFS_BUDGET")
    limit = float(DEFAULT_BUDGET)
    if env:
        try:
            limit = float(env)
        except ValueError:
            limit = math.nan
        if not 0 < limit < math.inf:
            raise ValidationError(f"SUPERFS_BUDGET must be a finite positive number, "
                                  f"got {env!r}")
    if required > limit:
        shown = int(limit) if limit.is_integer() else limit
        raise BudgetExceededError(f"{what}, budget is {shown}", required=required)


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
