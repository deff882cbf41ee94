"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ValidationError (and subclasses) -> 1,
OSError -> 2, NumericalError -> 3.
"""

import math


class ValidationError(ValueError):
    """Input violates a documented precondition or invariant."""


class ParseError(ValidationError):
    """Malformed input text. Carries the offending source location."""

    def __init__(self, message, line_no=None, path=None):
        self.line_no = line_no
        self.path = path
        if path is None:
            where = None if line_no is None else f"line {line_no}"
        else:
            where = str(path) if line_no is None else f"{path}:{line_no}"
        super().__init__(f"{where}: {message}" if where else message)


class ContractError(ValidationError):
    """Caller broke an API contract (e.g. non-monotonic frame index)."""


class NumericalError(ArithmeticError):
    """Numerically degenerate computation (singular matrix, zero variance)."""


def require(obj, names: str, ok, what: str) -> None:
    """Raise "<name> must be <what>, got <value>" for the first of obj's fields
    (names, space-separated) failing ok, an in-range test that NaN fails."""
    for name in names.split():
        value = getattr(obj, name)
        if not ok(value):
            raise ValidationError(f"{name} must be {what}, got {value}")


def positive(v) -> bool:
    return 0 < v < math.inf
