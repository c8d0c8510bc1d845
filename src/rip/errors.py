"""Exception hierarchy shared across the package.

Everything raised deliberately derives from :class:`RipError`, so callers
(and the command line driver) can distinguish expected failure modes from
genuine bugs.
"""

from __future__ import annotations


class RipError(Exception):
    """Base class for all errors raised by this package."""


class CapacityError(RipError):
    """A requested computation exceeds a hard resource cap.

    Raised before memory is committed (path space enumeration) or when the
    simplex iteration or coefficient-size guard trips in exact mode.
    """


class PreconditionError(RipError):
    """An operation was called outside its documented domain."""


class EvaluationError(RipError):
    """A payoff expression could not be evaluated on a path."""


class PayoffSyntaxError(RipError):
    """A payoff expression failed to parse.

    Carries the 1-based ``line`` and ``column`` of the offending token and
    the token text itself (empty string at end of input).
    """

    def __init__(self, message: str, line: int, column: int, token: str = ""):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column
        self.token = token


class UndefinedHoldingError(RipError):
    """A trading strategy was asked for a holding it never defined."""


class InvalidModelError(RipError):
    """A model file failed validation.

    Collects every diagnostic found during a parse rather than stopping at
    the first, so ``errors`` is a non-empty list of messages.
    """

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


class InternalCheckError(RipError):
    """A self-check failed: a solver certificate or audit did not verify.

    This indicates a bug in the package, not bad user input.
    """


__all__ = [
    "RipError",
    "CapacityError",
    "PreconditionError",
    "EvaluationError",
    "PayoffSyntaxError",
    "UndefinedHoldingError",
    "InvalidModelError",
    "InternalCheckError",
]
