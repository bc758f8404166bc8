"""Exceptions, and the one rule for numbers, shared by all modules.

Every domain error derives from ClusterError so the CLI can map any
of them to exit code 2; I/O errors stay OSError (exit code 1).
"""

import math


class ClusterError(Exception):
    """Base class for all domain/validation errors."""


class ParseError(ClusterError):
    """Malformed input text; carries line/column of the offending token."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"line {line}, col {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(ClusterError):
    """Structurally well-formed input violating a graph invariant; `at` is
    the (declaration, field) that broke a rule spanning declarations."""

    def __init__(self, message, at=None):
        super().__init__(message)
        self.at = at


def check_number(what: str, value, positive: bool = False) -> None:
    """Raise `<what> must be finite and >= 0, got <value>` (`> 0` if
    `positive`) unless it holds; an int too large for a float is not finite."""
    try:
        if math.isfinite(value) and (value > 0 if positive else value >= 0):
            return
        got = repr(value)
    except OverflowError:
        got = "an integer too large for a float"
    raise ValidationError(f"{what} must be finite and "
                          f"{'> 0' if positive else '>= 0'}, got {got}")


class UnknownNode(ClusterError):
    pass


class Unreachable(ClusterError):
    pass


class InvalidLaneFraction(ClusterError):
    pass


class InvalidTransformTarget(ClusterError):
    pass


class TransformConflict(ClusterError):
    pass


class MissingServerNode(ClusterError):
    pass


class TooFewParticipants(ClusterError):
    pass


class NonSymmetricInput(ClusterError):
    pass


class DimensionMismatch(ClusterError):
    pass


class EmptyDataset(ClusterError):
    pass


class NeverBreaksEven(ClusterError):
    pass
