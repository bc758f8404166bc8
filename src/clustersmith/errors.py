"""The two domain errors, and the one rule for numbers, shared by all modules.

A ParseError is text that cannot be read, at a line and column; a
ValidationError is input that breaks a rule.  Both derive from ClusterError,
which the CLI maps to exit code 2; I/O errors stay OSError (exit code 1).
"""

import math


class ClusterError(Exception):
    """Base class for all domain/validation errors."""


class ParseError(ClusterError):
    """Malformed input text; carries line/column of the offending token."""

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


class ValidationError(ClusterError):
    """Well-formed input that breaks a rule; `at`, if given, is the
    (declaration, field) at fault."""

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

