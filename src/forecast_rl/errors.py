"""Exception types shared across the package."""

from __future__ import annotations


class ValidationError(ValueError):
    """An input violates a documented invariant (bad config, bad record,
    chronology breach).  CLI maps this to exit code 2."""


class DataFormatError(ValidationError):
    """A file failed to parse.  Carries the offending line number and the
    file when known."""

    def __init__(self, message: str, line: int | None = None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line

