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


class NumericAbort(RuntimeError):
    """Training hit non-finite numbers.  Carries the last good parameter
    snapshot so callers can checkpoint it.  CLI maps this to exit code 4."""

    def __init__(self, message: str, params=None, baseline=None, run_log=None):
        super().__init__(message)
        self.params = params
        self.baseline = baseline
        self.run_log = run_log
