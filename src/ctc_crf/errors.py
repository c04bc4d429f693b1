"""Exception types shared across the package."""


class DataError(Exception):
    """Invalid or inconsistent input data: bad labels, malformed files,
    mismatched symbol tables."""


class ArpaError(DataError):
    """Malformed ARPA file; carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NumericalError(Exception):
    """Numerical failure: a non-finite objective, gradient or model output."""
