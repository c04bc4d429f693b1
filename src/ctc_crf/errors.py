"""Exception types shared across the package, and the check that every
count setting makes."""
import numbers


class DataError(Exception):
    """Invalid or inconsistent input data: bad labels, malformed files,
    mismatched symbol tables."""


class NumericalError(Exception):
    """Numerical failure: a non-finite objective, gradient or model output."""


def _check_count(what: str, value, least: int = 1) -> None:
    """Raise a DataError unless ``value`` is an integer >= ``least``: a bool
    is not one, a numpy integer is."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise DataError(f"{what} must be an integer >= {least}, not {value!r}")
