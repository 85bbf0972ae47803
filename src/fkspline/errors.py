"""Exception types shared across the package, and its integral-count and real-value checks.

Input-validation errors subclass ValueError so callers that only know the
stdlib can still catch them; numerical and data failures get their own
branches because the command line maps them to distinct exit codes.
"""

import math
import numbers
import reprlib

import numpy as np

# the exception classes; the as_* checks are the package's own helpers
__all__ = [
    "FkSplineError", "ConfigError", "OrderTooSmallError", "NonIncreasingKnotsError",
    "KnotOutOfDomainError", "PointOutOfDomainError", "DerivativeOrderTooHighError",
    "CoefficientLengthMismatchError", "EmptyIntervalError", "NonFiniteInputError",
    "LengthMismatchError", "UnknownGroupError", "TooFewCurvesError",
    "DataError", "ParseError", "DuplicateCellError", "EmptyTableError", "ZeroVarianceError",
    "NumericalError", "NotPositiveDefiniteError", "AllCandidatesSingularError",
    "AllCellsFailedError",
]


class FkSplineError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(FkSplineError, ValueError):
    """Inconsistent or out-of-range configuration."""


def as_instance(value, kind: type, name: str):
    """value when it is a kind, else ConfigError, before any attribute is read."""
    if not isinstance(value, kind):
        raise ConfigError(f"{name} must be a {kind.__name__}, got {value!r}")
    return value


def as_integer(value, least: int, name: str, error: type = ConfigError) -> int:
    """value as an int when it is an integer >= least (4.0 is, 2.5 is not),
    else raise error, the caller's typed class for an out-of-range value."""
    try:
        integral = int(value) == value
    except (TypeError, ValueError, OverflowError):  # None, a string, nan, inf
        integral = False
    if not integral or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def as_real(value, name: str, least: float = -math.inf, most: float = math.inf,
            error: type = ConfigError) -> float:
    """value as a float when it is a finite real number in [least, most]
    (2, 1e-5 and numpy floats are; None, "0.1", nan and inf are not), else
    raise error, the caller's typed class for an out-of-range value."""
    try:
        # float and int first: they are the common case, and the ABC check is slow
        real = float(value) if isinstance(value, (float, int, numbers.Real)) else math.nan
    except OverflowError:  # an int past the float range
        real = math.inf
    if not (math.isfinite(real) and least <= real <= most):
        bounds = "" if (least, most) == (-math.inf, math.inf) else f" in [{least}, {most}]"
        raise error(f"{name} must be a finite number{bounds}, got {value!r}")
    return real


def as_reals(value, name: str, error: type = ConfigError) -> np.ndarray:
    """value as a float array of its own shape when it holds real numbers
    (an array, a number, or sequences nested to equal lengths), else raise
    error, the caller's typed class: text, complex numbers, ragged nesting
    and objects that are no number are refused, as as_real refuses them.
    Entries are not checked for finiteness."""
    try:
        array = np.asarray(value)
        if array.dtype.kind in "biufO":
            return array.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"{name} must be an array of real numbers, got {reprlib.repr(value)}")


# ---------------------------------------------------------------------------
# basis / evaluation


class OrderTooSmallError(ConfigError):
    """Spline order below 1."""


class NonIncreasingKnotsError(ConfigError):
    """Interior knots not strictly increasing (or touching the boundary)."""


class KnotOutOfDomainError(ConfigError):
    """Interior knot outside the open domain interval."""


class PointOutOfDomainError(ConfigError):
    """Evaluation point outside the closed domain interval."""


class DerivativeOrderTooHighError(ConfigError):
    """Requested derivative order >= spline order."""


class CoefficientLengthMismatchError(ConfigError):
    """Coefficient vector length differs from the basis dimension."""


class EmptyIntervalError(ConfigError):
    """Integration or tail interval with nonpositive length."""


class NonFiniteInputError(ConfigError):
    """NaN or infinity in numeric input."""


class LengthMismatchError(ConfigError):
    """Paired sequences of different lengths."""


class UnknownGroupError(ConfigError):
    """Scenario group id outside the catalogue."""


class TooFewCurvesError(ConfigError):
    """Fewer curves than requested clusters."""


# ---------------------------------------------------------------------------
# data / ingest


class DataError(FkSplineError):
    """Base class for problems with input data files."""


class ParseError(DataError):
    """Malformed CSV cell; carries 1-based row and column indices."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class DuplicateCellError(DataError):
    """Same time or series name (wide layout) or (series, time) pair (long layout) twice."""


class EmptyTableError(DataError):
    """No usable series or no time points after parsing."""


class ZeroVarianceError(DataError):
    """Series with zero sample standard deviation cannot be standardized."""


# ---------------------------------------------------------------------------
# numerics


class NumericalError(FkSplineError):
    """Base class for numerical failures."""


class NotPositiveDefiniteError(NumericalError):
    """System matrix is refused: a non-finite entry, a nonpositive smallest
    eigenvalue, or a condition number past 1e10."""


class AllCandidatesSingularError(NumericalError):
    """Every candidate knot in a search round failed to produce a fit."""


class AllCellsFailedError(NumericalError):
    """Every cell of a regularization grid failed to produce a score."""
