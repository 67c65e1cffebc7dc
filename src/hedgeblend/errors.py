"""Exception types shared across the library, and its integer and real-number checks."""

import math
import numbers


class HedgeblendError(Exception):
    """Base class for all library errors."""


class ParameterError(HedgeblendError, ValueError):
    """An argument is invalid: outside its domain, or of the wrong type or shape."""


def require_integer(name: str, value) -> None:
    """ParameterError unless ``value`` is an integer: not a bool, nor a float like 100.0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")


def require_real(name: str, value) -> None:
    """ParameterError unless ``value`` is a finite real number: not a bool, a string or NaN."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ParameterError(f"{name} must be a finite real number, got {value!r}")


class NumericalDivergenceError(HedgeblendError, RuntimeError):
    """A numerical procedure produced non-finite values."""


class StageError(HedgeblendError, RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}' failed: {message}")
        self.stage = stage
