"""Exception types shared across the library, and its integer and real-number checks.

Each check refuses the type and the range of one scalar argument in one call,
with the message ``<name> must ..., got <value>``: a count below its minimum
or a real outside its interval is refused by the same code as a bool, a
string, a float count or NaN. Seeds are checked in :mod:`hedgeblend.rng`.
"""

import math
import numbers


class HedgeblendError(Exception):
    """Base class for all library errors."""


class ParameterError(HedgeblendError, ValueError):
    """An argument is invalid: outside its domain, or of the wrong type or shape."""


def require_integer(name: str, value, minimum=None) -> None:
    """ParameterError unless ``value`` is an integer, not a bool nor a float
    like 100.0, and at least ``minimum`` when that is given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value!r}")


def require_real(name: str, value, *, above=None, at_least=None, below=None, at_most=None) -> None:
    """ParameterError unless ``value`` is a finite real number, not a bool, a
    string or NaN, inside the interval the given bounds set: ``above < value``,
    ``at_least <= value``, ``value < below``, ``value <= at_most``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ParameterError(f"{name} must be a finite real number, got {value!r}")
    if ((above is not None and value <= above) or (at_least is not None and value < at_least)
            or (below is not None and value >= below) or (at_most is not None and value > at_most)):
        low = f"[{at_least}" if at_least is not None else f"({'-inf' if above is None else above}"
        high = f"{at_most}]" if at_most is not None else f"{'inf' if below is None else below})"
        raise ParameterError(f"{name} must lie in {low}, {high}, got {value!r}")


class NumericalDivergenceError(HedgeblendError, RuntimeError):
    """A numerical procedure produced non-finite values."""


class StageError(HedgeblendError, RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}' failed: {message}")
        self.stage = stage
