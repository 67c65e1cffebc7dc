"""Exception types shared across the library."""


class HedgeblendError(Exception):
    """Base class for all library errors."""


class ParameterError(HedgeblendError, ValueError):
    """An argument is outside its valid domain."""


class DimensionError(HedgeblendError, ValueError):
    """Array shapes are inconsistent with each other or with the grid."""


class EmptyInputError(HedgeblendError, ValueError):
    """An operation received no data."""


class InsufficientDataError(HedgeblendError, ValueError):
    """Too few observations for the requested statistic."""


class BoundaryError(HedgeblendError, ValueError):
    """A quantity was requested at a point where it is undefined (e.g. gamma at expiry)."""


class UndefinedCorrelationError(HedgeblendError, ValueError):
    """Correlation requested against a constant input."""


class NumericalDivergenceError(HedgeblendError, RuntimeError):
    """A numerical procedure produced non-finite values."""


class StageError(HedgeblendError, RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}' failed: {message}")
        self.stage = stage
