"""Risk measures and summary statistics over P&L vectors.

Sign conventions: entropic risk is "lower is better" (it is a certainty-
equivalent loss); CVaR is the mean P&L over the worst tail and is
"higher (less negative) is better".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, InsufficientDataError, ParameterError


def _scalar(value):
    """A 0-d reduction as a float; one value per row stays an array."""
    return float(value) if np.ndim(value) == 0 else value


def entropic_risk(pnl, a: float):
    """(1/a) * log E[exp(-a * pnl)] over the last axis, with a max shift.

    The shift makes the objective evaluable on tail-heavy batches where
    exp(-a*pnl) would overflow. A 1-D input gives a float, a 2-D input one
    value per row.
    """
    pnl = np.asarray(pnl, dtype=float)
    if pnl.size == 0:
        raise EmptyInputError("entropic_risk of an empty vector")
    if a <= 0:
        raise ParameterError("risk aversion a must be positive")
    x = -a * pnl
    m = x.max(axis=-1, keepdims=True)
    return _scalar((m[..., 0] + np.log(np.mean(np.exp(x - m), axis=-1))) / a)


def cvar(pnl, level: float):
    """Mean of the k = ceil(level * n) smallest P&L values over the last axis
    (no interpolation); a float for 1-D input, one value per row for 2-D."""
    pnl = np.asarray(pnl, dtype=float)
    if pnl.size == 0:
        raise EmptyInputError("cvar of an empty vector")
    if not 0.0 < level <= 1.0:
        raise ParameterError(f"level must lie in (0, 1], got {level}")
    n = pnl.shape[-1]
    k = math.ceil(level * n)
    if k >= n:
        return _scalar(pnl.mean(axis=-1))
    return _scalar(np.partition(pnl, k - 1, axis=-1)[..., :k].mean(axis=-1))


def summary(pnl) -> tuple[float, float]:
    """(mean, sample standard deviation with n-1 denominator)."""
    pnl = np.asarray(pnl, dtype=float)
    if pnl.size == 0:
        raise EmptyInputError("summary of an empty vector")
    if pnl.size < 2:
        raise InsufficientDataError("std requires at least 2 observations")
    return float(pnl.mean()), float(pnl.std(ddof=1))


@dataclass(frozen=True)
class RiskSpec:
    """A named risk metric with its parameters, usable as a bootstrap statistic."""

    measure: str  # "entropic" | "cvar" | "mean" | "std"
    a: float = 1.0
    level: float = 0.05

    def __post_init__(self):
        if self.measure not in ("entropic", "cvar", "mean", "std"):
            raise ParameterError(f"unknown risk measure {self.measure!r}")
        if self.measure == "entropic" and self.a <= 0:
            raise ParameterError("entropic risk requires a > 0")
        if self.measure == "cvar" and not 0.0 < self.level <= 1.0:
            raise ParameterError("cvar level must lie in (0, 1]")

    @property
    def higher_is_better(self) -> bool:
        return self.measure in ("cvar", "mean")

    def evaluate(self, pnl):
        """The metric over the last axis: a float for 1-D, one per row for 2-D."""
        if self.measure == "entropic":
            return entropic_risk(pnl, self.a)
        if self.measure == "cvar":
            return cvar(pnl, self.level)
        pnl = np.asarray(pnl, dtype=float)
        if self.measure == "mean":
            return _scalar(pnl.mean(axis=-1))
        if pnl.shape[-1] < 2:
            raise InsufficientDataError("std requires at least 2 observations")
        return _scalar(pnl.std(axis=-1, ddof=1))
