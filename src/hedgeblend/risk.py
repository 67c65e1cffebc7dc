"""Risk measures and summary statistics over P&L vectors.

Sign conventions: entropic risk is "lower is better" (it is a certainty-
equivalent loss); CVaR is the mean P&L over the worst tail and is
"higher (less negative) is better".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, require_real


def _scalar(value):
    """A 0-d reduction as a float; one value per row stays an array."""
    return float(value) if np.ndim(value) == 0 else value


def entropic_risk(pnl, a: float, grad=None):
    """(1/a) * log E[exp(-a * pnl)] over the last axis, with a max shift.

    The shift makes the objective evaluable on tail-heavy batches where
    exp(-a*pnl) would overflow. A 1-D input gives a float, a 2-D input one
    value per row. ``grad``, for a 1-D input only, receives d risk / d pnl:
    minus the softmax weights of -a pnl, grouped as training's pinned
    gradients (``tests/test_hedger.py``) were recorded.
    """
    pnl = np.asarray(pnl, dtype=float)
    if pnl.size == 0:
        raise ParameterError("entropic_risk of an empty vector")
    require_real("a", a, above=0)
    n = pnl.shape[-1]
    x = pnl * (-a)
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    mean = e.sum(axis=-1) * (1.0 / n)
    if grad is not None:
        np.multiply(e, (1.0 / a) / mean * (1.0 / n), out=grad)
        grad *= -a
    return _scalar((np.log(mean) + m[..., 0]) * (1.0 / a))


def cvar(pnl, level: float, grad=None):
    """Mean of the k = ceil(level * n) smallest P&L values over the last axis
    (no interpolation); a float for 1-D input, one value per row for 2-D.

    ``grad``, for a 1-D input only, receives d cvar / d pnl with tail
    membership frozen at the current values: 1/k on the k worst paths (every
    path when k = n) and 0 elsewhere, the empirical expected-shortfall
    subgradient.
    """
    pnl = np.asarray(pnl, dtype=float)
    if pnl.size == 0:
        raise ParameterError("cvar of an empty vector")
    require_real("level", level, above=0, at_most=1)
    n = pnl.shape[-1]
    k = math.ceil(level * n)
    if grad is not None:
        grad.fill(0.0)
        grad[np.argpartition(pnl, k - 1)[:k] if k < n else slice(None)] = 1.0 / k
    if k >= n:
        return _scalar(pnl.mean(axis=-1))
    return _scalar(np.partition(pnl, k - 1, axis=-1)[..., :k].mean(axis=-1))


def summary(pnl) -> tuple[float, float]:
    """(mean, sample standard deviation with n-1 denominator)."""
    pnl = np.asarray(pnl, dtype=float)
    if pnl.size == 0:
        raise ParameterError("summary of an empty vector")
    if pnl.size < 2:
        raise ParameterError("std requires at least 2 observations")
    return float(pnl.mean()), float(pnl.std(ddof=1))


@dataclass(frozen=True)
class RiskSpec:
    """A named risk metric with its parameters: a bootstrap statistic and, for
    entropic risk and CVaR, a blend-fit objective (:meth:`loss`)."""

    kind: str  # "entropic" | "cvar" | "mean"
    a: float = 1.0
    level: float = 0.05

    def __post_init__(self):
        if self.kind not in ("entropic", "cvar", "mean"):
            raise ParameterError(f"unknown risk measure {self.kind!r}")
        self.evaluate(np.zeros(1))  # validates a or level

    @property
    def higher_is_better(self) -> bool:
        return self.kind in ("cvar", "mean")

    def loss(self, pnl, grad) -> float:
        """The value to minimise over a 1-D P&L; writes its gradient into
        ``grad``: entropic risk, or minus CVaR with -1/k on the tail."""
        if self.kind == "entropic":
            return entropic_risk(pnl, self.a, grad)
        if self.kind != "cvar":
            raise ParameterError(f"{self.kind!r} is not an objective")
        value = -cvar(pnl, self.level, grad)
        np.negative(grad, out=grad)
        return value

    def evaluate(self, pnl):
        """The metric over the last axis: a float for 1-D, one per row for 2-D."""
        if self.kind == "entropic":
            return entropic_risk(pnl, self.a)
        if self.kind == "cvar":
            return cvar(pnl, self.level)
        return _scalar(np.asarray(pnl, dtype=float).mean(axis=-1))
