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


def _objective_and_grad(pnl: np.ndarray, kind: str, g_pnl: np.ndarray, *,
                        a: float = 1.0, level: float = 0.05) -> float:
    """The loss to minimise over a P&L vector; writes d loss / d pnl into ``g_pnl``.

    ``kind`` "entropic": :func:`entropic_risk`, shifted by its max, whose
    gradient is minus the softmax weights of -a pnl. "cvar": minus
    :func:`cvar`, the mean of the k = ceil(level n) worst paths; tail
    membership is frozen at the current values, so the gradient is -1/k on
    the tail and 0 elsewhere (the empirical expected-shortfall subgradient).
    Both gradients are <= 0. Training maps the gradient through
    ``accounting.HedgePnL.vjp`` into the LSTM's backward
    (``autodiff.backward``); the blend fit through its own P&L. Products are
    grouped as a reverse sweep of the expression groups them, the order in
    which the training gradients that ``tests/test_hedger.py`` pins were
    recorded, so those bits hold.
    """
    n = pnl.size
    if kind == "entropic":
        x = pnl * (-a)
        m = float(x.max())
        e = np.exp(x - m)
        mean = e.sum() * (1.0 / n)
        np.multiply(e, (1.0 / a) / mean * (1.0 / n), out=g_pnl)
        g_pnl *= -a
        return float((np.log(mean) + m) * (1.0 / a))
    k = math.ceil(level * n)
    tail = np.argpartition(pnl, k - 1)[:k] if k < n else slice(None)
    g_pnl.fill(0.0)
    g_pnl[tail] = -(1.0 / k)
    return float(-(pnl[tail].sum() * (1.0 / k)))


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
