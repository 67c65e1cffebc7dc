"""Differentiable P&L accounting and the entropic objective for hedger training.

Tape mirrors of :mod:`hedgeblend.accounting` and :mod:`hedgeblend.risk`;
the numpy versions serve as independent oracles for these in the tests.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def pnl_on_tape(delta: Tensor, spot: np.ndarray, cost_rate: float, strike: float) -> Tensor:
    """Terminal P&L of a short call for a (B, n) hedge tensor on (B, n+1) spots.

    Same accounting as :func:`hedgeblend.accounting.compute_pnl`: entry from a
    flat book, unwind at maturity, proportional costs on every change.
    """
    n_paths, n = delta.shape
    dtype = delta.data.dtype
    spot = np.asarray(spot, dtype=dtype)
    gains = ad.tsum(delta * np.diff(spot, axis=1), axis=1)
    zero_col = Tensor(np.zeros((n_paths, 1), dtype=dtype))
    changes = ad.concat([delta, zero_col], axis=1) - ad.concat([zero_col, delta], axis=1)
    costs = ad.tsum(ad.absolute(changes) * (cost_rate * spot), axis=1)
    payoff = np.maximum(spot[:, -1] - strike, 0.0)
    return gains - costs - Tensor(payoff)


def entropic_objective(pnl: Tensor, a: float) -> Tensor:
    """(1/a) log mean exp(-a * pnl) with a detached max shift for stability."""
    x = pnl * (-a)
    m = float(x.data.max())
    return (ad.log(ad.tmean(ad.exp(x - m))) + m) / a


def entropic_weights(pnl: np.ndarray, a: float) -> np.ndarray:
    """Softmax weights w_i with d entropic / d pnl_i = -w_i; they sum to 1."""
    x = -a * pnl
    x = x - x.max()
    e = np.exp(x)
    return e / e.sum()

