"""Terminal P&L accounting with proportional transaction costs.

Position convention: a schedule holds delta_0 .. delta_{n-1}, the units of
underlying carried over each step t -> t+1. The book starts flat
(delta_{-1} = 0, so the first trade establishes the position) and is unwound
at maturity (delta_n = 0), so position changes run t = 0..n and every trade
pays cost_rate * S_t * |change|.

    pnl = sum_t delta_t * (S_{t+1} - S_t)  -  costs  -  (S_n - K)^+
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, require_real
from .evaluation import csv_text
from .market import MarketPaths


@dataclass
class HedgeSchedule:
    """Per-path, per-step hedge ratios produced by any strategy."""

    delta: np.ndarray  # (n_paths, n_steps)
    strategy_label: str = ""

    def __post_init__(self):
        self.delta = np.asarray(self.delta, dtype=float)
        if self.delta.ndim != 2:
            raise ParameterError(f"delta must be 2-D, got shape {self.delta.shape}")
        if not np.isfinite(self.delta).all():
            raise ParameterError("hedge schedule contains non-finite entries")

    def take(self, indices: np.ndarray) -> "HedgeSchedule":
        return HedgeSchedule(self.delta[indices].copy(), self.strategy_label)


@dataclass(frozen=True)
class CostSpec:
    """Proportional transaction cost rate (fraction of traded notional)."""

    cost_rate: float

    def __post_init__(self):
        require_real("cost_rate", self.cost_rate, at_least=0)


@dataclass
class PnLReport:
    """Terminal P&L per path, its three-way decomposition and the trade size.

    Every array holds one value per path. transaction_costs and payoff are
    positive magnitudes; elementwise pnl == hedge_gains - transaction_costs -
    payoff. trade_size is the path's mean |position change| over t = 0..n.
    """

    pnl: np.ndarray
    hedge_gains: np.ndarray
    transaction_costs: np.ndarray
    payoff: np.ndarray
    trade_size: np.ndarray
    strategy_label: str = ""

    @property
    def n_paths(self) -> int:
        return self.pnl.shape[0]

    def take(self, indices: np.ndarray) -> "PnLReport":
        """The report of the paths ``indices``: each path's values depend
        only on its own row, so these equal :func:`compute_pnl` on those rows."""
        return PnLReport(
            self.pnl[indices], self.hedge_gains[indices], self.transaction_costs[indices],
            self.payoff[indices], self.trade_size[indices], self.strategy_label,
        )


# Rows per HedgePnL in compute_pnl, which bounds its four (rows, n+1)
# buffers. Not threads.row_blocks' cut: on it, compute_pnl at 10,000 x 126
# paths peaked at 10.7 MB of tracemalloc against 8.8 MB, and took 18.0-19.7
# ms against 13.3-18.9 ms (best of 7, 3 alternating processes, 2-vCPU host,
# one BLAS thread), with the same bits.
PNL_BLOCK_ROWS = 2048


def compute_pnl(
    paths: MarketPaths, hedges: HedgeSchedule, cost: CostSpec, strike: float
) -> PnLReport:
    """Terminal P&L of a short call hedged with ``hedges`` on ``paths``.

    Validates the inputs, then runs the forward of :class:`HedgePnL` in
    float64 on blocks of ``PNL_BLOCK_ROWS`` paths, which change no bit, as
    each path's values depend only on its own row. The report keeps the
    per-path gains, costs and mean |position change|.
    """
    require_real("strike", strike, above=0)
    if hedges.delta.shape != (paths.n_paths, paths.n_steps):
        raise ParameterError(
            f"hedge schedule shape {hedges.delta.shape} does not match "
            f"paths ({paths.n_paths} x {paths.n_steps})"
        )
    spot = np.asarray(paths.spot, dtype=float)
    report = PnLReport(*np.empty((5, paths.n_paths)), strategy_label=hedges.strategy_label)
    for lo in range(0, paths.n_paths, PNL_BLOCK_ROWS):
        rows = slice(lo, lo + PNL_BLOCK_ROWS)
        account = HedgePnL(spot[rows], cost.cost_rate, strike)
        report.pnl[rows] = account.pnl(hedges.delta[rows])
        report.hedge_gains[rows], report.transaction_costs[rows] = account.gains, account.costs
        report.payoff[rows], report.trade_size[rows] = account.payoff, account.trades.mean(axis=1)
        del account  # so that the next block's buffers can take its memory
    return report


class HedgePnL:
    """P&L of hedges on fixed (B, n+1) spots, and its derivative in the hedges.

    The one accounting: :func:`compute_pnl` runs its forward, training maps
    d loss / d pnl through :meth:`vjp` into ``autodiff.backward``, and the
    blend fit chains :meth:`weights` through its coefficients. It works in
    the dtype of ``spot`` and computes once dS_t (0 at t = n), c S_t and the
    payoff. :attr:`delta` is a (B, n+1) view, column n (the unwind) 0, of one
    flat buffer holding the hedges row after row behind a leading zero, so
    one shifted subtraction of the buffer from itself gives every position
    change dd_t = delta_t - delta_{t-1}, t = 0..n. :meth:`pnl` then writes
    |dd| (:attr:`trades`) over it: a caller that writes :attr:`delta` writes
    all of it.
    """

    def __init__(self, spot: np.ndarray, cost_rate: float, strike: float):
        self.d_spot = np.zeros_like(spot)
        np.subtract(spot[:, 1:], spot[:, :-1], out=self.d_spot[:, :-1])
        self.cost_spot = cost_rate * spot
        self.payoff = np.maximum(spot[:, -1] - strike, 0.0)
        self._flat = np.zeros(spot.size + 1, dtype=spot.dtype)
        self.delta = self._flat[1:].reshape(spot.shape)
        self.changes = np.empty_like(spot)

    def pnl(self, delta: np.ndarray | None = None) -> np.ndarray:
        """P&L per path of the (B, n) hedges ``delta``, or of :attr:`delta` as
        it stands; keeps the per-path ``gains`` and ``costs``, and the position
        changes for :meth:`weights`."""
        if delta is not None:
            self.delta[:, :-1] = delta
            self.delta[:, -1] = 0.0
        np.subtract(self._flat[1:], self._flat[:-1], out=self.changes.reshape(-1))
        self.gains = np.einsum("ij,ij->i", self.delta, self.d_spot)
        self.trades = np.abs(self.changes, out=self.delta)
        self.costs = np.einsum("ij,ij->i", self.cost_spot, self.trades)
        return self.gains - self.costs - self.payoff

    def weights(self, rows=slice(None)) -> np.ndarray:
        """d pnl / d delta_t = dS_t - c S_t sgn(dd_t) + c S_{t+1} sgn(dd_{t+1}),
        sgn(0) = 0, at the last :meth:`pnl` call, on the paths ``rows``.

        A (rows, n+1) array whose column n is no derivative. A slice (every
        row by default) writes it over the position changes and c S sgn(dd)
        over the spent hedge buffer, valid until the next :meth:`pnl`; an
        index array gives new arrays.
        """
        changes = self.changes[rows]
        # Not in place: np.sign writing over its input ran 7x slower.
        signed_cost = np.sign(changes, out=self.delta[rows] if isinstance(rows, slice) else None)
        signed_cost *= self.cost_spot[rows]
        weights = np.subtract(self.d_spot[rows], signed_cost, out=changes)
        weights.reshape(-1)[:-1] += signed_cost.reshape(-1)[1:]
        return weights

    def vjp(self, g_pnl: np.ndarray) -> np.ndarray:
        """d sum(g_pnl * pnl) / d delta at the last :meth:`pnl` call, as a new
        (B, n) array of the buffers' dtype."""
        weights = self.weights()[:, :-1]
        return np.multiply(weights, g_pnl[:, None], out=np.empty_like(weights))


def write_pnl_csv(report: PnLReport, file) -> None:
    """Per-path export: path_id, pnl, gains, costs, payoff; one write of the whole file.

    The rows come from a generator, which drops the four columns' Python
    floats when it is exhausted, before :func:`csv_text` joins the lines (a
    zip over them stops at its first input and keeps the rest alive)."""
    def rows():
        columns = (report.pnl, report.hedge_gains, report.transaction_costs, report.payoff)
        yield from zip(range(report.n_paths), *(c.tolist() for c in columns))

    file.write(csv_text(["path_id", "pnl", "hedge_gains", "transaction_costs", "payoff"],
                        rows()))
