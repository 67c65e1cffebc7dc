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

    @property
    def n_paths(self) -> int:
        return self.delta.shape[0]

    @property
    def n_steps(self) -> int:
        return self.delta.shape[1]

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


def compute_pnl(
    paths: MarketPaths, hedges: HedgeSchedule, cost: CostSpec, strike: float
) -> PnLReport:
    """Terminal P&L of a short call hedged with ``hedges`` on ``paths``.

    Validates the inputs, then runs the forward of :class:`HedgePnL`, the
    accounting training differentiates, in float64; the report keeps its
    per-path gains, costs and mean |position change|, not the per-step arrays.
    """
    require_real("strike", strike, above=0)
    if hedges.delta.shape != (paths.n_paths, paths.n_steps):
        raise ParameterError(
            f"hedge schedule shape {hedges.delta.shape} does not match "
            f"paths ({paths.n_paths} x {paths.n_steps})"
        )
    account = HedgePnL(np.asarray(paths.spot, dtype=float), cost.cost_rate, strike)
    pnl = account.pnl(hedges.delta)
    return PnLReport(
        pnl=pnl,
        hedge_gains=account.gains,
        transaction_costs=account.costs,
        payoff=account.payoff,
        trade_size=np.abs(account.changes, out=account.changes).mean(axis=1),
        strategy_label=hedges.strategy_label,
    )


class HedgePnL:
    """P&L of (B, n) hedge arrays on fixed (B, n+1) spots, and its VJP.

    The one accounting of the reports (:func:`compute_pnl` runs its forward)
    and of hedger training, which also runs its VJP: its output g_delta is
    where the LSTM's hand-written backward (``autodiff.backward``) starts.
    Costs sum |change| * (c S). It works in the dtype of ``spot``, which it
    keeps, with two (B, n+1) buffers allocated once and reused by every call. (The blend fit
    differentiates in its own coefficients instead; see
    ``blend._BlendProblem``.)
    """

    def __init__(self, spot: np.ndarray, cost_rate: float, strike: float):
        self.spot, self.cost_rate = spot, cost_rate
        self.payoff = np.maximum(spot[:, -1] - strike, 0.0)
        self.changes = np.empty_like(spot)  # dd_t = delta_t - delta_{t-1}, t = 0..n
        self._work = np.empty_like(spot)  # scratch of pnl and vjp

    def pnl(self, delta: np.ndarray) -> np.ndarray:
        """P&L per path; keeps the per-path ``gains`` and ``costs``, and the
        position changes for :meth:`vjp`."""
        n, spot, work, changes = delta.shape[1], self.spot, self._work, self.changes
        np.subtract(spot[:, 1:], spot[:, :-1], out=work[:, :n])  # dS_t
        work[:, :n] *= delta
        self.gains = work[:, :n].sum(axis=1)
        changes[:, 0] = delta[:, 0]
        np.subtract(delta[:, 1:], delta[:, :-1], out=changes[:, 1:n])
        np.subtract(0.0, delta[:, -1], out=changes[:, n])
        np.multiply(spot, self.cost_rate, out=work)
        work *= changes
        self.costs = np.abs(work, out=work).sum(axis=1)  # |dd| c S, as c S >= 0
        return self.gains - self.costs - self.payoff

    def vjp(self, g_pnl: np.ndarray) -> np.ndarray:
        """d sum(g_pnl * pnl) / d delta_t = g (dS_t - c S_t sgn(dd_t) + c S_{t+1}
        sgn(dd_{t+1})) at the last :meth:`pnl` call, sgn(0) = 0, as a new
        array of the buffers' dtype."""
        spot, part = self.spot, self._work
        np.multiply(spot, self.cost_rate, out=part)
        np.copysign(part, self.changes, out=part)
        part[self.changes == 0.0] = 0.0
        part *= -g_pnl[:, None]
        out = np.subtract(spot[:, 1:], spot[:, :-1])  # dS_t
        out *= g_pnl[:, None]
        out += part[:, :-1]
        out -= part[:, 1:]
        return out


@dataclass
class DecompositionRow:
    strategy: str
    mean_gains: float
    mean_costs: float
    mean_payoff: float
    mean_net: float
    diff_gains: float = 0.0
    diff_costs: float = 0.0
    diff_payoff: float = 0.0
    diff_net: float = 0.0


def check_same_paths(reports: list[PnLReport]) -> None:
    """ParameterError unless there are reports and all were computed on the
    same paths: equal path counts and equal payoffs."""
    if not reports:
        raise ParameterError("no reports")
    for r in reports:
        if r.n_paths != reports[0].n_paths:
            raise ParameterError("reports cover different path counts")
        if not np.array_equal(r.payoff, reports[0].payoff):
            raise ParameterError("reports were not computed on the same paths")


def decompose_pnl(reports: list[PnLReport], baseline: int = 0) -> list[DecompositionRow]:
    """Component means per strategy plus differences vs. the baseline report."""
    check_same_paths(reports)
    base = reports[baseline]
    rows = []
    for r in reports:
        rows.append(
            DecompositionRow(
                strategy=r.strategy_label,
                mean_gains=float(r.hedge_gains.mean()),
                mean_costs=float(r.transaction_costs.mean()),
                mean_payoff=float(r.payoff.mean()),
                mean_net=float(r.pnl.mean()),
                diff_gains=float(r.hedge_gains.mean() - base.hedge_gains.mean()),
                diff_costs=float(r.transaction_costs.mean() - base.transaction_costs.mean()),
                diff_payoff=float(r.payoff.mean() - base.payoff.mean()),
                diff_net=float(r.pnl.mean() - base.pnl.mean()),
            )
        )
    return rows


def write_pnl_csv(report: PnLReport, file) -> None:
    """Per-path export: path_id, pnl, gains, costs, payoff; one write of the whole file."""
    columns = (report.pnl, report.hedge_gains, report.transaction_costs, report.payoff)
    file.write("path_id,pnl,hedge_gains,transaction_costs,payoff\n" + "".join(
        f"{p},{pnl:.12g},{gains:.12g},{costs:.12g},{payoff:.12g}\n"
        for p, (pnl, gains, costs, payoff) in enumerate(zip(*(c.tolist() for c in columns)))
    ))
