"""Uncertainty-weighted blending of the ensemble hedge with the BS delta.

The blended ratio is (1 - alpha) * ensemble_mean + alpha * bs_delta with
alpha = sigmoid(intercept + uncertainty_coef * disagreement), the paper's
form. Coefficients are fitted by full-batch Adam (``autodiff.Adam``, which
updates plain arrays) on precomputed hedges: only the blend weights move,
never the underlying strategies. The fit's gradient is closed-form; no LSTM
is rolled out or backpropagated. The objective and its gradient in the P&L
(entropic softmax weights or the CVaR tail subgradient) come from
``risk.RiskSpec.loss``, whose entropic case is training's loss; the P&L is
differentiated in the blend coefficients directly, by the fit's own kernel
(:class:`_BlendProblem`), which computes once what stays fixed during the
fit. Its P&L equals ``accounting.compute_pnl``'s, and the objectives it
reports equal ``risk.entropic_risk`` and ``-risk.cvar`` of that P&L, within
1e-12 relative.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import expit

from . import rng
from .accounting import CostSpec, HedgeSchedule
from .autodiff import Adam
from .ensemble import EnsembleOutput
from .errors import NumericalDivergenceError, ParameterError, require_integer, require_real
from .market import MarketPaths
from .risk import RiskSpec
from .threads import check_stopped

FIT_ITERATIONS = 2000
FIT_STEP_SIZE = 0.01
# The blend objectives every run fits, in table order.
OBJECTIVES = ("entropic", "cvar")


@dataclass
class BlendParams:
    """Sigmoid coefficients: alpha = sigmoid(intercept + uncertainty_coef * psi)."""

    intercept: float = 0.0
    uncertainty_coef: float = 0.0


def alpha_weight(psi, params: BlendParams):
    """Blending weight in (0,1) at disagreement ``psi``."""
    psi = np.asarray(psi, dtype=float)
    if np.any(psi < 0):
        raise ParameterError("disagreement must be non-negative")
    out = expit(params.intercept + params.uncertainty_coef * psi)
    return out if out.ndim else float(out)


def blend_schedules(
    ens_mean: HedgeSchedule,
    bs: HedgeSchedule,
    psi: np.ndarray,
    params: BlendParams,
) -> HedgeSchedule:
    """Pointwise convex combination (1 - alpha) * ensemble + alpha * BS."""
    if ens_mean.delta.shape != bs.delta.shape or ens_mean.delta.shape != psi.shape:
        raise ParameterError(
            f"shape mismatch: ensemble {ens_mean.delta.shape}, "
            f"bs {bs.delta.shape}, disagreement {psi.shape}"
        )
    alpha = alpha_weight(psi, params)
    delta = (1.0 - alpha) * ens_mean.delta + alpha * bs.delta
    return HedgeSchedule(delta, "blend")


def train_eval_split(paths: MarketPaths, train_fraction: float, seed: int):
    """Deterministic disjoint (train, eval) index split covering all paths."""
    require_real("train_fraction", train_fraction, above=0, below=1)
    n = paths.n_paths
    perm = rng.generator(rng.derive_seed(seed, rng.TAG_SPLIT)).permutation(n)
    k = int(round(train_fraction * n))
    return np.sort(perm[:k]), np.sort(perm[k:])


@dataclass
class BlendFit:
    """Fitted coefficients plus optimisation diagnostics."""

    params: BlendParams
    objective: RiskSpec
    trajectory: list[float]

    @property
    def final_objective(self) -> float:
        return self.trajectory[-1]

    def to_json(self) -> str:
        return json.dumps(
            {
                "params": asdict(self.params),
                "objective": {"kind": self.objective.kind, "a": self.objective.a,
                              "level": self.objective.level},
                "final_objective": self.final_objective,
                "trajectory": self.trajectory,
            },
            indent=2,
        )


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of ``a`` with the same row of ``b``."""
    return np.einsum("ij,ij->i", a, b)


class _BlendProblem:
    """The blended P&L as a function of the blend coefficients, and its gradient.

    With t = tanh(z / 2), alpha = (1 + t) / 2 and the blended hedge is
    delta = mid + t half, where mid = (ens + bs) / 2 and half = (bs - ens) / 2.
    The P&L of :func:`accounting.compute_pnl` is

        pnl = rowdot(delta, dS) - rowdot(c S, |dd|) - (S_n - K)^+,

    with dd_t = delta_t - delta_{t-1} the position changes t = 0..n of a book
    that starts and ends flat. Everything but t, delta and dd is fixed during
    a fit, so it is computed once, here. As dt/dz = (1 - t^2) / 2, the
    gradient of sum(g pnl) in the intercept and in the coefficient of psi is

        1/2 sum_i g_i rowdot(v, f)_i  with f = 1 and f = psi,
        v = (half - t (t half)) w,
        w_t = dS_t - c S_t sgn(dd_t) + c S_{t+1} sgn(dd_{t+1}),  sgn(0) = 0,

    summed over the paths where g is nonzero only: every path for the entropic
    objective (bar softmax weights that underflow), the tail for CVaR.

    Every per-step array has n + 1 columns, like the position changes: the
    arrays of n columns (mid, half, dS, psi) get a zero column n, so
    delta_n = 0 (the unwind) and column n adds nothing to the gains or the
    gradient. The hedges are stored row after row in one flat buffer
    behind a leading zero, so one subtraction of the buffer from itself,
    shifted by one, gives every position change; once the gains are summed
    the buffer takes the trade sizes |dd|. t half is kept in ``work`` for
    :meth:`grad`, which then uses ``work`` as its scratch.
    """

    def __init__(self, spot, ens, bs, psi, cost_rate: float, strike: float):
        def padded(a):
            return np.pad(a, ((0, 0), (0, 1)))

        self.psi = padded(psi)
        self.mid = padded((ens + bs) * 0.5)
        self.half = padded((bs - ens) * 0.5)
        self.d_spot = padded(np.diff(spot, axis=1))
        self.payoff = np.maximum(spot[:, -1] - strike, 0.0)
        self.cost_spot = cost_rate * spot
        self.t, self.work, self.changes = (np.empty_like(spot) for _ in range(3))
        self.flat_delta = np.zeros(spot.size + 1)  # 0, then each row's delta_0 .. delta_n

    def pnl(self, coefs) -> np.ndarray:
        """P&L per path at the (2,) ``coefs`` (the intercept, then the
        coefficient of psi); keeps t, t half and the position changes for
        :meth:`grad`."""
        t, t_half = self.t, self.work
        np.multiply(self.psi, 0.5 * coefs[1], out=t)  # z / 2, exactly
        t += 0.5 * coefs[0]
        np.tanh(t, out=t)
        np.multiply(t, self.half, out=t_half)
        delta = self.flat_delta[1:].reshape(t.shape)
        np.add(t_half, self.mid, out=delta)
        np.subtract(self.flat_delta[1:], self.flat_delta[:-1], out=self.changes.reshape(-1))
        gains = _rowdot(delta, self.d_spot)
        trades = np.abs(self.changes, out=delta)
        return gains - _rowdot(self.cost_spot, trades) - self.payoff

    def grad(self, g_pnl: np.ndarray) -> np.ndarray:
        """d sum(g_pnl pnl) / d coefs at the last :meth:`pnl` call, a (2,) array."""
        rows = np.flatnonzero(g_pnl)
        if rows.size == g_pnl.size:
            rows = slice(None)  # views: the backward overwrites the buffers
        g, t, half, work = g_pnl[rows], self.t[rows], self.half[rows], self.work[rows]
        signed_cost = self.changes[rows]
        zero = signed_cost == 0.0
        np.copysign(self.cost_spot[rows], signed_cost, out=signed_cost)
        if zero.any():
            signed_cost[zero] = 0.0
        t *= work  # t (t half)
        np.subtract(half, t, out=t)
        np.subtract(self.d_spot[rows], signed_cost, out=work)
        # + c S_{t+1} sgn(dd_{t+1}); column n takes the next row's first term,
        # which v = 0 there cancels.
        work.reshape(-1)[:-1] += signed_cost.reshape(-1)[1:]
        t *= work
        return np.array([0.5 * (g @ t.sum(axis=1)), 0.5 * (g @ _rowdot(t, self.psi[rows]))])


def fit_blend(
    train_paths: MarketPaths,
    ens: EnsembleOutput,
    bs: HedgeSchedule,
    cost: CostSpec,
    strike: float,
    objective: RiskSpec,
    iterations: int = FIT_ITERATIONS,
    step_size: float = FIT_STEP_SIZE,
) -> BlendFit:
    """Fit the blend coefficients by Adam on the precomputed training batch.

    All hedge ratios and disagreement values are held fixed; each iteration
    evaluates the blended P&L and the objective at the current coefficients,
    then steps them along the closed-form gradient: G = d obj / d pnl from
    ``objective.loss`` (the CVaR tail subgradient included), then
    d obj / d coefficient from :class:`_BlendProblem`, which differentiates
    the P&L in the coefficients directly and only on the paths where G is
    nonzero. The objective it reports at given coefficients equals
    ``entropic_risk`` or ``-cvar`` of ``compute_pnl(blend_schedules(...))``
    within 1e-12 relative; the operations are ordered differently, so values
    agree to rounding, not bit for bit.
    The fit is deterministic, from the uninformative 50/50 blend. On a
    thread of a ``threads.run_threads`` call that is stopped, it raises
    ``CancelledError`` at its next iteration. An ``objective`` whose kind is
    not one of ``OBJECTIVES`` is a ParameterError.
    """
    if objective.kind not in OBJECTIVES:
        raise ParameterError(f"unknown blend objective {objective.kind!r}")
    require_integer("iterations", iterations, minimum=1)
    require_real("step_size", step_size, above=0)
    require_real("strike", strike, above=0)
    shape = (train_paths.n_paths, train_paths.n_steps)
    if shape[0] == 0:
        raise ParameterError("fit_blend needs at least one training path")
    if ens.mean_hedge.delta.shape != shape or bs.delta.shape != shape:
        raise ParameterError("ensemble/bs schedules do not match the training paths")

    problem = _BlendProblem(np.asarray(train_paths.spot, dtype=float), ens.mean_hedge.delta,
                            bs.delta, ens.disagreement, cost.cost_rate, strike)
    g_pnl = np.empty(shape[0])

    coefs = np.zeros(2)
    adam = Adam([coefs], lr=step_size)

    trajectory: list[float] = []
    for iteration in range(iterations):
        check_stopped("blend fit stopped at iteration %d", iteration)
        pnl = problem.pnl(coefs)
        value = objective.loss(pnl, g_pnl)
        if not math.isfinite(value):
            raise NumericalDivergenceError(f"blend objective diverged at iteration {iteration}")
        trajectory.append(value)
        adam.step([problem.grad(g_pnl)])

    return BlendFit(BlendParams(float(coefs[0]), float(coefs[1])), objective, trajectory)
