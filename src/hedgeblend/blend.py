"""Uncertainty-weighted blending of the ensemble hedge with the BS delta.

The blended ratio is (1 - alpha) * ensemble_mean + alpha * bs_delta with
alpha = sigmoid(intercept + uncertainty_coef * disagreement), the paper's
form. Coefficients are fitted by full-batch Adam (``autodiff.Adam``, which
updates plain arrays) on precomputed hedges: only the blend weights move,
never the underlying strategies. The fit's gradient is closed-form; no LSTM
is rolled out or backpropagated. The objective and its gradient in the P&L
(entropic softmax weights or the CVaR tail subgradient) come from
``risk.RiskSpec.loss``, whose entropic case is training's loss; the P&L and
its derivative in the hedges come from ``accounting.HedgePnL``, the
accounting of the reports and of training, chained through the blend
coefficients by :func:`fit_blend`. The objectives it reports equal
``risk.entropic_risk`` and ``-risk.cvar`` of ``accounting.compute_pnl``'s
P&L within 1e-12 relative.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import expit

from . import rng
from .accounting import CostSpec, HedgePnL, HedgeSchedule
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
    ``objective.loss`` (the CVaR tail subgradient included), chained, on the
    paths where G is nonzero only, through ``HedgePnL.weights`` and the
    blended hedge mid + t half (t = tanh(z / 2), mid = (ens + bs) / 2, half =
    (bs - ens) / 2), whose derivative in z is half (1 - t^2) / 2. The
    objective it reports equals ``entropic_risk`` or ``-cvar`` of
    ``compute_pnl(blend_schedules(...))`` within 1e-12 relative, as that
    rounds the blended hedge otherwise. The fit is deterministic, from the
    uninformative 50/50 blend. On a thread of a ``threads.run_threads`` call
    that is stopped, it raises ``CancelledError`` at its next iteration. An
    ``objective`` whose kind is not one of ``OBJECTIVES`` is a ParameterError.
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

    spot = np.asarray(train_paths.spot, dtype=float)
    account = HedgePnL(spot, cost.cost_rate, strike)
    ens_delta, bs_delta = ens.mean_hedge.delta, bs.delta
    # Column n is 0 in each, so the blended hedge's unwind column is too.
    mid, half, psi = (np.pad(a, ((0, 0), (0, 1))) for a in (
        (ens_delta + bs_delta) * 0.5, (bs_delta - ens_delta) * 0.5, ens.disagreement))
    t, t_half = np.empty_like(spot), np.empty_like(spot)
    g_pnl = np.empty(shape[0])

    def blended_pnl(coefs):  # keeps t and t half for grad
        np.multiply(psi, 0.5 * coefs[1], out=t)  # z / 2, exactly
        np.tanh(np.add(t, 0.5 * coefs[0], out=t), out=t)
        np.multiply(t, half, out=t_half)
        np.add(t_half, mid, out=account.delta)
        return account.pnl()

    def grad():  # d sum(g_pnl pnl) / d coefs, on the paths where g_pnl is nonzero
        rows = np.flatnonzero(g_pnl)
        if rows.size == g_pnl.size:
            rows = slice(None)  # views: the gradient overwrites the buffers
        g, v = g_pnl[rows], t[rows]
        v *= t_half[rows]
        np.subtract(half[rows], v, out=v)  # d delta / d (z / 2) = half (1 - t^2)
        v *= account.weights(rows)
        return np.array([0.5 * (g @ v.sum(axis=1)), 0.5 * (g @ np.einsum("ij,ij->i", v, psi[rows]))])

    coefs = np.zeros(2)
    adam = Adam([coefs], lr=step_size)

    trajectory: list[float] = []
    for iteration in range(iterations):
        check_stopped("blend fit stopped at iteration %d", iteration)
        value = objective.loss(blended_pnl(coefs), g_pnl)
        if not math.isfinite(value):
            raise NumericalDivergenceError(f"blend objective diverged at iteration {iteration}")
        trajectory.append(value)
        adam.step([grad()])

    return BlendFit(BlendParams(float(coefs[0]), float(coefs[1])), objective, trajectory)
