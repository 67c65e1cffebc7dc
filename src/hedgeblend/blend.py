"""Uncertainty-weighted blending of the ensemble hedge with the BS delta.

The blended ratio is (1 - alpha) * ensemble_mean + alpha * bs_delta with
alpha = sigmoid(intercept + uncertainty_coef * disagreement [+ extended
terms]). Coefficients are fitted by full-batch Adam (``autodiff.Adam``, which
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
import threading
from concurrent.futures import CancelledError
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import expit

from . import rng
from .accounting import CostSpec, HedgeSchedule
from .autodiff import Adam
from .ensemble import EnsembleOutput
from .errors import NumericalDivergenceError, ParameterError
from .market import MarketPaths
from .risk import RiskSpec

FIT_ITERATIONS = 2000
FIT_STEP_SIZE = 0.01
# The blend objectives every run fits, in table order.
OBJECTIVES = ("entropic", "cvar")


@dataclass
class BlendParams:
    """Sigmoid coefficients; moneyness/time terms only in the extended form."""

    intercept: float = 0.0
    uncertainty_coef: float = 0.0
    moneyness_coef: float | None = None
    time_coef: float | None = None

    @property
    def extended(self) -> bool:
        return self.moneyness_coef is not None

    def to_dict(self) -> dict:
        return asdict(self)


def blend_features(paths: MarketPaths, strike: float) -> tuple[np.ndarray, np.ndarray]:
    """(moneyness S_t/K, time-to-expiry fraction tau_t/T) at decision steps."""
    n = paths.n_steps
    moneyness = paths.spot[:, :n] / strike
    tau_frac = paths.grid.taus() / paths.grid.maturity
    return moneyness, np.broadcast_to(tau_frac, (paths.n_paths, n)).copy()


def alpha_weight(psi, params: BlendParams, features=None):
    """Blending weight in (0,1); ``features`` = (moneyness, tau fraction)."""
    psi = np.asarray(psi, dtype=float)
    if np.any(psi < 0):
        raise ParameterError("disagreement must be non-negative")
    z = params.intercept + params.uncertainty_coef * psi
    if params.extended:
        if features is None:
            raise ParameterError("extended blend params require (moneyness, tau) features")
        moneyness, tau_frac = features
        z = z + params.moneyness_coef * np.asarray(moneyness) \
            + params.time_coef * np.asarray(tau_frac)
    out = expit(z)
    return out if out.ndim else float(out)


def blend_schedules(
    ens_mean: HedgeSchedule,
    bs: HedgeSchedule,
    psi: np.ndarray,
    params: BlendParams,
    features=None,
) -> HedgeSchedule:
    """Pointwise convex combination (1 - alpha) * ensemble + alpha * BS."""
    if ens_mean.delta.shape != bs.delta.shape or ens_mean.delta.shape != psi.shape:
        raise ParameterError(
            f"shape mismatch: ensemble {ens_mean.delta.shape}, "
            f"bs {bs.delta.shape}, disagreement {psi.shape}"
        )
    alpha = alpha_weight(psi, params, features)
    delta = (1.0 - alpha) * ens_mean.delta + alpha * bs.delta
    return HedgeSchedule(delta, "blend")


def train_eval_split(paths: MarketPaths, train_fraction: float, seed: int):
    """Deterministic disjoint (train, eval) index split covering all paths."""
    if not 0.0 < train_fraction < 1.0:
        raise ParameterError("train_fraction must lie in (0, 1)")
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
    seed: int

    @property
    def final_objective(self) -> float:
        return self.trajectory[-1]

    def to_json(self) -> str:
        return json.dumps(
            {
                "params": self.params.to_dict(),
                "objective": {"kind": self.objective.kind, "a": self.objective.a,
                              "level": self.objective.level},
                "extended": self.params.extended,
                "seed": self.seed,
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
    gradient of sum(g pnl) in the coefficient of feature f (1 for the
    intercept) is

        1/2 sum_i g_i rowdot(v, f)_i,  v = (half - t (t half)) w,
        w_t = dS_t - c S_t sgn(dd_t) + c S_{t+1} sgn(dd_{t+1}),  sgn(0) = 0,

    summed over the paths where g is nonzero only: every path for the entropic
    objective (bar softmax weights that underflow), the tail for CVaR.

    Every per-step array has n + 1 columns, like the position changes: the
    arrays of n columns (mid, half, dS, the features) get a zero column n, so
    delta_n = 0 (the unwind) and column n adds nothing to the gains or the
    gradient. The hedges are stored row after row in one flat buffer
    behind a leading zero, so one subtraction of the buffer from itself,
    shifted by one, gives every position change.
    """

    def __init__(self, spot, ens, bs, features, cost_rate: float, strike: float):
        def padded(a):
            return np.pad(a, ((0, 0), (0, 1)))

        self.features = [padded(feature) for feature in features]
        self.mid = padded((ens + bs) * 0.5)
        self.half = padded((bs - ens) * 0.5)
        self.d_spot = padded(np.diff(spot, axis=1))
        self.payoff = np.maximum(spot[:, -1] - strike, 0.0)
        self.cost_spot = cost_rate * spot
        self.t, self.work, self.changes = (np.empty_like(spot) for _ in range(3))
        self.flat_delta = np.zeros(spot.size + 1)  # 0, then each row's delta_0 .. delta_n

    def pnl(self, coefs) -> np.ndarray:
        """P&L per path at ``coefs`` (the intercept, then one per feature);
        keeps t and the position changes for :meth:`grad`."""
        t, work = self.t, self.work
        halved = [0.5 * c for c in coefs]  # z / 2, exactly
        np.multiply(self.features[0], halved[1], out=t)
        t += halved[0]
        for coef, feature in zip(halved[2:], self.features[1:]):
            np.multiply(feature, coef, out=work)
            t += work
        np.tanh(t, out=t)
        delta = self.flat_delta[1:].reshape(t.shape)
        np.multiply(t, self.half, out=delta)
        delta += self.mid
        np.subtract(self.flat_delta[1:], self.flat_delta[:-1], out=self.changes.reshape(-1))
        trades = np.abs(self.changes, out=work)
        return _rowdot(delta, self.d_spot) - _rowdot(self.cost_spot, trades) - self.payoff

    def grad(self, g_pnl: np.ndarray) -> list:
        """d sum(g_pnl pnl) / d coefs at the last :meth:`pnl` call."""
        rows = np.flatnonzero(g_pnl)
        if rows.size == g_pnl.size:
            rows = slice(None)  # views: the backward overwrites the buffers
        g, t, half, work = g_pnl[rows], self.t[rows], self.half[rows], self.work[rows]
        signed_cost = self.changes[rows]
        zero = signed_cost == 0.0
        np.copysign(self.cost_spot[rows], signed_cost, out=signed_cost)
        if zero.any():
            signed_cost[zero] = 0.0
        np.multiply(t, half, out=work)
        t *= work
        np.subtract(half, t, out=t)
        np.subtract(self.d_spot[rows], signed_cost, out=work)
        # + c S_{t+1} sgn(dd_{t+1}); column n takes the next row's first term,
        # which v = 0 there cancels.
        work.reshape(-1)[:-1] += signed_cost.reshape(-1)[1:]
        t *= work
        sums = [t.sum(axis=1)] + [_rowdot(t, feature[rows]) for feature in self.features]
        return [0.5 * (g @ s) for s in sums]


def fit_blend(
    train_paths: MarketPaths,
    ens: EnsembleOutput,
    bs: HedgeSchedule,
    cost: CostSpec,
    strike: float,
    objective: RiskSpec,
    extended: bool = False,
    seed: int = 0,
    iterations: int = FIT_ITERATIONS,
    step_size: float = FIT_STEP_SIZE,
    *,
    stop: threading.Event | None = None,
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
    The fit itself is deterministic (coefficients start at the uninformative
    50/50 blend); ``seed`` is recorded for provenance only. When ``stop`` is
    set, checked once per iteration, the fit raises ``CancelledError``. An
    ``objective`` whose kind is not one of ``OBJECTIVES`` is a ParameterError.
    """
    if objective.kind not in OBJECTIVES:
        raise ParameterError(f"unknown blend objective {objective.kind!r}")
    shape = (train_paths.n_paths, train_paths.n_steps)
    if shape[0] == 0:
        raise ParameterError("fit_blend needs at least one training path")
    if ens.mean_hedge.delta.shape != shape or bs.delta.shape != shape:
        raise ParameterError("ensemble/bs schedules do not match the training paths")

    features = [ens.disagreement]
    if extended:
        features.extend(blend_features(train_paths, strike))
    problem = _BlendProblem(np.asarray(train_paths.spot, dtype=float), ens.mean_hedge.delta,
                            bs.delta, features, cost.cost_rate, strike)
    g_pnl = np.empty(shape[0])

    coefs = [np.zeros(()) for _ in range(1 + len(features))]
    adam = Adam(coefs, lr=step_size)

    trajectory: list[float] = []
    for iteration in range(iterations):
        if stop is not None and stop.is_set():
            raise CancelledError(f"blend fit stopped at iteration {iteration}")
        pnl = problem.pnl(coefs)
        value = objective.loss(pnl, g_pnl)
        if not math.isfinite(value):
            raise NumericalDivergenceError(f"blend objective diverged at iteration {iteration}")
        trajectory.append(value)
        adam.step(problem.grad(g_pnl))

    params = BlendParams(
        intercept=float(coefs[0]),
        uncertainty_coef=float(coefs[1]),
        moneyness_coef=float(coefs[2]) if extended else None,
        time_coef=float(coefs[3]) if extended else None,
    )
    return BlendFit(params=params, objective=objective, trajectory=trajectory, seed=seed)
