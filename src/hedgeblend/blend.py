"""Uncertainty-weighted blending of the ensemble hedge with the BS delta.

The blended ratio is (1 - alpha) * ensemble_mean + alpha * bs_delta with
alpha = sigmoid(intercept + uncertainty_coef * disagreement [+ extended
terms]). Coefficients are fitted by full-batch Adam on precomputed hedges:
only the blend weights move, never the underlying strategies. The fit's
gradient is closed-form, not taped: the P&L, its VJP and the objective
gradient (entropic softmax weights or the CVaR tail subgradient) are the
code hedger training uses, ``accounting.HedgePnL`` and
``risk._objective_and_grad``; only the sigmoid step is the fit's own. It
keeps a taped gradient's operand order, so it matches one bit for bit.
"""

from __future__ import annotations

import json
import math
import threading
from concurrent.futures import CancelledError
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import expit

from . import autodiff as ad
from . import rng
from .accounting import CostSpec, HedgePnL, HedgeSchedule
from .autodiff import Tensor, _sigmoid_inplace
from .ensemble import EnsembleOutput
from .errors import DimensionError, NumericalDivergenceError, ParameterError
from .market import MarketPaths
from .risk import _objective_and_grad

FIT_ITERATIONS = 2000
FIT_STEP_SIZE = 0.01


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

    @classmethod
    def from_dict(cls, d: dict) -> "BlendParams":
        return cls(
            intercept=d["intercept"],
            uncertainty_coef=d["uncertainty_coef"],
            moneyness_coef=d.get("moneyness_coef"),
            time_coef=d.get("time_coef"),
        )


@dataclass(frozen=True)
class BlendObjective:
    """Fit criterion: entropic risk (a=1) or CVaR at the 5% tail."""

    kind: str  # "entropic" | "cvar"
    a: float = 1.0
    level: float = 0.05

    def __post_init__(self):
        if self.kind not in ("entropic", "cvar"):
            raise ParameterError(f"unknown blend objective {self.kind!r}")
        if self.kind == "entropic" and self.a <= 0:
            raise ParameterError("entropic objective requires a > 0")
        if self.kind == "cvar" and not 0.0 < self.level < 1.0:
            raise ParameterError("cvar level must lie in (0, 1)")


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
        raise DimensionError(
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
    objective: BlendObjective
    trajectory: list[float]
    extended: bool
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
                "extended": self.extended,
                "seed": self.seed,
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
    objective: BlendObjective,
    extended: bool = False,
    seed: int = 0,
    iterations: int = FIT_ITERATIONS,
    step_size: float = FIT_STEP_SIZE,
    *,
    stop: threading.Event | None = None,
) -> BlendFit:
    """Fit the blend coefficients by Adam on the precomputed training batch.

    All hedge ratios and disagreement values are held fixed; each iteration
    recomputes the blended schedule, its P&L and the objective, then steps
    the coefficients along the closed-form gradient: G = d obj / d pnl from
    ``risk._objective_and_grad`` (the CVaR tail subgradient included),
    g_delta = d obj / d delta from ``accounting.HedgePnL.vjp``, and

        d obj / d z = (g_delta delta_BS - g_delta delta_ens) alpha (1 - alpha)

    Each coefficient's gradient is the sum of d obj / d z times its feature
    (1, disagreement, moneyness, time fraction). Every product and sum keeps
    the operand order of the reverse sweep through the expression, so the
    trajectory is bit-identical to differentiating it on the autodiff tape
    (a zero may differ in sign, which no sum or Adam step can see).
    The fit itself is deterministic (coefficients start at the uninformative
    50/50 blend); ``seed`` is recorded for provenance only. When ``stop`` is
    set, checked once per iteration, the fit raises ``CancelledError``.
    """
    shape = (train_paths.n_paths, train_paths.n_steps)
    if ens.mean_hedge.delta.shape != shape or bs.delta.shape != shape:
        raise DimensionError("ensemble/bs schedules do not match the training paths")

    ens_delta = ens.mean_hedge.delta
    bs_delta = bs.delta
    features = [ens.disagreement]
    if extended:
        features.extend(blend_features(train_paths, strike))
    account = HedgePnL(np.asarray(train_paths.spot, dtype=float), cost.cost_rate, strike)
    alpha, one_minus, delta, work = (np.empty(shape) for _ in range(4))
    g_pnl = np.empty(shape[0])

    coefs = [Tensor(np.zeros(()), requires_grad=True) for _ in range(1 + len(features))]
    adam = ad.Adam(coefs, lr=step_size)

    trajectory: list[float] = []
    for iteration in range(iterations):
        if stop is not None and stop.is_set():
            raise CancelledError(f"blend fit stopped at iteration {iteration}")
        # Forward: alpha = sigmoid(c0 + c1 psi [+ c2 moneyness + c3 tau]).
        np.multiply(coefs[1].data, features[0], out=alpha)
        np.add(coefs[0].data, alpha, out=alpha)
        for coef, feature in zip(coefs[2:], features[1:]):
            np.multiply(coef.data, feature, out=work)
            alpha += work
        _sigmoid_inplace(alpha)
        np.subtract(1.0, alpha, out=one_minus)
        np.multiply(one_minus, ens_delta, out=delta)
        np.multiply(alpha, bs_delta, out=work)
        delta += work

        pnl = account.pnl(delta)
        value = _objective_and_grad(pnl, objective.kind, g_pnl, a=objective.a,
                                    level=objective.level)
        if not math.isfinite(value):
            raise NumericalDivergenceError(f"blend objective diverged at iteration {iteration}")
        trajectory.append(value)

        # Backward: d obj / d delta into work, d obj / d z into delta.
        account.vjp(g_pnl, out=work)
        np.multiply(work, bs_delta, out=delta)
        work *= ens_delta
        delta -= work
        delta *= alpha
        delta *= one_minus
        coefs[0].grad = delta.sum()
        for coef, feature in zip(coefs[1:], features):
            np.multiply(delta, feature, out=work)
            coef.grad = work.sum()
        adam.step()

    params = BlendParams(
        intercept=float(coefs[0].data),
        uncertainty_coef=float(coefs[1].data),
        moneyness_coef=float(coefs[2].data) if extended else None,
        time_coef=float(coefs[3].data) if extended else None,
    )
    return BlendFit(params=params, objective=objective, trajectory=trajectory,
                    extended=extended, seed=seed)
