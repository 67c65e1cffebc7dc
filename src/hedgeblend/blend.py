"""Uncertainty-weighted blending of the ensemble hedge with the BS delta.

The blended ratio is (1 - alpha) * ensemble_mean + alpha * bs_delta with
alpha = sigmoid(intercept + uncertainty_coef * disagreement [+ extended
terms]). Coefficients are fitted by full-batch Adam on precomputed hedges:
only the blend weights move, never the underlying strategies.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import expit

from . import autodiff as ad
from . import rng
from .accounting import CostSpec, HedgeSchedule
from .autodiff import Tensor
from .ensemble import EnsembleOutput
from .errors import DimensionError, NumericalDivergenceError, ParameterError
from .market import MarketPaths
from .objectives import cvar_objective, entropic_objective, pnl_on_tape

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
) -> BlendFit:
    """Fit the blend coefficients by Adam on the precomputed training batch.

    All hedge ratios and disagreement values are held fixed; each iteration
    recomputes the blended schedule, its P&L, and the objective, then steps
    the coefficients. The CVaR subgradient fixes tail membership within each
    iteration. The fit itself is deterministic (coefficients start at the
    uninformative 50/50 blend); ``seed`` is recorded for provenance only.
    """
    shape = (train_paths.n_paths, train_paths.n_steps)
    if ens.mean_hedge.delta.shape != shape or bs.delta.shape != shape:
        raise DimensionError("ensemble/bs schedules do not match the training paths")

    ens_delta = ens.mean_hedge.delta
    bs_delta_arr = bs.delta
    psi = ens.disagreement
    moneyness, tau_frac = blend_features(train_paths, strike)

    n_coefs = 4 if extended else 2
    coefs = [Tensor(np.zeros(()), requires_grad=True) for _ in range(n_coefs)]
    adam = ad.Adam(coefs, lr=step_size)

    trajectory: list[float] = []
    for iteration in range(iterations):
        z = coefs[0] + coefs[1] * psi
        if extended:
            z = z + coefs[2] * moneyness + coefs[3] * tau_frac
        alpha = ad.sigmoid(z)
        delta = (1.0 - alpha) * ens_delta + alpha * bs_delta_arr
        pnl = pnl_on_tape(delta, train_paths.spot, cost.cost_rate, strike)
        if objective.kind == "entropic":
            loss = entropic_objective(pnl, objective.a)
        else:
            loss = cvar_objective(pnl, objective.level)
        value = float(loss.data)
        if not math.isfinite(value):
            raise NumericalDivergenceError(f"blend objective diverged at iteration {iteration}")
        trajectory.append(value)
        ad.backward(loss)
        adam.step()
        adam.zero_grad()

    params = BlendParams(
        intercept=float(coefs[0].data),
        uncertainty_coef=float(coefs[1].data),
        moneyness_coef=float(coefs[2].data) if extended else None,
        time_coef=float(coefs[3].data) if extended else None,
    )
    return BlendFit(params=params, objective=objective, trajectory=trajectory,
                    extended=extended, seed=seed)
