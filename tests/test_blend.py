"""The blend fit: pinned trajectories, its closed-form gradient, and its errors.

The pinned values were recorded from the fit when it still differentiated the
blended P&L on the autodiff tape; the closed-form gradient must reproduce
them bit for bit.
"""

import hashlib
import math

import numpy as np
import pytest

from hedgeblend import autodiff as ad
from hedgeblend.accounting import CostSpec, HedgeSchedule, compute_pnl
from hedgeblend.blend import (
    BlendObjective,
    BlendParams,
    blend_features,
    blend_schedules,
    fit_blend,
)
from hedgeblend.ensemble import EnsembleOutput
from hedgeblend.errors import DimensionError, NumericalDivergenceError
from hedgeblend.market import MarketPaths, PathGrid
from hedgeblend.risk import cvar, entropic_risk

COST = CostSpec(5e-3)
STRIKE = 1.0


def synthetic_problem(n_paths=64, n_steps=8, seed=2026):
    """(paths, ensemble output, BS schedule) drawn from one seeded generator."""
    gen = np.random.default_rng(seed)
    log_ret = gen.normal(0.0, 0.04, size=(n_paths, n_steps))
    spot = np.exp(np.concatenate([np.zeros((n_paths, 1)), log_ret.cumsum(axis=1)], axis=1))
    paths = MarketPaths(spot=spot, variance=np.full_like(spot, 0.04),
                        grid=PathGrid(n_steps=n_steps, maturity=0.5), seed=seed)
    bs = np.clip(gen.normal(0.55, 0.15, size=(n_paths, n_steps)), 0.0, 1.0)
    ens = np.clip(bs + gen.normal(0.0, 0.1, size=bs.shape), 0.0, 1.0)
    psi = np.abs(gen.normal(0.0, 0.05, size=bs.shape))
    return paths, EnsembleOutput([], HedgeSchedule(ens), psi, psi.mean(axis=1)), HedgeSchedule(bs)


@pytest.fixture(scope="module")
def problem():
    return synthetic_problem()


def run_fit(problem, kind, extended, iterations=50):
    paths, ens, bs = problem
    return fit_blend(paths, ens, bs, COST, STRIKE, BlendObjective(kind), extended=extended,
                     iterations=iterations, step_size=0.05)


# (kind, extended) -> (params, final objective, sha256 of the float64 trajectory)
PINNED = {
    ("entropic", False): (
        (2.07632988854372, 1.9708869411458783, None, None), 0.0572470307938006,
        "ef4fa2dac781f19a98508ad8a911a91316586699396f9a216681e84f09980643"),
    ("entropic", True): (
        (1.564444357752383, 1.4300727872174648, 1.5349305457381537, 1.4151298271826267),
        0.057149331161823635,
        "622b4c1682552a3187e2d01cf11c49908605305aefd4487d27445e20f3966911"),
    ("cvar", False): (
        (2.0841028166589304, 2.1121791453559395, None, None), 0.15098247193556086,
        "15621194d9bcc18f0b0495b82b16ba8f4a3094e37b2d844483f0cd53dd915626"),
    ("cvar", True): (
        (1.2479872120798545, 1.2902909508804723, 1.3081720147314304, 1.5401229431723287),
        0.15067387063082094,
        "29bced13cf071fcf161fb036a05ab5a3ba2372d5649aa3a84b6a081736bea495"),
}


@pytest.mark.parametrize("kind, extended", sorted(PINNED))
def test_trajectory_matches_the_taped_fit_exactly(problem, kind, extended):
    params, final, digest = PINNED[kind, extended]
    fit = run_fit(problem, kind, extended)
    got = fit.params
    assert (got.intercept, got.uncertainty_coef, got.moneyness_coef, got.time_coef) == params
    assert fit.final_objective == final
    assert len(fit.trajectory) == 50
    assert hashlib.sha256(np.array(fit.trajectory).tobytes()).hexdigest() == digest


def objective_at(problem, coefs, objective, tail=None):
    """The fit's objective at ``coefs``, from the numpy accounting and risk modules.

    With ``tail`` given, CVaR is the mean over those fixed paths, the function
    whose gradient the tail subgradient is.
    """
    paths, ens, bs = problem
    params = BlendParams(*coefs)
    features = blend_features(paths, STRIKE) if params.extended else None
    schedule = blend_schedules(ens.mean_hedge, bs, ens.disagreement, params, features)
    pnl = compute_pnl(paths, schedule, COST, STRIKE).pnl
    if objective.kind == "entropic":
        return entropic_risk(pnl, objective.a), pnl
    if tail is None:
        return -cvar(pnl, objective.level), pnl
    return -pnl[tail].mean(), pnl


def gradients_during_fit(problem, objective, extended, monkeypatch, iterations=8):
    """(coefficients, gradient) handed to every Adam step of a short fit."""
    seen = []
    step = ad.Adam.step

    def recording_step(self):
        seen.append(([float(p.data) for p in self.params], [float(p.grad) for p in self.params]))
        step(self)

    monkeypatch.setattr(ad.Adam, "step", recording_step)
    paths, ens, bs = problem
    fit_blend(paths, ens, bs, COST, STRIKE, objective, extended=extended,
              iterations=iterations, step_size=0.05)
    return seen


@pytest.mark.parametrize("kind", ["entropic", "cvar"])
@pytest.mark.parametrize("extended", [False, True])
def test_gradient_matches_central_differences(problem, kind, extended, monkeypatch):
    objective = BlendObjective(kind)
    h = 1e-6
    for coefs, grad in gradients_during_fit(problem, objective, extended, monkeypatch)[::3]:
        _, pnl = objective_at(problem, coefs, objective)
        k = math.ceil(objective.level * pnl.size)
        tail = np.argsort(pnl)[:k] if kind == "cvar" else None
        for i in range(len(coefs)):
            up, down = list(coefs), list(coefs)
            up[i] += h
            down[i] -= h
            fd = (objective_at(problem, up, objective, tail)[0]
                  - objective_at(problem, down, objective, tail)[0]) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-9), (kind, i)


def test_fit_never_builds_a_tape(problem, monkeypatch):
    def no_tape(*args, **kwargs):
        raise AssertionError("fit_blend walked the autodiff tape")

    monkeypatch.setattr(ad, "backward", no_tape)
    for kind in ("entropic", "cvar"):
        assert len(run_fit(problem, kind, extended=True, iterations=3).trajectory) == 3


def test_mismatched_shapes_raise(problem):
    paths, ens, bs = problem
    short = HedgeSchedule(bs.delta[:-1])
    with pytest.raises(DimensionError):
        fit_blend(paths, ens, short, COST, STRIKE, BlendObjective("cvar"), iterations=1)
    with pytest.raises(DimensionError):
        fit_blend(paths, ens.take(np.arange(10)), bs, COST, STRIKE, BlendObjective("cvar"),
                  iterations=1)


def test_non_finite_objective_raises(problem):
    paths, ens, bs = problem
    psi = ens.disagreement.copy()
    psi[3, 2] = np.nan
    broken = EnsembleOutput([], ens.mean_hedge, psi, psi.mean(axis=1))
    with pytest.raises(NumericalDivergenceError, match="iteration 0"):
        fit_blend(paths, broken, bs, COST, STRIKE, BlendObjective("entropic"), iterations=5)
