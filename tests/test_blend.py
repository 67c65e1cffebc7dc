"""The blend fit: pinned trajectories, its closed-form gradient, and its errors.

``blend_pins.json`` holds each pinned fit's final coefficients and its whole
trajectory. The 64 x 8 fits were recorded when the fit still differentiated
the blended P&L on the autodiff tape, the 700 x 126 fits from the fit that
differentiated it through ``accounting.HedgePnL`` (commit a655e7b). The fit
still runs on ``HedgePnL``, but forms the blended hedge as mid + t half and
chains ``HedgePnL.weights`` through the coefficients itself, a different
order of float operations, so it must reproduce them within 1e-12 relative.
"""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from hedgeblend import autodiff as ad
from hedgeblend.accounting import CostSpec, HedgePnL, HedgeSchedule, compute_pnl
from hedgeblend.blend import BlendParams, blend_schedules, fit_blend, train_eval_split
from hedgeblend.ensemble import EnsembleOutput
from hedgeblend.errors import NumericalDivergenceError, ParameterError
from hedgeblend.market import MarketPaths, PathGrid
from hedgeblend.risk import RiskSpec, cvar, entropic_risk

COST = CostSpec(5e-3)
STRIKE = 1.0


def synthetic_problem(n_paths=64, n_steps=8, seed=2026):
    """(paths, ensemble output, BS schedule) drawn from one seeded generator."""
    gen = np.random.default_rng(seed)
    log_ret = gen.normal(0.0, 0.04, size=(n_paths, n_steps))
    spot = np.exp(np.concatenate([np.zeros((n_paths, 1)), log_ret.cumsum(axis=1)], axis=1))
    paths = MarketPaths(spot=spot, variance=np.full_like(spot, 0.04),
                        grid=PathGrid(n_steps=n_steps, maturity=0.5))
    bs = np.clip(gen.normal(0.55, 0.15, size=(n_paths, n_steps)), 0.0, 1.0)
    ens = np.clip(bs + gen.normal(0.0, 0.1, size=bs.shape), 0.0, 1.0)
    psi = np.abs(gen.normal(0.0, 0.05, size=bs.shape))
    return paths, EnsembleOutput(HedgeSchedule(ens), psi, psi.mean(axis=1)), HedgeSchedule(bs)


@pytest.fixture(scope="module")
def problem():
    return synthetic_problem()


def run_fit(problem, kind, iterations=50, a=1.0):
    paths, ens, bs = problem
    return fit_blend(paths, ens, bs, COST, STRIKE, RiskSpec(kind, a=a),
                     iterations=iterations, step_size=0.05)


PINS = json.loads(Path(__file__).with_name("blend_pins.json").read_text())
PIN_RTOL = 1e-12
KINDS = ["cvar", "entropic"]


def coefficients(params: BlendParams) -> list[float]:
    return [params.intercept, params.uncertainty_coef]


def assert_matches_pin(fit, name):
    """The fit's coefficients and whole trajectory, the final objective
    included, equal the pin's within PIN_RTOL."""
    pin = PINS[name]
    np.testing.assert_allclose(coefficients(fit.params), pin["params"], rtol=PIN_RTOL, atol=0.0)
    assert len(fit.trajectory) == len(pin["trajectory"])
    np.testing.assert_allclose(fit.trajectory, pin["trajectory"], rtol=PIN_RTOL, atol=0.0)


@pytest.mark.parametrize("kind", KINDS)
def test_trajectory_matches_the_taped_fit_exactly(problem, kind):
    assert_matches_pin(run_fit(problem, kind), f"64x8/{kind}")


@pytest.fixture(scope="module")
def large_problem():
    return synthetic_problem(700, 126)


@pytest.mark.parametrize("kind", KINDS)
def test_large_fit_matches_the_pinned_trajectory(large_problem, kind):
    assert_matches_pin(run_fit(large_problem, kind, iterations=300), f"700x126/{kind}")


def objective_at(problem, coefs, objective, tail=None):
    """The fit's objective at ``coefs``, from the numpy accounting and risk modules.

    With ``tail`` given, CVaR is the mean over those fixed paths, the function
    whose gradient the tail subgradient is.
    """
    paths, ens, bs = problem
    schedule = blend_schedules(ens.mean_hedge, bs, ens.disagreement, BlendParams(*coefs))
    pnl = compute_pnl(paths, schedule, COST, STRIKE).pnl
    if objective.kind == "entropic":
        return entropic_risk(pnl, objective.a), pnl
    if tail is None:
        return -cvar(pnl, objective.level), pnl
    return -pnl[tail].mean(), pnl


def gradients_during_fit(problem, objective, monkeypatch, iterations=8):
    """(coefficients, gradient) handed to every Adam step of a short fit."""
    seen = []
    step = ad.Adam.step

    def recording_step(self, grads):  # the fit's one (2,) array of coefficients
        (coefs,), (grad,) = self.params, grads
        seen.append((coefs.tolist(), grad.tolist()))
        step(self, grads)

    monkeypatch.setattr(ad.Adam, "step", recording_step)
    paths, ens, bs = problem
    fit_blend(paths, ens, bs, COST, STRIKE, objective, iterations=iterations, step_size=0.05)
    return seen


def assert_gradients_match_central_differences(problem, objective, monkeypatch):
    """Every third gradient of a short fit against central differences of the
    oracle objective; returns the P&L at each checked point."""
    h = 1e-6
    checked = []
    for coefs, grad in gradients_during_fit(problem, objective, monkeypatch)[::3]:
        _, pnl = objective_at(problem, coefs, objective)
        checked.append(pnl)
        k = math.ceil(objective.level * pnl.size)
        tail = np.argsort(pnl)[:k] if objective.kind == "cvar" else None
        for i in range(len(coefs)):
            up, down = list(coefs), list(coefs)
            up[i] += h
            down[i] -= h
            fd = (objective_at(problem, up, objective, tail)[0]
                  - objective_at(problem, down, objective, tail)[0]) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-9), (objective.kind, i)
    return checked


@pytest.mark.parametrize("kind", ["entropic", "cvar"])
def test_gradient_matches_central_differences(problem, kind, monkeypatch):
    assert_gradients_match_central_differences(problem, RiskSpec(kind), monkeypatch)


def test_entropic_gradient_skips_paths_whose_weight_underflows(problem, monkeypatch):
    """At a = 1e4 most softmax weights exp(-a (pnl - min pnl)) are exactly 0,
    so the backward runs on a few rows only; the gradient must not change."""
    objective = RiskSpec("entropic", a=1e4)
    checked = assert_gradients_match_central_differences(problem, objective, monkeypatch)
    for pnl in checked:
        weights = np.exp(-objective.a * (pnl - pnl.min()))
        assert 0 < np.count_nonzero(weights) < pnl.size
    fit = run_fit(problem, "entropic", iterations=200, a=objective.a)
    assert np.isfinite(fit.trajectory).all()
    assert np.isfinite(coefficients(fit.params)).all()


@pytest.mark.parametrize("kind", ["entropic", "cvar"])
def test_gradient_at_a_zero_position_change_takes_sgn_0_as_0(problem, kind, monkeypatch):
    """At the 50/50 start delta = (ens + bs) / 2, so steps 2 and 3 below hold
    the same hedge while their halves differ: |dd_3| has a kink there. The
    first gradient takes sgn(0) = 0, as ``accounting.HedgePnL.vjp`` does; the
    expected value is the chain rule through it, alpha (1 - alpha) = 1/4."""
    paths, ens, bs = problem
    e, b = ens.mean_hedge.delta.copy(), bs.delta.copy()
    e[:, 2], b[:, 2], e[:, 3], b[:, 3] = 0.25, 0.75, 0.375, 0.625
    psi = ens.disagreement
    kinked = (paths, EnsembleOutput(HedgeSchedule(e), psi, psi.mean(axis=1)),
              HedgeSchedule(b))
    (coefs, grad), = gradients_during_fit(kinked, RiskSpec(kind), monkeypatch, iterations=1)
    assert coefs == [0.0, 0.0]
    account = HedgePnL(paths.spot, COST.cost_rate, STRIKE)
    pnl = account.pnl((e + b) * 0.5)
    assert (account.changes[:, 3] == 0.0).all()
    g_pnl = np.empty_like(pnl)
    RiskSpec(kind).loss(pnl, g_pnl)
    g_z = account.vjp(g_pnl) * (b - e) * 0.25
    assert grad == pytest.approx([g_z.sum(), (g_z * psi).sum()], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("size", ["problem", "large_problem"])
@pytest.mark.parametrize("kind", KINDS)
def test_reported_objective_equals_the_oracle(request, size, kind):
    """Iteration k of a fit reports the objective at the coefficients after
    k steps, which must equal entropic_risk or -cvar of compute_pnl of the
    blended schedule: the fit's P&L is the reports' P&L. Step 0 is the
    50/50 blend, zero coefficients."""
    problem = request.getfixturevalue(size)
    objective = RiskSpec(kind)
    for k in (0, 1, 7, 30):
        coefs = coefficients(run_fit(problem, kind, iterations=k).params) if k else [0.0, 0.0]
        reported = run_fit(problem, kind, iterations=k + 1).trajectory[-1]
        assert reported == pytest.approx(objective_at(problem, coefs, objective)[0],
                                         rel=1e-12, abs=0.0), k


def test_fit_never_builds_a_tape(problem, monkeypatch):
    """The fit differentiates in closed form: no LSTM step, no reverse sweep."""
    def no_tape(*args, **kwargs):
        raise AssertionError("fit_blend used the LSTM cell or its backward")

    monkeypatch.setattr(ad, "lstm_cell", no_tape)
    monkeypatch.setattr(ad, "backward", no_tape)
    for kind in ("entropic", "cvar"):
        assert len(run_fit(problem, kind, iterations=3).trajectory) == 3


def test_mismatched_shapes_raise(problem):
    paths, ens, bs = problem
    short = HedgeSchedule(bs.delta[:-1])
    with pytest.raises(ParameterError):
        fit_blend(paths, ens, short, COST, STRIKE, RiskSpec("cvar"), iterations=1)
    with pytest.raises(ParameterError):
        fit_blend(paths, ens.take(np.arange(10)), bs, COST, STRIKE, RiskSpec("cvar"),
                  iterations=1)


@pytest.mark.parametrize("kwargs, message", [
    ({"iterations": 0}, "iterations must be >= 1, got 0"),
    ({"iterations": 10.0}, "iterations must be an integer, got 10.0"),
    ({"iterations": True}, "iterations must be an integer, got True"),
    ({"step_size": -1.0}, "step_size must lie in (0, inf), got -1.0"),
    ({"step_size": 0.0}, "step_size must lie in (0, inf), got 0.0"),
    ({"step_size": float("nan")}, "step_size must be a finite real number, got nan"),
    ({"strike": float("nan")}, "strike must be a finite real number, got nan"),
    ({"strike": -1.0}, "strike must lie in (0, inf), got -1.0"),
    ({"strike": True}, "strike must be a finite real number, got True"),
], ids=["zero-iterations", "float-iterations", "bool-iterations", "negative-step",
        "zero-step", "nan-step", "nan-strike", "negative-strike", "bool-strike"])
def test_a_bad_iteration_count_step_size_or_strike_is_refused(problem, kwargs, message):
    """Zero iterations once gave a fit whose to_json raised IndexError, a
    negative step climbed the objective, a NaN strike surfaced as
    NumericalDivergenceError, and a negative or bool strike fitted."""
    paths, ens, bs = problem
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        fit_blend(paths, ens, bs, COST, **{"strike": STRIKE, "objective": RiskSpec("cvar"),
                                           "iterations": 1, "step_size": 0.05, **kwargs})


@pytest.mark.parametrize("fraction, message", [
    (True, "must be a finite real number, got True"),
    (float("nan"), "must be a finite real number, got nan"),
    ("0.5", "must be a finite real number, got '0.5'"),
    (1.0, "must lie in (0, 1), got 1.0"),
], ids=["bool", "nan", "string", "one"])
def test_a_train_fraction_outside_the_unit_interval_is_refused(problem, fraction, message):
    with pytest.raises(ParameterError, match=f"^train_fraction {re.escape(message)}$"):
        train_eval_split(problem[0], fraction, seed=0)


def test_no_training_paths_raise(problem):
    paths, ens, bs = problem
    none = np.arange(0)
    with pytest.raises(ParameterError, match="at least one training path"):
        fit_blend(paths.take(none), ens.take(none), bs.take(none), COST, STRIKE,
                  RiskSpec("cvar"), iterations=1)


def test_non_finite_objective_raises(problem):
    paths, ens, bs = problem
    psi = ens.disagreement.copy()
    psi[3, 2] = np.nan
    broken = EnsembleOutput(ens.mean_hedge, psi, psi.mean(axis=1))
    with pytest.raises(NumericalDivergenceError, match="iteration 0"):
        fit_blend(paths, broken, bs, COST, STRIKE, RiskSpec("entropic"), iterations=5)


@pytest.mark.parametrize("kind", ["mean"])
def test_a_risk_measure_that_is_not_an_objective_raises(problem, kind):
    paths, ens, bs = problem
    with pytest.raises(ParameterError, match=f"unknown blend objective '{kind}'"):
        fit_blend(paths, ens, bs, COST, STRIKE, RiskSpec(kind), iterations=1)
