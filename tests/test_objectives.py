"""The tape-side P&L and risk objectives against their numpy oracles."""

import numpy as np
import pytest

from hedgeblend import autodiff as ad
from hedgeblend.accounting import CostSpec, HedgeSchedule, compute_pnl
from hedgeblend.autodiff import Tensor
from hedgeblend.market import MarketPaths, PathGrid
from hedgeblend.objectives import entropic_objective, entropic_weights, pnl_on_tape
from hedgeblend.risk import entropic_risk


@pytest.fixture
def random_case(rng_np):
    n_paths, n_steps = 40, 12
    spot = np.exp(rng_np.normal(0, 0.05, size=(n_paths, n_steps + 1)).cumsum(axis=1))
    delta = rng_np.normal(0.3, 0.4, size=(n_paths, n_steps))
    return spot, delta


class TestPnlOnTape:
    def test_matches_numpy_accounting(self, random_case):
        spot, delta = random_case
        paths = MarketPaths(
            spot=spot.copy(), variance=np.zeros_like(spot),
            grid=PathGrid(n_steps=spot.shape[1] - 1, maturity=0.5), seed=0,
        )
        report = compute_pnl(paths, HedgeSchedule(delta), CostSpec(5e-4), strike=1.0)
        taped = pnl_on_tape(Tensor(delta), spot, 5e-4, 1.0)
        assert np.allclose(taped.data, report.pnl, atol=1e-12)

    def test_gradient_matches_finite_differences(self, random_case):
        spot, delta = random_case
        h = 1e-6

        def loss_value(d):
            return float(entropic_objective(pnl_on_tape(Tensor(d), spot, 5e-4, 1.0), 1.0).data)

        t = Tensor(delta.copy(), requires_grad=True)
        ad.backward(entropic_objective(pnl_on_tape(t, spot, 5e-4, 1.0), 1.0))
        flat = delta.reshape(-1)
        gen = np.random.default_rng(0)
        for idx in gen.choice(flat.size, size=25, replace=False):
            original = flat[idx]
            flat[idx] = original + h
            up = loss_value(delta)
            flat[idx] = original - h
            down = loss_value(delta)
            flat[idx] = original
            fd = (up - down) / (2 * h)
            got = t.grad.reshape(-1)[idx]
            assert abs(got - fd) <= 1e-4 * max(abs(fd), abs(got), 1e-3)


class TestEntropicObjective:
    def test_value_matches_risk_module(self, rng_np):
        pnl = rng_np.normal(-0.05, 0.1, size=500)
        value = float(entropic_objective(Tensor(pnl), 1.0).data)
        assert value == pytest.approx(entropic_risk(pnl, 1.0), abs=1e-12)

    def test_gradient_is_negative_softmax(self, rng_np):
        pnl = rng_np.normal(0, 1, size=64)
        t = Tensor(pnl, requires_grad=True)
        ad.backward(entropic_objective(t, 1.3))
        assert np.allclose(t.grad, -entropic_weights(pnl, 1.3), atol=1e-12)
        assert t.grad.sum() == pytest.approx(-1.0, abs=1e-10)

