"""The training objective's tape-side P&L, its entropic weights and its value
against their numpy oracles in ``accounting`` and ``risk``."""

import numpy as np
import pytest

from hedgeblend import autodiff as ad
from hedgeblend import hedger
from hedgeblend.accounting import CostSpec, HedgeSchedule, compute_pnl
from hedgeblend.autodiff import Tensor
from hedgeblend.market import CALIBRATIONS, MarketPaths, PathGrid, simulate_heston
from hedgeblend.risk import entropic_risk


@pytest.fixture
def random_case(rng_np):
    n_paths, n_steps = 40, 12
    spot = np.exp(rng_np.normal(0, 0.05, size=(n_paths, n_steps + 1)).cumsum(axis=1))
    delta = rng_np.normal(0.3, 0.4, size=(n_paths, n_steps))
    return spot, delta


def numpy_pnl(spot, delta):
    paths = MarketPaths(
        spot=spot.copy(), variance=np.zeros_like(spot),
        grid=PathGrid(n_steps=spot.shape[1] - 1, maturity=0.5), seed=0,
    )
    return compute_pnl(paths, HedgeSchedule(delta), CostSpec(5e-4), strike=1.0).pnl


class TestPnlOnTape:
    def test_matches_numpy_accounting(self, random_case):
        spot, delta = random_case
        taped = hedger.pnl_on_tape(Tensor(delta), spot, 5e-4, 1.0)
        assert np.allclose(taped.data, numpy_pnl(spot, delta), atol=1e-12)

    def test_gradient_matches_finite_differences(self, random_case):
        """The VJP of a fixed linear functional u . pnl against central
        differences of the numpy accounting."""
        spot, delta = random_case
        h = 1e-6
        u = np.random.default_rng(1).normal(size=delta.shape[0])
        t = Tensor(delta.copy(), requires_grad=True)
        ad.backward(ad.tsum(hedger.pnl_on_tape(t, spot, 5e-4, 1.0) * u))
        flat = delta.reshape(-1)
        gen = np.random.default_rng(0)
        for idx in gen.choice(flat.size, size=25, replace=False):
            original = flat[idx]
            flat[idx] = original + h
            up = u @ numpy_pnl(spot, delta)
            flat[idx] = original - h
            down = u @ numpy_pnl(spot, delta)
            flat[idx] = original
            fd = (up - down) / (2 * h)
            got = t.grad.reshape(-1)[idx]
            assert abs(got - fd) <= 1e-4 * max(abs(fd), abs(got), 1e-3)


class TestEntropicObjective:
    def test_value_matches_risk_module(self, monkeypatch):
        """The loss of a sharded float64 batch is the entropic risk of the
        numpy accounting's P&L of the inference rollout."""
        paths = simulate_heston(CALIBRATIONS["baseline"], PathGrid(n_steps=8, maturity=0.5), 40,
                                seed=3)
        model = hedger.init_model(4, hidden=4)
        monkeypatch.setattr(hedger, "SHARD_PATHS", 16)
        loss = hedger._chunked_backward(hedger._param_tensors(model), paths, CostSpec(5e-4),
                                        1.0, 1.0, model.hidden)
        schedule = hedger.forward_rollout(model, paths, 1.0)
        pnl = compute_pnl(paths, schedule, CostSpec(5e-4), 1.0).pnl
        assert loss == pytest.approx(entropic_risk(pnl, 1.0), abs=1e-12)

    def test_gradient_is_negative_softmax(self, rng_np):
        """-entropic_weights against central differences of risk.entropic_risk."""
        pnl = rng_np.normal(0, 1, size=64)
        h = 1e-6
        fd = np.empty_like(pnl)
        for i in range(pnl.size):
            up, down = pnl.copy(), pnl.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (entropic_risk(up, 1.3) - entropic_risk(down, 1.3)) / (2 * h)
        weights = hedger.entropic_weights(pnl, 1.3)
        assert np.allclose(-weights, fd, atol=1e-8)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
