"""The closed-form P&L and objective gradients of training
(``accounting.HedgePnL``, whose forward is also ``accounting.compute_pnl``,
and ``risk._objective_and_grad``, which the blend fit shares) against central
differences of the reports' P&L and the oracles ``risk.entropic_risk`` and
``risk.cvar``; and the training loss against the same oracles. The blend fit's own P&L
kernel is tested in ``test_blend.py``."""

import numpy as np
import pytest

from hedgeblend import hedger
from hedgeblend.accounting import CostSpec, HedgePnL, HedgeSchedule, compute_pnl
from hedgeblend.market import CALIBRATIONS, MarketPaths, PathGrid, simulate_heston
from hedgeblend.risk import _objective_and_grad, cvar, entropic_risk


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


class TestHedgePnL:
    def test_matches_compute_pnl(self, random_case):
        spot, delta = random_case
        account = HedgePnL(spot, 5e-4, 1.0)
        assert np.allclose(account.pnl(delta), numpy_pnl(spot, delta), rtol=0, atol=1e-12)
        flat = np.zeros_like(delta)  # unchanged positions: zero costs between entry and unwind
        assert np.allclose(account.pnl(flat), numpy_pnl(spot, flat), rtol=0, atol=1e-12)

    def test_vjp_matches_central_differences(self, random_case):
        """The VJP of a fixed linear functional u . pnl, u of either sign,
        against central differences of compute_pnl."""
        spot, delta = random_case
        h = 1e-6
        u = np.random.default_rng(1).normal(size=delta.shape[0])
        account = HedgePnL(spot, 5e-4, 1.0)
        account.pnl(delta)
        grad = account.vjp(u)
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
            got = grad.reshape(-1)[idx]
            assert abs(got - fd) <= 1e-4 * max(abs(fd), abs(got), 1e-3)

    def test_float32_spot_keeps_float32(self, random_case):
        spot, delta = random_case
        account = HedgePnL(spot.astype(np.float32), 5e-4, 1.0)
        pnl = account.pnl(delta.astype(np.float32))
        assert pnl.dtype == np.float32
        assert account.vjp(np.ones(pnl.size)).dtype == np.float32


class TestObjectiveAndGrad:
    def test_entropic_value_and_softmax_gradient(self, rng_np):
        pnl = rng_np.normal(-0.05, 0.1, size=500)
        g = np.empty_like(pnl)
        value = _objective_and_grad(pnl, "entropic", g, a=1.3)
        assert value == pytest.approx(entropic_risk(pnl, 1.3), abs=1e-12)
        x = -1.3 * pnl
        weights = np.exp(x - x.max())
        assert np.allclose(g, -weights / weights.sum(), atol=1e-15)

    def test_cvar_gradient_is_minus_one_over_k_on_the_tail(self, rng_np):
        pnl = rng_np.normal(0, 1, size=40)
        g = np.empty_like(pnl)
        value = _objective_and_grad(pnl, "cvar", g, level=0.1)
        k = 4  # ceil(0.1 * 40)
        expected = np.zeros_like(pnl)
        expected[np.argsort(pnl)[:k]] = -1.0 / k
        assert np.array_equal(g, expected)
        assert value == pytest.approx(-cvar(pnl, 0.1), abs=1e-12)

    def test_cvar_over_the_whole_sample_is_minus_the_mean(self, rng_np):
        pnl = rng_np.normal(0, 1, size=10)
        g = np.empty_like(pnl)
        value = _objective_and_grad(pnl, "cvar", g, level=0.95)  # k = 10
        assert value == pytest.approx(-pnl.mean(), abs=1e-12)
        assert np.array_equal(g, np.full_like(pnl, -0.1))


class TestEntropicObjective:
    def test_value_matches_risk_module(self, monkeypatch):
        """The loss of a sharded float64 batch is the entropic risk of the
        numpy accounting's P&L of the inference rollout."""
        paths = simulate_heston(CALIBRATIONS["baseline"], PathGrid(n_steps=8, maturity=0.5), 40,
                                seed=3)
        model = hedger.init_model(4, hidden=4)
        monkeypatch.setattr(hedger, "SHARD_PATHS", 16)
        loss, _ = hedger._chunked_backward(model.params, paths, CostSpec(5e-4), 1.0, 1.0,
                                           model.hidden)
        schedule = hedger.forward_rollout(model, paths, 1.0)
        pnl = compute_pnl(paths, schedule, CostSpec(5e-4), 1.0).pnl
        assert loss == pytest.approx(entropic_risk(pnl, 1.0), abs=1e-12)

    def test_gradient_is_negative_softmax(self, rng_np):
        """The entropic gradient against central differences of
        risk.entropic_risk; minus the softmax weights, so it sums to -1."""
        pnl = rng_np.normal(0, 1, size=64)
        h = 1e-6
        fd = np.empty_like(pnl)
        for i in range(pnl.size):
            up, down = pnl.copy(), pnl.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (entropic_risk(up, 1.3) - entropic_risk(down, 1.3)) / (2 * h)
        g = np.empty_like(pnl)
        _objective_and_grad(pnl, "entropic", g, a=1.3)
        assert np.allclose(g, fd, atol=1e-8)
        assert g.sum() == pytest.approx(-1.0, abs=1e-12)
