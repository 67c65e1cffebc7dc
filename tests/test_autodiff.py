"""The LSTM cell against the textbook equations, the hand-written reverse
sweep against finite differences through a two-layer rollout, and Adam."""

import numpy as np
import pytest
from scipy.special import expit

from hedgeblend import autodiff as ad
from hedgeblend import hedger
from hedgeblend.autodiff import Adam
from hedgeblend.errors import ParameterError
from hedgeblend.market import CALIBRATIONS, PathGrid, simulate_heston

STRIKE = 1.0


def saving_rollout(params, n_paths, n_steps):
    """Hedge ratios of a saving forward on fresh Heston paths, and its state."""
    paths = simulate_heston(CALIBRATIONS["baseline"], PathGrid(n_steps=n_steps, maturity=0.5),
                            n_paths, seed=4)
    saved = hedger._workspaces(params, paths.n_paths, paths.n_steps)
    return paths, hedger._infer(params, paths, STRIKE, saved=saved), saved


class TestLstmCell:
    def test_forward_matches_reference_equations(self):
        """Every buffer the cell writes, in float64 against scipy's expit; then
        inference's aliasing (c is c_prev, tanh(c) over g) gives the same c and h."""
        gen = np.random.default_rng(1)
        B, inp, H = 4, 3, 5
        xh = np.concatenate([gen.normal(size=(inp + H, B)), np.ones((1, B))])
        c_prev = gen.normal(size=(H, B))
        w = gen.normal(size=(inp + H, 4 * H))
        b = gen.normal(size=4 * H)
        halves = np.repeat([0.5, 0.5, 0.5, 1.0], H)[:, None]
        weight = np.concatenate([w, b[None]]).T * halves
        gates, tc, c, h = np.empty((4 * H, B)), np.empty((H, B)), np.empty((H, B)), np.empty((H, B))
        ad.lstm_cell(xh, weight, c_prev, gates, tc, c, h)
        i, f, o, g = gates.reshape(4, H, B)

        pre = w.T @ xh[:-1] + b[:, None]
        i_ref, f_ref, o_ref = (expit(pre[k * H : (k + 1) * H]) for k in range(3))
        g_ref = np.tanh(pre[3 * H :])
        c_ref = f_ref * c_prev + i_ref * g_ref
        for got, ref in ((i, i_ref), (f, f_ref), (o, o_ref), (g, g_ref), (c, c_ref),
                         (tc, np.tanh(c_ref)), (h, o_ref * np.tanh(c_ref))):
            assert np.allclose(got, ref, rtol=0, atol=1e-12)

        c_reused, gates, h_reused = c_prev.copy(), np.empty((4 * H, B)), np.empty((H, B))
        ad.lstm_cell(xh, weight, c_reused, gates, gates[3 * H :], c_reused, h_reused)
        assert c_reused.tobytes() == c.tobytes() and h_reused.tobytes() == h.tobytes()

    @pytest.mark.parametrize("n_steps", [1, 5])
    def test_gradients_match_finite_differences(self, n_steps):
        """backward against central differences of sum(g_delta * delta) in every
        parameter of a float64 two-layer, 4-unit hedger over 1 or 5 steps of 6
        paths; on one step the sweep's first step is also its last."""
        params = hedger.init_model(3, hidden=4).params
        paths, _, saved = saving_rollout(params, 6, n_steps)
        g_delta = np.random.default_rng(2).normal(size=(6, n_steps))
        grads = ad.backward(params, saved, g_delta)
        assert len(grads) == len(hedger.PARAM_NAMES)

        def objective():
            return float((g_delta * hedger._infer(params, paths, STRIKE)).sum())

        step = 1e-6
        for name, grad in zip(hedger.PARAM_NAMES, grads):
            assert grad.shape == params[name].shape, name
            theta, fd = params[name].reshape(-1), np.empty(params[name].size)
            for k in range(theta.size):
                original = theta[k]
                theta[k] = original + step
                up = objective()
                theta[k] = original - step
                down = objective()
                theta[k] = original
                fd[k] = (up - down) / (2 * step)
            assert np.allclose(grad.reshape(-1), fd, rtol=1e-6, atol=1e-8), name


class TestEngine:
    @pytest.mark.parametrize("shape", [(), (3,), (2, 3), (3, 2)])
    def test_backward_rejects_a_seed_of_the_wrong_shape(self, shape):
        """g_delta must have the (paths, steps) shape of the saved rollout's hedge ratios."""
        params = hedger.init_model(3, hidden=4).params
        _, delta, saved = saving_rollout(params, 3, 4)
        assert delta.shape == (3, 4)
        with pytest.raises(ParameterError, match="seed gradient of shape"):
            ad.backward(params, saved, np.ones(shape))

    @pytest.mark.parametrize("n_paths, n_steps", [(3, 5), (2, 4)], ids=["steps", "paths"])
    def test_backward_rejects_a_tape_of_another_rollout(self, n_paths, n_steps):
        """Layer tapes whose step or path count is not the seed gradient's are refused."""
        params = hedger.init_model(3, hidden=4).params
        _, _, (inputs, _) = saving_rollout(params, 3, 4)
        _, _, (_, other) = saving_rollout(params, n_paths, n_steps)
        with pytest.raises(ParameterError, match="tape of shapes"):
            ad.backward(params, (inputs, other), np.ones((3, 4)))

    def test_float32_graph_stays_float32(self):
        """float32 parameters: the saving forward keeps float32 state, and
        backward from a float32 g_delta gives float32 gradients."""
        model = hedger.init_model(3, hidden=4)
        params = {k: v.astype(np.float32) for k, v in model.params.items()}
        _, delta, (inputs, tapes) = saving_rollout(params, 3, 4)
        arrays = [delta, inputs, *(array for tape in tapes for array in tape)]
        assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
        grads = ad.backward(params, (inputs, tapes), np.ones((3, 4), dtype=np.float32))
        assert {g.dtype for g in grads} == {np.dtype(np.float32)}


class TestAdam:
    def test_quadratic_convergence(self):
        """(p - 3)^2 from 0; step updates p in place."""
        p = np.array(0.0)
        opt = Adam([p], lr=0.1)
        for _ in range(400):
            opt.step([2.0 * (p - 3.0)])
        assert abs(float(p) - 3.0) < 1e-3

    def test_deterministic(self):
        def run():
            p = np.array([1.0, -2.0])
            opt = Adam([p], lr=0.05)
            for _ in range(50):
                opt.step([2.0 * p])
            return p.copy()

        assert np.array_equal(run(), run())

    def test_first_step_moves_each_parameter_by_lr_against_its_gradient_sign(self):
        """Bias correction makes the first update lr * g / (|g| + eps)."""
        p, q = np.array([1.0, 1.0]), np.array(2.0)
        Adam([p, q], lr=0.5).step([np.array([3.0, -0.25]), np.array(-1.0)])
        assert np.allclose(p, [0.5, 1.5], rtol=0, atol=1e-7)
        assert np.isclose(float(q), 2.5, rtol=0, atol=1e-7)

    def test_one_gradient_per_parameter(self):
        opt = Adam([np.zeros(2), np.zeros(3)])
        with pytest.raises(ValueError):
            opt.step([np.ones(2)])
