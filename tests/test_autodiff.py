import numpy as np
import pytest
from scipy.special import expit

from hedgeblend import autodiff as ad
from hedgeblend.autodiff import Adam, Tensor


def numerical_grad(fn, arrays, index, h=1e-6):
    """Central finite differences of scalar fn w.r.t. arrays[index]."""
    grad = np.zeros_like(arrays[index])
    flat = arrays[index].reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + h
        up = fn(arrays)
        flat[i] = original - h
        down = fn(arrays)
        flat[i] = original
        out[i] = (up - down) / (2 * h)
    return grad


def check_op(build, shapes, seed=0, tol=1e-6):
    """Compare reverse-mode grads of a scalarised op against FD for each input."""
    gen = np.random.default_rng(seed)
    arrays = [gen.normal(0.5, 1.0, size=s) for s in shapes]
    weights = None

    def scalar_fn(arrs):
        tensors = [Tensor(a) for a in arrs]
        out = build(*tensors)
        nonlocal weights
        if weights is None:
            weights = gen.normal(size=out.data.shape)
        return float((out.data * weights).sum())

    value = scalar_fn(arrays)  # fixes the projection weights
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    ad.backward(out, weights)
    for i, t in enumerate(tensors):
        fd = numerical_grad(scalar_fn, arrays, i)
        assert np.allclose(t.grad, fd, atol=tol), f"input {i}: {t.grad} vs {fd}"
    return value


class TestElementwiseOps:
    def test_add_with_broadcast(self):
        check_op(lambda a, b: a + b, [(3, 4), (1, 4)])
        check_op(lambda a, b: a + b, [(3, 4), ()])

    def test_matmul(self):
        check_op(lambda a, b: a @ b, [(4, 3), (3, 5)])


class TestShapeOps:
    def test_concat_axis0_and_axis1(self):
        check_op(lambda a, b: ad.concat([a, b], axis=1), [(3, 2), (3, 4)])
        check_op(lambda a, b: ad.concat([a, b], axis=0), [(2, 3), (4, 3)])

    def test_getitem(self):
        check_op(lambda a: a[:, 1:3], [(3, 5)])
        check_op(lambda a: a[1], [(3, 5)])


class TestLstmCell:
    def test_gradients_match_finite_differences(self):
        """Two input pieces, so the split input gradient is checked too."""
        B, inp, H = 5, 3, 4

        def build(x, h_prev, c_prev, w, b):
            h_new, c_new = ad.lstm_cell([x, h_prev], c_prev, w, b)
            return ad.concat([h_new, c_new], axis=1)

        check_op(build, [(B, inp), (B, H), (B, H), (inp + H, 4 * H), (4 * H,)], tol=1e-5)

    def test_forward_matches_reference_equations(self):
        gen = np.random.default_rng(1)
        B, inp, H = 4, 3, 5
        xh = gen.normal(size=(B, inp + H))
        c_prev = gen.normal(size=(B, H))
        w = gen.normal(size=(inp + H, 4 * H))
        b = gen.normal(size=4 * H)
        pieces = [Tensor(xh[:, :inp]), Tensor(xh[:, inp:])]
        h_new, c_new = ad.lstm_cell(pieces, Tensor(c_prev), Tensor(w), Tensor(b))
        pre = xh @ w + b
        i, f, o = expit(pre[:, :H]), expit(pre[:, H : 2 * H]), expit(pre[:, 2 * H : 3 * H])
        g = np.tanh(pre[:, 3 * H :])
        c_ref = f * c_prev + i * g
        assert np.allclose(c_new.data, c_ref, atol=1e-12)
        assert np.allclose(h_new.data, o * np.tanh(c_ref), atol=1e-12)

    def test_no_grad_inputs_build_no_graph(self):
        gen = np.random.default_rng(2)
        h_new, c_new = ad.lstm_cell(
            [Tensor(gen.normal(size=(2, 3))), Tensor(gen.normal(size=(2, 4)))],
            Tensor(gen.normal(size=(2, 4))),
            Tensor(gen.normal(size=(7, 16))),
            Tensor(gen.normal(size=16)),
        )
        assert not h_new.requires_grad and not c_new.requires_grad
        assert h_new._parents == ()


class TestEngine:
    def test_multi_consumer_accumulation(self):
        x = Tensor(np.array([[1.0, 2.0, -1.0]]), requires_grad=True)
        w = np.arange(9.0).reshape(3, 3)
        y = x @ Tensor(w) + x
        ad.backward(y, np.ones((1, 3)))
        assert np.array_equal(x.grad, w.sum(axis=1)[None, :] + 1.0)

    def test_constant_graph_requires_no_grad(self):
        a = Tensor(np.ones((2, 2)))
        out = (a @ a + 1.0) @ a
        assert not out.requires_grad and out._parents == ()

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3), (3, 2)])
    def test_backward_rejects_a_seed_of_the_wrong_shape(self, shape):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        y = x @ Tensor(np.ones((2, 3)))
        with pytest.raises(ValueError, match="seed gradient of shape"):
            ad.backward(y, np.ones(shape))
        assert x.grad is None

    def test_float32_graph_stays_float32(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        y = x @ x + x
        assert y.data.dtype == np.float32
        ad.backward(y, np.ones((2, 2), dtype=np.float32))
        assert x.grad.dtype == np.float32

    def test_integer_input_promoted_to_float64(self):
        assert Tensor(np.arange(3)).data.dtype == np.float64

    def test_sigmoid_matches_scipy(self):
        x = np.linspace(-30, 30, 1001)
        assert np.allclose(ad._sigmoid_inplace(x.copy()), expit(x), atol=1e-12)


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
