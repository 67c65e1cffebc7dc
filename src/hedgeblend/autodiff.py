"""Minimal tape-based reverse-mode differentiation over numpy arrays.

Just enough machinery to backpropagate through a recurrent hedging rollout:
addition with broadcasting, matmul, concat/slice, and a fused LSTM cell. The
tape covers the rollout only (``hedger._rollout``): the hedger seeds
:func:`backward` at the hedge ratios with g_delta, the closed-form gradient
of the entropic loss in them (``accounting.HedgePnL`` and
``risk._objective_and_grad``). Graphs are built only when an input requires
gradients, so inference-style forward passes run at plain numpy speed with
no caching. :class:`Adam` updates plain arrays and knows nothing of the tape.

Not supported on purpose: higher-order gradients, in-place ops, dtype
promotion games. A Tensor keeps float32 or float64 data as given and makes
anything else float64; each op then follows numpy's promotion, so a float32
graph stays float32 while no float64 operand enters it. The hedger's
training graphs take none: g_delta is cast to the parameters' dtype (tested
in ``tests/test_hedger.py``).
"""

from __future__ import annotations

import numpy as np


def _sigmoid_inplace(x: np.ndarray) -> np.ndarray:
    """sigmoid via the tanh identity; numpy's tanh is SIMD-vectorised where
    scipy's expit is not, and this is the rollout's hottest element-wise op."""
    x *= 0.5
    np.tanh(x, out=x)
    x += 1.0
    x *= 0.5
    return x


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Array node on the tape. ``_vjp`` maps the output gradient to parent gradients.

    float32 and float64 data keep their dtype; anything else is promoted to
    float64. Ops follow numpy's promotion (see the module docstring).
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _node(data, parents, vjp) -> "Tensor":
        if any(p.requires_grad for p in parents):
            out = Tensor(data, requires_grad=True)
            out._parents = tuple(parents)
            out._vjp = vjp
            return out
        return Tensor(data)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        return Tensor._node(
            self.data + other.data,
            (self, other),
            lambda g: (_unbroadcast(g, self.shape), _unbroadcast(g, other.shape)),
        )

    def __matmul__(self, other):
        other = as_tensor(other)
        return Tensor._node(
            self.data @ other.data,
            (self, other),
            lambda g: (g @ other.data.T, self.data.T @ g),
        )

    def __getitem__(self, key):
        def vjp(g):
            full = np.zeros_like(self.data)
            full[key] = g
            return (full,)

        return Tensor._node(self.data[key], (self,), vjp)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# -- shape ops -----------------------------------------------------------------


def concat(tensors: list[Tensor], axis: int = 1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    widths = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + widths)

    def vjp(g):
        slicer = [slice(None)] * g.ndim
        grads = []
        for i in range(len(tensors)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(slicer)])
        return tuple(grads)

    return Tensor._node(np.concatenate([t.data for t in tensors], axis=axis), tensors, vjp)


def lstm_cell(inputs: list[Tensor], c_prev: Tensor, w: Tensor, b: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM step; returns (h_new, c_new). Gate order i, f, o, g.

    ``inputs`` are the column pieces of the cell input, the previous hidden
    state last, and ``w`` the matching stacked weight block, so the whole
    pre-activation is one GEMM on their concatenation ``xh``. Fused into a
    single node (packed [h | c] output) so a long rollout tapes one backward
    closure per step; the hand-derived backward is validated against finite
    differences in the test suite.

    Per path the tape keeps only what the backward reads: the gates i, f, o,
    g and tanh(c) (5·H values) and the packed output (2·H). The
    pre-activation and ``xh`` are not kept. The backward rebuilds ``xh`` for
    the weight gradient by concatenating the inputs' data again, which the
    tape holds anyway, so one concatenation per step replaces a stored
    (B, in+H) copy.
    """
    hidden = c_prev.shape[1]
    pre = np.concatenate([t.data for t in inputs], axis=1) @ w.data
    pre += b.data
    # Contiguous copies of the gate blocks: every later product touches them,
    # and strided views defeat SIMD.
    i = _sigmoid_inplace(pre[:, :hidden].copy())
    f = _sigmoid_inplace(pre[:, hidden : 2 * hidden].copy())
    o = _sigmoid_inplace(pre[:, 2 * hidden : 3 * hidden].copy())
    g_ = pre[:, 3 * hidden :].copy()
    np.tanh(g_, out=g_)
    c_new = f * c_prev.data
    c_new += i * g_
    tc = np.tanh(c_new)

    parents = (*inputs, c_prev, w, b)
    if not any(p.requires_grad for p in parents):
        return Tensor(o * tc), Tensor(c_new)

    n_paths, dtype = pre.shape[0], pre.dtype
    packed_data = np.empty((n_paths, 2 * hidden), dtype=dtype)
    np.multiply(o, tc, out=packed_data[:, :hidden])
    packed_data[:, hidden:] = c_new
    offsets = np.cumsum([0] + [t.shape[1] for t in inputs])

    def vjp(grad):
        dh = np.ascontiguousarray(grad[:, :hidden])
        dc = grad[:, hidden:] + dh * o * (1.0 - tc**2)
        d_pre = np.empty((n_paths, 4 * hidden), dtype=dtype)
        d_pre[:, :hidden] = dc * g_ * (i * (1.0 - i))                     # input gate
        d_pre[:, hidden : 2 * hidden] = dc * c_prev.data * (f * (1.0 - f))  # forget gate
        d_pre[:, 2 * hidden : 3 * hidden] = dh * tc * (o * (1.0 - o))     # output gate
        d_pre[:, 3 * hidden :] = dc * i * (1.0 - g_**2)                   # candidate
        d_xh = d_pre @ w.data.T
        xh = np.concatenate([t.data for t in inputs], axis=1)
        return (
            *(d_xh[:, lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])),
            dc * f,
            xh.T @ d_pre,
            d_pre.sum(axis=0),
        )

    packed = Tensor._node(packed_data, parents, vjp)
    return packed[:, :hidden], packed[:, hidden:]


# -- backward ------------------------------------------------------------------


def backward(root: Tensor, grad: np.ndarray) -> None:
    """Accumulate d sum(grad * root) / d leaf into ``.grad`` of every
    requires-grad leaf; ``grad`` must have the root's shape.

    Intermediate gradients and closures are released as soon as consumed, so
    peak memory stays near the forward tape's footprint.
    """
    grad = np.asarray(grad)
    if grad.shape != root.shape:
        raise ValueError(f"seed gradient of shape {grad.shape} for a root of shape {root.shape}")
    order: list[Tensor] = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))

    root.grad = grad
    for node in reversed(order):
        if node._vjp is None:
            continue
        grads = node._vjp(node.grad)
        for parent, g in zip(node._parents, grads):
            if not parent.requires_grad or g is None:
                continue
            if parent.grad is None:
                parent.grad = np.array(g, copy=True)
            else:
                parent.grad += g
        node.grad = None
        node._vjp = None
        node._parents = ()


class Adam:
    """Adam over a list of arrays, which :meth:`step` updates in place."""

    def __init__(self, params: list[np.ndarray], lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads: list[np.ndarray]) -> None:
        """One update from ``grads``, one per parameter and in its order."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p, g, m, v in zip(self.params, grads, self.m, self.v, strict=True):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g**2
            m_hat = m / (1.0 - b1**self.t)
            v_hat = v / (1.0 - b2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
