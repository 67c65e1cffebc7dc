"""The hedger's LSTM step, its hand-written reverse sweep, and Adam.

:func:`lstm_cell` is the one cell step of ``hedger._infer``, the one rollout
of inference and training. :func:`backward` is backpropagation through time
by hand: from g_delta, the gradient of the loss in the hedge ratios (closed
form, by ``accounting.HedgePnL`` and ``risk.entropic_risk``), it sweeps
the steps in reverse over the gates and cell states a saving forward kept,
recomputing tanh(c) and h from them, and returns the parameter gradients.
:class:`Adam` updates plain arrays (training's and the blend fit's).

Everything stays in the parameters' dtype: float32 parameters, state and
g_delta give float32 gradients.
"""

from __future__ import annotations

import numpy as np


def lstm_cell(xh, weights, biases, c_prev, i, f, o, g, tanh_c, c, h) -> None:
    """One LSTM step of B paths, written into the (B, H) buffers it is handed.

    ``xh`` is the (B, in + H) cell input, the previous hidden state last.
    ``weights`` and ``biases`` hold, per gate in the order i, f, o, g, its
    columns of the stacked weight [w_ih; w_hh] and of the bias, contiguous,
    with the sigmoid gates' columns halved: sigmoid(x) = (tanh(x / 2) + 1) /
    2, and halving is exact and commutes with the rounding of every product,
    FMA and sum (barring subnormals). Each gate is its own GEMM into its
    buffer; the bias is added, then tanh, and for the sigmoid gates +1 and
    ×0.5. Then c = f c_prev + i g, tanh_c = tanh(c) and h = o tanh(c).

    ``c`` may be ``c_prev`` and ``tanh_c`` may be ``g``, so inference reuses
    one set of buffers at every step; a saving forward hands step t's slices
    of its workspaces for i, f, o, g and c instead (see ``hedger._infer``).
    """
    for gate, w, b in zip((i, f, o, g), weights, biases):
        np.matmul(xh, w, out=gate)
        gate += b
        np.tanh(gate, out=gate)
    for gate in (i, f, o):
        gate += 1.0
        gate *= 0.5
    np.multiply(c_prev, f, out=c)
    np.multiply(i, g, out=tanh_c)
    c += tanh_c
    np.tanh(c, out=tanh_c)
    np.multiply(o, tanh_c, out=h)


def backward(params: dict[str, np.ndarray], saved, g_delta: np.ndarray) -> list[np.ndarray]:
    """Gradients of sum(g_delta * delta) in the parameters, in ``hedger.PARAM_NAMES`` order.

    ``saved`` is what a saving forward of the (B, n_steps) hedge ratios
    delta kept: the (n_steps, B, in) cell inputs of layer 0 (the step's
    inputs and the previous hedge ratio), and per layer a (5, n_steps, B, H)
    workspace of the gates i, f, o, g and the cell state c, in this order.
    Per step, delta_t = h_top @ w_out + b_out.

    tanh(c) and h = o tanh(c) are recomputed as the forward computed them
    (``np.tanh`` of the contiguous c slice, then ``np.multiply(o, tanh_c)``),
    so they are its values bit for bit. Each is computed once per layer and
    step: at step t the sweep makes step t-1's, whose h is step t's recurrent
    input h_prev, and carries them to step t-1, in two (2, B, H) buffers per
    layer that swap roles every step. So the working memory beyond the
    saved state and the gradients is a few (B, 4H) and (B, H) arrays,
    whatever n_steps.

    The sweep runs t = n-1 … 0, and within a step from the head down the
    layers. The gradient into c starts at zeros. Per cell, with dh and dc
    the incoming gradients:
    dc += dh o (1 - tanh²c); d_pre = [dc g i(1-i) | dc c_prev f(1-f) |
    dh tanh(c) o(1-o) | dc i (1-g²)]; the input's gradient is d_pre @ [w_ih;
    w_hh].T, c_prev's is dc f, and the stacked weight's is one xh.T @ d_pre
    GEMM on the contiguous xh = [input | h_prev], split into w_ih and w_hh at
    the end. Each weight's per-step gradients are summed from t = n-1 down,
    the first one taken as it is. The products are grouped as written, so
    the gradients keep the bits the tests pin.
    """
    inputs, cells = saved
    if g_delta.shape != inputs.shape[1::-1]:
        raise ValueError(f"seed gradient of shape {g_delta.shape} for hedge ratios of "
                         f"shape {inputs.shape[1::-1]}")
    n_paths, n = g_delta.shape
    n_layers, hidden = len(cells), cells[0].shape[-1]
    # per layer [tanh(c), h] at step t (now) and at step t-1 (then)
    now = [np.empty((2, n_paths, hidden), dtype=cells[k].dtype) for k in range(n_layers)]
    then = [np.empty_like(buffer) for buffer in now]

    def recompute(k, t, into):
        np.tanh(cells[k][4, t], out=into[0])
        np.multiply(cells[k][2, t], into[0], out=into[1])

    for k in range(n_layers):
        recompute(k, n - 1, now[k])
    stacked = [np.concatenate([params[f"w_ih_{k}"], params[f"w_hh_{k}"]])
               for k in range(n_layers)]
    w_out = params["w_out"]
    zeros = np.zeros((n_paths, hidden), dtype=g_delta.dtype)
    d_c = [zeros] * n_layers  # into c_k[t], from step t+1
    d_h = [None] * n_layers  # into h_k[t] through step t+1's recurrent input
    d_delta = None  # into delta[t] through step t+1's input
    totals = None  # per layer d[w_ih; w_hh] and d b, then d w_out and d b_out

    for t in range(n - 1, -1, -1):
        if t:
            for k in range(n_layers):
                recompute(k, t - 1, then[k])
        d_head = g_delta[:, t : t + 1]
        d_head = d_head.copy() if d_delta is None else d_head + d_delta
        parts = [None] * (2 * n_layers) + [now[-1][1].T @ d_head, d_head.sum(axis=0)]
        dh = d_head @ w_out.T
        for k in range(n_layers - 1, -1, -1):
            if d_h[k] is not None:
                dh = dh + d_h[k]
            i, f, o, g, _ = cells[k][:, t]
            tc = now[k][0]
            c_prev, h_prev = (cells[k][4, t - 1], then[k][1]) if t else (zeros, zeros)
            dc = d_c[k] + dh * o * (1.0 - tc**2)
            d_pre = np.empty((n_paths, 4 * hidden), dtype=g_delta.dtype)
            d_pre[:, :hidden] = dc * g * (i * (1.0 - i))
            d_pre[:, hidden : 2 * hidden] = dc * c_prev * (f * (1.0 - f))
            d_pre[:, 2 * hidden : 3 * hidden] = dh * tc * (o * (1.0 - o))
            d_pre[:, 3 * hidden :] = dc * i * (1.0 - g**2)
            d_xh = d_pre @ stacked[k].T
            below = inputs[t] if k == 0 else now[k - 1][1]
            xh = np.concatenate([below, h_prev], axis=1)
            parts[2 * k : 2 * k + 2] = xh.T @ d_pre, d_pre.sum(axis=0)
            d_c[k] = dc * f
            d_h[k] = d_xh[:, below.shape[1] :]
            if k:
                dh = d_xh[:, :hidden]
            else:
                d_delta = d_xh[:, below.shape[1] - 1 : below.shape[1]]
        now, then = then, now
        if totals is None:
            totals = parts
        else:
            for total, part in zip(totals, parts):
                total += part

    grads = []
    for k in range(n_layers):
        grads += [*np.split(totals[2 * k], [params[f"w_ih_{k}"].shape[0]]), totals[2 * k + 1]]
    return grads + totals[2 * n_layers :]


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
