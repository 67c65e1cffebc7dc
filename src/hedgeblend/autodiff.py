"""The hedger's LSTM step, its hand-written reverse sweep, and Adam.

:func:`lstm_cell` is the one cell step of ``hedger._infer``, the one rollout
of inference and training. :func:`backward` is backpropagation through time
by hand: from g_delta, the gradient of the loss in the hedge ratios (closed
form, by ``accounting.HedgePnL.vjp`` and ``risk.entropic_risk``), it sweeps
the steps in reverse over the gates a saving forward kept, rebuilding the
cell states one segment at a time from the forward's checkpoints and
recomputing tanh(c) and h from them, and returns the parameter gradients.
:class:`Adam` updates plain arrays (training's and the blend fit's).

The state is feature-major: a cell's input, gates, c and h hold one column
per path, (features, B), so a step's four gates are one (4H, K) @ (K, B)
GEMM and every element-wise op runs over rows B values long, the layout of
cuDNN's recurrent kernels (Appleyard, Kočiský and Blunsom, 2016).
The backward keeps that layout: per layer and step, one GEMM against the
forward's operand [input; h_prev; 1] gives the weight's gradient and, as
its last row, the bias's. Everything stays in the parameters' dtype:
float32 parameters, state and g_delta give float32 gradients.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError


def lstm_cell(xh, weight, c_prev, gates, tanh_c, c, h) -> None:
    """One LSTM step of B paths, written into the buffers it is handed.

    ``xh`` is the (K, B) cell input: the layer's input, the previous hidden
    state, then a row of ones. ``weight`` is the (4H, K) transposed stacked
    weight [w_ih; w_hh; b].T, the bias its last column, with the rows of the
    sigmoid gates i, f and o halved: sigmoid(x) = (tanh(x / 2) + 1) / 2, and
    halving is exact and commutes with the rounding of every product, FMA
    and sum (barring subnormals). One GEMM writes the (4H, B) ``gates``, rows
    i, f, o, g, bias included; then tanh, and over the 3H sigmoid rows +1
    and ×0.5. Then, on (H, B) row blocks, c = f c_prev + i g, tanh_c =
    tanh(c) and h = o tanh(c).

    OpenBLAS sums each output of a GEMM over K in order, so the bias, the
    last term, is one rounded addition to the rounded sum of the others: the
    bits of a GEMM followed by a separate bias add, which costs a pass over
    the gates about as long as the GEMM's. (Float32 hedge ratios recorded
    with a GEMM per gate and a separate bias add kept their bits at batches
    of 64, 128, 500, 1,000, 2,496, 2,512 and 5,000 paths, not at 1, 7, 129
    or 200, where OpenBLAS computes a small product otherwise.) A zero
    weight against another row of ones adds an exact zero.

    ``c`` may be ``c_prev`` and ``tanh_c`` may be the g rows of ``gates``,
    so every rollout reuses one c per layer at every step; a saving forward
    hands step t of its gate tape as ``gates`` (see ``hedger._infer``).
    """
    np.matmul(weight, xh, out=gates)
    np.tanh(gates, out=gates)
    i, f, o, g = gates.reshape(4, len(c), -1)
    sigmoids = gates[: 3 * len(c)]
    sigmoids += 1.0
    sigmoids *= 0.5
    np.multiply(c_prev, f, out=c)
    np.multiply(i, g, out=tanh_c)
    c += tanh_c
    np.tanh(c, out=tanh_c)
    np.multiply(o, tanh_c, out=h)


def _cell_states(tape, segment: int) -> np.ndarray:
    """Cell states of one segment of a layer's tape, rebuilt into its segment buffer.

    ``tape`` is a layer's (gates, checkpoints, buffer) as a saving forward
    kept them (see :func:`backward`). Segment s covers the steps s K to
    min((s + 1) K, n_steps) - 1, K being the buffer's length; it starts from
    checkpoint s - 1, or from zeros for s = 0, and runs the forward's own
    operations, c = f c_prev, then += i g (``lstm_cell``), so each c has the
    forward's bits. Returns the view of the buffer holding them, (steps, H, B).
    """
    gates, checkpoints, buffer = tape
    start = segment * len(buffer)
    states = buffer[: min(len(buffer), len(gates) - start)]
    c_prev = checkpoints[segment - 1] if segment else np.zeros_like(buffer[0])
    i_g = np.empty_like(buffer[0])
    for t, c in enumerate(states, start):
        i, f, _, g = gates[t].reshape(4, len(c), -1)
        np.multiply(c_prev, f, out=c)
        np.multiply(i, g, out=i_g)
        c += i_g
        c_prev = c
    return states


def backward(params: dict[str, np.ndarray], saved, g_delta: np.ndarray) -> list[np.ndarray]:
    """Gradients of sum(g_delta * delta) in the parameters, in ``hedger.PARAM_NAMES`` order.

    ``saved`` is what a saving forward of the (B, n_steps) hedge ratios
    delta kept, feature-major: the (n_steps, in, B) cell inputs of layer 0
    (the step's inputs and the previous hedge ratio), and per layer a tape of
    three arrays: the gates, (n_steps, 4H, B), rows i, f, o and g; the cell
    state c at the end of every segment of K steps but the last,
    (ceil(n_steps / K) - 1, H, B); and a (K, H, B) buffer the sweep rebuilds
    each segment's c into (:func:`_cell_states`). Per step, delta_t = h_top.T
    @ w_out + b_out. ParameterError refuses a g_delta of another shape than
    delta's, and a tape whose step or path count is not g_delta's.

    The sweep needs c_{n-1}, c_{n-2}, …, c_0 in this order, so each segment
    is rebuilt once per layer, when the sweep enters it. tanh(c) and h = o
    tanh(c) are recomputed as the forward computed them (``np.tanh`` of the
    contiguous c, then ``np.multiply(o, tanh_c)``), so they are its values
    bit for bit. Each is computed once per layer and step: at step t the
    sweep makes step t-1's, whose h is step t's recurrent input h_prev, and
    carries them to step t-1, in two (2, H, B) buffers per layer that swap
    roles every step. So the working memory beyond the saved state and the
    gradients is a few (4H, B) and (H, B) arrays, whatever n_steps.

    The sweep runs t = n-1 … 0, and within a step from the head down the
    layers. The gradient into c starts at zeros. Per cell, with dh and dc
    the incoming gradients:
    dc += dh o (1 - tanh²c); d_pre = [dc g i(1-i); dc c_prev f(1-f);
    dh tanh(c) o(1-o); dc i (1-g²)], one (4H, B) block; the input's gradient
    is [w_ih; w_hh] @ d_pre, c_prev's is dc f, and the weight's and the
    bias's are one xh @ d_pre.T GEMM against xh = [input; h_prev; 1], the
    forward's operand layout, whose row of ones makes the bias's gradient
    the product's last row. Each layer's per-step products are summed from
    t = n-1 down, the first one taken as it is, and split into w_ih, w_hh
    and b at the end.

    Every operation of a cell writes into a buffer allocated once per call:
    per layer xh, its gradient (whose h rows, summed in place with the
    recurrent gradient, are the dh of the layer below) and the two
    weight-gradient blocks; shared by the layers the head's dh, dc, d_pre
    and the gates' slopes, s(1-s) made once over the 3H sigmoid rows and
    1-g² over the g rows, so that d_pre is four products and one
    multiplication by the slopes. The products keep their
    grouping: (dh o)(1 - tanh²c) + the incoming dc, (dc g)(i(1-i)), (dc
    c_prev)(f(1-f)), (dh tanh c)(o(1-o)) and (dc i)(1-g²), each slope
    computed as (1-s)s, and a product of two rounded values does not depend
    on their order. So every gradient but the LSTM biases' keeps the bits of
    the written-out form; the biases', summed over the paths in the GEMM's
    order rather than pairwise by ``sum``, differ from it by float rounding.
    """
    inputs, tapes = saved
    if g_delta.shape != (inputs.shape[2], len(inputs)):
        raise ParameterError(f"seed gradient of shape {g_delta.shape} for hedge ratios of "
                             f"shape {(inputs.shape[2], len(inputs))}")
    n_paths, n = g_delta.shape
    for gates, checkpoints, buffer in tapes:
        if (gates.shape[::2] != (n, n_paths) or buffer.shape[2] != n_paths
                or checkpoints.shape[::2] != (-(-n // len(buffer)) - 1, n_paths)):
            raise ParameterError(f"tape of shapes {gates.shape}, {checkpoints.shape}, "
                                 f"{buffer.shape} for {n_paths} paths of {n} steps")
    n_layers, hidden, dtype = len(tapes), tapes[0][2].shape[1], g_delta.dtype
    # per layer [tanh(c), h] at step t (now) and at step t-1 (then)
    now = [np.empty((2, hidden, n_paths), dtype=tapes[k][0].dtype) for k in range(n_layers)]
    then = [np.empty_like(buffer) for buffer in now]
    rebuilt = [(None, None)] * n_layers  # per layer, the segment its buffer holds, and its c

    def cell_state(k, t):
        segment, offset = divmod(t, len(tapes[k][2]))
        if rebuilt[k][0] != segment:
            rebuilt[k] = segment, _cell_states(tapes[k], segment)
        return rebuilt[k][1][offset]

    def recompute(k, t, into):
        np.tanh(cell_state(k, t), out=into[0])
        np.multiply(tapes[k][0][t, 2 * hidden : 3 * hidden], into[0], out=into[1])

    for k in range(n_layers):
        recompute(k, n - 1, now[k])
    stacked = [np.concatenate([params[f"w_ih_{k}"], params[f"w_hh_{k}"]])
               for k in range(n_layers)]
    inputs_of = [len(params[f"w_ih_{k}"]) for k in range(n_layers)]
    w_out = params["w_out"]
    # Per layer, allocated once: the operand [input; h_prev; 1], the gradient
    # into its first two blocks, and the step's and the summed d[w_ih; w_hh; b].
    xh = [np.ones((len(w) + 1, n_paths), dtype=dtype) for w in stacked]
    d_xh = [np.empty((len(w), n_paths), dtype=dtype) for w in stacked]
    parts = [np.empty((len(w) + 1, 4 * hidden), dtype=dtype) for w in stacked]
    totals = [np.empty_like(part) for part in parts]
    # Shared by the layers: the head's dh, the cell's dc, d_pre and the slopes.
    d_top, dc, slope_c = (np.empty((hidden, n_paths), dtype=dtype) for _ in range(3))
    d_pre, slopes = (np.empty((4 * hidden, n_paths), dtype=dtype) for _ in range(2))
    zeros = np.zeros((hidden, n_paths), dtype=dtype)  # c_prev and h_prev at t = 0
    d_c = [np.zeros_like(zeros) for _ in range(n_layers)]  # into c_k[t], from step t+1
    d_h = [None] * n_layers  # into h_k[t] through step t+1's recurrent input
    d_delta = None  # into delta[t] through step t+1's input
    head = None  # d w_out and d b_out

    for t in range(n - 1, -1, -1):
        if t:
            for k in range(n_layers):
                recompute(k, t - 1, then[k])
        d_head = g_delta[:, t]
        d_head = d_head.copy() if d_delta is None else d_head + d_delta
        head_parts = [(now[-1][1] @ d_head)[:, None], d_head.sum(keepdims=True)]
        dh = np.multiply(w_out, d_head, out=d_top)  # (H, 1) times the (B,) row
        for k in range(n_layers - 1, -1, -1):
            if d_h[k] is not None:
                dh += d_h[k]
            gates = tapes[k][0][t]
            i, f, o, g = gates.reshape(4, hidden, n_paths)
            tc = now[k][0]
            np.multiply(tc, tc, out=slope_c)
            np.subtract(1.0, slope_c, out=slope_c)
            np.multiply(dh, o, out=dc)
            dc *= slope_c
            dc += d_c[k]
            np.multiply(dc, g, out=d_pre[:hidden])
            np.multiply(dc, cell_state(k, t - 1) if t else zeros, out=d_pre[hidden : 2 * hidden])
            np.multiply(dh, tc, out=d_pre[2 * hidden : 3 * hidden])
            np.multiply(dc, i, out=d_pre[3 * hidden :])
            np.subtract(1.0, gates[: 3 * hidden], out=slopes[: 3 * hidden])
            slopes[: 3 * hidden] *= gates[: 3 * hidden]
            np.multiply(g, g, out=slopes[3 * hidden :])
            np.subtract(1.0, slopes[3 * hidden :], out=slopes[3 * hidden :])
            d_pre *= slopes
            np.matmul(stacked[k], d_pre, out=d_xh[k])
            below = inputs_of[k]
            xh[k][:below] = inputs[t] if k == 0 else now[k - 1][1]
            xh[k][below:-1] = then[k][1] if t else zeros
            if t == n - 1:
                np.matmul(xh[k], d_pre.T, out=totals[k])
            else:
                totals[k] += np.matmul(xh[k], d_pre.T, out=parts[k])
            np.multiply(dc, f, out=d_c[k])
            d_h[k], dh = d_xh[k][below:], d_xh[k][:hidden]  # dh into the layer below
            if k == 0:
                d_delta = d_xh[k][below - 1]
        now, then = then, now
        if head is None:
            head = head_parts
        else:
            for total, part in zip(head, head_parts):
                total += part

    grads = []
    for below, total in zip(inputs_of, totals):
        grads += [total[:below], total[below:-1], total[-1]]
    return grads + head


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
