"""Recurrent hedging network trained end-to-end through the P&L rollout.

Architecture: two stacked LSTM layers (32 hidden units each) and an affine
scalar head emitting an unconstrained hedge ratio. At each step the network
sees (log moneyness, time to expiry, instantaneous vol, previous hedge) and
carries hidden state across the path. Training minimises the entropic risk
of terminal P&L, transaction costs included. The P&L and the loss are
differentiated in closed form: the P&L by ``accounting.HedgePnL`` (the
one accounting, which the reports and the blend fit run too), the loss by
``risk.entropic_risk`` (the blend fit's entropic objective too), and the LSTM
rollout by a hand-written backpropagation through time,
``autodiff.backward``, inside :func:`_chunked_backward`.

One rollout, :func:`_infer`, serves inference and training. Its state is
feature-major, (features, paths), so each layer's step is one GEMM for the
four gates and element-wise ops over whole rows (``autodiff.lstm_cell``).
Inference (:func:`forward_rollout`) reuses its buffers at every
step; training's saving forward keeps each step's gates and the cell state
c at the end of every segment of ceil(sqrt(n_steps)) steps, the tape that
the backward reads (it rebuilds c segment by segment from the gates, and
recomputes tanh(c) and h), and gives the same hedge ratios bit for bit.
``ensemble.aggregate`` runs inference on threads, at most one per usable
CPU, as (member, path-block) jobs whose blocks are cut at multiples of 16
rows, with results identical to a serial full-batch loop.

Every epoch of B paths is split into ``ceil(B / min(SHARD_PATHS,
TAPE_BATCH_LIMIT))`` contiguous path shards, a count that depends only on
the batch size. The shards are rolled out and backpropagated on threads,
and their gradients are summed in shard order, so for a given number of
BLAS threads a run's results do not depend on the CPU count, the thread
count or the timing (see :func:`_chunked_backward`). An epoch of at most
``TAPE_BATCH_LIMIT`` paths uses each shard's tape only from its rollout
to its backward: one job per shard backpropagates the shard's own softmax
as soon as the shard is rolled out, and the shard gradients are weighted
by the shards' shares of the batch's exp(-a pnl) mass. A larger epoch
rolls its shards out twice. Either way a finished shard hands its tape to
the next one of the epoch, so an epoch allocates at most one tape per
thread, and frees them when it ends. An epoch of one shard runs on the
calling thread.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import zipfile
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import autodiff as ad
from . import rng
from .accounting import CostSpec, HedgePnL, HedgeSchedule, compute_pnl
from .errors import NumericalDivergenceError, ParameterError, require_integer, require_real
from .market import HestonParams, MarketPaths, PathGrid, simulate_heston
from .risk import entropic_risk
from .threads import check_stopped, run_threads

INPUT_DIM = 4  # log_moneyness, tau, inst_vol, prev_delta
HIDDEN = 32
N_LAYERS = 2

# Most paths whose tape (the state a saving forward keeps for the backward)
# is held at once, on any CPU count. Every epoch is rolled out in shards (see
# SHARD_PATHS) on at most TAPE_BATCH_LIMIT // shard threads (see
# _chunked_backward): 4 threads of 1,250-path shards, so on fewer CPUs the CPU
# count is the cap. An epoch of at most this many paths backpropagates each
# shard in the job that rolled it out, saving, so a thread holds one tape at a
# time; a larger one rolls its shards out without saving and rolls them out
# again, saving, for the backward. On the default 126-step grid the tape holds
# 544 bytes per path per LSTM cell in float32 (feature-major arrays, one
# column per path: the gates' 4·H values, c at 10 segment ends, a 12-step
# segment buffer and the step's inputs; tracemalloc, H = 32), 561 at the
# backward's peak: 0.14 MB per path (two layers), about
# 171 MB per 1,250-path shard. So the peak grows with the CPU count: two
# members' two 5,000-path epochs (train_desk) peak at a median of 440 MB on a
# 2-vCPU host, with two tapes live, and a host with 4 or more CPUs tapes all
# four desk shards at once (about 770 MB).
TAPE_BATCH_LIMIT = 6144

# Paths per training shard: every epoch of B paths is split into
# ceil(B / min(SHARD_PATHS, TAPE_BATCH_LIMIT)) contiguous shards, rolled out
# and backpropagated on threads, or on the calling thread when there is one.
# 1,250 splits the 5,000-path desk epoch and the 20,000-path paper epoch into
# 4 and 16 shards, which 2 or 4 threads share evenly. Each thread tapes one
# shard at a time, so the shard size and the thread count set the peak
# memory: on a 2-vCPU host with one BLAS thread (perfbench), two
# 20,000-path epochs (train_paper_batch) and two members' two 5,000-path
# epochs (train_desk) each peak at about 440 MB.
# ensemble.aggregate's inference blocks are two shards long (see
# ensemble._path_blocks).
SHARD_PATHS = 1250

# Training's Adam step size; its betas are autodiff.Adam's defaults.
STEP_SIZE = 1e-3

PARAM_NAMES = ("w_ih_0", "w_hh_0", "b_0", "w_ih_1", "w_hh_1", "b_1", "w_out", "b_out")


@dataclass
class TrainConfig:
    """Training schedule: one Adam update per epoch on a fresh path batch."""

    epochs: int = 100
    paths_per_epoch: int = 5000
    risk_aversion: float = 1.0
    seed: int = 0

    def __post_init__(self):
        require_integer("epochs", self.epochs, minimum=1)
        require_integer("paths_per_epoch", self.paths_per_epoch, minimum=1)
        require_integer("seed", self.seed, minimum=0)
        require_real("risk_aversion", self.risk_aversion, above=0)


@dataclass
class HedgerModel:
    """Trained (or freshly initialised) hedging network."""

    params: dict[str, np.ndarray]
    seed: int = 0
    loss_history: list[float] = field(default_factory=list)


def _param_shapes(input_dim: int, hidden: int) -> dict[str, tuple]:
    """The shape of each parameter array, in ``PARAM_NAMES`` order."""
    shapes, in_dim = {}, input_dim
    for layer in range(N_LAYERS):
        shapes[f"w_ih_{layer}"] = (in_dim, 4 * hidden)
        shapes[f"w_hh_{layer}"] = (hidden, 4 * hidden)
        shapes[f"b_{layer}"] = (4 * hidden,)
        in_dim = hidden
    return {**shapes, "w_out": (hidden, 1), "b_out": (1,)}


def init_model(seed: int, hidden: int = HIDDEN) -> HedgerModel:
    """Uniform(-k, k) weights with k = 1/sqrt(fan_in), drawn in ``PARAM_NAMES``
    order; zero biases but the LSTM forget gates', which are 1."""
    gen = rng.generator(rng.derive_seed(seed, rng.TAG_INIT))
    params: dict[str, np.ndarray] = {}
    for name, shape in _param_shapes(INPUT_DIM, hidden).items():
        if name.startswith("w_"):
            k = 1.0 / np.sqrt(shape[0])  # the fan-in
            params[name] = gen.uniform(-k, k, size=shape)
        else:
            params[name] = np.zeros(shape)
            if name != "b_out":
                params[name][hidden : 2 * hidden] = 1.0
    return HedgerModel(params=params, seed=seed)


def _infer(
    params: dict[str, np.ndarray],
    paths: MarketPaths,
    strike: float,
    out: np.ndarray | None = None,
    *,
    saved=None,
) -> np.ndarray:
    """Hedge ratios (B, n_steps): the one rollout, of inference and training.

    The state is feature-major, one column per path. Per layer and step it
    calls ``autodiff.lstm_cell``, whose one GEMM makes the layer's four
    gates, bias included. Without ``saved`` every buffer is allocated once
    per call and overwritten at each step: one GEMM operand with rows [x |
    delta_prev | h_0 | 1 | h_1 | 1], of which layer 0 reads the rows [x |
    delta_prev | h_0 | 1] and layer 1 the rows [h_0 | 1 | h_1 | 1], so
    each h is written once, straight into it, and a layer's last row is its
    own row of ones, against its weight's bias column (layer 1's weight has
    a zero column against layer 0's); per layer the (H, B) cell
    state c; shared by the layers, one (4H, B) gate buffer, with tanh(c)
    written over its g rows and, for the head, the top h copied into its i
    rows as a (B, H) array; one float64 row for the step's inputs, computed
    and then cast; and the (B, n_steps) output. So no (n_steps, B) input
    array and no large float64 temporary is ever held, and a worker
    thread's malloc arena does not keep them after the call (``aggregate``'s
    peak RSS).

    ``saved``, when given, makes this the saving forward whose state
    ``autodiff.backward`` reads (see :func:`_workspaces`): an (n_steps,
    INPUT_DIM, B) array that receives each step's layer-0 inputs [x |
    delta_prev], and per layer an (n_steps, 4H, B) gate tape whose step t
    the cell's GEMM writes straight into, and a checkpoint array that
    receives a copy of c at the end of every segment of K steps but the
    last, K being the length of the layer's segment buffer. c itself is
    updated in place, tanh(c) goes into one scratch buffer reused at every
    step, and h straight into the operand, as in the plain forward; the
    backward rebuilds c from the checkpoints and the gates, and recomputes
    tanh(c) and h. The values are those of the plain forward, bit for bit.

    Each layer's weight is built once per call: the transposed stack [w_ih;
    w_hh; b].T, (4H, INPUT_DIM + H + 1) for layer 0 and (4H, 2H + 2) for
    layer 1, with the halving of the sigmoid, sigmoid(x) = (tanh(x/2) + 1) /
    2, folded into its i, f and o rows (see ``autodiff.lstm_cell``). Then c
    = f c + i g, h = o tanh(c), and the head h @ w_out + b_out on the (B, H)
    copy of the top h.

    A path's bits depend on the other paths only through OpenBLAS's tiling
    of the two products. The head h @ w_out, a matrix-vector product, takes
    the rows in groups of 4 and rounds a trailing group of 1-3 rows
    differently (numpy's one-row GEMM is such a product too): row blocks of
    1, 2, 7, 250 and 1,250 paths did not reproduce the full batch's hedge
    ratios. The gate GEMM takes the paths in panels and rounds a trailing
    partial panel, and a small product, differently: a column block of a
    float32 (4H, K) @ (K, B) product whose length is 1-8 modulo 16 did not
    reproduce the full product's columns when it was about 210 paths or
    fewer, and a float64 block did not whenever its length was not a
    multiple of 8. A block that starts at a multiple of 16 reproduces them
    when it is a multiple of 16 long, and when it runs to the batch's end
    it did at every length tried from 267 paths up (in float64 not at 59);
    ``ensemble.aggregate``'s blocks are cut so, and are either the whole
    batch or over 1,200 paths long. With more than one BLAS thread, OpenBLAS
    also splits a GEMM's paths among its threads, so the float64 hedge
    ratios of a batch whose length is not a multiple of 8 depend on the
    BLAS thread count; the float32 ones did not at any batch tried (300,
    1,250 and 5,000 paths).

    ``out``, when given, is a (B, n_steps) array that receives the hedge
    ratios, cast to its dtype; otherwise one in the parameters' dtype is made.
    Raises NumericalDivergenceError naming the first step whose hedge ratio
    is not finite, and ``CancelledError`` at the next step once the
    ``threads.run_threads`` call running it is stopped.
    """
    n_paths, n = paths.n_paths, paths.n_steps
    dtype, hidden = params["w_out"].dtype, params["w_hh_0"].shape[0]
    taus = paths.grid.taus().astype(dtype)
    halves = np.repeat(np.array([0.5, 0.5, 0.5, 1.0], dtype), hidden)[:, None]  # i, f, o, g
    starts = [INPUT_DIM + k * (hidden + 1) for k in range(N_LAYERS)]  # each h's first row
    operand = np.zeros((starts[-1] + hidden + 1, n_paths), dtype=dtype)
    weights, reads, h = [], [], []
    for k, start in enumerate(starts):
        w_ih = params[f"w_ih_{k}"]
        if k:  # a zero column against h_{k-1}'s ones row
            w_ih = np.concatenate([w_ih, np.zeros((1, 4 * hidden), dtype)])
        stacked = np.concatenate([w_ih, params[f"w_hh_{k}"], params[f"b_{k}"][None]])
        weights.append(stacked.T.copy() * halves)  # C-contiguous (4H, K), the bias last
        operand[start + hidden] = 1.0
        reads.append(operand[starts[k - 1] if k else 0 : start + hidden + 1])
        h.append(operand[start : start + hidden])
    c = [np.zeros((hidden, n_paths), dtype=dtype) for _ in range(N_LAYERS)]
    # The plain rollout's gates; a saving forward writes its gates into its
    # tape, so there this buffer is only scratch. In both, tanh(c) goes over
    # the g rows and the head's (B, H) copy of the top h over the i rows,
    # which are dead once the top cell has run.
    gates = np.empty((4 * hidden, n_paths), dtype=dtype)
    scratch, h_top = gates[3 * hidden :], gates[:hidden].reshape(n_paths, hidden)
    head = np.empty((n_paths, 1), dtype=dtype)
    row = np.empty(n_paths)  # one step's float64 input, before its cast
    if out is None:
        out = np.empty((n_paths, n), dtype=dtype)

    for t in range(n):
        check_stopped("rollout stopped at step %d", t)
        np.divide(paths.spot[:, t], strike, out=row)
        operand[0] = np.log(row, out=row)
        operand[1] = taus[t]
        operand[2] = np.sqrt(paths.variance[:, t], out=row)
        if saved is not None:
            saved[0][t] = operand[:INPUT_DIM]
        for layer in range(N_LAYERS):
            if saved is None:
                ad.lstm_cell(reads[layer], weights[layer], c[layer],
                             gates, scratch, c[layer], h[layer])
            else:
                tape, checkpoints, buffer = saved[1][layer]
                ad.lstm_cell(reads[layer], weights[layer], c[layer],
                             tape[t], scratch, c[layer], h[layer])
                if (t + 1) % len(buffer) == 0 and t + 1 < n:
                    checkpoints[t // len(buffer)] = c[layer]
        h_top[...] = h[-1].T
        np.matmul(h_top, params["w_out"], out=head)
        head += params["b_out"]
        if not np.isfinite(head).all():
            raise NumericalDivergenceError(f"non-finite hedge ratio at step {t}")
        out[:, t] = head[:, 0]
        operand[INPUT_DIM - 1] = head[:, 0]
    return out


def _segment_steps(n_steps: int) -> int:
    """Steps per segment of a saving forward's cell-state checkpoints:
    ceil(sqrt(n_steps)), so the checkpoints and the segment buffer hold
    about 2 sqrt(n_steps) of the n_steps cell states."""
    return math.isqrt(n_steps - 1) + 1


def _workspaces(params: dict[str, np.ndarray], paths: MarketPaths) -> tuple:
    """Empty state for a saving :func:`_infer` of ``paths``, feature-major
    and in the parameters' dtype: (n_steps, INPUT_DIM, B) inputs, and per
    layer a tape of three arrays, with K = :func:`_segment_steps`:
    (n_steps, 4H, B) for the gates, rows i, f, o and g, each step's block
    written by one GEMM; (ceil(n_steps / K) - 1, H, B) for c at the end of
    every segment of K steps but the last; and the (K, H, B) buffer that
    ``autodiff.backward`` rebuilds one segment's c into. So the tape holds
    about 4·H + 2·H/sqrt(n_steps) values per path and cell, and the buffer,
    held with it, keeps the backward's working memory flat in n_steps.
    tanh(c) and h = o tanh(c) are not kept: the backward recomputes them
    from o and the rebuilt c, bit for bit.

    The layers' gates are one allocation. glibc maps a block above its
    largest mmap threshold, 32 MiB, and returns it to the system when it is
    freed, but a smaller mapped block, once freed, raises the threshold to
    its size, so that later blocks below it stay in the heap. A 500-path
    tape's gates are 31 MiB per layer: allocated per layer, they left
    pipeline_tiny's later bodies peaking at 143.5 MB against 132.8 MB.

    :func:`_chunked_backward` allocates one state per thread and hands it
    from shard to shard within the call, so a state is written over by
    the saving forwards of several shards."""
    n, n_paths = paths.n_steps, paths.n_paths
    dtype, hidden, steps = params["w_out"].dtype, params["w_hh_0"].shape[0], _segment_steps(n)
    gates = np.empty((N_LAYERS, n, 4 * hidden, n_paths), dtype)
    return (np.empty((n, INPUT_DIM, n_paths), dtype),
            [(gates[k],
              np.empty((-(-n // steps) - 1, hidden, n_paths), dtype),
              np.empty((steps, hidden, n_paths), dtype))
             for k in range(N_LAYERS)])


def _narrowed(saved, n_paths: int) -> tuple:
    """A :func:`_workspaces` state viewed as one of ``n_paths`` paths, at
    most its own: each array's leading values, in its shape with the last
    axis ``n_paths`` long, so C-contiguous as a fresh one (the whole state
    when it is that long)."""
    def narrowed(array):
        shape = (*array.shape[:-1], n_paths)
        return array.reshape(-1)[: math.prod(shape)].reshape(shape)

    inputs, tapes = saved
    return narrowed(inputs), [tuple(map(narrowed, tape)) for tape in tapes]


def forward_rollout(
    model: HedgerModel, paths: MarketPaths, strike: float, *, out=None
) -> HedgeSchedule:
    """Inference-only rollout through :func:`_infer`; no saved state, no gradients.

    Reads the model and allocates its own buffers, so concurrent calls on
    threads are safe (``ensemble.aggregate`` makes one per member and block
    of paths). A block of paths gives the full batch's rows bit for bit when
    it starts at a multiple of 16 rows and is a multiple of 16 long or runs
    to the end (see :func:`_infer`). ``out``, when given, is a float64 (B,
    n_steps) array, possibly a row view of a larger one, that receives the
    hedge ratios and becomes the schedule's ``delta``; otherwise one is made.
    """
    if out is None:
        out = np.empty((paths.n_paths, paths.n_steps))  # the schedule's float64, cast per step
    _infer(model.params, paths, strike, out=out)
    return HedgeSchedule(out, f"hedger_{model.seed}")


def train_hedger(
    config: TrainConfig,
    market: HestonParams,
    grid: PathGrid,
    cost: CostSpec,
    strike: float,
    callback=None,
) -> HedgerModel:
    """Train one hedger; deterministic for a fixed config.

    Each epoch simulates a fresh batch (seed mixed from config.seed and the
    epoch index), rolls the network through it, and applies one Adam update
    of the entropic risk of terminal P&L, whose gradient in the hedge ratios
    is closed-form. Raises NumericalDivergenceError naming the epoch if the
    loss leaves the reals, a non-finite hedge ratio included.

    Every epoch of B paths goes through :func:`_chunked_backward`: it is
    split into ``ceil(B / min(SHARD_PATHS, TAPE_BATCH_LIMIT))`` contiguous
    shards, rolled out and backpropagated on threads (one shard on the
    calling thread). When ``B <= TAPE_BATCH_LIMIT`` each shard is
    backpropagated from its own softmax as soon as it is rolled out, and the
    shard gradients are weighted by the shards' shares of the batch's
    exp(-a pnl) mass; a larger epoch backpropagates re-rolled shards from the
    full batch's softmax. Either way the shard gradients are summed in shard
    order and equal one full-batch backward up to float rounding. The loss
    and the parameters do not depend on the CPU count, and no more than
    ``TAPE_BATCH_LIMIT`` paths have their tapes held at once.

    Training runs in float32, gradients included (the rollout is the hot
    loop; the objective tolerances sit far above single precision); only the
    loss and its gradient in the P&L are float64.

    ``callback(epoch, model)``, when given, fires after each update; useful
    for periodic checkpoint evaluation.
    """
    model = init_model(config.seed)
    model.params = {k: v.astype(np.float32) for k, v in model.params.items()}
    adam = ad.Adam([model.params[k] for k in PARAM_NAMES], lr=STEP_SIZE)

    a = config.risk_aversion
    for epoch in range(config.epochs):
        paths = simulate_heston(
            market, grid, config.paths_per_epoch,
            seed=rng.derive_seed(config.seed, rng.TAG_EPOCH_PATHS, epoch),
        )
        loss, grads = _chunked_backward(model.params, paths, cost, strike, a)
        if not np.isfinite(loss):
            raise NumericalDivergenceError(f"hedger: training loss diverged at epoch {epoch}")
        adam.step(grads)
        model.loss_history.append(loss)
        if callback is not None:
            callback(epoch, model)
    return model


def _chunked_backward(
    params: dict[str, np.ndarray],
    paths: MarketPaths,
    cost: CostSpec,
    strike: float,
    a: float,
) -> tuple[float, list[np.ndarray] | None]:
    """Full-batch entropic loss and gradient of sharded paths, on threads.

    The one gradient of training: returns the loss and the gradients in
    ``PARAM_NAMES`` order, or the loss and None when it is not finite (NaN
    when a shard's hedge ratio is not). Every batch of B paths is split into
    ``ceil(B / min(SHARD_PATHS, TAPE_BATCH_LIMIT))`` contiguous shards; a
    batch of at most that many paths is one shard. Each shard is rolled out
    by :func:`_infer`, which only reads the parameters, and its P&L is
    ``accounting.HedgePnL``'s in the parameters' dtype. The loss is
    ``risk.entropic_risk`` of the concatenated P&L's float64 cast. A seed g
    = d loss / d pnl is mapped through the shard P&L's VJP (``HedgePnL.vjp``,
    g times the ``HedgePnL.weights`` the blend fit also chains) to g_delta =
    d loss / d delta in the parameters' dtype, and ``autodiff.backward``
    sweeps the shard's saved state (its tape) back from it.

    When ``B <= TAPE_BATCH_LIMIT`` each shard's job is one pass: the saving
    forward, the shard's risk r_s = ``entropic_risk`` of its P&L's float64
    cast with g_s = d r_s / d pnl, and at once the backward from g_s, so its
    tape is free for the next shard when the job ends. The backward is
    linear in its seed, and the full batch's d loss / d pnl on shard s is
    g_s times w_s, the shard's share of the batch's exp(-a pnl) mass: w_s =
    n_s exp(a r_s) / sum_k n_k exp(a r_k), computed with the largest a r_k
    + log n_k subtracted (the streaming softmax of Milakov and Gimelshein,
    2018), so a shard whose weight leaves float64's range gets 0. The
    weighted shard gradients are summed in shard order: the result equals
    one full-batch backward up to float rounding. One shard has w = 1.0
    exactly, so its gradient is its backward's, bit for bit.

    Otherwise pass one rolls the shards out without saving and gives g from
    the concatenated P&L, and pass two rolls each shard out again, saving,
    and backpropagates g's rows, so both passes count as tape passes. The
    shard gradients are summed in shard order: the result equals one
    full-batch backward up to float summation order.

    Each pass is one ``threads.run_threads`` call on at most
    ``TAPE_BATCH_LIMIT // shard`` threads, so at most ``TAPE_BATCH_LIMIT``
    paths have their tapes held at once, one shard runs on the calling
    thread, and the result does not depend on the thread count or timing;
    when a pass is stopped, a backward that has begun runs to its end.
    float32 parameters give float32 gradients; only the loss, the risks, the
    seeds and the weights are float64.

    Tapes pass from shard to shard within the call: a shard whose backward
    has ended puts its tape on the call's free list, and the next shard to
    start a saving forward takes it from there, or allocates one with
    :func:`_workspaces` when the list is empty, so a call allocates at most
    one tape per thread, each of the first shard's length (a shorter last
    shard takes a :func:`_narrowed` view of it). The list goes when the call
    returns, so no tape outlives its epoch: kept across a whole training,
    two idle tapes sat through each next epoch's simulation, and two
    20,000-path epochs (train_paper_batch) peaked at 555 MB against 442 MB.
    A saving forward writes every value its backward reads, so what a tape
    held before changes no bit; reusing it spares the first touch of fresh
    pages: a float32 1,250-path saving forward took 109-121 ms on a fresh
    tape and 92-97 ms on a reused one (medians of 7, one BLAS thread, a
    2-vCPU host).
    """
    n_paths = paths.n_paths
    size = min(SHARD_PATHS, TAPE_BATCH_LIMIT)
    shards = [(lo, min(lo + size, n_paths)) for lo in range(0, n_paths, size)]
    one_pass = n_paths <= TAPE_BATCH_LIMIT
    dtype = params["w_out"].dtype
    spare = []  # tapes of finished shards, for the next; list.pop and .append are atomic

    def forward(shard, save):
        sub = paths.rows(*shard)
        tape = saved = None
        if save:
            try:
                tape = spare.pop()
            except IndexError:
                tape = _workspaces(params, paths.rows(*shards[0]))
            saved = _narrowed(tape, sub.n_paths)
        delta = _infer(params, sub, strike, saved=saved)
        account = HedgePnL(sub.spot.astype(dtype), cost.cost_rate, strike)
        return tape, saved, account, account.pnl(delta)

    def backward(tape, saved, g_delta):  # then hands the tape to the next shard
        grads = ad.backward(params, saved, g_delta)
        spare.append(tape)
        return grads

    def taped_shard(shard):
        tape, saved, account, shard_pnl = forward(shard, True)
        g_shard = np.empty(len(shard_pnl))
        risk = entropic_risk(shard_pnl.astype(np.float64), a, grad=g_shard)
        return shard_pnl, risk, backward(tape, saved, account.vjp(g_shard))

    limit = TAPE_BATCH_LIMIT // size  # threads: at most TAPE_BATCH_LIMIT paths taped at once
    try:
        if one_pass:
            pnls, risks, grads = zip(*run_threads(taped_shard, shards, limit))
        else:
            pnls = run_threads(lambda shard: forward(shard, False)[3], shards, limit)
    except NumericalDivergenceError:  # a hedge ratio left the reals, and so did the loss
        return float("nan"), None
    pnl = np.concatenate(pnls).astype(np.float64)
    g_pnl = None if one_pass else np.empty(n_paths)
    loss = entropic_risk(pnl, a, grad=g_pnl)
    if not np.isfinite(loss):
        return loss, None

    if one_pass:
        x = a * np.array(risks) + np.log([hi - lo for lo, hi in shards])
        mass = np.exp(x - x.max())
        weights = [float(w) for w in mass / mass.sum()]  # a numpy scalar would promote float32
        return loss, [reduce(np.add, (g * w for g, w in zip(per_shard, weights)))
                      for per_shard in zip(*grads)]

    def shard_grads(shard):  # pass two rolls the shard out again, saving
        tape, saved, account, _ = forward(shard, True)
        return backward(tape, saved, account.vjp(g_pnl[slice(*shard)]))

    grads = run_threads(shard_grads, shards, limit)
    return loss, [reduce(np.add, per_shard) for per_shard in zip(*grads)]


def network_price(
    model: HedgerModel, paths: MarketPaths, cost: CostSpec, strike: float, a: float = 1.0
) -> float:
    """Entropic indifference price of the hedged short call.

    The cash that zeroes the entropic risk of (price + P&L); by translation
    this is exactly the entropic risk of the hedged P&L itself.
    """
    schedule = forward_rollout(model, paths, strike)
    report = compute_pnl(paths, schedule, cost, strike)
    return entropic_risk(report.pnl, a)


def save_model(model: HedgerModel, filename: str) -> None:
    """Checkpoint: flat parameter arrays plus a JSON metadata record, in an
    ``.npz`` archive written to ``filename`` as given (no suffix is added).

    The archive is written to ``<filename>.tmp`` and then renamed over
    ``filename`` (``os.replace``), so a write that fails or is interrupted
    leaves an earlier checkpoint of that name as it was, and the temporary
    file is removed. ``pipeline.train_members`` removes only ``member_*.npz``
    files, which the temporary name never matches."""
    meta = {
        "format": "hedgeblend-checkpoint-v1",
        "input_dim": INPUT_DIM,
        "hidden": model.params["w_hh_0"].shape[0],
        "n_layers": N_LAYERS,
        "seed": model.seed,
        "loss_history": model.loss_history,
    }
    partial = f"{filename}.tmp"
    try:
        with open(partial, "wb") as fh:  # a path, unlike a file, would gain ".npz"
            np.savez(fh, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                     **model.params)
        os.replace(partial, filename)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)


def load_model(filename: str) -> HedgerModel:
    """Read a :func:`save_model` checkpoint; ParameterError names a file that
    is not a readable archive, lacks the metadata or a parameter array, whose
    metadata's input_dim or n_layers is not this network's or whose hidden is
    not the width of its ``w_hh_0``, or whose arrays do not have the
    :func:`_param_shapes` of that width."""
    try:
        # np.load hands a file it opened to the zip reader, which leaves it
        # open when the archive is truncated; a file of ours closes either way.
        with open(filename, "rb") as fh, np.load(fh) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            params = {name: data[name].copy() for name in PARAM_NAMES}
        width = params["w_hh_0"].shape[0]
        if (meta.get("format") != "hedgeblend-checkpoint-v1" or meta["input_dim"] != INPUT_DIM
                or meta["n_layers"] != N_LAYERS or meta["hidden"] != width):
            raise ValueError(f"format {meta.get('format')!r}, input_dim {meta.get('input_dim')}, "
                             f"n_layers {meta.get('n_layers')}, hidden {meta.get('hidden')} "
                             f"over arrays of width {width}")
        model = HedgerModel(
            params=params,
            seed=int(meta["seed"]),
            loss_history=[float(x) for x in meta["loss_history"]],
        )
    except (zipfile.BadZipFile, EOFError, ValueError, KeyError, TypeError,
            AttributeError, IndexError) as exc:
        # ValueError: numpy refuses to unpickle a non-archive; bad JSON or numbers.
        # IndexError: a w_hh_0 that is a scalar.
        raise ParameterError(f"{filename} is not a hedger checkpoint: {exc!r}") from exc
    expected = _param_shapes(INPUT_DIM, width)
    wrong = [f"{name} {params[name].shape}, not {expected[name]}" for name in PARAM_NAMES
             if params[name].shape != expected[name]]
    if wrong:
        raise ParameterError(f"{filename} does not hold a hedger of width {width}: "
                             f"{'; '.join(wrong)}")
    return model
