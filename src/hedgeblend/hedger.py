"""Recurrent hedging network trained end-to-end through the P&L rollout.

Architecture: two stacked LSTM layers (32 hidden units each) and an affine
scalar head emitting an unconstrained hedge ratio. At each step the network
sees (log moneyness, time to expiry, instantaneous vol, previous hedge) and
carries hidden state across the path. Training minimises the entropic risk
of terminal P&L, transaction costs included. The P&L and the loss are
differentiated in closed form: the P&L by ``accounting.HedgePnL`` (whose
forward is also the reports' ``compute_pnl``), the loss by
``risk.entropic_risk`` (the blend fit's entropic objective too), and the LSTM
rollout by a hand-written backpropagation through time,
``autodiff.backward``, inside :func:`_chunked_backward`.

One rollout, :func:`_infer`, serves inference and training. Inference
(:func:`forward_rollout`) reuses its buffers at every
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
and their gradients are summed in shard order, so a run's results do not
depend on the CPU count, the thread count or the timing (see
:func:`_chunked_backward`). An epoch of one shard runs on the calling
thread.
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
# SHARD_PATHS). An epoch of at most this many paths keeps its shards' tapes
# from pass one for the backward; a larger one rolls its shards out without
# saving and rolls them out again, saving, for the backward, on at most
# TAPE_BATCH_LIMIT // shard threads (see _chunked_backward): 4 threads of
# 1,250-path shards, so on fewer CPUs the CPU count is the cap. On the
# default 126-step grid the tape holds 544 bytes per path per LSTM cell in
# float32 (the gates' 4·H values, c at 10 segment ends, a 12-step segment
# buffer and the step's inputs; tracemalloc, H = 32), 561 at the backward's
# peak: 0.14 MB per path (two layers), so about 0.87 GB here.
TAPE_BATCH_LIMIT = 6144

# Paths per training shard: every epoch of B paths is split into
# ceil(B / min(SHARD_PATHS, TAPE_BATCH_LIMIT)) contiguous shards, rolled out
# and backpropagated on threads, or on the calling thread when there is one.
# 1,250 splits the 5,000-path desk epoch and the 20,000-path paper epoch into
# 4 and 16 shards, which 2 or 4 threads share evenly. An epoch above
# TAPE_BATCH_LIMIT tapes one shard per thread at a time, so the shard size and
# the thread count set its peak memory. On a 2-vCPU host with one BLAS thread
# (perfbench, alternating pairs), with a tape of 5.08·H values per path and
# cell that kept every cell state, two 20,000-path epochs (train_paper_batch)
# peaked at 516-519 MB in 1,250-path shards against 909-912 MB in 2,500-path
# ones, with median wall times of 18.9 s against 20.2 s (16 pairs); two
# members' two 5,000-path epochs (train_desk), whose tapes are all kept,
# peaked at 896 MB against 908 MB, in 7.5 s against 7.8 s (10 pairs). With
# the checkpointed tape (4.25·H) and 1,250-path shards, they peak at a median
# of 441 MB and 769 MB (10 pairs each).
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

    Per layer and step it calls ``autodiff.lstm_cell``. Without ``saved``
    every buffer is allocated once per call and overwritten at each step:
    one GEMM operand buffer [x | delta_prev | h_0 | h_1], of which layer 0
    reads the columns [x | delta_prev | h_0] and layer 1 the columns [h_0 |
    h_1], so each h is written once, straight into it; per layer the cell
    state c; shared by the layers, the gates i, f, o, g, with tanh(c)
    written over g; one float64 column for the step's inputs, computed and
    then cast; and the (B, n_steps) output. So no (n_steps, B) input array
    and no large float64 temporary is ever held, and a worker thread's
    malloc arena does not keep them after the call (``aggregate``'s peak
    RSS).

    ``saved``, when given, makes this the saving forward whose state
    ``autodiff.backward`` reads (see :func:`_workspaces`): an (n_steps, B,
    INPUT_DIM) array that receives each step's layer-0 inputs [x |
    delta_prev], and per layer a (4, n_steps, B, H) workspace whose step-t
    slices the cell writes its i, f, o and g into, and a checkpoint array
    that receives a copy of c at the end of every segment of K steps but the
    last, K being the length of the layer's segment buffer. c itself is
    updated in place, tanh(c) goes into one scratch buffer reused at every
    step, and h straight into the operand, as in the plain forward; the
    backward rebuilds c from the checkpoints and the gates, and recomputes
    tanh(c) and h. The values are those of the plain forward, bit for bit.

    The halving of the sigmoid, sigmoid(x) = (tanh(x/2) + 1) / 2, is folded
    into the i, f and o columns of the weights and bias once per call (see
    ``autodiff.lstm_cell``). Then c = f c + i g, h = o tanh(c), and the head
    h @ w_out + b_out.

    A gate's columns do not depend on the other columns (the per-gate GEMMs
    rely on this; the gradients ``tests/test_hedger.py`` pins, recorded when
    one GEMM made all four gates, check it), and a row's bits do not depend
    on the other rows, with one exception: OpenBLAS's matrix-vector product,
    which the head h @ w_out is, takes the rows in groups of 4 and rounds a
    trailing group of 1-3 rows differently (numpy's one-row GEMM is such a
    product too). Row blocks of 1, 2, 7, 250 and 1,250 paths did not reproduce the full
    batch's hedge ratios; a block whose length is a multiple of 4, or that
    starts at a multiple of 4 and runs to the batch's end, does. So
    ``ensemble.aggregate``'s blocks start at multiples of 16 rows.

    ``out``, when given, is a (B, n_steps) array that receives the hedge
    ratios, cast to its dtype; otherwise one in the parameters' dtype is made.
    Raises NumericalDivergenceError naming the first step whose hedge ratio
    is not finite, and ``CancelledError`` at the next step once the
    ``threads.run_threads`` call running it is stopped.
    """
    n_paths, n = paths.n_paths, paths.n_steps
    dtype, hidden = params["w_out"].dtype, params["w_hh_0"].shape[0]
    taus = paths.grid.taus().astype(dtype)
    columns = [slice(k * hidden, (k + 1) * hidden) for k in range(4)]  # i, f, o, g
    scales = (0.5, 0.5, 0.5, 1.0)  # the sigmoid's halving, folded in
    weights, biases = [], []  # per layer, one contiguous block per gate
    for layer in range(N_LAYERS):
        stacked = np.concatenate([params[f"w_ih_{layer}"], params[f"w_hh_{layer}"]], axis=0)
        weights.append([stacked[:, cols] * scale for cols, scale in zip(columns, scales)])
        biases.append([params[f"b_{layer}"][cols] * scale for cols, scale in zip(columns, scales)])
    operand = np.zeros((n_paths, INPUT_DIM + N_LAYERS * hidden), dtype=dtype)
    h = [operand[:, INPUT_DIM + k * hidden : INPUT_DIM + (k + 1) * hidden]
         for k in range(N_LAYERS)]
    reads = [operand[:, : INPUT_DIM + hidden]] + [
        operand[:, INPUT_DIM + (k - 1) * hidden : INPUT_DIM + (k + 1) * hidden]
        for k in range(1, N_LAYERS)
    ]
    c = [np.zeros((n_paths, hidden), dtype=dtype) for _ in range(N_LAYERS)]
    i, f, o, g = (np.empty((n_paths, hidden), dtype=dtype) for _ in range(4))
    head = np.empty((n_paths, 1), dtype=dtype)
    column = np.empty(n_paths)  # one step's float64 input, before its cast
    if out is None:
        out = np.empty((n_paths, n), dtype=dtype)

    for t in range(n):
        check_stopped("rollout stopped at step %d", t)
        np.divide(paths.spot[:, t], strike, out=column)
        operand[:, 0] = np.log(column, out=column)
        operand[:, 1] = taus[t]
        operand[:, 2] = np.sqrt(paths.variance[:, t], out=column)
        if saved is not None:
            saved[0][t] = operand[:, :INPUT_DIM]
        for layer in range(N_LAYERS):
            if saved is None:
                ad.lstm_cell(reads[layer], weights[layer], biases[layer], c[layer],
                             i, f, o, g, g, c[layer], h[layer])
            else:  # g, unused here, is the scratch that takes tanh(c)
                gates, checkpoints, buffer = saved[1][layer]
                ad.lstm_cell(reads[layer], weights[layer], biases[layer], c[layer],
                             *gates[:, t], g, c[layer], h[layer])
                if (t + 1) % len(buffer) == 0 and t + 1 < n:
                    checkpoints[t // len(buffer)] = c[layer]
        np.matmul(h[-1], params["w_out"], out=head)
        head += params["b_out"]
        if not np.isfinite(head).all():
            raise NumericalDivergenceError(f"non-finite hedge ratio at step {t}")
        out[:, t] = head[:, 0]
        operand[:, INPUT_DIM - 1] = head[:, 0]
    return out


def _segment_steps(n_steps: int) -> int:
    """Steps per segment of a saving forward's cell-state checkpoints:
    ceil(sqrt(n_steps)), so the checkpoints and the segment buffer hold
    about 2 sqrt(n_steps) of the n_steps cell states."""
    return math.isqrt(n_steps - 1) + 1


def _workspaces(params: dict[str, np.ndarray], paths: MarketPaths) -> tuple:
    """Empty state for a saving :func:`_infer` of ``paths``, in the
    parameters' dtype: (n_steps, B, INPUT_DIM) inputs, and per layer a tape
    of three arrays, with K = :func:`_segment_steps`: (4, n_steps, B, H) for
    the gates i, f, o and g; (ceil(n_steps / K) - 1, B, H) for c at the end
    of every segment of K steps but the last; and the (K, B, H) buffer that
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
    pipeline_tiny's later bodies peaking at 143.5 MB against 132.8 MB."""
    n, n_paths = paths.n_steps, paths.n_paths
    dtype, hidden, steps = params["w_out"].dtype, params["w_hh_0"].shape[0], _segment_steps(n)
    gates = np.empty((N_LAYERS, 4, n, n_paths, hidden), dtype)
    return (np.empty((n, n_paths, INPUT_DIM), dtype),
            [(gates[k],
              np.empty((-(-n // steps) - 1, n_paths, hidden), dtype),
              np.empty((steps, n_paths, hidden), dtype))
             for k in range(N_LAYERS)])


def forward_rollout(
    model: HedgerModel, paths: MarketPaths, strike: float, *, out=None
) -> HedgeSchedule:
    """Inference-only rollout through :func:`_infer`; no saved state, no gradients.

    Reads the model and allocates its own buffers, so concurrent calls on
    threads are safe (``ensemble.aggregate`` makes one per member and block
    of paths). A block of paths gives the full batch's rows bit for bit when
    it starts at a multiple of 4 rows and is a multiple of 4 long or runs to
    the end (see :func:`_infer`). ``out``, when given, is a float64 (B,
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
    calling thread), whose gradients are summed in shard order. The loss and
    the parameters do not depend on the CPU count, and no more than
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
    by :func:`_infer`, which only reads the parameters. Pass one gives every
    shard's P&L (``accounting.HedgePnL`` in the parameters' dtype); the loss
    and g = d loss / d pnl come from ``risk.entropic_risk`` on the
    concatenated P&L's float64 cast. Pass two maps each shard's g through the
    P&L's VJP to g_delta = d loss / d delta in the parameters' dtype, and
    ``autodiff.backward`` sweeps the shard's saved state (its tape) back from
    it. The shard gradients are summed in shard order: the result equals one
    full-batch backward up to float summation order and does not depend on
    the thread count or timing.

    Each pass is one ``threads.run_threads`` call on at most
    ``TAPE_BATCH_LIMIT // shard`` threads, so one shard runs on the calling
    thread; when a pass is stopped, a backward that has begun runs to its
    end. When ``B <= TAPE_BATCH_LIMIT`` pass one is the saving forward and
    the backward reads its tapes, the memory of one full-batch tape.
    Otherwise pass one rolls the shards out without saving and pass two
    rolls each out again, saving, so both passes count as tape passes and at
    most ``TAPE_BATCH_LIMIT`` paths have their tapes held at once. float32
    parameters give float32 gradients; only the loss and g are float64.
    """
    n_paths = paths.n_paths
    size = min(SHARD_PATHS, TAPE_BATCH_LIMIT)
    shards = [(lo, min(lo + size, n_paths)) for lo in range(0, n_paths, size)]
    keep = n_paths <= TAPE_BATCH_LIMIT  # pass one's saved state serves the backward
    dtype = params["w_out"].dtype

    def forward(shard, save):
        sub = paths.rows(*shard)
        saved = _workspaces(params, sub) if save else None
        delta = _infer(params, sub, strike, saved=saved)
        account = HedgePnL(sub.spot.astype(dtype), cost.cost_rate, strike)
        return saved, account, account.pnl(delta)

    try:
        passes = run_threads(lambda shard: forward(shard, keep), shards, TAPE_BATCH_LIMIT // size)
    except NumericalDivergenceError:  # a hedge ratio left the reals, and so did the loss
        return float("nan"), None
    pnl = np.concatenate([shard_pnl for *_, shard_pnl in passes])
    if not keep:
        passes = None  # pass two rolls every shard out again, saving
    g_pnl = np.empty(n_paths)
    loss = entropic_risk(pnl.astype(np.float64), a, grad=g_pnl)
    if not np.isfinite(loss):
        return loss, None

    def shard_grads(k):
        lo, hi = shards[k]
        saved, account, _ = passes[k] if keep else forward(shards[k], True)
        return ad.backward(params, saved, account.vjp(g_pnl[lo:hi]))

    grads = run_threads(shard_grads, range(len(shards)), TAPE_BATCH_LIMIT // size)
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
        with np.load(filename) as data:
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
