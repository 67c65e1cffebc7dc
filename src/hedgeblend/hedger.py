"""Recurrent hedging network trained end-to-end through the P&L rollout.

Architecture: two stacked LSTM layers (32 hidden units each) and an affine
scalar head emitting an unconstrained hedge ratio. At each step the network
sees (log moneyness, time to expiry, instantaneous vol, previous hedge) and
carries hidden state across the path. Training minimises the entropic risk
of terminal P&L, transaction costs included. The P&L and the loss are
differentiated in closed form, by the code the blend fit uses
(``accounting.HedgePnL``, ``risk._objective_and_grad``); the autodiff tape
differentiates only the LSTM rollout.

Every epoch of B paths is split into ``ceil(B / min(SHARD_PATHS,
TAPE_BATCH_LIMIT))`` contiguous path shards, a count that depends only on
the batch size. The shards are taped on threads, and their gradients are
summed in shard order, so a run's results do not depend on the CPU count,
the thread count or the timing (see :func:`_chunked_backward`). An epoch of
one shard is taped on the calling thread.

Inference (:func:`forward_rollout`, :func:`training_loss`) runs a tape-free
kernel that reuses its buffers at every step and gives the taped rollout's
hedge ratios bit for bit. ``ensemble.aggregate`` runs it on threads, at most
one per usable CPU, as (member, path-block) jobs whose blocks are cut at
multiples of 16 rows, with results identical to a serial full-batch loop.
"""

from __future__ import annotations

import json
import threading
import zipfile
from concurrent.futures import CancelledError
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import autodiff as ad
from . import rng
from .accounting import CostSpec, HedgePnL, HedgeSchedule, compute_pnl
from .autodiff import Tensor
from .errors import NumericalDivergenceError, ParameterError
from .market import MarketPaths, PathGrid, simulate
from .risk import _objective_and_grad, entropic_risk
from .threads import run_threads, usable_cpus

INPUT_DIM = 4  # log_moneyness, tau, inst_vol, prev_delta
HIDDEN = 32
N_LAYERS = 2

# Most paths taped at once, on any CPU count. Every epoch is taped in shards
# (see SHARD_PATHS). An epoch of at most this many paths keeps its shards'
# forward tapes for the backward; a larger one rolls its shards out without a
# tape and re-tapes them for the backward, on at most TAPE_BATCH_LIMIT //
# shard threads (see _chunked_backward). The tape holds about 7.5·H float32
# values per path per LSTM cell: 0.24 MB per path on the default 126-step
# grid (H = 32, two layers), so about 1.5 GB here.
TAPE_BATCH_LIMIT = 6144

# Paths per training shard: every epoch of B paths is split into
# ceil(B / min(SHARD_PATHS, TAPE_BATCH_LIMIT)) contiguous shards, taped on
# threads, or on the calling thread when there is one. 2,500 splits the
# 5,000-path desk epoch and the 20,000-path paper epoch into shard counts
# that two threads share evenly. On a 2-vCPU host with one BLAS thread, two
# 5,000-path epochs took 3.7 s in 2,500-path shards against 3.9-4.8 s in
# 1,250-path and 4.2-4.3 s in 1,000-path ones. ensemble.aggregate cuts its
# inference batches into as many path blocks (aligned to 16 rows).
SHARD_PATHS = 2500

PARAM_NAMES = ("w_ih_0", "w_hh_0", "b_0", "w_ih_1", "w_hh_1", "b_1", "w_out", "b_out")


@dataclass
class TrainConfig:
    """Training schedule: one Adam update per epoch on a fresh path batch."""

    epochs: int = 100
    paths_per_epoch: int = 5000
    step_size: float = 1e-3
    adam_betas: tuple[float, float] = (0.9, 0.999)
    risk_aversion: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.paths_per_epoch < 1:
            raise ParameterError("epochs and paths_per_epoch must be >= 1")
        if self.step_size <= 0:
            raise ParameterError("step_size must be positive")
        if self.risk_aversion <= 0:
            raise ParameterError("risk_aversion must be positive")
        if len(self.adam_betas) != 2 or not all(0.0 <= b < 1.0 for b in self.adam_betas):
            raise ParameterError(f"adam_betas must be two values in [0, 1), got {self.adam_betas}")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")


@dataclass
class HedgerModel:
    """Trained (or freshly initialised) hedging network."""

    params: dict[str, np.ndarray]
    hidden: int = HIDDEN
    n_layers: int = N_LAYERS
    seed: int = 0
    loss_history: list[float] = field(default_factory=list)

    def copy(self) -> "HedgerModel":
        return HedgerModel(
            params={k: v.copy() for k, v in self.params.items()},
            hidden=self.hidden,
            n_layers=self.n_layers,
            seed=self.seed,
            loss_history=list(self.loss_history),
        )


def init_model(seed: int, hidden: int = HIDDEN) -> HedgerModel:
    """Uniform(-k, k) blocks with k = 1/sqrt(fan_in); forget-gate bias 1."""
    gen = rng.generator(rng.derive_seed(seed, rng.TAG_INIT))

    def block(fan_in: int, shape) -> np.ndarray:
        k = 1.0 / np.sqrt(fan_in)
        return gen.uniform(-k, k, size=shape)

    params: dict[str, np.ndarray] = {}
    in_dim = INPUT_DIM
    for layer in range(N_LAYERS):
        params[f"w_ih_{layer}"] = block(in_dim, (in_dim, 4 * hidden))
        params[f"w_hh_{layer}"] = block(hidden, (hidden, 4 * hidden))
        bias = np.zeros(4 * hidden)
        bias[hidden : 2 * hidden] = 1.0
        params[f"b_{layer}"] = bias
        in_dim = hidden
    params["w_out"] = block(hidden, (hidden, 1))
    params["b_out"] = np.zeros(1)
    return HedgerModel(params=params, hidden=hidden, seed=seed)


def _param_tensors(model: HedgerModel) -> dict[str, Tensor]:
    return {k: Tensor(v, requires_grad=True) for k, v in model.params.items()}


def _rollout(
    params: dict[str, Tensor], paths: MarketPaths, strike: float, hidden: int, *, stop=None
) -> Tensor:
    """Hedge ratios (B, n_steps) as a tape tensor; state never crosses paths.

    Raises ``CancelledError`` at the next step once the ``threading.Event``
    ``stop``, when given, is set (a failed shard or a Ctrl-C in training).
    """
    n_paths, n = paths.n_paths, paths.n_steps
    dtype = params["w_out"].data.dtype
    consts = np.empty((n, n_paths, 3), dtype=dtype)
    consts[:, :, 0] = np.log(paths.spot[:, :n] / strike).T
    consts[:, :, 1] = paths.grid.taus()[:, None]
    consts[:, :, 2] = np.sqrt(paths.variance[:, :n]).T

    # One stacked weight per layer: [input rows; recurrent rows].
    stacked = [
        ad.concat([params[f"w_ih_{layer}"], params[f"w_hh_{layer}"]], axis=0)
        for layer in range(N_LAYERS)
    ]
    h = [Tensor(np.zeros((n_paths, hidden), dtype=dtype)) for _ in range(N_LAYERS)]
    c = [Tensor(np.zeros((n_paths, hidden), dtype=dtype)) for _ in range(N_LAYERS)]
    delta_prev = Tensor(np.zeros((n_paths, 1), dtype=dtype))
    columns = []
    for t in range(n):
        if stop is not None and stop.is_set():
            raise CancelledError(f"rollout stopped at step {t}")
        x = Tensor(consts[t])
        for layer in range(N_LAYERS):
            pieces = [x, delta_prev] if layer == 0 else [x]
            h[layer], c[layer] = ad.lstm_cell(
                pieces + [h[layer]], c[layer], stacked[layer], params[f"b_{layer}"]
            )
            x = h[layer]
        delta_prev = x @ params["w_out"] + params["b_out"]
        columns.append(delta_prev)
    return ad.concat(columns, axis=1)


def _infer(
    params: dict[str, np.ndarray],
    paths: MarketPaths,
    strike: float,
    hidden: int,
    out: np.ndarray | None = None,
    *,
    stop=None,
) -> np.ndarray:
    """Hedge ratios (B, n_steps) of :func:`_rollout`, bit for bit, without the tape.

    Every buffer is allocated once per call and overwritten at each step:
    one GEMM operand buffer [x | delta_prev | h_0 | h_1], of which layer 0
    reads the columns [x | delta_prev | h_0] and layer 1 the columns [h_0 |
    h_1], so each h is written once, straight into it; per layer the cell
    state c; shared by the layers, the gates i, f, o, g; one float64 column
    for the step's inputs, computed as the tape computes them for all steps
    at once and then cast; and the (B, n_steps) output. So no (n_steps, B)
    input array and no large float64 temporary is ever held, and a worker
    thread's malloc arena does not keep them after the call (``aggregate``'s
    peak RSS).

    The arithmetic is the fused cell's. Each gate's columns of the stacked
    weight [w_ih; w_hh] are a GEMM of their own, written into the gate's
    contiguous buffer; the bias is added, then tanh, and for the sigmoid
    gates +1 and ×0.5. The sigmoid's first halving, sigmoid(x) = (tanh(x/2)
    + 1) / 2, is folded into the i, f and o columns of the weights and bias
    once per call: halving is exact and commutes with the rounding of every
    product, FMA and sum (barring subnormals), so these are the bits of the
    fused cell, which halves pre + b (``_sigmoid_inplace``). Then c = f c +
    i g, h = o tanh(c), and the head h @ w_out + b_out. A training forward
    would save i, f, o, g, tanh(c), h and c per step here instead of
    overwriting them.

    A gate's columns do not depend on the other columns (the per-gate GEMMs
    rely on this; the kernel's bit-for-bit test against the tape checks
    it), and a row's bits do not depend on the other rows, with one
    exception: OpenBLAS's matrix-vector product, which the head h @ w_out
    is, takes the rows in groups of 4 and rounds a trailing group of 1-3
    rows differently (numpy's one-row GEMM is such a product too). Row
    blocks of 1, 2, 7, 250 and 1,250 paths did not reproduce the full
    batch's hedge ratios; a block whose length is a multiple of 4, or that
    starts at a multiple of 4 and runs to the batch's end, does. So
    ``ensemble.aggregate``'s blocks start at multiples of 16 rows.

    ``out``, when given, is a (B, n_steps) array that receives the hedge
    ratios, cast to its dtype; otherwise one in the parameters' dtype is made.
    Raises NumericalDivergenceError naming the first step whose hedge ratio
    is not finite, and ``CancelledError`` at the next step once the
    ``threading.Event`` ``stop``, when given, is set.
    """
    n_paths, n = paths.n_paths, paths.n_steps
    dtype = params["w_out"].dtype
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
    gates = [np.empty((n_paths, hidden), dtype=dtype) for _ in range(4)]
    i, f, o, g = gates
    head = np.empty((n_paths, 1), dtype=dtype)
    column = np.empty(n_paths)  # one step's float64 input, before its cast
    if out is None:
        out = np.empty((n_paths, n), dtype=dtype)

    for t in range(n):
        if stop is not None and stop.is_set():
            raise CancelledError(f"rollout stopped at step {t}")
        np.divide(paths.spot[:, t], strike, out=column)
        operand[:, 0] = np.log(column, out=column)
        operand[:, 1] = taus[t]
        operand[:, 2] = np.sqrt(paths.variance[:, t], out=column)
        for layer in range(N_LAYERS):
            for gate, w, b in zip(gates, weights[layer], biases[layer]):
                np.matmul(reads[layer], w, out=gate)
                gate += b
                np.tanh(gate, out=gate)
            for gate in (i, f, o):
                gate += 1.0
                gate *= 0.5
            c[layer] *= f
            i *= g
            c[layer] += i
            np.tanh(c[layer], out=g)
            np.multiply(o, g, out=h[layer])  # the next layer's and step's input
        np.matmul(h[-1], params["w_out"], out=head)
        head += params["b_out"]
        if not np.isfinite(head).all():
            raise NumericalDivergenceError(f"non-finite hedge ratio at step {t}")
        out[:, t] = head[:, 0]
        operand[:, INPUT_DIM - 1] = head[:, 0]
    return out


def forward_rollout(
    model: HedgerModel, paths: MarketPaths, strike: float, *, stop=None, out=None
) -> HedgeSchedule:
    """Inference-only rollout through :func:`_infer`; no tape, no gradients.

    Reads the model and allocates its own buffers, so concurrent calls on
    threads are safe (``ensemble.aggregate`` makes one per member and block
    of paths). A block of paths gives the full batch's rows bit for bit when
    it starts at a multiple of 4 rows and is a multiple of 4 long or runs to
    the end (see :func:`_infer`). ``out``, when given, is a float64 (B,
    n_steps) array, possibly a row view of a larger one, that receives the
    hedge ratios and becomes the schedule's ``delta``; otherwise one is
    made. A set ``stop`` event ends the rollout at its next step with
    ``CancelledError``.
    """
    if out is None:
        out = np.empty((paths.n_paths, paths.n_steps))  # the schedule's float64, cast per step
    _infer(model.params, paths, strike, model.hidden, out=out, stop=stop)
    return HedgeSchedule(out, f"hedger_{model.seed}")


def train_hedger(
    config: TrainConfig,
    market,
    grid: PathGrid,
    cost: CostSpec,
    strike: float,
    label: str = "",
    callback=None,
) -> HedgerModel:
    """Train one hedger; deterministic for a fixed config.

    Each epoch simulates a fresh batch (seed mixed from config.seed and the
    epoch index), rolls the network through it on the tape, and applies one
    Adam update of the entropic risk of terminal P&L, whose gradient in the
    hedge ratios is closed-form. ``market`` is a HestonParams or
    GBMSpec. Raises NumericalDivergenceError naming the epoch if the loss
    leaves the reals.

    Every epoch of B paths goes through :func:`_chunked_backward`: it is
    split into ``ceil(B / min(SHARD_PATHS, TAPE_BATCH_LIMIT))`` contiguous
    shards, taped on threads (one shard on the calling thread), whose
    gradients are summed in shard order. The loss and the parameters do not
    depend on the CPU count, and no more than ``TAPE_BATCH_LIMIT`` paths are
    taped at once.

    Training runs in float32, gradients included (the rollout is the hot
    loop; the objective tolerances sit far above single precision); only the
    loss and its gradient in the P&L are float64. Gradient checks are always
    performed in float64.

    ``callback(epoch, model)``, when given, fires after each update; useful
    for periodic checkpoint evaluation.
    """
    model = init_model(config.seed)
    model.params = {k: v.astype(np.float32) for k, v in model.params.items()}
    tensors = _param_tensors(model)
    model.params = {k: t.data for k, t in tensors.items()}
    order = [tensors[k] for k in PARAM_NAMES]
    adam = ad.Adam(order, lr=config.step_size, betas=config.adam_betas)

    a = config.risk_aversion
    for epoch in range(config.epochs):
        paths = simulate(
            market, grid, config.paths_per_epoch,
            seed=rng.derive_seed(config.seed, rng.TAG_EPOCH_PATHS, epoch),
        )
        loss = _chunked_backward(tensors, paths, cost, strike, a, model.hidden)
        if not np.isfinite(loss):
            raise NumericalDivergenceError(
                f"{label or 'hedger'}: training loss diverged at epoch {epoch}"
            )
        adam.step()
        adam.zero_grad()
        model.loss_history.append(loss)
        if callback is not None:
            callback(epoch, model)
    return model


def _chunked_backward(
    tensors: dict[str, Tensor],
    paths: MarketPaths,
    cost: CostSpec,
    strike: float,
    a: float,
    hidden: int,
) -> float:
    """Full-batch entropic loss and gradient of sharded paths, taped on threads.

    The one gradient of training and of :func:`gradient_check`. Every batch
    of B paths is split into ``ceil(B / min(SHARD_PATHS, TAPE_BATCH_LIMIT))``
    contiguous shards; a batch of at most that many paths is one shard. The
    tape covers only each shard's rollout by :func:`_rollout`, on its own
    leaf tensors, which share the parameter arrays, so no two threads write
    one ``.grad``. Pass one gives every shard's P&L (``accounting.HedgePnL``
    in the parameters' dtype); the loss and g = d loss / d pnl come from
    ``risk._objective_and_grad`` on the concatenated P&L's float64 cast.
    Pass two maps each shard's g through the P&L's VJP to g_delta = d loss /
    d delta in the parameters' dtype and backpropagates sum(delta * g_delta)
    on the shard's tape. The shard gradients are summed in shard order into
    the parameters' ``.grad``: the result equals one full-batch backward up
    to float summation order and does not depend on the thread count or timing.

    The shards run on ``min(shards, usable_cpus(), TAPE_BATCH_LIMIT //
    shard)`` threads, so one shard runs on the calling thread. When ``B <=
    TAPE_BATCH_LIMIT`` pass one tapes the shards and the backward reuses
    those tapes, the memory of one full-batch tape. Otherwise pass one rolls
    them out with no grad (still through :func:`_rollout`, so both passes
    count as tape passes) and pass two re-tapes each shard, so at most
    ``TAPE_BATCH_LIMIT`` paths are taped at once. float32 parameters give
    float32 gradients; only the loss and g are float64. A hand-written
    LSTM backward (ROADMAP item 3) can replace the tape per shard.

    A failing shard or a Ctrl-C sets both passes' ``run_threads`` stop
    event: shard rollouts that are running stop at their next step, and
    shards not yet started are skipped; a backward that has begun runs to
    its end.
    """
    n_paths = paths.n_paths
    size = min(SHARD_PATHS, TAPE_BATCH_LIMIT)
    shards = [(lo, min(lo + size, n_paths)) for lo in range(0, n_paths, size)]
    n_threads = min(len(shards), usable_cpus(), TAPE_BATCH_LIMIT // size)
    keep = n_paths <= TAPE_BATCH_LIMIT  # pass one's tapes serve the backward
    stop = threading.Event()

    def tape(shard, requires_grad=True):
        sub = paths.rows(*shard)
        leaves = {k: Tensor(t.data, requires_grad=requires_grad) for k, t in tensors.items()}
        delta = _rollout(leaves, sub, strike, hidden, stop=stop)
        account = HedgePnL(sub.spot.astype(delta.data.dtype), cost.cost_rate, strike)
        return leaves, delta, account, account.pnl(delta.data)

    passes = run_threads(lambda shard: tape(shard, keep), shards, n_threads, stop=stop)
    pnl = np.concatenate([shard_pnl for *_, shard_pnl in passes])
    if not keep:
        passes = None  # pass two re-tapes every shard
    g_pnl = np.empty(n_paths)
    loss = _objective_and_grad(pnl.astype(np.float64), "entropic", g_pnl, a=a)
    if not np.isfinite(loss):
        return loss

    def shard_grads(k):
        lo, hi = shards[k]
        leaves, delta, account, _ = passes[k] if keep else tape(shards[k])
        ad.backward(ad.tsum(delta * account.vjp(g_pnl[lo:hi])))
        return [leaves[name].grad for name in PARAM_NAMES]

    grads = run_threads(shard_grads, range(len(shards)), n_threads, stop=stop)
    for name, per_shard in zip(PARAM_NAMES, zip(*grads)):
        tensors[name].grad = reduce(np.add, per_shard)
    return loss


def training_loss(
    model: HedgerModel, paths: MarketPaths, cost: CostSpec, strike: float, a: float = 1.0
) -> float:
    """Entropic training objective of the model on a fixed batch, rolled out by
    :func:`_infer` (no tape); on one shard, equal bit for bit to the loss
    :func:`_chunked_backward` returns."""
    delta = _infer(model.params, paths, strike, model.hidden)
    pnl = HedgePnL(paths.spot.astype(delta.dtype), cost.cost_rate, strike).pnl(delta)
    return _objective_and_grad(pnl.astype(np.float64), "entropic", np.empty(pnl.size), a=a)


def gradient_check(
    model: HedgerModel,
    paths: MarketPaths,
    cost: CostSpec,
    strike: float,
    n_params_sampled: int = 20,
    step: float = 1e-5,
    a: float = 1.0,
    seed: int = 0,
) -> float:
    """Max relative error of reverse-mode vs. central finite differences.

    Samples ``n_params_sampled`` coordinates of the flattened parameter
    vector and compares d(entropic loss)/d(theta). The reverse-mode gradient
    is training's, :func:`_chunked_backward`. Raises NumericalDivergenceError
    if the model's loss on ``paths`` is not finite.
    """
    model = HedgerModel(
        params={k: v.astype(np.float64) for k, v in model.params.items()},
        hidden=model.hidden,
        n_layers=model.n_layers,
        seed=model.seed,
    )
    tensors = _param_tensors(model)
    if not np.isfinite(_chunked_backward(tensors, paths, cost, strike, a, model.hidden)):
        raise NumericalDivergenceError("gradient check: the loss is not finite")

    sizes = [model.params[k].size for k in PARAM_NAMES]
    total = sum(sizes)
    gen = rng.generator(rng.derive_seed(seed, rng.TAG_SAMPLE))
    coords = gen.choice(total, size=min(n_params_sampled, total), replace=False)

    probe = model.copy()
    worst = 0.0
    for flat_index in np.sort(coords):
        idx = int(flat_index)
        for name, size in zip(PARAM_NAMES, sizes):
            if idx < size:
                break
            idx -= size
        grad_ad = tensors[name].grad.reshape(-1)[idx]
        theta = probe.params[name].reshape(-1)
        original = theta[idx]
        theta[idx] = original + step
        up = training_loss(probe, paths, cost, strike, a)
        theta[idx] = original - step
        down = training_loss(probe, paths, cost, strike, a)
        theta[idx] = original
        grad_fd = (up - down) / (2.0 * step)
        rel = abs(grad_ad - grad_fd) / max(abs(grad_ad), abs(grad_fd), 1e-8)
        worst = max(worst, rel)
    return worst


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
    """Checkpoint: flat parameter arrays plus a JSON metadata record."""
    meta = {
        "format": "hedgeblend-checkpoint-v1",
        "input_dim": INPUT_DIM,
        "hidden": model.hidden,
        "n_layers": model.n_layers,
        "seed": model.seed,
        "loss_history": model.loss_history,
    }
    np.savez(filename, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **model.params)


def load_model(filename: str) -> HedgerModel:
    """Read a :func:`save_model` checkpoint; ParameterError names a file that
    is not a readable archive or lacks the metadata or a parameter array."""
    try:
        with np.load(filename) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            params = {name: data[name].copy() for name in PARAM_NAMES}
        if meta.get("format") == "hedgeblend-checkpoint-v1":
            return HedgerModel(
                params=params,
                hidden=int(meta["hidden"]),
                n_layers=int(meta["n_layers"]),
                seed=int(meta["seed"]),
                loss_history=[float(x) for x in meta["loss_history"]],
            )
    except (zipfile.BadZipFile, EOFError, ValueError, KeyError, TypeError,
            AttributeError) as exc:
        # ValueError: numpy refuses to unpickle a non-archive; bad JSON or numbers.
        raise ParameterError(f"{filename} is not a hedger checkpoint: {exc!r}") from exc
    raise ParameterError(f"{filename} is not a hedger checkpoint")
