"""The hedger's gradient: pinned values, its checks, the memory of its tape
(the state a saving forward keeps for the hand-written backward), its
sharded epochs on threads, divergence, checkpoints; and the plain forward
against the saving one.

Every training gradient is the sharded one: each shard's LSTM rollout is
backpropagated by ``autodiff.backward``, and the P&L and loss gradients are
closed-form. The single-tape hashes pin a 300-path batch, which is one
shard and so one tape on the calling thread; the chunked hashes pin the
same batch in five shards above a 64-path tape limit, each rolled out
twice and backpropagated from the full batch's softmax, whose sums are
added in shard order. An epoch within the tape limit backpropagates each
shard from its own softmax and weights the shard gradients, so it equals
one tape up to float rounding.
"""

import dataclasses
import gc
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import CancelledError
from pathlib import Path

import numpy as np
import pytest

from hedgeblend import autodiff as ad
from hedgeblend import hedger, rng, threads
from hedgeblend.accounting import CostSpec, HedgePnL, compute_pnl
from hedgeblend.errors import NumericalDivergenceError, ParameterError
from hedgeblend.market import CALIBRATIONS, PathGrid, simulate_heston
from hedgeblend.risk import entropic_risk

COST = CostSpec(5e-4)
STRIKE = 1.0
GRID = PathGrid(n_steps=16, maturity=0.5)
# Purpose tag of the gradient check's coordinate sample, distinct from rng's tags.
TAG_SAMPLE = 6


def heston_paths(n_paths, seed=2026, grid=GRID):
    return simulate_heston(CALIBRATIONS["baseline"], grid, n_paths, seed=seed)


def parameters(dtype, seed=7, hidden=hedger.HIDDEN):
    model = hedger.init_model(seed, hidden=hidden)
    return {k: v.astype(dtype) for k, v in model.params.items()}


def saving_forward(params, paths):
    """Hedge ratios of a full-batch saving forward, and the state it kept."""
    saved = hedger._workspaces(params, paths)
    return hedger._infer(params, paths, STRIKE, saved=saved), saved


def chunked_grads(params, paths):
    return hedger._chunked_backward(params, paths, COST, STRIKE, 1.0)[1]


def gradient_check(model, paths, n_params_sampled=20, step=1e-5, a=1.0, seed=0):
    """Max relative error of the training gradient against central finite
    differences of ``hedger.network_price``, the entropic risk of the hedged
    P&L, in float64, over ``n_params_sampled`` coordinates of the flattened
    parameter vector.
    Raises NumericalDivergenceError if the loss on ``paths`` is not finite."""
    params = {k: v.astype(np.float64) for k, v in model.params.items()}
    loss, grads = hedger._chunked_backward(params, paths, COST, STRIKE, a)
    if not np.isfinite(loss):
        raise NumericalDivergenceError("gradient check: the loss is not finite")

    sizes = [params[k].size for k in hedger.PARAM_NAMES]
    total = sum(sizes)
    gen = rng.generator(rng.derive_seed(seed, TAG_SAMPLE))
    coords = gen.choice(total, size=min(n_params_sampled, total), replace=False)

    probe = hedger.HedgerModel(params=params, seed=model.seed)
    worst = 0.0
    for flat_index in np.sort(coords):
        idx = int(flat_index)
        for name, size, grad in zip(hedger.PARAM_NAMES, sizes, grads):
            if idx < size:
                break
            idx -= size
        grad_ad = grad.reshape(-1)[idx]
        theta = probe.params[name].reshape(-1)
        original = theta[idx]
        theta[idx] = original + step
        up = hedger.network_price(probe, paths, COST, STRIKE, a)
        theta[idx] = original - step
        down = hedger.network_price(probe, paths, COST, STRIKE, a)
        theta[idx] = original
        grad_fd = (up - down) / (2.0 * step)
        rel = abs(grad_ad - grad_fd) / max(abs(grad_ad), abs(grad_fd), 1e-8)
        worst = max(worst, rel)
    return worst


def sha256(arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def paths_300():
    return heston_paths(300)


# (dtype, chunked) -> sha256 of each parameter's gradient, in PARAM_NAMES order
PINNED_GRADS = {
    ("float32", False): (
        "7fa31a499c9071f8c06bb0d81aa4fce87b30cefc92d1d12ab64b4369256e1c1d",  # w_ih_0
        "74ddad47a03747500eb54ee83dbe989d6d8ec98b95723777a1ef12499a507d81",  # w_hh_0
        "4f423893ce6abead0632026b5aee099765d29c30097722cf04b8f25741b6bc03",  # b_0
        "77ff3e5d7bb27e93e7dc1503573912824b57a89049499c0d32aba47416d9b9c4",  # w_ih_1
        "1ad11195482fb7a568b9321f8ec0482fa03d38a9f0a7810c05bab103361879a2",  # w_hh_1
        "bc62f1d94132481500f737920914779d91cc49bbe472c627258e94fc23c698ad",  # b_1
        "c91d552526a48cacc9cc9009436423d7da294c7b7fcafecae09953d7674c6494",  # w_out
        "0c0be6339c30760935396f04f4fde003fa6f8fb86b8724b842882fe54f89ae75",  # b_out
    ),
    ("float64", False): (
        "e31f647e019e95f62455c3d1e72b80587fbc1a194d3ea29e8b3e3dffe1c4733d",  # w_ih_0
        "bcc55f514ca6222dbdb8b09487f5db9dd6652bbe7391a0949d9f7095a2b29135",  # w_hh_0
        "50259cb3c0cefca5583b7703a55667052bc129ee3e212af059cac54099970ed3",  # b_0
        "492c9f412cfa003873e8a56e691790bd410364f3837cc9af812ed3b283926873",  # w_ih_1
        "360afd5a3a4cdb1ebbfd6b796452b4e4ab4f42ca1698fc54395a28ee35d6bfd0",  # w_hh_1
        "0667df706cec71e8c9e97cd02f380c661897d15f7adcd3aae002c97af4dbec6f",  # b_1
        "16807e5c1f93b2665fc67e7fae247873f792c4e7333fccf7441e01beb4c10130",  # w_out
        "d92de2aa3a349803a1c24f5c03897b14547920144d5378457ce800ba6dd1688a",  # b_out
    ),
    ("float32", True): (
        "9dffc962256a80c0caf8d1350a1260daee69b41c01fb9931677d96eb32c4311f",  # w_ih_0
        "6a4c7a68cde98405eeed9f17f5ca24acc2276ae178041fc1d804176bbd686c86",  # w_hh_0
        "e304955c355e9b80f1519d79d1510f31ff54a35c8f2ca597678f2b347f3f1c7d",  # b_0
        "0a5c2b6e4b68359b3187ad07c80eea0921becc4b5f8667d71b1f7be9a8647463",  # w_ih_1
        "12b8693fc5326381cba84429c56114cc691b6fcb02a63db37aa3328d8efd0412",  # w_hh_1
        "cfc9ea13beccf23c00d4b2a99c16e6f349e03e6b98b5cc29db593073a78cc7c9",  # b_1
        "248c70c9211616caa38d02f70a0b42da5ad055d3bf3b1a79b180e90147d1d0c1",  # w_out
        "0c0be6339c30760935396f04f4fde003fa6f8fb86b8724b842882fe54f89ae75",  # b_out
    ),
    ("float64", True): (
        "2b1d74058398e30bd783a4f32fa00bf0ff7dd8d7fe064eea3e093cfa225cf7a8",  # w_ih_0
        "f527df47d589c63fa7e4e91d0e0857d833ad5805a64776162bc72920d8dbb883",  # w_hh_0
        "41b316ba7e364d2a62fb3fe897be4d18362d91c2e8c804d7b5a06d8c2d889d6c",  # b_0
        "2ece2275b9782d0c962de39642a5d396cc5a9cdb2d2f9c8f10f2b058b67f70ec",  # w_ih_1
        "9107a9473a960ae1ded63782d75e425f791117b1d3f5048107474a992bfad957",  # w_hh_1
        "e4c883e1430bc873b8553513ec1eadd881780eabefdf8637dab1f66dba377889",  # b_1
        "7544ebbdf90d5e7335dfaaa0e7f4c61c7bc6bb0dd2796c61f7bc2c5f615d35cd",  # w_out
        "d92de2aa3a349803a1c24f5c03897b14547920144d5378457ce800ba6dd1688a",  # b_out
    ),
}
# sha256 of the parameters and of the loss history after 4 float32 epochs
PINNED_TRAINED = (
    "e1aad4867d2bc1acb0220937527b10afe9be47ae84150cb71beef74859c7b737",
    "ca9bf9c7af69a48eb736721538b173211288a28d76e005082e0f38fb75c309e0",
)


PINNED_GRADS_CODE = """
import sys
import numpy as np
import test_hedger as t
dtype, chunked = sys.argv[1:]
if chunked == "True":
    t.hedger.TAPE_BATCH_LIMIT = 64
print(*(t.sha256([g]) for g in t.chunked_grads(t.parameters(np.dtype(dtype)),
                                                  t.heston_paths(300))))
"""


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("chunked", [False, True], ids=["single_tape", "chunked"])
def test_pinned_gradients(dtype, chunked):
    """The 300-path batch's gradients, computed in a fresh interpreter with
    one BLAS thread, as CI and perfbench run. A multi-threaded OpenBLAS
    splits a GEMM's paths among its threads, and in float64 a split that
    leaves a partial panel of paths rounds those paths otherwise, so the
    float64 single-tape gradient depends on the BLAS thread count."""
    path = [str(Path(hedger.__file__).parents[1]), str(Path(__file__).parent),
            os.environ.get("PYTHONPATH")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run([sys.executable, "-c", PINNED_GRADS_CODE, dtype, str(chunked)],
                            capture_output=True, text=True, env=env, timeout=300, check=True)
    names = hedger.PARAM_NAMES
    assert (dict(zip(names, result.stdout.split()))
            == dict(zip(names, PINNED_GRADS[dtype, chunked])))


def test_pinned_training_trajectory():
    model = hedger.train_hedger(hedger.TrainConfig(epochs=4, paths_per_epoch=300, seed=5),
                                CALIBRATIONS["baseline"], GRID, COST, STRIKE)
    params = sha256(model.params[k] for k in hedger.PARAM_NAMES)
    losses = sha256([np.array(model.loss_history)])
    assert (params, losses) == PINNED_TRAINED


def count_rollouts(monkeypatch, hold=0.0):
    """Wrap hedger._infer and autodiff.backward; count plain and saving shard
    rollouts, the threads that make each kind, the paths whose saved state
    is live from its saving rollout to the end of its backward, and the
    backwards that run on another thread than the rollout whose state they
    read. ``hold`` sleeps in each saving rollout, so that the threads
    overlap."""
    counts = {"plain": 0, "saving": 0, "live": 0, "peak": 0, "moved": 0,
              "threads": {"plain": set(), "saving": set()}}
    lock, tapes = threading.Lock(), {}  # id of a live saved state -> (paths, thread)
    infer, backward = hedger._infer, ad.backward

    def counted_infer(params, paths, strike, **kwargs):
        saved = kwargs.get("saved")
        kind = "plain" if saved is None else "saving"
        with lock:
            counts[kind] += 1
            counts["threads"][kind].add(threading.get_ident())
            if saved is not None:
                tapes[id(saved)] = (paths.n_paths, threading.get_ident())
                counts["live"] += paths.n_paths
                counts["peak"] = max(counts["peak"], counts["live"])
        time.sleep(0.0 if saved is None else hold)
        return infer(params, paths, strike, **kwargs)

    def counted_backward(params, saved, g_delta):
        grads = backward(params, saved, g_delta)
        with lock:
            n_paths, thread = tapes.pop(id(saved))
            counts["live"] -= n_paths
            counts["moved"] += thread != threading.get_ident()
        return grads

    monkeypatch.setattr(hedger, "_infer", counted_infer)
    monkeypatch.setattr(ad, "backward", counted_backward)
    return counts


@pytest.mark.parametrize("a", [1.0, 1e4], ids=["a1", "a1e4"])
@pytest.mark.parametrize("limit, plain", [(64, 0), (32, 4)], ids=["kept_tapes", "re_rolled"])
def test_sharded_gradient_equals_single_tape_up_to_summation_order(monkeypatch, limit, plain, a):
    """64 paths x 8 steps, float64: the one-shard gradient against four
    16-path shards, relative to each parameter's max|g|, and the loss against
    the entropic risk of the concatenated P&L, bit for bit. At a 64-path tape
    limit each shard is backpropagated from its own softmax as soon as it is
    rolled out, and the shard gradients are weighted by the shards' shares
    of the batch's exp(-a pnl) mass; at 32 pass one rolls the shards out
    without saving and pass two rolls them out again, saving, and
    backpropagates the full batch's softmax. At a = 1e4 the shards' a·risk
    lie more than 745 apart, so the weight of the shard of least risk, exp
    of that difference, underflows to 0, and exp of an unshifted a·risk
    (about 2,500) would overflow."""
    paths = heston_paths(64, seed=11, grid=PathGrid(n_steps=8, maturity=0.5))
    params = parameters(np.float64)
    pnl = HedgePnL(paths.spot, COST.cost_rate, STRIKE).pnl(hedger._infer(params, paths, STRIKE))
    risks = [entropic_risk(pnl[lo : lo + 16], a) for lo in range(0, 64, 16)]
    spread = a * (max(risks) - min(risks))
    assert spread > 745 if a > 1 else spread < 1
    full = hedger._chunked_backward(params, paths, COST, STRIKE, a)[1]
    monkeypatch.setattr(hedger, "SHARD_PATHS", 16)
    monkeypatch.setattr(hedger, "TAPE_BATCH_LIMIT", limit)
    counts = count_rollouts(monkeypatch)
    loss, sharded = hedger._chunked_backward(params, paths, COST, STRIKE, a)
    assert (counts["plain"], counts["saving"]) == (plain, 4)
    assert loss == entropic_risk(pnl, a)
    for name, g_full, g_shard in zip(hedger.PARAM_NAMES, full, sharded):
        assert g_shard.dtype == np.float64
        assert np.isfinite(g_shard).all(), name
        assert np.abs(g_shard - g_full).max() <= 1e-12 * np.abs(g_full).max(), name


@pytest.mark.parametrize("limit", [6144, 128], ids=["kept_tapes", "re_rolled"])
def test_sharded_gradient_does_not_depend_on_the_cpu_count(paths_300, monkeypatch, limit):
    """300 float32 paths in five 64-path shards (the last one 44)."""
    monkeypatch.setattr(hedger, "SHARD_PATHS", 64)
    monkeypatch.setattr(hedger, "TAPE_BATCH_LIMIT", limit)
    results = []
    for cpus in (1, 2, 4):
        monkeypatch.setattr(threads, "usable_cpus", lambda: cpus)
        loss, grads = hedger._chunked_backward(parameters(np.float32), paths_300, COST, STRIKE,
                                               1.0)
        results.append((loss, sha256(grads)))
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("limit", [hedger.TAPE_BATCH_LIMIT, 64], ids=["one_pass", "two_pass"])
def test_a_reused_tape_changes_no_bit(paths_300, monkeypatch, limit):
    """300 float32 paths in five 64-path shards (the last one 44) on two
    usable CPUs, whose tapes pass from shard to shard within the call: tapes
    filled with NaN before every saving forward give the gradient of tapes
    zeroed as fresh memory, and of tapes as the last shard left them, bit
    for bit, so no shard reads what another wrote. Each call allocates at
    most one tape per thread, min(shards, usable CPUs, TAPE_BATCH_LIMIT //
    shard), each one of the first shard's length."""
    monkeypatch.setattr(hedger, "SHARD_PATHS", 64)
    monkeypatch.setattr(hedger, "TAPE_BATCH_LIMIT", limit)
    monkeypatch.setattr(threads, "usable_cpus", lambda: 2)
    infer, workspaces, allocations = hedger._infer, hedger._workspaces, []

    def allocating(params, paths):
        allocations.append(paths.n_paths)
        return workspaces(params, paths)

    def filling(value):
        def rollout(params, paths, strike, out=None, *, saved=None):
            if saved is not None and value is not None:
                for array in (saved[0], *(array for tape in saved[1] for array in tape)):
                    array.fill(value)
            return infer(params, paths, strike, out, saved=saved)
        return rollout

    monkeypatch.setattr(hedger, "_workspaces", allocating)
    results = []
    for value in (0.0, np.nan, None):
        allocations.clear()
        monkeypatch.setattr(hedger, "_infer", filling(value))
        results.append(sha256(chunked_grads(parameters(np.float32), paths_300)))
        assert 1 <= len(allocations) <= min(5, 2, limit // 64)
        assert set(allocations) == {64}
    assert results[0] == results[1] == results[2]


def test_no_two_running_shards_share_a_tape(paths_300, monkeypatch):
    """Stress: 300 paths in 19 shards of 16 on 8 threads, more than a
    2- or 4-CPU host runs at once, with a 10 µs thread switch interval.
    No tape is handed to a shard while another shard's forward or backward
    holds it, a call allocates at most 8 tapes, and the gradient is the one
    thread's bit for bit."""
    monkeypatch.setattr(hedger, "SHARD_PATHS", 16)
    infer, backward, workspaces = hedger._infer, ad.backward, hedger._workspaces
    lock, held, clashes, allocations = threading.Lock(), set(), [], []

    def address(saved):
        return saved[0].__array_interface__["data"][0]

    def holding(params, paths, strike, out=None, *, saved=None):
        if saved is not None:
            with lock:
                clashes.append(address(saved) in held)
                held.add(address(saved))
        return infer(params, paths, strike, out, saved=saved)

    def releasing(params, saved, g_delta):
        grads = backward(params, saved, g_delta)
        with lock:
            held.remove(address(saved))
        return grads

    monkeypatch.setattr(hedger, "_infer", holding)
    monkeypatch.setattr(ad, "backward", releasing)
    monkeypatch.setattr(hedger, "_workspaces",
                        lambda *args: allocations.append(1) or workspaces(*args))
    results = []
    for cpus in (1, 8):
        monkeypatch.setattr(threads, "usable_cpus", lambda: cpus)
        allocations.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results.append(sha256(chunked_grads(parameters(np.float32), paths_300)))
        finally:
            sys.setswitchinterval(interval)
        assert len(allocations) <= cpus
    assert len(clashes) == 38 and not any(clashes)
    assert results[0] == results[1]


def test_at_most_tape_batch_limit_paths_are_taped_at_once(monkeypatch):
    """16 usable CPUs, 160 paths in ten 16-path shards, a 48-path tape limit:
    each pass runs on at most 3 threads, so at most 48 paths have saved state
    at once. The passes use separate pools, whose threads need not share
    idents."""
    paths = heston_paths(160, seed=12, grid=PathGrid(n_steps=4, maturity=0.5))
    monkeypatch.setattr(hedger, "SHARD_PATHS", 16)
    monkeypatch.setattr(hedger, "TAPE_BATCH_LIMIT", 48)
    monkeypatch.setattr(threads, "usable_cpus", lambda: 16)
    counts = count_rollouts(monkeypatch, hold=0.02)
    chunked_grads(parameters(np.float32), paths)
    assert (counts["plain"], counts["saving"]) == (10, 10)
    assert counts["live"] == 0
    assert 16 <= counts["peak"] <= 48
    assert 1 <= len(counts["threads"]["plain"]) <= 3
    assert 1 <= len(counts["threads"]["saving"]) <= 3


def test_a_kept_tape_epoch_tapes_one_shard_per_thread(monkeypatch):
    """Two usable CPUs, 160 paths in ten 16-path shards, the default tape
    limit: each shard's job rolls the shard out, saving, and backpropagates
    it on the same thread before the next shard starts, so at most two
    shards' tapes are live at once (keeping every tape for a second pass
    held all 160 paths' tapes)."""
    paths = heston_paths(160, seed=12, grid=PathGrid(n_steps=4, maturity=0.5))
    monkeypatch.setattr(hedger, "SHARD_PATHS", 16)
    monkeypatch.setattr(threads, "usable_cpus", lambda: 2)
    counts = count_rollouts(monkeypatch, hold=0.02)
    chunked_grads(parameters(np.float32), paths)
    assert (counts["plain"], counts["saving"]) == (0, 10)
    assert counts["live"] == 0
    assert 16 <= counts["peak"] <= 32
    assert counts["moved"] == 0


def test_interrupt_main_stops_the_running_shard_rollouts(monkeypatch, interrupt_when_running):
    """Ctrl-C once both running shards of a 5,000 x 126 float32 epoch's
    gradient (four 1,250-path shards rolled out, saving, two at a time on two
    threads, 0.17-0.27 s each on a 2-vCPU host) have passed step 2 raises
    within 0.3 s: both saving rollouts stop at their next step, the other two
    shards never start, and no shard thread is left alive. Two usable CPUs,
    so that the shards run on pool threads on any host."""
    monkeypatch.setattr(threads, "usable_cpus", lambda: 2)
    paths = heston_paths(5000, seed=13, grid=PathGrid(n_steps=126, maturity=0.5))
    record = []
    infer = hedger._infer

    def recorded(*args, **kwargs):
        entry = [threading.current_thread(), kwargs.get("saved") is not None, None]
        record.append(entry)
        try:
            return infer(*args, **kwargs)
        except BaseException as exc:
            entry[2] = exc
            raise

    monkeypatch.setattr(hedger, "_infer", recorded)
    fired = interrupt_when_running(hedger, jobs=2)
    with pytest.raises(KeyboardInterrupt):
        chunked_grads(parameters(np.float32), paths)
    assert time.perf_counter() - fired[0] < 0.3
    assert len(record) == 2
    for thread, saving, exc in record:
        assert saving
        assert not thread.is_alive()
        assert isinstance(exc, CancelledError)


def test_sharded_loss_matches_the_entropic_formula(monkeypatch):
    """The loss of a sharded float64 batch is the entropic risk, by the
    direct formula, of the reports' P&L of the inference rollout."""
    paths = heston_paths(40, seed=3, grid=PathGrid(n_steps=8, maturity=0.5))
    model = hedger.init_model(4, hidden=4)
    monkeypatch.setattr(hedger, "SHARD_PATHS", 16)
    loss, _ = hedger._chunked_backward(model.params, paths, COST, STRIKE, 1.0)
    pnl = compute_pnl(paths, hedger.forward_rollout(model, paths, STRIKE), COST, STRIKE).pnl
    assert loss == pytest.approx(np.log(np.mean(np.exp(-pnl))), abs=1e-12)


def test_float32_shards_give_float32_gradients(paths_300, monkeypatch):
    """The shards backpropagate float32 weights, so every parameter's
    gradient is float32."""
    monkeypatch.setattr(hedger, "SHARD_PATHS", 64)
    grads = chunked_grads(parameters(np.float32), paths_300)
    assert len(grads) == len(hedger.PARAM_NAMES)
    assert {g.dtype for g in grads} == {np.dtype(np.float32)}


def test_gradient_check_on_tiny_float64_model():
    model = hedger.init_model(3, hidden=4)
    paths = heston_paths(32, seed=5, grid=PathGrid(n_steps=6, maturity=0.5))
    worst = gradient_check(model, paths, n_params_sampled=40)
    assert worst < 1e-3


def test_gradient_check_of_a_diverged_model_raises():
    model = hedger.init_model(3, hidden=4)
    model.params["w_out"][0, 0] = np.nan
    paths = heston_paths(32, seed=5, grid=PathGrid(n_steps=6, maturity=0.5))
    with pytest.raises(NumericalDivergenceError):
        gradient_check(model, paths)


def test_tape_holds_at_most_six_hidden_widths_per_path_and_cell():
    """Bytes a saving float32 forward holds when it returns: its hedge ratios
    and the state the backward reads, 4·H values per path and cell (i, f, o
    and g), c at the end of every segment of K = ceil(sqrt(n_steps)) steps
    but the last and a K-step segment buffer (the backward rebuilds c and
    recomputes tanh(c) and h), plus the step's inputs: at most 5·H on the
    16-step grid (4.52·H) and 4.3·H on the 126-step grid (4.25·H)."""
    n_paths = 512
    params = parameters(np.float32)
    for grid, most in ((GRID, 5.0), (PathGrid(n_steps=126, maturity=0.5), 4.3)):
        paths = heston_paths(n_paths, seed=3, grid=grid)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            delta, saved = saving_forward(params, paths)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        cells = grid.n_steps * hedger.N_LAYERS
        values_per_path_cell = held / (4 * n_paths * cells)
        assert 4 * hedger.HIDDEN <= values_per_path_cell <= most * hedger.HIDDEN, grid
        grads = ad.backward(params, saved, np.ones_like(delta))  # the state is complete
        assert all(np.isfinite(g).all() for g in grads)


def test_backward_working_memory_is_bounded_per_path_and_flat_in_the_steps():
    """tracemalloc peak of autodiff.backward above the saved state, float32,
    H = 32, 512 paths: its per-step temporaries and the recomputed tanh(c)
    and h, at most 4.5 kB per path on a 16- and a 64-step grid (3.6 kB
    measured), and the 64-step peak at most 0.5 kB per path above the
    16-step one. A weight gradient gathered over all steps at once would hold
    (n_steps, B, 4H) and fail the second bound."""
    n_paths = 512
    params = parameters(np.float32)
    peaks = []
    for n_steps in (16, 64):
        paths = heston_paths(n_paths, seed=3, grid=PathGrid(n_steps=n_steps, maturity=0.5))
        delta, saved = saving_forward(params, paths)
        g_delta = np.ones_like(delta)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ad.backward(params, saved, g_delta)
            peaks.append((tracemalloc.get_traced_memory()[1] - before) / n_paths)
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 4500
    assert peaks[1] - peaks[0] <= 500


@pytest.mark.parametrize("shard", [hedger.SHARD_PATHS, 16], ids=["one_shard", "four_shards"])
def test_a_batch_that_leaves_the_reals_names_its_epoch(monkeypatch, shard):
    """A NaN spot in epoch 2's batch makes a hedge ratio, and so the loss,
    non-finite: train_hedger raises naming the epoch, whether the shard that
    meets it runs on the calling thread or on a pool thread, and simulates
    no later batch."""
    monkeypatch.setattr(hedger, "SHARD_PATHS", shard)
    monkeypatch.setattr(threads, "usable_cpus", lambda: 2)
    simulate, batches = hedger.simulate_heston, []

    def poisoned(*args, **kwargs):
        paths = simulate(*args, **kwargs)
        batches.append(paths)
        if len(batches) == 3:
            spot = paths.spot.copy()
            spot[37, 5] = np.nan
            paths = dataclasses.replace(paths, spot=spot)
        return paths

    monkeypatch.setattr(hedger, "simulate_heston", poisoned)
    message = "^hedger: training loss diverged at epoch 2$"
    with pytest.raises(NumericalDivergenceError, match=message):
        hedger.train_hedger(hedger.TrainConfig(epochs=5, paths_per_epoch=64, seed=5),
                            CALIBRATIONS["baseline"], GRID, COST, STRIKE)
    assert len(batches) == 3


def test_checkpoint_round_trip(tmp_path):
    model = hedger.train_hedger(hedger.TrainConfig(epochs=2, paths_per_epoch=32, seed=9),
                                CALIBRATIONS["baseline"], GRID, COST, STRIKE)
    filename = str(tmp_path / "member.npz")
    hedger.save_model(model, filename)
    loaded = hedger.load_model(filename)
    assert loaded.params.keys() == model.params.keys()
    for name, value in model.params.items():
        assert loaded.params[name].dtype == value.dtype
        assert np.array_equal(loaded.params[name], value), name
    assert loaded.loss_history == model.loss_history
    assert loaded.seed == model.seed


@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.parametrize("damage", ["truncated", "not_a_zip"])
def test_a_file_that_is_not_an_archive_is_refused_and_closed(tmp_path, damage):
    """A checkpoint cut in half still starts as a zip archive, so np.load
    hands its file to a zip reader that fails; a file that is no zip at all
    np.load refuses. load_model names either in a ParameterError and leaves
    no file open, which would warn once collected."""
    model = hedger.init_model(3, hidden=4)
    filename = tmp_path / "member_1.npz"
    hedger.save_model(model, str(filename))
    raw = filename.read_bytes()
    filename.write_bytes(raw[: len(raw) // 2] if damage == "truncated" else b"not a checkpoint")
    with pytest.raises(ParameterError, match="is not a hedger checkpoint"):
        hedger.load_model(str(filename))
    gc.collect()


def test_a_failed_checkpoint_write_leaves_the_previous_checkpoint(tmp_path, monkeypatch):
    """An np.savez that raises partway through its archive leaves the earlier
    member_0.npz byte for byte and no temporary file; the next save replaces
    it, at the name as given, and leaves nothing else."""
    filename = tmp_path / "member_0.npz"
    hedger.save_model(hedger.init_model(3, hidden=4), str(filename))
    before = filename.read_bytes()

    def failing_savez(file, *args, **kwargs):
        file.write(before[: len(before) // 2])
        raise OSError(28, "No space left on device")

    savez = np.savez
    monkeypatch.setattr(np, "savez", failing_savez)
    with pytest.raises(OSError, match="No space left"):
        hedger.save_model(hedger.init_model(4, hidden=4), str(filename))
    assert filename.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["member_0.npz"]
    monkeypatch.setattr(np, "savez", savez)
    hedger.save_model(hedger.init_model(4, hidden=4), str(tmp_path / "member_1"))
    assert hedger.load_model(str(tmp_path / "member_1")).seed == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == ["member_0.npz", "member_1"]


def test_a_checkpoint_of_another_depth_is_refused(tmp_path):
    """Metadata whose n_layers is not N_LAYERS is refused, as a wrong
    input_dim is, rather than loaded with its extra layers ignored."""
    model = hedger.init_model(3, hidden=4)
    filename = str(tmp_path / "member.npz")
    hedger.save_model(model, filename)
    with np.load(filename) as data:
        arrays = dict(data)
    meta = json.loads(bytes(arrays["meta"]).decode())
    assert meta["n_layers"] == hedger.N_LAYERS
    meta["n_layers"] = 3
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(filename, **arrays)
    with pytest.raises(ParameterError, match="is not a hedger checkpoint.*n_layers 3"):
        hedger.load_model(filename)


def test_a_checkpoint_whose_hidden_is_not_its_width_is_refused(tmp_path):
    """The width is read from the arrays; metadata that gives another hidden
    is refused, as another n_layers is."""
    model = hedger.init_model(3, hidden=4)
    filename = str(tmp_path / "member.npz")
    hedger.save_model(model, filename)
    with np.load(filename) as data:
        arrays = dict(data)
    meta = json.loads(bytes(arrays["meta"]).decode())
    assert meta["hidden"] == 4
    meta["hidden"] = hedger.HIDDEN
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(filename, **arrays)
    with pytest.raises(ParameterError,
                       match="is not a hedger checkpoint.*hidden 32 over arrays of width 4"):
        hedger.load_model(filename)


def model_in(dtype, seed=7):
    model = hedger.init_model(seed)
    model.params = {k: v.astype(dtype) for k, v in model.params.items()}
    return model


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("n_steps", [16, 126])
@pytest.mark.parametrize("n_paths", [1, 7, 500, 1000])
def test_kernel_equals_the_tape_bit_for_bit(dtype, n_steps, n_paths):
    """The plain forward, which reuses its buffers, gives the saving
    forward's hedge ratios bit for bit, and so does forward_rollout. So does
    the head on the top layer's h = o tanh(c), with c rebuilt segment by
    segment from the saved state as autodiff.backward rebuilds it."""
    paths = heston_paths(n_paths, seed=n_paths, grid=PathGrid(n_steps=n_steps, maturity=0.5))
    model = model_in(np.dtype(dtype))
    taped, (_, tapes) = saving_forward(model.params, paths)
    gates, _, buffer = tapes[-1]
    o_rows = slice(2 * hedger.HIDDEN, 3 * hedger.HIDDEN)
    recomputed = np.empty_like(taped)
    for t in range(n_steps):
        segment, offset = divmod(t, len(buffer))
        if offset == 0:
            states = ad._cell_states(tapes[-1], segment)
        h_top = np.multiply(gates[t, o_rows], np.tanh(states[offset]))
        head = h_top.T.copy() @ model.params["w_out"]  # the (B, H) copy the head reads
        head += model.params["b_out"]
        recomputed[:, t] = head[:, 0]
    assert recomputed.tobytes() == taped.tobytes()
    delta = hedger._infer(model.params, paths, STRIKE)
    assert delta.dtype == taped.dtype and delta.shape == taped.shape == (n_paths, n_steps)
    assert delta.flags.c_contiguous
    assert delta.tobytes() == taped.tobytes()
    schedule = hedger.forward_rollout(model, paths, STRIKE).delta
    assert schedule.tobytes() == np.asarray(taped, dtype=float).tobytes()


# n_paths -> sha256 of the float32 seed-7 model's hedge ratios on 126 steps,
# from forward_rollout (the schedule's float64) and from a saving forward
# (float32), recorded with per-gate (B, H) GEMMs before the state became
# feature-major
PINNED_FORWARD = {
    500: ("459a8c3a128811a71e4565316765ca57dadd5a8d53a78b97da0b2d98a650e3f2",
          "2eb60b44aa5f286d2762fa6d93ed042a09af9db1e8ea5be9169451accbf85f87"),
    2512: ("601392894c1905354d15c7066e3557ee79c016f23510c4529d2fd8824652ddce",
           "417e00145632dec4c96056503c2730243ef1c2e0b10f331f2aef9cc38f9db4d6"),
}


@pytest.mark.parametrize("n_paths", sorted(PINNED_FORWARD))
def test_pinned_forward(n_paths):
    """A float32 model's hedge ratios keep their bits: 500 paths, and 2,512,
    the last of aggregate's 10,000-path blocks."""
    paths = heston_paths(n_paths, seed=n_paths, grid=PathGrid(n_steps=126, maturity=0.5))
    model = model_in(np.float32)
    plain = hedger.forward_rollout(model, paths, STRIKE).delta
    taped, _ = saving_forward(model.params, paths)
    assert (sha256([plain]), sha256([taped])) == PINNED_FORWARD[n_paths]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("n_steps", [1, 2, 3, 11, 12, 13, 126])
def test_checkpointed_gradients_equal_those_of_a_tape_of_every_cell_state(
        monkeypatch, dtype, n_steps):
    """autodiff.backward's gradients, with c rebuilt in segments of
    ceil(sqrt(n_steps)) steps, equal bit for bit those from a tape whose
    segments are one step long, so that it checkpoints every c but the last:
    a lone step, segments of one step, full segments only (12 steps in 3 of
    4) and a last segment shorter than the rest (11, 13 and 126 steps)."""
    params = parameters(np.dtype(dtype), hidden=8)
    paths = heston_paths(9, seed=n_steps, grid=PathGrid(n_steps=n_steps, maturity=0.5))
    g_delta = np.random.default_rng(n_steps).normal(size=(9, n_steps)).astype(dtype)
    delta, saved = saving_forward(params, paths)
    segmented = ad.backward(params, saved, g_delta)
    monkeypatch.setattr(hedger, "_segment_steps", lambda n: 1)
    every_step, every_saved = saving_forward(params, paths)
    assert every_saved[1][0][1].shape == (n_steps - 1, 8, 9)
    assert every_step.tobytes() == delta.tobytes()
    assert sha256(ad.backward(params, every_saved, g_delta)) == sha256(segmented)


@pytest.mark.parametrize("where, step", [("w_out", 0), ("spot", 5)])
def test_non_finite_hedge_names_its_step(paths_300, where, step):
    model = model_in(np.float32)
    paths = paths_300
    if where == "spot":
        spot = paths_300.spot.copy()
        spot[3, step] = np.nan
        paths = dataclasses.replace(paths_300, spot=spot)
    else:
        model.params[where][1, 0] = np.nan
    with pytest.raises(NumericalDivergenceError, match=f"non-finite hedge ratio at step {step}$"):
        hedger.forward_rollout(model, paths, STRIKE)


def test_rollout_peak_memory_per_path():
    """tracemalloc peak of one float32 rollout, 2,000 paths x 126 steps.

    The kernel holds its buffers and the schedule's float64 output: about
    2.1 kB per path. The tape's no-grad branch it replaced peaked at about
    4.0 kB per path (its (n_steps, B, 3) inputs, per-step temporaries and
    output columns).
    """
    n_paths = 2000
    paths = heston_paths(n_paths, seed=8, grid=PathGrid(n_steps=126, maturity=0.5))
    model = model_in(np.float32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        hedger.forward_rollout(model, paths, STRIKE)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / n_paths <= 3000


@pytest.mark.parametrize("shard", [hedger.SHARD_PATHS, 64], ids=["one_shard", "five_shards"])
def test_float32_training_hands_adam_float32_gradients(monkeypatch, shard):
    """300-path epochs: every gradient Adam.step receives is float32."""
    monkeypatch.setattr(hedger, "SHARD_PATHS", shard)
    seen = []
    step = ad.Adam.step

    def recording_step(self, grads):
        seen.extend(g.dtype for g in grads)
        step(self, grads)

    monkeypatch.setattr(ad.Adam, "step", recording_step)
    hedger.train_hedger(hedger.TrainConfig(epochs=1, paths_per_epoch=300, seed=5),
                        CALIBRATIONS["baseline"], GRID, COST, STRIKE)
    assert seen == [np.dtype(np.float32)] * len(hedger.PARAM_NAMES)
