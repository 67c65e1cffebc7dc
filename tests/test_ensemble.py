"""The concurrent (member, path-block) rollouts of ``aggregate``."""

import csv
import dataclasses
import io
import sys
import threading
import time
import tracemalloc
from concurrent.futures import CancelledError

import numpy as np
import pytest

from hedgeblend import ensemble, hedger, threads
from hedgeblend.accounting import CostSpec, HedgeSchedule
from hedgeblend.errors import NumericalDivergenceError, ParameterError
from hedgeblend.hedger import TrainConfig, forward_rollout, init_model
from hedgeblend.market import CALIBRATIONS, HestonBatch, PathGrid, simulate_heston

GRID = PathGrid(n_steps=32, maturity=0.5)


def float32_members(m):
    members = []
    for i in range(m):
        model = init_model(ensemble.member_seed(11, i))
        model.params = {k: v.astype(np.float32) for k, v in model.params.items()}
        members.append(model)
    return members


def index_of(members, model):
    return next(i for i, member in enumerate(members) if member is model)


@pytest.fixture(scope="module")
def paths():
    return simulate_heston(CALIBRATIONS["baseline"], GRID, 3000, seed=21)


@pytest.mark.parametrize("stress", [False, True], ids=["usable_cpus", "stress"])
def test_aggregate_equals_a_serial_loop_bit_for_bit(paths, monkeypatch, stress):
    """Run with whatever BLAS thread count the process has; nothing is forced.
    The stress case runs one thread per member, more than the cores, with the
    interpreter switching threads every microsecond."""
    members = float32_members(5)
    interval = sys.getswitchinterval()
    if stress:
        monkeypatch.setattr(threads, "usable_cpus", lambda: len(members))
        sys.setswitchinterval(1e-6)
    try:
        out = ensemble.aggregate(members, paths, 1.0)
    finally:
        sys.setswitchinterval(interval)
    stacked = np.stack([forward_rollout(model, paths, 1.0).delta for model in members])
    assert out.mean_hedge.delta.tobytes() == stacked.mean(axis=0).tobytes()
    spread = stacked.std(axis=0, ddof=1)
    assert out.disagreement.tobytes() == spread.tobytes()
    assert out.avg_disagreement.tobytes() == spread.mean(axis=1).tobytes()


def held_arrays(value):
    """The arrays an object keeps alive, each counted once by the buffer it
    views: an ndarray, or one reached through dataclass fields and lists."""
    if isinstance(value, np.ndarray):
        while isinstance(value.base, np.ndarray):
            value = value.base
        return {id(value): value}
    items = value if isinstance(value, (list, tuple)) else (
        vars(value).values() if dataclasses.is_dataclass(value) else ())
    return {key: a for item in items for key, a in held_arrays(item).items()}


def test_aggregate_keeps_no_per_member_arrays(paths):
    """The mean and the disagreement, B x n each, and its path average, B:
    not the five members' B x n schedules."""
    out = ensemble.aggregate(float32_members(5), paths, 1.0)
    arrays = held_arrays(out).values()
    assert all(a.dtype == np.float64 for a in arrays)
    assert sum(a.size for a in arrays) <= 2 * paths.n_paths * paths.n_steps + paths.n_paths


def test_aggregate_peak_stays_under_members_plus_three_schedules(monkeypatch):
    """tracemalloc peak of aggregate over 5 float32 members on 1,000 x 126
    paths, one rollout at a time: the (members, paths, steps) array, the mean
    and the disagreement, under (M + 3)·B·n float64 values. numpy's
    std(ddof=1) held a second (members, paths, steps) array for the
    deviations from the mean."""
    monkeypatch.setattr(threads, "usable_cpus", lambda: 1)
    members = float32_members(5)
    paths = simulate_heston(CALIBRATIONS["baseline"], PathGrid(n_steps=126, maturity=0.5),
                            1000, seed=22)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ensemble.aggregate(members, paths, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= (len(members) + 3) * paths.n_paths * paths.n_steps * 8


@pytest.fixture(scope="module")
def full_batch_rollouts():
    """n_paths -> (paths, members, serial full-batch schedules), made once."""
    made = {}

    def make(n_paths):
        if n_paths not in made:
            paths = simulate_heston(CALIBRATIONS["baseline"], PathGrid(n_steps=16, maturity=0.5),
                                    n_paths, seed=n_paths)
            members = float32_members(2)
            made[n_paths] = paths, members, [forward_rollout(m, paths, 1.0) for m in members]
        return made[n_paths]

    return make


@pytest.mark.parametrize("cpus", [1, 2, 8])
@pytest.mark.parametrize("n_paths", [2501, 5003, 10000])
def test_blocked_aggregate_equals_full_batch_rollouts_bit_for_bit(
    full_batch_rollouts, monkeypatch, n_paths, cpus
):
    """Row blocks whose last one ends in a 1-3-row remainder group of the
    head's matrix-vector product (2,501 and 5,003 paths are not multiples of
    4) reproduce the full batch on any CPU count."""
    paths, members, serial = full_batch_rollouts(n_paths)
    monkeypatch.setattr(threads, "usable_cpus", lambda: cpus)
    rolled = []

    def counted(model, paths, strike, **kwargs):
        rolled.append(paths.n_paths)
        return forward_rollout(model, paths, strike, **kwargs)

    monkeypatch.setattr(ensemble, "forward_rollout", counted)
    out = ensemble.aggregate(members, paths, 1.0)
    blocks = threads.row_blocks(n_paths)
    assert sorted(rolled) == sorted([hi - lo for lo, hi in blocks] * len(members))
    stacked = np.stack([h.delta for h in serial])
    assert out.mean_hedge.delta.tobytes() == stacked.mean(axis=0).tobytes()
    assert out.disagreement.tobytes() == stacked.std(axis=0, ddof=1).tobytes()


def filled(model, paths, strike, *, out=None):
    """A rollout stand-in that writes the member's seed into its block."""
    out[:] = float(model.seed)
    return HedgeSchedule(out, f"hedger_{model.seed}")


@pytest.mark.parametrize("members, cpus", [(5, 1), (5, 2), (3, 8), (2, 2)])
def test_pool_never_has_more_workers_than_usable_cpus(paths, monkeypatch, members, cpus):
    """3,000 paths are two blocks, so there are twice as many jobs as members."""
    pools = []

    class Spy(threads.ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    calls = []

    def stand_in(model, paths, strike, *, out=None):
        """Records the calling thread and holds it, so that calls overlap."""
        calls.append((model.seed, paths.n_paths, threading.get_ident()))
        time.sleep(0.05)
        return filled(model, paths, strike, out=out)

    monkeypatch.setattr(threads, "ThreadPoolExecutor", Spy)
    monkeypatch.setattr(threads, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(ensemble, "forward_rollout", stand_in)
    models = float32_members(members)
    out = ensemble.aggregate(models, paths, 1.0)
    blocks = threads.row_blocks(paths.n_paths)
    assert len(blocks) == 2
    workers = min(members * len(blocks), cpus)
    if workers == 1:  # no pool: every rollout runs on the calling thread
        assert pools == []
        assert {ident for *_, ident in calls} == {threading.get_ident()}
    else:
        assert pools == [workers]
        assert len({ident for *_, ident in calls}) <= workers
    assert sorted((seed, n) for seed, n, _ in calls) == sorted(
        (m.seed, hi - lo) for m in models for lo, hi in blocks)
    stacked = np.stack([np.full(out.mean_hedge.delta.shape, float(m.seed)) for m in models])
    assert np.array_equal(out.mean_hedge.delta, stacked.mean(axis=0))
    assert np.array_equal(out.disagreement, stacked.std(axis=0, ddof=1))


def test_interrupt_in_a_rollout_starts_no_further_rollouts(paths, monkeypatch):
    """The job of member 0's first block raises KeyboardInterrupt once the
    next job (member 0's second block) runs on the second worker; the other
    eight jobs are then skipped or cancelled, never rolled out."""
    monkeypatch.setattr(threads, "usable_cpus", lambda: 2)
    members = float32_members(5)
    first, second = (hi - lo for lo, hi in threads.row_blocks(paths.n_paths))
    started = []
    second_running = threading.Event()
    interrupt = KeyboardInterrupt("stop")

    def stand_in(model, paths, strike, *, out=None):
        job = (index_of(members, model), paths.n_paths)
        started.append(job)
        if job == (0, first):
            assert second_running.wait(timeout=5)
            raise interrupt
        second_running.set()
        time.sleep(0.2)
        return filled(model, paths, strike, out=out)

    monkeypatch.setattr(ensemble, "forward_rollout", stand_in)
    with pytest.raises(KeyboardInterrupt) as info:
        ensemble.aggregate(members, paths, 1.0)
    assert info.value is interrupt
    assert sorted(started) == sorted([(0, first), (0, second)])


def test_failing_rollout_is_raised_in_member_order(paths, monkeypatch):
    """Member 1 fails first, while member 0's second block is still running;
    member 0's later failure is the one raised."""
    monkeypatch.setattr(threads, "usable_cpus", lambda: 2)
    members = float32_members(4)
    first, _ = threads.row_blocks(paths.n_paths)
    failed = []

    def stand_in(model, paths, strike, *, out=None):
        index = index_of(members, model)
        if index == 0 and paths.n_paths == first[1] - first[0]:
            return filled(model, paths, strike, out=out)
        if index == 0:
            time.sleep(0.2)
        failed.append(index)
        raise NumericalDivergenceError(f"member {index}")

    monkeypatch.setattr(ensemble, "forward_rollout", stand_in)
    with pytest.raises(NumericalDivergenceError, match="member 0"):
        ensemble.aggregate(members, paths, 1.0)
    assert failed == [1, 0]


@pytest.mark.parametrize("m, message", [
    (1, "m must be >= 2, got 1"),
    (2.0, "m must be an integer, got 2.0"),
    (True, "m must be an integer, got True"),
], ids=["one", "float", "bool"])
def test_a_member_count_that_is_not_an_integer_of_at_least_2_is_refused(monkeypatch, m, message):
    def fail(*args, **kwargs):
        raise AssertionError("a member trained")

    monkeypatch.setattr(ensemble, "train_hedger", fail)
    with pytest.raises(ParameterError, match=f"^{message}$"):
        ensemble.train_ensemble(m, TrainConfig(), CALIBRATIONS["baseline"], GRID,
                                CostSpec(5e-4), 1.0)


def test_a_diverging_member_is_named_once(monkeypatch):
    """A NaN spot in member 1's only batch: the error names member 1 once,
    around the hedger's own message."""
    batches = []

    class Poisoned(HestonBatch):
        def rows(self, lo, hi):
            paths = super().rows(lo, hi)
            if lo <= 3 < hi:
                spot = paths.spot.copy()
                spot[3 - lo, 5] = np.nan
                paths = dataclasses.replace(paths, spot=spot)
            return paths

    def poisoned(*args, **kwargs):
        batches.append((Poisoned if len(batches) == 1 else HestonBatch)(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(hedger, "HestonBatch", poisoned)
    message = "^member 1 diverged: hedger: training loss diverged at epoch 0$"
    with pytest.raises(NumericalDivergenceError, match=message):
        ensemble.train_ensemble(2, hedger.TrainConfig(epochs=1, paths_per_epoch=32, seed=3),
                                CALIBRATIONS["baseline"], GRID, CostSpec(5e-4), 1.0)


def test_interrupt_main_stops_the_running_rollouts(monkeypatch, interrupt_when_running):
    """Ctrl-C once the first two of a 5 x 10,000 x 126 aggregate's 20 block
    rollouts (several seconds of work) have passed step 2 raises within
    0.3 s: the rollouts running then stop at their next step, none starts
    after it, and no rollout thread is left alive. Two usable CPUs, so that
    the rollouts run on pool threads on any host."""
    monkeypatch.setattr(threads, "usable_cpus", lambda: 2)
    paths = simulate_heston(CALIBRATIONS["baseline"], PathGrid(n_steps=126, maturity=0.5),
                            10000, seed=22)
    members = float32_members(5)
    record = []

    def recorded(model, paths, strike, *, out=None):
        entry = [threading.current_thread(), None]
        record.append(entry)
        try:
            return forward_rollout(model, paths, strike, out=out)
        except BaseException as exc:
            entry[1] = exc
            raise

    monkeypatch.setattr(ensemble, "forward_rollout", recorded)
    fired = interrupt_when_running(hedger, jobs=2)
    with pytest.raises(KeyboardInterrupt):
        ensemble.aggregate(members, paths, 1.0)
    assert time.perf_counter() - fired[0] < 0.3
    assert 0 < len(record) < 20
    for thread, exc in record:
        assert not thread.is_alive()
        assert exc is None or isinstance(exc, CancelledError)
    assert any(exc is not None for _, exc in record)


def test_path_uncertainty_csv_equals_the_csv_writer_output():
    gen = np.random.default_rng(5)
    avg = np.concatenate([gen.exponential(0.02, 1000), [0.0, 1e-300, 123456789.125, np.nan]])
    output = ensemble.EnsembleOutput(HedgeSchedule(np.zeros((avg.size, 1))),
                                     np.zeros((avg.size, 1)), avg)
    fh = io.StringIO()
    ensemble.write_path_uncertainty_csv(output, fh)
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["path_id", "avg_disagreement"])
    for p, value in enumerate(avg):
        writer.writerow([p, f"{value:.12g}"])
    assert fh.getvalue() == want.getvalue()
