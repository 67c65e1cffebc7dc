"""Process-pool training workers: the BLAS thread limit of their initialiser;
and the concurrent member rollouts of ``aggregate``."""

import _thread
import ctypes
import os
import sys
import threading
import time
from concurrent.futures import CancelledError, ProcessPoolExecutor

import numpy as np
import pytest

from hedgeblend import ensemble, threads
from hedgeblend.accounting import HedgeSchedule
from hedgeblend.errors import NumericalDivergenceError
from hedgeblend.hedger import forward_rollout, init_model
from hedgeblend.market import CALIBRATIONS, PathGrid, simulate_heston


def openblas(symbol, argtypes, restype):
    fn = ensemble._openblas_function(symbol)
    if fn is None:
        pytest.skip(f"numpy's OpenBLAS has no {symbol}")
    fn.argtypes, fn.restype = argtypes, restype
    return fn


def worker_blas_threads():
    return openblas("scipy_openblas_get_num_threads64_", [], ctypes.c_int)()


def test_pool_initialiser_leaves_each_worker_one_blas_thread():
    get_threads = openblas("scipy_openblas_get_num_threads64_", [], ctypes.c_int)
    set_threads = openblas("scipy_openblas_set_num_threads64_", [ctypes.c_int], None)
    before = get_threads()
    set_threads(2)  # a worker that kept this process's count would report 2
    try:
        with ProcessPoolExecutor(max_workers=1, initializer=ensemble._one_blas_thread) as pool:
            assert pool.submit(worker_blas_threads).result(timeout=60) == 1
    finally:
        set_threads(before)


# -- concurrent rollouts -----------------------------------------------------------

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
        monkeypatch.setattr(ensemble, "usable_cpus", lambda: len(members))
        sys.setswitchinterval(1e-6)
    try:
        out = ensemble.aggregate(members, paths, 1.0)
    finally:
        sys.setswitchinterval(interval)
    serial = [forward_rollout(model, paths, 1.0) for model in members]
    stacked = np.stack([h.delta for h in serial])
    assert [h.strategy_label for h in out.member_hedges] == [h.strategy_label for h in serial]
    for got, want in zip(out.member_hedges, serial):
        assert got.delta.tobytes() == want.delta.tobytes()
    assert out.mean_hedge.delta.tobytes() == stacked.mean(axis=0).tobytes()
    spread = stacked.std(axis=0, ddof=1)
    assert out.disagreement.tobytes() == spread.tobytes()
    assert out.avg_disagreement.tobytes() == spread.mean(axis=1).tobytes()


@pytest.mark.parametrize("members, cpus", [(5, 1), (5, 2), (3, 8), (2, 2)])
def test_pool_never_has_more_workers_than_usable_cpus(paths, monkeypatch, members, cpus):
    pools = []

    class Spy(threads.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    calls = []

    def stand_in(model, paths, strike, *, stop=None):
        """Records the calling thread and holds it, so that calls overlap."""
        calls.append((model.seed, threading.get_ident()))
        time.sleep(0.05)
        return HedgeSchedule(np.full((paths.n_paths, paths.n_steps), float(model.seed)), "m")

    monkeypatch.setattr(threads, "ThreadPoolExecutor", Spy)
    monkeypatch.setattr(ensemble, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(ensemble, "forward_rollout", stand_in)
    models = float32_members(members)
    out = ensemble.aggregate(models, paths, 1.0)
    workers = min(members, cpus)
    if workers == 1:  # no pool: every rollout runs on the calling thread
        assert pools == []
        assert {ident for _, ident in calls} == {threading.get_ident()}
    else:
        assert pools == [workers]
        assert len({ident for _, ident in calls}) <= workers
    assert sorted(seed for seed, _ in calls) == sorted(m.seed for m in models)
    assert [h.delta[0, 0] for h in out.member_hedges] == [float(m.seed) for m in models]


def test_one_worker_runs_the_jobs_in_order_on_the_calling_thread():
    """A failing job sets stop, and the jobs after it do not run."""
    ran = []

    def job(item):
        ran.append((item, threading.get_ident()))
        if item == 2:
            raise ValueError("job 2")
        return item

    caller = threading.get_ident()
    assert threads.run_threads(job, [0, 1], workers=1) == [0, 1]
    stop = threading.Event()
    with pytest.raises(ValueError, match="job 2"):
        threads.run_threads(job, range(5), workers=1, stop=stop)
    assert stop.is_set()
    assert ran == [(item, caller) for item in (0, 1, 0, 1, 2)]


def test_usable_cpus_is_the_affinity_mask():
    assert threads.usable_cpus() == len(os.sched_getaffinity(0))


def test_interrupt_in_a_rollout_starts_no_further_rollouts(paths, monkeypatch):
    """Member 0 raises KeyboardInterrupt once member 1 runs on the second
    worker; members 2-4 are then skipped or cancelled, never rolled out."""
    monkeypatch.setattr(ensemble, "usable_cpus", lambda: 2)
    members = float32_members(5)
    started = []
    second_running = threading.Event()
    interrupt = KeyboardInterrupt("stop")

    def stand_in(model, paths, strike, *, stop=None):
        index = index_of(members, model)
        started.append(index)
        if index == 0:
            assert second_running.wait(timeout=5)
            raise interrupt
        second_running.set()
        time.sleep(0.2)
        return HedgeSchedule(np.zeros((paths.n_paths, paths.n_steps)), "m")

    monkeypatch.setattr(ensemble, "forward_rollout", stand_in)
    with pytest.raises(KeyboardInterrupt) as info:
        ensemble.aggregate(members, paths, 1.0)
    assert info.value is interrupt
    assert sorted(started) == [0, 1]


def test_failing_rollout_is_raised_in_member_order(paths, monkeypatch):
    monkeypatch.setattr(ensemble, "usable_cpus", lambda: 2)
    members = float32_members(4)

    def stand_in(model, paths, strike, *, stop=None):
        raise NumericalDivergenceError(f"member {index_of(members, model)}")

    monkeypatch.setattr(ensemble, "forward_rollout", stand_in)
    with pytest.raises(NumericalDivergenceError, match="member 0"):
        ensemble.aggregate(members, paths, 1.0)


def test_a_set_stop_event_cancels_the_rollout(paths):
    stop = threading.Event()
    stop.set()
    with pytest.raises(CancelledError, match="rollout stopped at step 0"):
        forward_rollout(float32_members(2)[0], paths, 1.0, stop=stop)


def test_interrupt_main_stops_the_running_rollouts(monkeypatch):
    """Ctrl-C 0.3 s into a 5 x 10,000 x 126 aggregate (several seconds of
    rollouts) raises within 0.3 s: the running rollouts stop at their next
    step, and no rollout thread is left alive. Two usable CPUs, so that the
    rollouts run on pool threads on any host."""
    monkeypatch.setattr(ensemble, "usable_cpus", lambda: 2)
    paths = simulate_heston(CALIBRATIONS["baseline"], PathGrid(n_steps=126, maturity=0.5),
                            10000, seed=22)
    members = float32_members(5)
    record = []

    def recorded(model, paths, strike, *, stop=None):
        entry = [threading.current_thread(), None]
        record.append(entry)
        try:
            return forward_rollout(model, paths, strike, stop=stop)
        except BaseException as exc:
            entry[1] = exc
            raise

    monkeypatch.setattr(ensemble, "forward_rollout", recorded)
    timer = threading.Timer(0.3, _thread.interrupt_main)
    started = time.perf_counter()
    timer.start()
    try:
        with pytest.raises(KeyboardInterrupt):
            ensemble.aggregate(members, paths, 1.0)
    finally:
        timer.join(timeout=5)
    assert time.perf_counter() - started - 0.3 < 0.3
    assert record
    for thread, exc in record:
        assert not thread.is_alive()
        assert isinstance(exc, CancelledError)
