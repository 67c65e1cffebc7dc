"""``threads.run_threads``: its worker count, its calling-thread mode and the
checkpoint that stops a job of a stopped call."""

import os
import threading
import time
from concurrent.futures import CancelledError

import numpy as np
import pytest

from hedgeblend import threads
from hedgeblend.accounting import CostSpec, HedgeSchedule
from hedgeblend.blend import fit_blend
from hedgeblend.ensemble import EnsembleOutput
from hedgeblend.hedger import forward_rollout, init_model
from hedgeblend.market import CALIBRATIONS, PathGrid, simulate_heston
from hedgeblend.risk import RiskSpec


def test_usable_cpus_is_the_affinity_mask():
    assert threads.usable_cpus() == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("items, cpus, limit, workers", [
    (5, 2, None, 2), (5, 8, None, 5), (5, 8, 3, 3), (2, 1, None, 1), (1, 8, None, 1),
    (6, 4, 1, 1), (0, 4, None, 0),
], ids=["cpus", "items", "limit", "one-cpu", "one-item", "limit-1", "no-items"])
def test_the_worker_count_is_the_least_of_items_cpus_and_limit(monkeypatch, items, cpus, limit,
                                                               workers):
    """Every job holds its thread until all the pool's threads have started
    one, so the pool runs on exactly as many threads as it may; one worker
    makes no pool and runs the jobs on the calling thread."""
    pools, idents = [], []

    class Spy(threads.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    started = threading.Barrier(max(workers, 1), timeout=10)

    def job(item):
        idents.append(threading.get_ident())
        if len(idents) <= workers:
            started.wait()
        return 2 * item

    monkeypatch.setattr(threads, "ThreadPoolExecutor", Spy)
    monkeypatch.setattr(threads, "usable_cpus", lambda: cpus)
    assert threads.run_threads(job, range(items), limit) == [2 * k for k in range(items)]
    if workers <= 1:
        assert pools == []
        assert set(idents) <= {threading.get_ident()}
    else:
        assert pools == [workers]
        assert len(set(idents)) == workers
        assert threading.get_ident() not in idents


def test_one_worker_runs_the_jobs_in_order_on_the_calling_thread():
    """A failing job stops the call, and the jobs after it do not run; the
    calling thread's checkpoint is free again once the call has ended."""
    ran = []

    def job(item):
        ran.append((item, threading.get_ident()))
        if item == 2:
            raise ValueError("job 2")
        return item

    caller = threading.get_ident()
    assert threads.run_threads(job, [0, 1], limit=1) == [0, 1]
    with pytest.raises(ValueError, match="job 2"):
        threads.run_threads(job, range(5), limit=1)
    assert ran == [(item, caller) for item in (0, 1, 0, 1, 2)]
    threads.check_stopped("raised after the call")


def wait_until_stopped():
    """Return once the call whose job runs on this thread is stopped."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            threads.check_stopped("stopped")
        except CancelledError:
            return
        time.sleep(0.001)
    raise AssertionError("the call was never stopped")


def test_a_stopped_call_cancels_a_rollout_and_a_fit_at_their_next_checkpoint(monkeypatch):
    """Three jobs on three threads: once all have started, one fails; the
    rollout and the blend fit that then start raise CancelledError at their
    first checkpoint, step 0 and iteration 0, and the failing job's own error
    is the one raised. A checkpoint outside a job never stops anything."""
    grid = PathGrid(n_steps=8, maturity=0.5)
    paths = simulate_heston(CALIBRATIONS["baseline"], grid, 64, seed=3)
    hedge = HedgeSchedule(np.full((paths.n_paths, grid.n_steps), 0.5))
    psi = np.full(hedge.delta.shape, 0.01)
    ens = EnsembleOutput(hedge, psi, psi.mean(axis=1))
    started = threading.Barrier(3, timeout=10)
    raised = {}

    def job(kind):
        started.wait()
        if kind == "fail":
            raise ValueError("job failed")
        wait_until_stopped()
        try:
            if kind == "rollout":
                forward_rollout(init_model(4), paths, 1.0)
            else:
                fit_blend(paths, ens, hedge, CostSpec(5e-4), 1.0, RiskSpec("cvar"))
        except CancelledError as exc:
            raised[kind] = str(exc)
            raise

    monkeypatch.setattr(threads, "usable_cpus", lambda: 3)
    with pytest.raises(ValueError, match="job failed"):
        threads.run_threads(job, ["rollout", "fail", "fit"])
    assert raised == {"rollout": "rollout stopped at step 0",
                      "fit": "blend fit stopped at iteration 0"}
    threads.check_stopped("never raised outside a job")
