"""``threads.run_threads``: its worker count, its calling-thread mode and the
checkpoint that stops a job of a stopped call; ``threads.row_blocks``' cut."""

import _thread
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


def test_row_blocks_depend_only_on_the_path_count(monkeypatch):
    """Blocks start at multiples of 16 rows and every block but the last is
    a multiple of 16 long; at 32 rows per block or more none is empty."""
    assert threads.row_blocks(10000) == [(0, 2496), (2496, 4992), (4992, 7488), (7488, 10000)]
    assert threads.row_blocks(1000) == [(0, 1000)]
    assert threads.row_blocks(threads.BLOCK_ROWS) == [(0, threads.BLOCK_ROWS)]
    for n_paths in (2501, 3000, 5003, 10000, 20001):
        blocks = threads.row_blocks(n_paths)
        assert len(blocks) == -(-n_paths // threads.BLOCK_ROWS)
        assert blocks[0][0] == 0 and blocks[-1][1] == n_paths
        assert all(hi == lo for (_, hi), (lo, _) in zip(blocks, blocks[1:]))
        assert all(lo % 16 == 0 and (hi - lo) % 16 == 0 for lo, hi in blocks[:-1])
        assert blocks[-1][0] % 16 == 0
    monkeypatch.setattr(threads, "BLOCK_ROWS", 32)
    for n_paths in range(1, 400):
        assert all(hi > lo for lo, hi in threads.row_blocks(n_paths)), n_paths


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
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

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


def overlapped_record(monkeypatch, cpus, fail_at=None, make_error_at=None):
    """Run ``run_overlapped`` over items 0..5 on ``cpus`` usable CPUs and
    record, per item, the thread that made it and the number of ``fn``
    calls then ended, and per call, the thread that ran it. ``fn`` raises
    ValueError at item ``fail_at``; making item ``make_error_at`` raises
    KeyError, once the call of the item before it is running."""
    monkeypatch.setattr(threads, "usable_cpus", lambda: cpus)
    made, ran, ended = [], [], []
    running = threading.Event()

    def items():
        for k in range(6):
            if k == make_error_at:
                running.wait(10)
                raise KeyError(f"item {k}")
            made.append((k, threading.get_ident(), len(ended)))
            yield k

    def fn(k):
        ran.append((k, threading.get_ident()))
        try:
            if k == fail_at:
                raise ValueError(f"call {k}")
            if make_error_at is not None and k == make_error_at - 1:
                running.set()
                wait_until_stopped()
            return 10 * k
        finally:
            ended.append(k)

    try:
        return threads.run_overlapped(fn, items()), made, ran
    except Exception as exc:
        return exc, made, ran


def test_an_overlapped_call_returns_in_order_with_at_most_one_item_made_ahead(monkeypatch):
    """Every item is made on the calling thread and every call runs on one
    worker; item k is made only once the call of item k - 2 has ended."""
    results, made, ran = overlapped_record(monkeypatch, cpus=2)
    caller = threading.get_ident()
    assert results == [10 * k for k in range(6)]
    assert [(k, ident) for k, ident, _ in made] == [(k, caller) for k in range(6)]
    assert all(ended >= k - 1 for k, _, ended in made)
    assert [k for k, _ in ran] == list(range(6))
    assert len({ident for _, ident in ran}) == 1 and caller not in {ident for _, ident in ran}


def test_an_overlapped_call_raises_the_error_of_a_call_and_makes_no_further_item(monkeypatch):
    """Item 3 is made while the call of item 2 runs; once that call has
    failed, no item is made and no call starts."""
    error, made, ran = overlapped_record(monkeypatch, cpus=2, fail_at=2)
    assert isinstance(error, ValueError) and str(error) == "call 2"
    assert [k for k, _, _ in made] == [0, 1, 2, 3]
    assert [k for k, _ in ran] == [0, 1, 2]
    threads.check_stopped("raised after the call")


def test_an_error_making_an_item_stops_the_running_call(monkeypatch):
    """The running call ends at its checkpoint, and the maker's error is the
    one raised once it has ended."""
    error, made, ran = overlapped_record(monkeypatch, cpus=2, make_error_at=3)
    assert isinstance(error, KeyError) and str(error) == "'item 3'"
    assert [k for k, _ in ran] == [0, 1, 2]


def test_with_one_cpu_an_overlapped_call_is_the_plain_loop(monkeypatch):
    """No pool is made and every item and call stays on the calling thread;
    a failing call ends the loop before the next item is made."""
    pools = []

    class Spy(threads.ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(threads, "ThreadPoolExecutor", Spy)
    caller = threading.get_ident()
    results, made, ran = overlapped_record(monkeypatch, cpus=1)
    assert results == [10 * k for k in range(6)]
    assert {ident for _, ident, _ in made} == {ident for _, ident in ran} == {caller}
    error, made, ran = overlapped_record(monkeypatch, cpus=1, fail_at=2)
    assert isinstance(error, ValueError)
    assert [k for k, _, _ in made] == [0, 1, 2]
    assert pools == []


def test_interrupt_main_stops_an_overlapped_call(monkeypatch, interrupt_when_running):
    """Ctrl-C once the worker's call has passed checkpoint 2 raises within
    0.3 s: the call stops at its next checkpoint, no further item is made,
    and the worker thread is not left alive."""
    monkeypatch.setattr(threads, "usable_cpus", lambda: 2)
    made, record = [], []

    def items():
        for k in range(3):
            made.append(k)
            yield k

    def fn(k):
        entry = [threading.current_thread(), None]
        record.append(entry)
        try:
            for step in range(10_000):
                threads.check_stopped("overlapped call stopped at step %d", step)
                time.sleep(0.001)
        except BaseException as exc:
            entry[1] = exc
            raise

    fired = interrupt_when_running(threads, jobs=1)
    with pytest.raises(KeyboardInterrupt):
        threads.run_overlapped(fn, items())
    assert time.perf_counter() - fired[0] < 0.3
    assert made == [0, 1] and len(record) == 1
    thread, exc = record[0]
    assert not thread.is_alive()
    assert isinstance(exc, CancelledError)


def test_interrupt_main_while_the_pool_starts_a_worker_leaves_no_job_running(
        monkeypatch, default_sigint):
    """Ctrl-C fired as the second worker's first job begins lands while the
    calling thread may still be starting that worker, before the pool has
    registered it; every thread that ran a job has ended when the call
    raises. Without the join of every started worker, 166 of 300 such calls
    left one running."""
    monkeypatch.setattr(threads, "usable_cpus", lambda: 2)
    for _ in range(20):
        ran = []

        def job(k):
            ran.append(threading.current_thread())
            if k == 1:
                _thread.interrupt_main()
            for step in range(200):
                threads.check_stopped("job stopped at step %d", step)
                time.sleep(0.0005)

        with pytest.raises(KeyboardInterrupt):
            threads.run_threads(job, list(range(4)))
        assert not any(thread.is_alive() for thread in ran)
