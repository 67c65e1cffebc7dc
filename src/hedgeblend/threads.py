"""Thread pools whose jobs stop early when one fails or the caller is interrupted.

The (member, row-block) rollouts of an ensemble, the blend fits, the path
shards of a training epoch and the row blocks of a Heston simulation run on
threads (:func:`run_threads`), and a paired bootstrap evaluates each block
of resamples on a worker while the calling thread draws the next one
(:func:`run_overlapped`). Their work is numpy array operations, which
release the GIL, and each job writes only its own buffers or rows and only
reads shared arrays, so results equal a serial loop's.

This module alone decides how many threads run, how a batch of paths is cut
into row-block jobs (:func:`row_blocks`, for the simulation and the
rollouts) and when a job stops. The jobs' one checkpoint,
:func:`check_stopped`, is called by ``hedger._infer`` once per rollout step
and by ``blend.fit_blend`` once per iteration.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import CancelledError, ThreadPoolExecutor, wait
from contextlib import contextmanager

# Longest wait between checks for a Ctrl-C while the jobs run: a blocked wait
# would not see one raised by ``_thread.interrupt_main``.
POLL_SECONDS = 0.1

# Rows per block of :func:`row_blocks`, and two training shards
# (hedger.SHARD_PATHS), so that a shard's simulation is one block, on the
# shard's own thread. Blocks this long suit the rollouts, which keep no
# tape: on a 2-vCPU host with one BLAS thread, aggregating 5 float32 members
# over 10,000 x 126 paths on two threads took a median 1.89 s in 2,500-row
# blocks and 2.04 s in 1,250-row ones (9 runs each), while on one thread the
# 1,250-row blocks were the faster, 3.24 s against 3.40 s. A value below 32
# can leave blocks empty, when n_paths // count falls below 16; no shipped
# value does.
BLOCK_ROWS = 2500

# The stop event of the run_threads call whose job this thread is running.
_job = threading.local()


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask), else all of them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def row_blocks(n_paths: int) -> list[tuple[int, int]]:
    """``ceil(n_paths / BLOCK_ROWS)`` contiguous (lo, hi) row blocks.

    Every block but the last holds the same multiple of 16 rows and the last
    takes the remainder (10,000 paths: 2,496 + 2,496 + 2,496 + 2,512), so the
    blocks depend only on the path count and a batch of at most
    ``BLOCK_ROWS`` paths is one block. A block starts at a multiple of 16
    rows, so that every row keeps its place in the row groups of OpenBLAS's
    matrix-vector product (the rollout's head), which rounds a trailing
    group of 1-3 rows differently, and in the path panels of its gate GEMM,
    which rounds a trailing partial panel differently (see
    ``hedger._infer``); and at an even row, where the random stream may be
    entered (``rng.path_normals``).
    """
    count = -(-n_paths // BLOCK_ROWS)
    size = n_paths // count // 16 * 16
    bounds = [k * size for k in range(count)] + [n_paths]
    return list(zip(bounds[:-1], bounds[1:]))


def check_stopped(message: str, *args) -> None:
    """Raise ``CancelledError(message % args)`` once the :func:`run_threads`
    call whose job runs on this thread is stopped; never outside such a job."""
    stop = getattr(_job, "stop", None)
    if stop is not None and stop.is_set():
        raise CancelledError(message % args)


def _stoppable(fn, stop: threading.Event):
    """``fn`` as a job of the call that owns ``stop``: skipped once ``stop`` is
    set, setting it when ``fn`` fails, and the target of :func:`check_stopped`
    on its thread while it runs."""
    def job(item):
        if stop.is_set():
            raise CancelledError("skipped: an earlier job failed or the caller was interrupted")
        outer, _job.stop = getattr(_job, "stop", None), stop
        try:
            return fn(item)
        except BaseException:
            stop.set()
            raise
        finally:
            _job.stop = outer

    return job


def run_threads(fn, items, limit: int | None = None) -> list:
    """``[fn(item) for item in items]`` on ``min(len(items), usable_cpus(),
    limit)`` threads (no limit when None), in item order.

    The first exception, in a job or in the calling thread while it waits
    (Ctrl-C included), stops the call: queued jobs are cancelled, jobs not
    yet started are skipped, and a running job that calls
    :func:`check_stopped` ends early by raising ``CancelledError``. The call
    returns or raises once every started job has ended. A job's own error is
    raised before the ``CancelledError`` of a job that was stopped; among
    those, the first in item order.

    With one worker the jobs run in item order on the calling thread and no
    pool is made: a job that fails stops the call and the later jobs do not
    run. The tiny pipeline, whose training epochs are one shard each, peaks
    at 127.4 MB RSS so and at 128.1 MB with its one-worker calls on a
    one-thread pool (2 vCPUs, one BLAS thread, 2 runs each).
    """
    workers = min(len(items), usable_cpus(), len(items) if limit is None else limit)
    stop = threading.Event()
    job = _stoppable(fn, stop)
    if workers <= 1:
        return [job(item) for item in items]
    with _pool(workers, stop) as pool:
        futures = [pool.submit(job, item) for item in items]
        _wait(futures)
        errors = [e for e in (f.exception() for f in futures) if e is not None]
        if errors:
            raise next((e for e in errors if not isinstance(e, CancelledError)), errors[0])
        return [f.result() for f in futures]


def run_overlapped(fn, items) -> list:
    """``[fn(item) for item in items]``, with ``fn`` on one worker thread while
    the calling thread makes the next item, in item order.

    ``items`` is an iterator advanced on the calling thread only, so a
    serial stream, such as a generator's draws, keeps its order; at most one
    item is made ahead of the ``fn`` call that runs. The first exception, in
    ``fn`` or in the calling thread while it makes an item or waits (Ctrl-C
    included), stops the call as in :func:`run_threads`: no further item is
    made, and a running ``fn`` that calls :func:`check_stopped` ends early by
    raising ``CancelledError``. The call returns or raises once ``fn`` has
    ended. With one usable CPU, ``fn`` runs on the calling thread and no pool
    is made: the plain loop.
    """
    stop = threading.Event()
    job = _stoppable(fn, stop)
    if usable_cpus() <= 1:
        return [job(item) for item in items]
    futures = []
    with _pool(1, stop) as pool:
        for item in items:
            if futures:
                _wait(futures[-1:])
                futures[-1].result()  # raises the call's error before the next item
            futures.append(pool.submit(job, item))
        _wait(futures[-1:])
        return [f.result() for f in futures]


@contextmanager
def _pool(workers: int, stop: threading.Event):
    """A thread pool for one call: the call's first exception sets ``stop``,
    and on exit the pool is shut down and every worker joined, also one whose
    start a Ctrl-C interrupted before the pool registered it."""
    started = []
    pool = ThreadPoolExecutor(workers,
                              initializer=lambda: started.append(threading.current_thread()))
    try:
        yield pool
    except BaseException:
        stop.set()
        raise
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        for thread in started:
            thread.join()


def _wait(futures) -> None:
    """Return once ``futures`` are done, waiting at most POLL_SECONDS at a
    time, so that a Ctrl-C reaches the calling thread while jobs run."""
    while futures:
        futures = wait(futures, timeout=POLL_SECONDS).not_done
