"""Ensembles of independently trained hedgers and their disagreement.

Members differ in both parameter initialisation and the paths they train on;
at inference every member hedges the same evaluation paths, so the per-step
sample standard deviation across members is well defined path by path.
"""

from __future__ import annotations

import csv
import ctypes
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import rng
from .accounting import CostSpec, HedgeSchedule
from .errors import NumericalDivergenceError, ParameterError
from .hedger import HedgerModel, TrainConfig, forward_rollout, train_hedger
from .market import MarketPaths, PathGrid
from .threads import run_threads, usable_cpus


@dataclass
class EnsembleOutput:
    """Member hedges plus the ensemble mean and disagreement fields.

    disagreement: (n_paths, n_steps) sample std across members (M-1
    denominator); avg_disagreement: its time average per path.
    """

    member_hedges: list[HedgeSchedule]
    mean_hedge: HedgeSchedule
    disagreement: np.ndarray
    avg_disagreement: np.ndarray

    def take(self, indices: np.ndarray) -> "EnsembleOutput":
        return EnsembleOutput(
            member_hedges=[h.take(indices) for h in self.member_hedges],
            mean_hedge=self.mean_hedge.take(indices),
            disagreement=self.disagreement[indices].copy(),
            avg_disagreement=self.avg_disagreement[indices].copy(),
        )


def member_seed(root_seed: int, index: int) -> int:
    """Deterministic per-member seed; mixing documented in :mod:`hedgeblend.rng`."""
    return rng.derive_seed(root_seed, rng.TAG_MEMBER, index)


def _train_member(args) -> HedgerModel:
    index, config, market, grid, cost, strike = args
    try:
        return train_hedger(config, market, grid, cost, strike, label=f"member {index}")
    except NumericalDivergenceError as exc:
        raise NumericalDivergenceError(f"member {index} diverged: {exc}") from exc


def _openblas_function(symbol: str):
    """``symbol`` from the OpenBLAS that numpy ships in ``numpy.libs``, or None."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
        if fn is not None:
            return fn
    return None


def _one_blas_thread() -> None:
    """Worker initialiser: one BLAS thread each, so workers do not oversubscribe.

    Uses threadpoolctl when it is installed, else the thread setter of the
    OpenBLAS that numpy ships; with neither, the thread count is left alone.
    """
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        set_threads = _openblas_function("scipy_openblas_set_num_threads64_")
        if set_threads is not None:
            set_threads.argtypes = [ctypes.c_int]
            set_threads.restype = None
            set_threads(1)
        return
    threadpool_limits(limits=1)


def train_ensemble(
    m: int,
    config: TrainConfig,
    market,
    grid: PathGrid,
    cost: CostSpec,
    strike: float,
    workers: int = 1,
) -> list[HedgerModel]:
    """Train M independent members; seeds derived from config.seed and index.

    ``workers`` bounds process parallelism without affecting results: each
    member's training is self-contained and deterministic, and each process
    tapes a large epoch's path shards on threads of its own
    (:func:`hedgeblend.hedger.train_hedger`).
    """
    if m < 2:
        raise ParameterError("an ensemble needs at least 2 members")
    jobs = [
        (i, replace(config, seed=member_seed(config.seed, i)), market, grid, cost, strike)
        for i in range(m)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
            return list(pool.map(_train_member, jobs))
    return [_train_member(job) for job in jobs]


def aggregate(members: list[HedgerModel], paths: MarketPaths, strike: float) -> EnsembleOutput:
    """Per-step ensemble mean and sample-std disagreement on shared paths.

    The members roll out concurrently on ``min(len(members), usable CPUs)``
    threads (:func:`hedgeblend.threads.run_threads`) and their hedges are
    stacked in member order, so every output is identical to rolling them
    out one after the other. A failing rollout or a Ctrl-C cancels the
    rollouts that have not started and stops the running ones at their
    next step.
    """
    if len(members) == 0:
        raise ParameterError("aggregate requires at least one member")
    if len(members) == 1:
        raise ParameterError("disagreement is undefined for a single member")
    stop = threading.Event()
    hedges = run_threads(
        lambda model: forward_rollout(model, paths, strike, stop=stop),
        members,
        workers=min(len(members), usable_cpus()),
        stop=stop,
    )
    stacked = np.stack([h.delta for h in hedges])
    mean = stacked.mean(axis=0)
    spread = stacked.std(axis=0, ddof=1)
    return EnsembleOutput(
        member_hedges=hedges,
        mean_hedge=HedgeSchedule(mean, "ensemble_mean"),
        disagreement=spread,
        avg_disagreement=spread.mean(axis=1),
    )


def write_path_uncertainty_csv(output: EnsembleOutput, file) -> None:
    """Per-path summary: path_id, avg_disagreement."""
    writer = csv.writer(file, lineterminator="\n")
    writer.writerow(["path_id", "avg_disagreement"])
    for p, value in enumerate(output.avg_disagreement):
        writer.writerow([p, f"{value:.12g}"])
