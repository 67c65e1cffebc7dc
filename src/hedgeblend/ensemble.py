"""Ensembles of independently trained hedgers and their disagreement.

Members differ in both parameter initialisation and the paths they train on;
at inference every member hedges the same evaluation paths, so the per-step
sample standard deviation across members is well defined path by path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .accounting import CostSpec, HedgeSchedule
from .errors import NumericalDivergenceError, ParameterError, require_integer
from .evaluation import csv_text
from .hedger import HedgerModel, TrainConfig, forward_rollout, train_hedger
from .market import HestonParams, MarketPaths, PathGrid
from .threads import row_blocks, run_threads


@dataclass
class EnsembleOutput:
    """The ensemble mean hedge and how much the members disagree about it.

    disagreement: (n_paths, n_steps) sample std across members (M-1
    denominator); avg_disagreement: its time average per path. The members'
    own schedules are not kept.
    """

    mean_hedge: HedgeSchedule
    disagreement: np.ndarray
    avg_disagreement: np.ndarray

    def take(self, indices: np.ndarray) -> "EnsembleOutput":
        return EnsembleOutput(
            mean_hedge=self.mean_hedge.take(indices),
            disagreement=self.disagreement[indices].copy(),
            avg_disagreement=self.avg_disagreement[indices].copy(),
        )


def member_seed(root_seed: int, index: int) -> int:
    """Deterministic per-member seed; mixing documented in :mod:`hedgeblend.rng`."""
    return rng.derive_seed(root_seed, rng.TAG_MEMBER, index)


def train_ensemble(
    m: int,
    config: TrainConfig,
    market: HestonParams,
    grid: PathGrid,
    cost: CostSpec,
    strike: float,
    workers: int = 1,
) -> list[HedgerModel]:
    """Train M independent members one after the other; member i trains with
    seed ``member_seed(config.seed, i)``.

    Each member trains a large epoch's path shards on threads of its own
    (:func:`hedgeblend.hedger.train_hedger`), so one member at a time already
    keeps the CPUs busy, and two in flight would hold two members' saved
    rollout state at once.
    """
    # Only perfbench/workloads.py passes workers; ROADMAP item 2 removes it.
    if workers != 1:
        raise ParameterError(f"workers must be 1, got {workers}")
    require_integer("m", m, minimum=2)
    members = []
    for i in range(m):
        try:
            members.append(train_hedger(replace(config, seed=member_seed(config.seed, i)),
                                        market, grid, cost, strike))
        except NumericalDivergenceError as exc:
            raise NumericalDivergenceError(f"member {i} diverged: {exc}") from exc
    return members


def aggregate(members: list[HedgerModel], paths: MarketPaths, strike: float) -> EnsembleOutput:
    """Per-step ensemble mean and sample-std disagreement on shared paths.

    The paths are cut into row blocks that depend only on their count
    (:func:`hedgeblend.threads.row_blocks`), and each (member, block) pair
    is one job: a :func:`hedgeblend.hedger.forward_rollout` of the member on
    a row view of the block's paths, written into the block's rows of one
    (members, paths, steps) float64 array. Only the mean, the disagreement
    and its path average are returned; the disagreement's squared deviations
    are computed in that array, which goes when this returns. The jobs are one
    :func:`hedgeblend.threads.run_threads` call in member-major order, at
    most one thread per usable CPU, so 5 members on 2 CPUs leave no CPU idle
    through a last round of whole members; a failure is raised, and a Ctrl-C
    stops the rollouts, as that call states.

    Every output is identical bit for bit to the one computed from rolling
    the members out one after the other on the full batch: each block starts
    at a multiple of 16 rows and is a multiple of 16 long or runs to the end,
    which keeps every row's rounding (see :func:`hedgeblend.hedger._infer`).
    """
    if len(members) < 2:
        raise ParameterError(f"disagreement needs at least 2 members, got {len(members)}")
    blocks = row_blocks(paths.n_paths)
    jobs = [(m, block) for m in range(len(members)) for block in blocks]
    deltas = np.empty((len(members), paths.n_paths, paths.n_steps))

    def roll(job):
        m, (lo, hi) = job
        return forward_rollout(members[m], paths.rows(lo, hi), strike, out=deltas[m, lo:hi])

    run_threads(roll, jobs)
    mean = deltas.mean(axis=0)
    deltas -= mean  # std(axis=0, ddof=1), in place of a second (members, paths, steps) array
    np.square(deltas, out=deltas)
    spread = deltas.sum(axis=0)
    spread /= len(members) - 1
    np.sqrt(spread, out=spread)
    return EnsembleOutput(
        mean_hedge=HedgeSchedule(mean, "ensemble_mean"),
        disagreement=spread,
        avg_disagreement=spread.mean(axis=1),
    )


def write_path_uncertainty_csv(output: EnsembleOutput, file) -> None:
    """Per-path summary: path_id, avg_disagreement; one write of the whole file."""
    file.write(csv_text(["path_id", "avg_disagreement"],
                        enumerate(output.avg_disagreement.tolist())))
