"""Ensembles of independently trained hedgers and their disagreement.

Members differ in both parameter initialisation and the paths they train on;
at inference every member hedges the same evaluation paths, so the per-step
sample standard deviation across members is well defined path by path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .accounting import CostSpec, HedgeSchedule
from .errors import NumericalDivergenceError, ParameterError, require_integer
from .hedger import SHARD_PATHS, HedgerModel, TrainConfig, forward_rollout, train_hedger
from .market import HestonParams, MarketPaths, PathGrid
from .threads import run_threads, usable_cpus


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


# Path blocks start at multiples of this many rows, so that every row keeps
# its place in the row groups of OpenBLAS's matrix-vector product, which
# rounds a trailing group of 1-3 rows differently (see hedger._infer).
_BLOCK_ALIGN = 16


def _path_blocks(n_paths: int) -> list[tuple[int, int]]:
    """``ceil(n_paths / (2 * SHARD_PATHS))`` contiguous (lo, hi) row blocks.

    Every block but the last holds the same multiple of 16 rows and the last
    takes the remainder (10,000 paths: 2,496 + 2,496 + 2,496 + 2,512), so the
    blocks depend only on the path count and a batch of at most ``2 *
    SHARD_PATHS`` paths is one block.

    A block is two training shards long because an inference rollout keeps
    no tape, and shorter blocks cost time on threads: on a 2-vCPU host with
    one BLAS thread, aggregating 5 members over 10,000 x 126 paths took
    3.4-4.2 s in 2,500-row blocks and 4.2-4.9 s in 1,250-row ones (5 runs
    each, alternating), most likely because the threads' rollouts then make
    twice as many numpy calls per path and hand the GIL over at each. On one
    thread the 1,250-row blocks were the faster, 5.7-6.6 s against 6.3-7.1 s.
    """
    count = -(-n_paths // (2 * SHARD_PATHS))
    size = n_paths // count // _BLOCK_ALIGN * _BLOCK_ALIGN
    bounds = [k * size for k in range(count)] + [n_paths]
    return list(zip(bounds[:-1], bounds[1:]))


def aggregate(members: list[HedgerModel], paths: MarketPaths, strike: float) -> EnsembleOutput:
    """Per-step ensemble mean and sample-std disagreement on shared paths.

    The paths are cut into row blocks that depend only on their count
    (:func:`_path_blocks`), and each (member, block) pair is one job: a
    :func:`hedgeblend.hedger.forward_rollout` of the member on a row view of
    the block's paths, written into the block's rows of one (members,
    paths, steps) float64 array. Only the mean, the disagreement and its
    path average are returned; the disagreement's squared deviations are
    computed in that array, which goes when this returns. The jobs
    run in member-major order on ``min(jobs, usable CPUs)`` threads
    (:func:`hedgeblend.threads.run_threads`), so 5 members on 2 CPUs leave
    no CPU idle through a last round of whole members.

    Every output is identical bit for bit to the one computed from rolling
    the members out one after the other on the full batch: each block starts
    at a multiple of 16 rows and is a multiple of 16 long or runs to the end,
    which keeps every row's rounding (see :func:`hedgeblend.hedger._infer`).
    A failing rollout or a Ctrl-C cancels the jobs that have not started and
    stops the running ones at their next step; a failure is raised in member
    order.
    """
    if len(members) < 2:
        raise ParameterError(f"disagreement needs at least 2 members, got {len(members)}")
    blocks = _path_blocks(paths.n_paths)
    jobs = [(m, block) for m in range(len(members)) for block in blocks]
    deltas = np.empty((len(members), paths.n_paths, paths.n_steps))
    stop = threading.Event()

    def roll(job):
        m, (lo, hi) = job
        return forward_rollout(members[m], paths.rows(lo, hi), strike,
                               stop=stop, out=deltas[m, lo:hi])

    run_threads(roll, jobs, workers=min(len(jobs), usable_cpus()), stop=stop)
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
    file.write("path_id,avg_disagreement\n" + "".join(
        f"{p},{value:.12g}\n" for p, value in enumerate(output.avg_disagreement.tolist())
    ))
