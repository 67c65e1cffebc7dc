"""Risk-neutral market simulation under Heston stochastic volatility.

The variance follows a full-truncation Euler scheme: the latent
(unfloored) variance state is propagated, its positive part enters the drift,
the diffusion, and the spot update, and the stored variance path is floored
at zero. Spot advances in log space, which preserves positivity and the
zero-rate martingale property up to discretisation error. Geometric
Brownian motion is the calibration sigma_vv = 0 with v0 = theta = vol**2:
the variance then stays at theta bit for bit, and each log-spot step is the
exact GBM step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng, threads
from .errors import ParameterError, require_integer, require_real


@dataclass(frozen=True)
class HestonParams:
    """Heston model parameters under the risk-neutral measure.

    kappa: mean-reversion rate (1/years); theta: long-run variance;
    sigma_vv: volatility of variance, 0 for a deterministic variance; rho:
    spot/variance Brownian correlation; v0: initial variance; s0: initial
    spot. Rates are zero throughout.
    """

    kappa: float
    theta: float
    sigma_vv: float
    rho: float
    v0: float
    s0: float = 1.0

    def __post_init__(self):
        require_real("kappa", self.kappa, above=0)
        require_real("theta", self.theta, above=0)
        require_real("sigma_vv", self.sigma_vv, at_least=0)
        require_real("rho", self.rho, at_least=-1, at_most=1)
        require_real("v0", self.v0, at_least=0)
        require_real("s0", self.s0, above=0)


# Named calibrations; all share kappa=2, theta=0.04, v0=0.04.
CALIBRATIONS = {
    "baseline": HestonParams(kappa=2.0, theta=0.04, sigma_vv=0.4, rho=-0.7, v0=0.04),
    "high_vov": HestonParams(kappa=2.0, theta=0.04, sigma_vv=0.8, rho=-0.7, v0=0.04),
    "low_corr": HestonParams(kappa=2.0, theta=0.04, sigma_vv=0.4, rho=-0.3, v0=0.04),
}


@dataclass(frozen=True)
class PathGrid:
    """Equally spaced time grid: n_steps steps over ``maturity`` years."""

    n_steps: int
    maturity: float

    def __post_init__(self):
        require_integer("n_steps", self.n_steps, minimum=1)
        require_real("maturity", self.maturity, above=0)

    @property
    def dt(self) -> float:
        return self.maturity / self.n_steps

    def taus(self) -> np.ndarray:
        """Time to expiry at each hedge decision step t=0..n_steps-1."""
        return self.maturity - np.arange(self.n_steps) * self.dt


@dataclass(frozen=True)
class MarketPaths:
    """Simulated spot and variance trajectories on a fixed grid.

    spot, variance: arrays of shape (n_paths, n_steps+1); read-only after
    construction, so threads may share them.
    """

    spot: np.ndarray
    variance: np.ndarray
    grid: PathGrid

    def __post_init__(self):
        expected = (self.n_paths, self.grid.n_steps + 1)
        if self.spot.shape != expected or self.variance.shape != expected:
            raise ParameterError(
                f"spot/variance must have shape {expected}, got "
                f"{self.spot.shape} and {self.variance.shape}"
            )
        self.spot.flags.writeable = False
        self.variance.flags.writeable = False

    @property
    def n_paths(self) -> int:
        return self.spot.shape[0]

    @property
    def n_steps(self) -> int:
        return self.grid.n_steps

    def rows(self, lo: int, hi: int) -> "MarketPaths":
        """Paths lo..hi-1 as views of these arrays (no copy, same grid)."""
        return MarketPaths(self.spot[lo:hi], self.variance[lo:hi], self.grid)

    def take(self, indices: np.ndarray) -> "MarketPaths":
        """Subset of paths at the given indices (copies, same grid)."""
        return MarketPaths(
            spot=self.spot[indices].copy(),
            variance=self.variance[indices].copy(),
            grid=self.grid,
        )


def _write_rows(
    params: HestonParams, grid: PathGrid, seed: int, lo: int,
    normals: np.ndarray, spot: np.ndarray, variance: np.ndarray,
) -> None:
    """Rows lo .. lo + len(spot) - 1 of the batch that ``seed`` simulates,
    written into the caller's ``normals`` (len(spot), 2 n_steps), ``spot``
    and ``variance`` (len(spot), n_steps + 1): a row block of
    :meth:`HestonBatch.rows`, the one simulation. ``lo`` must be a row where
    the stream may be entered (``rng.path_normals``)."""
    n, n_rows = grid.n_steps, len(spot)
    dt = grid.dt
    sqrt_dt = np.sqrt(dt)
    rho_bar = np.sqrt(1.0 - params.rho**2)
    z = rng.path_normals(seed, n_rows, 2 * n, first_row=lo, out=normals)
    z_spot, z_var = z[:, 0::2], z[:, 1::2]
    z_var *= rho_bar  # the variance shock rho*z1 + rho_bar*z2, in z2's place
    z_var += params.rho * z_spot
    log_s = np.full(n_rows, np.log(params.s0))
    v_latent = np.full(n_rows, params.v0)
    spot[:, 0] = params.s0
    variance[:, 0] = params.v0
    for t in range(n):
        v_pos = np.maximum(v_latent, 0.0)
        vol_dt = np.sqrt(v_pos) * sqrt_dt
        log_s += -0.5 * v_pos * dt + vol_dt * z_spot[:, t]
        v_latent = v_latent + params.kappa * (params.theta - v_pos) * dt \
            + params.sigma_vv * vol_dt * z_var[:, t]
        spot[:, t + 1] = np.exp(log_s)
        variance[:, t + 1] = np.maximum(v_latent, 0.0)


def simulate_heston(
    params: HestonParams, grid: PathGrid, n_paths: int, seed: int
) -> MarketPaths:
    """Simulate Heston paths with a full-truncation Euler scheme: all
    ``n_paths`` rows of ``HestonBatch(params, grid, n_paths, seed)``.

    Two independent normals per step drive the spot (z1) and the variance
    shock rho*z1 + sqrt(1-rho^2)*z2, giving exact increment correlation rho.
    Deterministic for fixed (params, grid, n_paths, seed), and row p depends
    only on (params, grid, seed, p).
    """
    return HestonBatch(params, grid, n_paths, seed).rows(0, n_paths)


@dataclass(frozen=True)
class HestonBatch:
    """A batch of Heston paths held as its seed. :meth:`rows`, the one
    simulation, simulates a range of its rows when asked:
    :func:`simulate_heston` asks for all of them, and the shard jobs of
    ``hedger._chunked_backward`` each for their own shard's, so no array of a
    whole training epoch exists."""

    params: HestonParams
    grid: PathGrid
    n_paths: int
    seed: int

    def __post_init__(self):
        require_integer("n_paths", self.n_paths, minimum=1)

    @property
    def n_steps(self) -> int:
        return self.grid.n_steps

    def rows(self, lo: int, hi: int) -> MarketPaths:
        """Paths lo..hi-1 of the batch, in arrays of their own; row p depends
        only on (params, grid, seed, p). ``lo`` must be a row where the
        stream may be entered: any row on an even-step grid, an even row
        otherwise (``rng.path_normals``).

        The rows are cut by ``threads.row_blocks`` and the blocks written by
        :func:`_write_rows` on one ``threads.run_threads`` call, so a range
        of at most ``threads.BLOCK_ROWS`` rows is simulated on the calling
        thread. Every array is allocated here, on the calling thread, and a
        block writes only its own rows: blocks that allocated their own
        normals, which the worker threads' malloc arenas then keep, raised
        the peak RSS of the evaluation pass over 10,000 paths from 202 to 209
        MB (2-vCPU host, one BLAS thread, two runs each). The normals, which
        go when this returns, are allocated after spot and variance, which
        stay: allocated first, they raised the peak RSS of two 20,000-path
        training epochs (train_paper_batch) from 402.6-404.7 to 405.3-406.7
        MB and of the evaluation pass from 199.8-200.6 to 201.5-202.0 MB
        (same host, 6 to 24 runs each).
        """
        if not 0 <= lo < hi <= self.n_paths:
            raise ParameterError(f"rows must satisfy 0 <= lo < hi <= {self.n_paths}, "
                                 f"got {lo}, {hi}")
        n = self.grid.n_steps
        spot, variance = np.empty((hi - lo, n + 1)), np.empty((hi - lo, n + 1))
        normals = np.empty((hi - lo, 2 * n))  # after spot and variance (see above)

        def block(bounds):
            rows = slice(*bounds)
            _write_rows(self.params, self.grid, self.seed, lo + bounds[0],
                        normals[rows], spot[rows], variance[rows])

        threads.run_threads(block, threads.row_blocks(hi - lo))
        return MarketPaths(spot=spot, variance=variance, grid=self.grid)
