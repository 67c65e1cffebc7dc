"""Risk-neutral market simulation: Heston stochastic volatility and GBM.

The Heston variance follows a full-truncation Euler scheme: the latent
(unfloored) variance state is propagated, its positive part enters the drift,
the diffusion, and the spot update, and the stored variance path is floored
at zero. Spot advances in log space, which preserves positivity and the
zero-rate martingale property up to discretisation error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ParameterError, require_integer, require_real


@dataclass(frozen=True)
class HestonParams:
    """Heston model parameters under the risk-neutral measure.

    kappa: mean-reversion rate (1/years); theta: long-run variance;
    sigma_vv: volatility of variance; rho: spot/variance Brownian correlation;
    v0: initial variance; s0: initial spot. Rates are zero throughout.
    """

    kappa: float
    theta: float
    sigma_vv: float
    rho: float
    v0: float
    s0: float = 1.0

    def __post_init__(self):
        for name in ("kappa", "theta", "sigma_vv", "rho", "v0", "s0"):
            require_real(name, getattr(self, name))
        if not (self.kappa > 0 and self.theta > 0 and self.sigma_vv > 0):
            raise ParameterError("kappa, theta and sigma_vv must be positive")
        if not -1.0 <= self.rho <= 1.0:
            raise ParameterError(f"rho must lie in [-1, 1], got {self.rho}")
        if self.v0 < 0:
            raise ParameterError("v0 must be non-negative")
        if self.s0 <= 0:
            raise ParameterError("s0 must be positive")


@dataclass(frozen=True)
class GBMSpec:
    """Zero-drift geometric Brownian motion with constant volatility."""

    vol: float
    s0: float = 1.0

    def __post_init__(self):
        require_real("vol", self.vol)
        require_real("s0", self.s0)
        if self.vol <= 0:
            raise ParameterError("vol must be positive")
        if self.s0 <= 0:
            raise ParameterError("s0 must be positive")


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
        require_integer("n_steps", self.n_steps)
        if self.n_steps < 1:
            raise ParameterError("n_steps must be >= 1")
        require_real("maturity", self.maturity)
        if self.maturity <= 0:
            raise ParameterError("maturity must be positive")

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


def simulate_heston(
    params: HestonParams, grid: PathGrid, n_paths: int, seed: int
) -> MarketPaths:
    """Simulate Heston paths with a full-truncation Euler scheme.

    Two independent normals per step drive the spot (z1) and the variance
    shock rho*z1 + sqrt(1-rho^2)*z2, giving exact increment correlation rho.
    Deterministic for fixed (params, grid, n_paths, seed).
    """
    if n_paths < 1:
        raise ParameterError("n_paths must be >= 1")
    n = grid.n_steps
    dt = grid.dt

    z = rng.path_normals(seed, n_paths, 2 * n).reshape(n_paths, n, 2)
    z_spot = z[:, :, 0]
    z_var = params.rho * z_spot + np.sqrt(1.0 - params.rho**2) * z[:, :, 1]

    spot = np.empty((n_paths, n + 1))
    variance = np.empty((n_paths, n + 1))
    log_s = np.full(n_paths, np.log(params.s0))
    v_latent = np.full(n_paths, params.v0)
    spot[:, 0] = params.s0
    variance[:, 0] = params.v0

    sqrt_dt = np.sqrt(dt)
    for t in range(n):
        v_pos = np.maximum(v_latent, 0.0)
        vol_dt = np.sqrt(v_pos) * sqrt_dt
        log_s += -0.5 * v_pos * dt + vol_dt * z_spot[:, t]
        v_latent = v_latent + params.kappa * (params.theta - v_pos) * dt \
            + params.sigma_vv * vol_dt * z_var[:, t]
        spot[:, t + 1] = np.exp(log_s)
        variance[:, t + 1] = np.maximum(v_latent, 0.0)

    return MarketPaths(spot=spot, variance=variance, grid=grid)


def simulate_gbm(vol: float, grid: PathGrid, n_paths: int, seed: int, s0: float = 1.0) -> MarketPaths:
    """Zero-drift lognormal paths; the variance field is the constant vol**2."""
    GBMSpec(vol, s0)  # validates vol and s0
    if n_paths < 1:
        raise ParameterError("n_paths must be >= 1")
    n = grid.n_steps
    dt = grid.dt

    z = rng.path_normals(seed, n_paths, n)
    increments = -0.5 * vol**2 * dt + vol * np.sqrt(dt) * z
    log_s = np.log(s0) + np.cumsum(increments, axis=1)

    spot = np.empty((n_paths, n + 1))
    spot[:, 0] = s0
    spot[:, 1:] = np.exp(log_s)
    variance = np.full((n_paths, n + 1), vol**2)
    return MarketPaths(spot=spot, variance=variance, grid=grid)


def simulate(model, grid: PathGrid, n_paths: int, seed: int) -> MarketPaths:
    """Dispatch on the market model type (HestonParams or GBMSpec)."""
    if isinstance(model, HestonParams):
        return simulate_heston(model, grid, n_paths, seed)
    if isinstance(model, GBMSpec):
        return simulate_gbm(model.vol, grid, n_paths, seed, s0=model.s0)
    raise ParameterError(f"unsupported market model: {type(model).__name__}")

