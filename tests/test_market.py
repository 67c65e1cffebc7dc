import re

import numpy as np
import pytest

from hedgeblend import rng
from hedgeblend.blend import train_eval_split
from hedgeblend.errors import ParameterError
from hedgeblend.evaluation import paired_bootstrap
from hedgeblend.hedger import init_model
from hedgeblend.market import CALIBRATIONS, HestonParams, MarketPaths, PathGrid, simulate_heston
from hedgeblend.pipeline import GBM, GBM_VOL
from hedgeblend.risk import RiskSpec

TINY_GRID = PathGrid(n_steps=4, maturity=0.5)
# Each public function that takes a seed, and the name its refusal gives.
SEED_TAKERS = {
    "derive_seed": ("seed", rng.derive_seed),
    "derive_seed-index": ("seed index", lambda seed: rng.derive_seed(0, seed)),
    "generator": ("seed", rng.generator),
    "simulate_heston": ("seed", lambda seed: simulate_heston(GBM, TINY_GRID, 2, seed)),
    "init_model": ("seed", init_model),
    "paired_bootstrap": ("seed", lambda seed: paired_bootstrap(
        np.zeros(4), np.ones(4), RiskSpec("mean"), seed=seed)),
    "train_eval_split": ("seed", lambda seed: train_eval_split(
        simulate_heston(GBM, TINY_GRID, 4, 0), 0.5, seed)),
}


class TestParams:
    def test_baseline_calibration_values(self):
        p = CALIBRATIONS["baseline"]
        assert (p.kappa, p.theta, p.sigma_vv, p.rho, p.v0) == (2.0, 0.04, 0.4, -0.7, 0.04)
        assert p.s0 == 1.0

    def test_named_calibrations_share_common_parameters(self):
        for p in CALIBRATIONS.values():
            assert (p.kappa, p.theta, p.v0) == (2.0, 0.04, 0.04)
        assert CALIBRATIONS["high_vov"].sigma_vv == 0.8
        assert CALIBRATIONS["low_corr"].rho == -0.3

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kappa=-1.0, theta=0.04, sigma_vv=0.4, rho=-0.7, v0=0.04),
            dict(kappa=2.0, theta=0.0, sigma_vv=0.4, rho=-0.7, v0=0.04),
            dict(kappa=2.0, theta=0.04, sigma_vv=0.4, rho=-1.5, v0=0.04),
            dict(kappa=2.0, theta=0.04, sigma_vv=0.4, rho=-0.7, v0=-0.01),
            dict(kappa=2.0, theta=0.04, sigma_vv=0.4, rho=-0.7, v0=0.04, s0=0.0),
            dict(kappa=2.0, theta=0.04, sigma_vv=-0.1, rho=-0.7, v0=0.04),
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            HestonParams(**kwargs)

    @pytest.mark.parametrize("value", [True, float("nan"), float("inf"), "0.2"])
    def test_refuses_a_parameter_that_is_not_a_finite_number(self, value):
        kwargs = dict(kappa=2.0, theta=0.04, sigma_vv=0.0, rho=0.0, v0=0.04)
        for name in ("theta", "sigma_vv"):
            with pytest.raises(ParameterError, match=f"^{name} must be a finite real number"):
                HestonParams(**{**kwargs, name: value})

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            PathGrid(n_steps=0, maturity=0.5)
        with pytest.raises(ParameterError):
            PathGrid(n_steps=10, maturity=0.0)
        g = PathGrid(n_steps=126, maturity=0.5)
        assert g.dt * g.n_steps == g.maturity
        assert g.taus()[0] == 0.5 and g.taus()[-1] == pytest.approx(g.dt)


class TestHeston:
    def test_deterministic_bit_identical(self, baseline, small_grid):
        a = simulate_heston(baseline, small_grid, 50, seed=7)
        b = simulate_heston(baseline, small_grid, 50, seed=7)
        assert np.array_equal(a.spot, b.spot)
        assert np.array_equal(a.variance, b.variance)

    def test_different_seeds_differ(self, baseline, small_grid):
        a = simulate_heston(baseline, small_grid, 50, seed=7)
        b = simulate_heston(baseline, small_grid, 50, seed=8)
        assert not np.array_equal(a.spot, b.spot)

    def test_initial_conditions_and_positivity(self, baseline, grid):
        paths = simulate_heston(baseline, grid, 500, seed=3)
        assert np.all(paths.spot[:, 0] == baseline.s0)
        assert np.all(paths.variance[:, 0] == baseline.v0)
        assert np.all(paths.spot > 0)
        assert np.all(paths.variance >= 0)

    def test_per_path_streams_independent_of_batch_size(self, baseline, small_grid):
        small = simulate_heston(baseline, small_grid, 10, seed=42)
        large = simulate_heston(baseline, small_grid, 40, seed=42)
        assert np.array_equal(small.spot, large.spot[:10])
        assert np.array_equal(small.variance, large.variance[:10])

    def test_zero_vol_of_vol_limit_matches_ode(self, grid):
        # With v0 == theta the exact solution theta + (v0-theta)exp(-kt) is
        # constant and the Euler recursion preserves it exactly.
        p = HestonParams(kappa=2.0, theta=0.04, sigma_vv=0.0, rho=-0.7, v0=0.04)
        paths = simulate_heston(p, grid, 10, seed=1)
        assert np.all(paths.variance == 0.04)

    def test_zero_vol_of_vol_matches_euler_recursion_oracle(self, small_grid):
        p = HestonParams(kappa=2.0, theta=0.04, sigma_vv=0.0, rho=-0.7, v0=0.09)
        paths = simulate_heston(p, small_grid, 3, seed=1)
        v, dt = 0.09, small_grid.dt
        for t in range(1, small_grid.n_steps + 1):
            v = v + 2.0 * (0.04 - v) * dt
            assert np.all(paths.variance[:, t] == v)

    def test_cir_mean_at_every_grid_point(self, baseline, grid):
        n = 10_000
        paths = simulate_heston(baseline, grid, n, seed=11)
        times = np.arange(grid.n_steps + 1) * grid.dt
        target = baseline.theta + (baseline.v0 - baseline.theta) * np.exp(-baseline.kappa * times)
        for t in range(1, grid.n_steps + 1):
            band = 4.0 * paths.variance[:, t].std() / np.sqrt(n)
            assert abs(paths.variance[:, t].mean() - target[t]) < band

    def test_spot_martingale(self, baseline, grid):
        n = 20_000
        paths = simulate_heston(baseline, grid, n, seed=5)
        terminal = paths.spot[:, -1]
        assert abs(terminal.mean() - 1.0) < 3.0 * terminal.std() / np.sqrt(n)

    def test_increment_correlation_sign(self, baseline, grid):
        paths = simulate_heston(baseline, grid, 10_000, seed=17)
        d_log_s = np.diff(np.log(paths.spot), axis=1).ravel()
        d_v = np.diff(paths.variance, axis=1).ravel()
        corr = np.corrcoef(d_log_s, d_v)[0, 1]
        assert corr < 0 and abs(corr) > 0.3

    def test_empty_input_rejected(self, baseline, small_grid):
        with pytest.raises(ParameterError):
            simulate_heston(baseline, small_grid, 0, seed=1)

    def test_take_subset(self, baseline, small_grid):
        paths = simulate_heston(baseline, small_grid, 20, seed=1)
        sub = paths.take(np.array([3, 7, 11]))
        assert sub.n_paths == 3
        assert np.array_equal(sub.spot[1], paths.spot[7])


class TestGBM:
    """``pipeline.GBM``: Heston with zero vol-of-vol and v0 = theta = GBM_VOL**2."""

    def test_terminal_mean_and_log_variance(self, grid):
        n = 50_000
        paths = simulate_heston(GBM, grid, n, seed=0)
        s_t = paths.spot[:, -1]
        assert abs(s_t.mean() - 1.0) < 3.0 * s_t.std() / np.sqrt(n)
        log_ret = np.log(s_t)
        target = GBM_VOL**2 * grid.maturity
        # The mean of N(-target/2, target), and the variance of the sample
        # variance of a normal: 2 sigma^4 / (n-1).
        assert abs(log_ret.mean() + 0.5 * target) < 3.0 * np.sqrt(target / n)
        se = np.sqrt(2.0 / (n - 1)) * target
        assert abs(log_ret.var(ddof=1) - target) < 3.0 * se

    def test_variance_field_is_constant_vol_squared(self, small_grid):
        paths = simulate_heston(GBM, small_grid, 5, seed=1)
        assert np.all(paths.variance == GBM_VOL**2)

    def test_log_spot_steps_are_exact_gbm_steps(self, small_grid):
        """Each step of log spot is -vol^2 dt / 2 + vol sqrt(dt) z, z the
        spot's normal, the first of the two each path draws per step."""
        n, dt = 5, small_grid.dt
        paths = simulate_heston(GBM, small_grid, n, seed=1)
        z = rng.path_normals(1, n, 2 * small_grid.n_steps)[:, 0::2]
        steps = -0.5 * GBM_VOL**2 * dt + GBM_VOL * np.sqrt(dt) * z
        assert np.allclose(np.diff(np.log(paths.spot), axis=1), steps, rtol=0, atol=1e-14)

    def test_single_path_determinism(self, grid):
        a = simulate_heston(GBM, grid, 1, seed=123)
        b = simulate_heston(GBM, grid, 1, seed=123)
        assert np.array_equal(a.spot, b.spot)

    def test_invalid_vol_rejected(self):
        vol = 0.0
        with pytest.raises(ParameterError, match=r"^theta must lie in \(0, inf\), got 0.0$"):
            HestonParams(kappa=2.0, theta=vol**2, sigma_vv=0.0, rho=0.0, v0=vol**2)


class TestExport:
    def test_paths_are_read_only(self, baseline, small_grid):
        paths = simulate_heston(baseline, small_grid, 2, seed=1)
        with pytest.raises(ValueError):
            paths.spot[0, 0] = 2.0

    def test_shape_validation(self, small_grid):
        with pytest.raises(ParameterError):
            MarketPaths(
                spot=np.ones((2, 5)), variance=np.ones((2, 5)), grid=small_grid
            )


class TestRngStreams:
    def test_prefix_rows_stable_across_batch_sizes(self):
        a = rng.path_normals(42, 10, 8)
        b = rng.path_normals(42, 50, 8)
        assert np.array_equal(a, b[:10])

    def test_derived_seeds_distinct(self):
        seeds = {rng.derive_seed(7, rng.TAG_MEMBER, i) for i in range(100)}
        assert len(seeds) == 100

    @pytest.mark.parametrize("taker", SEED_TAKERS)
    @pytest.mark.parametrize("seed, message", [
        (1.5, "must be an integer, got 1.5"),
        (True, "must be an integer, got True"),
        (-1, "must be >= 0, got -1"),
    ], ids=["fractional", "bool", "negative"])
    def test_a_seed_that_is_not_a_non_negative_integer_is_refused(self, taker, seed, message):
        """1.5 and True were once accepted, as seed 1 where the seed is mixed, and
        -1 raised numpy's ValueError."""
        name, take = SEED_TAKERS[taker]
        with pytest.raises(ParameterError, match=f"^{name} {message}$"):
            take(seed)

    def test_normals_are_standard(self):
        z = rng.path_normals(0, 200, 500).ravel()
        assert abs(z.mean()) < 4.0 / np.sqrt(z.size)
        assert abs(z.std() - 1.0) < 0.01


@pytest.mark.parametrize("n_paths", [2.0, True], ids=["float", "bool"])
def test_a_path_count_that_is_not_an_integer_is_refused(n_paths):
    with pytest.raises(ParameterError, match=re.escape(f"n_paths must be an integer, got {n_paths!r}")):
        simulate_heston(GBM, TINY_GRID, n_paths, seed=1)


def test_zero_simulated_paths(baseline, small_grid):
    """Zero paths is a ParameterError with its message."""
    with pytest.raises(ParameterError, match="^n_paths must be >= 1, got 0$"):
        simulate_heston(baseline, small_grid, 0, seed=1)
