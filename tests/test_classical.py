import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hedgeblend
from hedgeblend import classical
from hedgeblend.classical import (
    bs_delta,
    bs_delta_strategy,
    bs_gamma,
    bs_price,
    ww_band_halfwidth,
    ww_strategy,
)
from hedgeblend.errors import ParameterError
from hedgeblend.market import MarketPaths, PathGrid

# Frozen oracle values (high-precision normal CDF/PDF of hand-computed d1).
ATM_DELTA = 0.5281859888985083   # S=K=1, vol=0.2, tau=0.5
ATM_GAMMA = 2.8139043560650476
ATM_WW_HALFWIDTH = 0.18108951641619178  # c=5e-4, a=1
ATM_PRICE = 0.05637197779701664


def pinned_paths(spot_value: float, variance_value: float, n_steps: int = 126) -> MarketPaths:
    grid = PathGrid(n_steps=n_steps, maturity=0.5)
    return MarketPaths(
        spot=np.full((1, n_steps + 1), spot_value),
        variance=np.full((1, n_steps + 1), variance_value),
        grid=grid,
    )


class TestBsDelta:
    def test_atm_oracle(self):
        assert bs_delta(1.0, 1.0, 0.2, 0.5) == pytest.approx(ATM_DELTA, abs=1e-12)

    def test_deep_itm_close_to_one(self):
        assert bs_delta(2.0, 1.0, 0.2, 0.5) == pytest.approx(1.0, abs=1e-6)

    def test_expiry_indicator(self):
        assert bs_delta(1.1, 1.0, 0.2, 0.0) == 1.0
        assert bs_delta(0.9, 1.0, 0.2, 0.0) == 0.0
        assert bs_delta(1.0, 1.0, 0.2, 0.0) == 0.5

    def test_zero_vol_limit_is_indicator(self):
        assert bs_delta(1.2, 1.0, 0.0, 0.3) == 1.0
        assert bs_delta(0.8, 1.0, 0.0, 0.3) == 0.0

    def test_equals_the_closed_form_bit_for_bit_on_a_mixed_grid(self):
        """Live entries give ndtr of d1 grouped as (log(S/K) + 0.5 vol^2 tau)
        / (vol sqrt(tau)); entries at expiry or at zero vol, the indicator,
        0.5 at S == K. Spot 0 is a live entry whose d1 is -inf."""
        gen = np.random.default_rng(3)
        spot = gen.uniform(0.5, 1.5, (8, 8))
        spot[0, 0] = spot[3, 3] = 1.0  # a tie at expiry and a live one
        spot[5, 5] = 0.0
        vol = np.where(gen.uniform(size=(8, 8)) < 0.2, 0.0, gen.uniform(0.05, 0.6, (8, 8)))
        tau = np.linspace(0.0, 0.5, 8)
        live = (tau > 0) & (vol > 0)
        safe_vol, safe_tau = np.where(live, vol, 1.0), np.where(live, tau, 1.0)
        with np.errstate(divide="ignore"):
            d1 = (np.log(spot / 1.0) + 0.5 * safe_vol**2 * safe_tau) / (safe_vol * np.sqrt(safe_tau))
        indicator = np.where(spot > 1.0, 1.0, np.where(spot == 1.0, 0.5, 0.0))
        want = np.where(live, classical.ndtr(d1), indicator)
        assert not live.all() and live.any() and (want == 0.5).any()
        assert np.array_equal(bs_delta(spot, 1.0, vol, tau), want)

    def test_monotone_in_spot_and_bounded(self):
        spots = np.linspace(0.2, 3.0, 400)
        deltas = bs_delta(spots, 1.0, 0.2, 0.25)
        assert np.all(np.diff(deltas) >= 0)
        assert np.all((deltas >= 0) & (deltas <= 1))

    def test_negative_tau_rejected(self):
        with pytest.raises(ParameterError):
            bs_delta(1.0, 1.0, 0.2, -0.1)


class TestBsGamma:
    def test_atm_oracle(self):
        assert bs_gamma(1.0, 1.0, 0.2, 0.5) == pytest.approx(ATM_GAMMA, abs=1e-10)

    def test_deep_otm_tiny(self):
        assert bs_gamma(0.3, 1.0, 0.2, 0.5) < 1e-6

    def test_maximal_near_atm_over_moneyness_sweep(self):
        spots = np.linspace(0.5, 2.0, 301)
        gammas = bs_gamma(spots, 1.0, 0.2, 0.5)
        peak_spot = spots[np.argmax(gammas)]
        # spot-gamma peaks at d1 = -vol*sqrt(tau), i.e. S = K exp(-3 vol^2 tau / 2)
        assert abs(peak_spot - np.exp(-1.5 * 0.04 * 0.5)) < 0.005
        # and that point is near the money
        assert abs(peak_spot - 1.0) < 0.05
        assert np.all(gammas >= 0)

    def test_expiry_rejected(self):
        with pytest.raises(ParameterError):
            bs_gamma(1.0, 1.0, 0.2, 0.0)


def test_bs_price_oracle():
    assert bs_price(1.0, 1.0, 0.2, 0.5) == pytest.approx(ATM_PRICE, abs=1e-12)
    assert bs_price(1.3, 1.0, 0.2, 0.0) == pytest.approx(0.3)


class TestDeltaStrategy:
    def test_pinned_atm_declines_toward_half(self):
        paths = pinned_paths(1.0, 0.04)
        sched = bs_delta_strategy(paths, 1.0, 0.2)
        deltas = sched.delta[0]
        assert np.all(deltas > 0.5)
        assert np.all(np.diff(deltas) < 0)
        assert deltas[0] == pytest.approx(ATM_DELTA, abs=1e-12)

    def test_all_otm_path_near_zero(self):
        paths = pinned_paths(0.5, 0.04)
        sched = bs_delta_strategy(paths, 1.0, 0.2)
        assert np.all(sched.delta < 0.05)

    def test_fixed_equals_true_on_constant_variance(self, baseline_paths):
        const_var = MarketPaths(
            spot=baseline_paths.spot.copy(),
            variance=np.full_like(baseline_paths.variance, 0.04),
            grid=baseline_paths.grid,
        )
        fixed = bs_delta_strategy(const_var, 1.0, 0.2)
        true = bs_delta_strategy(const_var, 1.0, None)
        assert np.array_equal(fixed.delta, true.delta)
        assert (fixed.strategy_label, true.strategy_label) == ("bs_delta_fixed", "bs_delta_true")

    def test_vol_validation(self):
        """A given vol must be finite and positive, for both strategies."""
        paths = pinned_paths(1.0, 0.04, n_steps=4)
        for vol, message in ((0.0, r"lie in \(0, inf\), got 0.0"),
                             (-0.2, r"lie in \(0, inf\), got -0.2"),
                             (float("nan"), "be a finite real number, got nan"),
                             (float("inf"), "be a finite real number, got inf"),
                             (True, "be a finite real number, got True")):
            with pytest.raises(ParameterError, match=f"^vol must {message}$"):
                bs_delta_strategy(paths, 1.0, vol)
            with pytest.raises(ParameterError, match=f"^vol must {message}$"):
                ww_strategy(paths, 1.0, vol, cost_rate=5e-4)


class TestWwBand:
    def test_halfwidth_oracle(self):
        w = ww_band_halfwidth(1.0, 1.0, 0.2, 0.5, cost_rate=5e-4, risk_aversion=1.0)
        assert w == pytest.approx(ATM_WW_HALFWIDTH, abs=1e-10)

    def test_zero_cost_collapses_band(self):
        assert ww_band_halfwidth(1.0, 1.0, 0.2, 0.5, cost_rate=0.0) == 0.0

    def test_cube_root_cost_scaling(self):
        w1 = ww_band_halfwidth(1.0, 1.0, 0.2, 0.5, cost_rate=5e-4)
        w8 = ww_band_halfwidth(1.0, 1.0, 0.2, 0.5, cost_rate=8 * 5e-4)
        assert w8 == pytest.approx(2.0 * w1, rel=1e-12)

    def test_invalid_risk_aversion(self):
        with pytest.raises(ParameterError):
            ww_band_halfwidth(1.0, 1.0, 0.2, 0.5, cost_rate=5e-4, risk_aversion=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True], ids=["nan", "inf", "bool"])
    def test_a_risk_aversion_that_is_not_a_finite_number_is_refused(self, value):
        """NaN once gave a NaN band, and True ran as 1.0."""
        with pytest.raises(ParameterError,
                           match=f"^risk_aversion must be a finite real number, got {value}$"):
            ww_band_halfwidth(1.0, 1.0, 0.2, 0.5, cost_rate=5e-4, risk_aversion=value)

    @pytest.mark.parametrize("value, message", [
        (-5e-4, "must lie in [0, inf), got -0.0005"),
        (True, "must be a finite real number, got True"),
        (float("nan"), "must be a finite real number, got nan"),
    ], ids=["negative", "bool", "nan"])
    def test_a_cost_rate_that_is_not_a_finite_number_of_at_least_0_is_refused(self, value,
                                                                               message):
        """A negative rate once gave a NaN band, and True ran as 1.0."""
        with pytest.raises(ParameterError, match=f"^cost_rate {re.escape(message)}$"):
            ww_band_halfwidth(1.0, 1.0, 0.2, 0.5, cost_rate=value)


class TestWwStrategy:
    def test_zero_cost_equals_delta_strategy(self, baseline_paths):
        vol = 0.2
        ww = ww_strategy(baseline_paths, 1.0, vol, cost_rate=0.0)
        bs = bs_delta_strategy(baseline_paths, 1.0, vol)
        assert np.allclose(ww.delta, bs.delta, atol=1e-14)

    def test_frozen_market_trades_at_most_once_after_entry(self):
        paths = pinned_paths(1.0, 0.04)
        sched = ww_strategy(paths, 1.0, 0.2, cost_rate=5e-4)
        moves = np.abs(np.diff(sched.delta[0])) > 1e-12
        assert moves.sum() <= 1

    def test_positions_stay_inside_band(self, baseline_paths):
        sched = ww_strategy(baseline_paths, 1.0, 0.2, cost_rate=5e-4)
        taus = baseline_paths.grid.taus()
        n = baseline_paths.n_steps
        for t in range(n):
            center = bs_delta(baseline_paths.spot[:, t], 1.0, 0.2, taus[t])
            width = ww_band_halfwidth(baseline_paths.spot[:, t], 1.0, 0.2, taus[t], 5e-4)
            assert np.all(sched.delta[:, t] >= center - width - 1e-12)
            assert np.all(sched.delta[:, t] <= center + width + 1e-12)

    @staticmethod
    def trades(paths, schedule):
        """|position change| at t = 0..n of a book that starts and ends flat."""
        return np.abs(np.diff(np.pad(schedule.delta, ((0, 0), (1, 1))), axis=1))

    def test_trades_less_volume_than_delta_hedging(self, baseline_paths):
        vol = 0.2
        ww = ww_strategy(baseline_paths, 1.0, vol, cost_rate=5e-4)
        bs = bs_delta_strategy(baseline_paths, 1.0, vol)
        assert self.trades(baseline_paths, ww).sum() < self.trades(baseline_paths, bs).sum()

    @staticmethod
    def per_step_schedule(paths, vol, cost_rate):
        """The oracle: the band rebuilt one decision step at a time, as
        ww_strategy once did, reusing the last band at a decision with
        tau < dt."""
        n, dt, taus = paths.n_steps, paths.grid.dt, paths.grid.taus()
        vols = np.sqrt(paths.variance[:, :n]) if vol is None else np.full((paths.n_paths, n), vol)
        delta = np.empty((paths.n_paths, n))
        position = np.zeros(paths.n_paths)
        for t in range(n):
            if taus[t] >= dt - 1e-15 or t == 0:
                spot, tau = paths.spot[:, t], taus[t]
                center = bs_delta(spot, 1.0, vols[:, t], tau)
                width = ww_band_halfwidth(spot, 1.0, vols[:, t], max(tau, dt), cost_rate)
            position = np.clip(position, center - width, center + width)
            delta[:, t] = position
        return delta

    @pytest.mark.parametrize("vol", [0.2, None], ids=["fixed-vol", "true-vol"])
    @pytest.mark.parametrize("batch", ["baseline_paths", "small_paths"])
    def test_equals_the_per_step_band_bit_for_bit(self, request, batch, vol):
        paths = request.getfixturevalue(batch)
        sched = ww_strategy(paths, 1.0, vol, cost_rate=5e-4)
        assert np.array_equal(sched.delta, self.per_step_schedule(paths, vol, 5e-4))

    def test_trade_count_never_exceeds_delta_hedging(self, baseline_paths):
        vol = 0.2
        ww = ww_strategy(baseline_paths, 1.0, vol, cost_rate=5e-4)
        bs = bs_delta_strategy(baseline_paths, 1.0, vol)
        count_ww = (self.trades(baseline_paths, ww) > 1e-12).sum(axis=1)
        count_bs = (self.trades(baseline_paths, bs) > 1e-12).sum(axis=1)
        assert np.all(count_ww <= count_bs)


def test_importing_the_package_leaves_scipy_stats_out():
    """scipy.stats was most of the package's import time."""
    code = "import sys, hedgeblend; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(hedgeblend.__file__).parent.parent), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=120, check=True)
    assert result.stdout.strip() == "False"


def test_closed_forms_equal_the_scipy_stats_oracle_bit_for_bit():
    """ndtr and the density formula are what scipy.stats.norm computes, on
    spots, vols and taus spanning deep out of the money to deep in it, and at
    the expiry and zero-vol boundaries; the oracle's NaN differs from numpy's
    only in its sign bit."""
    norm = pytest.importorskip("scipy.stats").norm
    gen = np.random.default_rng(3)
    spot = np.exp(gen.normal(0.0, 0.5, 100_000))
    vol = gen.uniform(0.0, 1.0, spot.size)
    tau = gen.uniform(0.0, 1.0, spot.size)
    live = (tau > 0) & (vol > 0)
    d1 = (np.log(spot) + 0.5 * vol**2 * tau) / (vol * np.sqrt(tau))
    d2 = d1 - vol * np.sqrt(tau)
    assert bs_delta(spot, 1.0, vol, tau).tobytes() == np.where(live, norm.cdf(d1), 0.0).tobytes()
    price = np.where(live, spot * norm.cdf(d1) - norm.cdf(d2), 0.0)
    assert bs_price(spot, 1.0, vol, tau).tobytes() == price.tobytes()
    gamma = norm.pdf(d1) / (spot * vol * np.sqrt(tau))
    assert bs_gamma(spot, 1.0, vol, tau).tobytes() == gamma.tobytes()
    edges = np.array([-np.inf, -40.0, -0.0, 0.0, 40.0, np.inf, np.nan])
    assert classical.ndtr(edges).tobytes() == norm.cdf(edges).tobytes()
    assert np.array_equal(classical._norm_pdf(edges), norm.pdf(edges), equal_nan=True)


@pytest.mark.parametrize("vol", [0.2, None], ids=["fixed-vol", "true-vol"])
def test_each_closed_form_computes_d1_once(monkeypatch, small_paths, vol):
    """bs_delta, bs_gamma, bs_price and ww_strategy each evaluate d1 in one
    call of the shared ``_d1``; the band takes its centre and its width from
    the same d1."""
    d1, calls = classical._d1, []

    def counted(*args):
        calls.append(args)
        return d1(*args)

    monkeypatch.setattr(classical, "_d1", counted)
    spot = small_paths.spot[:, :4]
    for closed_form in (bs_delta, bs_gamma, bs_price):
        calls.clear()
        closed_form(spot, 1.0, 0.2, 0.25)
        assert len(calls) == 1
    calls.clear()
    ww_strategy(small_paths, 1.0, vol, cost_rate=5e-4)
    assert len(calls) == 1
