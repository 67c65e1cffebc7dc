import csv
import dataclasses
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedgeblend.accounting import (
    CostSpec,
    HedgePnL,
    HedgeSchedule,
    PnLReport,
    compute_pnl,
    write_pnl_csv,
)
from hedgeblend.errors import ParameterError
from hedgeblend.market import MarketPaths, PathGrid


def make_paths(spot_rows: np.ndarray, maturity: float = 1.0) -> MarketPaths:
    spot = np.asarray(spot_rows, dtype=float)
    grid = PathGrid(n_steps=spot.shape[1] - 1, maturity=maturity)
    return MarketPaths(spot=spot, variance=np.zeros_like(spot), grid=grid)


class TestComputePnl:
    def test_single_path_hand_case(self):
        paths = make_paths([[1.0, 1.1, 1.2]])
        hedges = HedgeSchedule(np.array([[0.5, 0.7]]))
        report = compute_pnl(paths, hedges, CostSpec(5e-4), strike=1.0)
        assert report.hedge_gains[0] == pytest.approx(0.12, abs=1e-15)
        assert report.transaction_costs[0] == pytest.approx(7.8e-4, abs=1e-15)
        assert report.payoff[0] == pytest.approx(0.2, abs=1e-15)
        assert report.pnl[0] == pytest.approx(-0.08078, abs=1e-15)
        assert report.trade_size[0] == pytest.approx((0.5 + 0.2 + 0.7) / 3, abs=1e-15)

    def test_zero_hedge_is_minus_payoff(self, baseline_paths, cost):
        hedges = HedgeSchedule(np.zeros((baseline_paths.n_paths, baseline_paths.n_steps)))
        report = compute_pnl(baseline_paths, hedges, cost, strike=1.0)
        assert np.all(report.transaction_costs == 0)
        assert np.array_equal(report.pnl, -report.payoff)

    def test_static_unit_hedge_replicates_intrinsic_move(self):
        # zero costs, delta == 1 on an ITM path, K == S0: pnl is exactly 0
        paths = make_paths([[1.0, 1.3, 1.5]])
        hedges = HedgeSchedule(np.ones((1, 2)))
        report = compute_pnl(paths, hedges, CostSpec(0.0), strike=1.0)
        assert report.pnl[0] == pytest.approx(0.0, abs=1e-15)

    def test_shape_mismatch_rejected(self, baseline_paths, cost):
        bad = HedgeSchedule(np.zeros((baseline_paths.n_paths, 3)))
        with pytest.raises(ParameterError):
            compute_pnl(baseline_paths, bad, cost, strike=1.0)

    def test_invalid_strike_rejected(self, baseline_paths, cost):
        hedges = HedgeSchedule(np.zeros((baseline_paths.n_paths, baseline_paths.n_steps)))
        with pytest.raises(ParameterError):
            compute_pnl(baseline_paths, hedges, cost, strike=0.0)

    @pytest.mark.parametrize("strike", [float("nan"), float("inf"), True], ids=["nan", "inf", "bool"])
    def test_a_strike_that_is_not_a_finite_number_is_refused(self, cost, strike):
        """A NaN strike once gave NaN P&L, and True ran as strike 1."""
        paths = make_paths([[1.0, 1.1]])
        with pytest.raises(ParameterError, match=f"^strike must be a finite real number, got {strike}$"):
            compute_pnl(paths, HedgeSchedule(np.zeros((1, 1))), cost, strike=strike)

    def test_non_finite_schedule_rejected(self):
        with pytest.raises(ParameterError):
            HedgeSchedule(np.array([[np.nan, 0.0]]))

    @given(
        seed=st.integers(0, 10_000),
        n_paths=st.integers(1, 8),
        n_steps=st.integers(1, 12),
        cost_rate=st.floats(0, 0.01),
    )
    @settings(max_examples=60, deadline=None)
    def test_decomposition_identity_property(self, seed, n_paths, n_steps, cost_rate):
        gen = np.random.default_rng(seed)
        spot = np.exp(gen.normal(0, 0.1, size=(n_paths, n_steps + 1)).cumsum(axis=1))
        delta = gen.normal(0, 1, size=(n_paths, n_steps))
        report = compute_pnl(
            make_paths(spot), HedgeSchedule(delta), CostSpec(cost_rate), strike=1.0
        )
        recomposed = report.hedge_gains - report.transaction_costs - report.payoff
        assert np.abs(report.pnl - recomposed).max() < 1e-12
        assert np.all(report.transaction_costs >= 0)
        assert np.all(report.payoff >= 0)

    def test_costs_scale_linearly(self, baseline_paths, rng_np):
        delta = rng_np.normal(0, 0.5, size=(baseline_paths.n_paths, baseline_paths.n_steps))
        hedges = HedgeSchedule(delta)
        single = compute_pnl(baseline_paths, hedges, CostSpec(5e-4), 1.0)
        double = compute_pnl(baseline_paths, hedges, CostSpec(1e-3), 1.0)
        assert np.allclose(double.transaction_costs, 2.0 * single.transaction_costs)

    def test_gains_translation_covariance(self):
        gen = np.random.default_rng(0)
        increments = gen.normal(0, 0.01, size=(4, 10))
        spot = 1.0 + np.pad(increments, ((0, 0), (1, 0))).cumsum(axis=1)
        shifted = 1.0 + np.pad(increments + 0.005, ((0, 0), (1, 0))).cumsum(axis=1)
        hedges = HedgeSchedule(np.ones((4, 10)))
        base = compute_pnl(make_paths(spot), hedges, CostSpec(0.0), strike=100.0)
        moved = compute_pnl(make_paths(shifted), hedges, CostSpec(0.0), strike=100.0)
        # deep OTM strike: payoff 0 on both, so pnl shifts by n * shift
        assert np.allclose(moved.pnl - base.pnl, 10 * 0.005, atol=1e-12)


class TestOneAccounting:
    """compute_pnl is HedgePnL's forward, which training differentiates."""

    @staticmethod
    def random_case(seed, n_paths=200, n_steps=30):
        gen = np.random.default_rng(seed)
        spot = np.exp(gen.normal(0, 0.02, size=(n_paths, n_steps + 1)).cumsum(axis=1))
        delta = gen.normal(0.5, 0.3, size=(n_paths, n_steps))
        delta[:, 3] = delta[:, 2]  # a step without a trade
        return make_paths(spot), delta

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pnl_is_hedge_pnl_forward_bit_for_bit(self, seed):
        paths, delta = self.random_case(seed)
        report = compute_pnl(paths, HedgeSchedule(delta), CostSpec(5e-4), 1.0)
        training = HedgePnL(paths.spot, 5e-4, 1.0).pnl(delta)
        assert report.pnl.dtype == training.dtype == np.float64
        assert report.pnl.tobytes() == training.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_report_equals_the_direct_formula(self, seed):
        """Each field against gains sum(delta dS), costs c * sum(S |dd|) over
        the position changes dd of a book that starts and ends flat, payoff
        (S_n - K)^+ and pnl = gains - costs - payoff."""
        paths, delta = self.random_case(seed)
        spot, c = paths.spot, 5e-4
        report = compute_pnl(paths, HedgeSchedule(delta), CostSpec(c), 1.0)
        trades = np.abs(np.diff(np.pad(delta, ((0, 0), (1, 1))), axis=1))
        assert (trades[:, 3] == 0.0).all()
        gains = np.sum(delta * np.diff(spot, axis=1), axis=1)
        costs = c * np.sum(spot * trades, axis=1)
        payoff = np.maximum(spot[:, -1] - 1.0, 0.0)
        expected = {"trade_size": trades.mean(axis=1), "hedge_gains": gains,
                    "transaction_costs": costs, "payoff": payoff, "pnl": gains - costs - payoff}
        for name, value in expected.items():
            np.testing.assert_allclose(getattr(report, name), value, rtol=1e-12, atol=0,
                                       err_msg=name)

    def test_every_array_holds_one_value_per_path(self):
        paths, delta = self.random_case(0)
        report = compute_pnl(paths, HedgeSchedule(delta), CostSpec(5e-4), 1.0)
        arrays = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)
                  if isinstance(getattr(report, f.name), np.ndarray)}
        assert set(arrays) == {"pnl", "hedge_gains", "transaction_costs", "payoff", "trade_size"}
        assert {name: a.shape for name, a in arrays.items()} == {
            name: (paths.n_paths,) for name in arrays}

    def test_take_equals_the_report_of_those_rows_bit_for_bit(self):
        paths, delta = self.random_case(1)
        rows = np.array([7, 0, 199, 42, 42])
        taken = compute_pnl(paths, HedgeSchedule(delta, "x"), CostSpec(5e-4), 1.0).take(rows)
        direct = compute_pnl(paths.take(rows), HedgeSchedule(delta[rows], "x"), CostSpec(5e-4), 1.0)
        for f in dataclasses.fields(PnLReport):
            assert np.array_equal(getattr(taken, f.name), getattr(direct, f.name)), f.name


class TestHedgePnL:
    """HedgePnL's forward and its VJP, which training maps d loss / d pnl through."""

    @pytest.fixture
    def random_case(self, rng_np):
        n_paths, n_steps = 40, 12
        spot = np.exp(rng_np.normal(0, 0.05, size=(n_paths, n_steps + 1)).cumsum(axis=1))
        delta = rng_np.normal(0.3, 0.4, size=(n_paths, n_steps))
        return spot, delta

    @staticmethod
    def numpy_pnl(spot, delta):
        paths = make_paths(spot, maturity=0.5)
        return compute_pnl(paths, HedgeSchedule(delta), CostSpec(5e-4), strike=1.0).pnl

    def test_matches_compute_pnl(self, random_case):
        spot, delta = random_case
        account = HedgePnL(spot, 5e-4, 1.0)
        assert np.allclose(account.pnl(delta), self.numpy_pnl(spot, delta), rtol=0, atol=1e-12)
        flat = np.zeros_like(delta)  # unchanged positions: zero costs between entry and unwind
        assert np.allclose(account.pnl(flat), self.numpy_pnl(spot, flat), rtol=0, atol=1e-12)

    def test_vjp_matches_central_differences(self, random_case):
        """The VJP of a fixed linear functional u . pnl, u of either sign,
        against central differences of compute_pnl."""
        spot, delta = random_case
        h = 1e-6
        u = np.random.default_rng(1).normal(size=delta.shape[0])
        account = HedgePnL(spot, 5e-4, 1.0)
        account.pnl(delta)
        grad = account.vjp(u)
        flat = delta.reshape(-1)
        gen = np.random.default_rng(0)
        for idx in gen.choice(flat.size, size=25, replace=False):
            original = flat[idx]
            flat[idx] = original + h
            up = u @ self.numpy_pnl(spot, delta)
            flat[idx] = original - h
            down = u @ self.numpy_pnl(spot, delta)
            flat[idx] = original
            fd = (up - down) / (2 * h)
            got = grad.reshape(-1)[idx]
            assert abs(got - fd) <= 1e-4 * max(abs(fd), abs(got), 1e-3)

    def test_float32_spot_keeps_float32(self, random_case):
        spot, delta = random_case
        account = HedgePnL(spot.astype(np.float32), 5e-4, 1.0)
        pnl = account.pnl(delta.astype(np.float32))
        assert pnl.dtype == np.float32
        assert account.vjp(np.ones(pnl.size)).dtype == np.float32


class TestTrades:
    def test_trades_include_entry_and_unwind(self):
        """Entry 0.5 at S=1.0, rebalance 0.2 at S=1.1, unwind 0.7 at S=1.2."""
        report = compute_pnl(make_paths([[1.0, 1.1, 1.2]]), HedgeSchedule(np.array([[0.5, 0.7]])),
                             CostSpec(5e-4), strike=1.0)
        assert report.trade_size[0] == pytest.approx((0.5 + 0.2 + 0.7) / 3, abs=1e-15)
        assert report.transaction_costs[0] == pytest.approx(
            5e-4 * (0.5 * 1.0 + 0.2 * 1.1 + 0.7 * 1.2), abs=1e-15)

    # trade_stats.csv's average_trade_size is the mean of the per-path trade_size.
    def test_average_trade_size_zero_hedge(self, baseline_paths, cost):
        hedges = HedgeSchedule(np.zeros((baseline_paths.n_paths, baseline_paths.n_steps)))
        assert compute_pnl(baseline_paths, hedges, cost, 1.0).trade_size.mean() == 0.0

    def test_average_trade_size_constant_hedge(self):
        n = 126
        spot = np.ones((3, n + 1))
        report = compute_pnl(
            make_paths(spot), HedgeSchedule(np.full((3, n), 0.5)), CostSpec(0.0), 1.0
        )
        assert report.trade_size.mean() == pytest.approx(1.0 / (n + 1), abs=1e-15)


def test_pnl_csv_export(tmp_path, baseline_paths, cost):
    delta = np.full((baseline_paths.n_paths, baseline_paths.n_steps), 0.2)
    report = compute_pnl(baseline_paths, HedgeSchedule(delta, "x"), cost, 1.0)
    target = tmp_path / "pnl.csv"
    with open(target, "w", newline="") as fh:
        write_pnl_csv(report, fh)
    lines = target.read_text().splitlines()
    assert lines[0] == "path_id,pnl,hedge_gains,transaction_costs,payoff"
    assert len(lines) == 1 + baseline_paths.n_paths
    values = lines[1].split(",")
    assert float(values[1]) == pytest.approx(report.pnl[0], rel=1e-10)


def csv_writer_pnl(report):
    """The export as csv.writer wrote it, one call per row."""
    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["path_id", "pnl", "hedge_gains", "transaction_costs", "payoff"])
    for p in range(report.n_paths):
        writer.writerow([p] + [f"{column[p]:.12g}" for column in (
            report.pnl, report.hedge_gains, report.transaction_costs, report.payoff)])
    return fh.getvalue()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_pnl_csv_equals_the_csv_writer_output(dtype):
    """Signs, zeros, tiny and huge magnitudes, non-finite values, float32."""
    gen = np.random.default_rng(4)
    lo, hi = (-320, 300) if dtype is np.float64 else (-45, 38)
    values = np.concatenate([
        gen.normal(0.0, 0.1, 400), 10.0 ** gen.uniform(lo, hi, 400) * gen.choice([-1, 1], 400),
        [0.0, -0.0, 1.0, 1e16, 1 / 3, np.inf, -np.inf, np.nan]]).astype(dtype)
    columns = [np.roll(values, k) for k in range(4)]
    report = PnLReport(*columns, trade_size=np.zeros(values.size), strategy_label="x")
    fh = io.StringIO()
    write_pnl_csv(report, fh)
    assert fh.getvalue() == csv_writer_pnl(report)


class CountingSink:
    """A file that keeps only the number of characters written to it."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)


def test_pnl_csv_releases_its_columns_before_the_join():
    """tracemalloc peak of a 10,000-path export, whose text is about 0.7 MB:
    2.5 MB when the columns' Python floats are dropped before the lines are
    joined, 3.2 MB when they were kept alive through the join."""
    gen = np.random.default_rng(5)
    columns = [gen.normal(0.0, 0.1, 10_000) for _ in range(4)]
    report = PnLReport(*columns, trade_size=np.zeros(10_000), strategy_label="x")
    sink = CountingSink()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_pnl_csv(report, sink)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sink.size > 600_000
    assert peak <= 2_800_000
