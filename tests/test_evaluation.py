"""Property tests of the paired bootstrap and the uncertainty quintiles, and
checks of the figure-1 win-rate curve, the figure-2 heatmap, the table-3
correlations and the table-4 comparison against direct computations."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedgeblend import evaluation
from hedgeblend.accounting import CostSpec, HedgeSchedule, compute_pnl
from hedgeblend.errors import ParameterError
from hedgeblend.evaluation import (
    MIN_BOOTSTRAP_RESAMPLES,
    N_QUINTILES,
    heatmap_data,
    paired_bootstrap,
    quintile_analysis,
    rolling_winrate,
    strategy_comparison,
    uncertainty_correlations,
)
from hedgeblend.market import MarketPaths, PathGrid
from hedgeblend.risk import RiskSpec, cvar, summary

METRICS = [RiskSpec("mean"), RiskSpec("cvar", level=0.2), RiskSpec("entropic")]
pnl_values = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_subnormal=False)


@st.composite
def paired_pnl(draw, min_size=2, max_size=60):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    a = draw(st.lists(pnl_values, min_size=n, max_size=n))
    b = draw(st.lists(pnl_values, min_size=n, max_size=n))
    return np.array(a), np.array(b)


seeds = st.integers(min_value=0, max_value=2**31 - 1)
metrics = st.sampled_from(METRICS)


@settings(max_examples=40, deadline=None)
@given(pnl=paired_pnl(), metric=metrics, seed=seeds)
def test_a_strategy_against_itself_differs_by_nothing(pnl, metric, seed):
    a, _ = pnl
    res = paired_bootstrap(a, a.copy(), metric, resamples=MIN_BOOTSTRAP_RESAMPLES, seed=seed)
    assert (res.mean_diff, res.ci_low, res.ci_high, res.win_fraction) == (0.0, 0.0, 0.0, 0.0)


@settings(max_examples=40, deadline=None)
@given(pnl=paired_pnl(), metric=metrics, seed=seeds)
def test_swapping_the_strategies_negates_the_difference(pnl, metric, seed):
    a, b = pnl
    ab = paired_bootstrap(a, b, metric, resamples=MIN_BOOTSTRAP_RESAMPLES, seed=seed)
    ba = paired_bootstrap(b, a, metric, resamples=MIN_BOOTSTRAP_RESAMPLES, seed=seed)
    assert ba.mean_diff == pytest.approx(-ab.mean_diff, rel=1e-9, abs=1e-12)
    assert ba.ci_low == pytest.approx(-ab.ci_high, rel=1e-9, abs=1e-12)
    assert ba.ci_high == pytest.approx(-ab.ci_low, rel=1e-9, abs=1e-12)
    assert ab.win_fraction + ba.win_fraction <= 1.0


@settings(max_examples=25, deadline=None)
@given(pnl=paired_pnl(), metric=metrics, seed=seeds,
       resamples=st.integers(min_value=MIN_BOOTSTRAP_RESAMPLES, max_value=300))
def test_results_do_not_depend_on_the_block_size(pnl, metric, seed, resamples):
    a, b = pnl
    results = []
    for block in (1, 7, evaluation.BOOTSTRAP_BLOCK):
        with mock.patch.object(evaluation, "BOOTSTRAP_BLOCK", block):
            results.append(paired_bootstrap(a, b, metric, resamples=resamples, seed=seed))
    assert results[0] == results[1] == results[2]


@st.composite
def quintile_inputs(draw):
    n = draw(st.integers(min_value=N_QUINTILES, max_value=80))
    a, b = draw(paired_pnl(min_size=n, max_size=n))
    psi = draw(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False,
                                  allow_subnormal=False), min_size=n, max_size=n))
    return a, b, np.array(psi)


@settings(max_examples=60, deadline=None)
@given(inputs=quintile_inputs())
def test_quintiles_partition_the_paths(inputs):
    a, b, psi = inputs
    rows = quintile_analysis(a, b, psi)
    counts = [row.n_paths for row in rows[:N_QUINTILES]]
    assert [row.label for row in rows] == ["Q1", "Q2", "Q3", "Q4", "Q5", "overall"]
    assert sum(counts) == rows[-1].n_paths == a.size
    assert max(counts) - min(counts) <= 1


@settings(max_examples=60, deadline=None)
@given(inputs=quintile_inputs())
def test_average_uncertainty_does_not_decrease_from_q1_to_q5(inputs):
    rows = quintile_analysis(*inputs)[:N_QUINTILES]
    averages = [row.avg_uncertainty for row in rows]
    assert averages == sorted(averages)


@settings(max_examples=60, deadline=None)
@given(inputs=quintile_inputs())
def test_overall_win_rate_is_the_count_weighted_quintile_mean(inputs):
    rows = quintile_analysis(*inputs)
    weighted = sum(row.n_paths * row.win_rate for row in rows[:N_QUINTILES]) / rows[-1].n_paths
    assert rows[-1].win_rate == pytest.approx(weighted, rel=1e-12, abs=1e-15)


class TestHeatmap:
    STRIKE = 1.05

    @pytest.fixture
    def heatmap(self, small_paths, rng_np):
        psi = rng_np.uniform(0.0, 0.1, size=(small_paths.n_paths, small_paths.n_steps))
        return psi, heatmap_data(psi, small_paths, 12, 8, self.STRIKE)

    def test_counts_cover_every_path_step(self, small_paths, heatmap):
        _, data = heatmap
        assert data.counts.shape == data.grid.shape == (8, 12)
        assert data.counts.sum() == small_paths.n_paths * small_paths.n_steps

    def test_nan_exactly_in_the_empty_bins(self, heatmap):
        _, data = heatmap
        empty = data.counts == 0
        assert empty.any() and not empty.all()
        assert np.array_equal(np.isnan(data.grid), empty)

    def test_each_bin_is_the_masked_mean(self, small_paths, heatmap):
        psi, data = heatmap
        n = small_paths.n_steps
        moneyness = small_paths.spot[:, :n] / self.STRIKE
        steps = np.broadcast_to(np.arange(n), moneyness.shape)
        m_edges = np.linspace(moneyness.min(), moneyness.max(), 13)
        t_edges = np.linspace(0, n, 9)
        assert np.array_equal(data.moneyness_edges, m_edges)
        assert np.array_equal(data.time_edges, t_edges)
        for ti in range(8):
            in_time = (steps >= t_edges[ti]) & (steps < t_edges[ti + 1])
            for mi in range(12):
                upper = moneyness <= m_edges[-1] if mi == 11 else moneyness < m_edges[mi + 1]
                mask = in_time & (moneyness >= m_edges[mi]) & upper
                assert data.counts[ti, mi] == mask.sum()
                if mask.any():
                    assert data.grid[ti, mi] == pytest.approx(psi[mask].mean(), rel=1e-12)


@pytest.mark.parametrize("window", [1, 7, 50])
def test_rolling_winrate_row_k_averages_sorted_paths_k_to_k_plus_window(rng_np, window):
    n = 50
    pnl_a, pnl_b = rng_np.normal(size=n), rng_np.normal(size=n)
    psi = rng_np.permutation(n) / n
    curve = rolling_winrate(pnl_a, pnl_b, psi, window)
    assert curve.shape == (n - window + 1, 2)
    order = np.argsort(psi)
    wins = (pnl_a > pnl_b)[order]
    for k, (mean_psi, win_rate) in enumerate(curve):
        assert mean_psi == pytest.approx(psi[order][k : k + window].mean(), rel=1e-12)
        assert win_rate == pytest.approx(wins[k : k + window].mean(), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("lengths", [(10, 1, 10), (10, 10, 3)],
                         ids=["one-value-pnl-b", "short-psi-bar"])
def test_rolling_winrate_rejects_vectors_of_unequal_length(rng_np, lengths):
    """Unequal vectors once broadcast, or built a curve from the shortest."""
    pnl_a, pnl_b, psi = (rng_np.normal(size=n) for n in lengths)
    with pytest.raises(ParameterError, match="per-path vectors differ in shape"):
        rolling_winrate(pnl_a, pnl_b, psi, 2)


@pytest.mark.parametrize("shape", [(10, 2), (0,)], ids=["2-D", "empty"])
@pytest.mark.parametrize("analysis", [
    lambda v: quintile_analysis(v, v, v),
    lambda v: paired_bootstrap(v, v, RiskSpec("mean")),
], ids=["quintile_analysis", "paired_bootstrap"])
def test_vectors_that_are_not_one_value_per_path_are_refused(analysis, shape):
    """2-D vectors once raised IndexError, and an empty bootstrap gave NaN bounds."""
    with pytest.raises(ParameterError, match=re.escape(f"got shape {shape}")):
        analysis(np.zeros(shape))


FLAT_PATHS = MarketPaths(spot=np.ones((4, 3)), variance=np.ones((4, 3)),
                         grid=PathGrid(n_steps=2, maturity=0.5))


@pytest.mark.parametrize("analysis, message", [
    (lambda v: paired_bootstrap(v, v, RiskSpec("mean"), resamples=5000.0),
     "resamples must be an integer, got 5000.0"),
    (lambda v: paired_bootstrap(v, v, RiskSpec("mean"), resamples=True),
     "resamples must be an integer, got True"),
    (lambda v: rolling_winrate(v, v, v, 2.0), "window must be an integer, got 2.0"),
    (lambda v: rolling_winrate(v, v, v, True), "window must be an integer, got True"),
    (lambda v: heatmap_data(np.zeros((4, 2)), FLAT_PATHS, 2.0, 2),
     "moneyness_bins must be an integer, got 2.0"),
    (lambda v: heatmap_data(np.zeros((4, 2)), FLAT_PATHS, 2, True),
     "time_bins must be an integer, got True"),
], ids=["float-resamples", "bool-resamples", "float-window", "bool-window",
        "float-moneyness-bins", "bool-time-bins"])
def test_a_count_that_is_not_an_integer_is_refused(analysis, message):
    """Float counts and a bool window once raised numpy's TypeError."""
    with pytest.raises(ParameterError, match=f"^{message}$"):
        analysis(np.linspace(0.0, 1.0, 4))


def built_paths(rng_np, n_paths=20) -> MarketPaths:
    grid = PathGrid(n_steps=4, maturity=0.5)
    spot = rng_np.uniform(0.8, 1.2, size=(n_paths, grid.n_steps + 1))
    variance = rng_np.uniform(0.01, 0.09, size=spot.shape)
    return MarketPaths(spot=spot, variance=variance, grid=grid)


def test_uncertainty_correlations_equal_corrcoef(rng_np):
    paths = built_paths(rng_np)
    psi = rng_np.uniform(0.0, 0.1, size=paths.n_paths)
    moneyness, vol = uncertainty_correlations(psi, paths)
    assert moneyness == np.corrcoef(psi, paths.spot[:, -1])[0, 1]
    assert vol == np.corrcoef(psi, np.sqrt(paths.variance).mean(axis=1))[0, 1]


def test_constant_uncertainty_has_no_correlation(rng_np):
    paths = built_paths(rng_np)
    with pytest.raises(ParameterError):
        uncertainty_correlations(np.full(paths.n_paths, 0.03), paths)


def compared_reports(rng_np, paths, labels=("b", "a", "c")):
    """One report per label, each of random hedge ratios on ``paths``."""
    shape = (paths.n_paths, paths.n_steps)
    return [compute_pnl(paths, HedgeSchedule(rng_np.uniform(0.0, 1.0, size=shape), label),
                        CostSpec(5e-4), 1.0) for label in labels]


@pytest.mark.parametrize("level", [0.05, 0.25])
def test_strategy_comparison_rows_are_summary_and_cvar_at_level_in_input_order(rng_np, level):
    reports = compared_reports(rng_np, built_paths(rng_np, 40))
    rows = strategy_comparison(reports, level=level)
    assert [(r.strategy, r.mean_pnl, r.std_pnl, r.cvar) for r in rows] == [
        (r.strategy_label, *summary(r.pnl), cvar(r.pnl, level)) for r in reports
    ]
    assert [r.strategy for r in rows] == ["b", "a", "c"]


def test_strategy_comparison_refuses_no_reports_and_reports_on_other_paths(rng_np):
    reports = compared_reports(rng_np, built_paths(rng_np, 40))
    with pytest.raises(ParameterError, match="^no reports$"):
        strategy_comparison([])
    other, = compared_reports(rng_np, built_paths(rng_np, 40), labels=("other",))
    with pytest.raises(ParameterError, match="not computed on the same paths"):
        strategy_comparison([*reports, other])
    with pytest.raises(ParameterError, match="different path counts"):
        strategy_comparison([*reports, reports[0].take(np.arange(10))])
