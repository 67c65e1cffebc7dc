"""Property tests of the paired bootstrap and the uncertainty quintiles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedgeblend.evaluation import MIN_BOOTSTRAP_RESAMPLES, N_QUINTILES, paired_bootstrap, quintile_analysis
from hedgeblend.risk import RiskSpec

METRICS = [RiskSpec("mean"), RiskSpec("std"), RiskSpec("cvar", level=0.2), RiskSpec("entropic")]
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
    results = [paired_bootstrap(a, b, metric, resamples=resamples, seed=seed, block=block)
               for block in (1, 7, 512)]
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
