import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedgeblend.classical import VolMode, bs_delta_strategy
from hedgeblend.accounting import CostSpec, compute_pnl
from hedgeblend.errors import EmptyInputError, InsufficientDataError, ParameterError
from hedgeblend.market import simulate_heston
from hedgeblend.risk import RiskSpec, cvar, entropic_risk, summary

LOG_COSH_1 = 0.4337808304830271

pnl_vectors = st.lists(
    st.floats(-5, 5, allow_nan=False, allow_infinity=False, width=64),
    min_size=1,
    max_size=60,
).map(np.array)


class TestEntropic:
    def test_constant_vector(self):
        assert entropic_risk(np.full(7, 0.3), a=1.0) == pytest.approx(-0.3, abs=1e-12)

    def test_two_point_oracle(self):
        assert entropic_risk(np.array([1.0, -1.0]), a=1.0) == pytest.approx(LOG_COSH_1, abs=1e-12)

    def test_small_a_approaches_negative_mean(self):
        pnl = np.array([0.0, 0.1])
        assert entropic_risk(pnl, a=1e-6) == pytest.approx(-0.05, abs=1e-6)

    def test_overflow_safe_on_heavy_tails(self):
        value = entropic_risk(np.array([-2000.0, 0.0]), a=1.0)
        assert np.isfinite(value) and value == pytest.approx(2000.0 - np.log(2), rel=1e-9)

    def test_errors(self):
        with pytest.raises(EmptyInputError):
            entropic_risk(np.array([]), a=1.0)
        with pytest.raises(ParameterError):
            entropic_risk(np.array([1.0]), a=0.0)

    @given(pnl=pnl_vectors, c=st.floats(-3, 3, allow_nan=False), a=st.floats(0.1, 4))
    @settings(max_examples=200, deadline=None)
    def test_translation_property(self, pnl, c, a):
        assert entropic_risk(pnl + c, a) == pytest.approx(entropic_risk(pnl, a) - c, abs=1e-12)

    @given(pnl=pnl_vectors, a=st.floats(0.1, 4))
    @settings(max_examples=200, deadline=None)
    def test_jensen_bound(self, pnl, a):
        assert entropic_risk(pnl, a) >= -pnl.mean() - 1e-12

    @given(pnl=pnl_vectors, bump=st.floats(0, 2), a=st.floats(0.1, 4))
    @settings(max_examples=100, deadline=None)
    def test_monotonicity(self, pnl, bump, a):
        assert entropic_risk(pnl + bump, a) <= entropic_risk(pnl, a) + 1e-12


class TestCvar:
    def test_single_worst_element(self):
        assert cvar(np.array([-4.0, -3.0, -2.0, -1.0]), 0.25) == -4.0

    def test_two_element_tail(self):
        assert cvar(np.array([-4.0, -3.0, -2.0, -1.0]), 0.5) == -3.5

    def test_constant_vector(self):
        assert cvar(np.full(9, 1.7), 0.3) == pytest.approx(1.7)

    def test_full_level_is_mean(self):
        pnl = np.array([3.0, -1.0, 2.0])
        assert cvar(pnl, 1.0) == pytest.approx(pnl.mean())

    def test_errors(self):
        with pytest.raises(EmptyInputError):
            cvar(np.array([]), 0.05)
        with pytest.raises(ParameterError):
            cvar(np.array([1.0]), 0.0)
        with pytest.raises(ParameterError):
            cvar(np.array([1.0]), 1.5)

    @given(pnl=pnl_vectors, c=st.floats(-3, 3, allow_nan=False), level=st.floats(0.05, 1))
    @settings(max_examples=200, deadline=None)
    def test_translation_property(self, pnl, c, level):
        assert cvar(pnl + c, level) == pytest.approx(cvar(pnl, level) + c, abs=1e-12)

    @given(pnl=pnl_vectors, bump=st.floats(0, 2), level=st.floats(0.05, 1))
    @settings(max_examples=100, deadline=None)
    def test_monotonicity(self, pnl, bump, level):
        assert cvar(pnl + bump, level) >= cvar(pnl, level) - 1e-12


class TestSummary:
    def test_constant(self):
        assert summary(np.array([1.0, 1.0, 1.0])) == (1.0, 0.0)

    def test_two_point_sample_std(self):
        mean, std = summary(np.array([0.0, 2.0]))
        assert mean == 1.0 and std == pytest.approx(np.sqrt(2.0), abs=1e-14)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            summary(np.array([1.0]))
        with pytest.raises(EmptyInputError):
            summary(np.array([]))

    def test_baseline_delta_hedge_statistics(self, baseline, grid):
        paths = simulate_heston(baseline, grid, 3000, seed=99)
        sched = bs_delta_strategy(paths, 1.0, VolMode.fixed(0.2))
        report = compute_pnl(paths, sched, CostSpec(5e-4), 1.0)
        mean, std = summary(report.pnl)
        assert -0.06 <= mean <= -0.05
        assert 0.012 <= std <= 0.016


class TestRiskSpec:
    def test_dispatch(self):
        pnl = np.array([-1.0, 0.0, 2.0, 0.5])
        assert RiskSpec("mean").evaluate(pnl) == pytest.approx(pnl.mean())
        assert RiskSpec("std").evaluate(pnl) == pytest.approx(pnl.std(ddof=1))
        assert RiskSpec("cvar", level=0.25).evaluate(pnl) == -1.0
        assert RiskSpec("entropic", a=1.0).evaluate(pnl) == pytest.approx(
            entropic_risk(pnl, 1.0)
        )

    @pytest.mark.parametrize(
        "spec",
        [RiskSpec("mean"), RiskSpec("std"), RiskSpec("cvar", level=0.1),
         RiskSpec("cvar", level=1.0), RiskSpec("entropic", a=2.0)],
        ids=lambda spec: f"{spec.measure}",
    )
    def test_rows_of_a_matrix_match_vectors_exactly(self, spec, rng_np):
        samples = rng_np.normal(0.0, 0.3, size=(7, 50))
        per_row = spec.evaluate(samples)
        assert per_row.shape == (7,)
        assert per_row.tolist() == [spec.evaluate(row) for row in samples]
        assert isinstance(spec.evaluate(samples[0]), float)

    def test_orientation(self):
        assert RiskSpec("cvar").higher_is_better
        assert RiskSpec("mean").higher_is_better
        assert not RiskSpec("std").higher_is_better
        assert not RiskSpec("entropic").higher_is_better

    def test_validation(self):
        with pytest.raises(ParameterError):
            RiskSpec("sharpe")
        with pytest.raises(ParameterError):
            RiskSpec("entropic", a=-1.0)
        with pytest.raises(ParameterError):
            RiskSpec("cvar", level=0.0)
