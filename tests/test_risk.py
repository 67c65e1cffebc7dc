import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedgeblend.classical import bs_delta_strategy
from hedgeblend.accounting import CostSpec, compute_pnl
from hedgeblend.errors import ParameterError
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
        with pytest.raises(ParameterError):
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
        with pytest.raises(ParameterError):
            cvar(np.array([]), 0.05)
        with pytest.raises(ParameterError):
            cvar(np.array([1.0]), 0.0)
        with pytest.raises(ParameterError):
            cvar(np.array([1.0]), 1.5)
        with pytest.raises(ParameterError, match="^level must be a finite real number, got True$"):
            cvar(np.array([1.0]), True)  # once the mean: ceil(True * n) = n

    @given(pnl=pnl_vectors, c=st.floats(-3, 3, allow_nan=False), level=st.floats(0.05, 1))
    @settings(max_examples=200, deadline=None)
    def test_translation_property(self, pnl, c, level):
        assert cvar(pnl + c, level) == pytest.approx(cvar(pnl, level) + c, abs=1e-12)

    @given(pnl=pnl_vectors, bump=st.floats(0, 2), level=st.floats(0.05, 1))
    @settings(max_examples=100, deadline=None)
    def test_monotonicity(self, pnl, bump, level):
        assert cvar(pnl + bump, level) >= cvar(pnl, level) - 1e-12


def direct_entropic(pnl, a):
    return np.log(np.mean(np.exp(-a * pnl))) / a


class TestObjectiveGradients:
    """The gradients ``grad=`` writes, which training and the blend fit
    descend, and :meth:`RiskSpec.loss`, the blend fit's objective."""

    def test_entropic_value_and_softmax_gradient(self, rng_np):
        pnl = rng_np.normal(-0.05, 0.1, size=500)
        g = np.empty_like(pnl)
        value = entropic_risk(pnl, 1.3, grad=g)
        assert value == pytest.approx(direct_entropic(pnl, 1.3), abs=1e-12)
        x = -1.3 * pnl
        weights = np.exp(x - x.max())
        assert np.allclose(g, -weights / weights.sum(), atol=1e-15)
        loss_g = np.empty_like(pnl)
        assert RiskSpec("entropic", a=1.3).loss(pnl, loss_g) == value
        assert loss_g.tobytes() == g.tobytes()

    def test_gradient_is_negative_softmax(self, rng_np):
        """The entropic gradient against central differences of the direct
        formula; minus the softmax weights, so it sums to -1."""
        pnl = rng_np.normal(0, 1, size=64)
        h = 1e-6
        fd = np.empty_like(pnl)
        for i in range(pnl.size):
            up, down = pnl.copy(), pnl.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (direct_entropic(up, 1.3) - direct_entropic(down, 1.3)) / (2 * h)
        g = np.empty_like(pnl)
        entropic_risk(pnl, 1.3, grad=g)
        assert np.allclose(g, fd, atol=1e-8)
        assert g.sum() == pytest.approx(-1.0, abs=1e-12)

    def test_cvar_gradient_is_minus_one_over_k_on_the_tail(self, rng_np):
        """cvar's gradient is 1/k on the k worst paths; the loss, minus CVaR,
        has -1/k there."""
        pnl = rng_np.normal(0, 1, size=40)
        k = 4  # ceil(0.1 * 40)
        tail = np.argsort(pnl)[:k]
        expected = np.zeros_like(pnl)
        expected[tail] = 1.0 / k
        g = np.empty_like(pnl)
        value = cvar(pnl, 0.1, grad=g)
        assert np.array_equal(g, expected)
        assert value == pytest.approx(pnl[tail].mean(), abs=1e-12)
        assert RiskSpec("cvar", level=0.1).loss(pnl, g) == -value
        assert np.array_equal(g, -expected)

    def test_cvar_over_the_whole_sample_is_minus_the_mean(self, rng_np):
        pnl = rng_np.normal(0, 1, size=10)
        g = np.empty_like(pnl)
        value = RiskSpec("cvar", level=0.95).loss(pnl, g)  # k = 10
        assert value == pytest.approx(-pnl.mean(), abs=1e-12)
        assert np.array_equal(g, np.full_like(pnl, -0.1))

    @pytest.mark.parametrize("kind", ["mean"])
    def test_only_entropic_risk_and_cvar_are_objectives(self, kind):
        with pytest.raises(ParameterError, match="is not an objective"):
            RiskSpec(kind).loss(np.zeros(4), np.empty(4))


class TestSummary:
    def test_constant(self):
        assert summary(np.array([1.0, 1.0, 1.0])) == (1.0, 0.0)

    def test_two_point_sample_std(self):
        mean, std = summary(np.array([0.0, 2.0]))
        assert mean == 1.0 and std == pytest.approx(np.sqrt(2.0), abs=1e-14)

    def test_insufficient_data(self):
        with pytest.raises(ParameterError):
            summary(np.array([1.0]))
        with pytest.raises(ParameterError):
            summary(np.array([]))

    def test_baseline_delta_hedge_statistics(self, baseline, grid):
        paths = simulate_heston(baseline, grid, 3000, seed=99)
        sched = bs_delta_strategy(paths, 1.0, 0.2)
        report = compute_pnl(paths, sched, CostSpec(5e-4), 1.0)
        mean, std = summary(report.pnl)
        assert -0.06 <= mean <= -0.05
        assert 0.012 <= std <= 0.016


class TestRiskSpec:
    def test_dispatch(self):
        pnl = np.array([-1.0, 0.0, 2.0, 0.5])
        assert RiskSpec("mean").evaluate(pnl) == pytest.approx(pnl.mean())
        assert RiskSpec("cvar", level=0.25).evaluate(pnl) == -1.0
        assert RiskSpec("entropic", a=1.0).evaluate(pnl) == pytest.approx(
            entropic_risk(pnl, 1.0)
        )

    @pytest.mark.parametrize(
        "spec",
        [RiskSpec("mean"), RiskSpec("cvar", level=0.1),
         RiskSpec("cvar", level=1.0), RiskSpec("entropic", a=2.0)],
        ids=lambda spec: f"{spec.kind}",
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
        assert not RiskSpec("entropic").higher_is_better

    def test_validation(self):
        with pytest.raises(ParameterError):
            RiskSpec("sharpe")
        with pytest.raises(ParameterError):
            RiskSpec("entropic", a=-1.0)
        with pytest.raises(ParameterError):
            RiskSpec("cvar", level=0.0)
        with pytest.raises(ParameterError, match="^level must be a finite real number, got True$"):
            RiskSpec("cvar", level=True)

    @pytest.mark.parametrize("a", [float("nan"), float("inf"), True])
    def test_a_risk_aversion_that_is_not_a_finite_number_is_refused(self, a):
        with pytest.raises(ParameterError, match="^a must be a finite real number"):
            RiskSpec("entropic", a=a)
