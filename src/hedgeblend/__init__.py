"""Uncertainty-aware hedging under stochastic volatility with trading costs.

Simulate Heston markets (GBM is the calibration with zero vol-of-vol), train
an ensemble of recurrent hedgers through a differentiable P&L rollout,
measure ensemble disagreement, blend with the Black-Scholes delta under
entropic or CVaR objectives, and evaluate every strategy with quintile win
rates, decompositions, and paired bootstrap tests.
"""

__version__ = "0.1.0"

from .accounting import (
    CostSpec,
    HedgeSchedule,
    PnLReport,
    compute_pnl,
    decompose_pnl,
)
from .blend import (
    BlendParams,
    alpha_weight,
    blend_schedules,
    fit_blend,
    train_eval_split,
)
from .classical import (
    bs_delta,
    bs_delta_strategy,
    bs_gamma,
    bs_price,
    ww_band_halfwidth,
    ww_strategy,
)
from .config import RunConfig
from .ensemble import EnsembleOutput, aggregate, member_seed, train_ensemble
from .hedger import (
    HedgerModel,
    TrainConfig,
    forward_rollout,
    load_model,
    network_price,
    save_model,
    train_hedger,
)
from .market import (
    CALIBRATIONS,
    HestonParams,
    MarketPaths,
    PathGrid,
    simulate_heston,
)
from .risk import RiskSpec, cvar, entropic_risk, summary
from .evaluation import (
    BootstrapResult,
    paired_bootstrap,
    quintile_analysis,
    rolling_winrate,
    strategy_comparison,
    uncertainty_correlations,
)
