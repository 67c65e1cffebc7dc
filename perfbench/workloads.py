"""The four benchmark workloads and their output checks.

Every workload turns the benchmark seed into hedgeblend inputs (seed 0 is the
library's own default configuration), runs one timed body through the public
API, and returns a small JSON-ready outcome that :func:`check` verifies.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

from hedgeblend import accounting, blend, ensemble, evaluation, hedger, pipeline
from hedgeblend.blend import BlendParams
from hedgeblend.config import RunConfig
from hedgeblend.hedger import TrainConfig
from hedgeblend.risk import RiskSpec, summary

REFERENCE_SEED = 0

# Tolerances for the reference comparison, fixed before any change is
# measured. Training runs in float32, so a reordered sum may move the last
# three of its seven significant digits; anything beyond that is a defect.
RTOL = 1e-4
ATOL = 1e-7

# Blend coefficients for evaluate_desk, which skips the fit: the tiny
# pipeline's fitted values at the reference seed, rounded.
FIXED_BLENDS = {
    "entropic": BlendParams(intercept=-0.5, uncertainty_coef=18.0),
    "cvar": BlendParams(intercept=2.0, uncertainty_coef=2.5),
}
STRATEGIES = ["ensemble_mean", "bs_delta_fixed", "bs_delta_true", "whalley_wilmott",
              "blend_entropic", "blend_cvar"]


def run_config(seed: int, **fields) -> RunConfig:
    """RunConfig whose seeds are shifted by ``seed``; seed 0 keeps the defaults."""
    base = RunConfig()
    train = TrainConfig(**{**fields.pop("train", {}), "seed": base.train.seed + seed})
    return RunConfig(train=train, eval_seeds=[s + seed for s in base.eval_seeds], **fields)


def train_args(config: RunConfig) -> tuple:
    return config.heston_params(), config.grid, config.cost(), config.strike


# -- bodies ---------------------------------------------------------------------


def setup_train_desk(seed: int) -> RunConfig:
    return run_config(seed, train={"epochs": 2, "paths_per_epoch": 5000})


def body_train_desk(config: RunConfig, out_dir: str) -> dict:
    members = ensemble.train_ensemble(2, config.train, *train_args(config), workers=1)
    return {"loss_history": [m.loss_history for m in members]}


def setup_train_paper_batch(seed: int) -> RunConfig:
    return run_config(seed, train={"epochs": 2, "paths_per_epoch": 20000})


def body_train_paper_batch(config: RunConfig, out_dir: str) -> dict:
    model = hedger.train_hedger(config.train, *train_args(config))
    return {"loss_history": [model.loss_history]}


def setup_evaluate_desk(seed: int) -> tuple:
    # Rollout cost does not depend on how long the members trained, so one
    # small-batch epoch yields float32 members as training does.
    config = run_config(seed, train={"epochs": 1, "paths_per_epoch": 256})
    return config, pipeline.train_members(config)


def body_evaluate_desk(inputs: tuple, out_dir: str) -> dict:
    """The evaluation pass of ``full_pipeline`` with fixed blend coefficients."""
    config, members = inputs
    cost, strike = config.cost(), config.strike
    paths = pipeline.simulate_eval_paths(config)
    ens = ensemble.aggregate(members, paths, strike)
    with open(os.path.join(out_dir, "ensemble_uncertainty.csv"), "w", newline="") as fh:
        ensemble.write_path_uncertainty_csv(ens, fh)
    schedules = pipeline.classical_schedules(config, paths)
    _, test_idx = blend.train_eval_split(paths, config.train_fraction, seed=config.eval_seeds[0])
    schedules["ensemble_mean"] = ens.mean_hedge
    alpha = {}
    for kind, params in FIXED_BLENDS.items():
        schedules[f"blend_{kind}"] = blend.blend_schedules(
            ens.mean_hedge, schedules["bs_delta_fixed"], ens.disagreement, params
        )
        a = blend.alpha_weight(ens.disagreement, params)
        alpha[kind] = [float(a.min()), float(a.max())]

    reports_all, reports_test = [], {}
    test_paths = paths.take(test_idx)
    for name in STRATEGIES:
        sched = schedules[name]
        sched.strategy_label = name
        reports_all.append(accounting.compute_pnl(paths, sched, cost, strike))
        reports_test[name] = accounting.compute_pnl(test_paths, sched.take(test_idx), cost, strike)
        with open(os.path.join(out_dir, f"pnl_{name}.csv"), "w", newline="") as fh:
            accounting.write_pnl_csv(reports_all[-1], fh)

    comparison = evaluation.strategy_comparison(list(reports_test.values()), level=config.cvar_level)
    evaluation.write_comparison_csv(os.path.join(out_dir, "table4_comparison.csv"), comparison)
    boot = _bootstrap(config, reports_test)
    evaluation.write_bootstrap_csv(os.path.join(out_dir, "table5_bootstrap.csv"), boot)
    evaluation.write_decomposition_csv(
        os.path.join(out_dir, "table6_decomposition.csv"), reports_all,
        baseline=STRATEGIES.index("bs_delta_fixed"),
    )
    evaluation.write_trade_stats_csv(os.path.join(out_dir, "trade_stats.csv"), reports_all)
    manifest = evaluation.write_manifest(
        os.path.join(out_dir, "manifest.json"), config.to_dict(), out_dir
    )
    return {
        "ensemble_mean_pnl": list(summary(reports_all[0].pnl)),
        "table4": {r.strategy: [r.mean_pnl, r.std_pnl, r.cvar] for r in comparison},
        "alpha": alpha,
        "artifacts": sorted(os.listdir(out_dir)),
        "hashes": manifest["artifacts"],
    }


def _bootstrap(config: RunConfig, reports_test: dict) -> list:
    """The pipeline's table-5 comparisons, with its resample counts."""
    cvar_spec = RiskSpec("cvar", level=config.cvar_level)
    blend_pnl = reports_test["blend_cvar"].pnl
    seed = config.eval_seeds[0]
    entries = [
        (f"blend_cvar_vs_{rival}", "cvar", evaluation.paired_bootstrap(
            blend_pnl, reports_test[rival].pnl, cvar_spec,
            resamples=config.bootstrap_resamples, seed=seed))
        for rival in ("bs_delta_fixed", "whalley_wilmott")
    ]
    entries.append(("blend_cvar_vs_bs_delta_fixed", "mean", evaluation.paired_bootstrap(
        blend_pnl, reports_test["bs_delta_fixed"].pnl, RiskSpec("mean"),
        resamples=config.mean_bootstrap_resamples, seed=seed)))
    return entries


def setup_pipeline_tiny(seed: int) -> RunConfig:
    return run_config(
        seed, ensemble_size=2, train={"epochs": 3, "paths_per_epoch": 500}, eval_paths=1000
    )


def body_pipeline_tiny(config: RunConfig, out_dir: str) -> dict:
    result = pipeline.full_pipeline(config, out_dir)
    disagreement = result.ensemble.disagreement
    return {
        "loss_history": [m.loss_history for m in result.members],
        "blend": {k: [f.params.intercept, f.params.uncertainty_coef]
                  for k, f in result.fits.items()},
        "table4": {r.strategy: [r.mean_pnl, r.std_pnl, r.cvar] for r in result.comparison},
        "bootstrap_ci": {f"{label}/{metric}": [res.ci_low, res.ci_high]
                         for label, metric, res in result.bootstrap},
        "alpha": {k: [float(a.min()), float(a.max())] for k, a in (
            (k, blend.alpha_weight(disagreement, f.params)) for k, f in result.fits.items())},
        "artifacts": sorted(os.listdir(out_dir)),
        "hashes": result.manifest["artifacts"],
    }


# -- registry and checks -------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], object]
    body: Callable[[object, str], dict]
    reference_fields: tuple[str, ...]  # outcome keys compared at the reference seed


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_desk", setup_train_desk, body_train_desk, ("loss_history",)),
        Workload("train_paper_batch", setup_train_paper_batch, body_train_paper_batch,
                 ("loss_history",)),
        Workload("evaluate_desk", setup_evaluate_desk, body_evaluate_desk,
                 ("ensemble_mean_pnl", "table4")),
        Workload("pipeline_tiny", setup_pipeline_tiny, body_pipeline_tiny,
                 ("blend", "table4", "bootstrap_ci")),
    )
}


def compare(actual, expected, path: str = "") -> list[str]:
    """Mismatches between two nested dict/list trees of floats, by RTOL/ATOL."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path}: keys differ"]
        return [e for k in expected for e in compare(actual[k], expected[k], f"{path}/{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: length differs"]
        return [e for i, (a, b) in enumerate(zip(actual, expected))
                for e in compare(a, b, f"{path}[{i}]")]
    if not isinstance(actual, (int, float)) or not math.isclose(
        actual, expected, rel_tol=RTOL, abs_tol=ATOL
    ):
        return [f"{path}: {actual!r} != reference {expected!r}"]
    return []


def _numbers(tree):
    if isinstance(tree, dict):
        for v in tree.values():
            yield from _numbers(v)
    elif isinstance(tree, list):
        for v in tree:
            yield from _numbers(v)
    elif isinstance(tree, (int, float)):
        yield tree


def invariants(outcome: dict, reference: dict) -> list[str]:
    """Seed-independent checks: finite values, artifacts, alpha, CVaR <= mean."""
    errors = []
    numeric = {k: v for k, v in outcome.items() if k not in ("artifacts", "hashes")}
    if not all(math.isfinite(x) for x in _numbers(numeric)):
        errors.append("non-finite value in outcome")
    shape = [len(h) for h in outcome.get("loss_history", [])]
    if shape != [len(h) for h in reference.get("loss_history", [])]:
        errors.append(f"loss history has {shape} epochs per member")
    missing = set(reference.get("artifacts", [])) - set(outcome.get("artifacts", []))
    if missing:
        errors.append(f"missing artifacts: {sorted(missing)}")
    if "FAILED" in outcome.get("artifacts", []):
        errors.append("FAILED marker written")
    for kind, (lo, hi) in outcome.get("alpha", {}).items():
        if not 0.0 < lo <= hi < 1.0:
            errors.append(f"alpha for {kind} leaves (0, 1): [{lo}, {hi}]")
    for strategy, (mean, _, cvar_value) in outcome.get("table4", {}).items():
        if cvar_value > mean:
            errors.append(f"{strategy}: CVaR {cvar_value} above mean P&L {mean}")
    return errors


def check(workload: Workload, outcome: dict, seed: int, reference: dict) -> list[str]:
    """Problems with one outcome; ``reference`` is the workload's stored record.

    Invariants hold at every seed. At the reference seed the fields the
    workload names must also match the stored values within RTOL/ATOL.
    """
    errors = invariants(outcome, reference)
    if seed == REFERENCE_SEED:
        for key in workload.reference_fields:
            errors += compare(outcome.get(key), reference[key], key)
    return errors
