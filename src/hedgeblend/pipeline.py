"""End-to-end orchestration: simulate, train, blend, evaluate, export.

Every stage is seeded from the run configuration, so a rerun with the same
config reproduces every artifact byte for byte under the same BLAS thread
count (``OPENBLAS_NUM_THREADS``; CI and ``perfbench`` set 1): training's
GEMMs split their paths among the BLAS threads, and the split rounds some
gradients and hedge ratios otherwise; the LSTM biases' gradients, too, are
sums over the paths in OpenBLAS, the last row of the weight-gradient GEMM
(``autodiff.backward``). The path shards of a large
training epoch are backpropagated, and the ensemble members roll out,
concurrently on at most as many threads as the process has usable CPUs
(``threads.run_threads``), and so are the two blend objectives
(``blend.OBJECTIVES``); all give results identical to running them one
after the other. On a stage failure the run directory keeps whatever
was already written plus a FAILED marker naming the stage. A marker left
by an earlier run is removed when a run starts.

Training saves ``members/member_<i>.npz`` and then, last, the training record
``members/training.json`` (the config's ``TRAINING_FIELDS``); it deletes the
record first, so a failed or interrupted training is never resumable. With
``resume`` a run loads those members instead of training, once the record
equals the config's training fields, and reruns every later stage as a fresh
run does. Reuse is opt-in because the record does not name the code version.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass

import numpy as np

from . import evaluation as ev
from .accounting import CostSpec, HedgeSchedule, PnLReport, compute_pnl, write_pnl_csv
from .blend import (
    OBJECTIVES,
    BlendFit,
    BlendParams,
    alpha_weight,
    blend_schedules,
    fit_blend,
    train_eval_split,
)
from .classical import bs_delta_strategy, bs_price, ww_strategy
from .config import RunConfig
from .ensemble import (
    EnsembleOutput,
    aggregate,
    train_ensemble,
    write_path_uncertainty_csv,
)
from .errors import ParameterError, StageError, require_real
from .hedger import (
    HedgerModel,
    forward_rollout,
    load_model,
    network_price,
    save_model,
    train_hedger,
)
from .market import HestonParams, MarketPaths, simulate_heston
from .risk import RiskSpec, cvar
from .threads import run_threads

# The GBM market that validate_gbm uses: Heston with zero vol-of-vol and
# v0 = theta = GBM_VOL**2, so the variance never moves and kappa acts on nothing.
GBM_VOL = 0.2
GBM = HestonParams(kappa=2.0, theta=GBM_VOL**2, sigma_vv=0.0, rho=0.0, v0=GBM_VOL**2)
# Figure 2's heatmap grid: (moneyness bins, time bins).
HEATMAP_BINS = (12, 8)
# Paths per window of figure 1's rolling win rate, at most eval_paths.
WINRATE_WINDOW = 500


@contextlib.contextmanager
def _stage(name: str, out_dir: str):
    """Tag a failure with the stage name.

    Any exit by exception writes the FAILED marker; errors are re-raised as
    StageError, while KeyboardInterrupt and other non-errors pass unchanged.
    """
    try:
        yield
    except BaseException as exc:
        with contextlib.suppress(OSError), open(os.path.join(out_dir, "FAILED"), "w") as fh:
            fh.write(f"{name}: {exc}\n")
        if isinstance(exc, Exception):
            raise StageError(name, str(exc)) from exc
        raise


def validate_gbm(config: RunConfig, threshold: float = 0.06, out_dir: str | None = None) -> dict:
    """Train one hedger on zero-cost GBM and score it against closed forms.

    Reports the mean absolute error of the learned hedge ratios vs. the
    analytic delta on fresh paths, and the gap between the indifference
    price and the analytic option price. A threshold that is not a finite
    number of at least 0 is refused before training.
    """
    require_real("threshold", threshold, at_least=0)
    zero_cost = CostSpec(0.0)
    model = train_hedger(config.train, GBM, config.grid, zero_cost, config.strike)

    test_paths = simulate_heston(GBM, config.grid, config.eval_paths, seed=config.eval_seeds[0])
    learned = forward_rollout(model, test_paths, config.strike)
    reference = bs_delta_strategy(test_paths, config.strike, GBM_VOL)
    mae = float(np.abs(learned.delta - reference.delta).mean())

    price = network_price(model, test_paths, zero_cost, config.strike, config.train.risk_aversion)
    analytic = bs_price(1.0, config.strike, GBM_VOL, config.grid.maturity)
    report = {
        "delta_mae": mae,
        "network_price": price,
        "analytic_price": float(analytic),
        "price_error": abs(price - analytic),
        "threshold": threshold,
        "passed": bool(mae <= threshold),
        "final_training_loss": model.loss_history[-1],
        "epochs": config.train.epochs,
        "paths_per_epoch": config.train.paths_per_epoch,
        "seed": config.train.seed,
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        ev.write_json(os.path.join(out_dir, "gbm_validation.json"), report)
    return report


@dataclass
class PipelineResult:
    """Objects produced by a run, for callers that want more than the CSVs."""

    members: list[HedgerModel]
    eval_paths: MarketPaths
    ensemble: EnsembleOutput
    test_idx: np.ndarray
    fits: dict[str, BlendFit]
    reports_test: dict[str, PnLReport]
    comparison: list[ev.ComparisonRow]
    bootstrap: list[tuple[str, str, ev.BootstrapResult]]
    quintiles: list[ev.QuintileRow]
    manifest: dict


def simulate_eval_paths(config: RunConfig, seed: int | None = None) -> MarketPaths:
    return simulate_heston(
        config.heston_params(), config.grid, config.eval_paths,
        seed=config.eval_seeds[0] if seed is None else seed,
    )


TRAINING_FIELDS = ("calibration", "grid", "cost_rate", "strike", "ensemble_size", "train")


def _training_record(config: RunConfig) -> dict:
    d = config.to_dict()
    return {name: d[name] for name in TRAINING_FIELDS}


def train_members(config: RunConfig, out_dir: str | None = None) -> list[HedgerModel]:
    """Train the ensemble; with ``out_dir``, save it as ``members/member_<i>.npz``,
    remove checkpoints of members beyond ``ensemble_size`` and then write the
    training record. Without ``out_dir`` nothing is written."""
    if out_dir is not None:
        member_dir = os.path.join(out_dir, "members")
        record_file = os.path.join(member_dir, "training.json")
        with contextlib.suppress(FileNotFoundError):
            os.remove(record_file)
    members = train_ensemble(
        config.ensemble_size,
        config.train,
        config.heston_params(),
        config.grid,
        config.cost(),
        config.strike,
    )
    if out_dir is not None:
        os.makedirs(member_dir, exist_ok=True)
        saved = [f"member_{i}.npz" for i in range(len(members))]
        for name, model in zip(saved, members):
            save_model(model, os.path.join(member_dir, name))
        for name in os.listdir(member_dir):
            if name.startswith("member_") and name.endswith(".npz") and name not in saved:
                os.remove(os.path.join(member_dir, name))
        ev.write_json(record_file, _training_record(config))
    return members


def load_members(out_dir: str, count: int) -> list[HedgerModel]:
    """Members 0 to ``count - 1`` saved by :func:`train_members`; a missing
    or unreadable checkpoint is a ParameterError naming the file."""
    members = []
    for i in range(count):
        filename = os.path.join(out_dir, "members", f"member_{i}.npz")
        if not os.path.isfile(filename):
            raise ParameterError(f"{filename} is missing")
        members.append(load_model(filename))
    return members


def _resumed_members(config: RunConfig, out_dir: str) -> list[HedgerModel]:
    """The saved members, if the directory's training record matches ``config``;
    else a ParameterError naming the differing fields, or the record if it is
    missing or not a JSON object."""
    record_file = os.path.join(out_dir, "members", "training.json")
    if not os.path.isfile(record_file):
        raise ParameterError(f"cannot resume: {record_file} is missing, so no training "
                             "finished in this directory")
    record = ev.read_json(record_file)
    if not isinstance(record, dict):
        raise ParameterError(f"cannot resume: {record_file} is not a JSON object")
    wanted = _training_record(config)
    differing = [name for name in TRAINING_FIELDS if record.get(name) != wanted[name]]
    if differing:
        raise ParameterError(f"cannot resume: the config differs from the training record "
                             f"{record_file} in fields: {', '.join(differing)}")
    return load_members(out_dir, config.ensemble_size)


def classical_schedules(config: RunConfig, paths: MarketPaths) -> dict:
    fixed = config.fixed_vol_value()
    return {
        "bs_delta_fixed": bs_delta_strategy(paths, config.strike, fixed),
        "bs_delta_true": bs_delta_strategy(paths, config.strike, None),
        "whalley_wilmott": ww_strategy(
            paths, config.strike, fixed, config.cost_rate,
            risk_aversion=config.train.risk_aversion,
        ),
    }


def fit_blends(
    config: RunConfig,
    paths: MarketPaths,
    ens: EnsembleOutput,
    bs,
    train_idx: np.ndarray,
) -> dict[str, BlendFit]:
    """Fit both blend objectives on the training subset; returns the fits in
    ``blend.OBJECTIVES`` order.

    The objectives are fitted concurrently by one ``threads.run_threads``
    call, one thread each (one after the other on the calling thread on a
    one-CPU host), which states how a failing fit or a Ctrl-C stops the
    others. A fit owns its buffers and its optimiser and only reads the
    shared training arrays, and numpy releases the GIL inside its array
    operations, so the fits overlap and their results are identical to
    fitting them one after the other.
    """
    sub_paths = paths.take(train_idx)
    sub_ens = ens.take(train_idx)
    sub_bs = bs.take(train_idx)

    def fit(kind: str) -> BlendFit:
        objective = RiskSpec(kind, a=config.train.risk_aversion, level=config.cvar_level)
        return fit_blend(sub_paths, sub_ens, sub_bs, config.cost(), config.strike, objective)

    fits = run_threads(fit, OBJECTIVES)
    return dict(zip(OBJECTIVES, fits))


def strategy_schedules(
    ens: EnsembleOutput,
    classical: dict[str, HedgeSchedule],
    params_by_kind: dict[str, BlendParams],
) -> dict[str, HedgeSchedule]:
    """Labelled schedules in table order: the ensemble mean, the classical
    strategies, then one blend of the ensemble with ``bs_delta_fixed`` per
    objective."""
    schedules = {"ensemble_mean": ens.mean_hedge, **classical}
    for kind, params in params_by_kind.items():
        schedules[f"blend_{kind}"] = blend_schedules(
            ens.mean_hedge, classical["bs_delta_fixed"], ens.disagreement, params
        )
    for name, sched in schedules.items():
        sched.strategy_label = name
    return schedules


def full_pipeline(config: RunConfig, out_dir: str, resume: bool = False) -> PipelineResult:
    """Run every stage and export all table/figure CSVs plus the manifest.

    Each strategy's P&L is computed once, on all evaluation paths; its
    held-out report (``reports_test``, tables 4-5) is the rows ``test_idx``
    of it.

    With ``resume``, reuse the members saved in ``out_dir``. A training record
    that is missing or differs from ``config``, or a missing or unreadable
    checkpoint, raises ParameterError before anything in ``out_dir`` changes.
    """
    members = _resumed_members(config, out_dir) if resume else None
    os.makedirs(out_dir, exist_ok=True)
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(out_dir, "FAILED"))
    config.save_json(os.path.join(out_dir, "config.json"))
    cost = config.cost()
    strike = config.strike
    label = config.calibration if isinstance(config.calibration, str) else "custom"

    with _stage("simulate", out_dir):
        eval_paths = simulate_eval_paths(config)

    if not resume:
        with _stage("train", out_dir):
            members = train_members(config, out_dir)

    with _stage("aggregate", out_dir):
        ens = aggregate(members, eval_paths, strike)
        with open(os.path.join(out_dir, "ensemble_uncertainty.csv"), "w", newline="") as fh:
            write_path_uncertainty_csv(ens, fh)

    with _stage("classical", out_dir):
        classical = classical_schedules(config, eval_paths)

    with _stage("split", out_dir):
        train_idx, test_idx = train_eval_split(
            eval_paths, config.train_fraction, seed=config.eval_seeds[0]
        )

    with _stage("fit_blend", out_dir):
        fits = fit_blends(config, eval_paths, ens, classical["bs_delta_fixed"], train_idx)
        for kind, fit in fits.items():
            with open(os.path.join(out_dir, f"blend_{kind}.json"), "w") as fh:
                fh.write(fit.to_json() + "\n")

    with _stage("evaluate", out_dir):
        schedules = strategy_schedules(ens, classical,
                                       {kind: fit.params for kind, fit in fits.items()})
        reports_all = {}
        reports_test = {}
        for name, sched in schedules.items():
            reports_all[name] = compute_pnl(eval_paths, sched, cost, strike)
            reports_test[name] = reports_all[name].take(test_idx)
            with open(os.path.join(out_dir, f"pnl_{name}.csv"), "w", newline="") as fh:
                write_pnl_csv(reports_all[name], fh)

        quintiles = ev.quintile_analysis(
            reports_all["ensemble_mean"].pnl,
            reports_all["bs_delta_fixed"].pnl,
            ens.avg_disagreement,
        )
        ev.write_rows_csv(
            os.path.join(out_dir, "table2_quintiles.csv"),
            ["quintile", "win_rate", "mean_advantage", "avg_uncertainty", "n_paths"],
            quintiles,
        )

        curve = ev.rolling_winrate(
            reports_all["ensemble_mean"].pnl,
            reports_all["bs_delta_fixed"].pnl,
            ens.avg_disagreement,
            min(WINRATE_WINDOW, config.eval_paths),
        )
        ev.write_rows_csv(os.path.join(out_dir, "fig1_winrate.csv"),
                          ["window_mean_uncertainty", "win_rate"], curve.tolist())

        correlations = ev.uncertainty_correlations(ens.avg_disagreement, eval_paths)
        ev.write_rows_csv(
            os.path.join(out_dir, "table3_correlations.csv"),
            ["characteristic", "correlation_with_uncertainty"],
            zip(("final_moneyness", "average_volatility"), correlations),
        )

        ev.write_rows_csv(
            os.path.join(out_dir, "fig2_heatmap.csv"),
            ["time_bin", "moneyness_bin", "time_center", "moneyness_center",
             "mean_disagreement", "count"],
            ev.heatmap_data(ens.disagreement, eval_paths, *HEATMAP_BINS, strike),
        )

        comparison = ev.strategy_comparison(list(reports_test.values()), level=config.cvar_level)
        ev.write_comparison_csv(
            os.path.join(out_dir, "table4_comparison.csv"), comparison, level=config.cvar_level
        )

        cvar_spec = RiskSpec("cvar", level=config.cvar_level)
        bootstrap_entries = [
            (f"blend_cvar_vs_{rival}", spec.kind, ev.paired_bootstrap(
                reports_test["blend_cvar"].pnl, reports_test[rival].pnl, spec,
                resamples=resamples, seed=config.eval_seeds[0]))
            for rival, spec, resamples in (
                ("bs_delta_fixed", cvar_spec, config.bootstrap_resamples),
                ("whalley_wilmott", cvar_spec, config.bootstrap_resamples),
                ("bs_delta_fixed", RiskSpec("mean"), config.mean_bootstrap_resamples),
            )
        ]
        ev.write_bootstrap_csv(os.path.join(out_dir, "table5_bootstrap.csv"), bootstrap_entries)

        ev.write_decomposition_csv(
            os.path.join(out_dir, "table6_decomposition.csv"),
            list(reports_all.values()),
            baseline=list(reports_all).index("bs_delta_fixed"),
        )
        ev.write_trade_stats_csv(
            os.path.join(out_dir, "trade_stats.csv"), list(reports_all.values())
        )

        psi_grid = np.linspace(0.0, max(float(ens.disagreement.max()), 1e-6), 101)
        kinds = sorted(fits)
        ev.write_rows_csv(
            os.path.join(out_dir, "fig3_blend_curves.csv"),
            ["disagreement"] + [f"alpha_{kind}" for kind in kinds],
            np.column_stack(
                [psi_grid] + [alpha_weight(psi_grid, fits[kind].params) for kind in kinds]
            ).tolist(),
        )

        ev.write_rows_csv(
            os.path.join(out_dir, "fig4_cvar_bars.csv"),
            ["calibration", "strategy", ev.cvar_column(config.cvar_level)],
            [(label, row.strategy, row.cvar) for row in comparison],
        )

    with _stage("seed_stability", out_dir):
        seed_rows = _seed_stability(config, members, fits, reports_all)
        ev.write_rows_csv(
            os.path.join(out_dir, "seed_stability.csv"),
            ["seed", "blend_cvar", "bs_delta_cvar", "improvement_bps"],
            seed_rows,
        )

    with _stage("report", out_dir):
        manifest = ev.write_manifest(
            os.path.join(out_dir, "manifest.json"), config.to_dict(), out_dir
        )

    return PipelineResult(
        members=members,
        eval_paths=eval_paths,
        ensemble=ens,
        test_idx=test_idx,
        fits=fits,
        reports_test=reports_test,
        comparison=comparison,
        bootstrap=bootstrap_entries,
        quintiles=quintiles,
        manifest=manifest,
    )


def _seed_stability(config: RunConfig, members, fits, reports_all) -> list[list]:
    """Blend-vs-BS CVaR per evaluation seed, on the full path set of each.

    The first seed's paths are the main evaluation's, so its P&L is taken
    from ``reports_all`` rather than computed again.
    """
    cost = config.cost()
    rows = []
    for seed in config.eval_seeds:
        reports = reports_all
        if seed != config.eval_seeds[0]:
            paths = simulate_eval_paths(config, seed=seed)
            ens = aggregate(members, paths, config.strike)
            bs = bs_delta_strategy(paths, config.strike, config.fixed_vol_value())
            schedules = strategy_schedules(ens, {"bs_delta_fixed": bs},
                                           {"cvar": fits["cvar"].params})
            reports = {
                name: compute_pnl(paths, schedules[name], cost, config.strike)
                for name in ("blend_cvar", "bs_delta_fixed")
            }
        c_blend = cvar(reports["blend_cvar"].pnl, config.cvar_level)
        c_bs = cvar(reports["bs_delta_fixed"].pnl, config.cvar_level)
        rows.append([seed, c_blend, c_bs, (c_blend - c_bs) * 1e4])
    return rows


def cross_calibration(config: RunConfig, out_dir: str, resume: bool = False) -> list[dict]:
    """Run the pipeline per named calibration, in ``out_dir/<calibration>``,
    and emit a summary CSV; ``resume`` is passed to each :func:`full_pipeline`.
    ``out_dir/config.json``, which a resume without a config file reads, is
    written first by a fresh run and only at the end by a resume."""
    os.makedirs(out_dir, exist_ok=True)
    if not resume:
        config.save_json(os.path.join(out_dir, "config.json"))
    rows = []
    for name in ("baseline", "high_vov", "low_corr"):
        sub_config = config.with_calibration(name)
        result = full_pipeline(sub_config, os.path.join(out_dir, name), resume=resume)
        by_name = {row.strategy: row for row in result.comparison}
        boots = {(lbl, metric): res for lbl, metric, res in result.bootstrap}
        boot = boots["blend_cvar_vs_bs_delta_fixed", "cvar"]
        fit = result.fits["cvar"]
        alpha = alpha_weight(result.ensemble.disagreement[result.test_idx], fit.params)
        rows.append(
            {
                "calibration": name,
                "blend_cvar": by_name["blend_cvar"].cvar,
                "bs_cvar": by_name["bs_delta_fixed"].cvar,
                "improvement_bps": boot.mean_diff * 1e4,
                "significant": int(boot.significant),
                "avg_alpha": float(np.mean(alpha)),
                "ww_cvar": by_name["whalley_wilmott"].cvar,
                "beta1_cvar_fit": fit.params.uncertainty_coef,
                "q1_win_rate": result.quintiles[0].win_rate,
                "q5_win_rate": result.quintiles[4].win_rate,
            }
        )
    header = list(rows[0].keys())
    ev.write_rows_csv(
        os.path.join(out_dir, "cross_calibration.csv"),
        header,
        [[r[h] for h in header] for r in rows],
    )
    config.save_json(os.path.join(out_dir, "config.json"))
    return rows
