"""Command-line entry point.

Subcommands: validate-gbm, simulate, train-ensemble, evaluate, fit-blend,
full-pipeline, cross-calibration. Exit codes: 0 success, 1 validation
failure (bad config or a failed check), 2 numerical divergence, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import evaluation as ev
from .accounting import compute_pnl
from .blend import BlendParams, train_eval_split
from .config import RunConfig
from .ensemble import aggregate
from .errors import HedgeblendError, NumericalDivergenceError, ParameterError, StageError
from .market import save_paths_npz, simulate_gbm, simulate_heston, write_paths_csv
from . import pipeline

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DIVERGENCE = 2
EXIT_IO = 3


def _load_config(args, saved_run: bool = False) -> RunConfig:
    """``--config``, else with ``saved_run`` the run directory's own
    config.json if there is one, else the defaults; then the CLI overrides."""
    path = args.config
    if path is None and saved_run:
        saved = os.path.join(args.out, "config.json")
        path = saved if os.path.exists(saved) else None
    config = RunConfig.from_json(path) if path else RunConfig()
    if getattr(args, "scale", None):
        config.apply_scale(args.scale)
    if getattr(args, "seed", None) is not None:
        config.train.seed = args.seed
    if getattr(args, "workers", None) is not None:
        config = dataclasses.replace(config, workers=args.workers)  # validates it
    return config


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON run configuration; if omitted, evaluate and "
                        "fit-blend read <out>/config.json, and other commands use defaults")
    parser.add_argument("--seed", type=int, help="override the training seed")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--workers", type=int, help="processes that train members, and "
                        "nothing else (results unchanged); each process also tapes an epoch's "
                        "path shards on up to one thread per usable CPU, so on 2 vCPUs "
                        "workers=1 trains about as fast as workers=2 (6.8-7.5 s vs 6.6-6.9 s "
                        "for 2 members x 2 epochs x 5,000 paths) with half the memory; the "
                        "member rollouts use up to one thread per usable CPU and the blend fit "
                        "one thread per objective")
    parser.add_argument("--scale", choices=["desk", "paper"], help="training scale preset")


def cmd_validate_gbm(args) -> int:
    config = _load_config(args)
    report = pipeline.validate_gbm(config, threshold=args.threshold, out_dir=args.out)
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK if report["passed"] else EXIT_VALIDATION


def cmd_simulate(args) -> int:
    config = _load_config(args)
    os.makedirs(args.out, exist_ok=True)
    n_paths = args.paths or config.eval_paths
    if args.gbm:
        paths = simulate_gbm(config.gbm_vol, config.grid, n_paths, seed=config.eval_seeds[0])
    else:
        paths = simulate_heston(
            config.heston_params(), config.grid, n_paths, seed=config.eval_seeds[0]
        )
    if args.format == "csv":
        with open(os.path.join(args.out, "paths.csv"), "w", newline="") as fh:
            write_paths_csv(paths, fh)
    else:
        save_paths_npz(paths, os.path.join(args.out, "paths.npz"))
    print(f"wrote {paths.n_paths} paths to {args.out}")
    return EXIT_OK


def cmd_train_ensemble(args) -> int:
    config = _load_config(args)
    os.makedirs(args.out, exist_ok=True)
    config.save_json(os.path.join(args.out, "config.json"))
    members = pipeline.train_members(config, args.out)
    losses = [m.loss_history[-1] for m in members]
    print(f"trained {len(members)} members; final losses {losses}")
    return EXIT_OK


def _evaluation_inputs(config: RunConfig, out_dir: str) -> tuple:
    """Saved members on the run's eval paths, as the pipeline's stages see them:
    (paths, ensemble output, classical schedules, train indices, test indices)."""
    members = pipeline.load_members(out_dir)
    paths = pipeline.simulate_eval_paths(config)
    ens = aggregate(members, paths, config.strike)
    classical = pipeline.classical_schedules(config, paths)
    train_idx, test_idx = train_eval_split(paths, config.train_fraction, seed=config.eval_seeds[0])
    return paths, ens, classical, train_idx, test_idx


def cmd_fit_blend(args) -> int:
    config = _load_config(args, saved_run=True)
    if args.objective != "both":
        config.objectives = [args.objective]
    config.extended_blend = args.extended or config.extended_blend
    paths, ens, classical, train_idx, _ = _evaluation_inputs(config, args.out)
    fits = pipeline.fit_blends(config, paths, ens, classical["bs_delta_fixed"], train_idx)
    for kind, target in pipeline.write_fits(args.out, fits).items():
        print(f"{kind}: params {fits[kind].params.to_dict()} -> {target}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    """Evaluate saved members (and any saved blends) on fresh eval paths."""
    config = _load_config(args, saved_run=True)
    paths, ens, classical, _, test_idx = _evaluation_inputs(config, args.out)
    params = {}
    for kind in config.objectives:
        blend_file = os.path.join(args.out, f"blend_{kind}.json")
        if os.path.exists(blend_file):
            with open(blend_file) as fh:
                saved = json.load(fh)
            try:
                params[kind] = BlendParams.from_dict(saved["params"])
            except (KeyError, TypeError) as exc:
                raise ParameterError(f"{blend_file} holds no blend params: {exc!r}") from exc
    schedules = pipeline.strategy_schedules(paths, ens, classical, params, config.strike)
    test_paths = paths.take(test_idx)
    reports = [
        compute_pnl(test_paths, sched.take(test_idx), config.cost(), config.strike)
        for sched in schedules.values()
    ]
    rows = ev.strategy_comparison(reports, level=config.cvar_level)
    ev.write_comparison_csv(os.path.join(args.out, "table4_comparison.csv"), rows)
    for row in rows:
        print(f"{row.strategy}: mean {row.mean_pnl:.5f}  std {row.std_pnl:.5f}  cvar {row.cvar:.5f}")
    return EXIT_OK


def cmd_full_pipeline(args) -> int:
    config = _load_config(args)
    result = pipeline.full_pipeline(config, args.out)
    print(f"run complete: {len(result.manifest['artifacts'])} artifacts in {args.out}")
    return EXIT_OK


def cmd_cross_calibration(args) -> int:
    config = _load_config(args)
    rows = pipeline.cross_calibration(config, args.out)
    for row in rows:
        print(
            f"{row['calibration']}: improvement {row['improvement_bps']:.1f} bps, "
            f"significant={bool(row['significant'])}, avg_alpha={row['avg_alpha']:.2f}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hedgeblend",
        description="Uncertainty-aware hedging pipeline: simulate, train, blend, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-gbm", help="train on zero-cost GBM and check closed forms")
    _add_common(p)
    p.add_argument("--threshold", type=float, default=0.06, help="max acceptable delta MAE")
    p.set_defaults(func=cmd_validate_gbm)

    p = sub.add_parser("simulate", help="dump simulated paths for debugging")
    _add_common(p)
    p.add_argument("--paths", type=int, default=None, help="path count (default: eval_paths)")
    p.add_argument("--format", choices=["npz", "csv"], default="npz")
    p.add_argument("--gbm", action="store_true", help="simulate GBM instead of Heston")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train-ensemble", help="train members and save checkpoints")
    _add_common(p)
    p.set_defaults(func=cmd_train_ensemble)

    p = sub.add_parser("fit-blend", help="fit blend coefficients from saved checkpoints")
    _add_common(p)
    p.add_argument("--objective", choices=["entropic", "cvar", "both"], default="both")
    p.add_argument("--extended", action="store_true", help="include moneyness/time terms")
    p.set_defaults(func=cmd_fit_blend)

    p = sub.add_parser("evaluate", help="compare strategies from saved checkpoints")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("full-pipeline", help="run every stage and export all artifacts")
    _add_common(p)
    p.set_defaults(func=cmd_full_pipeline)

    p = sub.add_parser("cross-calibration", help="full pipeline per named calibration")
    _add_common(p)
    p.set_defaults(func=cmd_cross_calibration)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.__cause__
        if isinstance(cause, NumericalDivergenceError):
            return EXIT_DIVERGENCE
        if isinstance(cause, OSError):
            return EXIT_IO
        return EXIT_VALIDATION
    except NumericalDivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (HedgeblendError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
