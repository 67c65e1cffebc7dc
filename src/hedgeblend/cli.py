"""Command-line entry point.

Subcommands: validate-gbm, full-pipeline, cross-calibration. The pipelines
train the members; ``--resume`` reruns every stage after training on the
members a directory already holds (see :mod:`hedgeblend.pipeline`). Exit
codes: 0 success, 1 validation failure (a bad flag or config, a failed check,
or a directory that cannot be resumed), 2 numerical divergence, 3 I/O error.

A rerun reproduces a run's artifacts byte for byte only under the same BLAS
thread count (``OPENBLAS_NUM_THREADS``), which the CLI leaves as it finds it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .config import RunConfig
from .errors import HedgeblendError, NumericalDivergenceError, StageError
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
        config.train = dataclasses.replace(config.train, seed=args.seed)  # validates it
    return config


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON run configuration; if omitted, --resume "
                        "reads <out>/config.json, and otherwise the defaults are used")
    parser.add_argument("--seed", type=int, help="override the training seed")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--scale", choices=["desk", "paper"], help="training scale preset")


def cmd_validate_gbm(args) -> int:
    config = _load_config(args)
    report = pipeline.validate_gbm(config, threshold=args.threshold, out_dir=args.out)
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK if report["passed"] else EXIT_VALIDATION


def cmd_full_pipeline(args) -> int:
    config = _load_config(args, saved_run=args.resume)
    result = pipeline.full_pipeline(config, args.out, resume=args.resume)
    print(f"run complete: {len(result.manifest['artifacts'])} artifacts in {args.out}")
    return EXIT_OK


def cmd_cross_calibration(args) -> int:
    config = _load_config(args, saved_run=args.resume)
    rows = pipeline.cross_calibration(config, args.out, resume=args.resume)
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

    for name, func, text in (
        ("full-pipeline", cmd_full_pipeline, "run every stage and export all artifacts"),
        ("cross-calibration", cmd_cross_calibration, "full pipeline per named calibration"),
    ):
        p = sub.add_parser(name, help=text)
        _add_common(p)
        p.add_argument("--resume", action="store_true",
                       help="reuse the members trained in <out>; exits 1 unless their training "
                       f"record matches the config's {', '.join(pipeline.TRAINING_FIELDS)}")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a bad flag
        return EXIT_OK if not exc.code else EXIT_VALIDATION
    try:
        return args.func(args)
    except (HedgeblendError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.__cause__ if isinstance(exc, StageError) else exc
        if isinstance(cause, NumericalDivergenceError):
            return EXIT_DIVERGENCE
        if isinstance(cause, OSError):
            return EXIT_IO
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
