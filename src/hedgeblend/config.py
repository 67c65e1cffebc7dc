"""Run configuration: JSON-backed, defaults mirror the experiment setup.

Scales: "desk" trains 100 epochs x 5,000 paths per member, "paper" 500 x
20,000. Everything else (grid, cost, calibrations, split, seeds) is shared.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .accounting import CostSpec
from .errors import ParameterError
from .evaluation import MIN_BOOTSTRAP_RESAMPLES
from .hedger import TrainConfig
from .market import CALIBRATIONS, HestonParams, PathGrid

SCALES = {
    "desk": {"epochs": 100, "paths_per_epoch": 5000},
    "paper": {"epochs": 500, "paths_per_epoch": 20000},
}


def _construct(cls, values: dict, what: str):
    """``cls(**values)``, raising ParameterError instead of TypeError for
    unknown or missing keys and for values of the wrong type."""
    unknown = set(values) - {f.name for f in fields(cls)}
    if unknown:
        raise ParameterError(f"unknown {what} keys: {sorted(unknown)}")
    try:
        return cls(**values)
    except TypeError as exc:
        raise ParameterError(f"invalid {what}: {exc}") from None


@dataclass
class RunConfig:
    """Everything a pipeline run needs; serialisable to/from JSON.

    Invalid values raise :class:`ParameterError` at construction, before any
    work starts.
    """

    calibration: str | dict = "baseline"
    grid: PathGrid = field(default_factory=lambda: PathGrid(n_steps=126, maturity=0.5))
    cost_rate: float = 5e-4
    strike: float = 1.0
    ensemble_size: int = 5
    train: TrainConfig = field(default_factory=lambda: TrainConfig(seed=7))
    objectives: list[str] = field(default_factory=lambda: ["entropic", "cvar"])
    extended_blend: bool = False
    train_fraction: float = 0.7
    eval_paths: int = 10000
    eval_seeds: list[int] = field(default_factory=lambda: [99, 123, 456])
    cvar_level: float = 0.05
    bootstrap_resamples: int = 5000
    mean_bootstrap_resamples: int = 10000
    fixed_vol: float | None = None  # None -> sqrt(theta) of the calibration
    gbm_vol: float = 0.2
    winrate_window: int = 500
    heatmap_moneyness_bins: int = 12
    heatmap_time_bins: int = 8

    def __post_init__(self):
        if self.ensemble_size < 2:
            raise ParameterError("ensemble_size must be >= 2")
        if not 0.0 < self.train_fraction < 1.0:
            raise ParameterError("train_fraction must lie in (0, 1)")
        if self.eval_paths < 10:
            raise ParameterError("eval_paths must be >= 10")
        if not self.eval_seeds:
            raise ParameterError("eval_seeds must be non-empty")
        if min(self.eval_seeds) < 0:
            raise ParameterError(f"eval_seeds must be non-negative, got {self.eval_seeds}")
        if not self.objectives:
            raise ParameterError("objectives must be non-empty")
        for obj in self.objectives:
            if obj not in ("entropic", "cvar"):
                raise ParameterError(f"unknown objective {obj!r}")
        if len(set(self.objectives)) != len(self.objectives):
            raise ParameterError(f"objectives must not repeat: {self.objectives}")
        for name in ("bootstrap_resamples", "mean_bootstrap_resamples"):
            if getattr(self, name) < MIN_BOOTSTRAP_RESAMPLES:
                raise ParameterError(f"{name} must be >= {MIN_BOOTSTRAP_RESAMPLES}")
        self.heston_params()  # validates named/custom calibration

    def heston_params(self) -> HestonParams:
        if isinstance(self.calibration, str):
            try:
                return CALIBRATIONS[self.calibration]
            except KeyError:
                raise ParameterError(
                    f"unknown calibration {self.calibration!r}; "
                    f"expected one of {sorted(CALIBRATIONS)} or a parameter mapping"
                ) from None
        return _construct(HestonParams, self.calibration, "calibration")

    def cost(self) -> CostSpec:
        return CostSpec(self.cost_rate)

    def fixed_vol_value(self) -> float:
        if self.fixed_vol is not None:
            return self.fixed_vol
        return float(np.sqrt(self.heston_params().theta))

    def with_calibration(self, name: str) -> "RunConfig":
        d = self.to_dict()
        d["calibration"] = name
        return RunConfig.from_dict(d)

    def apply_scale(self, scale: str) -> None:
        if scale not in SCALES:
            raise ParameterError(f"unknown scale {scale!r}; expected desk or paper")
        self.train.epochs = SCALES[scale]["epochs"]
        self.train.paths_per_epoch = SCALES[scale]["paths_per_epoch"]

    def to_dict(self) -> dict:
        d = asdict(self)
        d["grid"] = {"n_steps": self.grid.n_steps, "maturity": self.grid.maturity}
        d["train"] = asdict(self.train)
        d["train"]["adam_betas"] = list(self.train.adam_betas)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        d = dict(d)
        if "grid" in d:
            d["grid"] = _construct(PathGrid, d["grid"], "grid")
        if "train" in d:
            t = dict(d["train"])
            if "adam_betas" in t:
                t["adam_betas"] = tuple(t["adam_betas"])
            d["train"] = _construct(TrainConfig, t, "train")
        return _construct(cls, d, "config")

    @classmethod
    def from_json(cls, path: str) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def save_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
