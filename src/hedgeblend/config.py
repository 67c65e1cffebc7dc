"""Run configuration: JSON-backed, defaults mirror the experiment setup.

Scales: "desk" trains 100 epochs x 5,000 paths per member, "paper" 500 x
20,000. Everything else (grid, cost, calibrations, split, seeds) is shared.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .accounting import CostSpec
from .errors import ParameterError, require_integer, require_real
from .evaluation import MIN_BOOTSTRAP_RESAMPLES, read_json, write_json
from .hedger import TrainConfig
from .market import CALIBRATIONS, HestonParams, PathGrid

SCALES = {
    "desk": {"epochs": 100, "paths_per_epoch": 5000},
    "paper": {"epochs": 500, "paths_per_epoch": 20000},
}


def _construct(cls, values: dict, what: str):
    """``cls(**values)``, raising ParameterError instead of TypeError for
    ``values`` that are not a JSON object, for unknown or missing keys and
    for values of the wrong type."""
    if not isinstance(values, dict):
        raise ParameterError(f"{what} must be a JSON object, got {type(values).__name__}")
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

    Invalid values, a bool or non-finite number in a real field among them,
    raise :class:`ParameterError` at construction, before any work starts.
    Every run shares these constants, which are not settable: the one blend
    form sigmoid(intercept + uncertainty_coef * psi), the blend objectives
    ``blend.OBJECTIVES`` (entropic and CVaR, both always fitted), the
    baselines' fixed volatility sqrt(theta) of the calibration
    (:meth:`fixed_vol_value`), the GBM market ``pipeline.GBM`` (the Heston
    calibration with zero vol-of-vol at ``pipeline.GBM_VOL``), the heatmap's
    ``pipeline.HEATMAP_BINS``, figure 1's ``pipeline.WINRATE_WINDOW`` and
    training's Adam step ``hedger.STEP_SIZE`` with betas (0.9, 0.999).
    """

    calibration: str | dict = "baseline"
    grid: PathGrid = field(default_factory=lambda: PathGrid(n_steps=126, maturity=0.5))
    cost_rate: float = 5e-4
    strike: float = 1.0
    ensemble_size: int = 5
    train: TrainConfig = field(default_factory=lambda: TrainConfig(seed=7))
    train_fraction: float = 0.7
    eval_paths: int = 10000
    eval_seeds: list[int] = field(default_factory=lambda: [99, 123, 456])
    cvar_level: float = 0.05
    bootstrap_resamples: int = 5000
    mean_bootstrap_resamples: int = 10000

    def __post_init__(self):
        for name, minimum in (("ensemble_size", 2), ("eval_paths", 10),
                              ("bootstrap_resamples", MIN_BOOTSTRAP_RESAMPLES),
                              ("mean_bootstrap_resamples", MIN_BOOTSTRAP_RESAMPLES)):
            require_integer(name, getattr(self, name), minimum)
        for i, seed in enumerate(self.eval_seeds):
            require_integer(f"eval_seeds[{i}]", seed, minimum=0)
        require_real("strike", self.strike, above=0)
        require_real("train_fraction", self.train_fraction, above=0, below=1)
        require_real("cvar_level", self.cvar_level, above=0, below=1)
        n_train = int(round(self.train_fraction * self.eval_paths))  # as train_eval_split
        if min(n_train, self.eval_paths - n_train) < 2:
            raise ParameterError(
                f"train_fraction {self.train_fraction} splits {self.eval_paths} eval_paths into "
                f"{n_train} training and {self.eval_paths - n_train} test paths; "
                "each side needs at least 2"
            )
        if not self.eval_seeds:
            raise ParameterError("eval_seeds must be non-empty")
        self.cost()  # validates cost_rate
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
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        nested = {"grid": PathGrid, "train": TrainConfig}
        if isinstance(d, dict):
            d = {k: _construct(nested[k], v, k) if k in nested else v for k, v in d.items()}
        return _construct(cls, d, "config")

    @classmethod
    def from_json(cls, path: str) -> "RunConfig":
        """The config in the JSON file ``path``; a file that is not JSON is a
        ParameterError naming it."""
        return cls.from_dict(read_json(path))

    def save_json(self, path: str) -> None:
        write_json(path, self.to_dict())
