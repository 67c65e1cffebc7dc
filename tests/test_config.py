"""RunConfig: the JSON round trip and the checks made at construction."""

import json

import numpy as np
import pytest

from hedgeblend import cli, evaluation, pipeline
from hedgeblend.config import RunConfig
from hedgeblend.errors import ParameterError
from hedgeblend.hedger import TrainConfig
from hedgeblend.market import PathGrid
from hedgeblend.risk import RiskSpec

CUSTOM_CALIBRATION = {"kappa": 1.5, "theta": 0.05, "sigma_vv": 0.6, "rho": -0.5, "v0": 0.05}


def custom_config() -> RunConfig:
    """A config that differs from the defaults in every nested part."""
    return RunConfig(
        calibration=dict(CUSTOM_CALIBRATION),
        grid=PathGrid(n_steps=16, maturity=0.25),
        train=TrainConfig(epochs=3, paths_per_epoch=128, risk_aversion=2.0, seed=11),
        strike=1.1,
        eval_seeds=[5, 6],
    )


class TestRoundTrip:
    def test_dict_round_trip(self):
        config = custom_config()
        again = RunConfig.from_dict(config.to_dict())
        assert again == config
        assert again.heston_params() == config.heston_params()

    def test_json_round_trip(self, tmp_path):
        config = custom_config()
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        config.save_json(str(first))
        again = RunConfig.from_json(str(first))
        assert again == config
        again.save_json(str(second))
        assert second.read_bytes() == first.read_bytes()

    def test_with_calibration_keeps_the_other_fields(self):
        config = custom_config()
        named = config.with_calibration("high_vov")
        unchanged = {**config.to_dict(), "calibration": "high_vov"}
        assert named.to_dict() == unchanged


# (config record, the part that is not a JSON object)
NOT_OBJECTS = [
    ([1, 2], "config"),
    ("baseline", "config"),
    ({**RunConfig().to_dict(), "grid": 5}, "grid"),
    ({**RunConfig().to_dict(), "train": [1, 2]}, "train"),
    ({**RunConfig().to_dict(), "calibration": 5}, "calibration"),
]
NOT_OBJECT_IDS = ["top-level-list", "top-level-string", "grid-number", "train-list",
                  "calibration-number"]


class TestUnknownKeys:
    @pytest.mark.parametrize("record, key", [
        ({"no_such_key": 1}, "no_such_key"),
        ({"train": {"no_such_key": 1}}, "no_such_key"),
        ({"grid": {"n_steps": 8, "maturity": 0.5, "no_such_key": 1}}, "no_such_key"),
        ({"calibration": {**CUSTOM_CALIBRATION, "no_such_key": 1}}, "no_such_key"),
        ({"calibration": {**CUSTOM_CALIBRATION, "rate": 0.05}}, "rate"),
        ({"workers": 2}, "workers"),
        ({"workers": 0}, "workers"),
        ({"workers": -1}, "workers"),
        ({"objectives": ["cvar"]}, "objectives"),
        ({"fixed_vol": 0.2}, "fixed_vol"),
        ({"gbm_vol": 0.2}, "gbm_vol"),
        ({"heatmap_moneyness_bins": 12}, "heatmap_moneyness_bins"),
        ({"heatmap_time_bins": 8}, "heatmap_time_bins"),
        ({"train": {"step_size": 1e-3}}, "step_size"),
        ({"train": {"adam_betas": [0.9, 0.999]}}, "adam_betas"),
        ({"winrate_window": 500}, "winrate_window"),
        ({"extended_blend": False}, "extended_blend"),
    ], ids=["top", "train", "grid", "calibration", "calibration-rate", "workers", "zero-workers",
            "negative-workers", "objectives", "fixed-vol", "gbm-vol", "heatmap-moneyness-bins",
            "heatmap-time-bins", "train-step-size", "train-adam-betas", "winrate-window",
            "extended-blend"])
    def test_unknown_key_is_a_parameter_error(self, record, key):
        with pytest.raises(ParameterError, match=f"unknown .*keys: \\['{key}'\\]"):
            RunConfig.from_dict(record)

    @pytest.mark.parametrize("record", [
        {"grid": {"n_steps": 8}},
        {"calibration": {"kappa": 1.5}},
        {"train": {"epochs": "3"}},
    ], ids=["missing-grid-key", "missing-calibration-key", "wrong-type"])
    def test_incomplete_or_mistyped_record_is_a_parameter_error(self, record):
        with pytest.raises(ParameterError):
            RunConfig.from_dict(record)

    @pytest.mark.parametrize("record, what", NOT_OBJECTS, ids=NOT_OBJECT_IDS)
    def test_record_that_is_not_an_object_is_a_parameter_error(self, record, what):
        with pytest.raises(ParameterError, match=f"^{what} must be a JSON object, got "):
            RunConfig.from_dict(record)


INVALID_FIELDS = [
    {"bootstrap_resamples": evaluation.MIN_BOOTSTRAP_RESAMPLES - 1},
    {"mean_bootstrap_resamples": evaluation.MIN_BOOTSTRAP_RESAMPLES - 1},
    {"train": {**RunConfig().to_dict()["train"], "seed": -1}},
    {"eval_seeds": [99, -1]},
    {"eval_paths": 10, "train_fraction": 0.99},
    {"eval_paths": 10, "train_fraction": 0.01},
    {"eval_paths": 10, "train_fraction": 0.9},
    {"eval_paths": 10, "train_fraction": 0.1},
    {"cvar_level": 1.5},
    {"cvar_level": 0.0},
    {"strike": -1.0},
    {"strike": 0.0},
    {"cost_rate": -0.001},
    {"calibration": {**CUSTOM_CALIBRATION, "rate": 0.05}},  # rates are zero throughout
    # Counts and seeds must be integers; a float, even a whole one, or a bool is not.
    {"eval_paths": 100.5},
    {"eval_paths": 100.0},
    {"ensemble_size": True},
    {"grid": {"n_steps": 8.5, "maturity": 0.5}},
    {"train": {**RunConfig().to_dict()["train"], "epochs": 1.5}},
    {"train": {**RunConfig().to_dict()["train"], "paths_per_epoch": 64.0}},
    {"train": {**RunConfig().to_dict()["train"], "seed": 7.0}},
    {"eval_seeds": [99, 1.5]},
    {"bootstrap_resamples": 5000.0},
    {"mean_bootstrap_resamples": 1e4},
    # Real-valued fields must be finite numbers; a bool or a string is not.
    {"strike": True},
    {"strike": float("nan")},
    {"strike": "1.0"},
    {"cost_rate": True},
    {"strike": float("inf")},
    {"cvar_level": "0.05"},
    {"train": {**RunConfig().to_dict()["train"], "risk_aversion": True}},
    {"train": {**RunConfig().to_dict()["train"], "risk_aversion": float("inf")}},
    {"grid": {"n_steps": 8, "maturity": float("nan")}},
    {"calibration": {**CUSTOM_CALIBRATION, "kappa": True}},
    {"calibration": {**CUSTOM_CALIBRATION, "v0": float("inf")}},
]
INVALID_IDS = ["few-resamples", "few-mean-resamples", "negative-train-seed", "negative-eval-seed",
               "no-test-paths", "no-training-paths", "one-test-path", "one-training-path",
               "cvar-level-above-one", "zero-cvar-level", "negative-strike", "zero-strike",
               "negative-cost-rate", "calibration-rate", "fractional-eval-paths",
               "float-eval-paths", "bool-ensemble-size", "fractional-n-steps",
               "fractional-epochs", "float-paths-per-epoch", "float-train-seed",
               "fractional-eval-seed", "float-resamples", "float-mean-resamples",
               "bool-strike", "nan-strike", "string-strike", "bool-cost-rate",
               "infinite-strike", "string-cvar-level", "bool-risk-aversion",
               "infinite-risk-aversion", "nan-maturity", "bool-kappa", "infinite-v0"]
NESTED = {"grid": PathGrid, "train": TrainConfig}


class TestValidation:
    @pytest.mark.parametrize("fields", INVALID_FIELDS, ids=INVALID_IDS)
    def test_invalid_field_is_rejected_at_construction(self, fields):
        with pytest.raises(ParameterError):
            RunConfig(**{k: NESTED[k](**v) if k in NESTED else v for k, v in fields.items()})
        with pytest.raises(ParameterError):
            RunConfig.from_dict({**RunConfig().to_dict(), **fields})

    def test_boundary_values_are_accepted(self):
        RunConfig(
            cost_rate=0.0,
            train=TrainConfig(seed=0),
            eval_seeds=[0],
            bootstrap_resamples=evaluation.MIN_BOOTSTRAP_RESAMPLES,
            mean_bootstrap_resamples=evaluation.MIN_BOOTSTRAP_RESAMPLES,
        )
        RunConfig(eval_paths=10, train_fraction=0.8)  # 8 training, 2 test paths
        RunConfig(eval_paths=10, train_fraction=0.2)  # 2 training, 8 test paths

    @pytest.mark.parametrize("fields, message", [
        ({"eval_paths": 100.5}, "eval_paths must be an integer, got 100.5"),
        ({"eval_seeds": [99, 1.5]}, r"eval_seeds\[1\] must be an integer, got 1.5"),
        ({"train": {"epochs": 1.5}}, "epochs must be an integer, got 1.5"),
        ({"grid": {"n_steps": True, "maturity": 0.5}}, "n_steps must be an integer, got True"),
    ], ids=["eval-paths", "eval-seed", "epochs", "n-steps"])
    def test_non_integer_count_names_the_field(self, fields, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            RunConfig.from_dict(fields)

    @pytest.mark.parametrize("fields, message", [
        ({"strike": True}, "strike must be a finite real number, got True"),
        ({"cost_rate": "0.001"}, "cost_rate must be a finite real number, got '0.001'"),
        ({"grid": {"n_steps": 8, "maturity": float("nan")}},
         "maturity must be a finite real number, got nan"),
        ({"calibration": {**CUSTOM_CALIBRATION, "kappa": True}},
         "kappa must be a finite real number, got True"),
    ], ids=["strike", "cost-rate", "maturity", "kappa"])
    def test_non_real_value_names_the_field(self, fields, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            RunConfig.from_dict(fields)

    def test_numpy_integers_are_integers(self):
        RunConfig(eval_paths=np.int64(100), eval_seeds=[np.int32(5)],
                  grid=PathGrid(n_steps=np.int64(8), maturity=0.5))

    def test_bootstrap_uses_the_same_floor(self):
        pnl = np.linspace(-1.0, 1.0, 50)
        floor = evaluation.MIN_BOOTSTRAP_RESAMPLES
        evaluation.paired_bootstrap(pnl, pnl[::-1], RiskSpec("mean"), resamples=floor)
        with pytest.raises(ParameterError):
            evaluation.paired_bootstrap(pnl, pnl[::-1], RiskSpec("mean"), resamples=floor - 1)


class TestCliRejectsBeforeTraining:
    @pytest.fixture(autouse=True)
    def no_training(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("training started with an invalid config")

        monkeypatch.setattr(pipeline, "train_members", fail)

    @pytest.mark.parametrize("fields", INVALID_FIELDS, ids=INVALID_IDS)
    def test_invalid_config_file(self, tmp_path, fields):
        config_file = tmp_path / "bad.json"
        config_file.write_text(json.dumps({**RunConfig().to_dict(), **fields}))
        out = tmp_path / "out"
        code = cli.main(["full-pipeline", "--config", str(config_file), "--out", str(out)])
        assert code == cli.EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("record, what", NOT_OBJECTS, ids=NOT_OBJECT_IDS)
    def test_config_file_that_is_not_an_object(self, tmp_path, capsys, record, what):
        """One error line and exit 1, not a TypeError's traceback."""
        config_file = tmp_path / "bad.json"
        config_file.write_text(json.dumps(record))
        out = tmp_path / "out"
        code = cli.main(["full-pipeline", "--config", str(config_file), "--out", str(out)])
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {what} must be a JSON object") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["full-pipeline"])
    def test_negative_seed_flag(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert cli.main([command, "--seed", "-3", "--out", str(out)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: seed must be non-negative")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--workers", "2"], ["--bogus"]], ids=["workers", "bogus"])
    def test_usage_error_is_a_validation_error(self, tmp_path, capsys, flags):
        """argparse exits 2 on a bad flag, which would read as numerical divergence."""
        out = tmp_path / "out"
        assert cli.main(["full-pipeline", *flags, "--out", str(out)]) == cli.EXIT_VALIDATION
        assert "error: unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        assert cli.main(["full-pipeline", "--help"]) == cli.EXIT_OK
        assert "--resume" in capsys.readouterr().out


class TestCliOverrides:
    """``cli._load_config`` on parsed arguments: --scale and --seed override
    the config they are given, and nothing else."""

    @staticmethod
    def load(tmp_path, *flags):
        args = cli.build_parser().parse_args(["full-pipeline", *flags, "--out", str(tmp_path)])
        return cli._load_config(args)

    def test_paper_scale(self, tmp_path):
        paper = TrainConfig(epochs=500, paths_per_epoch=20_000, seed=RunConfig().train.seed)
        assert self.load(tmp_path, "--scale", "paper") == RunConfig(train=paper)

    def test_desk_scale_over_a_config_file(self, tmp_path):
        config_file = tmp_path / "custom.json"
        custom_config().save_json(str(config_file))  # 3 epochs x 128 paths
        expected = custom_config()
        expected.train = TrainConfig(epochs=100, paths_per_epoch=5_000, risk_aversion=2.0,
                                     seed=11)
        assert self.load(tmp_path, "--config", str(config_file), "--scale", "desk") == expected

    def test_seed(self, tmp_path):
        assert self.load(tmp_path, "--seed", "5") == RunConfig(train=TrainConfig(seed=5))
