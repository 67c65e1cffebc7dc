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
        train=TrainConfig(epochs=3, paths_per_epoch=128, adam_betas=(0.8, 0.99), seed=11),
        objectives=["cvar"],
        extended_blend=True,
        eval_seeds=[5, 6],
        fixed_vol=0.21,
    )


class TestRoundTrip:
    def test_dict_round_trip(self):
        config = custom_config()
        again = RunConfig.from_dict(config.to_dict())
        assert again == config
        assert again.train.adam_betas == (0.8, 0.99)
        assert isinstance(again.train.adam_betas, tuple)
        assert again.heston_params() == config.heston_params()

    def test_json_round_trip(self, tmp_path):
        config = custom_config()
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        config.save_json(str(first))
        again = RunConfig.from_json(str(first))
        assert again == config
        assert isinstance(again.train.adam_betas, tuple)
        again.save_json(str(second))
        assert second.read_bytes() == first.read_bytes()

    def test_with_calibration_keeps_the_other_fields(self):
        config = custom_config()
        named = config.with_calibration("high_vov")
        unchanged = {**config.to_dict(), "calibration": "high_vov"}
        assert named.to_dict() == unchanged


class TestUnknownKeys:
    @pytest.mark.parametrize("record, key", [
        ({"no_such_key": 1}, "no_such_key"),
        ({"train": {"no_such_key": 1}}, "no_such_key"),
        ({"grid": {"n_steps": 8, "maturity": 0.5, "no_such_key": 1}}, "no_such_key"),
        ({"calibration": {**CUSTOM_CALIBRATION, "no_such_key": 1}}, "no_such_key"),
        ({"workers": 2}, "workers"),
        ({"workers": 0}, "workers"),
        ({"workers": -1}, "workers"),
    ], ids=["top", "train", "grid", "calibration", "workers", "zero-workers", "negative-workers"])
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


INVALID_FIELDS = [
    {"objectives": []},
    {"objectives": ["cvar", "cvar"]},
    {"bootstrap_resamples": evaluation.MIN_BOOTSTRAP_RESAMPLES - 1},
    {"mean_bootstrap_resamples": evaluation.MIN_BOOTSTRAP_RESAMPLES - 1},
    {"train": {**RunConfig().to_dict()["train"], "seed": -1}},
    {"eval_seeds": [99, -1]},
]
INVALID_IDS = ["no-objectives", "repeated-objective", "few-resamples", "few-mean-resamples",
               "negative-train-seed", "negative-eval-seed"]


class TestValidation:
    @pytest.mark.parametrize("fields", INVALID_FIELDS, ids=INVALID_IDS)
    def test_invalid_field_is_rejected_at_construction(self, fields):
        with pytest.raises(ParameterError):
            RunConfig(**{k: TrainConfig(**v) if k == "train" else v for k, v in fields.items()})
        with pytest.raises(ParameterError):
            RunConfig.from_dict({**RunConfig().to_dict(), **fields})

    def test_boundary_values_are_accepted(self):
        RunConfig(
            objectives=["cvar", "entropic"],
            train=TrainConfig(seed=0),
            eval_seeds=[0],
            bootstrap_resamples=evaluation.MIN_BOOTSTRAP_RESAMPLES,
            mean_bootstrap_resamples=evaluation.MIN_BOOTSTRAP_RESAMPLES,
        )

    def test_bootstrap_uses_the_same_floor(self):
        pnl = np.linspace(-1.0, 1.0, 50)
        floor = evaluation.MIN_BOOTSTRAP_RESAMPLES
        evaluation.paired_bootstrap(pnl, pnl[::-1], RiskSpec("mean"), resamples=floor)
        with pytest.raises(ParameterError):
            evaluation.paired_bootstrap(pnl, pnl[::-1], RiskSpec("mean"), resamples=floor - 1)


INVALID_BETAS = [(1.0, 0.999), (0.9, 1.0), (-0.1, 0.999), (0.9, 0.999, 0.5), (0.9,)]
INVALID_BETAS_IDS = ["beta1-one", "beta2-one", "negative", "three-values", "one-value"]


class TestAdamBetas:
    @pytest.mark.parametrize("betas", INVALID_BETAS, ids=INVALID_BETAS_IDS)
    def test_invalid_betas_are_rejected_at_construction(self, betas):
        with pytest.raises(ParameterError, match="adam_betas"):
            TrainConfig(adam_betas=betas)
        record = RunConfig().to_dict()
        record["train"]["adam_betas"] = list(betas)
        with pytest.raises(ParameterError, match="adam_betas"):
            RunConfig.from_dict(record)

    def test_boundary_betas_are_accepted(self):
        TrainConfig(adam_betas=(0.0, 0.0))
        TrainConfig(adam_betas=(0.999999, 0.999999))


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

    @pytest.mark.parametrize("betas", INVALID_BETAS, ids=INVALID_BETAS_IDS)
    def test_invalid_adam_betas(self, tmp_path, capsys, betas):
        record = RunConfig().to_dict()
        record["train"]["adam_betas"] = list(betas)
        config_file = tmp_path / "bad.json"
        config_file.write_text(json.dumps(record))
        out = tmp_path / "out"
        code = cli.main(["full-pipeline", "--config", str(config_file), "--out", str(out)])
        assert code == cli.EXIT_VALIDATION
        assert "adam_betas" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train-ensemble", "full-pipeline"])
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
