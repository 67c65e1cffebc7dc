"""End-to-end checks of the pipeline and the CLI on a mini configuration.

One module-scoped run (8 steps, 2 members, one 64-path epoch, 100 eval
paths, 100 bootstrap resamples) takes a couple of seconds and backs the
reproducibility, CLI and evaluate/fit-blend checks.
"""

import json
import os
import shutil

import pytest

from hedgeblend import cli, ensemble, pipeline
from hedgeblend.config import RunConfig
from hedgeblend.errors import NumericalDivergenceError
from hedgeblend.evaluation import file_sha256
from hedgeblend.hedger import TrainConfig, init_model, save_model
from hedgeblend.market import PathGrid
from hedgeblend.risk import cvar


def mini_config() -> RunConfig:
    return RunConfig(
        grid=PathGrid(n_steps=8, maturity=0.5),
        ensemble_size=2,
        train=TrainConfig(epochs=1, paths_per_epoch=64, seed=7),
        eval_paths=100,
        bootstrap_resamples=100,
        mean_bootstrap_resamples=100,
        winrate_window=50,
    )


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "mini.json"
    mini_config().save_json(str(path))
    return str(path)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, config_file):
    """A full-pipeline run through the CLI; its exit code is checked below."""
    out = tmp_path_factory.mktemp("run")
    code = cli.main(["full-pipeline", "--config", config_file, "--out", str(out)])
    return str(out), code


def read_manifest(out_dir) -> dict:
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


def copy_run(run_dir, tmp_path) -> str:
    target = str(tmp_path / "copy")
    shutil.copytree(run_dir, target)
    return target


class TestFullPipeline:
    def test_cli_run_succeeds(self, run_dir):
        out, code = run_dir
        assert code == cli.EXIT_OK
        assert "FAILED" not in os.listdir(out)
        assert {"table4_comparison.csv", "table5_bootstrap.csv", "blend_cvar.json",
                "seed_stability.csv"} <= set(os.listdir(out))

    def test_rerun_in_fresh_directory_is_byte_identical(self, run_dir, tmp_path):
        manifest = pipeline.full_pipeline(mini_config(), str(tmp_path)).manifest
        assert manifest == read_manifest(run_dir[0])

    def test_stale_failed_marker_is_removed(self, run_dir, tmp_path):
        (tmp_path / "FAILED").write_text("train: an earlier run\n")
        result = pipeline.full_pipeline(mini_config(), str(tmp_path))
        assert not (tmp_path / "FAILED").exists()
        assert result.manifest == read_manifest(run_dir[0])

    def test_stale_blend_of_an_unconfigured_objective_is_removed(self, tmp_path):
        for name in ("blend_entropic.json", "pnl_blend_entropic.csv"):
            (tmp_path / name).write_text("left by an earlier run\n")
        config = mini_config()
        config.objectives = ["cvar"]
        artifacts = pipeline.full_pipeline(config, str(tmp_path)).manifest["artifacts"]
        assert "blend_cvar.json" in artifacts
        for name in ("blend_entropic.json", "pnl_blend_entropic.csv"):
            assert name not in artifacts
            assert not (tmp_path / name).exists()

    def test_interrupt_propagates_and_marks_the_stage(self, tmp_path, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline, "train_members", interrupted)
        with pytest.raises(KeyboardInterrupt):
            pipeline.full_pipeline(mini_config(), str(tmp_path))
        assert (tmp_path / "FAILED").read_text().startswith("train:")

    def test_seed_stability_first_row_matches_the_evaluation(self, run_dir):
        """The first eval seed's row is the CVaR of the evaluation's own P&L files."""
        out, _ = run_dir
        config = mini_config()
        with open(os.path.join(out, "seed_stability.csv")) as fh:
            rows = [line.strip().split(",") for line in list(fh)[1:]]
        assert [int(r[0]) for r in rows] == config.eval_seeds

        def saved_cvar(strategy):
            with open(os.path.join(out, f"pnl_{strategy}.csv")) as fh:
                pnl = [float(line.split(",")[1]) for line in list(fh)[1:]]
            return cvar(pnl, config.cvar_level)

        assert float(rows[0][1]) == pytest.approx(saved_cvar("blend_cvar"), rel=1e-10)
        assert float(rows[0][2]) == pytest.approx(saved_cvar("bs_delta_fixed"), rel=1e-10)


class TestCliOnSavedRun:
    def test_evaluate_keeps_table4_and_manifest(self, run_dir, config_file, tmp_path):
        out = copy_run(run_dir[0], tmp_path)
        assert cli.main(["evaluate", "--config", config_file, "--out", out]) == cli.EXIT_OK
        assert file_sha256(os.path.join(out, "table4_comparison.csv")) == file_sha256(
            os.path.join(run_dir[0], "table4_comparison.csv")
        )
        for name, digest in read_manifest(out)["artifacts"].items():
            assert file_sha256(os.path.join(out, name)) == digest, name

    def test_evaluate_without_config_reads_the_run_config(self, run_dir, tmp_path):
        out = copy_run(run_dir[0], tmp_path)
        assert cli.main(["evaluate", "--out", out]) == cli.EXIT_OK
        assert file_sha256(os.path.join(out, "table4_comparison.csv")) == file_sha256(
            os.path.join(run_dir[0], "table4_comparison.csv")
        )

    def test_blend_file_without_params_is_a_validation_error(self, run_dir, tmp_path, capsys):
        out = copy_run(run_dir[0], tmp_path)
        blend_file = os.path.join(out, "blend_cvar.json")
        with open(blend_file, "w") as fh:
            json.dump({"objective": {"kind": "cvar"}}, fh)
        assert cli.main(["evaluate", "--out", out]) == cli.EXIT_VALIDATION
        assert blend_file in capsys.readouterr().err

    def test_fit_blend_reproduces_the_pipeline_fits(self, run_dir, config_file, tmp_path):
        out = copy_run(run_dir[0], tmp_path)
        for kind in ("entropic", "cvar"):
            os.remove(os.path.join(out, f"blend_{kind}.json"))
        assert cli.main(["fit-blend", "--config", config_file, "--out", out]) == cli.EXIT_OK
        for kind in ("entropic", "cvar"):
            name = f"blend_{kind}.json"
            assert file_sha256(os.path.join(out, name)) == file_sha256(
                os.path.join(run_dir[0], name)
            )


class TestExitCodes:
    def test_unknown_config_key(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"no_such_key": 1}))
        code = cli.main(["full-pipeline", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_VALIDATION

    def test_divergence(self, config_file, tmp_path, monkeypatch):
        def diverge(*args, **kwargs):
            raise NumericalDivergenceError("training loss diverged at epoch 0")

        monkeypatch.setattr(ensemble, "train_hedger", diverge)
        code = cli.main(["full-pipeline", "--config", config_file, "--out", str(tmp_path)])
        assert code == cli.EXIT_DIVERGENCE
        assert "member 0 diverged" in (tmp_path / "FAILED").read_text()

    def test_missing_members(self, tmp_path):
        assert cli.main(["evaluate", "--out", str(tmp_path)]) == cli.EXIT_IO


def test_members_load_in_index_order(tmp_path):
    os.makedirs(tmp_path / "members")
    for i in range(11):
        save_model(init_model(seed=i, hidden=4), str(tmp_path / "members" / f"member_{i}.npz"))
    assert [m.seed for m in pipeline.load_members(str(tmp_path))] == list(range(11))


def test_workers_do_not_change_members():
    config = mini_config()
    args = (config.heston_params(), config.grid, config.cost(), config.strike)
    serial = ensemble.train_ensemble(2, config.train, *args, workers=1)
    parallel = ensemble.train_ensemble(2, config.train, *args, workers=2)
    for a, b in zip(serial, parallel):
        assert a.seed == b.seed
        assert a.loss_history == b.loss_history
        for name in a.params:
            assert a.params[name].tobytes() == b.params[name].tobytes(), name
