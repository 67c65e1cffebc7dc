"""End-to-end checks of the pipeline and the CLI on a mini configuration.

One module-scoped run (8 steps, 2 members, one 64-path epoch, 100 eval
paths, 100 bootstrap resamples) takes about a second and backs the
reproducibility, CLI, resume and concurrent blend-fit checks.
"""

import json
import os
import shutil
import threading
import time
from concurrent.futures import CancelledError
from dataclasses import fields, replace

import numpy as np
import pytest

from hedgeblend import accounting, blend, cli, ensemble, hedger, pipeline, threads
from hedgeblend.accounting import HedgeSchedule
from hedgeblend.blend import fit_blend, train_eval_split
from hedgeblend.config import RunConfig
from hedgeblend.ensemble import EnsembleOutput
from hedgeblend.errors import NumericalDivergenceError, ParameterError, StageError
from hedgeblend.evaluation import file_sha256
from hedgeblend.hedger import TrainConfig, init_model, save_model
from hedgeblend.market import PathGrid, simulate_heston
from hedgeblend.risk import RiskSpec, cvar, entropic_risk


def mini_config() -> RunConfig:
    return RunConfig(
        grid=PathGrid(n_steps=8, maturity=0.5),
        ensemble_size=2,
        train=TrainConfig(epochs=1, paths_per_epoch=64, seed=7),
        eval_paths=100,
        bootstrap_resamples=100,
        mean_bootstrap_resamples=100,
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


def snapshot(out_dir) -> dict:
    """Relative path -> SHA-256 of every file under ``out_dir``."""
    return {
        os.path.relpath(os.path.join(root, name), out_dir): file_sha256(os.path.join(root, name))
        for root, _, names in os.walk(out_dir) for name in names
    }


def forbid_training(monkeypatch) -> None:
    def fail(*args, **kwargs):
        raise AssertionError("a resumed run trained a member")

    monkeypatch.setattr(ensemble, "train_hedger", fail)


@pytest.fixture
def no_training(monkeypatch):
    forbid_training(monkeypatch)


class TestFullPipeline:
    def test_cli_run_succeeds(self, run_dir):
        out, code = run_dir
        assert code == cli.EXIT_OK
        assert "FAILED" not in os.listdir(out)
        assert {"table4_comparison.csv", "table5_bootstrap.csv", "blend_cvar.json",
                "seed_stability.csv"} <= set(os.listdir(out))

    def test_blend_files_hold_the_two_coefficients_and_the_fit(self, run_dir):
        for kind in blend.OBJECTIVES:
            with open(os.path.join(run_dir[0], f"blend_{kind}.json")) as fh:
                record = json.load(fh)
            assert set(record) == {"params", "objective", "final_objective", "trajectory"}
            assert set(record["params"]) == {"intercept", "uncertainty_coef"}
            assert record["objective"]["kind"] == kind
            assert record["final_objective"] == record["trajectory"][-1]

    def test_rerun_in_fresh_directory_is_byte_identical(self, run_dir, tmp_path):
        manifest = pipeline.full_pipeline(mini_config(), str(tmp_path)).manifest
        assert manifest == read_manifest(run_dir[0])

    def test_stale_failed_marker_is_removed(self, run_dir, tmp_path):
        (tmp_path / "FAILED").write_text("train: an earlier run\n")
        result = pipeline.full_pipeline(mini_config(), str(tmp_path))
        assert not (tmp_path / "FAILED").exists()
        assert result.manifest == read_manifest(run_dir[0])

    def test_cvar_columns_name_the_configured_level(self, run_dir, tmp_path):
        def last_column(out, name):
            with open(os.path.join(out, name)) as fh:
                return fh.readline().rstrip("\n").split(",")[-1]

        pipeline.full_pipeline(replace(mini_config(), cvar_level=0.1), str(tmp_path))
        for name in ("table4_comparison.csv", "fig4_cvar_bars.csv"):
            assert last_column(run_dir[0], name) == "cvar_5pct"
            assert last_column(str(tmp_path), name) == "cvar_10pct"

    def test_every_csv_has_its_pinned_header(self, run_dir):
        pnl = "path_id,pnl,hedge_gains,transaction_costs,payoff"
        headers = {
            "ensemble_uncertainty.csv": "path_id,avg_disagreement",
            "fig1_winrate.csv": "window_mean_uncertainty,win_rate",
            "fig2_heatmap.csv":
                "time_bin,moneyness_bin,time_center,moneyness_center,mean_disagreement,count",
            "fig3_blend_curves.csv": "disagreement,alpha_cvar,alpha_entropic",
            "fig4_cvar_bars.csv": "calibration,strategy,cvar_5pct",
            "pnl_ensemble_mean.csv": pnl,
            "pnl_bs_delta_fixed.csv": pnl,
            "pnl_bs_delta_true.csv": pnl,
            "pnl_whalley_wilmott.csv": pnl,
            "pnl_blend_entropic.csv": pnl,
            "pnl_blend_cvar.csv": pnl,
            "seed_stability.csv": "seed,blend_cvar,bs_delta_cvar,improvement_bps",
            "table2_quintiles.csv": "quintile,win_rate,mean_advantage,avg_uncertainty,n_paths",
            "table3_correlations.csv": "characteristic,correlation_with_uncertainty",
            "table4_comparison.csv": "strategy,mean_pnl,std_pnl,cvar_5pct",
            "table5_bootstrap.csv": "comparison,metric,mean_diff,mean_diff_bps,ci_low,ci_high,"
                                    "ci_low_bps,ci_high_bps,win_fraction,significant,resamples",
            "table6_decomposition.csv": "strategy,mean_hedge_gains,mean_transaction_costs,"
                                        "mean_payoff,mean_net_pnl,diff_gains,diff_costs,"
                                        "diff_payoff,diff_net",
            "trade_stats.csv": "strategy,average_trade_size,mean_transaction_costs",
        }
        out = run_dir[0]
        assert sorted(name for name in os.listdir(out) if name.endswith(".csv")) == sorted(headers)
        for name, header in headers.items():
            with open(os.path.join(out, name)) as fh:
                assert fh.readline() == header + "\n", name

    def test_interrupt_propagates_and_marks_the_stage(self, tmp_path, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline, "train_members", interrupted)
        with pytest.raises(KeyboardInterrupt):
            pipeline.full_pipeline(mini_config(), str(tmp_path))
        assert (tmp_path / "FAILED").read_text().startswith("train:")

    def test_held_out_reports_are_rows_of_the_full_reports(self, tmp_path, monkeypatch):
        """On 2,600 eval paths (two rollout blocks) each strategy's P&L is
        computed once per seed: the held-out report equals compute_pnl on the
        held-out rows, field by field and bit for bit."""
        config = replace(mini_config(), eval_paths=2600)
        assert len(threads.row_blocks(config.eval_paths)) == 2
        calls = []

        def counted(*args):
            calls.append(args)
            return accounting.compute_pnl(*args)

        monkeypatch.setattr(pipeline, "compute_pnl", counted)
        result = pipeline.full_pipeline(config, str(tmp_path))
        paths, test_idx = result.eval_paths, result.test_idx
        schedules = pipeline.strategy_schedules(
            result.ensemble, pipeline.classical_schedules(config, paths),
            {kind: fit.params for kind, fit in result.fits.items()})
        assert list(result.reports_test) == list(schedules)
        assert len(calls) == len(schedules) + 2 * (len(config.eval_seeds) - 1)
        for name, sched in schedules.items():
            want = accounting.compute_pnl(paths.take(test_idx), sched.take(test_idx),
                                          config.cost(), config.strike)
            got = result.reports_test[name]
            assert got.strategy_label == want.strategy_label == name
            for f in fields(accounting.PnLReport):
                assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), (name, f.name)

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
    """``full-pipeline --resume`` on a copy of the mini run."""

    def test_resume_reproduces_the_fresh_manifest(self, run_dir, config_file, tmp_path,
                                                  no_training):
        out = copy_run(run_dir[0], tmp_path)
        for name in os.listdir(out):
            if os.path.isfile(os.path.join(out, name)):
                os.remove(os.path.join(out, name))
        code = cli.main(["full-pipeline", "--resume", "--config", config_file, "--out", out])
        assert code == cli.EXIT_OK
        assert read_manifest(out) == read_manifest(run_dir[0])

    def test_resume_without_config_reads_the_run_config(self, run_dir, tmp_path, no_training):
        out = copy_run(run_dir[0], tmp_path)
        assert cli.main(["full-pipeline", "--resume", "--out", out]) == cli.EXIT_OK
        assert read_manifest(out) == read_manifest(run_dir[0])

    @pytest.mark.parametrize("dropped", ["meta", "w_out"])
    def test_checkpoint_missing_an_array_is_a_validation_error(self, run_dir, tmp_path,
                                                                capsys, dropped):
        out = copy_run(run_dir[0], tmp_path)
        member = os.path.join(out, "members", "member_1.npz")
        with np.load(member) as data:
            kept = {name: data[name] for name in data.files if name != dropped}
        np.savez(member, **kept)
        before = snapshot(out)
        assert cli.main(["full-pipeline", "--resume", "--out", out]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and member in err and dropped in err
        assert snapshot(out) == before

    @pytest.mark.parametrize("damage", ["truncated", "not_a_zip", "meta_without_hidden",
                                        "meta_not_an_object", "meta_hidden_4", "meta_input_dim_5",
                                        "scalar_w_hh_0"])
    def test_malformed_checkpoint_is_a_validation_error(self, run_dir, tmp_path, capsys, damage):
        """``meta_hidden_4`` says hidden 4 over the arrays of hidden 32;
        ``scalar_w_hh_0`` has no width to read."""
        out = copy_run(run_dir[0], tmp_path)
        member = os.path.join(out, "members", "member_1.npz")
        with open(member, "rb") as fh:
            raw = fh.read()
        if damage.startswith(("meta", "scalar")):
            with np.load(member) as data:
                kept = {name: data[name] for name in data.files}
            meta = json.loads(bytes(kept["meta"]).decode())
            edits = {"meta_hidden_4": ("hidden", 4), "meta_input_dim_5": ("input_dim", 5)}
            if damage == "scalar_w_hh_0":
                kept["w_hh_0"] = np.float32(0.0)
            elif damage in edits:
                key, value = edits[damage]
                meta[key] = value
            else:
                del meta["hidden"]
                meta = meta if damage == "meta_without_hidden" else list(meta)
            kept["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
            np.savez(member, **kept)
        else:
            with open(member, "wb") as fh:
                fh.write(raw[: len(raw) // 2] if damage == "truncated" else b"not a checkpoint")
        before = snapshot(out)
        assert cli.main(["full-pipeline", "--resume", "--out", out]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and member in err
        assert snapshot(out) == before

    @pytest.mark.parametrize("field, value", [
        ("train", {**mini_config().to_dict()["train"], "seed": 8}),
        ("ensemble_size", 3),
        ("calibration", "high_vov"),
        ("cost_rate", 1e-3),
    ])
    def test_changed_training_field_is_refused(self, run_dir, tmp_path, capsys, monkeypatch,
                                               field, value):
        out = copy_run(run_dir[0], tmp_path)
        config_file = tmp_path / "changed.json"
        config_file.write_text(json.dumps({**mini_config().to_dict(), field: value}))
        trained = []
        monkeypatch.setattr(ensemble, "train_hedger", lambda *a, **k: trained.append(a))
        before = snapshot(out)
        code = cli.main(["full-pipeline", "--resume", "--config", str(config_file), "--out", out])
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.rstrip().endswith(f"in fields: {field}")
        assert trained == []
        assert snapshot(out) == before

    def test_resume_at_another_scale_is_refused(self, run_dir, tmp_path, capsys, no_training):
        """--scale changes the saved run's training record, so resuming refuses it."""
        out = copy_run(run_dir[0], tmp_path)
        before = snapshot(out)
        code = cli.main(["full-pipeline", "--resume", "--scale", "paper", "--out", out])
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.rstrip().endswith("in fields: train")
        assert snapshot(out) == before

    def test_other_fields_may_change_on_resume(self, run_dir, tmp_path, no_training):
        """Fields outside the training record may change on resume."""
        out = copy_run(run_dir[0], tmp_path)
        config = mini_config()
        config.bootstrap_resamples = 200
        config.save_json(os.path.join(out, "config.json"))
        assert cli.main(["full-pipeline", "--resume", "--out", out]) == cli.EXIT_OK
        assert read_manifest(out)["config"]["bootstrap_resamples"] == 200

    def test_failed_checkpoint_save_leaves_the_directory_unresumable(self, run_dir, tmp_path,
                                                                     capsys, monkeypatch):
        out = copy_run(run_dir[0], tmp_path)
        real_save = pipeline.save_model

        def fail_on_member_1(model, filename):
            if filename.endswith("member_1.npz"):
                raise OSError(f"{filename}: disk full")
            real_save(model, filename)

        monkeypatch.setattr(pipeline, "save_model", fail_on_member_1)
        with pytest.raises(StageError, match="disk full"):
            pipeline.full_pipeline(mini_config(), out)
        monkeypatch.undo()
        assert cli.main(["full-pipeline", "--resume", "--out", out]) == cli.EXIT_VALIDATION
        assert os.path.join(out, "members", "training.json") in capsys.readouterr().err

    @pytest.mark.parametrize("with_config", [True, False], ids=["config", "saved-config"])
    def test_cross_calibration_resume_reuses_each_calibrations_members(self, config_file,
                                                                       tmp_path, monkeypatch,
                                                                       with_config):
        """Without --config, the resume reads the config saved in <out>."""
        out = str(tmp_path / "cross")
        args = ["cross-calibration", "--config", config_file, "--out", out]
        assert cli.main(args) == cli.EXIT_OK
        fresh = snapshot(out)
        forbid_training(monkeypatch)
        resume = args if with_config else ["cross-calibration", "--out", out]
        assert cli.main(resume + ["--resume"]) == cli.EXIT_OK
        assert snapshot(out) == fresh
        assert {name.split(os.sep)[0] for name in fresh if "members" in name} == {
            "baseline", "high_vov", "low_corr"}


class TestStaleCheckpoints:
    def test_fewer_members_remove_the_surplus_checkpoints(self, tmp_path, monkeypatch):
        config = mini_config()
        config.ensemble_size = 3
        pipeline.train_members(config, str(tmp_path))
        config.ensemble_size = 2
        pipeline.train_members(config, str(tmp_path))
        assert sorted(os.listdir(tmp_path / "members")) == [
            "member_0.npz", "member_1.npz", "training.json"]
        forbid_training(monkeypatch)
        result = pipeline.full_pipeline(config, str(tmp_path), resume=True)
        assert len(result.members) == 2

    def test_training_without_a_directory_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        pipeline.train_members(mini_config())
        assert os.listdir(tmp_path) == []


class TestValidateGbm:
    """validate_gbm and ``hedgeblend validate-gbm`` on the mini config."""

    KEYS = {"delta_mae", "network_price", "analytic_price", "price_error", "threshold", "passed",
            "final_training_loss", "epochs", "paths_per_epoch", "seed"}

    @pytest.fixture(scope="class")
    def validation(self, tmp_path_factory):
        """(report, the hedger it trained, its output directory)."""
        trained = []

        def recording(*args, **kwargs):
            trained.append(hedger.train_hedger(*args, **kwargs))
            return trained[-1]

        out = str(tmp_path_factory.mktemp("gbm"))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "train_hedger", recording)
            report = pipeline.validate_gbm(mini_config(), out_dir=out)
        return report, trained[0], out

    def test_report_keys_and_verdict(self, validation):
        report, model, _ = validation
        assert set(report) == self.KEYS
        assert report["threshold"] == 0.06
        assert report["passed"] == (report["delta_mae"] <= report["threshold"])
        assert report["final_training_loss"] == model.loss_history[-1]

    def test_written_report_equals_the_returned_one(self, validation):
        report, _, out = validation
        with open(os.path.join(out, "gbm_validation.json")) as fh:
            assert json.load(fh) == report

    def test_network_price_is_the_entropic_risk_of_the_rollouts_pnl(self, validation):
        report, model, _ = validation
        config = mini_config()
        paths = simulate_heston(pipeline.GBM, config.grid, config.eval_paths,
                                seed=config.eval_seeds[0])
        zero_cost = accounting.CostSpec(0.0)
        schedule = hedger.forward_rollout(model, paths, config.strike)
        pnl = accounting.compute_pnl(paths, schedule, zero_cost, config.strike).pnl
        price = hedger.network_price(model, paths, zero_cost, config.strike)
        assert price == report["network_price"] == entropic_risk(pnl, 1.0)

    @pytest.mark.parametrize("threshold, code", [("1", cli.EXIT_OK), ("0", cli.EXIT_VALIDATION)])
    def test_cli_exit_code_is_the_verdict(self, config_file, tmp_path, capsys, threshold, code):
        out = tmp_path / "gbm"
        args = ["validate-gbm", "--config", config_file, "--threshold", threshold,
                "--out", str(out)]
        assert cli.main(args) == code
        printed = json.loads(capsys.readouterr().out)
        assert printed["passed"] == (code == cli.EXIT_OK)
        assert json.loads((out / "gbm_validation.json").read_text()) == printed

    @pytest.mark.parametrize("threshold, message", [
        ("nan", "must be a finite real number, got nan"),
        ("inf", "must be a finite real number, got inf"),
        ("-0.1", "must lie in [0, inf), got -0.1"),
    ], ids=["nan", "inf", "negative"])
    def test_cli_refuses_a_bad_threshold_before_training(self, config_file, tmp_path, capsys,
                                                         monkeypatch, threshold, message):
        """argparse's float accepts each; a NaN once trained a hedger and
        then failed its own verdict."""
        def fail(*args, **kwargs):
            raise AssertionError("a hedger trained")

        monkeypatch.setattr(pipeline, "train_hedger", fail)
        out = tmp_path / "gbm"
        args = ["validate-gbm", "--config", config_file, "--threshold", threshold,
                "--out", str(out)]
        assert cli.main(args) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: threshold {message}\n"
        assert not (out / "gbm_validation.json").exists()


@pytest.fixture(scope="module")
def blend_inputs(run_dir):
    """The fit_blend stage's inputs, rebuilt from the mini run's saved members:
    (eval paths, ensemble output, BS schedule, training indices)."""
    config = mini_config()
    paths = pipeline.simulate_eval_paths(config)
    members = pipeline.load_members(run_dir[0], config.ensemble_size)
    ens = ensemble.aggregate(members, paths, config.strike)
    bs = pipeline.classical_schedules(config, paths)["bs_delta_fixed"]
    train_idx, _ = train_eval_split(paths, config.train_fraction, seed=config.eval_seeds[0])
    return paths, ens, bs, train_idx


def record_fit_threads(monkeypatch) -> dict:
    """Replace pipeline.fit_blend by a stand-in that records the calling
    thread per objective. Both stand-ins wait until the other has started,
    so the fits must overlap, and the CVaR one returns only after the
    entropic one, so they finish against the ``blend.OBJECTIVES`` order. Two
    usable CPUs, so that the fits run on pool threads on any host."""
    monkeypatch.setattr(threads, "usable_cpus", lambda: 2)
    fit_threads = {}
    both_started = threading.Barrier(2, timeout=30)
    entropic_done = threading.Event()

    def stand_in(paths, ens, bs, cost, strike, objective, **kwargs):
        fit_threads[objective.kind] = threading.get_ident()
        both_started.wait()
        if objective.kind == "cvar":
            assert entropic_done.wait(timeout=30)
        else:
            entropic_done.set()
        return objective.kind

    monkeypatch.setattr(pipeline, "fit_blend", stand_in)
    return fit_threads


class TestConcurrentBlendFits:
    def test_equal_to_serial_fits_byte_for_byte(self, blend_inputs):
        paths, ens, bs, train_idx = blend_inputs
        config = mini_config()
        fits = pipeline.fit_blends(config, paths, ens, bs, train_idx)
        assert tuple(fits) == blend.OBJECTIVES
        for kind in blend.OBJECTIVES:
            objective = RiskSpec(kind, a=config.train.risk_aversion, level=config.cvar_level)
            serial = fit_blend(
                paths.take(train_idx), ens.take(train_idx), bs.take(train_idx),
                config.cost(), config.strike, objective
            )
            assert fits[kind].to_json() == serial.to_json(), kind

    def test_fits_come_back_in_configured_order(self, blend_inputs, monkeypatch):
        record_fit_threads(monkeypatch)
        fits = pipeline.fit_blends(mini_config(), *blend_inputs)
        assert list(fits) == ["entropic", "cvar"]
        assert fits == {"entropic": "entropic", "cvar": "cvar"}

    def test_each_objective_fits_on_its_own_thread(self, blend_inputs, monkeypatch):
        fit_threads = record_fit_threads(monkeypatch)
        pipeline.fit_blends(mini_config(), *blend_inputs)
        assert set(fit_threads) == {"entropic", "cvar"}
        assert fit_threads["entropic"] != fit_threads["cvar"]
        assert threading.get_ident() not in fit_threads.values()

    def test_one_cpu_fits_on_the_calling_thread_as_the_threads_do(self, blend_inputs,
                                                                  monkeypatch):
        """On one usable CPU the fits run one after the other on the calling
        thread, and equal the fits made on two threads byte for byte."""
        monkeypatch.setattr(threads, "usable_cpus", lambda: 2)
        threaded = pipeline.fit_blends(mini_config(), *blend_inputs)
        record = record_real_fits(monkeypatch)
        monkeypatch.setattr(threads, "usable_cpus", lambda: 1)
        serial = pipeline.fit_blends(mini_config(), *blend_inputs)
        assert {kind: thread for kind, (thread, _) in record.items()} == {
            kind: threading.current_thread() for kind in blend.OBJECTIVES}
        assert [fit.to_json() for fit in serial.values()] == [
            fit.to_json() for fit in threaded.values()]

    def test_divergence_in_one_fit_fails_the_stage(self, config_file, tmp_path, monkeypatch):
        def cvar_diverges(paths, ens, bs, cost, strike, objective, **kwargs):
            if objective.kind == "cvar":
                raise NumericalDivergenceError("blend objective diverged at iteration 3")
            return fit_blend(paths, ens, bs, cost, strike, objective, **kwargs)

        monkeypatch.setattr(pipeline, "fit_blend", cvar_diverges)
        with pytest.raises(StageError) as info:
            pipeline.full_pipeline(mini_config(), str(tmp_path / "direct"))
        assert info.value.stage == "fit_blend"
        assert isinstance(info.value.__cause__, NumericalDivergenceError)
        assert (tmp_path / "direct" / "FAILED").read_text().startswith("fit_blend:")

        out = tmp_path / "cli"
        code = cli.main(["full-pipeline", "--config", config_file, "--out", str(out)])
        assert code == cli.EXIT_DIVERGENCE
        assert (out / "FAILED").read_text().startswith("fit_blend:")

    def test_interrupt_in_a_fit_propagates_and_marks_the_stage(self, tmp_path, monkeypatch):
        interrupt = KeyboardInterrupt("stop")

        def interrupted(paths, ens, bs, cost, strike, objective, **kwargs):
            if objective.kind == "entropic":
                raise interrupt
            return fit_blend(paths, ens, bs, cost, strike, objective, **kwargs)

        monkeypatch.setattr(pipeline, "fit_blend", interrupted)
        with pytest.raises(KeyboardInterrupt) as info:
            pipeline.full_pipeline(mini_config(), str(tmp_path))
        assert info.value is interrupt
        assert (tmp_path / "FAILED").read_text().startswith("fit_blend:")


@pytest.fixture(scope="module")
def large_blend_inputs():
    """A 2,000 x 126 blend problem whose fits take seconds: BS deltas, a
    noisy ensemble mean around them and a positive disagreement."""
    config = RunConfig(eval_paths=2000)
    paths = pipeline.simulate_eval_paths(config)
    bs = pipeline.classical_schedules(config, paths)["bs_delta_fixed"]
    gen = np.random.default_rng(5)
    noise = gen.normal(0.0, 0.05, size=bs.delta.shape)
    spread = np.abs(gen.normal(0.0, 0.05, size=bs.delta.shape))
    ens = EnsembleOutput(
        mean_hedge=HedgeSchedule(bs.delta + noise, "ensemble_mean"),
        disagreement=spread,
        avg_disagreement=spread.mean(axis=1),
    )
    return config, paths, ens, bs, np.arange(paths.n_paths)


def record_real_fits(monkeypatch) -> dict:
    """Wrap pipeline.fit_blend, recording each fit's thread and outcome. Two
    usable CPUs, so that the fits run on pool threads on any host."""
    monkeypatch.setattr(threads, "usable_cpus", lambda: 2)
    record = {}

    def wrapper(*args, **kwargs):
        kind = args[5].kind
        record[kind] = [threading.current_thread(), None]
        try:
            return fit_blend(*args, **kwargs)
        except BaseException as exc:
            record[kind][1] = exc
            raise

    monkeypatch.setattr(pipeline, "fit_blend", wrapper)
    return record


class TestInterruptibleBlendFits:
    def test_interrupt_main_ends_both_fits_within_a_second(self, large_blend_inputs, monkeypatch,
                                                           interrupt_when_running):
        """Ctrl-C once both fits have passed iteration 2 ends both within a
        second."""
        record = record_real_fits(monkeypatch)
        fired = interrupt_when_running(blend, jobs=2)
        with pytest.raises(KeyboardInterrupt):
            pipeline.fit_blends(*large_blend_inputs)
        assert time.perf_counter() - fired[0] < 1.0
        assert set(record) == {"entropic", "cvar"}
        for thread, exc in record.values():
            assert not thread.is_alive()
            assert isinstance(exc, CancelledError)

    def test_a_failing_fit_stops_the_other(self, large_blend_inputs, monkeypatch):
        record = record_real_fits(monkeypatch)
        real = pipeline.fit_blend

        def cvar_diverges(*args, **kwargs):
            if args[5].kind == "cvar":
                time.sleep(0.3)
                raise NumericalDivergenceError("blend objective diverged at iteration 3")
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "fit_blend", cvar_diverges)
        with pytest.raises(NumericalDivergenceError):
            pipeline.fit_blends(*large_blend_inputs)
        thread, exc = record["entropic"]
        assert not thread.is_alive()
        assert isinstance(exc, CancelledError)
        assert "stopped at iteration" in str(exc)


class TestExitCodes:
    def test_unknown_config_key(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"no_such_key": 1}))
        code = cli.main(["full-pipeline", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("content", [b'{"eval_paths": 100, "grid": {"n_st',
                                         b"\x89PNG\r\n\x1a\n\x00\xff\xfe\x00"],
                             ids=["truncated", "binary"])
    def test_a_config_that_is_not_json(self, tmp_path, capsys, content):
        """A binary config file once ended in a UnicodeDecodeError traceback."""
        config = tmp_path / "bad.json"
        config.write_bytes(content)
        out = tmp_path / "X"
        code = cli.main(["full-pipeline", "--config", str(config), "--out", str(out)])
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config} is not a JSON file: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("content, message", [('{"train": ', "is not a JSON file: "),
                                                  ("[1]", "is not a JSON object")],
                             ids=["truncated", "list"])
    def test_a_training_record_that_is_not_a_json_object(self, run_dir, tmp_path, capsys,
                                                          content, message):
        """A list once ended in an AttributeError traceback."""
        out = copy_run(run_dir[0], tmp_path)
        record = os.path.join(out, "members", "training.json")
        with open(record, "w") as fh:
            fh.write(content)
        assert cli.main(["full-pipeline", "--resume", "--out", out]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{record} {message}" in err

    def test_divergence(self, config_file, tmp_path, monkeypatch):
        def diverge(*args, **kwargs):
            raise NumericalDivergenceError("training loss diverged at epoch 0")

        monkeypatch.setattr(ensemble, "train_hedger", diverge)
        code = cli.main(["full-pipeline", "--config", config_file, "--out", str(tmp_path)])
        assert code == cli.EXIT_DIVERGENCE
        assert "member 0 diverged" in (tmp_path / "FAILED").read_text()

    def test_missing_members(self, tmp_path, capsys):
        """A resume of an empty directory: no training record."""
        assert cli.main(["full-pipeline", "--resume", "--out", str(tmp_path)]) == cli.EXIT_VALIDATION
        assert os.path.join(str(tmp_path), "members", "training.json") in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_out_is_a_regular_file(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("a file")
        code = cli.main(["full-pipeline", "--config", config_file, "--out", str(out)])
        assert code == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert out.read_text() == "a file"

    def test_io_error_in_a_stage(self, config_file, tmp_path, capsys, monkeypatch):
        def unwritable(*args, **kwargs):
            raise PermissionError("pnl csv not writable")

        monkeypatch.setattr(pipeline, "write_pnl_csv", unwritable)
        code = cli.main(["full-pipeline", "--config", config_file, "--out", str(tmp_path)])
        assert code == cli.EXIT_IO
        assert "pnl csv not writable" in capsys.readouterr().err
        assert (tmp_path / "FAILED").read_text().startswith("evaluate:")


def test_members_load_in_index_order(tmp_path):
    os.makedirs(tmp_path / "members")
    for i in range(11):
        save_model(init_model(seed=i, hidden=4), str(tmp_path / "members" / f"member_{i}.npz"))
    assert [m.seed for m in pipeline.load_members(str(tmp_path), 11)] == list(range(11))
    assert [m.seed for m in pipeline.load_members(str(tmp_path), 3)] == [0, 1, 2]
    missing = str(tmp_path / "members" / "member_11.npz")
    with pytest.raises(ParameterError, match=f"{missing} is missing"):
        pipeline.load_members(str(tmp_path), 12)


def assert_members_equal_members_trained_alone(config):
    args = (config.heston_params(), config.grid, config.cost(), config.strike)
    members = ensemble.train_ensemble(2, config.train, *args)
    for i, member in enumerate(members):
        alone = hedger.train_hedger(
            replace(config.train, seed=ensemble.member_seed(config.train.seed, i)), *args)
        assert member.seed == alone.seed
        assert member.loss_history == alone.loss_history
        for name in alone.params:
            assert member.params[name].tobytes() == alone.params[name].tobytes(), name


def test_members_equal_members_trained_alone():
    """Member i is ``train_hedger`` at ``member_seed(seed, i)``, bit for bit."""
    assert_members_equal_members_trained_alone(mini_config())


def test_sharded_members_equal_members_trained_alone(monkeypatch):
    """The same, with two 64-path epochs of four 16-path shards each."""
    monkeypatch.setattr(hedger, "SHARD_PATHS", 16)
    config = mini_config()
    config.train.epochs = 2
    assert_members_equal_members_trained_alone(config)


def test_train_ensemble_accepts_only_one_worker():
    config = mini_config()
    args = (config.heston_params(), config.grid, config.cost(), config.strike)
    with pytest.raises(ParameterError, match="workers must be 1"):
        ensemble.train_ensemble(2, config.train, *args, workers=2)
