"""Tests of the benchmark's own code: spans, metrics, checks and patching."""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
REFERENCE = json.loads((HERE / "reference.json").read_text())
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("a.root", 0.0, 10.0),
        Span("b.child", 1.0, 4.0, parent=0),
        Span("c.grandchild", 2.0, 3.5, parent=1),
        Span("b.child", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.5, 1.5, 4.0])
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)


def test_stages_partition_the_pipeline_span():
    names = ["pipeline.simulate_eval_paths", "pipeline.train_members", "ensemble.aggregate",
             "pipeline.classical_schedules", "blend.train_eval_split", "pipeline.fit_blends",
             "accounting.compute_pnl", "pipeline.simulate_eval_paths",
             "evaluation.write_manifest"]
    spans = [Span("pipeline.full_pipeline", 0.0, 100.0)]
    for k, name in enumerate(names):
        spans.append(Span(name, 10.0 * k + 1, 10.0 * k + 5, parent=0))
    stages = metrics.per_layer(spans, tape_steps=1, export_bytes=0,
                               manifest_identical=True, overhead_s=0.0)
    stage_times = {k: v for k, v in stages.items()
                   if k.startswith("pipeline.") and k.endswith("_s")}
    assert sum(stage_times.values()) == pytest.approx(100.0)
    assert stage_times["pipeline.simulate_s"] == pytest.approx(11.0)
    assert stage_times["pipeline.fit_blend_s"] == pytest.approx(4.0)
    assert stage_times["pipeline.evaluate_s"] == pytest.approx(71.0 - 55.0)
    assert stage_times["pipeline.report_s"] == pytest.approx(100.0 - 81.0)
    assert stages["pipeline.simulate_calls"] == 0  # no market spans recorded


def test_metric_names_are_well_formed_and_match_benchmark_json():
    names = list(run.END_TO_END) + list(metrics.PER_LAYER) + list(wl.WORKLOADS)
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == \
        {k: v[:2] for k, v in metrics.PER_LAYER.items()}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)


def _scale_first_number(tree, factor: float) -> None:
    """Multiply the first float leaf of a nested dict/list tree in place."""
    keys = list(tree) if isinstance(tree, dict) else range(len(tree))
    for k in keys:
        if isinstance(tree[k], float):
            tree[k] *= factor
            return
        if isinstance(tree[k], (dict, list)):
            return _scale_first_number(tree[k], factor)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_check_accepts_reference_and_fails_on_perturbed_value(name):
    workload = wl.WORKLOADS[name]
    reference = REFERENCE[name]
    assert wl.check(workload, copy.deepcopy(reference), wl.REFERENCE_SEED, reference) == []
    for field in workload.reference_fields:
        perturbed = copy.deepcopy(reference)
        _scale_first_number(perturbed[field], 1.0 + 10 * wl.RTOL)
        assert wl.check(workload, perturbed, wl.REFERENCE_SEED, reference), field
        # Away from the reference seed only the invariants apply.
        assert wl.check(workload, perturbed, wl.REFERENCE_SEED + 1, reference) == []


def test_invariants_catch_bad_outcomes():
    reference = REFERENCE["pipeline_tiny"]
    cases = {
        "alpha": lambda o: o["alpha"]["cvar"].__setitem__(1, 1.0),
        "table4": lambda o: o["table4"]["bs_delta_fixed"].__setitem__(2, 1.0),
        "loss_history": lambda o: o["loss_history"][0].__setitem__(0, float("nan")),
        "artifacts": lambda o: o["artifacts"].remove("table4_comparison.csv"),
    }
    for field, damage in cases.items():
        outcome = copy.deepcopy(reference)
        damage(outcome)
        assert wl.check(wl.WORKLOADS["pipeline_tiny"], outcome, 1, reference), field


def _bindings():
    import hedgeblend.autodiff

    out = {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "hedgeblend" or name.startswith("hedgeblend.")
        for attr, value in vars(mod).items()
    }
    out.update({("Adam", k): v for k, v in vars(hedgeblend.autodiff.Adam).items()})
    return out


def test_patching_restores_every_name_even_on_error():
    before = _bindings()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched():
            during = _bindings()
            changed = [k for k in before if during[k] is not before[k]]
            assert ("hedgeblend.pipeline", "aggregate") in changed
            assert ("hedgeblend.ensemble", "aggregate") in changed
            assert ("Adam", "step") in changed
            raise RuntimeError("body failed")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _train_tiny(monkeypatch, paths: int, limit: int):
    from hedgeblend import hedger
    from hedgeblend.accounting import CostSpec
    from hedgeblend.market import CALIBRATIONS, PathGrid

    monkeypatch.setattr(hedger, "TAPE_BATCH_LIMIT", limit)
    grid = PathGrid(n_steps=4, maturity=0.1)
    tracer = Tracer()
    with tracer.patched():
        hedger.train_hedger(hedger.TrainConfig(epochs=3, paths_per_epoch=paths, seed=1),
                            CALIBRATIONS["baseline"], grid, CostSpec(5e-4), 1.0)
    values = metrics.per_layer(tracer.spans, tape_steps=hedger.N_LAYERS * grid.n_steps,
                               export_bytes=0, manifest_identical=True, overhead_s=0.0)
    return tracer, values


def test_traced_training_counts_tape_passes_and_epochs(monkeypatch):
    tracer, single = _train_tiny(monkeypatch, paths=32, limit=64)
    assert single["hedger.tape_passes_per_epoch"] == 1
    assert single["autodiff.lstm_cell_calls"] == 3 * 2 * 4
    assert len(metrics.epoch_times(tracer.spans)) == 3
    assert single["hedger.epoch_s"] > 0 and single["autodiff.backward_s"] > 0
    assert metrics.train_paths_per_s(tracer.spans) > 0
    _, chunked = _train_tiny(monkeypatch, paths=32, limit=8)
    assert chunked["hedger.tape_passes_per_epoch"] == 8  # 4 chunks, two passes each
