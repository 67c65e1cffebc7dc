"""Per-layer metrics derived from the spans of one traced workload body.

Every metric in ``PER_LAYER`` is reported for every workload; a layer the
workload does not exercise reads 0. Times are inclusive span durations
unless the name says otherwise; ``pipeline.<stage>_s`` partition the
``full_pipeline`` span, so they sum to its duration.
"""

from __future__ import annotations

import statistics
from bisect import bisect_right
from collections import defaultdict

from tracing import Span

TRAIN = "train_desk, train_paper_batch"
EVAL = "wall_s on evaluate_desk"
TINY = "wall_s on pipeline_tiny"

# name -> (unit, better, the end-to-end metric and workloads it should move)
PER_LAYER = {
    "hedger.epoch_s": ("s", "lower", f"wall_s, peak_rss_mb on {TRAIN}"),
    "hedger.first_epoch_s": ("s", "lower", f"wall_s, peak_rss_mb on {TRAIN}"),
    "hedger.train_paths_per_s": ("1/s", "higher", f"wall_s on {TRAIN}"),
    "hedger.taped_forward_s": ("s", "lower", f"wall_s on {TRAIN}"),
    "autodiff.backward_s": ("s", "lower", f"wall_s, peak_rss_mb on {TRAIN}"),
    "autodiff.adam_step_s": ("s", "lower", f"wall_s on {TRAIN}"),
    "autodiff.lstm_cell_calls": ("count", "lower", f"wall_s on {TRAIN}"),
    "hedger.tape_passes_per_epoch": ("count", "lower", f"wall_s on {TRAIN}"),
    "hedger.forward_rollout_s": ("s", "lower", EVAL),
    "hedger.rollout_path_steps_per_s": ("1/s", "higher", EVAL),
    "ensemble.aggregate_s": ("s", "lower", EVAL),
    "ensemble.rollout_calls": ("count", "lower", EVAL),
    "blend.fit_entropic_s": ("s", "lower", f"{TINY}; not evaluate_desk"),
    "blend.fit_cvar_s": ("s", "lower", f"{TINY}; not evaluate_desk"),
    "blend.iter_ms": ("ms", "lower", f"{TINY}; not evaluate_desk"),
    "blend.iterations_entropic": ("count", "lower", TINY),
    "blend.iterations_cvar": ("count", "lower", TINY),
    "blend.final_objective_entropic": ("pnl", "lower", "quality gate on pipeline_tiny"),
    "blend.final_objective_cvar": ("pnl", "lower", "quality gate on pipeline_tiny"),
    "evaluation.bootstrap_s": ("s", "lower", EVAL),
    "evaluation.bootstrap_resamples_per_s": ("1/s", "higher", EVAL),
    "evaluation.export_s": ("s", "lower", "wall_s on evaluate_desk, pipeline_tiny"),
    "evaluation.export_bytes": ("bytes", "lower", "wall_s on evaluate_desk, pipeline_tiny"),
    "evaluation.manifest_s": ("s", "lower", "wall_s on evaluate_desk, pipeline_tiny"),
    "classical.bs_delta_s": ("s", "lower", f"{EVAL}, by a small share"),
    "classical.ww_s": ("s", "lower", f"{EVAL}, by a small share"),
    "accounting.compute_pnl_s": ("s", "lower", f"{EVAL}, by a small share"),
    "accounting.compute_pnl_calls": ("count", "lower", f"{EVAL}, by a small share"),
    "market.simulate_s": ("s", "lower", "no end-to-end metric: under 3% of every workload"),
    "market.paths_per_s": ("1/s", "higher", "no end-to-end metric: under 3% of every workload"),
    **{f"pipeline.{stage}_s": ("s", "lower", TINY) for stage in (
        "simulate", "train", "aggregate", "classical", "split", "fit_blend", "evaluate",
        "seed_stability", "report")},
    "pipeline.simulate_calls": ("count", "lower", TINY),
    "pipeline.aggregate_calls": ("count", "lower", TINY),
    "pipeline.manifest_identical": ("bool", "higher", "byte-identity gate on pipeline_tiny"),
    "trace.overhead_s": ("s", "lower", "none: cost of tracing itself"),
}

# Stage entered at the start of the first direct child of full_pipeline with
# this span name (after the previous boundary). "evaluate" begins when the
# blend fit ends and "seed_stability" at its next simulation, because
# neither stage makes a public call of its own first.
STAGE_STARTS = (
    ("train", "pipeline.train_members", "start"),
    ("aggregate", "ensemble.aggregate", "start"),
    ("classical", "pipeline.classical_schedules", "start"),
    ("split", "blend.train_eval_split", "start"),
    ("fit_blend", "pipeline.fit_blends", "start"),
    ("evaluate", "pipeline.fit_blends", "end"),
    ("seed_stability", "pipeline.simulate_eval_paths", "start"),
    ("report", "evaluation.write_manifest", "start"),
)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _is_writer(span: Span) -> bool:
    fn = span.name.rsplit(".", 1)[-1]
    return fn.startswith("write_") and fn != "write_manifest"


def _outermost(spans: list[Span], i: int, same) -> bool:
    """No ancestor of span i satisfies ``same``."""
    p = spans[i].parent
    while p is not None:
        if same(spans[p]):
            return False
        p = spans[p].parent
    return True


def epoch_times(spans: list[Span]) -> list[tuple[float, float, int, int]]:
    """(start, end, epoch index, paths) for every epoch of every training call."""
    out = []
    for s in spans:
        if s.name == "hedger.train_hedger" and s.note:
            ends = s.note["epoch_ends"]
            for k, (a, b) in enumerate(zip([s.start] + ends[:-1], ends)):
                out.append((a, b, k, s.note["paths"]))
    return out


def train_paths_per_s(spans: list[Span]) -> float:
    """Path-epochs per second over every epoch but each member's first."""
    steady = [(b - a, paths) for a, b, k, paths in epoch_times(spans) if k > 0]
    seconds = sum(d for d, _ in steady)
    return sum(p for _, p in steady) / seconds if seconds > 0 else 0.0


def _epoch_breakdown(spans: list[Span], children: dict, tape_steps: int) -> dict:
    """Per-epoch split of training time into simulate, backward, Adam and the rest."""
    wanted = {"autodiff.backward": "backward", "autodiff.Adam.step": "adam",
              "autodiff.lstm_cell": "cells"}
    rows = []  # dicts per epoch, with "first" flag
    for i, s in enumerate(spans):
        if s.name != "hedger.train_hedger" or not s.note:
            continue
        ends = s.note["epoch_ends"]
        starts = [s.start] + ends[:-1]
        parts = [defaultdict(float) for _ in ends]
        todo = list(children[i])
        while todo:
            j = todo.pop()
            d = spans[j]
            key = "simulate" if d.layer == "market" else wanted.get(d.name)
            k = bisect_right(starts, d.start) - 1
            if key is not None and 0 <= k < len(parts):
                parts[k][key] += 1.0 if key == "cells" else d.duration
            if d.layer != "market":  # nested market calls are inside their root
                todo.extend(children[j])
        for k, (a, b) in enumerate(zip(starts, ends)):
            p = parts[k]
            rows.append({
                "first": k == 0,
                "epoch": b - a,
                "taped_forward": (b - a) - p["simulate"] - p["backward"] - p["adam"],
                "backward": p["backward"],
                "adam": p["adam"],
                "passes": p["cells"] / tape_steps,
            })
    steady = [r for r in rows if not r["first"]]
    return {
        "hedger.epoch_s": _median(r["epoch"] for r in steady),
        "hedger.first_epoch_s": _median(r["epoch"] for r in rows if r["first"]),
        "hedger.taped_forward_s": _median(r["taped_forward"] for r in steady),
        "autodiff.backward_s": _median(r["backward"] for r in steady),
        "autodiff.adam_step_s": _median(r["adam"] for r in steady),
        "hedger.tape_passes_per_epoch": _median(r["passes"] for r in rows),
    }


def _stages(spans: list[Span], children: dict) -> dict:
    out = {f"pipeline.{stage}_s": 0.0 for stage in
           ("simulate",) + tuple(name for name, _, _ in STAGE_STARTS)}
    for i, s in enumerate(spans):
        if s.name != "pipeline.full_pipeline":
            continue
        kids = [spans[j] for j in sorted(children[i])]
        bounds = [("simulate", s.start)]
        for stage, name, edge in STAGE_STARTS:
            after = bounds[-1][1]
            hit = next((k for k in kids if k.name == name and getattr(k, edge) >= after), None)
            if hit is not None:
                bounds.append((stage, getattr(hit, edge)))
        bounds.append(("", s.end))
        for (stage, a), (_, b) in zip(bounds, bounds[1:]):
            out[f"pipeline.{stage}_s"] += b - a
    return out


def per_layer(
    spans: list[Span],
    tape_steps: int,
    export_bytes: int,
    manifest_identical: bool,
    overhead_s: float,
) -> dict[str, float]:
    """Every PER_LAYER metric for one traced body.

    ``tape_steps`` is the number of LSTM cell calls in one rollout (layers x
    steps), which turns cell calls into tape passes.
    """
    children = defaultdict(list)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
        by_name[s.name].append(s)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name[name])

    def rate(num: float, seconds: float) -> float:
        return num / seconds if seconds > 0 else 0.0

    m = _epoch_breakdown(spans, children, tape_steps)
    m["hedger.train_paths_per_s"] = train_paths_per_s(spans)
    m["autodiff.lstm_cell_calls"] = len(by_name["autodiff.lstm_cell"])

    rollout_s = total("hedger.forward_rollout")
    m["hedger.forward_rollout_s"] = rollout_s
    m["hedger.rollout_path_steps_per_s"] = rate(
        sum(s.note["path_steps"] for s in by_name["hedger.forward_rollout"]), rollout_s)
    m["ensemble.aggregate_s"] = total("ensemble.aggregate")
    m["ensemble.rollout_calls"] = sum(
        1 for s in by_name["hedger.forward_rollout"]
        if s.parent is not None and spans[s.parent].name == "ensemble.aggregate")

    fit_s, iterations = 0.0, 0
    for kind in ("entropic", "cvar"):
        fits = [s for s in by_name["blend.fit_blend"] if s.note["kind"] == kind]
        m[f"blend.fit_{kind}_s"] = sum(s.duration for s in fits)
        m[f"blend.iterations_{kind}"] = sum(s.note["iterations"] for s in fits)
        m[f"blend.final_objective_{kind}"] = fits[-1].note["final_objective"] if fits else 0.0
        fit_s += m[f"blend.fit_{kind}_s"]
        iterations += m[f"blend.iterations_{kind}"]
    m["blend.iter_ms"] = 1000.0 * rate(fit_s, iterations)

    boot_s = total("evaluation.paired_bootstrap")
    m["evaluation.bootstrap_s"] = boot_s
    m["evaluation.bootstrap_resamples_per_s"] = rate(
        sum(s.note["resamples"] for s in by_name["evaluation.paired_bootstrap"]), boot_s)
    m["evaluation.export_s"] = sum(
        s.duration for i, s in enumerate(spans)
        if _is_writer(s) and _outermost(spans, i, _is_writer))
    m["evaluation.export_bytes"] = export_bytes
    m["evaluation.manifest_s"] = total("evaluation.write_manifest")

    m["classical.bs_delta_s"] = total("classical.bs_delta_strategy")
    m["classical.ww_s"] = total("classical.ww_strategy")
    m["accounting.compute_pnl_s"] = total("accounting.compute_pnl")
    m["accounting.compute_pnl_calls"] = len(by_name["accounting.compute_pnl"])

    def in_market(s: Span) -> bool:
        return s.layer == "market"

    sims = [i for i, s in enumerate(spans) if in_market(s) and _outermost(spans, i, in_market)]
    sim_s = sum(spans[i].duration for i in sims)
    m["market.simulate_s"] = sim_s
    m["market.paths_per_s"] = rate(
        sum((spans[i].note or {}).get("paths", 0) for i in sims), sim_s)

    m.update(_stages(spans, children))

    def from_pipeline(s: Span) -> bool:
        return s.parent is not None and spans[s.parent].layer == "pipeline"

    m["pipeline.simulate_calls"] = sum(1 for i in sims if from_pipeline(spans[i]))
    m["pipeline.aggregate_calls"] = sum(1 for s in by_name["ensemble.aggregate"]
                                        if from_pipeline(s))
    m["pipeline.manifest_identical"] = int(manifest_identical)
    m["trace.overhead_s"] = overhead_s
    return {name: m[name] for name in PER_LAYER}
