"""Benchmark of the hedgeblend pipeline: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The library is imported from ``src/`` next to
this directory, never from an installed copy. The workload is set up
SETUP_REPEATS times: first with this process's own import of the library,
then with the import timed in a fresh interpreter. Half of these set-ups come
before the bodies and half after them, so that their median, ``setup_s``,
spans the same stretch of time as the bodies. The body runs untraced, each
time in a fresh directory, until ``--seconds`` have passed (at least once);
the median is ``wall_s``.
With ``--trace 1`` one more untraced body and then one traced body run, with
every hedgeblend layer traced, and the per-layer metrics are reported instead
of the end-to-end ones.

Outputs are checked after every body (see workloads.check). Human-readable
lines, including the environment, go first; the last line of standard
output is the JSON result. A record with the environment, the per-body
samples and the metrics is also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-ups per run. Import time swings by a quarter within minutes on a shared
# host, so setup_s is the median of several, spread over the run.
SETUP_REPEATS = 5
# One BLAS thread: on a small shared machine a second thread spins at every
# barrier while the other waits for a core, which made run-to-run spread
# several times larger. Set before numpy is first imported.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> (unit, better). success_rate is 1 - error_rate, so it is never 0.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "success_rate": ("ratio", "higher"),
}


def import_library() -> float:
    """Import hedgeblend from ROOT/src, never from an installed copy.

    BLAS is limited to one thread first (see BLAS_ENV). Returns the seconds
    the import took, which is a fresh interpreter's import when this process
    has not imported numpy or scipy yet.
    """
    os.environ.update({var: "1" for var in BLAS_ENV})
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import hedgeblend

    seconds = time.perf_counter() - start
    if not Path(hedgeblend.__file__).resolve().is_relative_to(src):
        raise ImportError(f"hedgeblend was imported from {hedgeblend.__file__}, not {src}")
    return seconds


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import hedgeblend from ROOT/src.

    An import happens once per process, so each set-up repetition times it in
    a child process of its own.
    """
    code = "import time; t = time.perf_counter(); import hedgeblend; " \
           "print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=120, check=True)
    return float(child.stdout)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.split()
        if Path(top).resolve() != ROOT:
            commit = None  # ROOT sits inside some other repository
    except (OSError, ValueError, subprocess.SubprocessError):
        commit = None  # not a git checkout
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
    }


def tree_bytes(path: str) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def span_summary(spans) -> dict:
    """Calls, total seconds and self seconds per span name."""
    from tracing import self_times

    out = {}
    for span, own in zip(spans, self_times(spans)):
        calls, total, self_s = out.get(span.name, (0, 0.0, 0.0))
        out[span.name] = (calls + 1, total + span.duration, self_s + own)
    return dict(sorted(out.items(), key=lambda kv: -kv[1][2]))


def run_body(workload, inputs, seed: int, reference: dict, tracer=None) -> dict:
    """One body in a fresh directory: wall time, check result and outcome.

    With a ``tracer`` the body runs with its spans recorded.
    """
    import workloads as wl

    tmp_root = HERE / "tmp"
    tmp_root.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=tmp_root)
    try:
        with tracer.patched() if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                outcome = workload.body(inputs, out_dir)
                errors = []
            except Exception:  # a failing body is counted, not fatal
                traceback.print_exc()
                outcome, errors = {}, ["body raised"]
            wall = time.perf_counter() - start
        if not errors:
            errors = wl.check(workload, outcome, seed, reference)
        for e in errors:
            print(f"check failed: {e}", file=sys.stderr)
        return {"wall": wall, "failed": bool(errors), "outcome": outcome,
                "bytes": tree_bytes(out_dir)}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        own_import_s = import_library()
    except ImportError as exc:
        print(f"cannot import hedgeblend from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import metrics
    import workloads as wl
    from tracing import Tracer

    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)[workload.name]
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))

    setup_samples = []

    def set_up(import_s: float):
        start = time.perf_counter()
        inputs = workload.setup(args.seed)
        setup_samples.append(import_s + time.perf_counter() - start)
        return inputs

    inputs = set_up(own_import_s)
    for _ in range(SETUP_REPEATS // 2):
        inputs = None  # release the previous inputs before building new ones
        inputs = set_up(import_seconds())

    bodies = []
    started = time.perf_counter()
    while not bodies or time.perf_counter() - started < args.seconds:
        bodies.append(run_body(workload, inputs, args.seed, reference))
    while len(setup_samples) < SETUP_REPEATS:
        set_up(import_seconds())  # the bodies keep the inputs built before them
    walls = [b["wall"] for b in bodies]
    wall_s = statistics.median(walls)

    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "environment": env, "setup_samples": setup_samples, "wall_samples": walls}
    if args.trace:
        # The first body of a process runs cold, so the overhead compares the
        # traced body with an untraced one run just before it.
        paired = run_body(workload, inputs, args.seed, reference)
        tracer = Tracer()
        traced = run_body(workload, inputs, args.seed, reference, tracer)
        bodies += [paired, traced]
        if args.seed == wl.REFERENCE_SEED:
            expected = reference.get("hashes", {})
        else:  # no stored hashes: the traced rerun must reproduce the untraced one
            expected = bodies[0]["outcome"].get("hashes", {})
        from hedgeblend.config import RunConfig
        from hedgeblend.hedger import N_LAYERS

        values = metrics.per_layer(
            tracer.spans,
            # every workload uses the default grid
            tape_steps=N_LAYERS * RunConfig().grid.n_steps,
            export_bytes=traced["bytes"],
            manifest_identical=traced["outcome"].get("hashes", {}) == expected,
            overhead_s=traced["wall"] - paired["wall"],
        )
        units = {k: unit for k, (unit, _, _) in metrics.PER_LAYER.items()}
        record["spans"] = span_summary(tracer.spans)
    attempted = len(bodies)
    failed = sum(b["failed"] for b in bodies)
    if not args.trace:
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_rate": 1.0 - failed / attempted,
        }
        units = {k: unit for k, (unit, _) in END_TO_END.items()}

    print(f"workload {workload.name} seed {args.seed}: {attempted} bodies, {failed} failed, "
          f"error_rate {failed / attempted:g}; wall_s samples {walls}")
    for name, value in values.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    record["result"] = result
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / f"{workload.name}_seed{args.seed}_trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
