"""In-memory spans around the public functions of the hedgeblend modules.

A :class:`Tracer` replaces each traced function, in every ``hedgeblend``
module namespace that binds it, by a wrapper that records one span per call:
name, start, end and the index of the enclosing span. The originals are put
back when the ``patched`` context exits, even on error. Nothing is written
while tracing; callers derive metrics from ``tracer.spans`` afterwards.

Span names are ``<module>.<qualname>`` of the wrapped function, for example
``ensemble.aggregate`` or ``autodiff.Adam.step``, whichever module calls it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

PACKAGE = "hedgeblend"

# Modules whose public functions are traced. Modules a refactor removes are
# skipped, so the benchmark keeps running and their metrics read 0.
LAYER_MODULES = (
    "market", "hedger", "autodiff", "objectives", "ensemble",
    "classical", "accounting", "blend", "evaluation", "pipeline",
)
# Methods are not module-level functions; these are traced explicitly.
METHODS = (("autodiff", "Adam.step"),)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    note: dict | None = None  # facts a hook or result note attached

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest, so the direct children of a span are disjoint
    and lie inside it.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def _record_epochs(args, kwargs, note: dict, wrapped):
    """Chain a callback into ``train_hedger`` that stamps each epoch's end.

    Leaves ``note["paths"]`` (paths per epoch) and ``note["epoch_ends"]``
    (perf_counter after each update) on the call's span.
    """
    config = args[0] if args else kwargs["config"]
    user_callback = kwargs.pop("callback", None)
    ends = note.setdefault("epoch_ends", [])
    note["paths"] = config.paths_per_epoch

    def callback(epoch, model):
        ends.append(time.perf_counter())
        if user_callback is not None:
            user_callback(epoch, model)

    return wrapped(*args, callback=callback, **kwargs)


def _fit_note(result, note: dict) -> None:
    note["kind"] = result.objective.kind
    note["iterations"] = len(result.trajectory)
    note["final_objective"] = float(result.final_objective)


def _bootstrap_note(result, note: dict) -> None:
    note["resamples"] = int(result.resamples)


def _paths_note(result, note: dict) -> None:
    note["paths"] = result.n_paths


def _rollout_note(result, note: dict) -> None:
    note["path_steps"] = result.delta.size


# Small facts taken from a call's result, keyed by span name.
RESULT_NOTES = {
    "blend.fit_blend": _fit_note,
    "evaluation.paired_bootstrap": _bootstrap_note,
    "hedger.forward_rollout": _rollout_note,
    "market.simulate": _paths_note,
    "market.simulate_heston": _paths_note,
    "market.simulate_gbm": _paths_note,
}
# Calls whose arguments are rewritten, keyed by span name.
CALL_HOOKS = {"hedger.train_hedger": _record_epochs}


class Tracer:
    """Records spans for the functions it patches; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name: str):
        hook = CALL_HOOKS.get(name)
        result_note = RESULT_NOTES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else None)
            if hook is not None or result_note is not None:
                span.note = {}
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                if hook is not None:
                    result = hook(args, dict(kwargs), span.note, fn)
                else:
                    result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if result_note is not None:
                result_note(result, span.note)
            return result

        return wrapper

    def _targets(self):
        """(owner, attribute, original, span name) for every binding to patch."""
        modules = {}
        for short in LAYER_MODULES:
            try:
                modules[short] = importlib.import_module(f"{PACKAGE}.{short}")
            except ImportError:
                continue
        originals = {}  # id(function) -> (function, span name)
        for short, mod in modules.items():
            for attr, value in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                ):
                    originals[id(value)] = (value, f"{short}.{value.__qualname__}")
        targets = []
        namespaces = [m for n, m in sys.modules.items()
                      if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                found = originals.get(id(value))
                if found is not None and found[0] is value:
                    targets.append((mod, attr, value, found[1]))
        for short, dotted in METHODS:
            if short not in modules:
                continue
            cls_name, method = dotted.split(".")
            cls = getattr(modules[short], cls_name, None)
            if cls is not None and method in vars(cls):
                targets.append((cls, method, vars(cls)[method], f"{short}.{dotted}"))
        return targets

    @contextmanager
    def patched(self):
        """Trace every target inside the ``with`` block, then restore them."""
        targets = self._targets()
        wrappers = {}
        done = []
        try:
            for owner, attr, original, name in targets:
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(original, name)
                setattr(owner, attr, wrappers[id(original)])
                done.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(done):
                setattr(owner, attr, original)
