"""Timing wrappers installed from outside the package.

The package modules bind each other's functions by name at import time
(`from .spectral import graph_spectrum`), so a wrapper has to replace every
module attribute that binds a public function, not only the defining one.
One wrapper object is made per function and shared by all the attributes that
bind it. `graph_spectrum`'s LRU cache is never replaced: its wrapper calls
through to it and exposes its `cache_info` and `cache_clear`.

Each call records a span (name, start, end, parent). Spans are kept in memory,
up to MAX_SPANS, and written once at the end. Calls and self time (span time
minus the time of child spans) are aggregated as the calls happen, so they
cover every call even past the span cap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("graphs", "spectral", "measures", "properties", "design", "sim", "cli")
MAX_SPANS = 200_000

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.enabled = True
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.dropped = 0
        self.stack: list[list] = []  # frames: [name, span index, child time]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    @contextmanager
    def paused(self):
        """Run oracle code without recording it."""
        previous = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = previous

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1][1] if stack else -1
            if len(tracer.spans) < MAX_SPANS:
                index = len(tracer.spans)
                tracer.spans.append(None)
            else:
                index = -1
                tracer.dropped += 1
            frame = [name, index, 0.0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if index >= 0:
                    tracer.spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        for attribute in ("cache_info", "cache_clear"):
            if hasattr(fn, attribute):
                setattr(wrapper, attribute, getattr(fn, attribute))
        wrapper.__traced__ = True
        return wrapper

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}

    def merge(self, other: dict) -> None:
        """Add the aggregates (and spans) recorded by a child process."""
        self.calls.update(other["calls"])
        for name, value in other["self_s"].items():
            self.self_s[name] += value
        self.counts.update(other["counts"])
        offset = len(self.spans)
        for name, start, end, parent in other.get("spans", []):
            if len(self.spans) >= MAX_SPANS:
                self.dropped += 1
                continue
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1))
        self.dropped += other.get("dropped", 0)

    def dump(self, path) -> None:
        spans = [span for span in self.spans if span is not None]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": spans, "dropped": self.dropped, **self.snapshot()}, handle)


# ---------------------------------------------------------------------------
# exact counts recorded at layer boundaries

def _eig_sym_hook(tracer, args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    n = len(matrix)
    tracer.counts["spectral.eig_sym.n3_sum"] += n ** 3
    if any(frame[0] == "design.greedy_augment" for frame in tracer.stack):
        tracer.counts["design.greedy_augment.eigensolves"] += 1


def _optimize_weights_hook(tracer, args, kwargs, result):
    from systemic.design import SolverOptions, _is_nonsmooth
    measure = args[1] if len(args) > 1 else kwargs["measure"]
    options = (args[2] if len(args) > 2 else kwargs.get("options")) or SolverOptions()
    tracer.counts["design.optimize_weights.iterations"] += result.iterations
    # A projected-gradient solve that returned above tol before max_iters
    # stopped early, at the line search's sqrt(tol) exit. Subgradient solves
    # (nonsmooth measures) always run max_iters and are not counted.
    early = (not _is_nonsmooth(measure) and result.iterations < options.max_iters
             and not result.stationarity_residual <= options.tol)
    tracer.counts["design.optimize_weights.unconverged"] += int(early)


def _rewire_hook(tracer, args, kwargs, result):
    tracer.counts["design.rewire_bruteforce.classes"] += len(result.ranking)


def _run_check_hook(tracer, args, kwargs, result):
    tracer.counts["properties.trials"] += result.trials
    tracer.counts["properties.violations"] += len(result.violations)


def _estimate_h2_hook(tracer, args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    tracer.counts["sim.estimate_h2.steps"] += int(round(cfg.horizon / cfg.dt))


def _emit_report_hook(tracer, args, kwargs, result):
    timing = args[4] if len(args) > 4 else kwargs["timing"]
    tracer.counts["cli.compute_s"] += timing


HOOKS = {
    "cli.emit_report": _emit_report_hook,
    "spectral.eig_sym": _eig_sym_hook,
    "design.optimize_weights": _optimize_weights_hook,
    "design.rewire_bruteforce": _rewire_hook,
    "properties.run_check": _run_check_hook,
    "sim.estimate_h2": _estimate_h2_hook,
}


def _traceable(value) -> bool:
    if not (inspect.isfunction(value) or hasattr(value, "cache_info")):
        return False
    return getattr(value, "__module__", "").startswith("systemic.")


def install(tracer: Tracer) -> None:
    """Wrap every public function bound as an attribute of the package or its
    layer modules."""
    package = importlib.import_module("systemic")
    modules = [package] + [importlib.import_module(f"systemic.{name}") for name in LAYERS]
    wrappers: dict[int, object] = {}
    for module in modules:
        for attribute, value in list(vars(module).items()):
            if attribute.startswith("_") or getattr(value, "__traced__", False):
                continue
            if not _traceable(value):
                continue
            if id(value) not in wrappers:
                home = value.__module__.rsplit(".", 1)[-1]
                name = f"{home}.{value.__name__}"
                wrappers[id(value)] = tracer.wrap(name, value, HOOKS.get(name))
            setattr(module, attribute, wrappers[id(value)])


def per_pass(setup: dict, total: dict, passes: int) -> dict:
    """Aggregates of one set-up plus one pass: the set-up part once, and the
    part recorded after set-up divided by the number of identical passes."""
    result = {}
    for key in ("calls", "self_s", "counts"):
        before = setup[key]
        after = total[key]
        merged = {}
        for name in set(before) | set(after):
            head = before.get(name, 0)
            tail = (after.get(name, 0) - head) / passes
            merged[name] = head + tail
        result[key] = merged
    return result
