"""Spans and counters recorded from outside the program.

Every public function the benchmark traces is wrapped where the program
looks it up: the wrapper replaces each module attribute of the cfmimo
package that refers to the original function, so calls made through
`from .channel import channel_stats` style imports are seen as well. The
originals are put back when the `patched` context ends.

A span is (name, parent, start, end); a span's self time is its duration
minus the durations of the spans opened directly inside it.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module, function) pairs, in pipeline order. Per-layer metric names are
# "<module>.<function>.self_ms" and "<module>.<function>.calls".
TRACED = (
    ("scenario", "generate_deployment"),
    ("channel", "channel_stats"),
    ("pilots", "assign_pilots"),
    ("clustering", "build_serving_structure"),
    ("spectral_efficiency", "compute_terms"),
    ("spectral_efficiency", "user_rates"),
    ("spectral_efficiency", "mc_oracle"),
    ("channel", "sample_channel"),
    ("channel", "correlation_sqrt"),
    ("pilots", "psi_stack"),
    ("harness", "run_drop"),
    ("harness", "run_single"),
    ("harness", "run_experiment"),
    ("harness", "emit_results"),
    ("harness", "run_oracle_check"),
    ("cli", "main"),
    ("cli", "load_config"),
)

MODULES = ("scenario", "channel", "pilots", "clustering",
           "spectral_efficiency", "harness", "cli")


def original(module: str, name: str):
    return getattr(importlib.import_module(f"cfmimo.{module}"), name)


@contextmanager
def patched(wrappers: dict):
    """Replace functions by wrappers wherever a cfmimo module refers to them.

    wrappers maps an original function object to its replacement.
    """
    modules = [importlib.import_module("cfmimo")] + [
        importlib.import_module(f"cfmimo.{m}") for m in MODULES]
    undo = []
    try:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrappers:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        yield
    finally:
        for mod, attr, value in reversed(undo):
            setattr(mod, attr, value)


@contextmanager
def capturing(names):
    """Record the return value of each listed (module, function) call.

    Yields a dict mapping "module.function" to the list of return values.
    """
    seen = defaultdict(list)

    def wrap(key, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen[key].append(out)
            return out
        return wrapper

    with patched({original(m, f): wrap(f"{m}.{f}", original(m, f))
                  for m, f in names}):
        yield seen


class Tracer:
    """In-memory span recorder with per-call observers and an einsum counter."""

    def __init__(self):
        self.spans: list[list] = []   # [name, parent index, start, end]
        self._open: list[int] = []
        self.einsum_calls: Counter = Counter()   # innermost open span -> count
        self.counts: Counter = Counter()
        self.observe_s = 0.0     # time spent in the observers

    def _wrap(self, key: str, fn, observe=None):
        clock = time.perf_counter
        spans, stack = self.spans, self._open

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [key, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(span)
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                begin = clock()
                observe(out)
                self.observe_s += clock() - begin
            return out
        return wrapper

    def _observe_serving(self, serving):
        self.counts["links"] += sum(len(c) for c in serving.clusters)
        self.counts["groups"] += sum(len(g) for g in serving.groups)

    def _observe_pilots(self, assignment):
        sizes = np.bincount(assignment.t, minlength=assignment.tau_p)
        self.counts["copilot_pairs"] += int(np.sum(sizes * (sizes - 1)))

    def _observe_emit(self, paths):
        self.counts["bytes_written"] += sum(Path(p).stat().st_size for p in paths)

    @contextmanager
    def active(self):
        """Trace every function in TRACED and count numpy.einsum calls."""
        observers = {"clustering.build_serving_structure": self._observe_serving,
                     "pilots.assign_pilots": self._observe_pilots,
                     "harness.emit_results": self._observe_emit}
        wrappers = {}
        for module, name in TRACED:
            key = f"{module}.{name}"
            wrappers[original(module, name)] = self._wrap(
                key, original(module, name), observers.get(key))
        einsum = np.einsum
        np.einsum = self._counting(einsum)
        try:
            with patched(wrappers):
                yield self
        finally:
            np.einsum = einsum

    def _counting(self, einsum):
        spans, stack, counter = self.spans, self._open, self.einsum_calls

        def counted_einsum(*args, **kwargs):
            counter[spans[stack[-1]][0] if stack else ""] += 1
            return einsum(*args, **kwargs)
        return counted_einsum

    def summary(self) -> dict:
        """Per-name call count, total time and self time, in seconds."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {f"{m}.{f}": {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for m, f in TRACED}
        for index, (name, parent, start, end) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[index]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start_s", "end_s"],
                       "spans": self.spans}, fh)


def span_cost_s(repeats: int = 20000) -> tuple[float, float]:
    """Measured extra cost, in seconds, of one traced call and of one counted
    numpy.einsum call, each around a trivial call."""
    tracer = Tracer()
    plain = lambda *args: None  # noqa: E731
    costs = []
    for wrapped in (tracer._wrap("calibration", plain), tracer._counting(plain)):
        clock = time.perf_counter
        start = clock()
        for _ in range(repeats):
            plain()
        base = clock() - start
        start = clock()
        for _ in range(repeats):
            wrapped()
        costs.append(max(clock() - start - base, 0.0) / repeats)
    return costs[0], costs[1]
