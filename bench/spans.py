"""Span tracing around cbre2's public layer functions, from outside the package.

`Tracer.installed()` replaces each traced function with a wrapper in
every loaded `cbre2` module that holds a reference to it (so names bound
by `from .x import f` are wrapped too) and on the classes that own traced
methods; leaving the context restores the originals, so untraced rounds
run the unmodified code.  Each call records a span (layer, start, end,
parent); a layer's self time is the span's duration minus the time its
child spans cover.  Spans stay in memory until `dump` writes them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict

# (module, attribute, layer); "Class.method" patches the method on the class.
TRACED = (
    ("cbre2.cli", "main", "cli"),
    ("cbre2.scenario", "load_scenario", "scenario.load"),
    ("cbre2.simulate", "scenario_states", "simulate.batch"),
    ("cbre2.simulate", "simulate_paths", "simulate.per_path"),
    ("cbre2.moments", "moment_table", "moments.table"),
    ("cbre2.moments", "recursion_check", "moments.recursion"),
    ("cbre2.moments", "quenched_laplace", "moments.quenched"),
    ("cbre2.moments", "annealed_laplace_mc", "moments.annealed"),
    ("cbre2.branching", "phi_eval", "branching.phi_eval"),
    ("cbre2.measures", "JumpMeasure.phi_integral", "measures.phi_integral"),
    ("cbre2.measures", "JumpMeasure.sample", "measures.sample"),
    ("cbre2.measures", "JumpMeasure1D.sample", "measures.sample"),
    ("cbre2.env", "sample_env_path", "env.sample_path"),
    ("cbre2.env", "sample_env_skeleton", "env.sample_path"),
    ("cbre2.env", "realize_env_path", "env.sample_path"),
    ("cbre2.fmoment", "f_moment_verdict", "fmoment.verdict"),
    ("cbre2.verify", "estimate_moments", "verify"),
    ("cbre2.verify", "martingale_test", "verify"),
    ("cbre2.verify", "coupling_monotonicity_report", "verify"),
    ("cbre2.verify", "truncation_convergence_report", "verify"),
)


def _grid_steps(horizon: float, step: float) -> int:
    return math.ceil(horizon / step - 1e-9)


def _count_batch(counts, args, kwargs, result):
    scenario, n_paths = args[0], args[1]
    predicates = kwargs.get("predicates", args[4] if len(args) > 4 else None)
    variants = 1 if predicates is None else len(predicates)
    counts["simulate.path_steps"] += n_paths * _grid_steps(scenario.horizon, scenario.step) * variants
    counts["simulate.recorded_bytes_max"] = max(
        counts["simulate.recorded_bytes_max"], result[1].nbytes
    )


def _count_annealed(counts, args, kwargs, result):
    t, n_env_paths, step = args[4], args[5], args[6]
    counts["moments.annealed_path_steps"] += n_env_paths * _grid_steps(t, step)


COUNTERS = {"simulate.batch": _count_batch, "moments.annealed": _count_annealed}


class Tracer:
    """In-memory span recorder with per-layer self time and call counts."""

    def __init__(self):
        self.spans = []  # [layer, start, end, parent index]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []  # [span index, child seconds]

    def _wrap(self, layer, fn):
        counter = COUNTERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            idx = len(self.spans)
            frame = [idx, 0.0]
            self.spans.append([layer, time.perf_counter(), None, parent])
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span = self.spans[idx]
                span[2] = end
                dur = end - span[1]
                self.self_s[layer] += dur - frame[1]
                self.calls[layer] += 1
                if self._stack:
                    self._stack[-1][1] += dur
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        patches = []  # (owner, attribute, original)
        try:
            for modname, attr, layer in TRACED:
                mod = importlib.import_module(modname)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    patches.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(layer, orig))
                    continue
                orig = getattr(mod, attr)
                wrapped = self._wrap(layer, orig)
                for name, other in list(sys.modules.items()):
                    if other is None or not (name == "cbre2" or name.startswith("cbre2.")):
                        continue
                    for key, val in list(vars(other).items()):
                        if val is orig:
                            patches.append((other, key, orig))
                            setattr(other, key, wrapped)
            yield self
        finally:
            for owner, key, orig in reversed(patches):
                setattr(owner, key, orig)

    def dump(self, path: str) -> None:
        """Write the recorded spans as JSON (times relative to the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p}
            for n, s, e, p in self.spans
        ]
        with open(path, "w") as f:
            json.dump({"spans": rows}, f)
