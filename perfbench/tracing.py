"""Span tracing for one `quditcorr run`, from outside the package.

Run as a script, this module installs timing wrappers around the public
functions listed in LAYERS, on every quditcorr module namespace that
binds them (``from .dynamics import evolve`` copies ``evolve`` into
three other modules), runs the quditcorr CLI with the remaining
arguments and writes the spans to a JSON file when the run ends:

    PYTHONPATH=src python3 perfbench/tracing.py --spans spans.json -- \\
        run --config cfg.json --out outdir

Imported, it provides the arithmetic that turns those spans into the
per-layer metrics (``layer_metrics``).  Nothing inside ``src/`` is
changed: the wrappers are installed at run time, in the traced process
only.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
import weakref

# Module -> public functions timed in the traced run.
LAYERS = {
    "cli": ("run",),
    "benchmark": ("run_quench_study", "brute_force_correlators", "measure_site_expectation"),
    "hadamard": ("circuit_probabilities", "run_hadamard_circuit", "estimate_from_probabilities"),
    "linear_response": ("measure_lr",),
    "dynamics": ("build_xxz", "build_perturbed", "make_propagator", "evolve"),
    "register": (
        "apply_local",
        "apply_controlled",
        "site_marginal",
        "ancilla_zero_probability",
        "expectation",
    ),
    "observables": ("decompose",),
}

STUDY = "benchmark.run_quench_study"

# Span record layout: [id, parent id or None, name, thread id, start, end, raised].
ID, PARENT, NAME, THREAD, START, END, RAISED = range(7)

# Derived and counted metrics: name -> (unit, better).
EXTRA_METRICS = {
    "cli.output_s": ("s", "lower"),
    "benchmark.run_quench_study.parallelism": ("ratio", "higher"),
    "dynamics.make_propagator.live_max": ("count", "lower"),
    "dynamics.evolve.propagated_time": ("1/J_xy", "lower"),
    "register.bytes_computed": ("B", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


def function_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def metric_specs() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    specs = {}
    for name in function_names():
        specs[f"{name}.calls"] = ("count", "lower")
        specs[f"{name}.self_s"] = ("s", "lower")
        specs[f"{name}.errors"] = ("count", "lower")
    specs.update(EXTRA_METRICS)
    return specs


class Tracer:
    """Holds spans and counters in memory for the life of one process.

    Each thread keeps its own stack of open spans.  A span that opens on
    a thread with an empty stack while the study span is open (a task in
    the study's thread pool) takes the study span as its parent.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters = {
            "dynamics.make_propagator.live_max": 0,
            "dynamics.evolve.propagated_time": 0.0,
            "register.bytes_computed": 0,
        }
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._study: int | None = None
        self._live = 0

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self._study
            span = [next(self._ids), parent, name, threading.get_ident(), 0.0, 0.0, False]
            stack.append(span[ID])
            is_study = name == STUDY
            if is_study:
                outer_study, self._study = self._study, span[ID]
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if is_study:
                    self._study = outer_study
                with self._lock:
                    self.spans.append(span)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # Counter hooks: (args, kwargs, result) of a call that returned.

    def _propagator_made(self, args, kwargs, prop):
        with self._lock:
            self._live += 1
            key = "dynamics.make_propagator.live_max"
            self.counters[key] = max(self.counters[key], self._live)
        weakref.finalize(prop, self._propagator_freed)

    def _propagator_freed(self):
        with self._lock:
            self._live -= 1

    def _evolved(self, args, kwargs, result):
        prop = kwargs["prop"] if "prop" in kwargs else args[0]
        state = kwargs["state"] if "state" in kwargs else args[1]
        duration = kwargs["duration"] if "duration" in kwargs else args[2]
        rows = state.amplitudes.size // prop.hamiltonian.dimension
        with self._lock:
            self.counters["dynamics.evolve.propagated_time"] += abs(duration) * rows

    def _applied(self, args, kwargs, result):
        state = kwargs["state"] if "state" in kwargs else args[0]
        # Computed, not measured: one read and one write of the complex128 state.
        with self._lock:
            self.counters["register.bytes_computed"] += 2 * 16 * state.amplitudes.size

    def hooks(self) -> dict:
        return {
            "dynamics.make_propagator": self._propagator_made,
            "dynamics.evolve": self._evolved,
            "register.apply_local": self._applied,
            "register.apply_controlled": self._applied,
        }

    def install(self) -> dict[str, int]:
        """Replace each LAYERS function in every quditcorr namespace binding it.

        Returns the number of bindings replaced per function, so a caller
        can tell that a wrapper took effect.
        """
        for mod in LAYERS:
            importlib.import_module(f"quditcorr.{mod}")
        modules = [
            m for n, m in list(sys.modules.items()) if n == "quditcorr" or n.startswith("quditcorr.")
        ]
        hooks = self.hooks()
        bindings = {}
        for mod, fns in LAYERS.items():
            home = sys.modules[f"quditcorr.{mod}"]
            for fn in fns:
                name = f"{mod}.{fn}"
                original = getattr(home, fn)
                wrapper = self.wrap(name, original, hooks.get(name))
                bindings[name] = 0
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            bindings[name] += 1
        return bindings


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict[int, list] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    return {
        s[ID]: (s[END] - s[START]) - covered_length(children.get(s[ID], ()), s[START], s[END])
        for s in spans
    }


def parallelism(spans) -> float:
    """Summed time of study tasks run in pool threads / study wall time.

    A study without pool threads runs its tasks one at a time: 1.0.
    """
    wall = pooled = 0.0
    for study in (s for s in spans if s[NAME] == STUDY):
        wall += study[END] - study[START]
        pooled += sum(
            s[END] - s[START]
            for s in spans
            if s[PARENT] == study[ID] and s[THREAD] != study[THREAD]
        )
    if pooled == 0.0 or wall == 0.0:
        return 1.0
    return pooled / wall


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metrics from a span dump (all except trace.overhead)."""
    spans = doc["spans"]
    selfs = self_times(spans)
    out = {}
    duration = {}
    for name in function_names():
        mine = [s for s in spans if s[NAME] == name]
        out[f"{name}.calls"] = len(mine)
        out[f"{name}.self_s"] = sum(selfs[s[ID]] for s in mine)
        out[f"{name}.errors"] = sum(1 for s in mine if s[RAISED])
        duration[name] = sum(s[END] - s[START] for s in mine)
    out["cli.output_s"] = duration["cli.run"] - duration[STUDY]
    out["benchmark.run_quench_study.parallelism"] = parallelism(spans)
    out.update(doc["counters"])
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracing.py --spans OUT.json -- <quditcorr CLI arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    bindings = tracer.install()
    from quditcorr import cli

    try:
        return cli.main(argv[3:])
    finally:
        with open(argv[1], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counters": tracer.counters, "bindings": bindings}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
