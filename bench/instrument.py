"""Function wrapping for the benchmark: probes and span tracing.

The program is measured as it is. Each function of interest is rebound,
in every ``coopreg`` module namespace that holds it (on its class, for a
method), to a wrapper defined here, and the original is put back when the
pass ends. Two kinds of wrapper exist:

* probes, always installed on a few functions, keep each call's bound
  arguments, result and wall time for the correctness checks and for the
  simulation stopwatch;
* spans, installed only for a traced pass, wrap every public function and
  method of the traced modules and record name, start, end, parent span
  and run id in memory. They are written out once, when the run ends.

A function named here that the program no longer has is reported as
absent, not as an error.
"""

import contextlib
import functools
import importlib
import inspect
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

PACKAGE = "coopreg"
TRACED_MODULES = ("synthesis", "matrixops", "graphs", "simulation", "config", "cli", "internal_model")
PROBES = (
    "synthesis.solve_parametric_dare",
    "synthesis.certify_closed_loop",
    "synthesis.auto_tune_gamma",
    "simulation.simulate_state_feedback",
    "simulation.simulate_output_feedback",
    "simulation.simulate_compact_oracle",
    "simulation.SimulationTrace.to_csv",
    "simulation.load_trace_csv",
)


@dataclass
class Capture:
    """One probed call: bound arguments, result and wall seconds."""

    name: str
    op: int
    run: int
    args: dict
    result: object
    seconds: float
    notes: dict = field(default_factory=dict)


def public_functions():
    """Map span name to ``(owner, attribute, function)`` for the traced modules."""
    out = {}
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"{PACKAGE}.{short}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out[f"{short}.{attr}"] = (mod, attr, obj)
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        out[f"{short}.{attr}.{meth}"] = (obj, meth, fn)
    return out


class Instrument:
    """Installs probes and spans and keeps what they record."""

    def __init__(self):
        self.targets = public_functions()
        self.absent = [name for name in PROBES if name not in self.targets]
        self.missing = set()  # span names asked for that the program does not have
        self.captures = []
        self.op = -1
        self.run = 0
        self.tracing = False
        self.names = []
        self._name_ids = {}
        self._name, self._parent, self._run, self._start, self._end = [], [], [], [], []
        self._stack = []
        self._bound = []

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextlib.contextmanager
    def installed(self, traced):
        """Wrap the probes, and with ``traced`` every public function, for the block."""
        names = self.targets if traced else [p for p in PROBES if p in self.targets]
        self.tracing = traced
        try:
            for name in names:
                owner, attr, fn = self.targets[name]
                wrapper = self._wrap(name, fn, traced, name in PROBES)
                for ns in self._namespaces(owner, attr, fn):
                    setattr(ns, attr, wrapper)
                    self._bound.append((ns, attr, fn))
            yield
        finally:
            for ns, attr, fn in reversed(self._bound):
                setattr(ns, attr, fn)
            self._bound.clear()
            self.tracing = False

    @staticmethod
    def _namespaces(owner, attr, fn):
        if inspect.isclass(owner):
            return [owner]
        return [
            mod
            for key, mod in list(sys.modules.items())
            if (key == PACKAGE or key.startswith(PACKAGE + ".")) and getattr(mod, attr, None) is fn
        ]

    def _open(self, name_id, now):
        idx = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._run.append(self.run)
        self._start.append(now)
        self._end.append(now)
        self._stack.append(idx)
        return idx

    def _close(self, idx, now):
        self._end[idx] = now
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span of the benchmark's own, recorded only while tracing."""
        if not self.tracing:
            yield
            return
        idx = self._open(self.name_id(name), perf_counter())
        try:
            yield
        finally:
            self._close(idx, perf_counter())

    def _wrap(self, name, fn, traced, probe):
        sig = inspect.signature(fn)
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            idx = self._open(nid, t0) if traced else None
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                if traced:
                    self._close(idx, t1)
            if probe:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.captures.append(Capture(name, self.op, self.run, dict(bound.arguments), result, t1 - t0))
            return result

        return wrapper

    def spans(self):
        """Recorded spans as arrays, with self time = duration minus child durations."""
        name = np.asarray(self._name, dtype=np.int64)
        parent = np.asarray(self._parent, dtype=np.int64)
        start = np.asarray(self._start, dtype=float)
        end = np.asarray(self._end, dtype=float)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "name": name,
            "parent": parent,
            "run": np.asarray(self._run, dtype=np.int64),
            "start": start,
            "end": end,
            "self": dur - child,
        }

    def write_spans(self, path):
        """Write every recorded span to a compressed ``.npz`` file."""
        arrays = self.spans()
        np.savez_compressed(path, names=np.asarray(self.names), **arrays)


class Profile:
    """Span statistics of a set of run ids."""

    def __init__(self, inst, spans, runs):
        self.inst = inst
        self.ids = {n: i for i, n in enumerate(inst.names)}
        self.spans = spans
        self.mask = np.isin(spans["run"], list(runs))

    def _sel(self, name):
        if name not in self.inst.targets:
            self.inst.missing.add(name)
        nid = self.ids.get(name, -1)
        return self.mask & (self.spans["name"] == nid)

    def calls(self, *names):
        return int(sum(np.count_nonzero(self._sel(n)) for n in names))

    def self_s(self, *names):
        return float(sum(self.spans["self"][self._sel(n)].sum() for n in names))

    def calls_under(self, name, ancestor):
        """Calls of ``name`` that have a span of ``ancestor`` among their ancestors."""
        anc = self.ids.get(ancestor, -1)
        parent, kind = self.spans["parent"], self.spans["name"]
        count = 0
        for idx in np.flatnonzero(self._sel(name)):
            p = parent[idx]
            while p >= 0 and kind[p] != anc:
                p = parent[p]
            count += p >= 0
        return int(count)
