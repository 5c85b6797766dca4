"""Span tracing of the levyhedge layers, installed from outside the package.

The package modules bind functions with ``from .x import f``, so wrapping a
function means replacing every binding of it in every ``levyhedge`` module
namespace.  :func:`rebind` does that and undoes it on exit; the tracer uses it
to install timing wrappers, and the self-test uses it to inject wrong results.

Each timed call records one span (name id, parent index, start, end) in flat
arrays, kept in memory until the run ends.  A span's self time is its duration
minus the durations of its direct children; calls are single-threaded, so
children nest strictly inside their parent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

# Modules whose public functions are traced, in layer order.
LAYERS = ("levy_core", "market", "hedging", "sim_harness", "verification", "cli")

# Called more than 160 k times in one optimality suite: counted, not timed,
# so its cost stays in the caller's self time instead of in wrapper overhead.
COUNT_ONLY = {"hedging.volatility_inner"}

ROOT_SPAN = "bench.body"

# The suites of ``levyhedge verify all``, in its order.
SUITES = ("isometry", "martingale", "calculus", "optimality", "ordering", "completeness")


def _package_modules() -> list:
    return [m for name, m in sys.modules.items() if m is not None and (name == "levyhedge" or name.startswith("levyhedge."))]


@contextlib.contextmanager
def rebind(replacements: dict):
    """Replace each original function by its replacement in every levyhedge
    module namespace that binds it; restore all bindings on exit."""
    undo = []
    try:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                for original, replacement in replacements.items():
                    if value is original:
                        setattr(module, attr, replacement)
                        undo.append((module, attr, original))
        yield
    finally:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)


def public_functions(module) -> list[str]:
    """Names of the functions a layer defines and exports."""
    names = getattr(module, "__all__", None) or ["main"]
    return [
        n
        for n in names
        if inspect.isfunction(getattr(module, n, None)) and getattr(module, n).__module__ == module.__name__
    ]


class Tracer:
    """Collects spans for the public functions of every layer."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.reps: list[tuple[int, int]] = []
        self.rep_parts: list = []
        self.rep_counters: list[dict[str, float]] = []
        self._counters: dict[str, float] = {}
        self._wrappers: dict | None = None

    # ------------------------------------------------------------- recording

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def count(self, key: str, amount: float = 1) -> None:
        self._counters[key] = self._counters.get(key, 0) + amount

    @contextlib.contextmanager
    def rep(self, part=None):
        """One execution of (a part of) the workload body: a root span plus
        its counters."""
        first = len(self.start)
        self._counters = {}
        with self.span(ROOT_SPAN):
            yield
        self.reps.append((first, len(self.start)))
        self.rep_parts.append(part)
        self.rep_counters.append(self._counters)

    # ------------------------------------------------------------- wrapping

    def _timed(self, name: str, fn):
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _counted(self, name: str, fn):
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)

        return wrapper

    def _suite(self, fn):
        @functools.wraps(fn)
        def wrapper(name, *args, **kwargs):
            idx = self._open(self._id(f"verification.run_suite.{name}"))
            try:
                return fn(name, *args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _noise(self, fn):
        timed = self._timed("levy_core.sample_noise", fn)

        @functools.wraps(fn)
        def wrapper(measure, grid, *args, **kwargs):
            noise = timed(measure, grid, *args, **kwargs)
            self.count("levy_core.jump_events", int(noise.jump_counts.sum()))
            self.count("levy_core.jump_events_expected", measure.total_intensity * grid.horizon)
            return noise

        return wrapper

    def wrappers(self) -> dict:
        """Original function -> tracing wrapper, for every public layer function."""
        out = {}
        for layer in LAYERS:
            module = importlib.import_module(f"levyhedge.{layer}")
            for fname in public_functions(module):
                fn = getattr(module, fname)
                name = f"{layer}.{fname}"
                if name in COUNT_ONLY:
                    out[fn] = self._counted(name, fn)
                elif name == "verification.run_suite":
                    out[fn] = self._suite(fn)
                elif name == "levy_core.sample_noise":
                    out[fn] = self._noise(fn)
                else:
                    out[fn] = self._timed(name, fn)
        return out

    def install(self):
        """Context manager that traces every layer while it is open."""
        if self._wrappers is None:
            self._wrappers = self.wrappers()
        return rebind(self._wrappers)

    # ------------------------------------------------------------- analysis

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def self_times(self) -> np.ndarray:
        _, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur - child

    def nesting_violations(self) -> int:
        """Spans that start before or end after their parent, or whose self
        time is negative beyond clock rounding."""
        _, parent, start, end = self.arrays()
        idx = np.flatnonzero(parent >= 0)
        p = parent[idx]
        outside = (start[idx] < start[p]) | (end[idx] > end[p]) | (end < start)[idx]
        negative = self.self_times() < -1e-9
        return int(outside.sum() + negative.sum())

    def per_rep(self) -> list[dict[str, tuple[int, float, float]]]:
        """For each rep: span name -> (calls, self seconds, inclusive seconds)."""
        nid, _, start, end = self.arrays()
        own = self.self_times()
        dur = end - start
        n = len(self.names)
        out = []
        for first, last in self.reps:
            ids = nid[first:last]
            calls = np.bincount(ids, minlength=n)
            selfs = np.bincount(ids, weights=own[first:last], minlength=n)
            incl = np.bincount(ids, weights=dur[first:last], minlength=n)
            out.append({self.names[i]: (int(calls[i]), float(selfs[i]), float(incl[i])) for i in np.flatnonzero(calls)})
        return out
