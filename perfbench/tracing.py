"""Layer tracing from outside the engine.

Two independent instruments, each used in its own run so that neither
distorts the other:

- SpanTracer wraps the gate loop's calls into the layers (`make_gate_dd`,
  `multiply_mv`/`multiply_mm` as the simulator module looks them up, and
  the store's refcount and GC methods on one store instance) and records
  a span per call: name, start, end and the index of the gate it belongs
  to. It also times Python's cyclic GC through `gc.callbacks`. Everything
  it patches is restored when its context exits.
- `profiled` runs cProfile on the calling thread and, through
  `threading.setprofile`, on every thread started meanwhile, which is
  where `run_deep` moves the gate loop for wide circuits. `self_times`
  then groups self time by engine module, charging each C builtin to the
  module that called it.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import sys
import threading
import time
from contextlib import contextmanager

import qdd
import qdd.sim

QDD_DIR = os.path.dirname(os.path.abspath(qdd.__file__))
MODULES = ("bench", "circuit", "mdd", "vdd", "arith", "store", "weights", "sim")

_SIM_CALLS = ("make_gate_dd", "multiply_mv", "multiply_mm")
_STORE_CALLS = ("inc_ref", "dec_ref", "maybe_collect", "collect_garbage")


class SpanTracer:
    """Spans around the layer calls of one or more simulate runs."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.gc_reclaimed = 0
        self.pygc_s = 0.0
        self.pygc_collections = 0
        self._gate: int | None = None
        self._next_gate = 0
        self._gc_start = 0.0

    def _wrap(self, name: str, fn):
        record = self.spans.append
        clock = time.perf_counter
        starts_gate = name == "make_gate_dd"
        counts_reclaimed = name == "collect_garbage"

        def span(*args, **kwargs):
            if starts_gate:
                self._gate = self._next_gate
                self._next_gate += 1
            gate = self._gate
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record((name, t0, clock(), gate))
            if counts_reclaimed:
                self.gc_reclaimed += result
            return result

        return span

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.pygc_s += time.perf_counter() - self._gc_start
            self.pygc_collections += 1

    @contextmanager
    def installed(self, store: qdd.NodeStore):
        """Trace the gate loop of simulate runs on `store` inside the block."""
        self._gate = None  # spans before the first gate belong to no gate
        saved = {name: getattr(qdd.sim, name) for name in _SIM_CALLS}
        try:
            for name, fn in saved.items():
                setattr(qdd.sim, name, self._wrap(name, fn))
            for name in _STORE_CALLS:
                setattr(store, name, self._wrap(name, getattr(store, name)))
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            for name in _STORE_CALLS:
                store.__dict__.pop(name, None)
            for name, fn in saved.items():
                setattr(qdd.sim, name, fn)

    def total(self, *names: str) -> float:
        return sum(t1 - t0 for name, t0, t1, _ in self.spans if name in names)

    def gate_times(self) -> list[float]:
        """Per-gate seconds, from the first span of a gate to its last."""
        bounds: dict[int, list[float]] = {}
        for _name, t0, t1, gate in self.spans:
            if gate is None:
                continue
            b = bounds.get(gate)
            if b is None:
                bounds[gate] = [t0, t1]
            else:
                b[0] = min(b[0], t0)
                b[1] = max(b[1], t1)
        return [t1 - t0 for t0, t1 in bounds.values()]


@contextmanager
def profiled():
    """Profile this thread and every thread started inside the block.
    Yields the list of profilers; read it after the block exits."""
    profilers = [cProfile.Profile()]

    def follow(frame, event, arg):
        sys.setprofile(None)
        worker = cProfile.Profile()
        profilers.append(worker)
        worker.enable()

    threading.setprofile(follow)
    try:
        profilers[0].enable()
        try:
            yield profilers
        finally:
            profilers[0].disable()
    finally:
        threading.setprofile(None)


def module_of(filename: str) -> str:
    """Engine layer of a code file, or "other"."""
    path = os.path.abspath(filename)
    name = os.path.splitext(os.path.basename(path))[0]
    return name if os.path.dirname(path) == QDD_DIR and name in MODULES else "other"


def self_times(stats: pstats.Stats) -> dict[str, float]:
    """Self seconds per engine module. A builtin's time goes to the module
    of each caller in proportion to what that caller spent in it. Time in
    other code, such as the caller's wait on run_deep's worker thread in
    `threading`, lands in "other"."""
    out = dict.fromkeys(MODULES + ("other",), 0.0)
    for (filename, _line, _func), (_cc, _nc, tt, _ct, callers) in stats.stats.items():
        if filename != "~":
            out[module_of(filename)] += tt
            continue
        for caller, edge in callers.items():
            mod = "other" if caller[0] == "~" else module_of(caller[0])
            out[mod] += edge[2]
    return out


def call_counts(stats: pstats.Stats, module: str, func: str | None = None) -> int:
    """Calls (recursive ones included) into a module, or one function of it."""
    return sum(
        nc
        for (filename, _line, name), (_cc, nc, *_rest) in stats.stats.items()
        if module_of(filename) == module and (func is None or name == func)
    )


def profile_summary(profilers: list[cProfile.Profile]) -> dict:
    """Merged per-module self times and the call counts the benchmark reports."""
    stats = pstats.Stats(*profilers)
    return {
        "self_s": self_times(stats),
        "arith_calls": call_counts(stats, "arith"),
        "intern_calls": call_counts(stats, "weights", "intern"),
        "threads": len(profilers),
    }
