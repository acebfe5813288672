"""Simulation drivers, run reports, and DOT export.

Statevector simulation applies gate DDs sequentially to |0...0>; unitary
simulation left-multiplies them onto an accumulated operator starting
from the identity (the bare terminal edge in new mode). Both run on one
gate loop, which references the freshly produced root, then releases the
consumed one and the gate, so garbage collection at the per-gate safe
point only ever sweeps dead intermediates. A run follows the store's
mode; an explicit mode argument sets it on the store first.

Wall time covers the gate loop only, not parsing or generation. The
arithmetic recursion descends one frame chain per level, so the gate
loop runs under a recursion limit raised for that one call (run_deep).
On Python 3.11+ pure-Python recursion does not use the C stack, so the
loop runs on the calling thread and no thread is started. Both
simulators return what the loop returns: the final root edge and the
run's report.

DOT export draws every edge, the root edge included, by one rule: a zero
edge ends in a dashed stub of its own, any other edge in its target node
or the terminal. The text ends with a newline.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from dataclasses import asdict, dataclass, fields

from . import __version__
from .circuit import Circuit
from .mdd import identity_chain, make_gate_dd
from .arith import multiply_mm, multiply_mv
from .store import MAT, NodeStore, TERMINAL, VEC, ZERO_STUB
from .vdd import make_basis_state
from .weights import ONE, TOLERANCE, ZERO

_limit_lock = threading.Lock()
_active_runs = 0
_saved_limit = 0


def run_deep(fn, levels: int):
    """Call fn on this thread with recursion headroom for `levels` DD levels.

    The recursion limit is process-wide, so it is scoped by a count of
    active runs over all threads: the first run to enter saves the limit,
    each raises it as far as it needs, and the last to leave restores it,
    also when fn raises. A run that left first would otherwise lower the
    limit under a run still recursing on another thread."""
    global _active_runs, _saved_limit
    with _limit_lock:
        if not _active_runs:
            _saved_limit = sys.getrecursionlimit()
        _active_runs += 1
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000 + 12 * levels))
    try:
        return fn()
    finally:
        with _limit_lock:
            _active_runs -= 1
            if not _active_runs:
                sys.setrecursionlimit(_saved_limit)


@dataclass
class SimReport:
    """What one run reports; the fields are in the column order of
    `qdd bench --csv` and the key order of the stats JSON."""

    benchmark: str
    n: int
    gate_count: int
    kind: str
    mode: str
    wall_time_seconds: float
    matrix_nodes_created: int
    vector_nodes_created: int
    peak_live_nodes: int
    gc_runs: int
    ct_hit_rate: float

    def to_json_dict(self) -> dict:
        out = asdict(self)
        out["engine_version"] = __version__
        out["epsilon_w"] = TOLERANCE
        return out


REPORT_FIELDS = tuple(f.name for f in fields(SimReport))


def _simulate(
    circuit: Circuit, mode: str | None, store: NodeStore | None, kind: str
) -> tuple[tuple, SimReport]:
    """The gate loop of both simulators: statevector runs multiply each
    gate onto |0...0>, unitary runs onto the identity. mode=None keeps the
    store's mode; an explicit one is set on the store, which refuses it if
    the store already holds matrix nodes of the other mode."""
    n = circuit.n
    specs = circuit.to_specs()
    if store is None:
        store = NodeStore(n)
    else:
        store.require_levels(n)
    if mode is not None:
        store.mode = mode
    vector = kind == "statevector"
    root_kind = VEC if vector else MAT
    top = n - 1

    def run():
        root = make_basis_state(store, n, "0" * n) if vector else identity_chain(store, top)
        store.inc_ref(root_kind, root)
        t0 = time.perf_counter()
        for spec in specs:
            # module globals and store methods are looked up per gate, so
            # instruments that patch them see every call
            gate = make_gate_dd(store, spec, n)
            store.inc_ref(MAT, gate)
            if vector:
                new_root = multiply_mv(store, gate, root)
            else:
                new_root = multiply_mm(store, gate, root)
            store.inc_ref(root_kind, new_root)
            store.dec_ref(root_kind, root)
            store.dec_ref(MAT, gate)
            root = new_root
            store.maybe_collect()
        return root, time.perf_counter() - t0

    root, dt = run_deep(run, n)
    report = SimReport(
        benchmark=circuit.name,
        n=n,
        gate_count=circuit.gate_count(),
        mode=store.mode,
        kind=kind,
        wall_time_seconds=dt,
        matrix_nodes_created=store.mat.created,
        vector_nodes_created=store.vec.created,
        peak_live_nodes=store.peak_live,
        gc_runs=store.gc_runs,
        ct_hit_rate=store.ct_hit_rate(),
    )
    return root, report


def simulate_statevector(
    circuit: Circuit,
    mode: str | None = None,
    store: NodeStore | None = None,
) -> tuple[tuple, SimReport]:
    """Run the circuit on |0...0>; returns the final state edge and a report.
    Pass a store to inspect the state afterwards."""
    return _simulate(circuit, mode, store, "statevector")


def simulate_unitary(
    circuit: Circuit,
    mode: str | None = None,
    store: NodeStore | None = None,
) -> tuple[tuple, SimReport]:
    """Accumulate the circuit's whole operator as one matrix DD."""
    return _simulate(circuit, mode, store, "unitary")


# -- DOT export ----------------------------------------------------------


def _fmt_weight(v: complex) -> str:
    if v.imag == 0.0:
        return f"{v.real:.5g}"
    if v.real == 0.0:
        return f"{v.imag:.5g}i"
    sign = "+" if v.imag >= 0 else "-"
    return f"{v.real:.5g}{sign}{abs(v.imag):.5g}i"


def export_dot(store: NodeStore, edge: tuple, kind: str = VEC) -> str:
    """Render a DD of node kind VEC or MAT as Graphviz DOT text ending in a
    newline: one rank per level, zero-stubs drawn as filled dots, weights
    as edge labels, deterministic node names."""
    values = store.weights.values
    pool = store.pool(kind)
    levels = pool.level
    target, w = edge
    by_level: dict[int, list[int]] = {}
    for node in sorted(pool.reachable(target)):
        by_level.setdefault(levels[node], []).append(node)

    lines = ["digraph dd {", "  rankdir=TB;", "  node [fontsize=10];"]
    lines.append('  root [shape=none, label=""];')
    if target != ZERO_STUB:
        lines.append('  term [shape=box, label="1"];')
    ranks = sorted(by_level.items(), reverse=True)
    for level, nodes in ranks:
        members = "; ".join(f'n{level}_{nd} [shape=circle, label="q{level}"]' for nd in nodes)
        lines.append(f"  {{ rank=same; {members}; }}")
    stubs = itertools.count()

    def draw(src: str, t: int, sw: int, label: str) -> None:
        """One edge; a zero edge ends in a stub of its own, dashed."""
        if t == ZERO_STUB or sw == ZERO:
            stub = f"z{next(stubs)}"
            lines.append(f"  {stub} [shape=point, width=0.08, style=filled];")
            lines.append(f'  {src} -> {stub} [label="{label}", style=dashed];')
        else:
            dst = "term" if t == TERMINAL else f"n{levels[t]}_{t}"
            lines.append(f'  {src} -> {dst} [label="{label}"];')

    # the root edge is labelled with its weight, a successor with its index
    # and, unless it is 1 or 0, its weight
    draw("root", target, w, _fmt_weight(values[w]))
    for level, nodes in ranks:
        for node in nodes:
            succ = pool.succ[node]
            for i in range(len(succ) // 2):
                t, sw = succ[2 * i], succ[2 * i + 1]
                label = str(i) if sw in (ONE, ZERO) else f"{i}:{_fmt_weight(values[sw])}"
                draw(f"n{level}_{node}", t, sw, label)
    return "\n".join(lines) + "\n}\n"
