"""Simulation drivers, run reports, and DOT export.

Statevector simulation applies gate DDs sequentially to |0...0>; unitary
simulation left-multiplies them onto an accumulated operator starting
from the identity (the bare terminal edge in new mode). Both run on one
gate loop, which references the freshly produced root, then releases the
consumed one and the gate, so garbage collection at the per-gate safe
point only ever sweeps dead intermediates. A run follows the store's
mode; an explicit mode argument sets it on the store first.

Wall time covers the gate loop only, not parsing or generation. Deep
circuits run on a widened stack: the arithmetic recursion descends one
frame chain per level and CPython cannot take that past a few hundred
levels on a default thread.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field

from . import __version__
from .circuit import Circuit
from .mdd import identity_chain, make_gate_dd
from .arith import multiply_mm, multiply_mv
from .store import MAT, NodeStore, TERMINAL, VEC, ZERO_STUB
from .vdd import amplitude, make_basis_state
from .weights import ONE, TOLERANCE, ZERO

_DEEP_STACK_BYTES = 512 * 1024 * 1024
_DIRECT_LEVEL_LIMIT = 200


def run_deep(fn, levels: int):
    """Run fn with recursion headroom for `levels` DD levels."""
    need = 20000 + 12 * levels
    if sys.getrecursionlimit() < need:
        sys.setrecursionlimit(need)
    if levels <= _DIRECT_LEVEL_LIMIT:
        return fn()
    result: list = []
    failure: list[BaseException] = []

    def worker():
        try:
            result.append(fn())
        except BaseException as exc:  # re-raised in the caller
            failure.append(exc)

    old_size = threading.stack_size()
    try:
        threading.stack_size(_DEEP_STACK_BYTES)
    except (ValueError, RuntimeError):
        pass
    try:
        thread = threading.Thread(target=worker, name="qdd-deep")
        thread.start()
        thread.join()
    finally:
        try:
            threading.stack_size(old_size)
        except (ValueError, RuntimeError):
            pass
    if failure:
        raise failure[0]
    return result[0]


# Report fields in the column order of `qdd bench --csv`.
REPORT_FIELDS = (
    "benchmark", "n", "gate_count", "kind", "mode", "wall_time_seconds",
    "matrix_nodes_created", "vector_nodes_created", "peak_live_nodes",
    "gc_runs", "ct_hit_rate",
)


@dataclass
class SimReport:
    benchmark: str
    n: int
    gate_count: int
    mode: str
    kind: str
    wall_time_seconds: float
    matrix_nodes_created: int
    vector_nodes_created: int
    peak_live_nodes: int
    gc_runs: int
    ct_hit_rate: float
    amplitude_samples: dict[int, complex] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {name: getattr(self, name) for name in REPORT_FIELDS}
        out["engine_version"] = __version__
        out["epsilon_w"] = TOLERANCE
        if self.amplitude_samples:
            out["amplitudes"] = {
                str(i): [v.real, v.imag] for i, v in self.amplitude_samples.items()
            }
        return out


def _simulate(
    circuit: Circuit, mode: str | None, store: NodeStore | None, kind: str
) -> tuple[NodeStore, tuple, SimReport]:
    """The gate loop of both simulators: statevector runs multiply each
    gate onto |0...0>, unitary runs onto the identity. mode=None keeps the
    store's mode; an explicit one is set on the store, which refuses it if
    the store already holds matrix nodes of the other mode."""
    n = circuit.n
    specs = circuit.to_specs()
    for spec in specs:
        spec.validate(n)
    if store is None:
        store = NodeStore(n)
    elif store.num_levels < n:
        raise ValueError(f"store has {store.num_levels} levels, circuit needs {n}")
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
                new_root = multiply_mv(store, gate, root, top)
            else:
                new_root = multiply_mm(store, gate, root, top)
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
    return store, root, report


def simulate_statevector(
    circuit: Circuit,
    mode: str | None = None,
    store: NodeStore | None = None,
    amplitude_indices=(),
) -> tuple[tuple, SimReport]:
    """Run the circuit on |0...0>; returns the final state edge and a report.
    Pass a store to inspect the state afterwards."""
    store, state, report = _simulate(circuit, mode, store, "statevector")
    for i in amplitude_indices:
        report.amplitude_samples[i] = amplitude(store, state, i)
    return state, report


def simulate_unitary(
    circuit: Circuit,
    mode: str | None = None,
    store: NodeStore | None = None,
) -> tuple[tuple, SimReport]:
    """Accumulate the circuit's whole operator as one matrix DD."""
    _store, acc, report = _simulate(circuit, mode, store, "unitary")
    return acc, report


# -- DOT export ----------------------------------------------------------


def _fmt_weight(v: complex) -> str:
    if v.imag == 0.0:
        return f"{v.real:.5g}"
    if v.real == 0.0:
        return f"{v.imag:.5g}i"
    sign = "+" if v.imag >= 0 else "-"
    return f"{v.real:.5g}{sign}{abs(v.imag):.5g}i"


def export_dot(store: NodeStore, edge: tuple, kind: str = "vector") -> str:
    """Render a DD as Graphviz DOT: one rank per level, zero-stubs drawn
    as filled dots, weights as edge labels, deterministic node names."""
    wt = store.weights
    pool = store.vec if kind == "vector" else store.mat
    levels = pool.level

    lines = ["digraph dd {", "  rankdir=TB;", "  node [fontsize=10];"]
    lines.append('  root [shape=none, label=""];')
    target, w = edge
    stub_count = 0

    def stub() -> str:
        nonlocal stub_count
        name = f"z{stub_count}"
        stub_count += 1
        lines.append(f"  {name} [shape=point, width=0.08, style=filled];")
        return name

    if target == ZERO_STUB or w == ZERO:
        lines.append(f"  root -> {stub()};")
        lines.append("}")
        return "\n".join(lines)

    lines.append('  term [shape=box, label="1"];')
    if target < 0:
        lines.append(f'  root -> term [label="{_fmt_weight(wt.values[w])}"];')
        lines.append("}")
        return "\n".join(lines)

    by_level: dict[int, list[int]] = {}
    for node in pool.reachable(target):
        by_level.setdefault(levels[node], []).append(node)

    def name(node: int, level: int) -> str:
        return f"n{level}_{node}"

    for level in sorted(by_level, reverse=True):
        nodes = sorted(by_level[level])
        members = "; ".join(f'{name(nd, level)} [shape=circle, label="q{level}"]' for nd in nodes)
        lines.append(f"  {{ rank=same; {members}; }}")

    lines.append(f'  root -> {name(target, levels[target])} [label="{_fmt_weight(wt.values[w])}"];')
    for level in sorted(by_level, reverse=True):
        for node in sorted(by_level[level]):
            succ = pool.succ[node]
            for i in range(len(succ) // 2):
                t, sw = succ[2 * i], succ[2 * i + 1]
                label = str(i) if sw == ONE else f"{i}:{_fmt_weight(wt.values[sw])}"
                src = name(node, level)
                if sw == ZERO or t == ZERO_STUB:
                    lines.append(f"  {src} -> {stub()} [label=\"{i}\", style=dashed];")
                elif t == TERMINAL:
                    lines.append(f'  {src} -> term [label="{label}"];')
                else:
                    lines.append(f'  {src} -> {name(t, levels[t])} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)
