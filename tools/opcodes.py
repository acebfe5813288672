"""Count the bytecodes and Python calls of one simulation.

    python3 tools/opcodes.py [src-dir] --family F --qubits N --mode M [--kind K]

Builds `generate(F, N)` and a store outside the count, then runs one
`simulate_statevector` (--kind statevector, the default) or
`simulate_unitary` (--kind unitary) in that mode under `sys.settrace`
and prints one JSON line: the family, qubits, mode and kind, `opcodes`
(bytecode instructions executed) and `calls` (Python frames entered,
generator resumptions included). Unlike a timing, both figures are the same on every run and
every host of one Python version, so two source trees can be compared
with one run each. The source directory defaults to src next to this
script's parent.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=str(ROOT / "src"))
    parser.add_argument("--family", default="ghz")
    parser.add_argument("--qubits", type=int, default=128)
    parser.add_argument("--mode", choices=("new", "legacy"), default="new")
    parser.add_argument("--kind", choices=("statevector", "unitary"), default="statevector")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from qdd import NodeStore, generate, simulate_statevector, simulate_unitary

    circuit = generate(args.family, args.qubits)
    simulate = simulate_unitary if args.kind == "unitary" else simulate_statevector
    store = NodeStore(circuit.n)
    counts = {"opcodes": 0, "calls": 0}

    def count_opcodes(frame, event, arg):
        if event == "opcode":
            counts["opcodes"] += 1
        return count_opcodes

    def on_call(frame, event, arg):
        counts["calls"] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return count_opcodes

    sys.settrace(on_call)
    try:
        simulate(circuit, args.mode, store=store)
    finally:
        sys.settrace(None)
    head = {"family": args.family, "qubits": args.qubits, "mode": args.mode, "kind": args.kind}
    print(json.dumps({**head, **counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
