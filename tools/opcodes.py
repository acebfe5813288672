"""Count the bytecodes and Python calls of one statevector simulation.

    python3 tools/opcodes.py [src-dir] --family F --qubits N --mode M

Builds `generate(F, N)` and a store outside the count, then runs one
`simulate_statevector` in that mode under `sys.settrace` and prints one
JSON line: the family, qubits and mode, `opcodes` (bytecode instructions
executed) and `calls` (Python frames entered, generator resumptions
included). Unlike a timing, both figures are the same on every run and
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
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from qdd import NodeStore, generate, simulate_statevector

    circuit = generate(args.family, args.qubits)
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
        simulate_statevector(circuit, args.mode, store=store)
    finally:
        sys.settrace(None)
    print(json.dumps({"family": args.family, "qubits": args.qubits, "mode": args.mode, **counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
