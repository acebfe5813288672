"""Command-line interface: simulate, compare, bench.

Exit codes: 0 success, 1 engine/input error (including a failed compare),
2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .bench import FAMILIES, generate
from .circuit import QasmError, parse_qasm
from .sim import REPORT_FIELDS, export_dot, simulate_statevector, simulate_unitary
from .store import MAT, MODE_LEGACY, MODE_NEW, NodeStore, StoreError, VEC
from .vdd import amplitude
from .weights import WeightError


def _generate(args, n: int) -> "Circuit":
    return generate(
        args.benchmark, n, secret=args.secret, phase_k=args.phase_k,
        marked=args.marked, mcz=args.mcz,
    )


def _add_circuit_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="OpenQASM 2 file to simulate")
    p.add_argument("--benchmark", choices=FAMILIES, help="generated circuit family")
    p.add_argument("--qubits", type=int, help="qubit count for --benchmark")


def _load_circuit(args) -> "Circuit":
    if bool(args.input) == bool(args.benchmark):
        raise SystemExit2("exactly one of --input or --benchmark is required")
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            circuit = parse_qasm(fh.read())
        circuit.name = circuit.name or args.input
        return circuit
    if args.qubits is None:
        raise SystemExit2("--benchmark requires --qubits")
    return _generate(args, args.qubits)


class SystemExit2(Exception):
    """Usage error raised after argument parsing."""


# run kind -> simulator; --kind takes these names
_SIMULATORS = {"statevector": simulate_statevector, "unitary": simulate_unitary}


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _parse_indices(text: str, option: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise SystemExit2(f"bad {option} list {text!r}") from exc


def _cmd_simulate(args) -> int:
    circuit = _load_circuit(args)
    indices = []
    if args.amplitudes is not None:
        # checked before the run, so a bad list costs no simulation
        if args.kind != "statevector":
            raise SystemExit2("--amplitudes applies to statevector runs only")
        indices = _parse_indices(args.amplitudes, "--amplitudes")
        if not indices or not all(0 <= i < 1 << circuit.n for i in indices):
            raise SystemExit2(f"--amplitudes takes indices in [0, 2^{circuit.n})")
    store = NodeStore(circuit.n)
    root, report = _SIMULATORS[args.kind](circuit, args.mode, store=store)
    amplitudes = {i: amplitude(store, root, i) for i in indices}
    print(
        f"{report.benchmark or 'circuit'} n={report.n} |G|={report.gate_count} "
        f"mode={report.mode} kind={report.kind} t={report.wall_time_seconds:.3f}s "
        f"matrix_nodes={report.matrix_nodes_created} vector_nodes={report.vector_nodes_created} "
        f"gc_runs={report.gc_runs} ct_hit_rate={report.ct_hit_rate:.3f}"
    )
    for i, value in amplitudes.items():
        print(f"amplitude[{i}] = {value}")
    if args.stats_json:
        payload = report.to_json_dict()
        if amplitudes:
            payload["amplitudes"] = {str(i): [v.real, v.imag] for i, v in amplitudes.items()}
        _write_json(args.stats_json, payload)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(export_dot(store, root, VEC if args.kind == "statevector" else MAT))
    return 0


def _cmd_compare(args) -> int:
    if not 0 <= args.tolerance < float("inf"):
        raise SystemExit2(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    circuit = _load_circuit(args)
    n = circuit.n
    runs = {}
    for mode in (MODE_NEW, MODE_LEGACY):
        store = NodeStore(n)
        root, report = simulate_statevector(circuit, mode, store=store)
        runs[mode] = (store, root, report)
    if n <= 16:
        indices = range(1 << n)
    else:
        # 4,096 evenly spaced indices, both ends included
        indices = [i * ((1 << n) - 1) // 4095 for i in range(4096)]
    deviation = 0.0
    for i in indices:
        a = amplitude(runs[MODE_NEW][0], runs[MODE_NEW][1], i)
        b = amplitude(runs[MODE_LEGACY][0], runs[MODE_LEGACY][1], i)
        d = abs(a - b)
        if d > deviation:
            deviation = d
    payload = {
        "benchmark": circuit.name,
        "n": n,
        "max_amplitude_deviation": deviation,
        "tolerance": args.tolerance,
        "new": runs[MODE_NEW][2].to_json_dict(),
        "legacy": runs[MODE_LEGACY][2].to_json_dict(),
    }
    if args.json:
        _write_json(args.json, payload)
    print(
        f"{circuit.name or 'circuit'} n={n}: max amplitude deviation "
        f"{deviation:.3e} (tolerance {args.tolerance:.1e})"
    )
    return 0 if deviation <= args.tolerance else 1


def _cmd_bench(args) -> int:
    sizes = _parse_indices(args.qubits, "--qubits")
    if not sizes:
        raise SystemExit2("--qubits needs a comma-separated size list")
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if not modes:
        raise SystemExit2("--modes needs a comma-separated mode list")
    for m in modes:
        if m not in (MODE_NEW, MODE_LEGACY):
            raise SystemExit2(f"unknown mode {m!r}")
    kinds = list(_SIMULATORS) if args.kind == "both" else [args.kind]
    # every size is generated before the first run, so a bad one fails alone
    circuits = [(n, _generate(args, n)) for n in sizes]
    rows = []
    for n, circuit in circuits:
        for kind in kinds:
            for mode in modes:
                _root, report = _SIMULATORS[kind](circuit, mode)
                rows.append(report.to_json_dict())
                print(
                    f"{args.benchmark} n={n} kind={kind} mode={mode} "
                    f"t={report.wall_time_seconds:.3f}s |V|={report.matrix_nodes_created} "
                    f"|GC|={report.gc_runs}"
                )
    if args.json:
        _write_json(args.json, rows)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=REPORT_FIELDS, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdd",
        description="Decision-diagram quantum circuit simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # options of the generated families, taken by every subcommand
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--secret", help="bv: hidden bitstring (length n-1)")
    family.add_argument("--phase-k", type=int, dest="phase_k", help="qpe: eigenphase numerator k")
    family.add_argument("--marked", help="grover: marked bitstring (length n)")
    family.add_argument(
        "--mcz",
        choices=("native", "lowered"),
        default="native",
        help="grover: multi-controlled z realization",
    )

    sim = sub.add_parser("simulate", parents=[family], help="run one circuit and report statistics")
    _add_circuit_args(sim)
    sim.add_argument("--kind", choices=tuple(_SIMULATORS), default="statevector")
    sim.add_argument("--mode", choices=(MODE_NEW, MODE_LEGACY), default=MODE_NEW)
    sim.add_argument("--stats-json", dest="stats_json", help="write the run report here")
    sim.add_argument("--dot", help="write a DOT rendering of the final DD here")
    sim.add_argument("--amplitudes", help="comma-separated state indices to print")
    sim.set_defaults(func=_cmd_simulate)

    cmp_ = sub.add_parser("compare", parents=[family], help="run both modes and check they agree")
    _add_circuit_args(cmp_)
    cmp_.add_argument("--tolerance", type=float, default=1e-10)
    cmp_.add_argument("--json", help="write the side-by-side report here")
    cmp_.set_defaults(func=_cmd_compare)

    bench = sub.add_parser(
        "bench", parents=[family], help="sweep qubit sizes, emit a results table"
    )
    bench.add_argument("--benchmark", choices=FAMILIES, required=True)
    bench.add_argument("--qubits", required=True, help="comma-separated sizes")
    bench.add_argument("--kind", choices=(*_SIMULATORS, "both"), default="statevector")
    bench.add_argument("--modes", default="new,legacy")
    bench.add_argument("--csv", help="write rows as CSV here")
    bench.add_argument("--json", help="write rows as JSON here")
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (QasmError, StoreError, WeightError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
