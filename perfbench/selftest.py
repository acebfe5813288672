"""Self-test of the benchmark's oracles.

    python3 perfbench/selftest.py

For every workload, at a small qubit count, the oracle must accept the
engine's result and reject two corrupted ones: the circuit with its last
gate dropped, and the result with its root weight turned by a phase of
1e-6 radians (same norm, every amplitude off by about 1e-6). Exits 1 if
any oracle accepts a corrupted result or rejects a correct one.
"""

from __future__ import annotations

import cmath
import dataclasses
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import qdd  # noqa: E402
from workloads import TOLERANCE, WORKLOADS, Case  # noqa: E402

SMALL_N = {"ghz": 7, "qft-sv": 6, "qft-legacy": 6, "qft-unitary": 4}
SEED = 1


def deviation(wl, case: Case, corrupt_root=None) -> float:
    store = qdd.NodeStore(wl.n)
    root, _report = wl.simulate(case, store)
    if corrupt_root is not None:
        root = corrupt_root(store, root)
    return wl.check(store, root, case, SEED)


def turn_phase(store, root):
    value = store.weights.value(root[1]) * cmath.exp(1e-6j)
    return (root[0], store.weights.intern_complex(value))


def main() -> int:
    failures = 0
    for name, wl in WORKLOADS.items():
        wl = dataclasses.replace(wl, n=SMALL_N[name], batch=1)
        case = wl.make_cases(SEED)[0]
        dropped = Case(dataclasses.replace(case.circuit, gates=case.circuit.gates[:-1]), case.x)
        checks = (
            ("correct result", deviation(wl, case), True),
            ("last gate dropped", deviation(wl, dropped), False),
            ("root phase turned", deviation(wl, case, turn_phase), False),
        )
        for label, err, should_pass in checks:
            ok = (err <= TOLERANCE) == should_pass
            failures += not ok
            verdict = "accepted" if err <= TOLERANCE else "rejected"
            print(f"{'ok  ' if ok else 'FAIL'} {name:<12} {label:<18} {verdict} (max_err {err:.3g})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
