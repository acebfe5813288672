"""Benchmark workloads: seeded inputs, the public simulate call, and an
analytic oracle for each.

A workload turns a seed into one or more cases. A case is a circuit plus
whatever its oracle needs to know about the input; the engine only ever
sees the circuit. Every oracle is exact at any qubit count and builds no
dense array: it reads a seeded sample of amplitudes (or matrix entries)
through the DD readback functions and compares them with closed forms.

Deviations are relative to the magnitude of the expected nonzero values
(1/sqrt(2) for GHZ, 2^{-n/2} for the QFT), so `max_err` means the same
at every n. A result fails its oracle when that deviation exceeds
TOLERANCE.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from typing import Callable

import qdd
from qdd.mdd import node_count as matrix_node_count
from qdd.vdd import node_count as vector_node_count

# Amplitudes (or matrix entries) read back per result.
SAMPLES = 4096
# Largest relative deviation an oracle accepts.
TOLERANCE = 1e-8


@dataclass
class Case:
    circuit: qdd.Circuit
    x: int = 0  # basis input of the QFT statevector workloads


@dataclass
class Workload:
    name: str
    n: int
    mode: str
    kind: str  # "statevector" or "unitary"
    batch: int  # cases per run, all from one seed
    rationale: str
    cases: Callable[..., list[Case]] = field(repr=False)  # (workload, seed)
    oracle: Callable[..., float] = field(repr=False)  # (workload, store, root, case, seed)

    def make_cases(self, seed: int) -> list[Case]:
        return self.cases(self, seed)

    def simulate(self, case: Case, store: qdd.NodeStore):
        if self.kind == "unitary":
            return qdd.simulate_unitary(case.circuit, self.mode, store=store)
        return qdd.simulate_statevector(case.circuit, self.mode, store=store)

    def final_nodes(self, store: qdd.NodeStore, root: tuple) -> int:
        if self.kind == "unitary":
            return matrix_node_count(store, root)
        return vector_node_count(store, root)

    def check(self, store: qdd.NodeStore, root: tuple, case: Case, seed: int) -> float:
        """Largest relative deviation from the closed form."""
        return self.oracle(self, store, root, case, seed)


def _rng(name: str, seed: int, purpose: str) -> random.Random:
    return random.Random(f"{name}/{seed}/{purpose}")


# -- GHZ -------------------------------------------------------------------


def _ghz_cases(wl: Workload, seed: int) -> list[Case]:
    return [Case(qdd.gen_ghz(wl.n))]


def _ghz_oracle(wl: Workload, store, root, case: Case, seed: int) -> float:
    """vnorm2 = 1; amplitudes 0 and 2^n-1 are 1/sqrt(2); seeded others are 0."""
    n = wl.n
    top = (1 << n) - 1
    half = math.sqrt(0.5)
    expected = {0: half, top: half}
    rng = _rng(wl.name, seed, "readback")
    for _ in range(SAMPLES - 2):
        expected.setdefault(rng.randrange(1, top), 0.0)
    err = abs(qdd.vnorm2(store, root) - 1.0)
    for k, v in expected.items():
        err = max(err, abs(qdd.amplitude(store, root, k) - v) / half)
    return err


# -- QFT statevector -----------------------------------------------------------


def qft_on_basis(n: int, x: int) -> qdd.Circuit:
    """X on the set bits of x (wire 0 is the most significant), then the QFT."""
    c = qdd.Circuit(n, name="qft")
    for wire in range(n):
        if (x >> (n - 1 - wire)) & 1:
            c.add("x", wire)
    c.gates.extend(qdd.gen_qft(n).gates)
    return c


def _qft_sv_cases(wl: Workload, seed: int) -> list[Case]:
    rng = _rng("qft-sv", seed, "input")  # shared by both modes
    xs = [rng.getrandbits(wl.n) for _ in range(wl.batch)]
    return [Case(qft_on_basis(wl.n, x), x) for x in xs]


def _fourier(n: int, m: int) -> complex:
    """e^{2 pi i m / 2^n} / 2^{n/2} for 0 <= m < 2^n."""
    return cmath.exp(2j * math.pi * (m / (1 << n))) * 2.0 ** (-n / 2)


def _qft_sv_oracle(wl: Workload, store, root, case: Case, seed: int) -> float:
    """Amplitude k of QFT|x> is e^{2 pi i (x k mod 2^n) / 2^n} / 2^{n/2}."""
    n = wl.n
    size = 1 << n
    scale = 2.0 ** (n / 2)
    rng = _rng(wl.name, seed, "readback")
    ks = {0, size - 1} | {rng.randrange(size) for _ in range(SAMPLES - 2)}
    err = abs(qdd.vnorm2(store, root) - 1.0)
    for k in ks:
        got = qdd.amplitude(store, root, k)
        err = max(err, abs(got - _fourier(n, (case.x * k) % size)) * scale)
    return err


# -- QFT unitary -------------------------------------------------------------


def _qft_unitary_cases(wl: Workload, seed: int) -> list[Case]:
    return [Case(qdd.gen_qft(wl.n))]


def _qft_unitary_oracle(wl: Workload, store, root, case: Case, seed: int) -> float:
    """Entry (j, k) of the QFT matrix is e^{2 pi i j k / 2^n} / 2^{n/2}."""
    n = wl.n
    size = 1 << n
    scale = 2.0 ** (n / 2)
    rng = _rng(wl.name, seed, "readback")
    err = 0.0
    for _ in range(SAMPLES):
        j, k = rng.randrange(size), rng.randrange(size)
        got = qdd.matrix_entry(store, root, j, k, n)
        err = max(err, abs(got - _fourier(n, (j * k) % size)) * scale)
    return err


WORKLOADS: dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload(
            name="ghz",
            n=512,
            mode=qdd.MODE_NEW,
            kind="statevector",
            batch=1,
            rationale=(
                "The skipped-level branch of _mul_mv is the whole run and the "
                "compute table sees only misses, so a change that bypasses the "
                "table or cheapens vector-node creation shows here first. It is "
                "the only workload whose gate loop runs on run_deep's worker "
                "thread (n > 200), and Python's cyclic GC is a large share of "
                "its time. It bypasses weight interning (a handful of values), "
                "gate DDs (2 nodes per gate) and node GC. The seed picks which "
                "amplitudes are read back."
            ),
            cases=_ghz_cases,
            oracle=_ghz_oracle,
        ),
        Workload(
            name="qft-sv",
            n=64,
            mode=qdd.MODE_NEW,
            kind="statevector",
            batch=4,
            rationale=(
                "Same skip path as ghz, but the compute table earns hits, so a "
                "change that helps ghz by bypassing the table shows its cost "
                "here. Thousands of gates make per-gate driver overhead count. "
                "The exact final state is a product state of n nodes, but the "
                "engine loses canonicity under rounding on it: the final state "
                "has several times n nodes and the count depends on the input. "
                "That known defect is the cause of this workload's node counts "
                "and of their spread across seeds; it is kept visible on "
                "purpose (a |0> input would hide it). Each seed gives a batch "
                "of basis inputs so the run time does not hinge on one input."
            ),
            cases=_qft_sv_cases,
            oracle=_qft_sv_oracle,
        ),
        Workload(
            name="qft-legacy",
            n=64,
            mode=qdd.MODE_LEGACY,
            kind="statevector",
            batch=4,
            rationale=(
                "The paper's baseline on inputs identical to qft-sv: every gate "
                "DD is padded with identity nodes to full height, so matrix-node "
                "creation and matrix unique-table hits dominate. It is the only "
                "workload where the mdd layer and refcounting of gate DDs are a "
                "first-order cost, and it guards any consolidation of the two "
                "modes."
            ),
            cases=_qft_sv_cases,
            oracle=_qft_sv_oracle,
        ),
        Workload(
            name="qft-unitary",
            n=9,
            mode=qdd.MODE_NEW,
            kind="unitary",
            batch=1,
            rationale=(
                "Runs _mul_mm/_add_m and no vectors. The final operator has no "
                "sharing ((4^n-1)/3 nodes), weight interning is a large share of "
                "self time with far more exact-cache keys than values, and it is "
                "the only workload on which node GC runs. The seed picks which "
                "matrix entries are checked."
            ),
            cases=_qft_unitary_cases,
            oracle=_qft_unitary_oracle,
        ),
    )
}
