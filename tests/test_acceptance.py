"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The large-scale checks
(criteria 9 and 10) take a couple of minutes combined.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np

import dense
from invariants import identity_node_ids
from qdd import (
    GateSpec,
    NodeStore,
    amplitude,
    gen_bv,
    gen_ghz,
    gen_grover,
    gen_qft,
    gen_qpe,
    gen_w,
    make_gate_dd,
    parse_qasm,
    simulate_statevector,
    simulate_unitary,
)
from qdd.cli import main
from qdd.store import VEC
from qdd.vdd import make_basis_state
from qdd.arith import add_vectors, multiply_mv

S2 = math.sqrt(0.5)
X = (0, 1, 1, 0)
H = (S2, S2, S2, -S2)
BELL = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n"


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {text}")
        raise
    print(f"ACCEPTANCE {num} PASS: {text}")


def _assert_identity_free(store: NodeStore):
    assert identity_node_ids(store) == []


def test_criterion_1_bell_correctness():
    with criterion(1, "Bell amplitudes exact to 1e-12 in both modes, under 1s"):
        circuit = parse_qasm(BELL)
        expect = np.array([S2, 0, 0, S2])
        for mode in ("new", "legacy"):
            store = NodeStore(2)
            state, report = simulate_statevector(circuit, mode, store=store)
            got = dense.read_state(store, state, 2)
            assert np.abs(got - expect).max() <= 1e-12
            assert report.wall_time_seconds < 1.0
            if mode == "new":
                _assert_identity_free(store)


def test_criterion_2_gate_dd_node_counts():
    with criterion(2, "100-qubit gate DDs: H 1 vs 100 nodes, CNOT 2 vs 199"):
        t0 = time.perf_counter()
        cases = [
            (GateSpec(H, 0), "new", 1),
            (GateSpec(X, 0, ((99, True),)), "new", 2),
            (GateSpec(H, 0), "legacy", 100),
            (GateSpec(X, 0, ((99, True),)), "legacy", 199),
        ]
        for spec, mode, expected in cases:
            store = NodeStore(100, mode=mode)
            make_gate_dd(store, spec, 100)
            assert store.mat.created == expected
        assert time.perf_counter() - t0 < 1.0


def test_criterion_3_ghz_node_counts(tmp_path):
    with criterion(3, "GHZ new mode: |V| = 2n-1 and no GC at n in {64,128,256}"):
        out = tmp_path / "ghz256.json"
        code = main(
            [
                "simulate", "--benchmark", "ghz", "--qubits", "256",
                "--mode", "new", "--stats-json", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["matrix_nodes_created"] == 511
        assert payload["gc_runs"] == 0
        assert payload["wall_time_seconds"] < 5.0
        for n in (64, 128):
            store = NodeStore(n)
            _state, report = simulate_statevector(gen_ghz(n), "new", store=store)
            assert report.matrix_nodes_created == 2 * n - 1
            assert report.gc_runs == 0
            _assert_identity_free(store)


def test_criterion_4_old_vs_new_ordering():
    with criterion(4, "legacy node counts dominate new mode on every family"):
        instances = [
            gen_ghz(64),
            gen_w(64),
            gen_bv(64),
            gen_qft(64),
            gen_grover(8),
            gen_qpe(8),
        ]
        for circuit in instances:
            _s, new = simulate_statevector(circuit, "new")
            _s, old = simulate_statevector(circuit, "legacy")
            assert new.matrix_nodes_created <= old.matrix_nodes_created
            multi = any(len(g.qubits) >= 2 for g in circuit.gates)
            if multi:
                assert new.matrix_nodes_created < old.matrix_nodes_created
        _s, new = simulate_statevector(gen_ghz(256), "new")
        _s, old = simulate_statevector(gen_ghz(256), "legacy")
        assert old.matrix_nodes_created >= 30 * new.matrix_nodes_created


def test_criterion_5_dense_oracle_equivalence():
    with criterion(5, "statevectors at n<=10 and unitaries at n<=6 match dense"):
        t0 = time.perf_counter()
        state_instances = [
            gen_ghz(10),
            gen_w(10),
            gen_bv(10),
            gen_qft(10),
            gen_qpe(8),  # 8 precision bits + eigenstate wire
            gen_grover(8),
        ]
        for circuit in state_instances:
            store = NodeStore(circuit.n)
            state, _report = simulate_statevector(circuit, "new", store=store)
            got = dense.read_state(store, state, circuit.n)
            want = dense.simulate(circuit)
            assert np.abs(got - want).max() <= 1e-9, circuit.name
            _assert_identity_free(store)
        unitary_instances = [
            gen_ghz(6),
            gen_w(6),
            gen_bv(6),
            gen_qft(6),
            gen_qpe(5),
            gen_grover(6),
        ]
        for circuit in unitary_instances:
            store = NodeStore(circuit.n)
            acc, _report = simulate_unitary(circuit, "new", store=store)
            got = dense.read_matrix(store, acc, circuit.n)
            want = dense.unitary(circuit)
            assert np.abs(got - want).max() <= 1e-9, circuit.name
            _assert_identity_free(store)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_6_identity_purity():
    with criterion(6, "no live matrix node resembles identity after new-mode runs"):
        for circuit in (gen_qft(12), gen_grover(6), gen_w(12)):
            store = NodeStore(circuit.n)
            simulate_statevector(circuit, "new", store=store)
            _assert_identity_free(store)
            store = NodeStore(circuit.n)
            simulate_unitary(circuit, "new", store=store)
            _assert_identity_free(store)


def test_criterion_7_mode_invariance():
    with criterion(7, "new and legacy amplitudes agree to 1e-10 on all families"):
        instances = [
            gen_ghz(12),
            gen_w(12),
            gen_bv(12),
            gen_qft(12),
            gen_qpe(11),
            gen_grover(10),
        ]
        for circuit in instances:
            n = circuit.n
            results = {}
            for mode in ("new", "legacy"):
                store = NodeStore(n)
                state, _report = simulate_statevector(circuit, mode, store=store)
                results[mode] = dense.read_state(store, state, n)
            deviation = np.abs(results["new"] - results["legacy"]).max()
            assert deviation <= 1e-10, (circuit.name, deviation)


def test_criterion_8_randomized_canonicity_and_gc_soundness():
    with criterion(8, "1e4 randomized ops with forced GC keep results bit-identical"):
        rng = np.random.default_rng(2024)
        n = 6
        with_gc = NodeStore(n)
        without_gc = NodeStore(n)
        pools: dict = {id(with_gc): [], id(without_gc): []}

        def both(op):
            res = []
            for store in (with_gc, without_gc):
                res.append(op(store, pools[id(store)]))
            return res

        def push(store, pool, edge):
            store.inc_ref(VEC, edge)
            pool.append(edge)
            if len(pool) > 8:
                store.dec_ref(VEC, pool.pop(0))

        ops = 0
        checks = 0
        while ops < 10_000:
            choice = int(rng.integers(3))
            if choice == 0 or not pools[id(with_gc)]:
                bits = "".join(rng.choice(["0", "1"], size=n))
                both(lambda s, p: push(s, p, make_basis_state(s, n, bits)))
            elif choice == 1 and len(pools[id(with_gc)]) >= 2:
                i, j = rng.integers(len(pools[id(with_gc)]), size=2)
                both(lambda s, p: push(s, p, add_vectors(s, p[int(i)], p[int(j)])))
            else:
                theta = float(rng.uniform(0, 2 * np.pi))
                c, s_ = math.cos(theta / 2), math.sin(theta / 2)
                target = int(rng.integers(n))
                others = [q for q in range(n) if q != target]
                ctrl = (int(rng.choice(others)), True) if rng.integers(2) else None
                spec = GateSpec((c, -s_, s_, c), target, (ctrl,) if ctrl else ())
                i = int(rng.integers(len(pools[id(with_gc)])))

                def apply(store, pool):
                    gate = make_gate_dd(store, spec, n)
                    store.inc_ref("m", gate)
                    out = multiply_mv(store, gate, pool[i])
                    store.dec_ref("m", gate)
                    push(store, pool, out)

                both(apply)
            ops += 1
            if ops % 500 == 0:
                # GC soundness: every live root resolves bit-identically
                # across a forced collection
                idx = int(rng.integers(1 << n))
                pa = pools[id(with_gc)]
                pb = pools[id(without_gc)]
                before = [amplitude(with_gc, e, idx) for e in pa]
                with_gc.collect_garbage()
                after = [amplitude(with_gc, e, idx) for e in pa]
                assert before == after
                # and the collected store agrees with the never-collected
                # twin to interning precision (cache clears reorder which
                # equivalent float reaches the intern table first)
                for ea, eb in zip(pa, pb):
                    assert abs(
                        amplitude(with_gc, ea, idx) - amplitude(without_gc, eb, idx)
                    ) <= 1e-12
                checks += 1
        assert ops >= 10_000 and checks >= 20
        assert with_gc.gc_runs >= 20

        # canonicity: rebuilding a surviving state from its dense readback
        # lands on the same canonical root
        pool = pools[id(with_gc)]
        target_edge = pool[-1]
        vec = dense.read_state(with_gc, target_edge, n)
        norm = np.linalg.norm(vec)
        if norm > 1e-12:
            rebuilt = dense.build_vdd(with_gc, vec / norm)
            assert rebuilt[0] == target_edge[0]


def test_criterion_9_runtime_trend():
    with criterion(9, "new mode at least as fast, GHZ-1024 insertions < 5% of legacy"):
        ghz = gen_ghz(1024)
        _s, ghz_new = simulate_statevector(ghz, "new")
        _s, ghz_old = simulate_statevector(ghz, "legacy")
        assert ghz_new.wall_time_seconds <= ghz_old.wall_time_seconds
        assert ghz_new.matrix_nodes_created < 0.05 * ghz_old.matrix_nodes_created
        qft = gen_qft(128)
        _s, qft_new = simulate_statevector(qft, "new")
        _s, qft_old = simulate_statevector(qft, "legacy")
        assert qft_new.wall_time_seconds <= qft_old.wall_time_seconds


def test_criterion_10_ghz_4096_scale():
    with criterion(10, "GHZ-4096 completes with |V| = 8191 in under 120s"):
        _state, report = simulate_statevector(gen_ghz(4096), "new")
        assert report.matrix_nodes_created == 8191
        assert report.wall_time_seconds < 120.0
