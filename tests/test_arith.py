"""DD arithmetic: matrix-vector, matrix-matrix, additions, level skipping."""

import math

import numpy as np
import pytest

from dense import build_vdd, random_state, read_matrix, read_state, simulate, spec_matrix
from invariants import identity_node_ids
from qdd import (
    Circuit,
    GateSpec,
    NodeStore,
    add_vectors,
    amplitude,
    gen_ghz,
    gen_qft,
    make_basis_state,
    make_gate_dd,
    multiply_mm,
    multiply_mv,
    simulate_statevector,
    vnorm2,
)
from qdd.arith import _add_m
from qdd.store import MUL_MV, StoreError, TERMINAL, ZERO_EDGE
from qdd.weights import ONE

SQ2 = 1.0 / math.sqrt(2.0)
H = (SQ2, SQ2, SQ2, -SQ2)
X = (0, 1, 1, 0)
Z = (1, 0, 0, -1)


@pytest.fixture
def store():
    return NodeStore(12)


def test_bell_preparation(store):
    # two-gate flow onto |00>: H on the top level, then the downward cnot
    state = make_basis_state(store, 2, "00")
    h = make_gate_dd(store, GateSpec(H, 1), 2)
    state = multiply_mv(store, h, state)
    cx = make_gate_dd(store, GateSpec(X, 0, ((1, True),)), 2)
    state = multiply_mv(store, cx, state)
    got = read_state(store, state, 2)
    assert np.abs(got - np.array([SQ2, 0, 0, SQ2])).max() < 1e-12


def test_terminal_matrix_edge_is_scaled_identity(store):
    state = make_basis_state(store, 4, "0110")
    half = store.weights.intern(0.5, 0.0)
    scaled = multiply_mv(store, (TERMINAL, half), state)
    assert scaled[0] == state[0]
    assert abs(store.weights.value(scaled[1]) - 0.5) < 1e-13


def test_skip_region_memoized_per_vector_node():
    # H on all 64 levels gives a chain whose nodes have equal successors,
    # so a skip recursion without a per-node memo would take 2^63 paths:
    # above the root of a gate on level 0, and inside a phase on level 63
    # controlled by level 0, which skips levels 62..1
    n = 64
    store = NodeStore(n)
    state = make_basis_state(store, n, "0" * n)
    for level in range(n):
        state = multiply_mv(store, make_gate_dd(store, GateSpec(H, level), n), state)
    created = store.vec.created
    state = multiply_mv(store, make_gate_dd(store, GateSpec(Z, 0), n), state)
    assert store.vec.created - created == n
    assert abs(amplitude(store, state, 0) - 2.0**-32) < 1e-22
    assert abs(amplitude(store, state, 2**n - 1) + 2.0**-32) < 1e-22

    top = 2 ** (n - 1)
    indices = (0, 1, 5, top, top + 1, top + 2, top + 12345, 2**n - 1)
    before = [amplitude(store, state, i) for i in indices]
    created = store.vec.created
    cs = make_gate_dd(store, GateSpec((1, 0, 0, 1j), n - 1, ((0, True),)), n)
    state = multiply_mv(store, cs, state)
    assert store.vec.created - created == n
    for i, amp in zip(indices, before):
        assert amplitude(store, state, i) == (amp * 1j if i >= top and i & 1 else amp)


def test_compute_table_consulted_only_at_matrix_nodes(monkeypatch):
    # every skipped level is memoized per call, so a MUL_MV key pairs a
    # matrix node with a vector node of the same level
    keys = []
    lookup = NodeStore.ct_lookup

    def spy(self, tag, key):
        if tag == MUL_MV:
            keys.append(key)
        return lookup(self, tag, key)

    monkeypatch.setattr(NodeStore, "ct_lookup", spy)
    n = 16
    circuit = Circuit(n)
    for wire in (0, 3, 4, 9, 15):
        circuit.add("x", wire)
    circuit.gates.extend(gen_qft(n).gates)
    store = NodeStore(n)
    simulate_statevector(circuit, "new", store=store)
    assert keys
    assert all(store.mat.level[ut] == store.vec.level[vt] for ut, vt in keys)


def test_retargeted_node_skips_normalization(monkeypatch):
    # a rebuilt vector node that keeps its weights goes straight to the
    # unique table: on GHZ-64 only the node a gate changes is normalized,
    # and the same nodes are found and created as by normalizing each
    import qdd.arith
    import qdd.sim

    calls = []
    make_node = qdd.arith.make_vector_node
    multiply = qdd.sim.multiply_mv

    def counting_make_node(store, level, e0, e1):
        # a pair in normal_pairs is a stored node's: it is not normalized
        if (e0[1], e1[1]) not in store.normal_pairs:
            calls.append((level, e0, e1))
        return make_node(store, level, e0, e1)

    per_gate = []

    def counting_multiply(*args):
        before = len(calls)
        result = multiply(*args)
        per_gate.append(len(calls) - before)
        return result

    monkeypatch.setattr(qdd.arith, "make_vector_node", counting_make_node)
    monkeypatch.setattr(qdd.sim, "multiply_mv", counting_multiply)
    store = NodeStore(64)
    simulate_statevector(gen_ghz(64), "new", store=store)
    assert len(per_gate) == 64
    assert max(per_gate) <= 1
    assert (store.vec.created, store.vec.lookups) == (2144, 2206)


def test_single_node_gate_on_100_qubits():
    # oracle: dense simulation at n=10 plus amplitude spot checks at n=100
    n10 = NodeStore(10)
    state = make_basis_state(n10, 10, "0" * 10)
    h = make_gate_dd(n10, GateSpec(H, 0), 10)
    state = multiply_mv(n10, h, state)
    dense_c = Circuit(10, name="h0")
    dense_c.add("h", 9)  # wire 9 = level 0
    assert np.abs(read_state(n10, state, 10) - simulate(dense_c)).max() < 1e-12

    big = NodeStore(100)
    state = make_basis_state(big, 100, "0" * 100)
    h = make_gate_dd(big, GateSpec(H, 0), 100)
    state = multiply_mv(big, h, state)
    from qdd import amplitude

    assert abs(amplitude(big, state, 0) - SQ2) < 1e-12
    assert abs(amplitude(big, state, 1) - SQ2) < 1e-12
    assert amplitude(big, state, 2) == 0


def test_multiply_level_mismatch_rejected(store):
    # a gate on level 2 is rooted above a 2-qubit state (root level 1)
    state = make_basis_state(store, 2, "00")
    gate = make_gate_dd(store, GateSpec(X, 2), 3)
    with pytest.raises(StoreError, match="matrix rooted above the vector's level 1"):
        multiply_mv(store, gate, state)


def test_multiply_terminal_vector_rejected():
    # a terminal vector edge reads as level -1, below every matrix node
    store = NodeStore(3)
    make_basis_state(store, 3, "000")
    gate = make_gate_dd(store, GateSpec(X, 0), 3)
    with pytest.raises(StoreError, match="matrix rooted above the vector's level -1"):
        multiply_mv(store, gate, (TERMINAL, ONE))


def test_add_terminal_vectors_rejected():
    # a terminal edge added to a node is rejected; two terminal edges are
    # 0-level states and add as scalars
    store = NodeStore(3)
    state = make_basis_state(store, 3, "000")
    for a, b in (((TERMINAL, ONE), state), (state, (TERMINAL, ONE))):
        with pytest.raises(StoreError, match="vectors rooted at levels"):
            add_vectors(store, a, b)
    half = store.weights.intern(0.5)
    assert add_vectors(store, (TERMINAL, half), (TERMINAL, half)) == (TERMINAL, ONE)


def test_zero_operands(store):
    state = make_basis_state(store, 3, "000")
    gate = make_gate_dd(store, GateSpec(X, 1), 3)
    assert multiply_mv(store, gate, ZERO_EDGE) == ZERO_EDGE
    assert multiply_mv(store, ZERO_EDGE, state) == ZERO_EDGE


def test_add_vectors_zero_neutral(store):
    v = make_basis_state(store, 3, "010")
    assert add_vectors(store, v, ZERO_EDGE) == v
    assert add_vectors(store, ZERO_EDGE, v) == v


def test_add_vectors_builds_bell(store):
    a = make_basis_state(store, 2, "00")
    b = make_basis_state(store, 2, "11")
    half = store.weights.intern(SQ2, 0.0)
    bell = add_vectors(store, (a[0], half), (b[0], half))
    got = read_state(store, bell, 2)
    assert np.abs(got - np.array([SQ2, 0, 0, SQ2])).max() < 1e-12


@pytest.mark.parametrize("n", [2, 4, 8])
def test_add_vectors_commutes(n):
    # oracle: dense addition
    rng = np.random.default_rng(31 + n)
    store = NodeStore(n)
    va = random_state(n, rng)
    vb = random_state(n, rng)
    ea = build_vdd(store, va)
    eb = build_vdd(store, vb)
    ab = add_vectors(store, ea, eb)
    ba = add_vectors(store, eb, ea)
    assert ab[0] == ba[0]
    assert np.abs(read_state(store, ab, n) - (va + vb)).max() < 1e-10


def test_multiply_mm_bell_unitary(store):
    # whole-circuit operator: rows (1 0 1 0; 0 1 0 1; 0 1 0 -1; 1 0 -1 0)/sqrt2
    h = make_gate_dd(store, GateSpec(H, 1), 2)
    cx = make_gate_dd(store, GateSpec(X, 0, ((1, True),)), 2)
    u = multiply_mm(store, cx, h)
    expect = np.array(
        [[1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 0, -1], [1, 0, -1, 0]], dtype=complex
    ) * SQ2
    assert np.abs(read_matrix(store, u, 2) - expect).max() < 1e-12


def test_x_squared_is_identity_no_nodes(store):
    x = make_gate_dd(store, GateSpec(X, 4), 12)
    created = store.mat.created
    prod = multiply_mm(store, x, x)
    assert prod == (TERMINAL, ONE)
    assert store.mat.created == created


@pytest.mark.parametrize("n", [2, 4, 6])
def test_product_with_adjoint_is_identity(n):
    # oracle: dense matrix product
    rng = np.random.default_rng(47 + n)
    store = NodeStore(n)
    from test_mdd import _random_specs

    specs = _random_specs(rng, n, 6)
    acc = (TERMINAL, ONE)
    for spec in specs:
        g = make_gate_dd(store, spec, n)
        acc = multiply_mm(store, g, acc)
    dense = np.eye(1 << n, dtype=complex)
    for spec in specs:
        dense = spec_matrix(spec, n) @ dense
    assert np.abs(read_matrix(store, acc, n) - dense).max() < 1e-10
    adj = (TERMINAL, ONE)
    for spec in specs:
        u00, u01, u10, u11 = spec.base
        dag = GateSpec(
            (u00.conjugate(), u10.conjugate(), u01.conjugate(), u11.conjugate()),
            spec.target,
            spec.controls,
        )
        g = make_gate_dd(store, dag, n)
        adj = multiply_mm(store, adj, g)
    prod = multiply_mm(store, acc, adj)
    got = read_matrix(store, prod, n)
    assert np.abs(got - np.eye(1 << n)).max() < 1e-10


def test_add_matrices_zero_neutral(store):
    m = make_gate_dd(store, GateSpec(H, 2), 5)
    assert _add_m(store, m, ZERO_EDGE) == m
    assert _add_m(store, ZERO_EDGE, m) == m
    assert multiply_mm(store, m, ZERO_EDGE) == ZERO_EDGE


def test_add_matrices_operands_at_different_levels(store):
    # oracle: dense kron(I, H) + 0.5*I; the scaled-identity operand skips
    # the top level and expands on the fly
    h0 = make_gate_dd(store, GateSpec(H, 0), 2)
    half = store.weights.intern(0.5, 0.0)
    total = _add_m(store, h0, (TERMINAL, half))
    dense = np.kron(np.eye(2), np.array([[SQ2, SQ2], [SQ2, -SQ2]])) + 0.5 * np.eye(4)
    assert np.abs(read_matrix(store, total, 2) - dense).max() < 1e-12


def test_add_matrices_identity_absorption(store):
    half = store.weights.intern(0.5, 0.0)
    created = store.mat.created
    total = _add_m(store, (TERMINAL, half), (TERMINAL, half))
    assert total == (TERMINAL, ONE)
    assert store.mat.created == created


def test_cnot_from_projector_sum(store):
    # oracle: the dense 4x4 sum equals the controlled-not block matrix
    # projectors are not unitary gates
    with pytest.raises(ValueError, match="not unitary"):
        GateSpec((1, 0, 0, 0), 1)  # |0><0| on the control level
    with pytest.raises(ValueError, match="not unitary"):
        GateSpec((0, 0, 0, 1), 1)

    # build the projector DDs directly instead
    from qdd.mdd import make_matrix_node

    # |0><0| (x) I: the terminal quadrant already reads as identity below
    lhs = make_matrix_node(store, 1, [(TERMINAL, ONE), ZERO_EDGE, ZERO_EDGE, ZERO_EDGE])
    x0 = make_gate_dd(store, GateSpec(X, 0), 1)
    rhs = make_matrix_node(store, 1, [ZERO_EDGE, ZERO_EDGE, ZERO_EDGE, x0])
    cnot = _add_m(store, lhs, rhs)
    dense = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    assert np.abs(read_matrix(store, cnot, 2) - dense).max() < 1e-12
    direct = make_gate_dd(store, GateSpec(X, 0, ((1, True),)), 2)
    assert cnot == direct


@pytest.mark.parametrize("n", [2, 5, 8])
def test_distributivity(n):
    rng = np.random.default_rng(61 + n)
    store = NodeStore(n)
    from test_mdd import _random_specs

    spec = _random_specs(rng, n, 1)[0]
    gate = make_gate_dd(store, spec, n)
    x = build_vdd(store, random_state(n, rng))
    y = build_vdd(store, random_state(n, rng))
    lhs = multiply_mv(store, gate, add_vectors(store, x, y))
    rhs = add_vectors(store, multiply_mv(store, gate, x), multiply_mv(store, gate, y))
    assert np.abs(read_state(store, lhs, n) - read_state(store, rhs, n)).max() < 1e-10


def test_norm_preserved_through_gates(store):
    rng = np.random.default_rng(3)
    from test_mdd import _random_specs

    n = 6
    sub = NodeStore(n)
    state = make_basis_state(sub, n, "0" * n)
    for spec in _random_specs(rng, n, 25):
        gate = make_gate_dd(sub, spec, n)
        state = multiply_mv(sub, gate, state)
        assert abs(vnorm2(sub, state) - 1.0) < 1e-9


def test_new_mode_arithmetic_leaves_no_identity_nodes():
    rng = np.random.default_rng(11)
    from test_mdd import _random_specs

    n = 7
    store = NodeStore(n)
    state = make_basis_state(store, n, "0" * n)
    acc = (TERMINAL, ONE)
    for spec in _random_specs(rng, n, 20):
        gate = make_gate_dd(store, spec, n)
        state = multiply_mv(store, gate, state)
        acc = multiply_mm(store, gate, acc)
    assert identity_node_ids(store) == []
