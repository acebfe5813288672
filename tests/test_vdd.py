"""Vector DD construction, normalization, and readback."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense import build_vdd, random_state, read_state
from invariants import check_fixed_points, check_normalization, zero_weights_off_terminal
from qdd import (
    Circuit,
    NodeStore,
    add_vectors,
    amplitude,
    generate,
    make_basis_state,
    make_vector_node,
    simulate_statevector,
    vnorm2,
)
from qdd.circuit import _GATES
from qdd.store import TERMINAL, ZERO_EDGE
from qdd.vdd import node_count
from qdd.weights import ONE, ZERO

SQ2 = 1.0 / math.sqrt(2.0)


@pytest.fixture
def store():
    return NodeStore(12)


def test_two_zero_edges_collapse(store):
    assert make_vector_node(store, 0, ZERO_EDGE, ZERO_EDGE) == ZERO_EDGE
    assert store.vec.created == 0


def test_basis_node_shape(store):
    edge = make_vector_node(store, 0, (TERMINAL, ONE), ZERO_EDGE)
    assert edge[1] == ONE
    t0, w0, t1, w1 = store.vec.succ[edge[0]]
    assert (t0, w0) == (TERMINAL, ONE)
    assert w1 == 0


def test_equal_halves_normalize():
    # oracle: dense 2-vector (1, 1) = sqrt(2) * (1/sqrt2, 1/sqrt2)
    store = NodeStore(1)
    edge = make_vector_node(store, 0, (TERMINAL, ONE), (TERMINAL, ONE))
    wt = store.weights
    assert abs(wt.value(edge[1]) - math.sqrt(2.0)) < 1e-13
    _, w0, _, w1 = store.vec.succ[edge[0]]
    assert abs(wt.value(w0) - SQ2) < 1e-13
    assert abs(wt.value(w1) - SQ2) < 1e-13


def test_weight_zeroed_by_normalization_gets_stub(store):
    # 1.5e-13 is above the weight tolerance, but 7.5e-14 after dividing by
    # the norm 2 is not: the node must match the one built from ZERO_EDGE
    wt = store.weights
    tiny = (TERMINAL, wt.intern(1.5e-13))
    big = (TERMINAL, wt.intern(2.0))
    assert make_vector_node(store, 0, big, tiny) == make_vector_node(store, 0, big, ZERO_EDGE)
    assert store.vec.succ[make_vector_node(store, 0, big, tiny)[0]] == (TERMINAL, ONE, TERMINAL, ZERO)
    # a tiny first weight also fixed the phase; dropping it must move the
    # lead to the second weight
    neg = (TERMINAL, wt.intern(-2.0))
    assert make_vector_node(store, 0, tiny, neg) == make_vector_node(store, 0, ZERO_EDGE, neg)


def test_basis_state_amplitudes(store):
    v = make_basis_state(store, 2, "00")
    assert amplitude(store, v, 0) == 1.0
    assert all(amplitude(store, v, i) == 0 for i in (1, 2, 3))
    v = make_basis_state(store, 3, "101")
    assert amplitude(store, v, 5) == 1.0


def test_basis_state_chain_of_100_nodes():
    store = NodeStore(100)
    v = make_basis_state(store, 100, "0" * 100)
    assert node_count(store, v) == 100
    assert v[1] == ONE


def test_basis_state_rejects_bad_input(store):
    with pytest.raises(ValueError):
        make_basis_state(store, 0, "")
    with pytest.raises(ValueError):
        make_basis_state(store, 3, "01")
    with pytest.raises(ValueError):
        make_basis_state(store, 2, "0x")
    with pytest.raises(ValueError, match="store has 4 levels, 8 needed"):
        make_basis_state(NodeStore(4), 8, "0" * 8)


def test_amplitude_range_check(store):
    v = make_basis_state(store, 2, "00")
    with pytest.raises(ValueError):
        amplitude(store, v, 4)
    with pytest.raises(ValueError):
        amplitude(store, v, -1)


def test_amplitude_of_terminal_edge_is_a_scalar():
    # a terminal edge has no node to read a level from, so it spans 0 levels
    store = NodeStore(3)
    make_basis_state(store, 3, "101")
    half = store.weights.intern(0.5, 0.0)
    assert amplitude(store, (TERMINAL, half), 0) == 0.5
    for index in (1, 5, -1):
        with pytest.raises(ValueError):
            amplitude(store, (TERMINAL, ONE), index)


def bell_edge(store):
    a = make_basis_state(store, 2, "00")
    b = make_basis_state(store, 2, "11")
    half = store.weights.intern(SQ2, 0.0)
    return add_vectors(store, (a[0], half), (b[0], half))


def test_bell_amplitudes(store):
    bell = bell_edge(store)
    assert abs(amplitude(store, bell, 0) - SQ2) < 1e-13
    assert amplitude(store, bell, 1) == 0
    assert amplitude(store, bell, 2) == 0
    assert abs(amplitude(store, bell, 3) - SQ2) < 1e-13


def test_vnorm2(store):
    assert vnorm2(store, ZERO_EDGE) == 0.0
    v = make_basis_state(store, 4, "0110")
    assert abs(vnorm2(store, v) - 1.0) < 1e-12
    bell = bell_edge(store)
    assert abs(vnorm2(store, bell) - 1.0) < 1e-12


def test_vnorm2_deep_state():
    # 1,500 levels is deeper than the default recursion limit
    store = NodeStore(1500)
    v = make_basis_state(store, 1500, "1" * 1500)
    assert vnorm2(store, v) == 1.0


def test_vnorm2_matches_top_down_sum():
    # the same sums in the same order as a memoized top-down recursion
    rng = np.random.default_rng(7)
    store = NodeStore(9)
    v = build_vdd(store, random_state(9, rng))
    mag2 = store.weights.mag2
    memo = {TERMINAL: 1.0}

    def norm2(node):
        if node not in memo:
            t0, w0, t1, w1 = store.vec.succ[node]
            total = 0.0
            if w0 != ZERO:
                total += mag2[w0] * norm2(t0)
            if w1 != ZERO:
                total += mag2[w1] * norm2(t1)
            memo[node] = total
        return memo[node]

    assert vnorm2(store, v) == mag2[v[1]] * norm2(v[0])


@pytest.mark.parametrize("n", [1, 2, 4, 7, 10])
def test_dense_round_trip(n):
    # oracle: the dense vector itself
    rng = np.random.default_rng(100 + n)
    store = NodeStore(n)
    vec = random_state(n, rng)
    edge = build_vdd(store, vec)
    back = read_state(store, edge, n)
    assert np.abs(back - vec).max() < 1e-10


@pytest.mark.parametrize("n", [2, 5, 8])
def test_construction_order_canonicity(n):
    # same dense vector built twice lands on the same node and weight
    rng = np.random.default_rng(200 + n)
    store = NodeStore(n)
    vec = random_state(n, rng)
    e1 = build_vdd(store, vec)
    e2 = build_vdd(store, vec)
    assert e1[0] == e2[0]
    wt = store.weights
    assert abs(wt.value(e1[1]) - wt.value(e2[1])) <= 2e-13

    # and via a different route: sum of two halves of the amplitudes
    mask = np.zeros_like(vec)
    mask[: vec.size // 2] = 1.0
    p1 = build_vdd(store, vec * mask)
    p2 = build_vdd(store, vec * (1.0 - mask))
    summed = add_vectors(store, p1, p2)
    assert summed[0] == e1[0]


def test_all_live_nodes_locally_normalized():
    rng = np.random.default_rng(7)
    store = NodeStore(6)
    for _ in range(20):
        build_vdd(store, random_state(6, rng))
    assert check_normalization(store) == []


def test_cancelled_pair_is_the_zero_edge(store):
    # a pair with norm at most 100 * TOLERANCE is a sum that cancelled
    # below the weight resolution; just above it, it is a node
    wt = store.weights
    for re, zero in ((7e-12, True), (2e-11, False)):
        edge = (TERMINAL, wt.intern(re))
        assert (make_vector_node(store, 0, edge, edge) == ZERO_EDGE) is zero


def test_small_norm_pair_is_normalized_by_the_exact_factor():
    # the normalization factor, about 3.7e-10, interns onto the first
    # weight's handle 1.5e-15 away; dividing by that handle would store
    # the pair (1, -0.0029), whose squared norm is 8e-6 above 1
    store = NodeStore(1)
    wt = store.weights
    a = (TERMINAL, wt.intern(3.5697323118696755e-10, 7.954994582874025e-11))
    b = (TERMINAL, wt.intern(-1.0264830764660828e-12, -2.287473289116942e-13))
    edge = make_vector_node(store, 0, a, b)
    assert check_normalization(store) == []
    assert check_fixed_points(store) == []
    assert make_vector_node(store, 0, a, b) == edge
    # the edge carries the interned factor, off by its 1.5e-15
    assert abs(amplitude(store, edge, 0) - wt.values[a[1]]) < 1e-14
    assert abs(amplitude(store, edge, 1) - wt.values[b[1]]) < 1e-14


# every stored vector node must be a fixed point of make_vector_node, so
# that a node rebuilt with a stored node's weights needs no normalizing.
# From 21 qubits on, QPE's rounding noise makes pairs whose interned
# normalization factor is too far off to divide by (991 at QPE-21, 3,482
# at QPE-22, none up to QPE-19): a scale the random circuits below, of at
# most 8 qubits, do not reach.
@pytest.mark.parametrize("mode", ["new", "legacy"])
@pytest.mark.parametrize("n", [*range(11, 20), 21, 22])
def test_qpe_stores_only_fixed_points(n, mode):
    store = NodeStore(n)
    simulate_statevector(generate("qpe", n), mode, store=store)
    assert check_normalization(store) == []
    assert check_fixed_points(store) == []


# the phase ladder 2*pi/2^k reaches far below the weight tolerance
ANGLES = st.one_of(
    st.integers(0, 50).map(lambda k: 2.0 * math.pi / 2**k),
    st.floats(-2.0 * math.pi, 2.0 * math.pi),
)


@st.composite
def circuits(draw):
    n = draw(st.integers(1, 8))
    circuit = Circuit(n)
    names = sorted(name for name, row in _GATES.items() if row[0] < n)
    for _ in range(draw(st.integers(1, 24))):
        name = draw(st.sampled_from(names))
        controls, nparams = _GATES[name][:2]
        width = draw(st.integers(1, n)) if controls < 0 else controls + 1
        wires = draw(st.permutations(range(n)))[:width]
        circuit.add(name, *wires, params=tuple(draw(ANGLES) for _ in range(nparams)))
    return circuit


@settings(max_examples=60, deadline=None)
@given(circuits())
def test_random_circuits_store_only_fixed_points(circuit):
    for mode in ("new", "legacy"):
        store = NodeStore(circuit.n)
        simulate_statevector(circuit, mode, store=store)
        assert check_normalization(store) == []
        assert check_fixed_points(store) == []
        assert zero_weights_off_terminal(store) == []


def _seeded_circuit(rng, n, gates):
    circuit = Circuit(n)
    names = sorted(name for name, row in _GATES.items() if 0 <= row[0] < n)
    for _ in range(gates):
        name = rng.choice(names)
        controls, nparams = _GATES[name][:2]
        wires = rng.sample(range(n), controls + 1)
        params = tuple(rng.uniform(-2.0 * math.pi, 2.0 * math.pi) for _ in range(nparams))
        circuit.add(name, *wires, params=params)
    return circuit


def _add_then_subtract(seed, qubits, gates):
    """States s and t of two seeded random circuits in one store, and
    (s + t) - t computed there; canonicity needs it to reach s's root."""
    rng = random.Random(seed)
    n = rng.randint(*qubits)
    store = NodeStore(n)
    s, _ = simulate_statevector(_seeded_circuit(rng, n, rng.randint(*gates)), store=store)
    t, _ = simulate_statevector(_seeded_circuit(rng, n, rng.randint(*gates)), store=store)
    wt = store.weights
    minus_t = (t[0], wt.mul(t[1], wt.intern(-1.0)))
    return store, n, s, add_vectors(store, add_vectors(store, s, t), minus_t)


def _same_edge(store, a, b):
    values = store.weights.values
    return a[0] == b[0] and abs(values[a[1]] - values[b[1]]) < 1e-10


def test_add_then_subtract_returns_to_the_root():
    missed = []
    for seed in range(400):
        store, _n, s, back = _add_then_subtract(seed, (2, 6), (1, 20))
        if not _same_edge(store, s, back):
            missed.append(seed)
    assert missed == []


def _unshared(seed, n, before, after):
    reason = (
        f"equal subvectors on distinct nodes: {n} qubits, the root grows "
        f"from {before} to {after} nodes with the same amplitudes"
    )
    return pytest.param(seed, marks=pytest.mark.xfail(strict=True, reason=reason))


# Larger circuits reach the QFT-64 defect of canonicity at 7 to 10 qubits:
# the round trip lands on the same amplitudes, exact zeros included, but
# on a bigger DD whose equal subvectors sit on distinct nodes.
@pytest.mark.parametrize(
    "seed", [_unshared(5, 10, 10, 25), _unshared(85, 7, 22, 30), _unshared(132, 9, 19, 24)]
)
def test_add_then_subtract_on_larger_circuits(seed):
    store, n, s, back = _add_then_subtract(seed, (6, 12), (20, 80))
    want = read_state(store, s, n)
    got = read_state(store, back, n)
    assert np.abs(got - want).max() < 1e-12
    assert np.array_equal(got == 0, want == 0)
    assert _same_edge(store, s, back)
