"""Matrix DD construction, identity skipping, gate building, readback."""

import cmath
import math

import numpy as np
import pytest

from dense import read_matrix, spec_matrix
from invariants import identity_node_ids, nodes
from qdd import GateSpec, NodeStore, gen_qft, make_gate_dd, make_matrix_node, matrix_entry
from qdd.mdd import identity_chain, node_count, resembles_identity
from qdd.store import MAT, TERMINAL, ZERO_EDGE, ZERO_STUB
from qdd.weights import ONE, ZERO

SQ2 = 1.0 / math.sqrt(2.0)
H = (SQ2, SQ2, SQ2, -SQ2)
X = (0, 1, 1, 0)
Z = (1, 0, 0, -1)
I2 = (1, 0, 0, 1)


@pytest.fixture
def store():
    return NodeStore(100)


@pytest.fixture
def legacy_store():
    return NodeStore(100, mode="legacy")


def test_resembles_identity_true_case(legacy_store):
    e = make_matrix_node(legacy_store, 0, [(TERMINAL, ONE), ZERO_EDGE, ZERO_EDGE, (TERMINAL, ONE)])
    assert resembles_identity(*e, *ZERO_EDGE, *ZERO_EDGE, *e)


def test_resembles_identity_x_tuple(store):
    succ = (*ZERO_EDGE, TERMINAL, ONE, TERMINAL, ONE, *ZERO_EDGE)
    assert not resembles_identity(*succ)


def test_resembles_identity_distinct_targets(store):
    a = make_matrix_node(store, 0, [(TERMINAL, ONE), ZERO_EDGE, ZERO_EDGE, ZERO_EDGE])
    b = make_matrix_node(store, 0, [ZERO_EDGE, ZERO_EDGE, ZERO_EDGE, (TERMINAL, ONE)])
    assert not resembles_identity(*a, *ZERO_EDGE, *ZERO_EDGE, *b)


def test_make_matrix_node_strips_identity_in_new_mode(store):
    inner = make_matrix_node(store, 2, [ZERO_EDGE, (TERMINAL, ONE), (TERMINAL, ONE), ZERO_EDGE])
    created = store.mat.created
    edge = make_matrix_node(store, 5, [inner, ZERO_EDGE, ZERO_EDGE, inner])
    assert edge == inner
    assert store.mat.created == created


def test_make_matrix_node_keeps_identity_in_legacy_mode(legacy_store):
    inner = make_matrix_node(legacy_store, 2, [ZERO_EDGE, (TERMINAL, ONE), (TERMINAL, ONE), ZERO_EDGE])
    created = legacy_store.mat.created
    edge = make_matrix_node(legacy_store, 5, [inner, ZERO_EDGE, ZERO_EDGE, inner])
    assert edge != inner
    assert legacy_store.mat.level[edge[0]] == 5
    assert legacy_store.mat.created == created + 1


def test_all_zero_successors(store):
    assert make_matrix_node(store, 3, [ZERO_EDGE] * 4) == ZERO_EDGE


def test_weight_zeroed_by_normalization_gets_stub(store):
    # 1.5e-13 survives interning but not division by the norm 2.0
    wt = store.weights
    two = (TERMINAL, wt.intern(2.0))
    minus_two = (TERMINAL, wt.intern(-2.0))
    tiny = make_matrix_node(store, 0, [two, (TERMINAL, wt.intern(1.5e-13)), ZERO_EDGE, minus_two])
    exact = make_matrix_node(store, 0, [two, ZERO_EDGE, ZERO_EDGE, minus_two])
    assert tiny == exact
    assert store.mat.succ[tiny[0]][2:4] == (ZERO_STUB, ZERO)


def test_h_gate_new_mode_one_node_weight(store):
    edge = make_gate_dd(store, GateSpec(H, 0), 100)
    assert store.mat.created == 1
    assert abs(store.weights.value(edge[1]) - SQ2) < 1e-13


def test_h_gate_legacy_mode_100_nodes(legacy_store):
    make_gate_dd(legacy_store, GateSpec(H, 0), 100)
    assert legacy_store.mat.created == 100


def test_cnot_new_mode_two_nodes(store):
    edge = make_gate_dd(store, GateSpec(X, 0, ((99, True),)), 100)
    assert store.mat.created == 2
    assert store.mat.level[edge[0]] == 99
    # second node is the X at level 0
    levels = sorted(level for _n, level, _s in nodes(store.mat))
    assert levels == [0, 99]


def test_cnot_legacy_mode_199_nodes(legacy_store):
    make_gate_dd(legacy_store, GateSpec(X, 0, ((99, True),)), 100)
    assert legacy_store.mat.created == 199


def test_gate_counts_independent_of_n():
    for n in (2, 10, 50):
        store = NodeStore(n)
        make_gate_dd(store, GateSpec(H, 0), n)
        assert store.mat.created == 1
        store = NodeStore(n)
        make_gate_dd(store, GateSpec(X, 0, ((n - 1, True),)), n)
        assert store.mat.created == 2


def test_identity_base_creates_no_nodes(store):
    edge = make_gate_dd(store, GateSpec(I2, 7), 100)
    assert edge == (TERMINAL, ONE)
    assert store.mat.created == 0


def test_same_gate_twice_same_root(store):
    spec = GateSpec(H, 3, ((7, False), (12, True)))
    e1 = make_gate_dd(store, spec, 100)
    e2 = make_gate_dd(store, spec, 100)
    assert e1 == e2


def test_gate_spec_validation():
    with pytest.raises(ValueError):
        GateSpec(X, 3, ((3, True),)).validate(8)
    with pytest.raises(ValueError):
        GateSpec(X, 99).validate(8)
    with pytest.raises(ValueError):
        GateSpec((1, 0, 0, 2), 0)  # not unitary
    with pytest.raises(ValueError):
        GateSpec((math.nan, 0, 0, 1), 0)  # every unitarity test is False on NaN


@pytest.mark.parametrize("bad", [0.5, 1.0, "1", None])
def test_gate_spec_non_integer_level_rejected(bad):
    # int() would turn the control level 0.5 into 0, and a float target
    # would reach make_gate_dd as a list index
    with pytest.raises(ValueError, match="target level .* is not an integer"):
        GateSpec(X, bad)
    with pytest.raises(ValueError, match="control level .* is not an integer"):
        GateSpec(X, 1, ((bad, True),))


def test_gate_spec_levels_of_any_int_type_become_int(store):
    spec = GateSpec(X, np.int64(1), ((np.int32(0), True),))
    assert (type(spec.target), type(spec.controls[0][0])) == (int, int)
    assert make_gate_dd(store, spec, 2) == make_gate_dd(store, GateSpec(X, 1, ((0, True),)), 2)


@pytest.mark.parametrize(
    "build, needed",
    [
        (lambda: make_gate_dd(NodeStore(4), GateSpec(X, 6), 8), 8),
        (lambda: identity_chain(NodeStore(4, mode="legacy"), 6), 7),
    ],
    ids=["make_gate_dd", "identity_chain"],
)
def test_undersized_store_rejected(build, needed):
    with pytest.raises(ValueError, match=f"store has 4 levels, {needed} needed"):
        build()


def test_cnot_matrix_entries(store):
    # block form: identity in the top-left, bit flip in the bottom-right
    edge = make_gate_dd(store, GateSpec(X, 0, ((1, True),)), 2)
    expect = {(0, 0): 1, (1, 1): 1, (3, 2): 1, (2, 3): 1}
    for r in range(4):
        for c in range(4):
            assert matrix_entry(store, edge, r, c, 2) == expect.get((r, c), 0)


def test_h_on_bottom_level_entries(store):
    # oracle: dense kron(I_4, H)
    edge = make_gate_dd(store, GateSpec(H, 0), 3)
    dense = np.kron(np.eye(4), np.array([[SQ2, SQ2], [SQ2, -SQ2]]))
    got = read_matrix(store, edge, 3)
    assert np.abs(got - dense).max() < 1e-12
    assert got[0, 0] == pytest.approx(SQ2)
    assert got[4, 0] == 0


def _random_specs(rng, n, count):
    specs = []
    for _ in range(count):
        theta = float(rng.uniform(0, 2 * np.pi))
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        base = [(0, 1, 1, 0), (1, 0, 0, -1), H, (c, -s, s, c)][int(rng.integers(4))]
        wires = rng.permutation(n)
        n_ctrl = int(rng.integers(0, min(3, n)))
        ctrls = tuple((int(w), bool(rng.integers(2))) for w in wires[1 : 1 + n_ctrl])
        specs.append(GateSpec(base, int(wires[0]), ctrls))
    return specs


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_mode_equivalence_and_dense_oracle(n):
    # every gate reads back identically in both modes and equals the
    # dense block construction
    rng = np.random.default_rng(17 * n)
    for spec in _random_specs(rng, n, 8):
        dense = spec_matrix(spec, n)
        new_store = NodeStore(n)
        legacy_store = NodeStore(n, mode="legacy")
        e_new = make_gate_dd(new_store, spec, n)
        e_old = make_gate_dd(legacy_store, spec, n)
        got_new = read_matrix(new_store, e_new, n)
        got_old = read_matrix(legacy_store, e_old, n)
        assert np.abs(got_new - dense).max() < 1e-10
        assert np.abs(got_old - dense).max() < 1e-10


def test_control_below_target(store):
    # upward cnot: control level 0, target level 1
    edge = make_gate_dd(store, GateSpec(X, 1, ((0, True),)), 2)
    dense = spec_matrix(GateSpec(X, 1, ((0, True),)), 2)
    assert np.abs(read_matrix(store, edge, 2) - dense).max() < 1e-12
    assert store.mat.created == 3  # projectors cannot share with the root


def test_negative_control(store):
    spec = GateSpec(X, 0, ((1, False),))
    edge = make_gate_dd(store, spec, 2)
    dense = spec_matrix(spec, 2)
    assert np.abs(read_matrix(store, edge, 2) - dense).max() < 1e-12


def test_multi_control_node_count(store):
    # one node per control level plus the base
    spec = GateSpec(X, 0, ((20, True), (40, True), (60, True)))
    make_gate_dd(store, spec, 100)
    assert store.mat.created == 4


def test_matrix_entry_range_check(store):
    edge = make_gate_dd(store, GateSpec(X, 0), 2)
    with pytest.raises(ValueError):
        matrix_entry(store, edge, 4, 0, 2)
    # a root at or above level n would be read as a smaller operator
    cx = make_gate_dd(store, GateSpec(X, 0, ((9, True),)), 10)
    with pytest.raises(ValueError):
        matrix_entry(store, cx, 3, 2, 2)


def test_new_mode_store_purity():
    rng = np.random.default_rng(5)
    store = NodeStore(10)
    for spec in _random_specs(rng, 10, 30):
        make_gate_dd(store, spec, 10)
    assert identity_node_ids(store) == []


def test_legacy_identity_chain_shared(legacy_store):
    identity_chain(legacy_store, 9)
    created = legacy_store.mat.created
    assert created == 10
    lookups = legacy_store.mat.lookups
    identity_chain(legacy_store, 9)
    assert legacy_store.mat.created == created
    # the second chain is read from the store's identity table
    assert legacy_store.mat.lookups == lookups


def test_legacy_gate_pads_from_identity_table(legacy_store):
    # with I_0 .. I_98 in the table, padding costs no lookups: only the
    # H node at level 99 is looked up (4 * 99 + 1 lookups without it)
    identity_chain(legacy_store, 98)
    created = legacy_store.mat.created
    lookups = legacy_store.mat.lookups
    make_gate_dd(legacy_store, GateSpec(H, 99), 100)
    assert legacy_store.mat.lookups - lookups == 1
    assert legacy_store.mat.created - created == 1


# a controlled phase pi/2^50 rounds to ONE, so the gate is the identity
TINY_PHASE = (1, 0, 0, cmath.exp(1j * math.pi / 2**50))


@pytest.mark.parametrize("control,target", [(0, 5), (3, 50), (40, 98)])
def test_legacy_identity_gate_padded_from_identity_table(legacy_store, control, target):
    # every padded level reads its identity from the table, above the
    # target as below it: the only lookups are the control's two nonzero
    # quadrants and the target node, none above the target
    n = 100
    full = identity_chain(legacy_store, n - 1)
    created = legacy_store.mat.created
    lookups = legacy_store.mat.lookups
    edge = make_gate_dd(legacy_store, GateSpec(TINY_PHASE, target, ((control, True),)), n)
    assert edge == full
    assert legacy_store.mat.lookups - lookups == 3
    assert legacy_store.mat.created == created


@pytest.mark.parametrize("control,target", [(0, 5), (3, 50), (40, 98)])
def test_new_identity_gate_is_terminal_edge(store, control, target):
    edge = make_gate_dd(store, GateSpec(TINY_PHASE, target, ((control, True),)), 100)
    assert edge == (TERMINAL, ONE)
    assert store.mat.created == 0


@pytest.mark.parametrize("n", [5, 100])
def test_legacy_identity_table_cleared_by_gc(n):
    # a sweep frees the chain the table points at; a stale table would
    # rebuild the gate on freed node ids
    store = NodeStore(n, mode="legacy")
    spec = GateSpec(H, n - 1)
    gate = make_gate_dd(store, spec, n)
    store.inc_ref(MAT, gate)
    store.dec_ref(MAT, gate)
    assert store.collect_garbage() == n
    created = store.mat.created
    gate = make_gate_dd(store, spec, n)
    assert store.mat.created - created == n
    if n <= 6:
        assert np.abs(read_matrix(store, gate, n) - spec_matrix(spec, n)).max() < 1e-12
    else:  # H on the top level: H[r >> top][c >> top] where the low bits agree
        top = 1 << (n - 1)
        entries = {(0, 0): SQ2, (top, 0): SQ2, (top + 5, 5): SQ2, (top + 5, top + 5): -SQ2, (5, 4): 0}
        for (r, c), want in entries.items():
            assert abs(matrix_entry(store, gate, r, c, n) - want) < 1e-12


def test_node_count_helper(store):
    edge = make_gate_dd(store, GateSpec(X, 0, ((5, True),)), 10)
    assert node_count(store, edge) == 2


def _reference_gate_dd(store, spec, n):
    """Legacy gate DD built level by level through make_matrix_node, with
    no identity table: every level, padding included, is normalized."""

    def diag(level, a, b):
        return make_matrix_node(store, level, (a, ZERO_EDGE, ZERO_EDGE, b))

    wt = store.weights
    quads = []
    for u in spec.base:
        w = wt.intern(u.real, u.imag)
        quads.append((TERMINAL, w) if w != ZERO else ZERO_EDGE)
    controls = dict(spec.controls)
    ident = (TERMINAL, ONE)  # I_(level-1)
    for level in range(spec.target):
        diags = (ident, ZERO_EDGE, ZERO_EDGE, ident)
        if level not in controls:
            quads = [diag(level, q, q) for q in quads]
        elif controls[level]:
            quads = [diag(level, d, q) for q, d in zip(quads, diags)]
        else:
            quads = [diag(level, q, d) for q, d in zip(quads, diags)]
        ident = diag(level, ident, ident)
    edge = make_matrix_node(store, spec.target, quads)
    ident = diag(spec.target, ident, ident)
    for level in range(spec.target + 1, n):
        if level not in controls:
            edge = diag(level, edge, edge)
        elif controls[level]:
            edge = diag(level, ident, edge)
        else:
            edge = diag(level, edge, ident)
        ident = diag(level, ident, ident)
    return edge


def test_legacy_padding_matches_level_by_level_reference():
    # every padded level make_gate_dd writes straight into the unique table
    # must be the node make_matrix_node builds for it
    n = 8
    store = NodeStore(n, mode="legacy")
    specs = gen_qft(n).to_specs() + [
        GateSpec(X, 2, ((5, True),)),  # CX, control above
        GateSpec(X, 5, ((2, True),)),  # CX, control below
        GateSpec(X, 3, ((1, True), (6, True))),  # CCX
        GateSpec(X, 4, ((1, False), (6, False))),  # negative controls
        GateSpec(H, 6, ((0, False), (3, True), (7, False))),
        GateSpec(Z, 0),
        GateSpec(H, 7),
    ]
    for spec in specs:
        ref = _reference_gate_dd(store, spec, n)
        created = store.mat.created
        assert make_gate_dd(store, spec, n) == ref, spec
        assert store.mat.created == created, spec
