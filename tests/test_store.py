"""Unique-table canonicity, reference counting, GC, and the compute table."""

import random
import tracemalloc
from collections import Counter

import pytest

from qdd import GateSpec, NodeStore, make_basis_state, make_gate_dd
from qdd.store import (
    ADD_M,
    ADD_V,
    MAT,
    MUL_MM,
    MUL_MV,
    StoreError,
    TERMINAL,
    VEC,
    ZERO_EDGE,
    ZERO_STUB,
)
from qdd.vdd import amplitude, make_vector_node
from qdd.weights import ONE, ZERO

X = (0, 1, 1, 0)


@pytest.fixture
def store():
    return NodeStore(8)


def basis_tuple(store):
    return (TERMINAL, ONE, ZERO_STUB, ZERO)


def test_ut_lookup_is_canonical(store):
    succ = basis_tuple(store)
    n1 = store.vec.lookup(0, succ)
    assert store.vec.created == 1
    n2 = store.vec.lookup(0, succ)
    assert n1 == n2
    assert store.vec.created == 1


def test_distinct_weights_distinct_nodes(store):
    half = store.weights.intern(0.5, 0.0)
    a = store.vec.lookup(0, (TERMINAL, ONE, TERMINAL, ONE))
    b = store.vec.lookup(0, (TERMINAL, half, TERMINAL, ONE))
    assert a != b


def test_successor_level_must_be_below(store):
    node = store.vec.lookup(3, basis_tuple(store))
    with pytest.raises(StoreError):
        store.vec.lookup(3, (node, ONE, ZERO_STUB, ZERO))
    with pytest.raises(StoreError):
        store.vec.lookup(2, (node, ONE, ZERO_STUB, ZERO))


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        NodeStore(3, mode="bogus")


def test_mode_fixed_once_matrix_nodes_exist(store):
    store.mode = "legacy"  # no matrix node yet: the store may still switch
    store.mode = "new"
    make_gate_dd(store, GateSpec(X, 0, ((7, True),)), 8)
    store.mode = "new"  # setting the held mode again is no change
    with pytest.raises(StoreError):
        store.mode = "legacy"
    assert store.mode == "new"


def test_cnot_built_twice_inserts_once(store):
    spec = GateSpec(X, 0, ((7, True),))
    make_gate_dd(store, spec, 8)
    assert store.mat.created == 2
    make_gate_dd(store, spec, 8)
    assert store.mat.created == 2


def test_refcount_lifecycle(store):
    edge = make_basis_state(store, 3, "010")
    store.inc_ref(VEC, edge)
    assert store._ref_live == 3
    store.dec_ref(VEC, edge)
    assert store._ref_live == 0
    reclaimed = store.collect_garbage()
    assert reclaimed == 3
    assert store.vec.allocated == 0


def test_shared_child_survives_one_root_release(store):
    child = make_vector_node(store, 0, (TERMINAL, ONE), ZERO_EDGE)
    r1 = make_vector_node(store, 1, child, ZERO_EDGE)
    r2 = make_vector_node(store, 1, ZERO_EDGE, child)
    store.inc_ref(VEC, r1)
    store.inc_ref(VEC, r2)
    store.dec_ref(VEC, r1)
    store.collect_garbage()
    assert store.vec.succ[child[0]] is not None
    assert store.vec.succ[r2[0]] is not None
    assert store.vec.succ[r1[0]] is None
    assert amplitude(store, r2, 2) == 1.0


def test_dec_ref_underflow_fails_fast(store):
    edge = make_basis_state(store, 2, "00")
    with pytest.raises(StoreError):
        store.dec_ref(VEC, edge)


def test_dec_ref_underflow_mid_walk_keeps_live_count(store):
    # the walk fails at child after it has already released r1
    child = make_vector_node(store, 0, (TERMINAL, ONE), ZERO_EDGE)
    r1 = make_vector_node(store, 1, child, ZERO_EDGE)
    store.inc_ref(VEC, r1)
    store.dec_ref(VEC, child)
    with pytest.raises(StoreError):
        store.dec_ref(VEC, r1)
    assert store._ref_live == 0
    assert store.vec.ref[r1[0]] == 0 and store.vec.ref[child[0]] == 0


def test_refcount_walk_on_a_swept_node_fails_before_counting(store):
    # a freed id keeps count 0 until it is reused, so the reused node
    # starts unreferenced
    edge = make_vector_node(store, 0, (TERMINAL, ONE), ZERO_EDGE)
    store.collect_garbage()
    for call in (store.inc_ref, store.dec_ref):
        with pytest.raises(StoreError, match="swept"):
            call(VEC, edge)
    reused = make_vector_node(store, 0, ZERO_EDGE, (TERMINAL, ONE))
    assert reused[0] == edge[0]
    assert store.vec.ref[reused[0]] == 0 and store._ref_live == 0


@pytest.mark.parametrize(
    "entry",
    [
        "reachable", "amplitude", "matrix_entry", "multiply_mv", "multiply_mm", "add_vectors",
        "amplitude-unissued", "inc_ref-unissued", "node_count-unissued",
        "multiply_mv-unissued", "amplitude-negative", "multiply_mv-negative",
    ],
)
def test_swept_root_edge_fails_naming_the_node(entry):
    # an unreferenced edge kept across node GC names a free slot; while it
    # stays free, each entry point refuses it instead of reading None. An
    # id the pool never issued, past its end or below ZERO_STUB, is
    # refused the same way instead of raising IndexError or reading
    # from the end of the pool
    from qdd import add_vectors, matrix_entry, multiply_mm, multiply_mv
    from qdd.vdd import node_count

    store = NodeStore(4)
    state = make_basis_state(store, 4, "0000")
    gate = make_gate_dd(store, GateSpec(X, 3, ((0, True),)), 4)
    store.inc_ref(VEC, state)
    store.inc_ref(MAT, gate)
    lost_state = make_basis_state(store, 4, "1010")
    lost_gate = make_gate_dd(store, GateSpec(X, 2), 4)
    store.collect_garbage()
    past_end, negative = (10**6, ONE), (-5, ONE)
    calls = {
        "reachable": (VEC, lost_state, lambda: store.vec.reachable(lost_state[0])),
        "amplitude": (VEC, lost_state, lambda: amplitude(store, lost_state, 0)),
        "matrix_entry": (MAT, lost_gate, lambda: matrix_entry(store, lost_gate, 0, 0, 4)),
        "multiply_mv": (MAT, lost_gate, lambda: multiply_mv(store, lost_gate, state)),
        "multiply_mm": (MAT, lost_gate, lambda: multiply_mm(store, gate, lost_gate)),
        "add_vectors": (VEC, lost_state, lambda: add_vectors(store, state, lost_state)),
        "amplitude-unissued": (VEC, past_end, lambda: amplitude(store, past_end, 0)),
        "inc_ref-unissued": (VEC, past_end, lambda: store.inc_ref(VEC, past_end)),
        "node_count-unissued": (VEC, past_end, lambda: node_count(store, past_end)),
        "multiply_mv-unissued": (
            VEC, past_end, lambda: multiply_mv(store, (TERMINAL, ONE), past_end)
        ),
        "amplitude-negative": (VEC, negative, lambda: amplitude(store, negative, 0)),
        "multiply_mv-negative": (MAT, negative, lambda: multiply_mv(store, negative, state)),
    }
    kind, lost, call = calls[entry]
    if lost in (lost_state, lost_gate):
        assert store.pool(kind).succ[lost[0]] is None
        reason = "was swept"
    else:
        reason = "was never issued"
    with pytest.raises(StoreError, match=f"^{kind}{lost[0]} {reason}"):
        call()


def test_matrix_refcount_walk_counts_shared_nodes():
    # a legacy CX shares identity-chain nodes between its quadrants and
    # its control level; each node is live once, however many parents
    store = NodeStore(8, mode="legacy")
    state = make_basis_state(store, 8, "0" * 8)
    store.inc_ref(VEC, state)
    peak = store.peak_live
    gate = make_gate_dd(store, GateSpec(X, 2, ((5, True),)), 8)
    nodes = store.mat.reachable(gate[0])
    parents = Counter(t for node in nodes for t in store.mat.succ[node][0::2] if t >= 0)
    assert max(parents.values()) > 1
    store.inc_ref(MAT, gate)
    assert store.peak_live - peak == len(nodes)
    parents[gate[0]] += 1
    assert {node: store.mat.ref[node] for node in nodes} == parents
    store.dec_ref(MAT, gate)
    assert not any(store.mat.ref)
    assert store._ref_live == peak
    with pytest.raises(StoreError):
        store.dec_ref(MAT, gate)


def test_unknown_node_kind_rejected():
    # any kind but VEC or MAT used to be read as MAT
    store = NodeStore(8)
    gate = make_gate_dd(store, GateSpec(X, 0, ((7, True),)), 8)
    for call in (store.inc_ref, store.dec_ref):
        with pytest.raises(StoreError):
            call("vec", gate)
    with pytest.raises(StoreError):
        store.pool("vec")
    assert not any(store.mat.ref)


def test_gc_on_empty_store(store):
    before = store.gc_runs
    assert store.collect_garbage() == 0
    assert store.gc_runs == before + 1


def test_gc_soundness_roots_resolve_identically(store):
    state = make_basis_state(store, 4, "1010")
    store.inc_ref(VEC, state)
    junk = make_basis_state(store, 4, "1111")  # unreferenced
    assert junk[0] >= 0
    before = [amplitude(store, state, i) for i in range(16)]
    store.collect_garbage()
    after = [amplitude(store, state, i) for i in range(16)]
    assert before == after
    assert store.vec.succ[junk[0]] is None


def test_ct_insert_then_lookup(store):
    key = (1, 2, 3)
    store.ct_insert(ADD_V, key, (5, ONE))
    assert store.ct_lookup(ADD_V, key) == (5, ONE)
    assert store.ct_lookup(ADD_V, (1, 2, 4)) is None


def test_ct_cleared_by_gc(store):
    key = (1, 2, 3)
    store.ct_insert(ADD_V, key, (5, ONE))
    store.collect_garbage()
    assert store.ct_lookup(ADD_V, key) is None


def test_ct_counters(store):
    key = (9, 9, 9)
    store.ct_lookup(ADD_V, key)
    store.ct_insert(ADD_V, key, (1, ONE))
    store.ct_lookup(ADD_V, key)
    assert store.ct_hits == 1
    assert store.ct_misses == 1


def test_idle_store_holds_no_table():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store = NodeStore(64)
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert store._ct == [None] * 4
    assert size < 64 * 1024


def test_ct_tables_made_on_first_use_and_dropped_by_gc():
    from qdd import gen_ghz, simulate_statevector

    store = NodeStore(8)
    inserts = Counter()
    insert = store.ct_insert

    def counting_insert(tag, key, result):
        inserts[tag] += 1
        insert(tag, key, result)

    store.ct_insert = counting_insert
    simulate_statevector(gen_ghz(8), "new", store=store)
    # a statevector run never computes a matrix product or sum
    assert store._ct[MUL_MM] is None
    assert store._ct[ADD_M] is None
    # a table holds no more entries than it was given, not one per slot
    assert 0 < len(store._ct[MUL_MV]) <= inserts[MUL_MV]
    store.collect_garbage()
    assert store._ct == [None] * 4


def test_ct_sparse_then_flat_matches_direct_mapped_reference():
    # 65,536 slots per tag, so the table turns flat once it holds more
    # than 4,096 entries
    store = NodeStore(3)
    slots = 1 << 16
    # up to three colliding keys for each of the first 64 slots
    by_slot = {}
    for a in range(500):
        for b in range(500):
            slot = hash((a, b)) & (slots - 1)
            if slot < 64 and len(by_slot.setdefault(slot, [])) < 3:
                by_slot[slot].append((a, b))
    assert all(len(by_slot.get(slot, ())) >= 2 for slot in range(64))
    # keys sharing two slots first, evicting one another while the table is
    # a dict of at most two entries; then 5,000 keys that fill more than
    # 4,096 slots; then the colliding keys again, now on the flat table
    crowded = by_slot[0] + by_slot[1]
    rng = random.Random(5)
    stream = [rng.choice(crowded) for _ in range(60)]
    stream += [(-1, c) for c in range(5000)]
    stream += [rng.choice(by_slot[rng.randrange(64)]) for _ in range(600)]
    reference = {}
    layouts = []
    for n, key in enumerate(stream):
        slot = hash(key) & (slots - 1)
        result = (n, ONE)
        if slot in reference and reference[slot][0] == key:
            assert store.ct_lookup(ADD_V, key) == reference[slot][1]
            layouts.append((type(store._ct[ADD_V]), "hit"))
        else:
            assert store.ct_lookup(ADD_V, key) is None
            layouts.append((type(store._ct[ADD_V]), "miss"))
            store.ct_insert(ADD_V, key, result)
            reference[slot] = (key, result)
    assert store.ct_hits + store.ct_misses == len(stream)
    # both outcomes were seen with the table sparse and with it flat
    assert {(t, o) for t in (dict, list) for o in ("hit", "miss")} <= set(layouts)
    assert type(store._ct[ADD_V]) is list


def test_high_level_costs_no_int_per_node():
    # a level above 256 computed at run time, as arith's `below = level - 1`
    # is, must not leave an int object behind per node
    def traced_bytes_per_node(top, count=4000):
        store = NodeStore(top)
        succs = [(TERMINAL, 2 * i, TERMINAL, 2 * i + 1) for i in range(count)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for succ in succs:
                store.vec.lookup(top - 1, succ)
            return (tracemalloc.get_traced_memory()[0] - before) / count
        finally:
            tracemalloc.stop()

    # the same nodes and table sizes; only the level differs, and a level
    # below 257 is one of the interpreter's shared small ints
    extra = traced_bytes_per_node(301) - traced_bytes_per_node(6)
    assert extra < 8  # a boxed int per node costs 28 B


def test_repeated_multiply_hits_cache_at_top():
    # oracle: recursion invocations counted via compute-table probes. Each
    # operation is repeated with both operands scaled by 0.5 (exact in
    # binary): one top-level hit, no miss, and the hit's weight scaled once
    # by the tail (0.25 for a product, 0.5 for a sum).
    from qdd import add_vectors, multiply_mm, multiply_mv
    from qdd.arith import _add_m

    def gates(store):
        cx = make_gate_dd(store, GateSpec(X, 0, ((3, True),)), 4)
        return cx, make_gate_dd(store, GateSpec(X, 3), 4)

    def states(store):
        return make_basis_state(store, 4, "0000"), make_basis_state(store, 4, "1001")

    def mv(store):
        return gates(store)[0], states(store)[0]

    cases = [
        ("multiply_mv", mv, multiply_mv, 0.25),
        ("add_vectors", states, add_vectors, 0.5),
        ("multiply_mm", gates, multiply_mm, 0.25),
        ("_add_m", gates, _add_m, 0.5),
    ]
    for name, operands, op, factor in cases:
        store = NodeStore(4)
        a, b = operands(store)
        assert a[0] != b[0] and a[0] >= 0 and b[0] >= 0, name
        first = op(store, a, b)
        hits, misses = store.ct_hits, store.ct_misses
        half = store.weights.intern(0.5)
        scaled = [(t, store.weights.mul(w, half)) for t, w in (a, b)]
        second = op(store, *scaled)
        assert store.ct_hits == hits + 1, name  # single top-level hit
        assert store.ct_misses == misses, name
        assert second[0] == first[0], name
        got = store.weights.value(second[1])
        assert got == pytest.approx(store.weights.value(first[1]) * factor, abs=1e-15), name


def test_cache_transparency_same_structure_without_ct():
    import numpy as np
    from dense import read_state, simulate
    from qdd import gen_w, simulate_statevector

    circuit = gen_w(5)
    with_ct = NodeStore(5)
    without_ct = NodeStore(5)
    without_ct.ct_lookup = lambda tag, key: None  # every probe misses
    s1, _ = simulate_statevector(circuit, "new", store=with_ct)
    s2, _ = simulate_statevector(circuit, "new", store=without_ct)
    a1 = read_state(with_ct, s1, 5)
    a2 = read_state(without_ct, s2, 5)
    assert np.allclose(a1, a2, atol=1e-12)
    assert np.allclose(a1, simulate(circuit), atol=1e-9)


def test_peak_live_tracks_referenced_nodes():
    from qdd import gen_ghz, simulate_statevector

    store = NodeStore(64)
    _state, report = simulate_statevector(gen_ghz(64), "new", store=store)
    # old states are released each step, so the referenced peak stays far
    # below the number of nodes ever created
    assert report.peak_live_nodes < report.vector_nodes_created
    assert report.peak_live_nodes < 4 * 64


def test_automatic_gc_triggers_on_vector_pool_size():
    # the matrix pool stays empty: the vector pool alone must be enough
    # to trigger a sweep
    store = NodeStore(4)
    store.gc_limit = 64
    for k in range(80):  # distinct unreferenced level-0 nodes
        w = store.weights.intern(0.001 + k, 0.0)
        store.vec.lookup(0, (TERMINAL, w, ZERO_STUB, ZERO))
    assert store.mat.allocated == 0
    assert store.maybe_collect() == 80
    assert store.gc_runs == 1
    assert store.vec.allocated == 0
    assert store.maybe_collect() == 0  # the pool is under the limit again


def test_automatic_gc_triggers_on_matrix_pool_size():
    # the vector pool stays under the limit: the matrix pool alone must
    # be enough to trigger a sweep
    store = NodeStore(4)
    store.gc_limit = 64
    for k in range(80):  # distinct unreferenced level-0 nodes
        w = store.weights.intern(0.001 + k, 0.0)
        store.mat.lookup(0, (TERMINAL, w, ZERO_STUB, ZERO, ZERO_STUB, ZERO, TERMINAL, ONE))
    assert store.vec.allocated <= store.gc_limit
    assert store.maybe_collect() == 80
    assert store.gc_runs == 1
    assert store.mat.allocated == 0
    assert store.maybe_collect() == 0  # the pool is under the limit again


@pytest.mark.parametrize("kept, doubled", [(61, True), (60, False), (59, False)])
def test_sweep_that_frees_under_a_quarter_doubles_gc_limit(kept, doubled):
    # 80 nodes, `kept` of them referenced: 19 freed is under a quarter
    # (20), 20 and 21 freed are not
    store = NodeStore(4)
    store.gc_limit = 64
    for k in range(80):
        w = store.weights.intern(0.001 + k, 0.0)
        node = store.vec.lookup(0, (TERMINAL, w, ZERO_STUB, ZERO))
        if k < kept:
            store.inc_ref(VEC, (node, ONE))
    assert store.maybe_collect() == 80 - kept
    assert store.gc_limit == (128 if doubled else 64)


def test_reachability_oracle_matches_refcounts():
    # every node reachable from a referenced root has a positive count
    store = NodeStore(5)
    state = make_basis_state(store, 5, "01101")
    store.inc_ref(VEC, state)
    reachable = set()
    stack = [state[0]]
    while stack:
        node = stack.pop()
        if node in reachable:
            continue
        reachable.add(node)
        for t in store.vec.succ[node][0::2]:
            if t >= 0:
                stack.append(t)
    for node in reachable:
        assert store.vec.ref[node] >= 1


@pytest.mark.parametrize(
    "mode, pinned",
    [
        ("new", (17, 1022, 1356, 185, 222)),
        ("legacy", (17, 1022, 1702, 565, 686)),
    ],
)
def test_derived_counters_across_node_gc(mode, pinned):
    # a pool counts hits and sweeps only: created, allocated and lookups
    # follow from them and the node lists, and read as when each was
    # counted on its own (the pins)
    from qdd import generate, simulate_statevector

    store = NodeStore(6)
    store.gc_limit = 64
    simulate_statevector(generate("grover", 6), mode, store=store)
    vec, mat = store.vec, store.mat
    assert (store.gc_runs, vec.created, vec.lookups, mat.created, mat.lookups) == pinned
    for pool in (vec, mat):
        assert pool.reclaimed > 0
        assert pool.allocated == len(pool.succ) - pool.succ.count(None)
        assert pool.created == pool.allocated + pool.reclaimed
        assert pool.lookups == pool.hits + pool.created
