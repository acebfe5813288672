"""Vector decision diagrams: basis states, node construction, readback.

Level convention: level 0 is the bottom row of the diagram and selects
the least-significant bit of an amplitude index; the root of an n-qubit
state sits at level n-1. Vector DDs never skip levels -- only operation
DDs do. Successor 0 of a node is the half of the (sub)vector where this
level's bit is 0.

Stored nodes are normalized so the two successor weights have unit
2-norm with the first nonzero weight real and positive; the factored-out
scalar rides on the incoming edge, which makes the squared norm of a
whole state simply |root weight|^2 and the representation canonical.
A pair whose norm is at most 100 * TOLERANCE is a sum that cancelled
below the weight resolution (interning moves a weight by up to
TOLERANCE) and becomes the zero edge; at that bound the interned
normalization factor is still within 1% of the exact one.

Every stored node is a fixed point of make_vector_node: rebuilt from its
own weights, over any successors, it comes back with weight ONE. The
weights a division produces are interned, so no numeric test of a pair
can promise that. Instead every pair make_vector_node stores is recorded
in store.normal_pairs, and a recorded pair goes straight to the unique
table. Any other pair is divided by its exact normalization factor, not
by the factor's interned handle: that handle may sit up to TOLERANCE
from the factor, a large relative error next to a small norm. arith
relies on the invariant: a node rebuilt with a stored node's weights
costs one set lookup before the unique table.
"""

from __future__ import annotations

import math

from .store import NodeStore, TERMINAL, ZERO_EDGE
from .weights import ONE, TOLERANCE, ZERO

# A pair whose norm is at most 100 * TOLERANCE is a sum that cancelled
# below the weight resolution: the zero edge (compared squared).
_CANCELLED2 = (100.0 * TOLERANCE) ** 2


def make_vector_node(store: NodeStore, level: int, e0: tuple, e1: tuple) -> tuple:
    """Stack e0 over e1 into a canonical node; returns the weighted edge."""
    t0, w0 = e0
    t1, w1 = e1
    if w0 == ZERO:
        if w1 == ZERO:
            return ZERO_EDGE
        t0 = TERMINAL
    elif w1 == ZERO:
        t1 = TERMINAL
    pairs = store.normal_pairs
    if (w0, w1) in pairs:
        return (store.vec.lookup(level, (t0, w0, t1, w1)), ONE)
    wt = store.weights
    n2 = wt.mag2[w0] + wt.mag2[w1]
    if n2 <= _CANCELLED2:
        return ZERO_EDGE
    lv = wt.values[w0 if w0 != ZERO else w1]
    factor = (math.sqrt(n2) / abs(lv)) * lv
    # interned first, so that handles keep their order; the weights are
    # divided by factor itself, which fh may miss by up to TOLERANCE
    fh = wt.intern(factor.real, factor.imag)
    x0 = wt.intern_complex(wt.values[w0] / factor)
    x1 = wt.intern_complex(wt.values[w1] / factor)
    if (x0 == ZERO and w0 != ZERO) or (x1 == ZERO and w1 != ZERO):
        # A weight tiny next to the other interned to ZERO only after the
        # division. Drop it before normalizing, as a zero-edge caller would:
        # it may have been the lead that fixed the phase.
        return make_vector_node(
            store, level, ZERO_EDGE if x0 == ZERO else e0, ZERO_EDGE if x1 == ZERO else e1
        )
    pairs.add((x0, x1))
    return (store.vec.lookup(level, (t0, x0, t1, x1)), fh)


def make_basis_state(store: NodeStore, n: int, bits: str) -> tuple:
    """DD of the computational basis state |bits>, bits[0] topmost (MSB)."""
    if n < 1 or len(bits) != n:
        raise ValueError(f"need a length-{n} bitstring, got {bits!r}")
    store.require_levels(n)
    edge = (TERMINAL, ONE)
    for level in range(n):
        bit = bits[n - 1 - level]
        if bit == "0":
            edge = make_vector_node(store, level, edge, ZERO_EDGE)
        elif bit == "1":
            edge = make_vector_node(store, level, ZERO_EDGE, edge)
        else:
            raise ValueError(f"bitstring may only contain 0/1, got {bits!r}")
    return edge


def amplitude(store: NodeStore, v: tuple, index: int) -> complex:
    """Product of edge weights along the path selected by index's bits,
    most significant bit at the top level."""
    target, w = v
    if w == ZERO:
        return 0j
    store.vec.check(target)
    wt = store.weights
    # a terminal edge is a 0-level scalar
    n = store.vec.level[target] + 1 if target >= 0 else 0
    if not 0 <= index < (1 << n):
        raise ValueError(f"index {index} out of range for {n} levels")
    value = wt.values[w]
    succs = store.vec.succ
    for level in range(n - 1, -1, -1):
        succ = succs[target]
        if (index >> level) & 1:
            target, w = succ[2], succ[3]
        else:
            target, w = succ[0], succ[1]
        if w == ZERO:
            return 0j
        value *= wt.values[w]
    return value


def vnorm2(store: NodeStore, v: tuple) -> float:
    """Squared 2-norm of the represented vector, computed bottom-up over
    its nodes, so its depth costs no recursion."""
    target, w = v
    if w == ZERO:
        return 0.0
    mag2 = store.weights.mag2
    pool = store.vec
    succs = pool.succ
    norm2 = {TERMINAL: 1.0}
    for node in sorted(pool.reachable(target), key=pool.level.__getitem__):
        t0, w0, t1, w1 = succs[node]
        total = 0.0
        if w0 != ZERO:
            total += mag2[w0] * norm2[t0]
        if w1 != ZERO:
            total += mag2[w1] * norm2[t1]
        norm2[node] = total
    return mag2[w] * norm2[target]


def node_count(store: NodeStore, v: tuple) -> int:
    """Number of distinct nodes reachable from a vector edge."""
    return len(store.vec.reachable(v[0]))

