"""Checkers of the invariants the engine promises for every stored node.

They walk all allocated nodes of a pool, so they read the store's
internals directly: a pool's `succ` list holds None for a swept id.
"""

from __future__ import annotations

from qdd import make_vector_node, resembles_identity
from qdd.weights import ONE, ZERO


def nodes(pool):
    """Yield (id, level, succ) for every allocated node of a pool."""
    for node, succ in enumerate(pool.succ):
        if succ is not None:
            yield node, pool.level[node], succ


def check_normalization(store, tolerance: float = 4e-13) -> list[int]:
    """Ids of allocated vector nodes violating the local norm invariant."""
    wt = store.weights
    bad = []
    for node, _level, succ in nodes(store.vec):
        t0, w0, t1, w1 = succ
        if w0 == ZERO and w1 == ZERO:
            bad.append(node)
            continue
        if abs(wt.mag2[w0] + wt.mag2[w1] - 1.0) > tolerance:
            bad.append(node)
            continue
        lead = wt.values[w0 if w0 != ZERO else w1]
        if not (abs(lead.imag) <= tolerance and lead.real > 0.0):
            bad.append(node)
    return bad


def check_fixed_points(store) -> list[int]:
    """Ids of allocated vector nodes that normalization does not hand back
    unchanged: make_vector_node on a node's own successors must return the
    node with weight ONE, whatever the successors' targets."""
    return [
        node
        for node, level, (t0, w0, t1, w1) in list(nodes(store.vec))
        if make_vector_node(store, level, (t0, w0), (t1, w1)) != (node, ONE)
    ]


def identity_node_ids(store) -> list[int]:
    """Allocated matrix nodes that resemble identity; must be empty for
    any new-mode store."""
    return [node for node, _level, succ in nodes(store.mat) if resembles_identity(*succ)]
