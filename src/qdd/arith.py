"""Decision-diagram arithmetic under level skipping.

Matrix operands of multiplication and addition may sit below the level
being processed; a skipped level reads as an identity factor. Matrix
products and sums read such a level as the node mdd.identity_succ
describes, so on the diagonal the operand passes through unchanged and
off the diagonal the zero weight drops the term, by the same tests that
drop a stored zero quadrant. Vector operands are always full height.
Sums and matrix products read their two operands through one helper,
_operands, which returns each one's successors at the higher of the two
levels.

The entry points multiply_mv, multiply_mm and add_vectors take edges
only. An edge's extent follows from its target, so the level of a
vector operand is its target's level, or -1 for the terminal, which
every zero edge points at. They reject an operand whose node was swept
(StoreError), and check only what an edge cannot rule out: multiply_mv
rejects a matrix rooted above a nonzero vector, and add_vectors two
nonzero vectors of different heights; any two matrices multiply. The
matrix-vector recursion passes the level down as an argument: reading it
from the pool's array("i") would box a new int for every level above
256, on every call. Sums and matrix products read it there only on a
compute-table miss, which builds a node anyway.

Addition has one rule for both node kinds, _add: the zero shortcuts,
the canonical order of the operands, the relative-weight key, the table
round trip and the scaling tail are written once, and the sum recurses
over every successor pair of the operands. Only the pool, the table tag
and the node constructor set a vector sum apart from a matrix sum;
add_vectors and _add_m are the two entries. The canonical order sorts
the operands by (creation index, weight), not by node id: the weight of
the first is the one factored out, and node GC reissues ids, so an
order by id would make the sum's rounding depend on when GC ran.

Every routine strips the operand edge weights before consulting the
compute table and multiplies them back into the result, so cached
entries are shared across scaled versions of the same subproblem. Each
makes one round trip: look the key up, compute the node and insert it
only on a miss, then scale the result by one tail, hit or miss alike.
Addition additionally keys on the relative weight of its (canonically
ordered) operands. Keys hold nothing else: a store holds one mode, and
the level of a subproblem follows from its operand nodes. Recursion
depth equals the number of levels; large instances must run under a
raised recursion limit (see sim.run_deep).

A matrix-vector product has one rule for a level the matrix skips,
above the gate root or inside the gate: there the matrix is identity and
the product only rebuilds the paths of the vector down to the next
matrix node. Each such run of levels is memoized per call, in a dict
made where the run is entered and keyed by vector node, and counts as
no compute-table lookup; the table is consulted only at matrix nodes.
A node of a skip region whose two result edges carry the weights of the
input node needs no normalizing: those weights are a stored node's, and
every stored node is a fixed point of vdd.make_vector_node, so the
result is the unique-table node over the new targets with weight ONE
(the input node itself when the targets are unchanged too). At a matrix
node every result goes through make_vector_node, whose record of stored
pairs answers the same case with one set lookup, and the product is
written out per quadrant: row i of the result is
u(2i)*v0 + u(2i+1)*v1, and the four products and two sums run in that
fixed order, which fixes the order in which nodes and weights are
created.
"""

from __future__ import annotations

from .mdd import identity_succ, make_matrix_node
from .store import ADD_M, ADD_V, MUL_MM, MUL_MV, NodeStore, StoreError, TERMINAL, ZERO_EDGE
from .vdd import make_vector_node
from .weights import ONE, ZERO


def _vector_level(store: NodeStore, v: tuple) -> int:
    """Root level of a vector edge: its target's, or -1 for the terminal
    (a zero edge's target too)."""
    return store.vec.level[v[0]] if v[0] >= 0 else -1


def multiply_mv(store: NodeStore, u: tuple, v: tuple) -> tuple:
    """Matrix-vector product U*v. Skipped matrix levels act as identity; a
    terminal matrix edge is a scaled identity. The matrix may not be
    rooted above a nonzero vector."""
    ut = u[0]
    store.mat.check(ut)
    store.vec.check(v[0])
    level = _vector_level(store, v)
    if ut >= 0 and v[1] != ZERO and store.mat.level[ut] > level:
        raise StoreError(f"matrix rooted above the vector's level {level}")
    return _mul_mv(store, ut, u[1], v[0], v[1], level)


def _mul_mv_skip(store, ut, stop, vt, vw, level, memo):
    """U*v for a nonzero vector edge at `level` above `stop`, the root level
    of matrix node ut: every run of levels where the matrix is identity,
    above the gate root or inside the gate. The levels in between only
    rebuild the paths of the vector down to `stop`, so each vector node
    has one result for the run; memo holds them by vt (without it a state
    like H^n would take 2^level paths)."""
    r = memo.get(vt)
    if r is None:
        t0, w0, t1, w1 = store.vec.succ[vt]
        below = level - 1
        if below == stop:
            x0, v0 = ZERO_EDGE if w0 == ZERO else _mul_mv(store, ut, ONE, t0, w0, below)
            x1, v1 = ZERO_EDGE if w1 == ZERO else _mul_mv(store, ut, ONE, t1, w1, below)
        else:
            x0, v0 = ZERO_EDGE if w0 == ZERO else _mul_mv_skip(store, ut, stop, t0, w0, below, memo)
            x1, v1 = ZERO_EDGE if w1 == ZERO else _mul_mv_skip(store, ut, stop, t1, w1, below, memo)
        if v0 != w0 or v1 != w1:
            r = make_vector_node(store, level, (x0, v0), (x1, v1))
        elif x0 == t0 and x1 == t1:
            # children untouched: the stored node is already the result
            r = (vt, ONE)
        else:
            # new targets under vt's own weights, which need no normalizing
            r = (store.vec.lookup(level, (x0, w0, x1, w1)), ONE)
        memo[vt] = r
    rw = r[1]
    if rw == ONE:
        return (r[0], vw)
    if vw == ONE or rw == ZERO:
        return r
    w = store.weights.mul(vw, rw)
    return ZERO_EDGE if w == ZERO else (r[0], w)


def _mul_mv(store, ut, uw, vt, vw, level):
    if uw == ZERO or vw == ZERO:
        return ZERO_EDGE
    if vw == ONE:
        ow = uw
    elif uw == ONE:
        ow = vw
    else:
        ow = store.weights.mul(uw, vw)
        if ow == ZERO:
            return ZERO_EDGE
    if ut == TERMINAL:
        return (vt, ow)
    # only after the returns above: array("i") would take the terminal's
    # negative id as an index and read some other node's level
    ulevel = store.mat.level[ut]
    if ulevel < level:
        return _mul_mv_skip(store, ut, ulevel, vt, ow, level, {})
    key = (ut, vt)  # matrix node at the vector's level: level == vec.level[vt]
    r = store.ct_lookup(MUL_MV, key)
    if r is None:
        v0t, v0w, v1t, v1w = store.vec.succ[vt]
        below = level - 1
        # row i is u(2i)*v0 + u(2i+1)*v1; rows and terms in this order
        u0t, u0w, u1t, u1w, u2t, u2w, u3t, u3w = store.mat.succ[ut]
        e0 = e1 = ZERO_EDGE
        if u0w != ZERO and v0w != ZERO:
            e0 = _mul_mv(store, u0t, u0w, v0t, v0w, below)
        if u1w != ZERO and v1w != ZERO:
            m = _mul_mv(store, u1t, u1w, v1t, v1w, below)
            if e0[1] == ZERO:
                e0 = m
            elif m[1] != ZERO:
                e0 = _add(store, e0, m, store.vec, ADD_V, _make_vector)
        if u2w != ZERO and v0w != ZERO:
            e1 = _mul_mv(store, u2t, u2w, v0t, v0w, below)
        if u3w != ZERO and v1w != ZERO:
            m = _mul_mv(store, u3t, u3w, v1t, v1w, below)
            if e1[1] == ZERO:
                e1 = m
            elif m[1] != ZERO:
                e1 = _add(store, e1, m, store.vec, ADD_V, _make_vector)
        r = make_vector_node(store, level, e0, e1)
        store.ct_insert(MUL_MV, key, r)
    rw = r[1]
    if rw == ZERO:
        return ZERO_EDGE
    if ow == ONE:
        return r
    if rw == ONE:
        return (r[0], ow)
    w = store.weights.mul(ow, rw)
    return ZERO_EDGE if w == ZERO else (r[0], w)


def add_vectors(store: NodeStore, a: tuple, b: tuple) -> tuple:
    """Elementwise sum of two states of one height; either may be a zero
    edge, and two terminal edges add as scalars."""
    store.vec.check(a[0])
    store.vec.check(b[0])
    level = _vector_level(store, a)
    other = _vector_level(store, b)
    if a[1] != ZERO and b[1] != ZERO and other != level:
        raise StoreError(f"vectors rooted at levels {level} and {other}")
    return _add(store, a, b, store.vec, ADD_V, _make_vector)


def _add_m(store, a, b):
    """Sum of two matrix edges; either may skip levels."""
    return _add(store, a, b, store.mat, ADD_M, make_matrix_node)


def _make_vector(store, level, edges):
    """make_vector_node over the two edges of a vector sum."""
    return make_vector_node(store, level, edges[0], edges[1])


def _operands(pool, at, bt):
    """Level and flat successors of nodes at and bt read at the higher of
    their two levels; a node below it (or the terminal) reads there as the
    identity level mdd.identity_succ describes."""
    la = pool.level[at] if at >= 0 else -1
    lb = pool.level[bt] if bt >= 0 else -1
    level = la if la >= lb else lb
    asucc = pool.succ[at] if la == level else identity_succ(at)
    bsucc = pool.succ[bt] if lb == level else identity_succ(bt)
    return level, asucc, bsucc


def _add(store, a, b, pool, tag, make):
    """a + b over the nodes of pool: every successor pair is added, and
    make(store, level, edges) builds the node; the compute table keeps the
    results under tag."""
    at, aw = a
    bt, bw = b
    if aw == ZERO:
        return b
    if bw == ZERO:
        return a
    wt = store.weights
    if at == TERMINAL and bt == TERMINAL:
        # a sum that cancels is (TERMINAL, ZERO): already the zero edge
        return (TERMINAL, wt.add(aw, bw))
    # by creation index, not id: node GC reissues ids, and the order must
    # not depend on when it ran (a terminal's negative id orders first)
    born = pool.born
    ak = born[at] if at >= 0 else at
    bk = born[bt] if bt >= 0 else bt
    if bk < ak or (bk == ak and bw < aw):
        at, aw, bt, bw = bt, bw, at, aw
    rel = wt.div(bw, aw)
    key = (at, bt, rel)
    r = store.ct_lookup(tag, key)
    if r is None:
        level, asucc, bsucc = _operands(pool, at, bt)
        edges = []
        for j in range(0, len(asucc), 2):
            ebw = bsucc[j + 1]
            if ebw != ZERO:
                ebw = wt.mul(rel, ebw)
            eb = (bsucc[j], ebw) if ebw != ZERO else ZERO_EDGE
            edges.append(_add(store, (asucc[j], asucc[j + 1]), eb, pool, tag, make))
        r = make(store, level, edges)
        store.ct_insert(tag, key, r)
    w = wt.mul(aw, r[1])
    return ZERO_EDGE if w == ZERO else (r[0], w)


def multiply_mm(store: NodeStore, a: tuple, b: tuple) -> tuple:
    """Matrix-matrix product A*B; either operand may skip levels. If both
    skip a level the result skips it too."""
    store.mat.check(a[0])
    store.mat.check(b[0])
    return _mul_mm(store, a[0], a[1], b[0], b[1])


def _mul_mm(store, at, aw, bt, bw):
    if aw == ZERO or bw == ZERO:
        return ZERO_EDGE
    wt = store.weights
    if at == TERMINAL or bt == TERMINAL:
        w = wt.mul(aw, bw)
        other = bt if at == TERMINAL else at
        return ZERO_EDGE if w == ZERO else (other, w)
    key = (at, bt)
    r = store.ct_lookup(MUL_MM, key)
    if r is None:
        level, asucc, bsucc = _operands(store.mat, at, bt)
        edges = [ZERO_EDGE] * 4
        for i in (0, 1):
            for j in (0, 1):
                eat, eaw = asucc[4 * i + 2 * j], asucc[4 * i + 2 * j + 1]
                if eaw == ZERO:
                    continue
                for k in (0, 1):
                    ebt, ebw = bsucc[4 * j + 2 * k], bsucc[4 * j + 2 * k + 1]
                    if ebw == ZERO:
                        continue
                    m = _mul_mm(store, eat, eaw, ebt, ebw)
                    idx = 2 * i + k
                    if edges[idx][1] == ZERO:
                        edges[idx] = m
                    elif m[1] != ZERO:
                        edges[idx] = _add(store, edges[idx], m, store.mat, ADD_M, make_matrix_node)
        r = make_matrix_node(store, level, edges)
        store.ct_insert(MUL_MM, key, r)
    w = wt.mul(wt.mul(aw, bw), r[1])
    return ZERO_EDGE if w == ZERO else (r[0], w)
