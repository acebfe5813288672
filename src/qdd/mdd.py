"""Matrix decision diagrams with identity skipping.

A matrix node has four successors indexed 2*i+j for row-half i and
column-half j of the represented operator block (successor 0 is the
top-left quadrant). Every function here follows the store's mode
(NodeStore.mode). In the default "new" mode an edge whose target sits
below its conceptual level denotes identity factors on every skipped
level, and nodes of the shape [e*1, 0, 0, e*1] -- a level that acts as
identity -- are never materialized: node creation hands back e itself.
A "legacy" store holds the conventional full-height representation in
which every gate is padded with explicit identity nodes. The identity
chains I_0 .. I_k that padding reads are kept in the store's identity
table (NodeStore.identity_m), so a legacy gate looks up only its own
nodes, not the identity structure, in the unique table.

identity_succ(t) is the one reading of a level that an edge to t skips:
the flat successors [t*1, 0, 0, t*1]. Every routine that expands a
skipped level (the arithmetic, matrix_entry) reads it, and legacy
padding writes it: a padded level [e, 0, 0, e] with e = (t, w) is
already normalized, so it goes straight to the unique table as
(node identity_succ(t), w), the edge make_matrix_node returns for it.

make_gate_dd is one loop that climbs the levels; the mode only picks
which levels it visits. New mode visits the target and the controls;
legacy mode visits every level from the lowest of them to the top, and
pads each level that is neither by one rule on both sides of the target:
an edge w*I_(k-1) becomes w*I_k from the identity table, any other edge
is padded through identity_succ as above.

Stored nodes are normalized by the first successor weight of maximal
magnitude, folded into the incoming edge. That keeps identity-shaped
candidates in exactly the [1, 0, 0, 1] form the skip test looks for.

GateSpec indices are DD levels (level 0 = bottom row, least-significant
bit of entry indices). The circuit layer maps its wire numbering onto
levels before reaching this module. A GateSpec checks its base once,
when it is made: a base entry that is not a number, or a non-finite or
non-unitary base, raises ValueError there. GateSpec.validate(n), which
make_gate_dd calls, checks only the levels against the qubit count.
Matrix edges share the zero edge store.ZERO_EDGE = (TERMINAL, ZERO)
with vector edges: the terminal edge w*I with w = 0, the zero operator.

Controls below the target and negative controls are supported by the
same per-level rule as controls above it, with the active and inactive
slots swapped for a negative control; this is an extension beyond the
minimal control-above-target case and is exercised against dense
oracles in the test suite.
"""

from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass

from .store import MODE_LEGACY, NodeStore, TERMINAL, ZERO_EDGE, as_index
from .weights import ONE, ZERO

_UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class GateSpec:
    """A 2x2 base unitary, its target level, and optional control levels.

    base is flat (u00, u01, u10, u11) and must be finite and unitary,
    which construction checks, so a GateSpec that exists has a valid
    base; controls holds (level, positive) pairs, kept sorted.
    """

    base: tuple[complex, complex, complex, complex]
    target: int
    controls: tuple[tuple[int, bool], ...] = ()

    def __post_init__(self):
        # complex() would parse "1j" and take None to a TypeError
        if not all(isinstance(u, numbers.Number) for u in self.base):
            raise ValueError(f"gate base {self.base!r} has an entry that is not a number")
        base = tuple(map(complex, self.base))
        if not all(cmath.isfinite(u) for u in base):
            raise ValueError("gate base has a non-finite entry")
        u00, u01, u10, u11 = base
        if (
            abs(abs(u00) ** 2 + abs(u10) ** 2 - 1.0) > _UNITARY_TOL
            or abs(abs(u01) ** 2 + abs(u11) ** 2 - 1.0) > _UNITARY_TOL
            or abs(u00.conjugate() * u01 + u10.conjugate() * u11) > _UNITARY_TOL
        ):
            raise ValueError("gate base is not unitary")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "target", as_index(self.target, "target level"))
        ctrls = sorted((as_index(lv, "control level"), bool(pos)) for lv, pos in self.controls)
        object.__setattr__(self, "controls", tuple(ctrls))

    def validate(self, n: int) -> None:
        """Raise ValueError unless every gate level lies in [0, n) and none
        is used twice."""
        if not 0 <= self.target < n:
            raise ValueError(f"target level {self.target} outside [0, {n})")
        seen = {self.target}
        for level, _pos in self.controls:
            if not 0 <= level < n:
                raise ValueError(f"control level {level} outside [0, {n})")
            if level in seen:
                raise ValueError(f"qubit level {level} used twice in one gate")
            seen.add(level)


def identity_succ(t: int) -> tuple:
    """Flat successors (t0, w0, ..., t3, w3) of an identity level over
    target t: what a level reads as when a matrix edge to t skips it."""
    return (t, ONE, TERMINAL, ZERO, TERMINAL, ZERO, t, ONE)


def resembles_identity(t0, w0, t1, w1, t2, w2, t3, w3) -> bool:
    """True iff normalized flat successors (t0, w0, ..., t3, w3) form an
    identity level: first and last edge share one target with weight one,
    the middle two are zero."""
    return w1 == ZERO and w2 == ZERO and t0 == t3 and w0 == ONE and w3 == ONE


def make_matrix_node(store: NodeStore, level: int, succ) -> tuple:
    """Normalize four successor edges into a canonical node edge.

    In a new-mode store an identity-shaped candidate is discarded and its
    first successor returned with the normalization factor folded in."""
    (t0, w0), (t1, w1), (t2, w2), (t3, w3) = succ
    if w0 == ZERO and w1 == ZERO and w2 == ZERO and w3 == ZERO:
        return ZERO_EDGE
    wt = store.weights
    mag2 = wt.mag2
    mags = (mag2[w0], mag2[w1], mag2[w2], mag2[w3])
    norm = (w0, w1, w2, w3)[mags.index(max(mags))]
    if norm != ONE:
        div = wt.div
        w0 = div(w0, norm)
        w1 = div(w1, norm)
        w2 = div(w2, norm)
        w3 = div(w3, norm)
    # after the division, so a weight tiny next to the norm that interned
    # to ZERO there points at the terminal too (dropping it leaves the
    # norm as is)
    if w0 == ZERO:
        t0 = TERMINAL
    if w1 == ZERO:
        t1 = TERMINAL
    if w2 == ZERO:
        t2 = TERMINAL
    if w3 == ZERO:
        t3 = TERMINAL
    # the mode last: only identity shapes read it
    if resembles_identity(t0, w0, t1, w1, t2, w2, t3, w3) and store.mode != MODE_LEGACY:
        return (t0, norm)
    return (store.mat.lookup(level, (t0, w0, t1, w1, t2, w2, t3, w3)), norm)


def identity_chain(store: NodeStore, top_level: int) -> tuple:
    """Identity operator over levels [0, top_level]. The skipped (terminal)
    edge in new mode; an explicit node chain in legacy mode, read from the
    store's identity table and extended from its highest entry if short."""
    store.require_levels(top_level + 1)
    if store.mode != MODE_LEGACY or top_level < 0:
        return (TERMINAL, ONE)
    chain = store.identity_m
    while len(chain) <= top_level:
        below = chain[-1][0] if chain else TERMINAL
        chain.append((store.mat.lookup(len(chain), identity_succ(below)), ONE))
    return chain[top_level]


def make_gate_dd(store: NodeStore, spec: GateSpec, n: int) -> tuple:
    """Build the n-qubit operator DD for a (controlled) 2x2 gate.

    One loop climbs the levels the store's mode visits: new mode visits
    the target and the controls only, so the root sits at the highest of
    them and every other level is skipped; legacy mode visits every level
    from the lowest gate level up, so the root sits at n-1.
    """
    spec.validate(n)
    store.require_levels(n)
    wt = store.weights
    target = spec.target
    controls = dict(spec.controls)
    gate_levels = sorted([target, *controls])
    lowest = gate_levels[0]
    # below the lowest gate level every nonzero quadrant is w*I_(lowest-1):
    # the terminal edge in new mode, read from the identity table in legacy
    ident = identity_chain(store, lowest - 1)[0]
    edges = []
    for u in spec.base:
        w = wt.intern(u.real, u.imag)
        edges.append((ident, w) if w != ZERO else ZERO_EDGE)

    if store.mode == MODE_LEGACY:
        levels = range(lowest, n)
    else:
        levels = gate_levels
    chain = store.identity_m
    lookup = store.mat.lookup
    # edges holds the four quadrants below the target and the gate's one
    # edge from the target up; indices 0 and 3 are the diagonal blocks
    for level in levels:
        if level == target:
            edges = [make_matrix_node(store, level, edges)]
        elif level in controls:
            # a diagonal edge is identity where the control is inactive,
            # any other edge zero; a negative control swaps the slots
            ident = identity_chain(store, level - 1)
            for idx, e in enumerate(edges):
                idle = ident if idx in (0, 3) else ZERO_EDGE
                succ = (idle, ZERO_EDGE, ZERO_EDGE, e)
                if not controls[level]:
                    succ = succ[::-1]
                edges[idx] = make_matrix_node(store, level, succ)
        else:
            # a padded level: w*I_(level-1) becomes w*I_level (recognized
            # only if the identity table holds I_(level-1)); any other edge
            # is padded as in the module docstring
            ident = chain[level - 1][0] if level <= len(chain) else None
            for idx, (t, w) in enumerate(edges):
                if w == ZERO:
                    continue
                if t == ident:
                    edges[idx] = (identity_chain(store, level)[0], w)
                else:
                    edges[idx] = (lookup(level, identity_succ(t)), w)
    return edges[0]


def matrix_entry(store: NodeStore, m: tuple, row: int, col: int, n: int) -> complex:
    """Entry (row, col) of the represented 2^n x 2^n operator. Walks the
    n levels top-down; levels below the current node read as identity.
    The root must sit below level n."""
    if not (0 <= row < (1 << n) and 0 <= col < (1 << n)):
        raise ValueError(f"entry ({row}, {col}) out of range for n={n}")
    target, w = m
    store.mat.check(target)
    levels = store.mat.level
    if target >= 0 and levels[target] >= n:
        raise ValueError(f"matrix rooted at level {levels[target]}, not below n={n}")
    if w == ZERO:
        return 0j
    wt = store.weights
    succs = store.mat.succ
    value = wt.values[w]
    for level in range(n - 1, -1, -1):
        skipped = target < 0 or levels[target] < level
        succ = identity_succ(target) if skipped else succs[target]
        idx = 2 * (2 * ((row >> level) & 1) + ((col >> level) & 1))
        target, w = succ[idx], succ[idx + 1]
        if w == ZERO:
            return 0j
        value *= wt.values[w]
    return value


def node_count(store: NodeStore, m: tuple) -> int:
    """Number of distinct nodes reachable from a matrix edge."""
    return len(store.mat.reachable(m[0]))

