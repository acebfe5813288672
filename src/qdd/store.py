"""Canonical node storage: unique tables, reference counts, GC, compute table.

Vector nodes (2 successors) and matrix nodes (4 successors) live in two
pools of one shape, store.vec and store.mat. A pool holds the per-level
unique tables, the level, successor tuple and reference count of each
node and a free list; node handles are plain ints with one id space per
pool. One method, lookup(level, succ), finds or inserts a node of either
kind; it counts only its hits, and sweep the nodes it frees. The other
counters follow from these and the node lists: allocated is the ids in
use, created is allocated plus reclaimed, and lookups is hits plus
created. inc_ref and dec_ref are one refcount walk, stepping by +1 or
-1; it takes a kind, VEC or MAT, and runs one loop per arity, so no
per-node step dispatches on the kind; any other kind raises StoreError.
Two sentinel targets live below every level:

    TERMINAL  -- the path end; a matrix edge pointing at it denotes a
                 scaled identity over every level it skips
    ZERO_STUB -- the all-zero subtree

An edge is a (target, weight-handle) pair. Successor tuples are stored
flat, (t0, w0, t1, w1, ...), so unique-table keys hash fast. The zero
edge of both node kinds is ZERO_EDGE = (ZERO_STUB, weights.ZERO): a
weight of ZERO never appears on any other target.

A store holds one representation, its mode:

    MODE_NEW    -- identity-stripped: a matrix node of identity shape
                   [e*1, 0, 0, e*1] is never stored (mdd.make_matrix_node
                   hands back e instead)
    MODE_LEGACY -- conventional full height: every gate is padded with
                   explicit identity nodes

The mode is fixed once the store has created a matrix node, so every
node and compute-table entry of a store belongs to one representation
and table keys need no mode flag.

Reference counts propagate transitively: when a node first becomes
referenced its children gain a reference, and when it ceases to be they
lose one. A node whose count is zero is reclaimable; reclamation is
deferred to collect_garbage, which sweeps both pools, rebuilds their
unique tables from the nodes kept, and also clears the compute table and
the legacy identity table because their entries may name swept nodes.
Automatic collection only happens at safe points (maybe_collect), never
in the middle of a recursion whose intermediate nodes are not yet
referenced. It is due once either pool holds more than
NodeStore.gc_limit nodes: 2^16 at first, doubled after each sweep that
frees under a quarter of the nodes. A swept id goes on the free list and
is reissued, so an edge kept across node GC must be referenced: while
its slot is free, check (and every readback and arithmetic entry point)
raises StoreError, as it does for an id the pool never issued.

The pools keep the level of each node in an array("i"), so a level
costs 4 bytes and no int object, however high it is. Beside it, an
array("q") keeps each node's creation index, the number of nodes the
pool had created before it. Without a sweep that is the node's id;
after one, a reissued id carries a fresh index. Whatever reads node
order (the operand order of a sum) reads the creation index, so when
node GC runs changes no result.

The compute table is a direct-mapped cache of one fixed size: one table
of 65,536 slots per operation tag (ADD_V, ADD_M, MUL_MV, MUL_MM), slot
hash(key) & 0xFFFF, and an insert evicts whatever held its slot. A tag's
table is made by its first ct_insert, so a store holds none until it
computes and a statevector run never makes the matrix tags' tables. It
starts sparse, a dict from slot index to (key, target, weight), and
turns into a flat slot list of three words per slot (key, target,
weight at 3 * slot) once it holds more than 4,096 entries, 1/16 of the
slots. The slot function is the same in both forms, so the switch
changes no hit or miss. collect_garbage drops every table. A hit builds
the (target, weight) result edge afresh.
"""

from __future__ import annotations

from array import array

from .weights import ZERO, WeightTable

TERMINAL = -1
ZERO_STUB = -2
ZERO_EDGE = (ZERO_STUB, ZERO)

VEC = "v"
MAT = "m"

MODE_NEW = "new"
MODE_LEGACY = "legacy"

# Compute-table operation tags.
ADD_V = 0
ADD_M = 1
MUL_MV = 2
MUL_MM = 3
_NUM_TAGS = 4
# A key's compute-table slot is hash(key) & _CT_MASK: 65,536 per tag.
_CT_MASK = 0xFFFF
# A sparse tag turns flat once it holds more than 1/16 of the slots: a
# dict entry and its 3-tuple cost about 100 B against 24 B per flat
# slot, so the dict is the smaller up to about a quarter full.
_CT_SPARSE_MAX = (_CT_MASK + 1) >> 4

# Allocated nodes of one kind, across all levels, past which node GC is
# due at the next safe point (the starting NodeStore.gc_limit).
GC_THRESHOLD = 1 << 16


class StoreError(RuntimeError):
    """Structural violation or refcount misuse; always a caller bug."""


class _Pool:
    """The nodes of one kind: level, flat successor tuple and reference
    count per node id, a free list of swept ids, one unique table per
    level, and the counters of lookups and sweeps."""

    __slots__ = (
        "kind", "level", "born", "succ", "ref", "free", "tables", "hits",
        "reclaimed",
    )

    def __init__(self, num_levels: int, kind: str) -> None:
        self.kind = kind
        # unboxed, so a node keeps no int object for its level; ref stays
        # a list because the refcount walks read and write it per node
        self.level = array("i")
        # creation index: how many nodes the pool had created before this
        # one; equal to the id until a swept id is reissued
        self.born = array("q")
        self.succ: list[tuple | None] = []
        self.ref: list[int] = []
        # swept ids, unboxed too: a sweep can free 2^16 of them at once
        self.free = array("q")
        self.tables: list[dict] = [dict() for _ in range(num_levels)]
        # hits: lookups that found their node, ever; reclaimed: nodes swept,
        # ever. The other counters follow from these (see the properties).
        self.hits = 0
        self.reclaimed = 0

    def lookup(self, level: int, succ: tuple) -> int:
        """Canonical node for a flat successor tuple (t0, w0, t1, w1, ...);
        inserts it if absent."""
        table = self.tables[level]
        node = table.get(succ)
        if node is not None:
            self.hits += 1
            return node
        levels = self.level
        # unpacked per arity: every insert pays for this check, and a
        # slice and a loop cost about twice as much
        if len(succ) == 4:
            t0, _, t1, _ = succ
            if (t0 >= 0 and levels[t0] >= level) or (t1 >= 0 and levels[t1] >= level):
                raise StoreError(f"a successor in {succ} is not below node level {level}")
        else:
            t0, _, t1, _, t2, _, t3, _ = succ
            if (
                (t0 >= 0 and levels[t0] >= level)
                or (t1 >= 0 and levels[t1] >= level)
                or (t2 >= 0 and levels[t2] >= level)
                or (t3 >= 0 and levels[t3] >= level)
            ):
                raise StoreError(f"a successor in {succ} is not below node level {level}")
        free = self.free
        if free:
            node = free.pop()
            levels[node] = level
            self.succ[node] = succ
            # the nodes created before this one: allocated + reclaimed
            self.born[node] = len(levels) - len(free) - 1 + self.reclaimed
        else:
            node = len(levels)
            levels.append(level)
            self.succ.append(succ)
            self.ref.append(0)
            self.born.append(node + self.reclaimed)
        table[succ] = node
        return node

    def check(self, target: int) -> None:
        """Raise StoreError unless target is TERMINAL, ZERO_STUB or the id
        of a node the pool holds: an id it never issued, or the id of a
        swept node (an edge kept across node GC must be referenced)."""
        succs = self.succ
        if not ZERO_STUB <= target < len(succs):
            raise StoreError(f"{self.kind}{target} was never issued")
        if target >= 0 and succs[target] is None:
            raise StoreError(
                f"{self.kind}{target} was swept; an edge kept across node GC must be referenced"
            )

    @property
    def allocated(self) -> int:
        """Nodes held now, referenced or not."""
        return len(self.level) - len(self.free)

    @property
    def created(self) -> int:
        """Nodes inserted, ever."""
        return self.allocated + self.reclaimed

    @property
    def lookups(self) -> int:
        """Unique-table lookups, ever."""
        return self.hits + self.created

    def sweep(self) -> int:
        """Free every unreferenced node; returns the number freed. Each
        level's unique table is rebuilt from the nodes it keeps, which
        also returns the room a table grew to before the sweep."""
        succs, refs, free, tables = self.succ, self.ref, self.free, self.tables
        reclaimed = 0
        for level, old in enumerate(tables):
            kept = {}
            for succ, node in old.items():
                if refs[node]:
                    kept[succ] = node
                else:
                    succs[node] = None
                    free.append(node)
                    reclaimed += 1
            tables[level] = kept
        self.reclaimed += reclaimed
        return reclaimed

    def reachable(self, target: int) -> set[int]:
        """Ids of the nodes reachable from `target`, itself included."""
        self.check(target)
        if target < 0:
            return set()
        succs = self.succ
        seen = {target}
        stack = [target]
        while stack:
            for t in succs[stack.pop()][::2]:
                if t >= 0 and t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen


class NodeStore:
    """Owns all nodes of one engine instance. Single-threaded by design;
    independent stores may be used from different threads freely.

    Node GC may run inside any simulate_* call and at every
    collect_garbage(). The root a run returns stays referenced; any
    other edge kept across either must be referenced (inc_ref) until it
    is last used, or its nodes may be swept and their ids reissued."""

    def __init__(self, num_levels: int, mode: str = MODE_NEW) -> None:
        if num_levels < 1:
            raise ValueError("need at least one level")
        self.num_levels = num_levels
        self.weights = WeightTable()
        self.vec = _Pool(num_levels, VEC)
        self.mat = _Pool(num_levels, MAT)
        # Legacy identity edges I_0 .. I_k by top level (see mdd.identity_chain).
        self.identity_m: list[tuple] = []
        # Every weight pair vdd.make_vector_node has stored: normalized pairs
        # it hands to the unique table as they are (see there). Node GC
        # leaves it alone.
        self.normal_pairs: set[tuple[int, int]] = set()

        # peak_live: the most nodes referenced at once, both kinds together
        self._ref_live = 0
        self.peak_live = 0
        self.gc_runs = 0
        # node GC is due once either pool holds more nodes than this
        self.gc_limit = GC_THRESHOLD
        self.ct_hits = 0
        self.ct_misses = 0
        self._mode = MODE_NEW
        self.mode = mode

        # Per tag: None, then a sparse dict, then a flat list (see the
        # module docstring).
        self._ct: list[dict | list | None] = [None] * _NUM_TAGS

    def require_levels(self, n: int) -> None:
        """Raise ValueError unless the store has at least n levels."""
        if self.num_levels < n:
            raise ValueError(f"store has {self.num_levels} levels, {n} needed")

    @property
    def mode(self) -> str:
        """MODE_NEW or MODE_LEGACY; see the module docstring."""
        return self._mode

    @mode.setter
    def mode(self, mode: str) -> None:
        if mode not in (MODE_NEW, MODE_LEGACY):
            raise ValueError(f"unknown mode {mode!r}")
        if mode != self._mode and self.mat.created:
            raise StoreError(
                f"store holds {self._mode}-mode matrix nodes, cannot switch to {mode}"
            )
        self._mode = mode

    # The benchmark harness (perfbench/child.py) reads the pools' counters
    # under these names; the lookup counts as one-element tuples it sums.
    @property
    def created_v(self) -> int:
        return self.vec.created

    @property
    def created_m(self) -> int:
        return self.mat.created

    @property
    def ut_lookups_v(self) -> tuple[int]:
        return (self.vec.lookups,)

    @property
    def ut_lookups_m(self) -> tuple[int]:
        return (self.mat.lookups,)

    def pool(self, kind: str) -> _Pool:
        """The pool of node kind VEC or MAT."""
        if kind == VEC:
            return self.vec
        if kind == MAT:
            return self.mat
        raise StoreError(f"unknown node kind {kind!r}")

    # -- reference counting --------------------------------------------

    def inc_ref(self, kind: str, edge: tuple) -> None:
        """Reference the target of `edge`; a node referenced for the first
        time references its children in turn."""
        self._walk(kind, edge, 1)

    def dec_ref(self, kind: str, edge: tuple) -> None:
        """Release one reference to the target of `edge`; a node whose
        count drops to zero releases its children in turn."""
        self._walk(kind, edge, -1)

    def _walk(self, kind: str, edge: tuple, step: int) -> None:
        """Add step (+1 or -1) to the count of edge's target. A node whose
        count reaches 1 going up or 0 going down passes the step on to its
        children. An underflow stops the walk, and _ref_live keeps the
        nodes it released before. A target the pool does not hold (see
        check) raises before any count changes; the children of an
        allocated node are allocated."""
        pool = self.pool(kind)
        target = edge[0]
        pool.check(target)
        if target < 0:
            return
        refs = pool.ref
        succs = pool.succ
        live = self._ref_live
        passes = 1 if step > 0 else 0
        stack = [target]
        pop = stack.pop
        push = stack.append
        if kind == VEC:
            while stack:
                node = pop()
                r = refs[node] + step
                if r < 0:
                    self._ref_live = live
                    raise StoreError(f"refcount underflow on {kind}{node}")
                refs[node] = r
                if r == passes:
                    live += step
                    t0, _, t1, _ = succs[node]
                    if t0 >= 0:
                        push(t0)
                    if t1 >= 0:
                        push(t1)
        else:
            while stack:
                node = pop()
                r = refs[node] + step
                if r < 0:
                    self._ref_live = live
                    raise StoreError(f"refcount underflow on {kind}{node}")
                refs[node] = r
                if r == passes:
                    live += step
                    t0, _, t1, _, t2, _, t3, _ = succs[node]
                    if t0 >= 0:
                        push(t0)
                    if t1 >= 0:
                        push(t1)
                    if t2 >= 0:
                        push(t2)
                    if t3 >= 0:
                        push(t3)
        self._ref_live = live
        # the live count moves one way per walk, so an up-walk peaks at its end
        if live > self.peak_live:
            self.peak_live = live

    # -- garbage collection ----------------------------------------------

    def collect_garbage(self) -> int:
        """Sweep every unreferenced node; returns the number reclaimed.

        Transitive refcounts make liveness local: a node is reachable
        from a positively-referenced root iff its own count is positive.
        The compute tables and the identity table are dropped
        since their entries may point at swept nodes. A sweep that frees
        under a quarter of the nodes doubles gc_limit, so a run whose
        nodes stay live does not sweep over and over.
        """
        pools = (self.vec, self.mat)
        before = sum(pool.allocated for pool in pools)
        reclaimed = sum(pool.sweep() for pool in pools)
        self._ct = [None] * _NUM_TAGS
        self.identity_m.clear()
        self.gc_runs += 1
        if before and reclaimed < before * 0.25:
            self.gc_limit *= 2
        return reclaimed

    def maybe_collect(self) -> int:
        """Collect iff either pool holds more than gc_limit nodes. Call
        only at safe points: every unreferenced node is swept. A pool only
        grows between sweeps, so a count read here sees every crossing."""
        if self.vec.allocated > self.gc_limit or self.mat.allocated > self.gc_limit:
            return self.collect_garbage()
        return 0

    # -- compute table ---------------------------------------------------

    def ct_lookup(self, tag: int, key: tuple):
        """The result edge stored under `key` for operation `tag`, or None."""
        slots = self._ct[tag]
        if slots is not None:
            i = hash(key) & _CT_MASK
            if type(slots) is list:
                i *= 3
                if slots[i] == key:
                    self.ct_hits += 1
                    return (slots[i + 1], slots[i + 2])
            else:
                entry = slots.get(i)
                if entry is not None and entry[0] == key:
                    self.ct_hits += 1
                    return entry[1:]
        self.ct_misses += 1
        return None

    def ct_insert(self, tag: int, key: tuple, result: tuple) -> None:
        """Store the result edge of operation `tag` under `key`, evicting
        whatever held its slot."""
        slots = self._ct[tag]
        i = hash(key) & _CT_MASK
        if type(slots) is list:
            i *= 3
            slots[i] = key
            slots[i + 1], slots[i + 2] = result
            return
        if slots is None:
            slots = self._ct[tag] = {}
        slots[i] = (key, *result)
        if len(slots) > _CT_SPARSE_MAX:
            flat = self._ct[tag] = [None] * (3 * (_CT_MASK + 1))
            for j, entry in slots.items():
                flat[3 * j : 3 * j + 3] = entry

    # -- introspection ---------------------------------------------------

    def ct_hit_rate(self) -> float:
        total = self.ct_hits + self.ct_misses
        return self.ct_hits / total if total else 0.0
