"""Canonical node storage: unique tables, reference counts, GC, compute table.

Node handles are plain ints with one id space per node kind ("v" for
vector nodes with 2 successors, "m" for matrix nodes with 4). Each kind
has its own unique-table lookup (ut_lookup_v, ut_lookup_m), and the
refcount walks run one loop per arity, so no per-node step dispatches
on the kind; a kind string other than VEC or MAT raises StoreError. Two
sentinel targets live below every level:

    TERMINAL  -- the path end; a matrix edge pointing at it denotes a
                 scaled identity over every level it skips
    ZERO_STUB -- the all-zero subtree

An edge is a (target, weight-handle) pair. Successor tuples are stored
flat, (t0, w0, t1, w1, ...), so unique-table keys hash fast. The zero
edge is always (ZERO_STUB, weights.ZERO): a weight of ZERO never appears
on any other target.

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
deferred to collect_garbage, which also clears the compute table and the
legacy identity table because their entries may name swept nodes.
Automatic collection only happens at safe points (maybe_collect), never
in the middle of a recursion whose intermediate nodes are not yet
referenced.
"""

from __future__ import annotations

from .weights import WeightTable

TERMINAL = -1
ZERO_STUB = -2

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

# Per-(kind, level) unique-table size that signals collection pressure.
TABLE_GC_THRESHOLD = 1 << 15
# Memory backstop: allocated nodes of one kind across all levels. The
# per-table threshold alone never fires on chain-shaped workloads whose
# total allocation still grows quadratically with the qubit count.
GLOBAL_GC_THRESHOLD = 1 << 20


class StoreError(RuntimeError):
    """Structural violation or refcount misuse; always a caller bug."""


class NodeStore:
    """Owns all nodes of one engine instance. Single-threaded by design;
    independent stores may be used from different threads freely."""

    def __init__(
        self,
        num_levels: int,
        weights: WeightTable | None = None,
        ct_bits: int | None = 16,
        mode: str = MODE_NEW,
    ) -> None:
        if num_levels < 1:
            raise ValueError("need at least one level")
        self.num_levels = num_levels
        self.weights = weights if weights is not None else WeightTable()

        self.v_level: list[int] = []
        self.v_succ: list[tuple | None] = []
        self.v_ref: list[int] = []
        self._v_free: list[int] = []
        self.m_level: list[int] = []
        self.m_succ: list[tuple | None] = []
        self.m_ref: list[int] = []
        self._m_free: list[int] = []

        self.ut_v: list[dict] = [dict() for _ in range(num_levels)]
        self.ut_m: list[dict] = [dict() for _ in range(num_levels)]
        self.ut_lookups_v = [0] * num_levels
        self.ut_lookups_m = [0] * num_levels
        # Legacy identity edges I_0 .. I_k by top level (see mdd.identity_chain).
        self.identity_m: list[tuple] = []

        # created_*: unique-table insertions per kind, ever; peak_live: the
        # most nodes referenced at once, both kinds together
        self.created_v = 0
        self.created_m = 0
        self.allocated_v = 0
        self.allocated_m = 0
        self._ref_live = 0
        self.peak_live = 0
        self.gc_runs = 0
        self.ct_hits = 0
        self.ct_misses = 0
        self._mode = MODE_NEW
        self.mode = mode

        self._table_limit = TABLE_GC_THRESHOLD
        self._global_limit = GLOBAL_GC_THRESHOLD
        self._pressure = False

        if ct_bits:
            self._ct_mask = (1 << ct_bits) - 1
            self._ct: list[list] | None = [
                [None] * (1 << ct_bits) for _ in range(_NUM_TAGS)
            ]
        else:
            self._ct_mask = 0
            self._ct = None

    @property
    def mode(self) -> str:
        """MODE_NEW or MODE_LEGACY; see the module docstring."""
        return self._mode

    @mode.setter
    def mode(self, mode: str) -> None:
        if mode not in (MODE_NEW, MODE_LEGACY):
            raise ValueError(f"unknown mode {mode!r}")
        if mode != self._mode and self.created_m:
            raise StoreError(
                f"store holds {self._mode}-mode matrix nodes, cannot switch to {mode}"
            )
        self._mode = mode

    # -- unique tables -------------------------------------------------

    def ut_lookup_v(self, level: int, succ: tuple) -> int:
        """Canonical vector node for a flat successor tuple (t0, w0, t1,
        w1); inserts it if absent."""
        table = self.ut_v[level]
        self.ut_lookups_v[level] += 1
        node = table.get(succ)
        if node is not None:
            return node
        levels = self.v_level
        t0, _, t1, _ = succ
        for t in (t0, t1):
            if t >= 0 and levels[t] >= level:
                raise StoreError(f"successor level {levels[t]} not below node level {level}")
        free = self._v_free
        if free:
            node = free.pop()
            levels[node] = level
            self.v_succ[node] = succ
            self.v_ref[node] = 0
        else:
            node = len(levels)
            levels.append(level)
            self.v_succ.append(succ)
            self.v_ref.append(0)
        table[succ] = node
        self.created_v += 1
        self.allocated_v += 1
        if len(table) > self._table_limit or self.allocated_v > self._global_limit:
            self._pressure = True
        return node

    def ut_lookup_m(self, level: int, succ: tuple) -> int:
        """Canonical matrix node for a flat successor tuple (t0, w0, ...,
        t3, w3); inserts it if absent."""
        table = self.ut_m[level]
        self.ut_lookups_m[level] += 1
        node = table.get(succ)
        if node is not None:
            return node
        levels = self.m_level
        t0, _, t1, _, t2, _, t3, _ = succ
        for t in (t0, t1, t2, t3):
            if t >= 0 and levels[t] >= level:
                raise StoreError(f"successor level {levels[t]} not below node level {level}")
        free = self._m_free
        if free:
            node = free.pop()
            levels[node] = level
            self.m_succ[node] = succ
            self.m_ref[node] = 0
        else:
            node = len(levels)
            levels.append(level)
            self.m_succ.append(succ)
            self.m_ref.append(0)
        table[succ] = node
        self.created_m += 1
        self.allocated_m += 1
        if len(table) > self._table_limit or self.allocated_m > self._global_limit:
            self._pressure = True
        return node

    # -- reference counting --------------------------------------------

    def _arrays(self, kind: str) -> tuple[list, list]:
        """(refs, succs) of one node kind."""
        if kind == VEC:
            return self.v_ref, self.v_succ
        if kind == MAT:
            return self.m_ref, self.m_succ
        raise StoreError(f"unknown node kind {kind!r}")

    def inc_ref(self, kind: str, edge: tuple) -> None:
        """Reference the target of `edge`; a node referenced for the first
        time references its children in turn."""
        refs, succs = self._arrays(kind)
        target = edge[0]
        if target < 0:
            return
        live = self._ref_live
        stack = [target]
        pop = stack.pop
        push = stack.append
        if kind == VEC:
            while stack:
                node = pop()
                r = refs[node] + 1
                refs[node] = r
                if r == 1:
                    live += 1
                    t0, _, t1, _ = succs[node]
                    if t0 >= 0:
                        push(t0)
                    if t1 >= 0:
                        push(t1)
        else:
            while stack:
                node = pop()
                r = refs[node] + 1
                refs[node] = r
                if r == 1:
                    live += 1
                    t0, _, t1, _, t2, _, t3, _ = succs[node]
                    if t0 >= 0:
                        push(t0)
                    if t1 >= 0:
                        push(t1)
                    if t2 >= 0:
                        push(t2)
                    if t3 >= 0:
                        push(t3)
        # the live count only rises during the walk, so its end is its peak
        self._ref_live = live
        if live > self.peak_live:
            self.peak_live = live

    def dec_ref(self, kind: str, edge: tuple) -> None:
        """Release one reference to the target of `edge`; a node whose
        count drops to zero releases its children in turn."""
        refs, succs = self._arrays(kind)
        target = edge[0]
        if target < 0:
            return
        live = self._ref_live
        stack = [target]
        pop = stack.pop
        push = stack.append
        if kind == VEC:
            while stack:
                node = pop()
                r = refs[node] - 1
                if r < 0:
                    self._ref_live = live
                    raise StoreError(f"refcount underflow on {kind}{node}")
                refs[node] = r
                if r == 0:
                    live -= 1
                    t0, _, t1, _ = succs[node]
                    if t0 >= 0:
                        push(t0)
                    if t1 >= 0:
                        push(t1)
        else:
            while stack:
                node = pop()
                r = refs[node] - 1
                if r < 0:
                    self._ref_live = live
                    raise StoreError(f"refcount underflow on {kind}{node}")
                refs[node] = r
                if r == 0:
                    live -= 1
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

    # -- garbage collection ----------------------------------------------

    def collect_garbage(self, force: bool = False) -> int:
        """Sweep every unreferenced node; returns the number reclaimed.

        Transitive refcounts make liveness local: a node is reachable
        from a positively-referenced root iff its own count is positive.
        The compute table and the identity table are cleared wholesale
        since their entries may point at swept nodes.
        """
        before = self.allocated_v + self.allocated_m
        reclaimed = 0
        for kind in (VEC, MAT):
            if kind == VEC:
                levels, succs, refs, free, tables = (
                    self.v_level, self.v_succ, self.v_ref, self._v_free, self.ut_v)
            else:
                levels, succs, refs, free, tables = (
                    self.m_level, self.m_succ, self.m_ref, self._m_free, self.ut_m)
            for node in range(len(succs)):
                succ = succs[node]
                if succ is None or refs[node] != 0:
                    continue
                del tables[levels[node]][succ]
                succs[node] = None
                free.append(node)
                reclaimed += 1
                if kind == VEC:
                    self.allocated_v -= 1
                else:
                    self.allocated_m -= 1
        if self._ct is not None:
            size = self._ct_mask + 1
            self._ct = [[None] * size for _ in range(_NUM_TAGS)]
        self.identity_m.clear()
        self.gc_runs += 1
        self._pressure = False
        if not force and before and reclaimed < before * 0.25:
            self._table_limit *= 2
            self._global_limit *= 2
        return reclaimed

    def maybe_collect(self) -> int:
        """Collect iff some table crossed its threshold. Call only at safe
        points: every unreferenced node is swept."""
        if self._pressure:
            return self.collect_garbage()
        return 0

    # -- compute table ---------------------------------------------------

    def ct_lookup(self, tag: int, key: tuple):
        if self._ct is None:
            self.ct_misses += 1
            return None
        entry = self._ct[tag][hash(key) & self._ct_mask]
        if entry is not None and entry[0] == key:
            self.ct_hits += 1
            return entry[1]
        self.ct_misses += 1
        return None

    def ct_insert(self, tag: int, key: tuple, result) -> None:
        if self._ct is not None:
            self._ct[tag][hash(key) & self._ct_mask] = (key, result)

    # -- introspection ---------------------------------------------------

    def reachable(self, kind: str, target: int) -> set[int]:
        """Ids of the nodes reachable from `target`, itself included."""
        succs = self._arrays(kind)[1]
        if target < 0:
            return set()
        seen = {target}
        stack = [target]
        while stack:
            for t in succs[stack.pop()][0::2]:
                if t >= 0 and t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    def vector_nodes(self):
        """Yield (id, level, succ) for every allocated vector node."""
        for node, succ in enumerate(self.v_succ):
            if succ is not None:
                yield node, self.v_level[node], succ

    def matrix_nodes(self):
        for node, succ in enumerate(self.m_succ):
            if succ is not None:
                yield node, self.m_level[node], succ

    def referenced_live(self) -> int:
        return self._ref_live

    def ct_hit_rate(self) -> float:
        total = self.ct_hits + self.ct_misses
        return self.ct_hits / total if total else 0.0
