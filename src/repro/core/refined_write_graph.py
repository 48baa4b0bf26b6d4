"""The refined write graph ``rW`` (Section 3, Figure 6), indexed.

The fundamental insight of the paper: a subsequent update can make an
object *unexposed* — no uninstalled operation needs to read the value an
earlier operation wrote to it — and an unexposed object need not be
flushed to install the operations that wrote it.  ``rW`` captures this:

* unlike ``W``, ``vars(n)`` (the atomic flush set) can be a *strict
  subset* of ``Writes(n)``; the difference ``Notx(n)`` holds the
  not-exposed objects, which are installed without being flushed;
* extra edges — write-write edges to the node of the blind writer, and
  *inverse write-read* edges from readers of an unexposed object's last
  value — ensure it is safe to skip flushing ``Notx(n)``.

The construction is incremental (``add_operation`` is the paper's
``addop_rW``) and engineered so per-insert work is proportional to the
objects the operation touches, not to the graph:

* the Figure 6 scans ("nodes whose vars overlap exp", "nodes that read
  an overwritten object", "nodes holding a blindly-written object") are
  answered by inverted indexes — ``_last_write_node`` doubles as the
  vars-holder index (X ∈ vars(n) only for X's last-writer node) and
  ``_reader_nodes`` maps each object to every node that read it;
* instead of a full-graph SCC pass per insert, a topological order over
  the nodes is maintained incrementally (Pearce–Kelly style): edges
  added by the current insert that land against the order seed a
  bounded region repair whose restricted Tarjan pass finds exactly the
  graph's non-trivial SCCs, so cycle collapses are counted identically
  to the batch construction;
* nodes live in an insertion-ordered dict, a ready set tracks the
  predecessor-free nodes and a heap keys them by ``(|vars|, node_id)``,
  so ``least_minimal`` and ``remove_node`` do no graph rescans: the
  next node to install costs O(log n), and a minimal node whose flush
  set has emptied (installable at zero I/O) is found at the top.

``repro.core._reference.ReferenceWriteGraph`` preserves the original
scan-everything construction; the differential property tests hold this
engine to exact node/edge/collapse equality with it.

Invariant maintained throughout: for every object X with at least one
uninstalled writer, X belongs to ``vars`` of exactly one node — the node
containing X's *last* uninstalled writer — or to no node's vars if every
remaining writer holds it in ``Notx``.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.common.identifiers import ObjectId
from repro.core.graph_utils import strongly_connected_components
from repro.core.operation import Operation
from repro.obs.metrics import COUNT_BUCKETS, NULL_OBS

#: Stale frontier entries tolerated beyond twice the ready set before
#: the heap is rebuilt from it.
_FRONTIER_SLACK = 64

#: What an index answers for a key it has no entry for.
_NONE: frozenset = frozenset()


def _index_add(index: Dict, key, member) -> None:
    """Add ``member`` to ``index[key]``, allocating the set on first use."""
    members = index.get(key)
    if members is None:
        index[key] = {member}
    else:
        members.add(member)


def _index_discard(index: Dict, key, member) -> None:
    """Drop ``member`` from ``index[key]``, and the entry once it empties."""
    members = index.get(key)
    if members is not None:
        members.discard(member)
        if not members:
            del index[key]


class RWNode:
    """A node of rW: operations, their flush set vars, and Notx.

    A pinned single-put node is the commonest thing a serving graph
    holds, so a node is three slots and two sets — no ``__dict__`` and
    no reverse index of its own: the graph finds the objects a node read
    or last wrote by walking ``ops``.
    """

    __slots__ = ("node_id", "ops", "vars")

    _ids = itertools.count()

    def __init__(self) -> None:
        self.node_id = next(RWNode._ids)
        self.ops: Set[Operation] = set()
        self.vars: Set[ObjectId] = set()

    @property
    def writes(self) -> Set[ObjectId]:
        """``Writes(n)``: union of writesets of ops(n)."""
        out: Set[ObjectId] = set()
        for op in self.ops:
            out |= op.writes
        return out

    @property
    def reads(self) -> Set[ObjectId]:
        """``Reads(n)``: union of readsets of ops(n)."""
        out: Set[ObjectId] = set()
        for op in self.ops:
            out |= op.reads
        return out

    @property
    def notx(self) -> Set[ObjectId]:
        """``Notx(n) = Writes(n) − vars(n)``: installed without flushing."""
        return self.writes - self.vars

    def max_lsi(self) -> int:
        """Largest log SI among the node's operations (WAL force bound)."""
        return max(op.lsi for op in self.ops)

    def __repr__(self) -> str:
        names = ",".join(sorted(op.name for op in self.ops))
        return (
            f"<rWnode {self.node_id} ops=[{names}] vars={sorted(self.vars)} "
            f"notx={sorted(self.notx)}>"
        )

    def __hash__(self) -> int:
        return self.node_id

    def __eq__(self, other: object) -> bool:
        return self is other


class RefinedWriteGraph:
    """Incrementally-maintained refined write graph, fully indexed.

    Implements the :class:`~repro.core.engine.WriteGraphEngine`
    protocol; :class:`~repro.core.incremental_write_graph.IncrementalWriteGraph`
    reuses this class's machinery with W's coarser exposure rule.
    """

    #: Mode string reported by :meth:`stats` ("rW" here; the W-mode
    #: subclass overrides it).
    engine_name = "rW"

    def __init__(self) -> None:
        #: Insertion-ordered node set.  Merge targets are always the
        #: lowest-id member of their group and keep their slot, so
        #: iteration order is node_id-ascending — the same order the
        #: original list-based implementation exposed.
        self._nodes: Dict[RWNode, None] = {}
        #: Flush-order edges, both ways.  Like every index below, they
        #: hold non-empty sets only: a node without successors
        #: (predecessors) has no entry, so a lone pinned write costs
        #: none, and an emptied graph holds nothing.
        self._succ: Dict[RWNode, Set[RWNode]] = {}
        self._pred: Dict[RWNode, Set[RWNode]] = {}
        #: Node holding X's last uninstalled writer (the vars/Notx
        #: holder).  Doubles as the vars index: X ∈ vars(n) implies n is
        #: this map's entry for X.
        self._last_write_node: Dict[ObjectId, RWNode] = {}
        #: Nodes containing an operation that read X's *current* value,
        #: i.e. read X since its most recent write.  Feeds the inverse
        #: write-read edges, which are only drawn towards X's holder —
        #: so only objects that have one are entered here.
        self._readers_since_write: Dict[ObjectId, Set[RWNode]] = {}
        #: Every live node with X in Reads(n) — the read-write edge scan.
        self._reader_nodes: Dict[ObjectId, Set[RWNode]] = {}
        #: op -> its node, for O(1) node_of.
        self._node_of_op: Dict[Operation, RWNode] = {}
        #: Predecessor-free nodes (the installable frontier).
        self._ready: Set[RWNode] = set()
        #: The frontier keyed by flush-set size: a lazy-deletion heap of
        #: ``(|vars|, node_id, node)``.  Every ready node has an entry
        #: under its current key; an entry whose node has left the ready
        #: set or changed its key since is dead and is dropped when it
        #: surfaces (or by the rebuild that bounds the heap).
        self._frontier: List[Tuple[int, int, RWNode]] = []
        #: Incremental topological order: node -> integer rank.
        #: Invariant between inserts: every edge (u, v) has
        #: ``_topo[u] < _topo[v]``.
        self._topo: Dict[RWNode, int] = {}
        #: Fresh ranks above / below every assigned one; only the
        #: relative order of ranks matters, so they never need
        #: renumbering.
        self._next_rank: int = 0
        self._min_rank: int = 0
        #: Edges actually added by the insert in progress (including
        #: ones re-pointed by merges); the repair pass checks only these
        #: against the topological order.
        self._edge_log: List[Tuple[RWNode, RWNode]] = []
        self._logging: bool = False
        #: Count of node merges forced by cycle collapse (E8 metric).
        self.cycle_collapses: int = 0
        #: stats() counters.  ``full_rebuilds`` stays 0 by construction
        #: — an incremental engine never reconstructs from scratch; the
        #: cache manager asserts this on the hot path.
        self.full_rebuilds: int = 0
        self._ops_added: int = 0
        self._merges: int = 0
        self._removals: int = 0
        #: Observability hook (null object by default; the cache
        #: manager's ``set_obs`` swaps in the system registry).
        self.obs = NULL_OBS

    @property
    def nodes(self) -> List[RWNode]:
        """Live nodes in insertion (= node_id-ascending) order."""
        return list(self._nodes)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _new_node(self) -> RWNode:
        node = RWNode()
        self._nodes[node] = None
        self._ready.add(node)
        self._topo[node] = self._next_rank
        self._next_rank += 1
        return node

    def _add_edge(self, src: RWNode, dst: RWNode) -> None:
        if src is dst or dst in self._succ.get(src, _NONE):
            return
        _index_add(self._succ, src, dst)
        _index_add(self._pred, dst, src)
        self._ready.discard(dst)
        if self._logging:
            self._edge_log.append((src, dst))

    def _key_ready(self, node: RWNode) -> None:
        """Enter ready ``node`` in the frontier under its current key.

        Called wherever a node joins the ready set or a ready node's
        flush set changes size.  Leaving the ready set needs no call:
        the entry dies in place.
        """
        heap = self._frontier
        if len(heap) > 2 * len(self._ready) + _FRONTIER_SLACK:
            heap[:] = [(len(n.vars), n.node_id, n) for n in self._ready]
            heapq.heapify(heap)
            return
        heapq.heappush(heap, (len(node.vars), node.node_id, node))

    def _drop_node(self, node: RWNode) -> None:
        """Forget a node's membership bookkeeping (not its edges)."""
        del self._nodes[node]
        self._ready.discard(node)
        del self._topo[node]

    def _merge(self, group: List[RWNode]) -> RWNode:
        """Merge ``group`` into a single node, rewriting edges and maps.

        ``group`` must be sorted by node_id: the target (its first
        member) then keeps both the lowest id and its iteration slot.
        """
        if len(group) == 1:
            return group[0]
        self._merges += 1
        target = group[0]
        rest = group[1:]
        members = set(group)
        for node in rest:
            target.ops |= node.ops
            target.vars |= node.vars
            for op in node.ops:
                self._node_of_op[op] = target
        # Re-point edges, dropping those internal to the merged set.
        last_writer = self._last_write_node
        for node in rest:
            for succ in self._succ.pop(node, _NONE):
                _index_discard(self._pred, succ, node)
                if succ not in members:
                    self._add_edge(target, succ)
            for pred in self._pred.pop(node, _NONE):
                _index_discard(self._succ, pred, node)
                if pred not in members:
                    self._add_edge(pred, target)
            self._drop_node(node)
            # Re-point the per-object indexes at what the node's
            # operations wrote and read.
            for op in node.ops:
                for obj in op.writes:
                    if last_writer.get(obj) is node:
                        last_writer[obj] = target
                for obj in op.reads:
                    readers = self._reader_nodes[obj]
                    readers.discard(node)
                    readers.add(target)
                    since = self._readers_since_write.get(obj)
                    if since is not None and node in since:
                        since.discard(node)
                        since.add(target)
        # Internal edges vanished: the target may have become minimal.
        if target in self._pred:
            self._ready.discard(target)
        else:
            self._ready.add(target)
            self._key_ready(target)
        return target

    def _place(self, overlapping: List[RWNode], op: Operation) -> RWNode:
        """Put ``op`` in a node — the ``overlapping`` nodes merged, or a
        new one when there are none — and draw its read-write edges."""
        if overlapping:
            m = self._merge(sorted(overlapping, key=lambda n: n.node_id))
            # A sink can take a fresh top rank for free, so the edges
            # about to point at it cannot land against the topological
            # order — the repair pass then usually has nothing to do.
            if m not in self._succ:
                self._topo[m] = self._next_rank
                self._next_rank += 1
        else:
            m = self._new_node()
        m.ops.add(op)
        m.vars |= op.writes
        self._node_of_op[op] = m
        readers = self._reader_nodes
        for obj in op.reads:
            _index_add(readers, obj, m)
        # Any node that read an object op now overwrites must install
        # first, else replaying its operations after a crash would see
        # the wrong input.
        for obj in op.writes:
            for p in readers.get(obj, _NONE):
                if p is not m:
                    self._add_edge(p, m)
        return m

    # ------------------------------------------------------------------
    # incremental cycle collapse
    # ------------------------------------------------------------------
    def _repair_order(self) -> None:
        """Restore the topological order after an insert's new edges.

        Edges logged by the insert whose endpoints are both still alive
        and land against the maintained order are *violations*.  No
        violations ⇒ every edge still respects the order ⇒ the graph is
        acyclic and nothing moves.  Otherwise the repair works on a
        closed set of nodes: the full *descendant closure* of the
        violation targets, or, symmetrically, the full *ancestor
        closure* of the violation sources — both are discovered in
        lockstep and the one that finishes first wins, so discovery
        costs twice the smaller cone.  Every cycle must cross a
        violating edge (non-violating edges walk strictly forward in
        the order) and so lies entirely inside either closure — a
        Tarjan pass over it finds exactly the full graph's non-trivial
        SCCs, and collapse counts match the batch construction.  The
        closure's survivors then move, in topological order, to fresh
        ranks past the end of the order (descendant cone) or before its
        start (ancestor cone), which restores the invariant everywhere:
        a successor-closed set has no outside successors and its
        outside predecessors rank below the appended block, and
        mirror-image for a predecessor-closed set.
        """
        violations = [
            (src, dst)
            for src, dst in self._edge_log
            if src in self._topo
            and dst in self._topo
            and self._topo[src] >= self._topo[dst]
        ]
        self._edge_log.clear()
        if not violations:
            return
        self._logging = False
        obs = self.obs
        if not obs.enabled:
            self._repair_violations(violations)
            return
        collapses_before = self.cycle_collapses
        started = time.perf_counter()
        cone = self._repair_violations(violations)
        obs.observe("engine.repair", time.perf_counter() - started)
        obs.observe("engine.repair_cone_nodes", cone, COUNT_BUCKETS)
        collapsed = self.cycle_collapses - collapses_before
        if collapsed:
            obs.count("engine.cycle_collapses", collapsed)

    def _repair_violations(
        self, violations: List[Tuple[RWNode, RWNode]]
    ) -> int:
        """Run the region repair for ``violations``; returns the size of
        the discovered closure (the repair cone)."""
        fwd: Set[RWNode] = set()
        fwd_stack = [dst for _, dst in violations]
        bwd: Set[RWNode] = set()
        bwd_stack = [src for src, _ in violations]
        while True:
            node = fwd_stack.pop()
            if node not in fwd:
                fwd.add(node)
                fwd_stack.extend(
                    s for s in self._succ.get(node, _NONE) if s not in fwd
                )
            if not fwd_stack:
                closure, moving_down = fwd, True
                break
            node = bwd_stack.pop()
            if node not in bwd:
                bwd.add(node)
                bwd_stack.extend(
                    p for p in self._pred.get(node, _NONE) if p not in bwd
                )
            if not bwd_stack:
                closure, moving_down = bwd, False
                break
        ordered = sorted(closure, key=self._topo.__getitem__)
        # A cycle threads some violating edge (u, v) and so carries v's
        # descendants back around to u — unless a violation's far
        # endpoint made it into the closure, no cycle exists and the
        # SCC pass can be skipped.
        if moving_down:
            may_cycle = any(src in closure for src, _ in violations)
        else:
            may_cycle = any(dst in closure for _, dst in violations)
        if not may_cycle:
            # Acyclic repair: with no violating edge inside the
            # closure, every intra-closure edge already respects the
            # old ranks — reassigning fresh ranks in old-rank order
            # keeps them valid without a Kahn pass.
            if moving_down:
                for node in ordered:
                    self._topo[node] = self._next_rank
                    self._next_rank += 1
            else:
                self._min_rank -= len(ordered)
                for offset, node in enumerate(ordered):
                    self._topo[node] = self._min_rank + offset
            return len(ordered)
        # The closure is closed under the direction searched, so the
        # unrestricted adjacency stays inside it; for the ancestor
        # cone Tarjan runs on the transpose, which has the same SCCs.
        adjacency = self._succ if moving_down else self._pred
        obs = self.obs
        collapse_started = time.perf_counter() if obs.enabled else 0.0
        for scc in strongly_connected_components(ordered, adjacency):
            if len(scc) > 1:
                self.cycle_collapses += 1
                self._merge(sorted(scc, key=lambda n: n.node_id))
        if obs.enabled:
            obs.observe(
                "engine.collapse", time.perf_counter() - collapse_started
            )
        survivors = [n for n in ordered if n in self._topo]
        survivor_set = set(survivors)
        # Kahn over the (now acyclic) closure, smallest node_id first
        # for determinism.  The descendant cone streams out to fresh
        # high ranks; the ancestor cone runs on the transpose (sinks
        # first) and streams down to fresh low ranks.
        forward, backward = (
            (self._succ, self._pred) if moving_down else
            (self._pred, self._succ)
        )
        indegree = {
            n: len(backward.get(n, _NONE) & survivor_set) for n in survivors
        }
        frontier = [(n.node_id, n) for n in survivors if indegree[n] == 0]
        heapq.heapify(frontier)
        placed = 0
        while frontier:
            _, node = heapq.heappop(frontier)
            if moving_down:
                self._topo[node] = self._next_rank
                self._next_rank += 1
            else:
                self._min_rank -= 1
                self._topo[node] = self._min_rank
            placed += 1
            for neighbor in forward.get(node, _NONE):
                if neighbor in survivor_set:
                    indegree[neighbor] -= 1
                    if indegree[neighbor] == 0:
                        heapq.heappush(frontier, (neighbor.node_id, neighbor))
        assert placed == len(survivors), "collapse left a cycle"
        return len(ordered)

    # ------------------------------------------------------------------
    # addop_rW (Figure 6)
    # ------------------------------------------------------------------
    def add_operation(self, op: Operation) -> RWNode:
        """Insert ``op``, presented in conflict order, and return its node."""
        obs = self.obs
        started = time.perf_counter() if obs.enabled else 0.0
        self._ops_added += 1
        exp = op.exp
        notexp = op.notexp
        self._edge_log.clear()
        self._logging = True

        # Merge nodes whose flush sets overlap op's exposed updates: op
        # reads those values, so it must install atomically with (and
        # its results flush with) the operations that produced them.
        # X ∈ vars(n) only for n = X's last-writer node, so the holder
        # lookup replaces the all-nodes scan.
        overlapping: List[RWNode] = []
        for obj in exp:
            holder = self._last_write_node.get(obj)
            if (
                holder is not None
                and obj in holder.vars
                and holder not in overlapping
            ):
                overlapping.append(holder)
        m = self._place(overlapping, op)

        # Blind updates un-expose objects held in other nodes' flush
        # sets: remove them there, record the write-write ordering, and
        # protect the dropped values with inverse write-read edges.
        if notexp:
            dropped_by_holder: Dict[RWNode, Set[ObjectId]] = {}
            for obj in notexp:
                p = self._last_write_node.get(obj)
                if p is None or p is m or obj not in p.vars:
                    continue
                dropped_by_holder.setdefault(p, set()).add(obj)
            for p, dropped in dropped_by_holder.items():
                p.vars -= dropped
                # op is in must(op') for op' in ops(p): the blind write
                # overwrites values p's operations wrote, so p installs
                # first (write-write edge).
                self._add_edge(p, m)
                # Inverse write-read edges: any node q that read
                # Lastw(p, X) must install before p so that when p is
                # installed, X's unflushed value is no longer needed.
                for obj in dropped:
                    for q in self._readers_since_write.get(obj, ()):
                        if q is not p:
                            self._add_edge(q, p)
                if p in self._ready:
                    self._key_ready(p)

        # Bookkeeping: op's reads happen against current values (before
        # its writes replace them), so an exposed write's own read is
        # against the value it replaces and the new value starts with no
        # readers.  A value with no uninstalled writer is nobody's to
        # protect: its readers are not entered.
        last_writer = self._last_write_node
        since = self._readers_since_write
        for obj in op.reads - op.writes:
            if obj in last_writer:
                _index_add(since, obj, m)
        for obj in op.writes:
            last_writer[obj] = m
            since.pop(obj, None)

        if m in self._ready:
            self._key_ready(m)
        self._repair_order()
        self._logging = False
        if obs.enabled:
            obs.observe("engine.addop", time.perf_counter() - started)
        # The merge/collapse steps may have replaced m; return the node
        # that now holds op.
        return self._node_of_op[op]

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def minimal_nodes(self) -> List[RWNode]:
        """Nodes with no predecessors — installable by flushing vars(n).

        Sorts the ready set: for tests and the reference-graph oracle.
        The install paths take :meth:`least_minimal`.
        """
        return sorted(self._ready, key=lambda n: n.node_id)

    def least_minimal(self) -> Optional[RWNode]:
        """The minimal node with the smallest flush set (lowest node_id
        among equals), or None when the graph is empty — what
        ``min(minimal_nodes(), key=(|vars|, node_id))`` picks, off the
        top of the frontier heap.  The node stays in the graph."""
        heap = self._frontier
        ready = self._ready
        while heap:
            size, _, node = heap[0]
            if node in ready and len(node.vars) == size:
                return node
            heapq.heappop(heap)
        return None

    def remove_node(self, node: RWNode) -> Tuple[Set[ObjectId], Set[ObjectId]]:
        """Remove an installed node; returns ``(vars, Notx)`` at removal.

        The caller must only remove minimal nodes (checked), must have
        flushed ``vars`` atomically, and should advance the rSIs of all
        of ``Writes(n) = vars ∪ Notx``.
        """
        if node in self._pred:
            raise ValueError(f"{node!r} has uninstalled predecessors")
        self._removals += 1
        flushed = set(node.vars)
        unexposed = node.writes
        unexposed -= flushed
        for succ in self._succ.pop(node, _NONE):
            _index_discard(self._pred, succ, node)
            if succ not in self._pred:
                self._ready.add(succ)
                self._key_ready(succ)
        self._drop_node(node)
        last_writer = self._last_write_node
        since = self._readers_since_write
        for op in node.ops:
            del self._node_of_op[op]
            for obj in op.writes:
                if last_writer.get(obj) is node:
                    # X's value is installed: no writer, nothing to
                    # protect, so its readers go too.
                    del last_writer[obj]
                    since.pop(obj, None)
            for obj in op.reads:
                _index_discard(self._reader_nodes, obj, node)
                _index_discard(since, obj, node)
        return flushed, unexposed

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def node_of(self, op: Operation) -> Optional[RWNode]:
        """The node containing ``op``, or None if op was installed."""
        return self._node_of_op.get(op)

    def holder_of(self, obj: ObjectId) -> Optional[RWNode]:
        """The node with ``obj`` in vars or Notx via its last writer."""
        return self._last_write_node.get(obj)

    def successors(self, node: RWNode) -> Set[RWNode]:
        """Nodes that must install after ``node``."""
        return set(self._succ.get(node, _NONE))

    def predecessors(self, node: RWNode) -> Set[RWNode]:
        """Nodes that must install before ``node``."""
        return set(self._pred.get(node, _NONE))

    def edges(self) -> Iterable[Tuple[RWNode, RWNode]]:
        """All flush-order edges."""
        for src, dsts in self._succ.items():
            for dst in dsts:
                yield src, dst

    def is_acyclic(self) -> bool:
        """True when no non-trivial SCC exists (always, post-collapse)."""
        sccs = strongly_connected_components(list(self._nodes), self._succ)
        return all(len(scc) == 1 for scc in sccs)

    def uninstalled_operations(self) -> Set[Operation]:
        """All operations currently held by the graph."""
        return set(self._node_of_op)

    def flush_set_sizes(self) -> List[int]:
        """|vars(n)| for every node — the E4 metric."""
        return [len(n.vars) for n in self._nodes]

    def stats(self) -> Dict[str, object]:
        """Engine counters (the WriteGraphEngine ``stats()`` hook).

        ``live_nodes`` alone hides a collapsed graph — a few hundred
        nodes, one of them holding thousands of operations behind a
        flush set no zero-I/O install can retire — so the shape is
        reported too: ``live_ops``, ``largest_node_ops`` and
        ``largest_flush_set``.  They cost one pass over the nodes here,
        when somebody asks, and nothing per insert; the node list is
        copied first because the asker may be another thread.
        """
        nodes = list(self._nodes)
        return {
            "engine": self.engine_name,
            "operations_added": self._ops_added,
            "live_nodes": len(nodes),
            "live_ops": len(self._node_of_op),
            "largest_node_ops": max((len(n.ops) for n in nodes), default=0),
            "largest_flush_set": max((len(n.vars) for n in nodes), default=0),
            "merges": self._merges,
            "cycle_collapses": self.cycle_collapses,
            "removals": self._removals,
            "full_rebuilds": self.full_rebuilds,
        }

    def __len__(self) -> int:
        return len(self._nodes)
