"""The scan-everything reference construction of rW — kept, not used.

This is the original ``addop_rW`` implementation, preserved verbatim in
spirit: every insert scans all nodes for flush-set overlap, for readers
of the written objects, and for vars holding the blindly-written
objects, then reruns a full-graph SCC pass.  Per-insert cost is
O(nodes) to O(nodes + edges); a stream of N operations costs O(N^2) or
worse.

It exists for two jobs:

* the **differential property tests** (tests/test_reference_differential)
  feed identical randomized op streams to this graph and to the indexed
  :class:`~repro.core.refined_write_graph.RefinedWriteGraph` and require
  node shapes, edges, flush sets, cycle-collapse counts and install
  orders to match exactly;
* the **E10 throughput benchmark** uses it as the pre-optimization
  baseline the indexed engine's speedup is measured against.

Do not optimize this module — its value is being obviously equivalent
to the Figure 6 pseudocode.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.common.identifiers import ObjectId
from repro.core.graph_utils import strongly_connected_components
from repro.core.operation import Operation
from repro.core.refined_write_graph import RWNode


class ReferenceWriteGraph:
    """The naive incrementally-maintained refined write graph."""

    def __init__(self) -> None:
        self.nodes: List[RWNode] = []
        self._succ: Dict[RWNode, Set[RWNode]] = {}
        self._pred: Dict[RWNode, Set[RWNode]] = {}
        #: Node holding X's last uninstalled writer (the vars/Notx holder).
        self._last_write_node: Dict[ObjectId, RWNode] = {}
        #: Nodes containing an operation that read X's *current* value.
        self._readers_since_write: Dict[ObjectId, Set[RWNode]] = {}
        #: Count of node merges forced by cycle collapse (E8 metric).
        self.cycle_collapses: int = 0
        #: stats() bookkeeping (WriteGraphEngine protocol compliance;
        #: counters only — the algorithm itself stays untouched).
        self.full_rebuilds: int = 0
        self._ops_added: int = 0

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _new_node(self) -> RWNode:
        node = RWNode()
        self.nodes.append(node)
        self._succ[node] = set()
        self._pred[node] = set()
        return node

    def _add_edge(self, src: RWNode, dst: RWNode) -> None:
        if src is dst:
            return
        self._succ[src].add(dst)
        self._pred[dst].add(src)

    def _merge(self, group: List[RWNode]) -> RWNode:
        """Merge ``group`` into a single node, rewriting edges and maps."""
        if len(group) == 1:
            return group[0]
        target = group[0]
        rest = group[1:]
        members = set(group)
        for node in rest:
            target.ops |= node.ops
            target.vars |= node.vars
        # Re-point edges, dropping those internal to the merged set.
        for node in rest:
            for succ in self._succ.pop(node):
                self._pred[succ].discard(node)
                if succ not in members:
                    self._add_edge(target, succ)
            for pred in self._pred.pop(node):
                self._succ[pred].discard(node)
                if pred not in members:
                    self._add_edge(pred, target)
            self.nodes.remove(node)
        # Rewrite bookkeeping references.
        for obj, holder in list(self._last_write_node.items()):
            if holder in members:
                self._last_write_node[obj] = target
        for readers in self._readers_since_write.values():
            if readers & members:
                readers.difference_update(members)
                readers.add(target)
        return target

    def _collapse_cycles(self) -> None:
        """Collapse every non-trivial SCC into one node (second collapse
        of Figure 3, applied on demand after insertions)."""
        sccs = strongly_connected_components(list(self.nodes), self._succ)
        for scc in sccs:
            if len(scc) > 1:
                self.cycle_collapses += 1
                self._merge(sorted(scc, key=lambda n: n.node_id))

    # ------------------------------------------------------------------
    # addop_rW (Figure 6), three O(N) scans per insert
    # ------------------------------------------------------------------
    def add_operation(self, op: Operation) -> RWNode:
        """Insert ``op``, presented in conflict order, and return its node."""
        self._ops_added += 1
        exp = op.exp
        notexp = op.notexp

        # Merge nodes whose flush sets overlap op's exposed updates.
        overlapping = [n for n in self.nodes if n.vars & exp]
        if overlapping:
            m = self._merge(sorted(overlapping, key=lambda n: n.node_id))
        else:
            m = self._new_node()
        m.ops.add(op)
        m.vars |= op.writes

        # New read-write edges: readers of objects op overwrites.
        for p in self.nodes:
            if p is m:
                continue
            if p.reads & op.writes:
                self._add_edge(p, m)

        # Blind updates un-expose objects held in other nodes' flush sets.
        if notexp:
            for p in list(self.nodes):
                if p is m:
                    continue
                dropped = p.vars & notexp
                if not dropped:
                    continue
                p.vars -= dropped
                self._add_edge(p, m)
                for obj in dropped:
                    for q in self._readers_since_write.get(obj, ()):
                        if q is not p:
                            self._add_edge(q, p)

        # Bookkeeping: op's reads happen against current values (before
        # its writes replace them), so an exposed write's own read is
        # against the value it replaces and the new value starts with no
        # readers.
        for obj in op.reads:
            self._readers_since_write.setdefault(obj, set()).add(m)
        for obj in op.writes:
            self._last_write_node[obj] = m
            self._readers_since_write[obj] = set()

        self._collapse_cycles()
        return self.node_of(op)  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def minimal_nodes(self) -> List[RWNode]:
        """Nodes with no predecessors — installable by flushing vars(n)."""
        return [n for n in self.nodes if not self._pred[n]]

    def least_minimal(self) -> Optional[RWNode]:
        """The minimal node with the smallest ``(|vars|, node_id)``."""
        return min(
            self.minimal_nodes(),
            key=lambda n: (len(n.vars), n.node_id),
            default=None,
        )

    def remove_node(self, node: RWNode) -> Tuple[Set[ObjectId], Set[ObjectId]]:
        """Remove an installed node; returns ``(vars, Notx)`` at removal."""
        if self._pred[node]:
            raise ValueError(f"{node!r} has uninstalled predecessors")
        flushed, unexposed = set(node.vars), set(node.notx)
        for succ in self._succ.pop(node):
            self._pred[succ].discard(node)
        del self._pred[node]
        self.nodes.remove(node)
        for obj, holder in list(self._last_write_node.items()):
            if holder is node:
                del self._last_write_node[obj]
        for readers in self._readers_since_write.values():
            readers.discard(node)
        return flushed, unexposed

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def node_of(self, op: Operation) -> Optional[RWNode]:
        """The node containing ``op``, or None if op was installed."""
        for node in self.nodes:
            if op in node.ops:
                return node
        return None

    def holder_of(self, obj: ObjectId) -> Optional[RWNode]:
        """The node with ``obj`` in vars or Notx via its last writer."""
        return self._last_write_node.get(obj)

    def successors(self, node: RWNode) -> Set[RWNode]:
        return set(self._succ[node])

    def predecessors(self, node: RWNode) -> Set[RWNode]:
        return set(self._pred[node])

    def edges(self) -> Iterable[Tuple[RWNode, RWNode]]:
        for src, dsts in self._succ.items():
            for dst in dsts:
                yield src, dst

    def is_acyclic(self) -> bool:
        sccs = strongly_connected_components(list(self.nodes), self._succ)
        return all(len(scc) == 1 for scc in sccs)

    def uninstalled_operations(self) -> Set[Operation]:
        out: Set[Operation] = set()
        for node in self.nodes:
            out |= node.ops
        return out

    def flush_set_sizes(self) -> List[int]:
        return [len(n.vars) for n in self.nodes]

    def stats(self) -> Dict[str, object]:
        """Engine counters (the WriteGraphEngine ``stats()`` hook)."""
        return {
            "engine": "rW-reference",
            "operations_added": self._ops_added,
            "live_nodes": len(self.nodes),
            "cycle_collapses": self.cycle_collapses,
            "full_rebuilds": self.full_rebuilds,
        }

    def __len__(self) -> int:
        return len(self.nodes)
