"""Incremental maintenance of the write graph ``W`` of [8].

The Figure 3 batch construction (kept verbatim in
:class:`repro.core.write_graph.BatchWriteGraph`) computes W from
scratch over the whole uninstalled-operation set: the transitive
closure ``T`` of writeset overlap, the installation graph collapsed
w.r.t. T's classes, and an SCC collapse to make the result acyclic.
Rebuilding that per purge made the cache manager's W mode pay a
quadratic tax the paper's own comparison (Figures 5/7) never intended
— the W-vs-rW contrast is about *flush-set shape*, not about one side
being maintained incrementally and the other not.

This engine maintains the same graph one operation at a time, reusing
the machinery of :class:`~repro.core.refined_write_graph.RefinedWriteGraph`
(inverted last-writer/reader indexes, the ready set, Pearce–Kelly-style
incremental topological maintenance with dual-cone cycle repair) under
W's coarser exposure rule:

* **merging** follows T, not exposure: op's node absorbs every live
  node whose *writeset* overlaps ``op.writes`` — not just the holders
  of op's exposed reads.  Because any two uninstalled writers of an
  object always merge, each object has at most one live writer node
  and the ``_last_write_node`` index answers the overlap scan exactly;
* **vars never shrink**: ``vars(n) = Writes(n)`` always, so nothing is
  ever unexposed, ``Notx(n)`` is empty, and the inverse write-read
  edges (and the ``_readers_since_write`` index that feeds them) are
  never needed;
* **edges** are the installation graph's read-write edges collapsed
  w.r.t. the node partition — every live node that read an object op
  overwrites must install first — answered by ``_reader_nodes``.

The W-mode differential suite in ``tests/test_reference_differential``
holds this engine to node/edge/flush-set equality with batch
``BatchWriteGraph`` rebuilds over randomized streams, including with
installation interleaved.
"""

from __future__ import annotations

import time

from repro.core.operation import Operation
from repro.core.refined_write_graph import RefinedWriteGraph, RWNode


class IncrementalWriteGraph(RefinedWriteGraph):
    """The write graph W of [8], maintained incrementally (no rebuilds)."""

    engine_name = "W"

    # ------------------------------------------------------------------
    # addop_W: Figure 3's T/V/S collapse, one operation at a time
    # ------------------------------------------------------------------
    def add_operation(self, op: Operation) -> RWNode:
        """Insert ``op``, presented in conflict order, and return its node."""
        obs = self.obs
        started = time.perf_counter() if obs.enabled else 0.0
        self._ops_added += 1
        self._edge_log.clear()
        self._logging = True

        # T: merge every live node whose writeset overlaps op's.  All
        # live writers of an object share one node (they merged when
        # the later one arrived), so the last-writer index *is* the
        # writeset-overlap scan.
        overlapping = []
        for obj in op.writes:
            holder = self._last_write_node.get(obj)
            if holder is not None and holder not in overlapping:
                overlapping.append(holder)
        # Read-write installation edges come collapsed: any node that
        # read an object op now overwrites must install first.  W's
        # inflexibility is by construction: every written object is in
        # the atomic flush set, forever (|vars| only accretes).
        m = self._place(overlapping, op)

        # Last-writer index: op's node is now every written object's
        # holder (the previous holders were merged into m above).
        for obj in op.writes:
            self._last_write_node[obj] = m

        if m in self._ready:
            self._key_ready(m)
        self._repair_order()
        self._logging = False
        if obs.enabled:
            obs.observe("engine.addop", time.perf_counter() - started)
        # The merge/collapse steps may have replaced m; return the node
        # that now holds op.
        return self._node_of_op[op]
