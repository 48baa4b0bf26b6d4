"""The write-graph engine protocol and the ``GraphMode`` factory.

The cache manager's central data structure is a *write-graph engine*: a
live, incrementally-maintained graph over the uninstalled operations
whose nodes carry atomic flush sets and whose edges give the required
flush order.  The paper compares two such graphs — the write graph
``W`` of [8] (Figure 3) and the refined ``rW`` (Figure 6) — and this
module gives them one shared surface:

* :class:`WriteGraphEngine` — the structural protocol every engine
  implements: ``add_operation`` / ``least_minimal`` / ``remove_node``
  for the execution and install paths, ``minimal_nodes`` for tests and
  oracles, ``node_of`` / ``holder_of`` /
  ``successors`` / ``predecessors`` / ``edges`` for queries,
  ``flush_set_sizes`` for the E4 metric, and a ``stats()`` hook whose
  counters let callers assert hot-path properties (most importantly
  ``full_rebuilds == 0``: no engine may fall back to batch
  reconstruction during normal operation).
* :class:`GraphMode` — which graph a cache manager maintains; it lives
  here (and is re-exported from :mod:`repro.cache.config` for
  compatibility) because the mode selects an *engine*, not a cache
  policy.
* :func:`make_engine` — the ``GraphMode``-driven factory.  Both modes
  now return incremental engines; the Figure 3 batch construction
  survives only as :class:`repro.core.write_graph.BatchWriteGraph`,
  the reference the W-mode differential tests rebuild against.

Implementations:

======================  ====  =========================================
engine                  mode  module
======================  ====  =========================================
``RefinedWriteGraph``   rW    :mod:`repro.core.refined_write_graph`
``IncrementalWriteGraph``  W  :mod:`repro.core.incremental_write_graph`
``ReferenceWriteGraph`` rW    :mod:`repro.core._reference` (test oracle)
======================  ====  =========================================
"""

from __future__ import annotations

import enum
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Set,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.common.identifiers import ObjectId, StateId


class GraphMode(enum.Enum):
    """Which write-graph engine the cache manager maintains."""

    #: The refined write graph rW of this paper (incremental, Figure 6).
    RW = "rW"
    #: The write graph W of [8] (Figure 3), maintained incrementally.
    W = "W"


class GraphOp(Protocol):
    """What an engine reads of an operation: Table 1's characterization
    and nothing else.  :class:`~repro.core.operation.Operation` has this
    shape, and so does its
    :class:`~repro.core.operation.OpFootprint` — which is what the cache
    manager feeds a live engine, so a graph pins no logged value.  An
    engine hands back, in ``node.ops`` and ``uninstalled_operations()``,
    the very objects it was given, held by identity.
    """

    name: str
    lsi: StateId
    reads: frozenset
    writes: frozenset

    @property
    def exp(self) -> frozenset:
        """``writes ∩ reads``."""
        ...

    @property
    def notexp(self) -> frozenset:
        """``writes − reads``."""
        ...


@runtime_checkable
class WriteGraphEngine(Protocol):
    """Structural protocol for live write-graph engines.

    Nodes are engine-specific objects exposing at least ``node_id``,
    ``ops``, ``vars``, ``notx`` and ``max_lsi()``; the cache manager
    treats them opaquely.  ``remove_node`` requires a *minimal* node
    (no predecessors) and returns the ``(vars, notx)`` partition at
    removal time — for W-mode engines ``notx`` is always empty.
    """

    #: Count of node merges forced by cycle collapse (E8 metric).
    cycle_collapses: int

    def add_operation(self, op: GraphOp) -> Any:
        """Insert ``op`` (presented in conflict order); return its node."""
        ...

    def minimal_nodes(self) -> List[Any]:
        """Nodes with no predecessors — the installable frontier."""
        ...

    def least_minimal(self) -> Optional[Any]:
        """The frontier's cheapest node: the minimal node with the
        smallest ``(|vars|, node_id)``, None when the graph is empty.
        An empty flush set there means installable with no flush."""
        ...

    def remove_node(self, node: Any) -> Tuple[Set[ObjectId], Set[ObjectId]]:
        """Remove an installed minimal node; returns ``(vars, notx)``."""
        ...

    def node_of(self, op: GraphOp) -> Optional[Any]:
        """The node containing ``op``, or None if op was installed."""
        ...

    def holder_of(self, obj: ObjectId) -> Optional[Any]:
        """The node holding ``obj`` via its last uninstalled writer."""
        ...

    def successors(self, node: Any) -> Set[Any]:
        """Nodes that must install after ``node``."""
        ...

    def predecessors(self, node: Any) -> Set[Any]:
        """Nodes that must install before ``node``."""
        ...

    def edges(self) -> Iterable[Tuple[Any, Any]]:
        """All flush-order edges."""
        ...

    def is_acyclic(self) -> bool:
        """True when no non-trivial SCC exists."""
        ...

    def uninstalled_operations(self) -> Set[GraphOp]:
        """All operations currently held by the graph."""
        ...

    def flush_set_sizes(self) -> List[int]:
        """|vars(n)| for every node — the E4 metric."""
        ...

    def stats(self) -> Dict[str, Any]:
        """Engine counters.  Every engine reports at least ``engine``
        (a mode string), ``operations_added``, ``live_nodes``,
        ``cycle_collapses`` and ``full_rebuilds`` (0 for incremental
        engines, by construction)."""
        ...

    def __len__(self) -> int:
        ...


def make_engine(mode: Union[GraphMode, str]) -> WriteGraphEngine:
    """Build the live engine for ``mode`` (a :class:`GraphMode` or its
    value, ``"rW"`` / ``"W"``)."""
    # Imported here so the protocol module stays import-light and the
    # engines can type-annotate against it without a cycle.
    from repro.core.incremental_write_graph import IncrementalWriteGraph
    from repro.core.refined_write_graph import RefinedWriteGraph

    if isinstance(mode, str):
        mode = GraphMode(mode)
    if mode is GraphMode.RW:
        return RefinedWriteGraph()
    if mode is GraphMode.W:
        return IncrementalWriteGraph()
    raise ValueError(f"unknown graph mode: {mode!r}")  # pragma: no cover
