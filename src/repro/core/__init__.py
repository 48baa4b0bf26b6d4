"""The paper's contribution: general redo recovery with logical logging.

This package contains the executable form of the framework in Sections
2-5 of Lomet & Tuttle, SIGMOD 1999:

* :mod:`~repro.core.operation` / :mod:`~repro.core.functions` — the
  operation model of Table 1 and the deterministic function registry
  that lets logical log records carry identifiers instead of values.
* :mod:`~repro.core.history` — conflict-ordered histories and conflict
  graphs.
* :mod:`~repro.core.installation_graph` — the installation graph with
  read-write and (approximated) write-write edges.
* :mod:`~repro.core.explain` — prefix sets, exposed objects and
  explainable states (Definitions and Theorem 1, executable).
* :mod:`~repro.core.engine` — the :class:`WriteGraphEngine` protocol,
  :class:`GraphMode`, and the :func:`make_engine` factory shared by
  every write-graph implementation.
* :mod:`~repro.core.write_graph` — write graph ``W`` of [8], batch form
  (Figure 3).
* :mod:`~repro.core.incremental_write_graph` — ``W`` maintained
  incrementally (the live W-mode engine).
* :mod:`~repro.core.refined_write_graph` — the paper's refined write
  graph ``rW`` with incremental construction (Figure 6).
* :mod:`~repro.core.redo` — SI-based REDO tests, including the
  generalized rSI test of Section 5.
* :mod:`~repro.core.recovery` — the analysis + redo recovery passes
  (Figure 2 generalized with rSIs).
* :mod:`~repro.core.invariants` — runtime checking of the cache
  invariant Inv(I) and state explainability.
"""

from repro.core.operation import (
    OpFootprint,
    OpKind,
    Operation,
    TOMBSTONE,
    identity_write,
)
from repro.core.functions import FunctionRegistry, default_registry
from repro.core.history import History
from repro.core.installation_graph import (
    InstallationGraph,
    WriteWritePolicy,
)
from repro.core.explain import (
    exposed_objects,
    is_prefix_set,
    explains,
    find_explanation,
)
from repro.core.engine import (
    GraphMode,
    GraphOp,
    WriteGraphEngine,
    make_engine,
)
from repro.core.write_graph import BatchWriteGraph, WriteGraphNode
from repro.core.incremental_write_graph import IncrementalWriteGraph
from repro.core.refined_write_graph import RefinedWriteGraph, RWNode
from repro.core.redo import (
    RedoDecision,
    RedoTest,
    RedoAll,
    VsiRedoTest,
    GeneralizedRedoTest,
)
from repro.core.recovery import RecoveryManager, RecoveryReport

__all__ = [
    "OpFootprint",
    "OpKind",
    "Operation",
    "TOMBSTONE",
    "identity_write",
    "FunctionRegistry",
    "default_registry",
    "History",
    "InstallationGraph",
    "WriteWritePolicy",
    "exposed_objects",
    "is_prefix_set",
    "explains",
    "find_explanation",
    "GraphMode",
    "GraphOp",
    "WriteGraphEngine",
    "make_engine",
    "BatchWriteGraph",
    "WriteGraphNode",
    "IncrementalWriteGraph",
    "RefinedWriteGraph",
    "RWNode",
    "RedoDecision",
    "RedoTest",
    "RedoAll",
    "VsiRedoTest",
    "GeneralizedRedoTest",
    "RecoveryManager",
    "RecoveryReport",
]
