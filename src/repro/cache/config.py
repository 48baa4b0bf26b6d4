"""Cache-manager configuration.

The configuration axes are exactly the paper's comparison axes:

* which write graph orders flushes (``W`` of [8] versus the refined
  ``rW`` of this paper);
* how multi-object atomic flush sets are handled (a traditional atomic
  mechanism — shadow install or flush transaction — versus
  cache-manager identity writes that dissolve the set);
* whether node installations are logged so the analysis pass can
  advance rSIs (Section 5).

Not an axis: the WAL force at installation always extends through the
blind writers that justify leaving ``Notx(n)`` unflushed (a protocol
refinement implied by the paper's WAL assumption; DESIGN.md §5 has the
four-operation schedule that loses an update without it).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.cache.policies import (
    EvictionPolicy,
    LRUEviction,
    PeelFirstSorted,
    VictimPolicy,
)
from repro.core.engine import GraphMode
from repro.storage.atomic import AtomicFlushMechanism, ShadowInstall

__all__ = ["CacheConfig", "GraphMode", "MultiObjectStrategy"]


class MultiObjectStrategy(enum.Enum):
    """How a node with |vars(n)| > 1 is installed."""

    #: Inject identity writes until the flush set is a singleton
    #: (Section 4, only meaningful with GraphMode.RW).
    IDENTITY_WRITES = "identity"
    #: Use the configured atomic flush mechanism on the whole set.
    ATOMIC = "atomic"


@dataclass
class CacheConfig:
    """Knobs for one cache manager instance."""

    graph_mode: GraphMode = GraphMode.RW
    multi_object_strategy: MultiObjectStrategy = (
        MultiObjectStrategy.IDENTITY_WRITES
    )
    #: Mechanism used when ``multi_object_strategy`` is ATOMIC (and for
    #: W-mode nodes, which cannot shrink).
    mechanism: AtomicFlushMechanism = field(default_factory=ShadowInstall)
    #: Log an installation record per installed node, enabling rSI
    #: advancement during the analysis pass (Section 5).
    log_installations: bool = True
    #: Maximum number of cached objects; None = unbounded.  When the
    #: cache exceeds capacity, clean objects are evicted (STEAL), after
    #: installing write-graph nodes if nothing is clean.
    capacity: Optional[int] = None
    #: Replacement policy for capacity eviction.
    eviction: EvictionPolicy = field(default_factory=LRUEviction)
    #: Which object a flush-set dissolution peels off next (Section 4).
    victim_policy: VictimPolicy = field(default_factory=PeelFirstSorted)

    def __post_init__(self) -> None:
        if (
            self.graph_mode is GraphMode.W
            and self.multi_object_strategy
            is MultiObjectStrategy.IDENTITY_WRITES
        ):
            raise ValueError(
                "identity writes require the refined write graph: W's "
                "atomic write sets never shrink (Section 4 of the paper)"
            )
