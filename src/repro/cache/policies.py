"""The cache's access clock and identity-write victim policies.

* **Recency** — :class:`LRUEviction` is the cache manager's one access
  clock (``CacheManager.heat``): capacity eviction drops the least
  recently used clean object.  The STEAL discipline of the paper
  applies: only clean objects may leave, so eviction may first have to
  install write-graph nodes (make_clean).
* **Identity-write victims** — when dissolving a multi-object flush set
  (Section 4), which object is *kept* to be flushed with the node and
  which are peeled off with ``W_IP`` records.  The paper observes that
  "hot objects will need to be retained in the cache in any event.
  Hence, we can decide to merely install operations on them via
  logging, without flushing them immediately" — i.e. peel the hot
  objects (log their value once, keep accumulating updates in cache)
  and flush a cold one.

Both read the same clock, so "recently used" means one thing.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Set

from repro.common.identifiers import ObjectId


class LRUEviction:
    """Least-recently-used ordering via an access clock."""

    def __init__(self) -> None:
        self._clock = 0
        self._last_access: Dict[ObjectId, int] = {}

    def touch(self, obj: ObjectId) -> None:
        """Record an access to ``obj``."""
        self._clock += 1
        self._last_access[obj] = self._clock

    def forget(self, obj: ObjectId) -> None:
        """``obj`` left the cache."""
        self._last_access.pop(obj, None)

    def last_access(self, obj: ObjectId) -> int:
        """The access clock at ``obj``'s last touch (0 = never)."""
        return self._last_access.get(obj, 0)


class VictimPolicy(abc.ABC):
    """Chooses which object a flush-set dissolution peels off next."""

    name: str = "abstract"

    @abc.abstractmethod
    def peel(
        self,
        flush_set: Set[ObjectId],
        heat: Optional[LRUEviction] = None,
    ) -> ObjectId:
        """The object to remove from ``flush_set`` via an identity
        write; the last object remaining is the one flushed."""


class PeelFirstSorted(VictimPolicy):
    """Deterministic default: peel in lexicographic order."""

    name = "sorted"

    def peel(
        self,
        flush_set: Set[ObjectId],
        heat: Optional[LRUEviction] = None,
    ) -> ObjectId:
        return sorted(flush_set)[0]


class PeelHottest(VictimPolicy):
    """Peel the most-recently-used objects, flushing the coldest.

    The paper's hot-object rationale: a hot object will be updated
    again soon, so flushing it buys little — install its operations via
    the logged identity value and keep it dirty in cache, letting
    several updates accumulate before any flush ("the cost of flushing
    (and logging) the object is shared among the several updating
    operations").
    """

    name = "hottest"

    def peel(
        self,
        flush_set: Set[ObjectId],
        heat: Optional[LRUEviction] = None,
    ) -> ObjectId:
        if heat is None:
            return sorted(flush_set)[0]
        return max(
            sorted(flush_set), key=lambda obj: heat.last_access(obj)
        )
