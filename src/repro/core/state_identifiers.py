"""State identifier bookkeeping: the dirty object table with rSIs.

Section 5 generalizes ARIES recovery LSNs: an object's **rSI** is the
lSI of its earliest *uninstalled* operation (whose results are exposed).
The cache manager keeps an rSI for each dirty object in its dirty object
table; the minimum rSI over the table is the redo scan start point, and
checkpoint records carry a snapshot of the table so the analysis pass
can reconstruct it after a crash.

The generalized rule (the paper's key extension): the rSI of an object
advances exactly when operations that *write* it are installed — whether
or not the object itself was flushed.  When a node n of rW is installed
by flushing vars(n), every object of Writes(n) = vars(n) ∪ Notx(n) gets
its rSI advanced to the lSI of its first still-uninstalled writer; an
object with no remaining uninstalled writer leaves the table entirely.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Deque,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.common.identifiers import NULL_SI, ObjectId, StateId


class DirtyObjectTable:
    """Mapping from dirty object id to its recovery SI."""

    def __init__(self, entries: Optional[Mapping[ObjectId, StateId]] = None):
        self._rsi: Dict[ObjectId, StateId] = dict(entries or {})

    # ------------------------------------------------------------------
    # normal-execution maintenance
    # ------------------------------------------------------------------
    def note_write(self, obj: ObjectId, lsi: StateId) -> None:
        """Record that a logged operation with ``lsi`` wrote ``obj``.

        If the object was clean it becomes dirty with rSI = lsi (the
        first uninstalled operation to update it).  If already dirty its
        rSI is unchanged — rSIs only advance at installation.
        """
        self._rsi.setdefault(obj, lsi)

    def advance(self, obj: ObjectId, rsi: StateId) -> None:
        """Advance ``obj``'s rSI at installation time.

        rSIs are monotone; advancing backwards indicates a bookkeeping
        bug and is rejected.
        """
        current = self._rsi.get(obj, NULL_SI)
        if rsi < current:
            raise ValueError(
                f"rSI of {obj!r} would regress from {current} to {rsi}"
            )
        self._rsi[obj] = rsi

    def remove(self, obj: ObjectId) -> None:
        """Drop a now-clean (or deleted) object from the table."""
        self._rsi.pop(obj, None)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def rsi_of(self, obj: ObjectId) -> Optional[StateId]:
        """The rSI of ``obj``, or None when the object is clean."""
        return self._rsi.get(obj)

    def is_dirty(self, obj: ObjectId) -> bool:
        """True when ``obj`` has uninstalled updates."""
        return obj in self._rsi

    def min_rsi(self) -> Optional[StateId]:
        """The redo scan start point; None when nothing is dirty."""
        if not self._rsi:
            return None
        return min(self._rsi.values())

    def snapshot(self) -> Dict[ObjectId, StateId]:
        """A copy suitable for embedding in a checkpoint record."""
        return dict(self._rsi)

    def items(self) -> Iterator[Tuple[ObjectId, StateId]]:
        return iter(list(self._rsi.items()))

    def __len__(self) -> int:
        return len(self._rsi)

    def __contains__(self, obj: ObjectId) -> bool:
        return obj in self._rsi


class UninstalledWriters:
    """Per-object ordered multiset of uninstalled writer lSIs.

    Supports the installation-time rSI rule: after removing the lSIs of
    the operations just installed, an object's new rSI is the smallest
    remaining writer lSI (or the object is clean when none remain).

    Installation runs in write-graph order, and a minimal node's writes
    of an object are that object's *earliest* uninstalled writers (every
    earlier writer sits in the same node or in a predecessor), so the
    writers leave from the head: a deque makes that O(1) where a list
    paid O(uninstalled writers of the object) per installed write.

    Most objects have exactly one uninstalled writer — a served key's
    last put stays pinned until a flush installs it — so one writer is
    stored as its bare lSI: the deque appears at the second writer and
    goes again when one is left.
    """

    def __init__(self) -> None:
        self._writers: Dict[ObjectId, Union[StateId, Deque[StateId]]] = {}

    def note(self, obj: ObjectId, lsi: StateId) -> None:
        """Record an uninstalled write of ``obj`` at ``lsi``.

        Writes arrive in lSI order, so append keeps the deque sorted.
        """
        writers = self._writers.get(obj)
        if writers is None:
            self._writers[obj] = lsi
        elif isinstance(writers, deque):
            writers.append(lsi)
        else:
            self._writers[obj] = deque((writers, lsi))

    def discharge(self, obj: ObjectId, lsi: StateId) -> None:
        """Remove one recorded write (its operation was installed)."""
        writers = self._writers.get(obj)
        if not isinstance(writers, deque):
            if writers is None or writers != lsi:
                raise KeyError(f"no uninstalled write of {obj!r} at lSI {lsi}")
            del self._writers[obj]
            return
        if writers[0] == lsi:
            writers.popleft()
        elif lsi in writers:
            # Out of head order: never a minimal node's write, kept for
            # callers that discharge in another order.
            writers.remove(lsi)
        else:
            raise KeyError(f"no uninstalled write of {obj!r} at lSI {lsi}")
        if len(writers) == 1:
            self._writers[obj] = writers[0]

    def first(self, obj: ObjectId) -> Optional[StateId]:
        """The lSI of the first remaining uninstalled writer, if any."""
        writers = self._writers.get(obj)
        return writers[0] if isinstance(writers, deque) else writers

    def first_after(
        self, obj: ObjectId, lsis: Sequence[StateId]
    ) -> Optional[StateId]:
        """What :meth:`first` will answer once ``lsis`` (ascending
        recorded writes of ``obj``) are discharged; changes nothing."""
        writers = self._writers.get(obj)
        if not isinstance(writers, deque):
            return None if writers is None or writers in lsis else writers
        count = len(lsis)
        # Both sequences ascend without repeats, so agreeing at the last
        # position means ``lsis`` is exactly the head of the deque.
        if len(writers) >= count and writers[count - 1] == lsis[-1]:
            return writers[count] if len(writers) > count else None
        leaving = set(lsis)
        return next((w for w in writers if w not in leaving), None)

    def has_writers(self, obj: ObjectId) -> bool:
        """True while some uninstalled operation writes ``obj``."""
        return obj in self._writers

    def objects(self) -> List[ObjectId]:
        return list(self._writers)
