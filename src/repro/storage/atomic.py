"""Atomic multi-object flush mechanisms (Section 4, "Atomic Flush").

When a write-graph node carries several objects in its flush set, those
objects must reach the stable store atomically.  The paper examines two
traditional mechanisms and then argues that cache-manager identity
writes beat both:

* **Shadows** (System R): write every object to a shadow location, then
  atomically "swing a pointer" with one device write.  Atomic, but every
  object moves on every write, destroying sequential placement.
* **Flush transactions**: write the values of all objects to the log,
  force the log to commit, then overwrite the objects in place.  Atomic
  across crashes because recovery re-applies the committed transaction,
  but each object is written twice and the objects must be frozen for
  the duration — a quiesce.

``RawMultiWrite`` is the strawman that uses no mechanism; a crash in the
middle of it tears the flush set, which experiment E7 demonstrates.

The identity-write alternative is not implemented here because it is not
a storage mechanism at all: the cache manager injects ordinary logged
operations that shrink flush sets to singletons (see
:mod:`repro.cache.cache_manager`), which is precisely the paper's point.
"""

from __future__ import annotations

import abc
from typing import Mapping, Protocol

from repro.common.identifiers import ObjectId
from repro.storage.stable_store import StableStore, StoredVersion


class FlushTransactionLog(Protocol):
    """The slice of the log manager the flush-transaction mechanism needs."""

    def append_flush_transaction(
        self, versions: Mapping[ObjectId, StoredVersion]
    ) -> int:
        """Log the object values and a commit record; return the commit lSI."""
        ...

    def force(self) -> None:
        """Force the volatile log buffer to the stable log."""
        ...


class AtomicFlushMechanism(abc.ABC):
    """Strategy interface for writing a multi-object flush set."""

    #: Short name used in benchmark tables.
    name: str = "abstract"

    @abc.abstractmethod
    def flush(
        self,
        store: StableStore,
        versions: Mapping[ObjectId, StoredVersion],
        log: FlushTransactionLog,
    ) -> None:
        """Write ``versions`` to ``store`` as one atomic unit."""

    def flush_one(
        self, store: StableStore, obj: ObjectId, version: StoredVersion
    ) -> None:
        """Write a single object; trivially atomic for every mechanism."""
        store.write(obj, version.value, version.vsi)


class RawMultiWrite(AtomicFlushMechanism):
    """No atomicity: write the objects one after another.

    Exists to demonstrate the failure mode the paper's machinery
    prevents.  A crash between the individual writes leaves a torn flush
    set and an unexplainable stable state.
    """

    name = "raw"

    def flush(
        self,
        store: StableStore,
        versions: Mapping[ObjectId, StoredVersion],
        log: FlushTransactionLog,
    ) -> None:
        store.stats.atomic_flushes += 1
        store.write_many(versions, atomic=False)


class ShadowInstall(AtomicFlushMechanism):
    """Shadow paging: write shadows, then swing a pointer atomically."""

    name = "shadow"

    def flush(
        self,
        store: StableStore,
        versions: Mapping[ObjectId, StoredVersion],
        log: FlushTransactionLog,
    ) -> None:
        store.stats.atomic_flushes += 1
        # Shadow copies: one device write per object, to fresh locations.
        store.stats.shadow_writes += len(versions)
        # The pointer swing installs all shadows with one atomic write;
        # the logical placement itself is not a further data transfer.
        store.stats.pointer_swings += 1
        store.write_many(versions, atomic=True, count=False)


class FlushTransaction(AtomicFlushMechanism):
    """Log-then-overwrite flush transaction.

    The object values go to the log, the log is forced to commit, and
    only then are the objects overwritten in place.  The in-place writes
    are *not* atomic — if a crash interrupts them, recovery finds the
    committed flush-transaction record on the stable log and re-applies
    it (see the analysis pass in :mod:`repro.core.recovery`), which is
    how real systems make this mechanism crash-safe.

    The objects must be frozen from the moment their values are logged
    until the in-place writes finish; we account that as one quiesce
    event per flush, matching the paper's System R discussion.
    """

    name = "flush-txn"

    def flush(
        self,
        store: StableStore,
        versions: Mapping[ObjectId, StoredVersion],
        log: FlushTransactionLog,
    ) -> None:
        store.stats.atomic_flushes += 1
        store.stats.quiesce_events += 1
        # Every object's value is transferred twice: once into the log,
        # then again in place — the double write the C3 comparison
        # charges this mechanism for.
        store.stats.flush_double_writes += len(versions)
        log.append_flush_transaction(versions)
        log.force()
        # In-place overwrites; torn writes here are repaired by recovery
        # replaying the committed flush transaction.
        store.write_many(versions, atomic=False)


class LogStructuredInstall(AtomicFlushMechanism):
    """Atomicity for free on a log-structured store.

    When the store is itself an append-only log
    (:class:`~repro.storage.logstore.LogStructuredStableStore`), a
    multi-object flush lands as **one batch frame under one CRC**: the
    whole set becomes readable exactly when the frame's checksum
    verifies, so a crash anywhere inside the append leaves a torn frame
    that the rebuild scan discards in full.  No shadow copies, no
    pointer swing, no value double-write, no quiesce — the C3 costs the
    paper charges the traditional mechanisms for simply have no place
    to occur.

    Usable only with a store whose ``write_many(atomic=True)`` is
    genuinely a single-device-write install (the log-structured
    backend); pairing it with an in-place store would silently assert
    atomicity the device does not provide.
    """

    name = "log-structured"

    def flush(
        self,
        store: StableStore,
        versions: Mapping[ObjectId, StoredVersion],
        log: FlushTransactionLog,
    ) -> None:
        store.stats.atomic_flushes += 1
        store.write_many(versions, atomic=True)
