"""The stable store: the crash-surviving object database.

The store maps :class:`~repro.common.identifiers.ObjectId` to a
:class:`StoredVersion` — the object's value together with its vSI, the
state identifier of the last operation whose effect the stored version
reflects.  Storing the vSI with the object is what makes SI-based REDO
tests possible (Section 5: "One SI, denoted the vSI, is stored with each
object").

Crash semantics
---------------
A crash never damages the store itself; whatever versions were written
before the crash remain.  What a crash *can* do is interrupt a
multi-object write issued without an atomicity mechanism, leaving only a
prefix of the set written — a torn flush.  The store supports that
through :meth:`StableStore.write_many` with ``atomic=False`` plus a
crash hook, which experiment E7 uses to demonstrate why write graphs and
atomic-flush machinery exist at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.common.identifiers import NULL_SI, ObjectId, StateId
from repro.storage.stats import IOStats


@dataclass(frozen=True)
class StoredVersion:
    """One object version on stable storage: a value and its vSI."""

    value: Any
    vsi: StateId


class StableStore:
    """Crash-surviving map from object id to :class:`StoredVersion`.

    Parameters
    ----------
    stats:
        Shared I/O ledger; every read and write is counted there.
    """

    #: Restore-pending marker: the redo-scan start a media restore
    #: committed to, kept on the *stable* side so it survives the
    #: crash of the recovery that performed the restore.  A
    #: backup-restored version is old; until one recovery completes
    #: its widened redo over it, every recovery attempt must widen
    #: again — otherwise a narrow restart would read the stale
    #: version and derive garbage.  Set by the quarantine scrub,
    #: cleared when recovery adopts its outcome.  A class-level default
    #: (rather than an ``__init__`` assignment) so file-backed
    #: subclasses can shadow it with a property that persists the
    #: marker on disk for true cold restarts.
    media_redo_pending: Optional[StateId] = None

    def __init__(self, stats: Optional[IOStats] = None) -> None:
        self.stats = stats if stats is not None else IOStats()
        self._versions: Dict[ObjectId, StoredVersion] = {}
        #: Called between the individual writes of a non-atomic
        #: multi-object write; a crash-injection harness raises from
        #: here to tear the flush.
        self.mid_write_hook: Optional[Callable[[ObjectId], None]] = None

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def contains(self, obj: ObjectId) -> bool:
        """Return True if the store holds a version of ``obj``."""
        return obj in self._versions

    def read(self, obj: ObjectId) -> StoredVersion:
        """Read ``obj`` from the store, counting one device read.

        Objects never written read as an absent value with ``NULL_SI``;
        recoverable domains treat "absent" as a legal initial state (a
        file that does not exist yet, an unformatted page).
        """
        self.stats.object_reads += 1
        return self._versions.get(obj, StoredVersion(None, NULL_SI))

    def peek(self, obj: ObjectId) -> StoredVersion:
        """Read without cost accounting (used by verifiers, not systems)."""
        return self._versions.get(obj, StoredVersion(None, NULL_SI))

    def vsi_of(self, obj: ObjectId) -> StateId:
        """Return the stored vSI of ``obj`` (``NULL_SI`` if absent)."""
        return self._versions.get(obj, StoredVersion(None, NULL_SI)).vsi

    def object_ids(self) -> List[ObjectId]:
        """All object ids currently present in the store."""
        return list(self._versions)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def write(self, obj: ObjectId, value: Any, vsi: StateId) -> None:
        """Write one object version in place (one device write)."""
        self.stats.object_writes += 1
        self._versions[obj] = StoredVersion(value, vsi)

    def write_many(
        self,
        versions: Mapping[ObjectId, StoredVersion],
        atomic: bool,
        count: bool = True,
    ) -> None:
        """Write several objects.

        With ``atomic=True`` the whole set lands or none of it — the
        caller is asserting it used a real atomicity mechanism (the
        mechanisms in :mod:`repro.storage.atomic` call this).  With
        ``atomic=False`` the writes are issued one at a time and the
        ``mid_write_hook`` runs between them, so a crash injected there
        tears the set.

        ``count=False`` suppresses per-object I/O accounting for
        mechanisms that already charged the data transfer elsewhere
        (shadow paging counts shadow writes + the pointer swing; the
        logical placement is free).
        """
        if atomic:
            for obj, version in versions.items():
                if count:
                    self.stats.object_writes += 1
                self._versions[obj] = version
            return
        for obj, version in versions.items():
            if self.mid_write_hook is not None:
                self.mid_write_hook(obj)
            if count:
                self.stats.object_writes += 1
            self._versions[obj] = version

    def delete(self, obj: ObjectId) -> None:
        """Remove an object from the store (a reclaimed file or page)."""
        self._versions.pop(obj, None)

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def scrub(self) -> List[ObjectId]:
        """Verify stored versions; return the objects that failed.

        The in-memory base store has no independent integrity record, so
        nothing can be detected here — subclasses that carry per-object
        checksums (the fault-injecting store, the file store's CRC32
        framing) override this.  Recovery calls it before the redo pass
        so corruption is quarantined rather than replayed over.
        """
        return []

    def quarantine(self, obj: ObjectId) -> None:
        """Take a failed version out of service (no I/O accounting).

        The version is removed so readers see "absent" rather than
        garbage; media-style recovery then reinstates the object from a
        backup image and/or log replay.
        """
        self._versions.pop(obj, None)

    def restore_version(
        self, obj: ObjectId, version: Optional[StoredVersion]
    ) -> None:
        """Media-recovery restore of one object (``None`` removes it)."""
        if version is None:
            self._versions.pop(obj, None)
        else:
            self._versions[obj] = version

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def copy_versions(self) -> Dict[ObjectId, StoredVersion]:
        """Snapshot of all versions (used by fuzzy backup and verifiers)."""
        return dict(self._versions)

    def restore_versions(
        self, versions: Mapping[ObjectId, StoredVersion]
    ) -> None:
        """Replace the entire contents (media recovery restore path)."""
        self._versions = dict(versions)

    def close(self) -> None:
        """Release what the store holds open (here: nothing).

        Idempotent, and the store stays usable afterwards.
        """

    def items(self) -> Iterable[Tuple[ObjectId, StoredVersion]]:
        """Iterate over ``(object id, stored version)`` pairs."""
        return self._versions.items()

    def __len__(self) -> int:
        return len(self._versions)
