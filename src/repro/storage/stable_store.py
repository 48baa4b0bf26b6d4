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
before it remain.  What a crash *can* do is interrupt a multi-object
write issued without an atomicity mechanism, leaving a prefix of the set
written — a torn flush: :meth:`StableStore.write_many` with
``atomic=False`` lands one object at a time.  Crashes are injected
through the fault model (:mod:`repro.storage.faultwrap`), whose stores
fire one numbered point per object write; experiment E7 crashes a flush
at each of them to show why write graphs and atomic-flush machinery
exist at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.common.identifiers import NULL_SI, ObjectId, StateId
from repro.obs.metrics import NULL_OBS
from repro.obs.tracing import stage
from repro.storage.stats import IOStats


@dataclass(frozen=True)
class StoredVersion:
    """One object version on stable storage: a value and its vSI."""

    value: Any
    vsi: StateId


ABSENT = StoredVersion(None, NULL_SI)  # what a never-written object reads as


class StableStore:
    """Crash-surviving map from object id to :class:`StoredVersion`.

    Both the contract and its in-memory backend: here the ``_versions``
    dict *is* the device.  A durable backend keeps no value in RAM — an
    index entry per object, the value wherever the device put it.
    ``stats`` is the shared I/O ledger every read and write is counted in.
    """

    #: Restore-pending marker: the redo-scan start a media restore
    #: committed to, kept on the *stable* side so it survives the crash
    #: of the recovery that performed the restore — a restored version
    #: is old, and until one recovery completes its widened redo over
    #: it every attempt must widen again.  Set by the quarantine scrub,
    #: cleared when recovery adopts its outcome; a class-level default
    #: so durable subclasses can shadow it with a persisted property.
    media_redo_pending: Optional[StateId] = None
    #: Where ``store.read_ms`` is observed (the owning system's hub).
    obs = NULL_OBS

    def __init__(self, stats: Optional[IOStats] = None) -> None:
        self.stats = stats if stats is not None else IOStats()
        self._versions: Dict[ObjectId, StoredVersion] = {}

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def contains(self, obj: ObjectId) -> bool:
        """Return True if the store holds a version of ``obj``."""
        return obj in self._versions

    def read(self, obj: ObjectId) -> StoredVersion:
        """Read ``obj`` from the store, counting one device read.

        Objects never written read as an absent value with ``NULL_SI``
        (a legal initial state: a file that does not exist yet).  On a
        durable backend this is a verified read of the device: a frame
        that fails its test raises ``CorruptObjectError`` and counts a
        ``checksum_failures`` — from :meth:`peek` and :meth:`items` too.
        """
        self.stats.object_reads += 1
        if not self.obs.enabled:
            return self.peek(obj)
        with stage(self.obs, "store.read_ms", None):  # histogram only
            return self.peek(obj)

    def peek(self, obj: ObjectId) -> StoredVersion:
        """Read without cost accounting (used by verifiers, not systems)."""
        return self._versions.get(obj, ABSENT)

    def vsi_of(self, obj: ObjectId) -> StateId:
        """Return the stored vSI of ``obj`` (``NULL_SI`` if absent)."""
        return self._versions.get(obj, ABSENT).vsi

    def object_ids(self) -> List[ObjectId]:
        """All object ids currently present in the store."""
        return list(self._versions)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def _put(self, obj: ObjectId, version: StoredVersion) -> None:
        """Land one version on the device (no accounting)."""
        self._versions[obj] = version

    def write(self, obj: ObjectId, value: Any, vsi: StateId) -> None:
        """Write one object version in place (one device write)."""
        self.stats.object_writes += 1
        self._put(obj, StoredVersion(value, vsi))

    def write_many(
        self,
        versions: Mapping[ObjectId, StoredVersion],
        atomic: bool,
        count: bool = True,
    ) -> None:
        """Write several objects.

        With ``atomic=True`` the whole set lands or none of it — the
        caller asserts it used a real atomicity mechanism (those in
        :mod:`repro.storage.atomic` call this).  With ``atomic=False``
        the writes go one at a time, so a crash between them tears the
        set.  ``count=False``: the mechanism charged the transfer
        elsewhere (shadow writes).
        """
        if atomic and count:
            self.stats.object_writes += len(versions)
        for obj, version in versions.items():
            if count and not atomic:
                self.stats.object_writes += 1
            self._put(obj, version)

    def _drop(self, obj: ObjectId) -> None:
        """Take ``obj`` off the device, if it is there."""
        self._versions.pop(obj, None)

    def delete(self, obj: ObjectId) -> None:
        """Remove an object from the store (a reclaimed file or page)."""
        self._drop(obj)

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def scrub(self) -> List[ObjectId]:
        """Verify stored versions; return the objects that failed.

        The in-memory store has no independent integrity record, so
        nothing is detected here; backends with checksums override
        this.  Recovery calls it before the redo pass so corruption is
        quarantined rather than replayed over.
        """
        return []

    def quarantine(self, obj: ObjectId) -> None:
        """Take a failed version out of service (no I/O accounting).

        Readers then see "absent" rather than garbage; media-style
        recovery rebuilds the object from a backup image and/or the log.
        """
        self._versions.pop(obj, None)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def items(self) -> Iterator[Tuple[ObjectId, StoredVersion]]:
        """``(object id, stored version)`` of every object present when
        called, each read as it is yielded (a device read, when durable)."""
        return ((obj, self.peek(obj)) for obj in self.object_ids())

    def copy_versions(self) -> Dict[ObjectId, StoredVersion]:
        """Snapshot of all versions (used by fuzzy backup and verifiers)."""
        return dict(self.items())

    def restore_versions(
        self, versions: Mapping[ObjectId, StoredVersion]
    ) -> None:
        """Replace the entire contents (media recovery restore path)."""
        self._versions = dict(versions)

    def footprint(self) -> Dict[str, float]:
        """Point gauges (``store.*``), computed when a snapshot is read."""
        return {"objects": len(self)}

    def close(self) -> None:
        """Release what is held open (nothing here); idempotent, and
        the store stays usable afterwards."""

    def __len__(self) -> int:
        return len(self._versions)
