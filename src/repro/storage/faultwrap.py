"""The store-agnostic fault wrapper: one choreography, every backend.

Historically the fault-injecting stores duplicated their core logic:
the in-memory :class:`FaultyStore` and the file-backed
``FaultyFileStore`` each hand-rolled the
same *fire → branch on damage kind → maybe crash* dance against a
:class:`~repro.storage.faults.FaultModel`.  Adding a third backend
would have meant a third copy.  This module folds the choreography into
:class:`DeviceFaultInjector`, a mixin over any
:class:`~repro.storage.stable_store.StableStore` subclass:

* the mixin owns the protocol — consult the model exactly once per
  device mutation, translate the returned spec into one of three
  outcomes (``intact`` / ``torn`` / ``rot``), honour the spec's
  post-damage crash demand;
* the backend owns the physics — *how* a torn or rotted write lands is
  the only thing each faulty store implements (damaged in-memory value,
  half an object file, half a segment append).

Because the mixin consults the model through the same
:meth:`~repro.storage.faults.FaultModel.fire` calls the hand-rolled
versions made, fault-point **numbering is preserved exactly**: a
schedule recorded against the old classes fires at the same points
against these.

The concrete wrappers all live here:

* :class:`FaultyStore` — the in-memory store (damaged versions, CRC
  side map, detection on read);
* :class:`FaultyFileStore` — the one-file-per-object store (damage
  lands on real file bytes);
* :class:`FaultyLogStructuredStore` — the log-structured store (damage
  lands on real segment bytes: torn appends, rotted record frames).

:mod:`repro.storage` re-exports all three; :mod:`repro.persist`
re-exports the file-backed one.
"""

from __future__ import annotations

import os
import zlib
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Optional

from repro.common.codec import encode_stored_version, encode_value
from repro.common.errors import CorruptObjectError
from repro.common.identifiers import ObjectId, StateId
from repro.storage.faults import FaultKind, FaultModel, FaultSpec
from repro.storage.file_store import FileStableStore, _encode
from repro.storage.framing import OVERHEAD, FramedFile
from repro.storage.logstore import LogStructuredStableStore
from repro.storage.stable_store import StableStore, StoredVersion
from repro.storage.stats import IOStats

#: Damage kinds meaningful at a device write site (a read cannot tear).
WRITE_DAMAGE: FrozenSet[FaultKind] = frozenset(
    {FaultKind.TORN, FaultKind.CORRUPT}
)


# ----------------------------------------------------------------------
# damage representation (shared by every wrapper)
# ----------------------------------------------------------------------
def version_checksum(version: StoredVersion) -> int:
    """Integrity checksum of a stored version (value + vSI)."""
    return zlib.crc32(encode_stored_version(version.value, version.vsi))


def damaged_value(value: Any, kind: FaultKind, point: int) -> bytes:
    """A deterministic damaged variant of ``value``.

    Torn writes keep a recognizable prefix of the intended bytes (the
    part that landed); corruption flips a bit of the serialized form.
    Either way the result fails the checksum of the intended version.
    """
    raw = encode_value(value)
    if kind is FaultKind.TORN:
        return b"\x00TORN\x00" + raw[: max(1, len(raw) // 2)]
    flip = point % max(1, len(raw))
    return raw[:flip] + bytes([raw[flip] ^ 0x40]) + raw[flip + 1 :]


def torn_prefix(data: bytes) -> bytes:
    """The prefix of ``data`` that lands when a device write tears."""
    return data[: max(1, len(data) // 2)]


def overwrite_raw(path: str, data: bytes) -> None:
    """Land raw bytes at ``path`` directly — no temp/rename protection.

    This is how torn damage reaches the platter: the write that tore
    bypassed whatever atomicity dance the store normally performs.
    """
    with open(path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


def flip_byte_in_file(path: str, offset: int) -> None:
    """Flip one bit (``^ 0x40``) of the byte at ``offset`` in ``path``."""
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0x40]))
        handle.flush()
        os.fsync(handle.fileno())


class DeviceFaultInjector:
    """Mixin: the fault choreography every faulty backend shares.

    The host class must provide ``self.model`` (a :class:`FaultModel`)
    and ``self.stats`` (an :class:`~repro.storage.stats.IOStats`), and
    set the site names its points are labelled with.  Site strings do
    not affect fault-point numbering (points are numbered by fire
    order within a phase), only trace readability.
    """

    #: Site labels for the model's fault trace.
    WRITE_SITE = "store.write"
    DELETE_SITE = "store.delete"

    model: FaultModel
    stats: IOStats

    def _faulted_device_write(
        self,
        detail: str,
        *,
        intact: Callable[[], None],
        torn: Callable[[FaultSpec], None],
        rot: Callable[[FaultSpec], None],
        after_fire: Optional[Callable[[], None]] = None,
    ) -> Optional[FaultSpec]:
        """One device write under the model.

        Fires exactly one I/O point, then applies the outcome:
        ``intact()`` when no damage is scheduled, ``torn(spec)`` when
        the write lands partially, ``rot(spec)`` when it lands whole
        and the medium then corrupts it.  ``after_fire`` runs after a
        non-raising fire in every branch — accounting that must happen
        iff the I/O was actually attempted (transient faults and clean
        crashes raise from the fire itself).  Ends by honouring the
        spec's post-damage crash demand.
        """
        spec = self.model.fire(
            self.WRITE_SITE, detail, can=WRITE_DAMAGE, stats=self.stats
        )
        if after_fire is not None:
            after_fire()
        if spec is None:
            intact()
            return None
        if spec.kind is FaultKind.TORN:
            torn(spec)
        else:
            rot(spec)
        self.model.crash_if_demanded(spec)
        return spec

    def _faulted_device_delete(self, detail: str) -> None:
        """Fire the delete point (transient/crash only — no damage)."""
        self.model.fire(self.DELETE_SITE, detail, stats=self.stats)


class FaultyStore(DeviceFaultInjector, StableStore):
    """A stable store whose device is described by a :class:`FaultModel`.

    Every read, write and delete consults the model.  The store keeps a
    CRC32 per object (the in-memory analogue of the file store's framed
    checksums): torn and corrupt faults damage the stored version while
    leaving the checksum describing the *intended* version, so
    :meth:`read` detects the damage and raises
    :class:`CorruptObjectError`, and :meth:`scrub` finds it before a
    redo pass can replay over garbage.
    """

    READ_SITE = "store.read"

    def __init__(
        self, model: FaultModel, stats: Optional[IOStats] = None
    ) -> None:
        super().__init__(stats)
        self.model = model
        self._crcs: Dict[ObjectId, int] = {}

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def read(self, obj: ObjectId) -> StoredVersion:
        spec = self.model.fire(
            self.READ_SITE,
            obj,
            can=frozenset({FaultKind.CORRUPT}),
            stats=self.stats,
        )
        if spec is not None and obj in self._versions:
            # Bit rot discovered by the read that touches it.
            good = self._versions[obj]
            self._versions[obj] = StoredVersion(
                damaged_value(good.value, spec.kind, spec.point), good.vsi
            )
        version = super().read(obj)
        self._verify(obj, version)
        return version

    def _verify(self, obj: ObjectId, version: StoredVersion) -> None:
        expected = self._crcs.get(obj)
        if expected is None:
            return
        if version_checksum(version) != expected:
            self.stats.checksum_failures += 1
            raise CorruptObjectError(
                f"stored version of {obj!r} failed its checksum"
            )

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def write(self, obj: ObjectId, value: Any, vsi: StateId) -> None:
        self._faulty_put(obj, StoredVersion(value, vsi), count=True)

    def write_many(
        self,
        versions: Mapping[ObjectId, StoredVersion],
        atomic: bool,
        count: bool = True,
    ) -> None:
        # Each object write is one device I/O whether or not the set is
        # installed atomically — an atomicity mechanism orders failure
        # visibility, it does not remove the device operations.
        for obj, version in versions.items():
            if not atomic and self.mid_write_hook is not None:
                self.mid_write_hook(obj)
            self._faulty_put(obj, version, count=count)

    def _faulty_put(
        self, obj: ObjectId, version: StoredVersion, count: bool
    ) -> None:
        good_crc = version_checksum(version)

        def put_intact() -> None:
            self._versions[obj] = version
            self._crcs[obj] = good_crc

        def put_damaged(spec: FaultSpec) -> None:
            # Torn: garbage landed mid-write.  Corrupt: the write
            # landed, then the medium rotted it.  Either way the
            # checksum describes the *intended* version, so integrity
            # passes catch the damage.
            self._versions[obj] = StoredVersion(
                damaged_value(version.value, spec.kind, spec.point),
                version.vsi,
            )
            self._crcs[obj] = good_crc

        def bump() -> None:
            if count:
                self.stats.object_writes += 1

        self._faulted_device_write(
            obj,
            intact=put_intact,
            torn=put_damaged,
            rot=put_damaged,
            after_fire=bump,
        )

    def delete(self, obj: ObjectId) -> None:
        self._faulted_device_delete(obj)
        super().delete(obj)
        self._crcs.pop(obj, None)

    # ------------------------------------------------------------------
    # integrity / restore (recovery paths: never faulted)
    # ------------------------------------------------------------------
    def scrub(self) -> List[ObjectId]:
        bad: List[ObjectId] = []
        for obj, version in self._versions.items():
            expected = self._crcs.get(obj)
            if expected is not None and version_checksum(version) != expected:
                self.stats.checksum_failures += 1
                bad.append(obj)
        return bad

    def quarantine(self, obj: ObjectId) -> None:
        super().quarantine(obj)
        self._crcs.pop(obj, None)

    def restore_version(
        self, obj: ObjectId, version: Optional[StoredVersion]
    ) -> None:
        super().restore_version(obj, version)
        if version is None:
            self._crcs.pop(obj, None)
        else:
            self._crcs[obj] = version_checksum(version)

    def restore_versions(
        self, versions: Mapping[ObjectId, StoredVersion]
    ) -> None:
        super().restore_versions(versions)
        self._crcs = {
            obj: version_checksum(version)
            for obj, version in versions.items()
        }


class FaultyFileStore(DeviceFaultInjector, FileStableStore):
    """A FileStableStore whose device obeys a :class:`FaultModel`.

    Damage lands on *real file bytes*, and the file is the only copy:
    the index keeps the intended vSI, so the next ``read`` / ``peek`` of
    the object — a cache miss, a verifier, :meth:`FileStableStore.scrub`
    — fails the frame test and raises :class:`CorruptObjectError`.
    """

    WRITE_SITE = "file-store.write"
    DELETE_SITE = "file-store.delete"

    def __init__(
        self, root: str, model: FaultModel, stats: Optional[IOStats] = None
    ) -> None:
        self.model = model
        super().__init__(root, stats)

    def _write_frame(self, obj: ObjectId, frame: bytes) -> None:
        path = os.path.join(self._dir, _encode(obj))

        def intact() -> None:
            FileStableStore._write_frame(self, obj, frame)

        def torn(spec: FaultSpec) -> None:
            # The rename landed but only a prefix of the bytes did —
            # the one failure the temp+rename dance cannot rule out on
            # a device that acknowledges early.
            overwrite_raw(path, torn_prefix(frame))

        def rot(spec: FaultSpec) -> None:
            # The write completed, then the medium rotted: flip one
            # payload bit of the stored frame, checksum left stale.
            intact()
            size = os.path.getsize(path)
            flip_byte_in_file(
                path, OVERHEAD + spec.point % max(1, size - OVERHEAD)
            )

        self._faulted_device_write(obj, intact=intact, torn=torn, rot=rot)

    def _drop(self, obj: ObjectId) -> None:
        self._faulted_device_delete(obj)
        super()._drop(obj)


class FaultyLogStructuredStore(DeviceFaultInjector, LogStructuredStableStore):
    """A LogStructuredStableStore whose device obeys a :class:`FaultModel`.

    Damage lands on *real segment bytes*: a torn append leaves half of
    what was appended at the segment tail (a record frame; for a
    compaction chunk, whole copied frames then half a frame), and bit
    rot flips a payload byte of it.  The index keeps the intended
    location and vSI, so the damage is found by whatever reads those
    bytes next: a ``read`` / ``peek`` (:class:`CorruptObjectError`),
    :meth:`scrub`, the copy of a later compaction, the rebuild scan.
    """

    WRITE_SITE = "log-store.append"
    DELETE_SITE = "log-store.delete"

    def __init__(
        self,
        root: str,
        model: FaultModel,
        stats: Optional[IOStats] = None,
        **kwargs: Any,
    ) -> None:
        self.model = model
        super().__init__(root, stats, **kwargs)

    def _append_device(self, file: FramedFile, data: bytes) -> int:
        offset = 0

        def land(written: bytes) -> None:
            nonlocal offset
            offset = file.append(written)

        def rot(spec: FaultSpec) -> None:
            land(data)
            flip_byte_in_file(
                file.path,
                offset + OVERHEAD + spec.point % max(1, len(data) - OVERHEAD),
            )

        self._faulted_device_write(
            os.path.basename(file.path),
            intact=lambda: land(data),
            torn=lambda spec: land(torn_prefix(data)),
            rot=rot,
        )
        return offset
