"""The fault layer: one injector, every faulty device.

Every fault-injecting device — the three stable stores and the two
WALs — consults its :class:`~repro.storage.faults.FaultModel` through
:class:`DeviceFaultInjector`, a mixin over the honest class.  The mixin
owns the protocol: one fire per device write, the returned spec handed
to the damage this device can suffer (else the write lands intact), the
spec's post-damage crash demand honoured, and an atomic multi-object
set held until all its members have fired, so a crash lands none of
it.  The device owns the physics
— a damaged in-memory value, half an object file, half a segment
append, a torn prefix of forced records, half a log frame, a lying
fsync.  :class:`LogFaultInjector` adds the log side: a stable scan is
one more faultable read.  Points are numbered by fire order within a
phase, whichever device fires.

The stores live here (re-exported by :mod:`repro.storage`); the logs
beside their honest classes (:class:`~repro.wal.faulty_log.FaultyLog`,
:class:`~repro.persist.faulty_log.FaultyFileLog`).
"""

from __future__ import annotations

import contextlib
import os
import zlib
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional

from repro.common.codec import encode_stored_version, encode_value
from repro.common.errors import CorruptObjectError
from repro.common.identifiers import NULL_SI, ObjectId, StateId
from repro.storage.faults import FaultCrash, FaultKind, FaultModel, FaultSpec
from repro.storage.file_store import FileStableStore, _encode
from repro.storage.framing import OVERHEAD, FramedFile
from repro.storage.logstore import LogStructuredStableStore
from repro.storage.stable_store import StableStore, StoredVersion
from repro.storage.stats import IOStats


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
    """Mixin: the fault choreography every faulty device shares.

    The host provides ``self.model`` (a :class:`FaultModel`) and
    ``self.stats`` (an :class:`~repro.storage.stats.IOStats`).
    """

    #: Site labels for fault messages (they do not affect numbering).
    WRITE_SITE = "store.write"
    DELETE_SITE = "store.delete"

    model: FaultModel
    stats: IOStats
    #: While an atomic set is written: its members' landings, held
    #: until every member's point has fired (see :meth:`_atomic_set`).
    _held: Optional[List[Callable[[], None]]] = None

    def _faulted_device_write(
        self,
        detail: str,
        intact: Callable[[], None],
        damage: Mapping[FaultKind, Callable[[FaultSpec], None]],
        after_fire: Optional[Callable[[], None]] = None,
    ) -> None:
        """One device write: fire one I/O point whose meaningful damage
        kinds are ``damage``'s keys, then land the write — ``intact()``,
        or ``damage[spec.kind](spec)`` (a torn write lands partially, a
        rotted one whole and then corrupted), then crash if the spec
        demands it.  ``after_fire`` runs iff the fire did not raise: the
        I/O was attempted (transients and clean crashes raise from it).
        Inside an atomic set the landing is held, and a demanded crash
        drops the set before any of it lands."""
        spec = self.model.fire(
            self.WRITE_SITE, detail, can=frozenset(damage), stats=self.stats
        )
        if after_fire is not None:
            after_fire()
        land = intact if spec is None else partial(damage[spec.kind], spec)
        crash = spec is not None and spec.crash
        if self._held is None:
            land()
        elif not crash:
            self._held.append(land)
        if crash:
            raise FaultCrash(f"crash demanded by {spec.describe()}")

    @contextlib.contextmanager
    def _atomic_set(self, atomic: bool) -> Iterator[None]:
        """Write a multi-object set one object write at a time.  With
        ``atomic``, every member's point fires before any member lands,
        so an injected crash — clean, or demanded after damage — leaves
        none of the set visible.  The fire sequence is the same either
        way: ``atomic`` changes what a crash leaves, not the numbering."""
        if not atomic:
            yield
            return
        self._held = held = []
        try:
            yield
        finally:
            self._held = None
        for land in held:
            land()

    def _faulted_device_delete(self, detail: str) -> None:
        """Fire the delete point (transient/crash only — no damage)."""
        self.model.fire(self.DELETE_SITE, detail, stats=self.stats)


class LogFaultInjector(DeviceFaultInjector):
    """Mixin over a log manager: a force is one device write, a stable
    scan one device read.  A torn force is only ever *observed* because
    the machine died mid-force, so each log's torn damage ends in
    :class:`FaultCrash`."""

    WRITE_SITE = "log.force"
    SCAN_SITE = "log.scan"

    def stable_records(self, from_lsi: StateId = NULL_SI) -> Iterator[Any]:
        """One point per scan, not per record: the sequential read is
        the unit of device I/O.  Scans are recovery's (and replication
        catch-up's), so a failing or crashing scan kills the attempt and
        the supervisor retries or restarts it."""
        self.model.fire(self.SCAN_SITE, f"from {from_lsi}", stats=self.stats)
        return super().stable_records(from_lsi)

    def stable_frames(self, from_lsi: StateId = NULL_SI) -> Iterator[Any]:
        """The same point: shipping reads the stable log as frames."""
        self.model.fire(self.SCAN_SITE, f"from {from_lsi}", stats=self.stats)
        return super().stable_frames(from_lsi)


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
        with self._atomic_set(atomic):
            for obj, version in versions.items():
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
            put_intact,
            dict.fromkeys((FaultKind.TORN, FaultKind.CORRUPT), put_damaged),
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

    def write_many(
        self,
        versions: Mapping[ObjectId, StoredVersion],
        atomic: bool,
        count: bool = True,
    ) -> None:
        # The index is RAM that _put updates as each member fires: an
        # atomic set that died before landing must leave it as it was.
        index = dict(self._index) if atomic else self._index
        try:
            with self._atomic_set(atomic):
                super().write_many(versions, atomic, count)
        except BaseException:
            self._index = index
            raise

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

        self._faulted_device_write(
            obj, intact, {FaultKind.TORN: torn, FaultKind.CORRUPT: rot}
        )

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
            lambda: land(data),
            {
                FaultKind.TORN: lambda spec: land(torn_prefix(data)),
                FaultKind.CORRUPT: rot,
            },
        )
        return offset
