"""Shared on-disk framing for the durable storage backends.

Every durable backend in :mod:`repro.storage` writes checksummed frames
— ``magic || [length][crc32] || payload`` — mirroring the WAL's frame
format, with the payload the stored-version encoding of the shared
binary codec (:mod:`repro.common.codec`: ``version · type · vSI ·``
tagged value): :class:`~repro.storage.file_store.FileStableStore`
frames one object version per file, and
:class:`~repro.storage.logstore.LogStructuredStableStore` appends
record frames to segment files.  The framing is the detection layer: a
torn or bit-rotted frame fails its length/checksum test instead of
silently yielding garbage, which is what lets recovery quarantine
damage and replay it from the log.  A frame written by another codec
version is not damage: it is refused
(:class:`~repro.common.codec.UnknownVersionError`), never quarantined.

The module also provides the **restore-pending marker** shared by the
durable backends (:class:`DurableMediaMarker`): the redo-scan start a
media restore committed to, persisted as a marker file so it survives a
cold process restart — a recovery that crashed between its media
restore and the completion of the widened redo must re-widen on the
next attempt rather than narrowly replaying over the stale restored
version (see ``StableStore.media_redo_pending``).
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib
from typing import Any, Optional, Tuple

from repro.common.codec import (
    CodecError,
    UnknownVersionError,
    decode_stored_version,
    encode_stored_version,
)
from repro.common.errors import CorruptObjectError
from repro.common.identifiers import NULL_SI, StateId
from repro.common.retry import retry_transient

MAGIC = b"ROBJ1\n"
HEADER = struct.Struct("<II")  # payload length, crc32

MARKER_NAME = "media_redo_pending.marker"
#: Value field stored in the marker frame (the vSI slot carries the
#: pending redo-start StateId).
MARKER_TAG = "media-redo-pending"


def fsync_dir(path: str) -> None:
    """fsync a directory so renames/unlinks inside it are durable.

    Platforms that cannot open directories for fsync (some filesystems
    refuse) are tolerated: the rename itself still happened, and the
    simulator's correctness does not depend on the host's metadata
    journaling — this is the real-deployment hardening.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def frame(value: Any, vsi: StateId) -> bytes:
    """Serialize one ``(value, vSI)`` pair as a checksummed frame."""
    payload = encode_stored_version(value, vsi)
    return MAGIC + HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def unframe(data: bytes, origin: str) -> Tuple[Any, StateId]:
    """Parse a frame, raising :class:`CorruptObjectError` on any damage
    (and ``UnknownVersionError`` for another codec version's frame)."""
    if not data.startswith(MAGIC):
        raise CorruptObjectError(f"{origin}: bad magic (torn or foreign file)")
    body = data[len(MAGIC) :]
    if len(body) < HEADER.size:
        raise CorruptObjectError(f"{origin}: truncated header")
    length, checksum = HEADER.unpack_from(body, 0)
    payload = body[HEADER.size : HEADER.size + length]
    if len(payload) < length:
        raise CorruptObjectError(f"{origin}: truncated payload (torn write)")
    if zlib.crc32(payload) != checksum:
        raise CorruptObjectError(f"{origin}: checksum mismatch (bit rot)")
    try:
        return decode_stored_version(payload)
    except UnknownVersionError as exc:
        raise UnknownVersionError(f"{origin}: {exc}") from None
    except CodecError as exc:
        raise CorruptObjectError(f"{origin}: undecodable payload: {exc}")


def write_file_durably(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` via temp-file + fsync + atomic rename.

    The classic dance: either the full new contents land under ``path``
    or the previous contents survive — never a torn mixture.  The
    containing directory is fsynced so the rename itself is durable.
    """
    directory = os.path.dirname(path)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        fsync_dir(directory)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


class DurableMediaMarker:
    """Mixin: a ``media_redo_pending`` marker persisted under ``root``.

    Durable backends mix this over :class:`~repro.storage.stable_store.
    StableStore` so the restore-pending marker survives cold process
    restarts.  The host class must call :meth:`_init_marker` once its
    ``root`` directory exists and its ``stats`` ledger is assigned.
    """

    def _init_marker(self, root: str) -> None:
        self._marker_path = os.path.join(root, MARKER_NAME)
        self._marker_root = root
        self._media_pending: Optional[StateId] = self._load_marker()

    @property
    def media_redo_pending(self) -> Optional[StateId]:
        """The persisted restore-pending marker (see the base class).

        Unlike the in-memory store's attribute, this survives a cold
        process restart: a recovery that crashed between its media
        restore and the completion of the widened redo leaves the
        marker file on disk, so the next process's recovery re-widens
        instead of narrowly replaying over the stale restored version.
        """
        return self._media_pending

    @media_redo_pending.setter
    def media_redo_pending(self, value: Optional[StateId]) -> None:
        if value == self._media_pending:
            return
        self._media_pending = value
        if value is None:
            retry_transient(
                self._unlink_marker,
                stats=self.stats,
                what="clear media-redo marker",
            )
        else:
            retry_transient(
                lambda: self._write_marker(value),
                stats=self.stats,
                what="write media-redo marker",
            )

    def _load_marker(self) -> Optional[StateId]:
        if not os.path.exists(self._marker_path):
            return None
        with open(self._marker_path, "rb") as handle:
            data = handle.read()
        try:
            tag, pending = unframe(data, "media-redo-pending marker")
        except CorruptObjectError:
            # A torn marker write still proves a media restore was in
            # flight; widen maximally (replay the whole retained log) —
            # the safe direction.
            self.stats.checksum_failures += 1
            return NULL_SI + 1
        if tag != MARKER_TAG or not isinstance(pending, int):
            return NULL_SI + 1
        return pending

    def _write_marker(self, pending: StateId) -> None:
        write_file_durably(self._marker_path, frame(MARKER_TAG, pending))

    def _unlink_marker(self) -> None:
        if os.path.exists(self._marker_path):
            os.unlink(self._marker_path)
            fsync_dir(self._marker_root)
