"""Shared on-disk framing for the durable storage backends.

Every durable backend in :mod:`repro.storage` writes checksummed frames
— ``magic || [length][crc32] || payload`` — mirroring the WAL's frame
format, with the payload the stored-version encoding of the shared
binary codec (:mod:`repro.common.codec`: ``version · type · vSI ·``
tagged value, deflated when that pays — see :func:`frame`):
:class:`~repro.storage.file_store.FileStableStore`
frames one object version per file, and
:class:`~repro.storage.logstore.LogStructuredStableStore` appends
record frames to segment files.  The framing is the detection layer: a
torn or bit-rotted frame fails its length/checksum test instead of
silently yielding garbage, which is what lets recovery quarantine
damage and replay it from the log.  A frame written by another codec
version is not damage: it is refused
(:class:`~repro.common.codec.UnknownVersionError`), never quarantined.

The module is also the one place bytes are made durable
(:class:`FramedFile` for append-only files of frames — the WAL's
``wal.log`` and the logstore's segments — and :func:`write_file_durably`
for whole-file replacement): nothing else under ``src/repro`` calls
``fsync``, ``replace`` or ``truncate`` on stable state (DESIGN.md §4a).

It also provides the **restore-pending marker** shared by the
durable backends (:class:`DurableMediaMarker`): the redo-scan start a
media restore committed to, persisted as a marker file so it survives a
cold process restart — a recovery that crashed between its media
restore and the completion of the widened redo must re-widen on the
next attempt rather than narrowly replaying over the stale restored
version (see ``StableStore.media_redo_pending``).
"""

from __future__ import annotations

import errno
import io
import os
import struct
import tempfile
import zlib
from typing import Any, BinaryIO, Callable, Iterator, Optional, Tuple, Union

from repro.common.codec import (
    DECODE_ERRORS,
    DEFLATED_VERSION,
    HEADER as PAYLOAD_HEADER,
    TYPE_STORED_VERSION,
    Buffer,
    CodecError,
    UnknownVersionError,
    decode_stored_version,
    decode_value,
    encode_stored_version,
    get_uvarint,
    put_uvarint,
)
from repro.common.errors import CorruptObjectError
from repro.common.identifiers import NULL_SI, StateId
from repro.common.retry import retry_transient

MAGIC = b"ROBJ1\n"
HEADER = struct.Struct("<II")  # payload length, crc32
#: Bytes a stored-version frame adds in front of its payload.
OVERHEAD = len(MAGIC) + HEADER.size
#: Most a :meth:`FramedFile.scan` asks of the device in one read.
SCAN_CHUNK = 256 * 1024
#: ``copy_file_range`` errors that mean "not here": copy through a
#: buffer instead.
_NO_KERNEL_COPY = frozenset(
    {errno.ENOSYS, errno.EXDEV, errno.EINVAL, errno.EOPNOTSUPP}
)

#: The deflate rule of a stored version (:func:`frame`): an encoding
#: shorter than the floor is framed as it is; a longer one is deflated
#: at the level, and the deflated body is kept only when it saves at
#: least 1/:data:`DEFLATE_SAVING` of the payload's bytes.
DEFLATE_FLOOR = 256
DEFLATE_LEVEL = 1
DEFLATE_SAVING = 8
#: The most deflate can expand (a 258-byte match in under two bits): a
#: body declaring more than this many bytes per deflated byte is a lie,
#: refused before anything is inflated.
MAX_INFLATE_RATIO = 1032

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


def pack_frame(payload: bytes, magic: bytes = b"") -> bytes:
    """``magic || [length][crc32] || payload``."""
    return magic + HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def payload_at(
    data: Buffer, offset: int, magic: bytes = b"", origin: str = "frame"
) -> Buffer:
    """The frame test: the payload of the frame at ``offset`` in ``data``
    (a slice of ``data``: a view of a ``memoryview``, bytes of bytes).

    Raises :class:`CorruptObjectError` for anything a torn or rotted
    write leaves behind — a missing magic, an incomplete header, a
    payload shorter than its declared length, a checksum mismatch, or
    the empty frame of an all-zero header (no writer frames nothing).
    """
    start = offset + len(magic) + HEADER.size
    if data[offset : offset + len(magic)] != magic:
        raise CorruptObjectError(f"{origin}: bad magic (torn or foreign file)")
    if start > len(data):
        raise CorruptObjectError(f"{origin}: truncated header")
    length, checksum = HEADER.unpack_from(data, start - HEADER.size)
    payload = data[start : start + length]
    if len(payload) < length:
        raise CorruptObjectError(f"{origin}: truncated payload (torn write)")
    if length == 0 or zlib.crc32(payload) != checksum:
        raise CorruptObjectError(f"{origin}: checksum mismatch (bit rot)")
    return payload


def frame(value: Any, vsi: StateId) -> bytes:
    """Serialize one ``(value, vSI)`` pair as a checksummed frame.

    The payload is the stored-version encoding, or — when it is at
    least :data:`DEFLATE_FLOOR` bytes and deflating saves at least
    1/:data:`DEFLATE_SAVING` of them — its deflated form
    ``DEFLATED_VERSION · TYPE_STORED_VERSION · vSI · uvarint(length) ·
    zlib(tagged value)``, which a build reading only codec version 1
    refuses rather than quarantines.
    """
    return pack_frame(_deflated(encode_stored_version(value, vsi)), MAGIC)


def _deflated(payload: bytes) -> bytes:
    """``payload`` deflated by the rule of :func:`frame`, or itself."""
    if len(payload) < DEFLATE_FLOOR:
        return payload
    encoding = memoryview(payload)[PAYLOAD_HEADER.size :]
    head = bytearray(payload[: PAYLOAD_HEADER.size])
    head[0] = DEFLATED_VERSION
    put_uvarint(head, len(encoding))
    head += zlib.compress(encoding, DEFLATE_LEVEL)
    if len(head) * DEFLATE_SAVING > len(payload) * (DEFLATE_SAVING - 1):
        return payload
    return bytes(head)


def _inflated(payload: Buffer) -> Tuple[Any, StateId]:
    """Invert :func:`_deflated`.  The inflation is bounded by the
    declared length; every failure is a :class:`CodecError`."""
    try:
        _version, kind, vsi = PAYLOAD_HEADER.unpack_from(payload, 0)
        length, start = get_uvarint(payload, PAYLOAD_HEADER.size)
    except DECODE_ERRORS:
        raise CodecError("truncated deflated header") from None
    if kind != TYPE_STORED_VERSION:
        raise CodecError(f"payload type {kind} is not a stored version")
    body = payload[start:]
    if not 0 < length <= MAX_INFLATE_RATIO * len(body):
        raise CodecError(
            f"{len(body)} deflated bytes cannot inflate to {length}"
        )
    inflater = zlib.decompressobj()
    try:
        # One byte of room past the declared length: a stream that
        # fills it inflates past its bound, and one that ends exactly
        # there has room to read its end marker.
        encoding = inflater.decompress(body, length + 1)
    except zlib.error as exc:
        raise CodecError(f"bad deflate stream: {exc}") from None
    if len(encoding) != length or not inflater.eof or inflater.unused_data:
        raise CodecError(
            f"deflated body does not inflate to its declared {length} bytes"
        )
    return decode_value(encoding), vsi


def decode_payload(payload: Buffer, origin: str) -> Tuple[Any, StateId]:
    """Decode a stored-version payload (deflated or not) that passed
    the frame test.

    Undecodable bytes are damage (:class:`CorruptObjectError`) — a
    deflated body that is not a deflate stream, inflates past its
    declared length or is not a value included; another codec version's
    frame is refused (``UnknownVersionError``).
    """
    try:
        if len(payload) and payload[0] == DEFLATED_VERSION:
            return _inflated(payload)
        return decode_stored_version(payload)
    except UnknownVersionError as exc:
        raise UnknownVersionError(f"{origin}: {exc}") from None
    except CodecError as exc:
        raise CorruptObjectError(f"{origin}: undecodable payload: {exc}")


def unframe(data: bytes, origin: str) -> Tuple[Any, StateId]:
    """Parse a frame, raising :class:`CorruptObjectError` on any damage
    (and ``UnknownVersionError`` for another codec version's frame)."""
    payload = payload_at(memoryview(data), 0, MAGIC, origin)
    return decode_payload(payload, origin)


def write_file_durably(
    path: str, data: Union[bytes, Callable[[BinaryIO], None]]
) -> None:
    """Write ``data`` to ``path`` via temp-file + fsync + atomic rename.

    The classic dance: either the full new contents land under ``path``
    or the previous contents survive — never a torn mixture.  The
    containing directory is fsynced so the rename itself is durable.
    ``data`` may instead be a callable that writes the contents to the
    temp file's handle.
    """
    directory = os.path.dirname(path)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            if isinstance(data, bytes):
                handle.write(data)
            else:
                data(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        fsync_dir(directory)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


class FramedFile:
    """An append-only file of checksummed frames.

    The one durable-file mechanism under the WAL (``wal.log``, no magic:
    ``[len][crc][payload]``) and the logstore (one instance per segment,
    ``MAGIC[len][crc][payload]``).  It owns everything that touches the
    device: the held ``O_APPEND`` descriptor, write-all + ``fsync``, the
    forward scan with its frame test, tail repair, the cut-back after a
    failed append, the verified read of one indexed frame on a held
    read-only descriptor, and the prefix drop.  Callers
    keep policy only (what a payload means, what damage implies).

    ``end`` is the end of the bytes this object vouches for — where the
    last scan stopped or the last append ended; ``torn`` says the file
    may hold bytes past ``end`` that no frame owns.  Not thread-safe:
    the owner serializes calls (the WAL under its force mutex).
    """

    def __init__(self, path: str, magic: bytes = b"") -> None:
        self.path = path
        self.magic = magic
        self.end = 0
        self.torn = False
        #: Bad spots the last scan met (the torn tail included).
        self.damage = 0
        #: The append descriptor, opened by the first append and kept
        #: until :meth:`close` (or a repair/replace that invalidates it).
        self._fd: Optional[int] = None
        #: The positioned-read descriptor (see :meth:`read_frame`).
        self._read_fd: Optional[int] = None

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def scan(self, start: int = 0) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(offset, payload)`` of every frame from ``start`` on
        that passes the frame test, front to back (a missing file holds
        none).

        A frame that fails is skipped by resynchronizing at the next
        magic; with none ahead — always, in a file without magic — the
        rest is a **torn tail** and the scan stops.  Once the iterator
        is exhausted ``end``, ``torn`` and ``damage`` describe the file.

        The file is opened, and its size taken, by this call rather
        than by the first ``next``: the frames come from the inode that
        held the name at the call and stop at the bytes it had then,
        whatever is appended or renamed over it while the iterator
        lives.  It is read :data:`SCAN_CHUNK` bytes at a time, so a scan
        holds a chunk and the frame it is on, never the file.
        """
        try:
            handle = open(self.path, "rb", buffering=0)
        except FileNotFoundError:
            return self._frames(None, start, start)
        try:
            size = os.fstat(handle.fileno()).st_size
        except BaseException:
            handle.close()
            raise
        return self._frames(handle, start, max(size, start))

    def _frames(
        self, handle: Optional[io.FileIO], offset: int, size: int
    ) -> Iterator[Tuple[int, bytes]]:
        magic = self.magic
        overhead = len(magic) + HEADER.size
        #: The window: file bytes ``[base, base + len(data))``.
        data, base = b"", offset

        def window(low: int, high: int) -> None:
            """Slide to cover ``[low, min(high, size))``, a chunk at a
            time; a file that shrank under the scan ends there."""
            nonlocal data, base, size
            parts = [data[low - base:]]
            base, have = low, len(parts[0])
            while low + have < min(high, size):
                # Positioned and sized to the file: no seek, no probe
                # past the end (each syscall is a GIL hand-off in a
                # threaded daemon).
                chunk = os.pread(
                    handle.fileno(),
                    min(SCAN_CHUNK, size - low - have),
                    low + have,
                )
                if not chunk:
                    size = low + have
                    break
                parts.append(chunk)
                have += len(chunk)
            data = b"".join(parts)

        def next_magic() -> int:
            """Offset of the first magic after ``offset``; -1 if none."""
            low = offset + 1
            while magic:
                found = data.find(magic, low - base)
                if found != -1:
                    return base + found
                if base + len(data) >= size:
                    break
                # Keep the tail a straddling magic could start in.
                low = max(low, base + len(data) - len(magic) + 1)
                window(low, base + len(data) + SCAN_CHUNK)
            return -1

        self.damage = 0
        try:
            while offset < size:
                if base + len(data) < min(offset + overhead, size):
                    window(offset, offset + overhead)
                at = offset - base
                if len(data) - at >= overhead:
                    (length, _crc) = HEADER.unpack_from(data, at + len(magic))
                    frame_end = offset + overhead + length
                    # A frame running past the file is torn whatever its
                    # bytes say: no need to read them.
                    if base + len(data) < frame_end <= size:
                        window(offset, frame_end)
                        at = 0
                try:
                    payload = payload_at(data, at, magic)
                except CorruptObjectError:
                    self.damage += 1
                    resync = next_magic()
                    if resync == -1:
                        break
                    offset = resync
                    continue
                yield offset, payload
                offset += overhead + len(payload)
        finally:
            if handle is not None:
                handle.close()
        self.end = offset
        self.torn = offset < size

    def read_frame(self, offset: int, length: int) -> memoryview:
        """The payload of the ``length``-byte frame at ``offset``, as a
        view of the read buffer: one ``pread`` of exactly those bytes
        plus the frame test, on a
        read-only descriptor opened by the first call and held until
        :meth:`release_reader` / :meth:`close` / :meth:`remove` (the
        owner bounds how many of its files hold one).
        :class:`CorruptObjectError` if the frame fails its test or the
        file is gone."""
        if self._read_fd is None:
            try:
                self._read_fd = os.open(self.path, os.O_RDONLY)
            except FileNotFoundError:
                raise CorruptObjectError(
                    f"{self.path}: the file is gone"
                ) from None
        try:
            return payload_at(
                memoryview(os.pread(self._read_fd, length, offset)),
                0,
                self.magic,
            )
        except CorruptObjectError as exc:  # say where, but only then
            raise CorruptObjectError(
                f"{os.path.basename(self.path)}@{offset}: {exc}"
            ) from None

    def release_reader(self) -> None:
        """Close the read descriptor; the next read reopens it."""
        if self._read_fd is not None:
            os.close(self._read_fd)
            self._read_fd = None

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, data: bytes) -> int:
        """The device touchpoint: append ``data`` (whole frames) and
        fsync; return the offset it landed at.

        The offset comes from the descriptor, so it is true whatever
        landed before.  An append that creates the file fsyncs the
        directory.  One that fails part-way (``ENOSPC`` after a short
        write, ``EIO`` from fsync) cuts the file back to the last
        acknowledged byte — ``O_APPEND`` would otherwise keep the partial
        bytes ahead of the next frame; if even that fails, ``torn`` makes
        the next append do it first.
        """
        if self.torn:
            self.repair()
        try:
            if self._fd is None:
                created = not os.path.exists(self.path)
                self._fd = os.open(
                    self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
                )
                if created:
                    fsync_dir(os.path.dirname(self.path))
            self.end = os.fstat(self._fd).st_size
            view = memoryview(data)
            while view:
                view = view[os.write(self._fd, view):]
            os.fsync(self._fd)
        except OSError:
            self.torn = True
            try:
                self.repair()
            except OSError:
                pass
            raise
        self.end += len(data)
        return self.end - len(data)

    def repair(self) -> None:
        """Drop whatever follows ``end`` (idempotent)."""
        self.close()
        if os.path.exists(self.path):
            with open(self.path, "r+b") as handle:
                handle.truncate(self.end)
                os.fsync(handle.fileno())
        self.torn = False

    def drop_prefix(self, base: int) -> None:
        """Replace the file with its bytes ``[base, end)``, atomically.

        The suffix is copied by the kernel where the platform can
        (``copy_file_range``), else :data:`SCAN_CHUNK` bytes at a time:
        a long retained log costs no memory, or a chunk of it, never its
        length.  A source that ends short of ``end`` fails the copy
        before the rename: the old file stays.
        """
        with open(self.path, "rb", buffering=0) as source:
            write_file_durably(
                self.path,
                lambda target: self._copy(source.fileno(), target, base),
            )
        # The held descriptor names the replaced inode.
        self.close()
        self.end -= base
        self.torn = False  # only [base, end) was carried over

    def _copy(self, source: int, target: BinaryIO, offset: int) -> None:
        """Copy the bytes ``[offset, end)`` of ``source`` to ``target``."""
        in_kernel = hasattr(os, "copy_file_range")
        while offset < self.end:
            count = self.end - offset
            if in_kernel:
                try:
                    copied = os.copy_file_range(
                        source, target.fileno(), count, offset
                    )
                except OSError as exc:
                    if exc.errno not in _NO_KERNEL_COPY:
                        raise
                    in_kernel = False  # this file system cannot
                    continue
            else:
                piece = os.pread(source, min(SCAN_CHUNK, count), offset)
                target.write(piece)
                copied = len(piece)
            if not copied:
                raise CorruptObjectError(
                    f"{self.path}: ends at {offset}, short of {self.end}"
                )
            offset += copied

    def remove(self) -> None:
        """Release the descriptor and unlink the file (the caller
        fsyncs the directory, once per batch of removals)."""
        self.close()
        if os.path.exists(self.path):
            os.unlink(self.path)

    def close(self) -> None:
        """Release both descriptors; the next append or read reopens
        its own."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        self.release_reader()

    def __del__(self) -> None:
        # Safety net for owners dropped without close() (harnesses build
        # one per run): a raw descriptor is not reclaimed by the GC.
        self.close()


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
