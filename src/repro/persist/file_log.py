"""File-backed WAL: an append-only record file with torn-tail repair.

Stable records are appended to ``root/wal.log`` as
``[length u32][crc32 u32][payload]`` frames whose payload is the
versioned binary record encoding of :mod:`repro.wal.codec`.  A record
is encoded when it is appended — a value the codec cannot write fails
that one append and never enters the buffer — and ``force`` writes the
buffered frames with one ``write`` on a descriptor held open for the
log's lifetime and fsyncs it.  A force that fails part-way (``ENOSPC``
after a short write, ``EIO`` from fsync) cuts the file back to the last
acknowledged frame before anything else is appended, so the recorded
frame offsets always describe the file.

On open, frames are read back until the file ends or a frame fails the
**torn-tail test** — an incomplete header, a payload shorter than its
declared length, a checksum mismatch, or the all-zero header a torn
header-only write leaves behind.  That is a crash mid-force: the file
is truncated to the last good frame, which is exactly the "a crash
loses a suffix of unforced records" model the in-memory log simulates.
A frame whose checksum *passes* but whose payload does not decode is
not a torn tail — it was written whole, by a different format version
or a defect — and truncating there would silently drop the acked
records behind it, so the open is refused and the file left untouched.

Truncation (``truncate_before``) copies the retained byte suffix to a
temp file and renames it into place (fsynced, directory included).
"""

from __future__ import annotations

import os
import zlib
from typing import Dict, List, Optional

from repro.common.codec import CodecError
from repro.common.identifiers import StateId
from repro.storage.framing import HEADER as _HEADER
from repro.storage.framing import write_file_durably
from repro.storage.stats import IOStats
from repro.wal.codec import decode_record, encode_record
from repro.wal.log_manager import LogManager
from repro.wal.records import LogRecord, OperationRecord


class FileLogManager(LogManager):
    """A LogManager whose stable tail lives in ``root/wal.log``."""

    #: The append descriptor, opened by the first force and kept until
    #: :meth:`close` (or a rename/repair that invalidates it).
    _fd: Optional[int] = None

    def __init__(self, root: str, stats: Optional[IOStats] = None) -> None:
        super().__init__(stats)
        os.makedirs(root, exist_ok=True)
        self.path = os.path.join(root, "wal.log")
        #: File offset of each stable record's frame (parallel to
        #: ``_stable``) and of the end of the last good frame.
        self._offsets: List[int] = []
        self._end = 0
        #: Frames of the buffered records, by lSI, encoded at append.
        self._frames: Dict[StateId, bytes] = {}
        #: True while the file may hold bytes past ``_end`` that no
        #: stable record owns (a failed append not yet cut back).
        self._tail_suspect = False
        self._load()

    # ------------------------------------------------------------------
    # opening
    # ------------------------------------------------------------------
    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as handle:
            data = handle.read()
        records: List[LogRecord] = []
        offsets: List[int] = []
        offset = 0
        while offset + _HEADER.size <= len(data):
            length, checksum = _HEADER.unpack_from(data, offset)
            start = offset + _HEADER.size
            end = start + length
            if length == 0 or end > len(data):
                break  # torn tail: header-only write / incomplete frame
            payload = data[start:end]
            if zlib.crc32(payload) != checksum:
                break  # torn tail: corrupt frame
            try:
                record = decode_record(payload)
            except CodecError as exc:
                raise type(exc)(
                    f"{self.path}: the frame at offset {offset} passes its "
                    f"checksum but does not decode ({exc}); refusing to "
                    "open rather than truncate the records behind it"
                ) from None
            records.append(record)
            offsets.append(offset)
            offset = end
        self._stable = records
        self._offsets = offsets
        self._end = offset
        if offset < len(data):
            self._repair_tail()
        if records:
            self._next_lsi = records[-1].lsi + 1
            self._truncated_before = records[0].lsi

    def _repair_tail(self) -> None:
        """Drop whatever follows the last good frame (idempotent)."""
        self._close_fd()
        if os.path.exists(self.path):
            with open(self.path, "r+b") as handle:
                handle.truncate(self._end)
                handle.flush()
                os.fsync(handle.fileno())
        self._tail_suspect = False

    def stable_operations(self) -> List:
        """The operations on the stable log, in order (used to rebuild
        a durable history when opening a database directory)."""
        return [
            record.op
            for record in self._stable
            if isinstance(record, OperationRecord)
        ]

    # ------------------------------------------------------------------
    # durable force path
    # ------------------------------------------------------------------
    def append(self, record: LogRecord) -> StateId:
        # Encode here rather than at force: a value outside the codec's
        # universe must fail the append that carries it, not sit in the
        # buffer failing every later force for every caller.
        with self._lock:
            record.lsi = self._next_lsi
            frame = self._frame(record)
            lsi = super().append(record)
            self._frames[lsi] = frame
            return lsi

    @staticmethod
    def _frame(record: LogRecord) -> bytes:
        payload = encode_record(record)
        return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload

    def _append_bytes(self, data: bytes) -> None:
        """The device touchpoint: append raw bytes and fsync."""
        if self._fd is None:
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
            )
        view = memoryview(data)
        while view:
            view = view[os.write(self._fd, view):]
        os.fsync(self._fd)

    def _close_fd(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __del__(self) -> None:
        # Safety net for logs dropped without close() (harnesses build
        # one per run): a raw descriptor is not reclaimed by the GC.
        self._close_fd()

    def _write_stable(self, pending: List[LogRecord]) -> None:
        # File first, memory second: a transient failure before any
        # bytes land leaves both sides untouched, so the base class's
        # bounded retry can safely re-drive the whole append.  The
        # write + fsync run under the force mutex only; ``_lock`` is
        # taken for the publish, so appends land during the fsync.
        # Adopted (shipped) records bypass append and are framed here.
        frames = [
            self._frames.get(record.lsi) or self._frame(record)
            for record in pending
        ]
        if frames:
            if self._tail_suspect:
                self._repair_tail()
            try:
                self._append_bytes(b"".join(frames))
            except OSError:
                # O_APPEND: whatever landed before the error stays in
                # the file, ahead of the next append and unknown to
                # ``_offsets``.  Cut it back now; if even that fails,
                # the flag makes the next force do it first.
                self._tail_suspect = True
                try:
                    self._repair_tail()
                except OSError:
                    pass
                raise
        with self._lock:
            for record, frame in zip(pending, frames):
                self._offsets.append(self._end)
                self._end += len(frame)
                self._frames.pop(record.lsi, None)
            super()._write_stable(pending)

    def close(self) -> None:
        """Release the append descriptor.

        The log stays usable: the next force reopens the file.
        """
        with self._force_mutex:
            self._close_fd()

    # ------------------------------------------------------------------
    # truncation
    # ------------------------------------------------------------------
    def truncate_before(self, lsi: StateId, redo_start: StateId) -> int:
        with self._force_mutex, self._lock:
            dropped = super().truncate_before(lsi, redo_start)
            if dropped:
                del self._offsets[:dropped]
                self._rewrite()
            return dropped

    def _rewrite(self) -> None:
        """Replace the file with its retained byte suffix, atomically."""
        base = self._offsets[0] if self._offsets else self._end
        with open(self.path, "rb") as source:
            source.seek(base)
            retained = source.read(self._end - base)
        write_file_durably(self.path, retained)
        # The held descriptor names the replaced inode.
        self._close_fd()
        self._offsets = [offset - base for offset in self._offsets]
        self._end -= base
        self._tail_suspect = False  # only [base, _end) was carried over

    def crash(self) -> None:
        with self._force_mutex, self._lock:
            super().crash()
            self._frames.clear()
