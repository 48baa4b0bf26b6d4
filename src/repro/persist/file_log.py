"""File-backed WAL: an append-only record file with torn-tail repair.

Stable records are appended to ``root/wal.log`` as
``[length u32][crc32 u32][payload]`` frames whose payload is the
versioned binary record encoding of :mod:`repro.wal.codec`.  A record
is encoded when it is appended — a value the codec cannot write fails
that one append and never enters the buffer — and ``force`` hands the
buffered frames to the log's one
:class:`~repro.storage.framing.FramedFile`, which owns every byte that
touches the device: the held append descriptor, write + fsync, the
cut-back to the last acknowledged frame when a force fails part-way
(so the recorded frame offsets always describe the file), the open-time
scan with its **torn-tail test** and repair, and truncation's suffix
copy.  A torn tail is a crash mid-force: cutting it off is exactly the
"a crash loses a suffix of unforced records" model the in-memory log
simulates.

What this module keeps is policy.  A frame whose checksum *passes* but
whose payload does not decode is not a torn tail — it was written
whole, by a different format version or a defect — and truncating there
would silently drop the acked records behind it, so the open is refused
and the file left untouched.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.common.codec import CodecError
from repro.common.identifiers import StateId
from repro.storage.framing import FramedFile, pack_frame
from repro.storage.stats import IOStats
from repro.wal.codec import decode_record, encode_record
from repro.wal.log_manager import LogManager
from repro.wal.records import LogRecord, OperationRecord


class FileLogManager(LogManager):
    """A LogManager whose stable tail lives in ``root/wal.log``."""

    def __init__(self, root: str, stats: Optional[IOStats] = None) -> None:
        super().__init__(stats)
        os.makedirs(root, exist_ok=True)
        self.path = os.path.join(root, "wal.log")
        self._file = FramedFile(self.path)
        #: File offset of each stable record's frame (parallel to
        #: ``_stable``).
        self._offsets: List[int] = []
        #: Frames of the buffered records, by lSI, encoded at append.
        self._frames: Dict[StateId, bytes] = {}
        self._load()

    # ------------------------------------------------------------------
    # opening
    # ------------------------------------------------------------------
    def _load(self) -> None:
        for offset, payload in self._file.scan():
            try:
                record = decode_record(payload)
            except CodecError as exc:
                raise type(exc)(
                    f"{self.path}: the frame at offset {offset} passes its "
                    f"checksum but does not decode ({exc}); refusing to "
                    "open rather than truncate the records behind it"
                ) from None
            self._stable.append(record)
            self._offsets.append(offset)
        if self._file.torn:
            self._file.repair()
        if self._stable:
            self._next_lsi = self._stable[-1].lsi + 1
            self._truncated_before = self._stable[0].lsi

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
        return pack_frame(encode_record(record))

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
        offset = self._file.append(b"".join(frames)) if frames else 0
        with self._lock:
            for record, frame in zip(pending, frames):
                self._offsets.append(offset)
                offset += len(frame)
                self._frames.pop(record.lsi, None)
            super()._write_stable(pending)

    def close(self) -> None:
        """Release the append descriptor.

        The log stays usable: the next force reopens the file.
        """
        with self._force_mutex:
            self._file.close()

    # ------------------------------------------------------------------
    # truncation
    # ------------------------------------------------------------------
    def truncate_before(self, lsi: StateId, redo_start: StateId) -> int:
        with self._force_mutex, self._lock:
            dropped = super().truncate_before(lsi, redo_start)
            if dropped:
                # Copy the retained byte suffix; no record is re-encoded.
                del self._offsets[:dropped]
                base = self._offsets[0] if self._offsets else self._file.end
                self._file.drop_prefix(base)
                self._offsets = [offset - base for offset in self._offsets]
            return dropped

    def crash(self) -> None:
        with self._force_mutex, self._lock:
            super().crash()
            self._frames.clear()
