"""File-backed WAL: ``wal.log`` is the stable log, RAM holds an index.

Stable records are appended to ``root/wal.log`` as
``[length u32][crc32 u32][payload]`` frames whose payload is the
versioned binary record encoding of :mod:`repro.wal.codec`.  A record
is encoded when it is appended — a value the codec cannot write fails
that one append and never enters the buffer — or, on a witness, arrives
as the frame the primary's ``wal.log`` holds and is written verbatim
(:meth:`~repro.wal.log_manager.LogManager.adopt_records`); ``force``
hands the buffered frames to the log's one
:class:`~repro.storage.framing.FramedFile`, which owns every byte that
touches the device: the held append descriptor, write + fsync, the
cut-back to the last acknowledged frame when a force fails part-way
(so the recorded frame offsets always describe the file), the scan with
its **torn-tail test** and repair, and truncation's suffix copy.  A
torn tail is a crash mid-force: cutting it off is exactly the "a crash
loses a suffix of unforced records" model the in-memory log simulates.

Once forced, a record lives in the file only.  What stays in memory is
16 bytes of index per stable record — its lSI and its frame's offset, in
two packed arrays — which answers every question about *which* records
are stable; a reader (recovery, replication catch-up, the fence audit)
gets the records themselves by reading frames back from the offset the
index names (DESIGN.md §4a has the reader / force / truncate ordering);
the replication sender gets the frames, undecoded (``stable_frames``).
The one exception is the **open snapshot**: opening decodes every record
once, to refuse a log it cannot read, and those records are served to
readers until the log first changes, so a restart's recovery does not
decode them a second time.

What this module keeps is policy.  A frame whose checksum *passes* but
whose payload does not decode is not a torn tail — it was written
whole, by a different format version or a defect — and truncating there
would silently drop the acked records behind it, so the open is refused
and the file left untouched.
"""

from __future__ import annotations

import os
import time
from array import array
from bisect import bisect_left
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

from repro.common.codec import CodecError
from repro.common.errors import CorruptObjectError
from repro.common.identifiers import NULL_SI, StateId
from repro.storage.framing import FramedFile, pack_frame
from repro.storage.stats import IOStats
from repro.wal.codec import decode_record, encode_record
from repro.wal.log_manager import LogManager
from repro.wal.records import LogRecord

_T = TypeVar("_T")


class FileLogManager(LogManager):
    """A LogManager whose stable log is the file ``root/wal.log``."""

    def __init__(self, root: str, stats: Optional[IOStats] = None) -> None:
        os.makedirs(root, exist_ok=True)
        self.path = os.path.join(root, "wal.log")
        super().__init__(stats)

    # ------------------------------------------------------------------
    # opening
    # ------------------------------------------------------------------
    def _open_device(self) -> None:
        self._file = FramedFile(self.path)
        #: The index: lSI and frame offset of each stable record, in log
        #: order (lSIs ascend, with gaps on a witness).
        self._lsis = array("q")
        self._offsets = array("q")
        #: Frames of the buffered records, by lSI, encoded at append.
        self._frames: Dict[StateId, bytes] = {}
        #: The records decoded by the open, parallel to the index, until
        #: the first force / adoption / truncation drops them.
        self._snapshot: Optional[List[LogRecord]] = []
        #: Bytes this process's forces and adoptions gave ``wal.log``;
        #: truncation never lowers it (``wal.appended_bytes``).
        self.appended_bytes = 0
        for offset, payload in self._file.scan():
            try:
                record = decode_record(payload)
            except CodecError as exc:
                raise type(exc)(
                    f"{self.path}: the frame at offset {offset} passes its "
                    f"checksum but does not decode ({exc}); refusing to "
                    "open rather than truncate the records behind it"
                ) from None
            self._snapshot.append(record)
            self._lsis.append(record.lsi)
            self._offsets.append(offset)
        if self._file.torn:
            self._file.repair()
        if self._lsis:
            self._next_lsi = self._lsis[-1] + 1
            self._truncated_before = self._lsis[0]

    # ------------------------------------------------------------------
    # durable force path
    # ------------------------------------------------------------------
    def append(self, record: LogRecord) -> StateId:
        # Encode here rather than at force: a value outside the codec's
        # universe must fail the append that carries it, not sit in the
        # buffer failing every later force for every caller.
        with self._lock:
            record.lsi = self._next_lsi
            frame = pack_frame(encode_record(record))
            lsi = super().append(record)
            self._frames[lsi] = frame
            return lsi

    def _buffer_adopted(self, adopted: List[Tuple[LogRecord, bytes]]) -> None:
        super()._buffer_adopted(adopted)
        self._frames.update((record.lsi, frame) for record, frame in adopted)

    def _write_device(self, pending: List[LogRecord]) -> None:
        # File first, index second: a transient failure before any
        # bytes land leaves both sides untouched, so the base class's
        # bounded retry can safely re-drive the whole append.  The
        # write + fsync run under the force mutex only; ``_lock`` is
        # taken for the publish, so appends land during the fsync.
        frames = [self._frames[record.lsi] for record in pending]
        data = b"".join(frames)
        offset = self._file.append(data) if frames else 0
        with self._lock:
            self.appended_bytes += len(data)
            self._snapshot = None
            for record, frame in zip(pending, frames):
                self._lsis.append(record.lsi)
                self._offsets.append(offset)
                offset += len(frame)
                self._frames.pop(record.lsi, None)
            del self._buffer[: len(pending)]

    def close(self) -> None:
        """Release the append descriptor.

        The log stays usable: the next force reopens the file.
        """
        with self._force_mutex:
            self._file.close()

    # ------------------------------------------------------------------
    # reading: the index answers which, the file answers what
    # ------------------------------------------------------------------
    def stable_records(
        self, from_lsi: StateId = NULL_SI
    ) -> Iterator[LogRecord]:
        """A device read: the records published at this call, from the
        first with lSI >= ``from_lsi``, decoded one at a time as the
        iterator is drawn."""
        with self._lock:
            first = bisect_left(self._lsis, from_lsi)
            if self._snapshot is not None:
                return iter(self._snapshot[first:])
            return self._read(first, lambda _, payload: decode_record(payload))

    def stable_frames(
        self, from_lsi: StateId = NULL_SI
    ) -> Iterator[Tuple[StateId, int, bytes]]:
        """A device read of the same records as frames, byte for byte as
        ``wal.log`` holds them; nothing is decoded."""
        with self._lock:
            return self._read(
                bisect_left(self._lsis, from_lsi),
                # The type code is the payload header's second byte.
                lambda lsi, payload: (lsi, payload[1], pack_frame(payload)),
            )

    def _read(
        self, first: int, parse: Callable[[StateId, bytes], _T]
    ) -> Iterator[_T]:
        """``parse(lsi, payload)`` of each record published at this call
        from index ``first`` on, read from the frame at the offset the
        index names as the iterator is drawn.

        Called under ``_lock``, so the offset and the inode belong
        together: a force in flight has not published (its bytes lie
        past the last frame this reader will take) and a truncation
        that replaces the file afterwards leaves this reader on the
        inode it opened.
        """
        lsis = self._lsis[first:]
        if not lsis:
            return iter(())
        return self._parsed(
            lsis, FramedFile(self.path).scan(self._offsets[first]), parse
        )

    def _parsed(
        self,
        lsis: array,
        frames: Iterator[Tuple[int, bytes]],
        parse: Callable[[StateId, bytes], _T],
    ) -> Iterator[_T]:
        spent = 0.0  # reading + parsing, not what the caller does between
        try:
            for index, lsi in enumerate(lsis):
                started = time.perf_counter()
                frame = next(frames, None)
                if frame is None:
                    raise CorruptObjectError(
                        f"{self.path}: {len(lsis) - index} records the log "
                        "acknowledged no longer pass the frame test"
                    )
                item = parse(lsi, frame[1])
                spent += time.perf_counter() - started
                yield item
        finally:
            frames.close()
            self.obs.observe("wal.scan", spent)

    def stable_end_lsi(self) -> StateId:
        lsis = self._lsis
        return lsis[-1] if lsis else NULL_SI

    def stable_start_lsi(self) -> StateId:
        lsis = self._lsis
        return lsis[0] if lsis else self._truncated_before

    def __len__(self) -> int:
        return len(self._lsis) + len(self._buffer)

    def footprint(self) -> Dict[str, int]:
        """``stable_bytes`` is the file's now and ``appended_bytes`` all
        it was ever given (truncation lowers the one, never the other);
        RAM holds the buffer (and the open snapshot while it lives), not
        the stable log."""
        snapshot = self._snapshot
        return {
            "stable_records": len(self._lsis),
            "stable_bytes": self._file.end,
            "appended_bytes": self.appended_bytes,
            "resident_records": len(self._buffer) + len(snapshot or ()),
        }

    # ------------------------------------------------------------------
    # truncation
    # ------------------------------------------------------------------
    def _drop_before(self, lsi: StateId) -> int:
        dropped = bisect_left(self._lsis, lsi)
        if dropped:
            # Copy the retained byte suffix; no record is re-encoded.
            # File first: a failed rewrite leaves the index describing
            # the file it still is.
            kept = self._offsets[dropped:]
            base = kept[0] if kept else self._file.end
            self._file.drop_prefix(base)
            self._snapshot = None
            self._lsis = self._lsis[dropped:]
            self._offsets = array("q", (offset - base for offset in kept))
        return dropped

    def crash(self) -> None:
        with self._force_mutex, self._lock:
            super().crash()
            self._frames.clear()
