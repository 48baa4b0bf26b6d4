"""The log-structured stable store: the log *is* the database.

LogBase-style storage (see PAPERS.md): every mutation is **appended** to
a segment file as a CRC-framed record, and an in-memory index maps each
object to the ``(segment, offset, length)`` and vSI of its latest
record.  That index (rebuilt by scanning the segments in id order at
open) is all the store keeps in RAM: a read is one verified ``pread`` of
the indexed frame, so the segments are the only home of a stored value
and damage is found by the read that touches it.

Why this backend exists: the paper's C3 comparison charges the
cache-manager path for *identity writes* and *flush-transaction double
writes* — costs of rewriting objects in place.  Here nothing is, so a
multi-object flush is **one batch frame under one CRC**, atomic by
construction (:class:`~repro.storage.atomic.LogStructuredInstall`: no
shadows, no double writes, no quiesce), and identity writes have no
in-place granule to protect.

The price is **compaction**: superseded records accumulate as dead
bytes, and when the dead ratio crosses a threshold the store copies
every live record forward into a fresh segment — verified frame bytes,
file to file, :data:`COPY_CHUNK` per append — and retires the old
files.  Compaction is crash-safe by segment-id ordering alone:

1. the copy lands in a segment numbered *after* every existing segment,
   so replay order (segments in id order, later records win) is
   unchanged whether or not the old files survive;
2. old segments are unlinked only after the copy is fully fsynced and
   the in-memory index has swung to the new locations — a crash at any
   earlier point leaves the old segments authoritative (the copy's torn
   tail is discarded by the rebuild scan, and duplicate whole records
   are harmless because the copy holds exactly the versions the old
   segments replay to);
3. new appends after compaction go to a segment numbered after the
   copy, so they always win over it.

Each segment is one :class:`~repro.storage.framing.FramedFile` (as is
``wal.log``), which owns descriptors, scan, frame test, tail repair and
cut-back; this module is index, accounting, compaction and damage policy.

Damage handling mirrors :class:`~repro.storage.file_store.FileStableStore`:
a read of a record that fails its frame test raises
:class:`CorruptObjectError`, :meth:`scrub` re-reads every indexed record,
and the persistent ``media_redo_pending`` marker survives cold restarts
mid-media-redo.  One hazard is unique to shared files: damage *inside* a
segment can destroy the newest record of an object whose older record
still parses, silently regressing the rebuilt version.  The rebuild scan
therefore **widens maximally** (``media_redo_pending = NULL_SI + 1``)
whenever it meets a damaged frame, so the next recovery replays the whole
retained log rather than trusting vSI pruning over a regressed version.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.common.errors import CorruptObjectError
from repro.common.identifiers import NULL_SI, ObjectId, StateId
from repro.common.retry import retry_transient
from repro.storage import framing
from repro.storage.framing import DurableMediaMarker, FramedFile, fsync_dir
from repro.storage.stable_store import ABSENT, StableStore, StoredVersion
from repro.storage.stats import IOStats

_SEGMENT_RE = re.compile(r"^seg-(\d{8})\.seg$")

#: Record payload tags (the first element of every record tuple).
_PUT = "put"
_DEL = "del"
_BATCH = "batch"

#: A compaction lands its copy with one append (one fsync) each time
#: this many bytes of whole frames are waiting: a chunk is under this
#: plus one frame, and that is the most of the database it ever holds.
COPY_CHUNK = 256 * 1024
#: Most segments holding a read descriptor at once (evicted LRU-first).
MAX_READ_FDS = 128


def _segment_name(seg_id: int) -> str:
    return f"seg-{seg_id:08d}.seg"


@dataclass
class _Loc:
    """Where an object's record lives, and its vSI: all RAM keeps of it."""

    __slots__ = ("seg_id", "offset", "length", "members", "vsi")

    seg_id: int
    offset: int
    length: int
    #: Objects sharing the frame: 0 for a put record, n for a batch.
    members: int
    vsi: StateId

    @property
    def share(self) -> int:
        """Frame bytes charged to this object as live (1/n of a batch)."""
        return self.length // max(1, self.members)


@dataclass
class _Segment:
    seg_id: int
    #: Only the active segment (and a compaction copy while it is being
    #: written) holds an append descriptor.
    file: FramedFile
    #: Bytes appended so far: accounting only — landing offsets come
    #: from the descriptor, so fault-torn appends cannot skew them.
    size: int = 0


class LogStructuredStableStore(DurableMediaMarker, StableStore):
    """A StableStore that is an append-only log under ``root/segments``
    (``root`` is shared with the WAL and marker files).

    The active segment rolls once past ``segment_bytes``.  With
    ``auto_compact`` every mutating call checks the threshold — at least
    ``compact_min_bytes`` in all (tiny stores churn), ``compact_ratio``
    of them dead; :meth:`compact` can always be invoked explicitly.
    """

    def __init__(
        self,
        root: str,
        stats: Optional[IOStats] = None,
        *,
        segment_bytes: int = 64 * 1024,
        compact_ratio: float = 0.5,
        compact_min_bytes: int = 32 * 1024,
        auto_compact: bool = True,
    ) -> None:
        # Not ``StableStore.__init__``: that builds the in-memory device.
        self.stats = stats if stats is not None else IOStats()
        self.root = root
        self.segment_bytes = segment_bytes
        self.compact_ratio = compact_ratio
        self.compact_min_bytes = compact_min_bytes
        self.auto_compact = auto_compact
        self._dir = os.path.join(root, "segments")
        os.makedirs(self._dir, exist_ok=True)
        self._index: Dict[ObjectId, _Loc] = {}
        self._segments: Dict[int, _Segment] = {}
        #: Running sums: bytes across all segments, and the bytes of
        #: them owned by an indexed record.
        self._total = 0
        self._live = 0
        #: Segments holding a read descriptor, least recently read first.
        self._readers: Dict[int, FramedFile] = {}
        self._next_id = 1
        self._active: Optional[_Segment] = None
        self._compacting = False
        #: Test hook: called at compaction stages ("copied", "indexed",
        #: "retired"); a crash-injection harness raises from here.
        self.compaction_hook: Callable[[str], None] = lambda stage: None
        self._init_marker(root)
        if self._rebuild():
            # A damaged frame may have been some object's newest record:
            # widen maximally (see the module docstring).
            self.media_redo_pending = NULL_SI + 1

    # ------------------------------------------------------------------
    # rebuild: scan segments in id order, later records win
    # ------------------------------------------------------------------
    def _rebuild(self) -> bool:
        damaged = False
        ids = sorted(
            int(match.group(1))
            for match in map(_SEGMENT_RE.match, os.listdir(self._dir))
            if match
        )
        for position, seg_id in enumerate(ids):
            last = position == len(ids) - 1
            damaged |= self._scan_segment(seg_id, repair_tail=last)
        self._next_id = (ids[-1] + 1) if ids else 1
        if ids:
            active = self._segments.get(ids[-1])
            if active is not None and active.size < self.segment_bytes:
                self._active = active
        return damaged

    def _new_segment(self, seg_id: int) -> _Segment:
        path = os.path.join(self._dir, _segment_name(seg_id))
        segment = _Segment(seg_id, FramedFile(path, framing.MAGIC))
        self._segments[seg_id] = segment
        return segment

    def _resize(self, segment: _Segment, size: int) -> None:
        self._total += size - segment.size
        segment.size = size

    def _drop_segment(self, segment: _Segment) -> None:
        """Forget one segment, release its descriptors and unlink it
        (the caller fsyncs the directory, once per batch)."""
        self._segments.pop(segment.seg_id, None)
        self._readers.pop(segment.seg_id, None)
        self._resize(segment, 0)
        segment.file.remove()

    def _scan_segment(self, seg_id: int, repair_tail: bool) -> bool:
        """Replay one segment into the index; return True on damage.

        A bad frame at the very tail of the *last* segment is the
        ordinary crash-mid-append case and is truncated away (like the
        WAL's torn-tail repair).  A bad frame anywhere else is real
        damage — the scan resynchronized at the next magic and kept
        going — and so is one that passes its checksum but does not
        decode.  A frame is decoded for its ids and vSIs; no value stays.
        """
        segment = self._new_segment(seg_id)
        undecodable = 0
        for offset, payload in segment.file.scan():
            try:
                record, vsi = framing.decode_payload(payload, "segment record")
            except CorruptObjectError:
                undecodable += 1
                continue
            if not isinstance(record, tuple) or not record:
                continue  # foreign record: ignore (forward compatibility)
            length = framing.OVERHEAD + len(payload)
            if record[0] == _PUT:
                self._index_frame(seg_id, offset, length, [(record[1], vsi)])
            elif record[0] == _DEL:
                self._drop_index(record[1])
            elif record[0] == _BATCH:
                members = [(obj, item_vsi) for obj, _, item_vsi in record[1]]
                self._index_frame(seg_id, offset, length, members, batch=True)
        if segment.file.torn and repair_tail:
            segment.file.repair()  # appends resume at a clean boundary
        self._resize(segment, segment.file.end)
        damage = segment.file.damage + undecodable
        self.stats.checksum_failures += damage
        return damage > 0

    # ------------------------------------------------------------------
    # index / live-byte accounting
    # ------------------------------------------------------------------
    def _index_frame(
        self, seg_id: int, offset: int, length: int,
        members: List[Tuple[ObjectId, StateId]], batch: bool = False,
    ) -> None:
        """Point ``members`` (``(object, vSI)`` pairs) at one frame."""
        sharing = len(members) if batch else 0
        for obj, vsi in members:
            self._drop_index(obj)
            loc = _Loc(seg_id, offset, length, sharing, vsi)
            self._index[obj] = loc
            self._live += loc.share

    def _drop_index(self, obj: ObjectId) -> None:
        old = self._index.pop(obj, None)
        if old is not None:
            self._live -= old.share

    def dead_ratio(self) -> float:
        """Fraction of segment bytes not owned by a live record."""
        return 1.0 - self._live / self._total if self._total else 0.0

    def total_bytes(self) -> int:
        """Bytes across all segment files (live + dead)."""
        return self._total

    def segment_count(self) -> int:
        return len(self._segments)

    def footprint(self) -> Dict[str, float]:
        return {
            "objects": len(self._index),
            "device_bytes": self._total,
            "dead_ratio": self.dead_ratio(),
            "open_read_fds": len(self._readers),
        }

    # ------------------------------------------------------------------
    # reads: the index answers what it can, the device the rest
    # ------------------------------------------------------------------
    def contains(self, obj: ObjectId) -> bool:
        return obj in self._index

    def vsi_of(self, obj: ObjectId) -> StateId:
        loc = self._index.get(obj)
        return NULL_SI if loc is None else loc.vsi

    def object_ids(self) -> List[ObjectId]:
        return list(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def peek(self, obj: ObjectId) -> StoredVersion:
        loc = self._index.get(obj)
        if loc is None:
            return ABSENT
        try:
            return StoredVersion(self._value(loc, obj), loc.vsi)
        except CorruptObjectError:
            self.stats.checksum_failures += 1
            raise

    def _value(self, loc: _Loc, obj: ObjectId) -> Any:
        """``obj``'s value: its frame read, verified and decoded."""
        record, _ = framing.decode_payload(self._payload(loc), "segment record")
        if record[0] == _PUT:
            return record[2]
        return {member: value for member, value, _vsi in record[1]}[obj]

    def _payload(self, loc: _Loc) -> bytes:
        """The device read: the verified payload of an indexed frame."""
        segment = self._segments.get(loc.seg_id)
        if segment is None:
            raise CorruptObjectError(f"segment {loc.seg_id} is gone")
        readers = self._readers
        readers[loc.seg_id] = readers.pop(loc.seg_id, segment.file)
        if len(readers) > MAX_READ_FDS:
            readers.pop(next(iter(readers))).release_reader()
        return segment.file.read_frame(loc.offset, loc.length)

    # ------------------------------------------------------------------
    # append path
    # ------------------------------------------------------------------
    def _active_segment(self) -> _Segment:
        if self._active is None or self._active.size >= self.segment_bytes:
            if self._active is not None:
                self._active.file.close()  # sealed segments hold none
                self._readers.pop(self._active.seg_id, None)
            self._active = self._new_segment(self._next_id)
            self._next_id += 1
        return self._active

    def _append_frame(self, segment: _Segment, frame: bytes, what: str) -> int:
        """Durably append whole frames; return where they landed."""
        offset = retry_transient(
            lambda: self._append_device(segment.file, frame),
            stats=self.stats,
            what=what,
        )
        self._resize(segment, offset + len(frame))
        return offset

    def _append_device(self, file: FramedFile, data: bytes) -> int:
        """The device touchpoint (overridden by the fault-injecting
        subclass): append raw bytes; return where they landed."""
        return file.append(data)

    def _append_record(
        self, payload: Any, vsi: StateId,
        members: List[Tuple[ObjectId, StateId]] = (),
    ) -> None:
        """Durably append one record to the active segment, then point
        ``members`` at it: the index never claims what did not land."""
        frame = framing.frame(payload, vsi)
        segment = self._active_segment()
        offset = self._append_frame(segment, frame, "append segment record")
        self._index_frame(
            segment.seg_id, offset, len(frame), members, payload[0] == _BATCH
        )

    def _put(self, obj: ObjectId, version: StoredVersion) -> None:
        self._append_record(
            (_PUT, obj, version.value), version.vsi, [(obj, version.vsi)]
        )

    def _drop(self, obj: ObjectId) -> None:
        if obj in self._index:
            self._append_record((_DEL, obj), NULL_SI)
            self._drop_index(obj)

    # ------------------------------------------------------------------
    # StableStore writes
    # ------------------------------------------------------------------
    def write(self, obj: ObjectId, value: Any, vsi: StateId) -> None:
        super().write(obj, value, vsi)
        self._maybe_compact()

    def write_many(
        self,
        versions: Mapping[ObjectId, StoredVersion],
        atomic: bool,
        count: bool = True,
    ) -> None:
        if not atomic:
            # One record per object as it is written: a crash injected
            # between writes tears the set for real.
            super().write_many(versions, atomic, count)
        else:
            # One batch frame under one CRC: the whole set becomes
            # readable exactly when the frame verifies.
            if count:
                self.stats.object_writes += len(versions)
            items = [(o, v.value, v.vsi) for o, v in versions.items()]
            self._append_record(
                (_BATCH, items), NULL_SI, [(o, v) for o, _, v in items]
            )
        self._maybe_compact()

    def delete(self, obj: ObjectId) -> None:
        self._drop(obj)
        self._maybe_compact()

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def _maybe_compact(self) -> None:
        if (
            self.auto_compact
            and not self._compacting
            and self._total >= self.compact_min_bytes
            and self.dead_ratio() >= self.compact_ratio
        ):
            self.compact()

    def compact(self) -> int:
        """Copy every live record forward; retire all older segments.

        Returns the number of versions copied.  Crash-safe at every
        point (the module docstring's id-ordering argument).  A live
        record that fails its frame test aborts it with
        :class:`CorruptObjectError`: old segments stay, the copy goes.
        """
        if self._compacting or not self._segments:
            return 0
        self._compacting = True
        try:
            return self._copy_forward()
        finally:
            self._compacting = False

    def _copy_forward(self) -> int:
        old_segments = list(self._segments.values())
        # The copy sorts after every existing segment, and the next
        # active segment after the copy: later appends win over it.
        copy_seg = self._new_segment(self._next_id)
        self._next_id += 1
        self._active = None  # next append allocates a fresh segment
        new_locs: Dict[ObjectId, _Loc] = {}
        chunk = bytearray()  # whole frames awaiting one append
        members: List[Tuple[ObjectId, int, StateId]] = []

        def land() -> None:
            # One append — one fault point, one fsync — per chunk; the
            # frames' offsets run on from where the chunk landed.
            offset = self._append_frame(copy_seg, chunk, "compaction copy")
            for obj, length, vsi in members:
                new_locs[obj] = _Loc(copy_seg.seg_id, offset, length, 0, vsi)
                offset += length
            self.stats.compaction_copies += len(members)
            chunk.clear()
            members.clear()

        try:
            # In device order: the copy reads each old segment forward.
            for obj, loc in sorted(
                self._index.items(), key=lambda at: (at[1].seg_id, at[1].offset)
            ):
                if loc.members:  # a batch member leaves as its own put
                    frame = framing.frame(
                        (_PUT, obj, self._value(loc, obj)), loc.vsi
                    )
                else:  # a put record leaves as the bytes it is
                    frame = framing.pack_frame(
                        self._payload(loc), framing.MAGIC
                    )
                chunk += frame
                members.append((obj, len(frame), loc.vsi))
                if len(chunk) >= COPY_CHUNK:
                    land()
            if members:
                land()
        except CorruptObjectError:
            self.stats.checksum_failures += 1
            self._drop_segment(copy_seg)
            raise
        copy_seg.file.close()
        if not new_locs:
            # Nothing live (so the copy was never created on disk).
            self._drop_segment(copy_seg)
        self.compaction_hook("copied")
        # Index swap: reads now go to the copy.  The old segments are
        # dead but on disk, so a crash before retirement replays alike.
        self._index.update(new_locs)
        self._live = copy_seg.size
        self.compaction_hook("indexed")
        for segment in old_segments:
            self._drop_segment(segment)
        fsync_dir(self._dir)
        self.stats.bump("compactions")
        self.compaction_hook("retired")
        return len(new_locs)

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def scrub(self) -> List[ObjectId]:
        """Re-read every indexed record from the device; report failures
        (a batch frame is verified once, for every object sharing it)."""
        bad: List[ObjectId] = []
        frame_ok: Dict[Tuple[int, int], bool] = {}
        for obj in sorted(self._index):
            loc = self._index[obj]
            key = (loc.seg_id, loc.offset)
            if key not in frame_ok:
                try:
                    self._value(loc, obj)
                    frame_ok[key] = True
                except CorruptObjectError:
                    frame_ok[key] = False
            if not frame_ok[key]:
                self.stats.checksum_failures += 1
                bad.append(obj)
        return bad

    def quarantine(self, obj: ObjectId) -> None:
        # The record stays in its segment as dead bytes; dropping the
        # index entry is what takes it out of service.
        self._drop_index(obj)

    def restore_versions(
        self, versions: Mapping[ObjectId, StoredVersion]
    ) -> None:
        """Media-recovery restore: replace the whole log."""
        for segment in list(self._segments.values()):
            self._drop_segment(segment)
        fsync_dir(self._dir)
        self._index = {}
        self._live = 0
        self._active = None
        for obj in sorted(versions):
            self._put(obj, versions[obj])

    def close(self) -> None:
        """Release every held segment descriptor (idempotent); the
        next append or read reopens its segment."""
        for segment in self._segments.values():
            segment.file.close()
        self._readers.clear()
