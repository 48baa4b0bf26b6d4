"""The log-structured stable store: the log *is* the database.

LogBase-style storage (see PAPERS.md): instead of rewriting objects in
place, every mutation is **appended** to the tail of a segment file as
a CRC-framed record, and an in-memory index maps each object to the
``(segment, offset)`` of its latest record.  Reads are served from the
in-memory version cache (rebuilt, like the index, by scanning the
segments in id order at open); the segments are the durable truth.

Why this backend exists: the paper's C3 comparison charges the
cache-manager path for *identity writes* and *flush-transaction double
writes* — costs that exist only because objects are rewritten in place.
Here nothing is ever written in place, so:

* a multi-object flush is **one batch frame under one CRC** — atomic by
  construction (:class:`~repro.storage.atomic.LogStructuredInstall`),
  no shadows, no double writes, no quiesce;
* identity writes have nothing to dissolve — there is no in-place
  granule to protect.

The price is **compaction**: superseded records accumulate as dead
bytes, and when the dead ratio crosses a threshold the store copies
every live version forward into a fresh segment and retires the old
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

Each segment is one :class:`~repro.storage.framing.FramedFile` — the
mechanism the WAL's ``wal.log`` runs on too — which owns the append
descriptor, the scan and frame test, tail repair and the cut-back after
a failed append; this module is index, accounting, compaction and the
damage policy.

Damage handling mirrors the other durable backend
(:class:`~repro.storage.file_store.FileStableStore`): every record is
CRC-framed, :meth:`scrub` re-reads each indexed record from the device
and reports objects whose frames fail, and the persistent
``media_redo_pending`` marker survives cold restarts mid-media-redo.
One hazard is unique to shared files: damage *inside* a segment can
destroy the newest record of an object whose older record still parses,
silently regressing the rebuilt version.  The rebuild scan therefore
**widens maximally** (``media_redo_pending = NULL_SI + 1``) whenever it
detects any damaged frame, so the next recovery replays the whole
retained log over whatever the scan produced rather than trusting
narrow vSI pruning over a possibly-regressed version.
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
from repro.storage.stable_store import StableStore, StoredVersion
from repro.storage.stats import IOStats

_SEGMENT_RE = re.compile(r"^seg-(\d{8})\.seg$")

#: Record payload tags (the first element of every record tuple).
_PUT = "put"
_DEL = "del"
_BATCH = "batch"


def _segment_name(seg_id: int) -> str:
    return f"seg-{seg_id:08d}.seg"


@dataclass
class _Loc:
    """Where an object's authoritative record lives."""

    seg_id: int
    offset: int
    length: int
    #: Bytes of the frame charged to this object for live-ratio
    #: accounting (the whole frame for a put, a 1/n share for a batch).
    share: int


@dataclass
class _Segment:
    seg_id: int
    #: The segment's bytes.  Only the active segment (and a compaction
    #: copy while it is being written) holds a descriptor.
    file: FramedFile
    #: Bytes appended so far (intended size: accounting only — landing
    #: offsets come from the descriptor, so fault-torn appends cannot
    #: skew them).
    size: int = 0
    #: Bytes belonging to currently-authoritative records.
    live: int = 0


class LogStructuredStableStore(DurableMediaMarker, StableStore):
    """A StableStore that is an append-only log under ``root/segments``.

    Parameters
    ----------
    root:
        Database directory (shared with the WAL and marker files).
    stats:
        Shared I/O ledger.
    segment_bytes:
        Roll the active segment once it grows past this size.
    compact_ratio:
        Trigger compaction when the dead-byte ratio across all segments
        reaches this fraction (0 disables ratio-based triggering only
        if ``auto_compact`` is off).
    compact_min_bytes:
        Never auto-compact below this total size — tiny stores churn.
    auto_compact:
        Check the threshold after every mutating call; :meth:`compact`
        can always be invoked explicitly.
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
        super().__init__(stats)
        self.root = root
        self.segment_bytes = segment_bytes
        self.compact_ratio = compact_ratio
        self.compact_min_bytes = compact_min_bytes
        self.auto_compact = auto_compact
        self._dir = os.path.join(root, "segments")
        os.makedirs(self._dir, exist_ok=True)
        self._index: Dict[ObjectId, _Loc] = {}
        self._segments: Dict[int, _Segment] = {}
        self._next_id = 1
        self._active: Optional[_Segment] = None
        self._compacting = False
        #: Objects quarantined but not yet reported through scrub().
        self._pending_quarantine: Dict[ObjectId, str] = {}
        #: Test hook: called at compaction stages ("copied", "indexed",
        #: "retired"); a crash-injection harness raises from here.
        self.compaction_hook: Optional[Callable[[str], None]] = None
        self._init_marker(root)
        damaged = self._rebuild()
        if damaged:
            # Any damaged frame may have been the newest record of an
            # object whose older record still parsed — the rebuilt
            # version can be silently stale.  Widen maximally so the
            # next recovery replays the whole retained log over it.
            self.media_redo_pending = NULL_SI + 1

    # ------------------------------------------------------------------
    # rebuild: scan segments in id order, later records win
    # ------------------------------------------------------------------
    def _segment_ids_on_disk(self) -> List[int]:
        ids = []
        for name in os.listdir(self._dir):
            match = _SEGMENT_RE.match(name)
            if match:
                ids.append(int(match.group(1)))
        return sorted(ids)

    def _rebuild(self) -> bool:
        damaged = False
        ids = self._segment_ids_on_disk()
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

    def _scan_segment(self, seg_id: int, repair_tail: bool) -> bool:
        """Replay one segment into the index; return True on damage.

        A bad frame at the very tail of the *last* segment is the
        ordinary crash-mid-append case and is truncated away (like the
        WAL's torn-tail repair).  A bad frame anywhere else is real
        damage: the scan resynchronized at the next frame magic and
        kept going, salvaging everything that still parses — and so is
        a frame that passes its checksum but does not decode.
        """
        segment = self._new_segment(seg_id)
        undecodable = 0
        for offset, payload in segment.file.scan():
            try:
                record, vsi = framing.decode_payload(payload, "segment record")
            except CorruptObjectError:
                undecodable += 1
                continue
            self._replay_record(
                seg_id, offset, framing.OVERHEAD + len(payload), record, vsi
            )
        if segment.file.torn and repair_tail:
            # Torn tail: truncate the partial frame away so future
            # appends start at a clean boundary.
            segment.file.repair()
        segment.size = segment.file.end
        damage = segment.file.damage + undecodable
        self.stats.checksum_failures += damage
        return damage > 0

    def _replay_record(
        self,
        seg_id: int,
        offset: int,
        frame_len: int,
        payload: Any,
        vsi: StateId,
    ) -> None:
        if not isinstance(payload, tuple) or not payload:
            return  # foreign record: ignore (forward compatibility)
        tag = payload[0]
        if tag == _PUT:
            _, obj, value = payload
            self._versions[obj] = StoredVersion(value, vsi)
            self._point_index(obj, _Loc(seg_id, offset, frame_len, frame_len))
        elif tag == _DEL:
            obj = payload[1]
            self._versions.pop(obj, None)
            self._drop_index(obj)
        elif tag == _BATCH:
            items = payload[1]
            share = frame_len // max(1, len(items))
            for obj, value, item_vsi in items:
                self._versions[obj] = StoredVersion(value, item_vsi)
                self._point_index(obj, _Loc(seg_id, offset, frame_len, share))

    # ------------------------------------------------------------------
    # index / live-byte accounting
    # ------------------------------------------------------------------
    def _point_index(self, obj: ObjectId, loc: _Loc) -> None:
        self._drop_index(obj)
        self._index[obj] = loc
        segment = self._segments.get(loc.seg_id)
        if segment is not None:
            segment.live += loc.share

    def _drop_index(self, obj: ObjectId) -> None:
        old = self._index.pop(obj, None)
        if old is not None:
            segment = self._segments.get(old.seg_id)
            if segment is not None:
                segment.live -= old.share

    def dead_ratio(self) -> float:
        """Fraction of segment bytes not owned by a live record."""
        total = sum(s.size for s in self._segments.values())
        if total == 0:
            return 0.0
        live = sum(s.live for s in self._segments.values())
        return 1.0 - live / total

    def total_bytes(self) -> int:
        """Bytes across all segment files (live + dead)."""
        return sum(s.size for s in self._segments.values())

    def segment_count(self) -> int:
        return len(self._segments)

    # ------------------------------------------------------------------
    # append path
    # ------------------------------------------------------------------
    def _active_segment(self) -> _Segment:
        if self._active is None or self._active.size >= self.segment_bytes:
            if self._active is not None:
                self._active.file.close()  # sealed segments hold none
            self._active = self._new_segment(self._next_id)
            self._next_id += 1
        return self._active

    def _append_frame(self, segment: _Segment, frame: bytes, what: str) -> int:
        """Durably append one frame to ``segment``; return its offset."""
        offset = retry_transient(
            lambda: self._append_device(segment.file, frame),
            stats=self.stats,
            what=what,
        )
        segment.size = offset + len(frame)
        return offset

    def _append_device(self, file: FramedFile, data: bytes) -> int:
        """The device touchpoint (overridden by the fault-injecting
        subclass): append raw bytes; return where they landed."""
        return file.append(data)

    def _append_payload(self, payload: Any, vsi: StateId) -> Tuple[int, int, int]:
        """Durably append one record; return ``(seg_id, offset, length)``."""
        frame = framing.frame(payload, vsi)
        segment = self._active_segment()
        offset = self._append_frame(segment, frame, "append segment record")
        return segment.seg_id, offset, len(frame)

    def _append_put(self, obj: ObjectId, version: StoredVersion) -> None:
        seg_id, offset, length = self._append_payload(
            (_PUT, obj, version.value), version.vsi
        )
        self._point_index(obj, _Loc(seg_id, offset, length, length))

    def _append_tombstone(self, obj: ObjectId) -> None:
        self._append_payload((_DEL, obj), NULL_SI)
        self._drop_index(obj)

    # ------------------------------------------------------------------
    # StableStore writes
    # ------------------------------------------------------------------
    def write(self, obj: ObjectId, value: Any, vsi: StateId) -> None:
        super().write(obj, value, vsi)
        self._append_put(obj, StoredVersion(value, vsi))
        self._maybe_compact()

    def write_many(
        self,
        versions: Mapping[ObjectId, StoredVersion],
        atomic: bool,
        count: bool = True,
    ) -> None:
        if atomic:
            # One batch frame under one CRC: the whole set becomes
            # readable exactly when the frame verifies — this is the
            # natural atomic install of a log-structured store.
            StableStore.write_many(self, versions, atomic, count)
            items = [
                (obj, version.value, version.vsi)
                for obj, version in versions.items()
            ]
            seg_id, offset, length = self._append_payload(
                (_BATCH, items), NULL_SI
            )
            share = length // max(1, len(items))
            for obj, _, _ in items:
                self._point_index(obj, _Loc(seg_id, offset, length, share))
            self._maybe_compact()
            return
        # Non-atomic: append each record at the moment of its in-memory
        # write, so an injected crash between writes leaves the log and
        # memory torn identically.
        for obj, version in versions.items():
            if self.mid_write_hook is not None:
                self.mid_write_hook(obj)
            if count:
                self.stats.object_writes += 1
            self._versions[obj] = version
            self._append_put(obj, version)
        self._maybe_compact()

    def delete(self, obj: ObjectId) -> None:
        known = obj in self._versions or obj in self._index
        super().delete(obj)
        if known:
            self._append_tombstone(obj)
            self._maybe_compact()

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def _maybe_compact(self) -> None:
        if not self.auto_compact or self._compacting:
            return
        if self.total_bytes() < self.compact_min_bytes:
            return
        if self.dead_ratio() >= self.compact_ratio:
            self.compact()

    def compact(self) -> int:
        """Copy every live version forward; retire all older segments.

        Returns the number of versions copied.  Crash-safe at every
        point — see the module docstring for the id-ordering argument.
        """
        if self._compacting or not self._segments:
            return 0
        self._compacting = True
        try:
            return self._compact_inner()
        finally:
            self._compacting = False

    def _compact_inner(self) -> int:
        old_segments = dict(self._segments)
        # The copy segment sorts after every existing segment; the next
        # active segment sorts after the copy, so appends that follow
        # compaction always win over copied records.
        copy_id = self._next_id
        self._next_id += 1
        copy_seg = self._new_segment(copy_id)
        self._active = None  # next append allocates a fresh segment
        new_locs: Dict[ObjectId, _Loc] = {}
        copied = 0
        for obj in sorted(self._index):
            version = self._versions[obj]
            frame = framing.frame((_PUT, obj, version.value), version.vsi)
            offset = self._append_frame(copy_seg, frame, "compaction copy")
            new_locs[obj] = _Loc(copy_id, offset, len(frame), len(frame))
            copied += 1
            self.stats.compaction_copies += 1
        copy_seg.file.close()
        if copied == 0:
            # Nothing live: every old segment is pure dead weight (and
            # the copy, never appended to, was never created).
            self._segments.pop(copy_id, None)
        self._hook("copied")
        # Index swap: from here on, reads of the device (scrub) go to
        # the copy.  Old segments are now entirely dead — but still on
        # disk, so a crash before retirement replays identically.
        if copied > 0:
            for obj, loc in new_locs.items():
                self._index[obj] = loc
            copy_seg.live = copy_seg.size
        self._hook("indexed")
        for seg_id, segment in old_segments.items():
            self._segments.pop(seg_id, None)
            segment.file.remove()
        fsync_dir(self._dir)
        self.stats.bump("compactions")
        self._hook("retired")
        return copied

    def _hook(self, stage: str) -> None:
        if self.compaction_hook is not None:
            self.compaction_hook(stage)

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def scrub(self) -> List[ObjectId]:
        """Re-read every indexed record from the device; report failures.

        Batch frames are verified once and fail every object that
        shares them.  Includes objects whose damage was discovered at
        rebuild but not yet reported.
        """
        bad = list(self._pending_quarantine)
        frame_ok: Dict[Tuple[int, int], bool] = {}
        for obj in sorted(self._index):
            loc = self._index[obj]
            key = (loc.seg_id, loc.offset)
            ok = frame_ok.get(key)
            if ok is None:
                ok = self._verify_record(loc)
                frame_ok[key] = ok
            if not ok:
                self.stats.checksum_failures += 1
                if obj not in bad:
                    bad.append(obj)
        return bad

    def _verify_record(self, loc: _Loc) -> bool:
        segment = self._segments.get(loc.seg_id)
        if segment is None:
            return False
        try:
            framing.decode_payload(
                segment.file.read_frame(loc.offset, loc.length),
                "segment record",
            )
        except CorruptObjectError:
            return False
        return True

    def quarantine(self, obj: ObjectId) -> None:
        super().quarantine(obj)
        self._pending_quarantine.pop(obj, None)
        # The record stays in its segment as dead bytes; dropping the
        # index entry is what takes it out of service.
        self._drop_index(obj)

    def restore_version(
        self, obj: ObjectId, version: Optional[StoredVersion]
    ) -> None:
        super().restore_version(obj, version)
        if version is None:
            if obj in self._index:
                self._append_tombstone(obj)
        else:
            self._append_put(obj, version)

    def restore_versions(
        self, versions: Mapping[ObjectId, StoredVersion]
    ) -> None:
        """Media-recovery restore: replace the whole log."""
        self.close()
        for seg_id in self._segment_ids_on_disk():
            os.unlink(os.path.join(self._dir, _segment_name(seg_id)))
        fsync_dir(self._dir)
        self._segments = {}
        self._index = {}
        self._active = None
        StableStore.restore_versions(self, versions)
        for obj in sorted(versions):
            self._append_put(obj, versions[obj])

    def close(self) -> None:
        """Release every held segment descriptor (idempotent).

        The store stays usable: the next append reopens its segment.
        """
        for segment in self._segments.values():
            segment.file.close()
