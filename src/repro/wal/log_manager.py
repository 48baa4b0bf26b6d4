"""The log manager: volatile buffer + stable log with WAL enforcement.

LSNs (our lSIs) are assigned when a record enters the volatile buffer;
records move to the stable log in order when the buffer is *forced*.
A crash discards the buffer — operations whose records never reached
the stable log simply never happened, which is why the stable log is
always a prefix of the submitted record sequence (the "conflict graph
prefix" that PurgeCache writes).

Truncation discards a stable-log prefix after a checkpoint; the manager
refuses to truncate past the caller-supplied redo start point so that
every uninstalled operation (and the backup start point, for media
recovery) stays on the log.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.common.codec import CodecError
from repro.common.errors import LogTruncationError, WALViolationError
from repro.common.identifiers import NULL_SI, ObjectId, StateId
from repro.common.retry import retry_transient
from repro.obs.metrics import COUNT_BUCKETS, NULL_OBS
from repro.core.operation import Operation
from repro.storage.framing import pack_frame
from repro.storage.stable_store import StoredVersion
from repro.storage.stats import IOStats
from repro.wal.codec import encode_record, unpack_shipped
from repro.wal.records import (
    FlushTxnCommitRecord,
    FlushTxnValuesRecord,
    LogRecord,
    OperationRecord,
)


def _first_index(records: List[LogRecord], lsi: StateId) -> int:
    """Index of the first record with lSI >= ``lsi`` in an lSI-ascending
    (possibly gapped) list; ``len(records)`` when there is none."""
    lo, hi = 0, len(records)
    while lo < hi:
        mid = (lo + hi) // 2
        if records[mid].lsi < lsi:
            lo = mid + 1
        else:
            hi = mid
    return lo


class LogManager:
    """Append-ordered log with a volatile buffer and a stable tail."""

    def __init__(self, stats: Optional[IOStats] = None) -> None:
        self.stats = stats if stats is not None else IOStats()
        self._buffer: List[LogRecord] = []
        self._next_lsi: StateId = NULL_SI + 1
        self._truncated_before: StateId = NULL_SI + 1
        self._next_txn_id = 1
        self._protections: Dict[int, StateId] = {}
        self._next_protection_token = 1
        #: Observability hook (null object by default; a system's
        #: MetricsRegistry replaces it via ``attach_metrics``).
        self.obs = NULL_OBS
        #: append timestamps by lSI, kept only while a registry is
        #: attached, to measure the append→stable coalescing latency.
        self._append_times: Dict[StateId, float] = {}
        #: Guards the in-memory state; never held across a device
        #: write, so ``append`` never waits for an fsync.  Reentrant so
        #: append_flush_transaction's two appends stay atomic.
        self._lock = threading.RLock()
        #: Serializes what touches the device or reshapes the stable
        #: log: one forcer at a time snapshots a buffer prefix under
        #: ``_lock``, writes it unlocked, publishes it under ``_lock``.
        #: Always taken *before* ``_lock``.
        self._force_mutex = threading.RLock()
        self._open_device()

    # ------------------------------------------------------------------
    # the stable device
    # ------------------------------------------------------------------
    # Here a list: in this class, and in the fault-injecting and latency
    # logs built on it, the list *is* the device.  A backend with a real
    # one overrides these and the readers below (``stable_records``,
    # ``stable_frames``, ``stable_end_lsi``, ``stable_start_lsi``,
    # ``__len__``).
    def _open_device(self) -> None:
        """Attach the stable device (the last step of construction)."""
        self._stable: List[LogRecord] = []

    def _write_device(self, pending: List[LogRecord]) -> None:
        """Append ``pending`` (a buffer prefix) to the stable log.

        Overridden by the file backend (append + fsync frames first) and
        by the fault-injecting log (which may fail transiently, tear the
        append, or lie about durability); each does its device work
        unlocked and ends by publishing under ``_lock``.  Must either
        complete fully or leave buffer/stable untouched before raising
        a transient error, so a retry is safe.
        """
        with self._lock:
            self._stable.extend(pending)
            del self._buffer[: len(pending)]

    def _buffer_adopted(self, adopted: List[Tuple[LogRecord, bytes]]) -> None:
        """Buffer adopted ``(record, frame)`` pairs (``_lock`` held).
        The list keeps the records; a byte device keeps the frames they
        arrived in, to write them verbatim."""
        self._buffer.extend(record for record, _ in adopted)

    def _drop_before(self, lsi: StateId) -> int:
        """Discard the stable records below ``lsi`` (both locks held);
        returns how many went."""
        dropped = _first_index(self._stable, lsi)
        self._stable = self._stable[dropped:]
        return dropped

    def footprint(self) -> Dict[str, int]:
        """What the log holds, for the ``wal`` metrics collector:
        ``stable_records`` on the device and ``resident_records``, the
        decoded records pinned in RAM — here all of them."""
        return {
            "stable_records": len(self._stable),
            "resident_records": len(self),
        }

    def close(self) -> None:
        """Release what the log holds open (file-backed logs: their
        descriptor).  Idempotent; the log stays usable afterwards."""

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    def append(self, record: LogRecord) -> StateId:
        """Append ``record`` to the volatile buffer, assigning its lSI."""
        with self._lock:
            # Sized first: a value outside the modelled universe raises
            # here, before the record can wedge the buffer.
            size = record.record_size()
            value_bytes = record.value_bytes()
            record.lsi = self._next_lsi
            self._next_lsi += 1
            self._buffer.append(record)
            self.stats.log_records += 1
            self.stats.log_bytes += size
            self.stats.log_value_bytes += value_bytes
            if self.obs.enabled:
                self._append_times[record.lsi] = time.perf_counter()
            return record.lsi

    def append_operation(self, op: Operation) -> StateId:
        """Log an operation; its ``lsi`` field is set as a side effect."""
        record = OperationRecord(op)
        lsi = self.append(record)
        op.lsi = lsi
        return lsi

    def append_flush_transaction(
        self, versions: Mapping[ObjectId, StoredVersion]
    ) -> StateId:
        """Log the values + commit records of one flush transaction."""
        with self._lock:
            txn_id = self._next_txn_id
            self._next_txn_id += 1
            self.append(
                FlushTxnValuesRecord(
                    txn_id,
                    {obj: (v.value, v.vsi) for obj, v in versions.items()},
                )
            )
            return self.append(FlushTxnCommitRecord(txn_id))

    def reserve_lsis_through(self, lsi: StateId) -> None:
        """Never assign lSIs at or below ``lsi`` to future appends.

        A promoted witness calls this with the primary's last announced
        stable end before its first local append: the shipped stream
        had bookkeeping gaps above the witness's own stable end, and a
        new history must not reuse any lSI the old primary ever
        assigned.
        """
        with self._lock:
            self._next_lsi = max(self._next_lsi, lsi + 1)

    def adopt_records(self, frames: bytes) -> int:
        """Durably adopt shipped frames, preserving their origin lSIs.

        A replication witness mirrors the primary's lSI space: shipped
        records keep the lSIs the primary assigned, so the REDO test
        and the watermark handshake mean the same thing on both sides.
        The witness log therefore has *gaps* — the primary's private
        bookkeeping records (installation, flush, checkpoint) describe
        the primary's stable store and are never shipped — which the
        gap-tolerant :meth:`is_stable` / :meth:`stable_records` already
        handle.

        ``frames`` are WAL frames back to back, as the primary's
        :meth:`stable_frames` yields them.  The whole batch is checked
        before any of it lands (:func:`~repro.wal.codec.unpack_shipped`):
        a frame that fails its frame test raises
        :class:`~repro.common.errors.CorruptObjectError`, one that is
        not a shipped record (or holds a value no append could have
        sized) ``CodecError`` — a CRC-valid frame that does not decode
        would make a file-backed log refuse to reopen.
        Records at or below the current stable end are duplicates from
        a re-ship after reconnect and are skipped (adoption is
        idempotent); the remainder must be strictly ascending
        (:class:`WALViolationError` otherwise).  Adoption goes straight
        through the forced path (:meth:`_write_device` via the
        transient-retry wrapper), so a file-backed witness has the
        received bytes on disk before this returns — the receipt ack a
        witness sends upstream is a durability promise.

        Returns the number of records actually adopted.  Refuses to
        interleave with locally appended volatile records: a witness
        never calls :meth:`append` before promotion, and after
        promotion it never adopts.
        """
        # Both locks across the device write: a witness has no appender
        # to keep waiting (it refuses buffered local appends just below).
        with self._force_mutex, self._lock:
            if self._buffer:
                raise WALViolationError(
                    "cannot adopt shipped records into a log with "
                    "buffered local appends"
                )
            floor = max(self.stable_end_lsi(), self._truncated_before - 1)
            fresh: List[Tuple[LogRecord, bytes]] = []
            for record, frame in unpack_shipped(frames):
                if record.lsi <= floor:
                    continue  # duplicate from a reconnect re-ship
                if fresh and record.lsi <= fresh[-1][0].lsi:
                    raise WALViolationError(
                        "shipped records are not in ascending lSI order: "
                        f"{record.lsi} after {fresh[-1][0].lsi}"
                    )
                fresh.append((record, frame))
            if not fresh:
                return 0
            records = [record for record, _ in fresh]
            try:
                # Sized before anything changes, as append sizes first.
                sizes = [(r.record_size(), r.value_bytes()) for r in records]
            except (TypeError, ValueError) as exc:  # e.g. a lone surrogate
                raise CodecError(
                    f"shipped record outside the modelled universe: {exc}"
                ) from None
            self._buffer_adopted(fresh)
            self._next_lsi = max(self._next_lsi, records[-1].lsi + 1)
            for size, value_bytes in sizes:
                self.stats.log_records += 1
                self.stats.log_bytes += size
                self.stats.log_value_bytes += value_bytes
            self._force_pending(records)
            return len(records)

    # ------------------------------------------------------------------
    # forcing (WAL)
    # ------------------------------------------------------------------
    def force(self) -> None:
        """Force the whole volatile buffer to the stable log."""
        with self._force_mutex:
            with self._lock:
                pending = list(self._buffer)
            self._force_pending(pending)

    def force_through(self, lsi: StateId) -> None:
        """Force the buffer prefix up to and including ``lsi``.

        Forcing a prefix (not the whole buffer) matches PurgeCache:
        "write a conflict graph prefix of operations ... to the stable
        log in conflict order (WAL protocol)".
        """
        with self._force_mutex:
            with self._lock:
                if not self._buffer or self._buffer[0].lsi > lsi:
                    return
                # The buffer is lsi-ordered, so the prefix cut is a bisect.
                pending = self._buffer[: _first_index(self._buffer, lsi + 1)]
            self._force_pending(pending)

    def _force_pending(self, pending: List[LogRecord]) -> None:
        """Move ``pending`` (a buffer prefix) to the stable log.

        Called with ``_force_mutex`` held and (adoption aside) ``_lock``
        released: appends keep landing behind the prefix while the
        device touch, :meth:`_write_device`, runs.  A transiently
        failing force (an fsync that returns an error) is retried here
        with a bounded budget rather than escalated — the retry is what
        the paper's "stable log" abstraction quietly assumes.
        """
        if not pending:
            return
        obs = self.obs
        start = time.perf_counter()
        retry_transient(
            lambda: self._write_device(pending),
            stats=self.stats,
            what="log force",
        )
        self.stats.log_forces += 1
        if not obs.enabled:
            return
        done = time.perf_counter()
        obs.observe("wal.force", done - start)
        obs.observe("wal.force_batch_records", len(pending), COUNT_BUCKETS)
        for record in pending:
            appended = self._append_times.pop(record.lsi, None)
            if appended is not None:
                # Coalescing latency: how long the record sat in the
                # volatile buffer before going stable.
                obs.observe("wal.coalesce_wait", done - appended)

    def assert_stable(self, lsi: StateId) -> None:
        """Raise WALViolationError unless ``lsi`` is on the stable log."""
        if lsi == NULL_SI:
            return
        if not self.is_stable(lsi):
            raise WALViolationError(
                f"lSI {lsi} is not on the stable log; flushing its effects "
                "would violate the WAL protocol"
            )

    def is_stable(self, lsi: StateId) -> bool:
        """True when the record with ``lsi`` reached the stable log
        (or was legitimately truncated away)."""
        return lsi < self._truncated_before or self.stable_end_lsi() >= lsi

    # ------------------------------------------------------------------
    # reading (recovery)
    # ------------------------------------------------------------------
    def stable_records(
        self, from_lsi: StateId = NULL_SI
    ) -> Iterator[LogRecord]:
        """Stable records with lSI >= ``from_lsi``, in log order (found
        by bisect: lSIs ascend, with gaps on a witness)."""
        stable = self._stable
        index = _first_index(stable, from_lsi)
        while index < len(stable):
            yield stable[index]
            index += 1

    def stable_frames(
        self, from_lsi: StateId = NULL_SI
    ) -> Iterator[Tuple[StateId, int, bytes]]:
        """``(lSI, type code, frame)`` of each stable record with lSI >=
        ``from_lsi``, the frame as a WAL file holds it: what a
        replicating primary ships.  Here the records are framed from
        the list, which is this log's device."""
        stable = self._stable
        index = _first_index(stable, from_lsi)
        while index < len(stable):
            record = stable[index]
            payload = encode_record(record)  # type code: header byte 1
            yield record.lsi, payload[1], pack_frame(payload)
            index += 1

    def stable_end_lsi(self) -> StateId:
        """lSI of the last stable record (NULL_SI when empty)."""
        return self._stable[-1].lsi if self._stable else NULL_SI

    def stable_start_lsi(self) -> StateId:
        """lSI of the first retained stable record."""
        return self._stable[0].lsi if self._stable else self._truncated_before

    def stable_operations(self) -> List[Operation]:
        """The operations on the stable log, in order (what a verifier
        seeds its history with after a cold open)."""
        return [
            record.op
            for record in self.stable_records()
            if isinstance(record, OperationRecord)
        ]

    def buffered_records(self) -> List[LogRecord]:
        """Records still only in the volatile buffer (lost at crash)."""
        with self._lock:
            return list(self._buffer)

    def buffered_lsis(self) -> List[StateId]:
        """lSIs still only in the volatile buffer (lost at crash)."""
        return [r.lsi for r in self._buffer]

    # ------------------------------------------------------------------
    # truncation and crash
    # ------------------------------------------------------------------
    def add_protection(self, lsi: StateId) -> int:
        """Protect records with lSI >= ``lsi`` from truncation.

        Used by media recovery (a fuzzy backup's redo window must stay
        on the log until the backup is superseded) and by a replicating
        primary (what its witness has not acked).  Returns a token for
        :meth:`remove_protection`.  A caller moving its pin adds the
        new one before removing the old, so a concurrent truncation
        never sees it unpinned.
        """
        with self._lock:
            token = self._next_protection_token
            self._next_protection_token += 1
            self._protections[token] = lsi
            return token

    def remove_protection(self, token: int) -> None:
        """Release a truncation protection."""
        with self._lock:
            self._protections.pop(token, None)

    def min_protected_lsi(self) -> Optional[StateId]:
        """The smallest protected lSI, or None when nothing is protected."""
        with self._lock:
            return min(self._protections.values(), default=None)

    def truncate_before(self, lsi: StateId, redo_start: StateId) -> int:
        """Discard stable records with lSI < ``lsi``.

        ``redo_start`` is the current redo scan start point (minimum rSI
        over dirty objects, or end of log); truncating at or past it
        would lose uninstalled operations, so it is refused.  Active
        protections (backup redo windows) clamp the cut silently — the
        caller asked to reclaim *up to* ``lsi``, and the log reclaims
        what it safely can.  Returns the number of records discarded.
        """
        if lsi > redo_start:
            raise LogTruncationError(
                f"cannot truncate before lSI {lsi}: redo scan start point "
                f"is {redo_start}"
            )
        with self._force_mutex, self._lock:
            protected = self.min_protected_lsi()
            if protected is not None:
                lsi = min(lsi, protected)
            dropped = self._drop_before(lsi)
            self._truncated_before = max(self._truncated_before, lsi)
            return dropped

    def crash(self) -> None:
        """Discard the volatile buffer (the stable log survives, a
        force in flight included: it is waited out)."""
        with self._force_mutex, self._lock:
            self._buffer.clear()
            self._append_times.clear()

    def __len__(self) -> int:
        return len(self._stable) + len(self._buffer)
