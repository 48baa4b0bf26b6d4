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
from typing import Dict, Iterator, List, Mapping, Optional

from repro.common.errors import LogTruncationError, WALViolationError
from repro.common.identifiers import NULL_SI, ObjectId, StateId
from repro.common.retry import retry_transient
from repro.obs.metrics import COUNT_BUCKETS, NULL_OBS
from repro.core.operation import Operation
from repro.storage.stable_store import StoredVersion
from repro.storage.stats import IOStats
from repro.wal.records import (
    FlushTxnCommitRecord,
    FlushTxnValuesRecord,
    LogRecord,
    OperationRecord,
)


class LogManager:
    """Append-ordered log with a volatile buffer and a stable tail."""

    def __init__(
        self,
        stats: Optional[IOStats] = None,
        group_commit: bool = False,
    ) -> None:
        self.stats = stats if stats is not None else IOStats()
        #: Group commit: a prefix force that must touch the device
        #: widens to the whole buffer, so adjacent force requests in an
        #: install batch share one stable-log write.  Off by default —
        #: exact prefix semantics are what PurgeCache literally states,
        #: and some tests depend on them.
        self.group_commit = group_commit
        self._stable: List[LogRecord] = []
        self._buffer: List[LogRecord] = []
        self._next_lsi: StateId = NULL_SI + 1
        self._truncated_before: StateId = NULL_SI + 1
        #: Highest lSI any force request has asked for; lets the group
        #: commit path tell "this prefix rode along with an earlier
        #: widened force" (a saved force) apart from "this prefix was
        #: already explicitly forced" (a plain no-op).
        self._requested_high: StateId = NULL_SI
        self._next_txn_id = 1
        self._protections: Dict[int, StateId] = {}
        self._next_protection_token = 1
        #: Observability hook (null object by default; a system's
        #: MetricsRegistry replaces it via ``attach_metrics``).
        self.obs = NULL_OBS
        #: append timestamps by lSI, kept only while a registry is
        #: attached, to measure the append→stable coalescing latency.
        self._append_times: Dict[StateId, float] = {}
        #: Serializes buffer/stable mutation between the caller's thread
        #: and the (optional) group-commit timer thread.  Reentrant so
        #: append_flush_transaction's two appends stay atomic.
        self._lock = threading.RLock()
        self._timer_stop: Optional[threading.Event] = None
        self._timer_thread: Optional[threading.Thread] = None
        #: Forces initiated by the timer (device touches only — an empty
        #: buffer at the tick is a free no-op, not a force).
        self.timer_forces = 0
        #: Timer ticks whose force raised (e.g. a transient budget ran
        #: out); the error is swallowed — the next piggyback force will
        #: surface it on the caller's thread where it can be handled.
        self.timer_force_errors = 0

    # ------------------------------------------------------------------
    # timer-driven group commit
    # ------------------------------------------------------------------
    def start_group_commit_timer(self, interval_s: float) -> None:
        """Force the buffer on a timer as well as on piggyback requests.

        Every ``interval_s`` seconds a daemon thread forces whatever sits
        in the volatile buffer, coalescing forces *across* install
        batches (piggyback group commit only coalesces requests that
        arrive while records already sit buffered).  Idempotent: a second
        call restarts the timer at the new interval.
        """
        if interval_s <= 0:
            raise ValueError(f"interval must be positive, got {interval_s}")
        self.stop_group_commit_timer()
        stop = threading.Event()

        def tick() -> None:
            while not stop.wait(interval_s):
                with self._lock:
                    if stop.is_set() or not self._buffer:
                        continue
                    try:
                        self.force()
                        self.timer_forces += 1
                        self.stats.bump("log_timer_forces")
                    except Exception:
                        self.timer_force_errors += 1
                        self.stats.bump("log_timer_force_errors")

        self._timer_stop = stop
        self._timer_thread = threading.Thread(
            target=tick, name="wal-group-commit", daemon=True
        )
        self._timer_thread.start()

    def stop_group_commit_timer(self) -> None:
        """Cancel the timer and join its thread (safe to call twice).

        The stop flag is re-checked under the log lock inside the tick,
        so once this returns no further timer force can start — a force
        already in flight is waited out by the join.
        """
        stop, thread = self._timer_stop, self._timer_thread
        self._timer_stop = self._timer_thread = None
        if stop is not None:
            stop.set()
        if thread is not None and thread is not threading.current_thread():
            thread.join()

    def close(self) -> None:
        """Release what the log holds open (here: the timer thread).

        Idempotent, and the log stays usable afterwards; file-backed
        logs also release their descriptor.
        """
        self.stop_group_commit_timer()

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

    def adopt_records(self, records: List[LogRecord]) -> int:
        """Durably adopt shipped records, preserving their origin lSIs.

        A replication witness mirrors the primary's lSI space: shipped
        records keep the lSIs the primary assigned, so the REDO test
        and the watermark handshake mean the same thing on both sides.
        The witness log therefore has *gaps* — the primary's private
        bookkeeping records (installation, flush, checkpoint) describe
        the primary's stable store and are never shipped — which the
        gap-tolerant :meth:`is_stable` / :meth:`stable_records` already
        handle.  Records at or below the current stable end are
        duplicates from a re-ship after reconnect and are skipped
        (adoption is idempotent); the remainder must be strictly
        ascending.  Adoption goes straight through the forced path
        (:meth:`_write_stable` via the transient-retry wrapper), so a
        file-backed witness has the records on disk before this
        returns — the receipt ack a witness sends upstream is a
        durability promise.

        Returns the number of records actually adopted.  Refuses to
        interleave with locally appended volatile records: a witness
        never calls :meth:`append` before promotion, and after
        promotion it never adopts.
        """
        with self._lock:
            if self._buffer:
                raise WALViolationError(
                    "cannot adopt shipped records into a log with "
                    "buffered local appends"
                )
            floor = max(self.stable_end_lsi(), self._truncated_before - 1)
            fresh: List[LogRecord] = []
            for record in records:
                if record.lsi <= floor:
                    continue  # duplicate from a reconnect re-ship
                if fresh and record.lsi <= fresh[-1].lsi:
                    raise WALViolationError(
                        "shipped records are not in ascending lSI order: "
                        f"{record.lsi} after {fresh[-1].lsi}"
                    )
                fresh.append(record)
            if not fresh:
                return 0
            self._buffer.extend(fresh)
            self._next_lsi = max(self._next_lsi, fresh[-1].lsi + 1)
            self._requested_high = max(self._requested_high, fresh[-1].lsi)
            for record in fresh:
                self.stats.log_records += 1
                self.stats.log_bytes += record.record_size()
                self.stats.log_value_bytes += record.value_bytes()
            self._force_records(len(fresh))
            return len(fresh)

    # ------------------------------------------------------------------
    # forcing (WAL)
    # ------------------------------------------------------------------
    def force(self) -> None:
        """Force the whole volatile buffer to the stable log."""
        with self._lock:
            if self._buffer:
                self._requested_high = max(
                    self._requested_high, self._buffer[-1].lsi
                )
            self._force_records(len(self._buffer))

    def force_through(self, lsi: StateId) -> None:
        """Force the buffer prefix up to and including ``lsi``.

        Forcing a prefix (not the whole buffer) matches PurgeCache:
        "write a conflict graph prefix of operations ... to the stable
        log in conflict order (WAL protocol)".  With :attr:`group_commit`
        on, a force that must touch the device takes the whole buffer
        with it — the later records were headed for the stable log
        anyway, and riding along costs no extra force; when they are
        next requested the force has already happened and
        ``log_force_saves`` counts it.
        """
        with self._lock:
            if not self._buffer or self._buffer[0].lsi > lsi:
                if (
                    self.group_commit
                    and lsi > self._requested_high
                    and self.is_stable(lsi)
                ):
                    # First request for a prefix that an earlier widened
                    # force already made stable: one device force saved.
                    self.stats.log_force_saves += 1
                    self._requested_high = lsi
                return
            # The buffer is lsi-ordered, so the prefix cut is a bisect.
            lo, hi = 0, len(self._buffer)
            while lo < hi:
                mid = (lo + hi) // 2
                if self._buffer[mid].lsi <= lsi:
                    lo = mid + 1
                else:
                    hi = mid
            self._requested_high = max(self._requested_high, lsi)
            self._force_records(
                len(self._buffer) if self.group_commit else lo
            )

    def _force_records(self, count: int) -> None:
        """Move the first ``count`` buffered records to the stable log.

        The device touch itself is :meth:`_write_stable`, which fault
        models and file backends override; a transiently failing force
        (an fsync that returns an error) is retried here with a bounded
        budget rather than escalated — the retry is what the paper's
        "stable log" abstraction quietly assumes.
        """
        if count <= 0:
            return
        pending = self._buffer[:count]
        obs = self.obs
        if not obs.enabled:
            retry_transient(
                lambda: self._write_stable(pending),
                stats=self.stats,
                what="log force",
            )
            self.stats.log_forces += 1
            return
        start = time.perf_counter()
        retry_transient(
            lambda: self._write_stable(pending),
            stats=self.stats,
            what="log force",
        )
        done = time.perf_counter()
        self.stats.log_forces += 1
        obs.observe("wal.force", done - start)
        obs.observe("wal.force_batch_records", len(pending), COUNT_BUCKETS)
        for record in pending:
            appended = self._append_times.pop(record.lsi, None)
            if appended is not None:
                # Group-commit coalescing latency: how long the record
                # sat in the volatile buffer before going stable.
                obs.observe("wal.coalesce_wait", done - appended)

    def _write_stable(self, pending: List[LogRecord]) -> None:
        """Append ``pending`` (a buffer prefix) to the stable log.

        Overridden by the file backend (append + fsync frames first) and
        by the fault-injecting log (which may fail transiently, tear the
        append, or lie about durability).  Must either complete fully or
        leave buffer/stable untouched before raising a transient error,
        so a retry is safe.
        """
        self._stable.extend(pending)
        del self._buffer[: len(pending)]

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
        if lsi < self._truncated_before:
            return True
        return bool(self._stable) and self._stable[-1].lsi >= lsi

    # ------------------------------------------------------------------
    # reading (recovery)
    # ------------------------------------------------------------------
    def stable_records(
        self, from_lsi: StateId = NULL_SI
    ) -> Iterator[LogRecord]:
        """Stable records with lSI >= ``from_lsi``, in log order."""
        for record in self._stable:
            if record.lsi >= from_lsi:
                yield record

    def stable_end_lsi(self) -> StateId:
        """lSI of the last stable record (NULL_SI when empty)."""
        return self._stable[-1].lsi if self._stable else NULL_SI

    def stable_start_lsi(self) -> StateId:
        """lSI of the first retained stable record."""
        return self._stable[0].lsi if self._stable else self._truncated_before

    def buffered_lsis(self) -> List[StateId]:
        """lSIs still only in the volatile buffer (lost at crash)."""
        return [r.lsi for r in self._buffer]

    # ------------------------------------------------------------------
    # truncation and crash
    # ------------------------------------------------------------------
    def add_protection(self, lsi: StateId) -> int:
        """Protect records with lSI >= ``lsi`` from truncation.

        Used by media recovery: a fuzzy backup's redo window must stay
        on the log until the backup is superseded.  Returns a token for
        :meth:`remove_protection`.
        """
        token = self._next_protection_token
        self._next_protection_token += 1
        self._protections[token] = lsi
        return token

    def remove_protection(self, token: int) -> None:
        """Release a truncation protection."""
        self._protections.pop(token, None)

    def min_protected_lsi(self) -> Optional[StateId]:
        """The smallest protected lSI, or None when nothing is protected."""
        if not self._protections:
            return None
        return min(self._protections.values())

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
        with self._lock:
            protected = self.min_protected_lsi()
            if protected is not None:
                lsi = min(lsi, protected)
            kept = [r for r in self._stable if r.lsi >= lsi]
            dropped = len(self._stable) - len(kept)
            self._stable = kept
            self._truncated_before = max(self._truncated_before, lsi)
            return dropped

    def crash(self) -> None:
        """Discard the volatile buffer (the stable log survives)."""
        with self._lock:
            self._buffer.clear()
            self._append_times.clear()

    def __len__(self) -> int:
        return len(self._stable) + len(self._buffer)
