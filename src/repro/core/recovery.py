"""Crash recovery: the analysis and redo passes.

This is the executable form of ``Recover(D, I)`` (Figure 2) in its
practical ARIES-like shape, generalized per Section 5:

1. **Analysis pass** — retrieve the latest checkpoint's dirty object
   table, then scan forward: operation records re-dirty objects
   (rSI = lSI of the first uninstalled writer), installation records
   advance or remove rSIs (for flushed *and* unexposed objects), flush
   records remove objects, and committed flush transactions are
   re-applied to the stable store to repair torn in-place overwrites.
2. **Redo pass** — scan operation records from the minimum rSI,
   submitting each to the configured REDO test; approved operations are
   *trial executed*: an execution that raises, or that attempts to
   update more than the original writeset, is **voided** (Section 5's
   expanded REDO rules b and c).  Redone effects live in a volatile
   recovery cache over the stable store; nothing is flushed here —
   flushing after recovery obeys the same write-graph rules as normal
   execution, which the kernel handles by adopting the redone
   operations into a fresh cache manager.

The pass never resets installed state (the paper's second write-write
strategy); history is only ever repeated forward.

Recovery is **restartable** (the paper's Theorem 2 idempotence, taken
seriously against failing devices): its only stable-state mutations are
the idempotent flush-transaction re-applies, so a crash at *any* point
inside a run — a redo-pass read, a re-apply write — can be answered by
simply calling :meth:`RecoveryManager.run` again from scratch, and the
rerun converges to the same verified state.  Recovery's own I/O is
hardened like the forward paths: reads and re-apply writes retry
transient faults, and a checkpoint whose payload fails its content
checksum is rejected in favour of the previous intact one (or the log
start).  Quarantine and media restore run in the kernel's ``recover()``,
and the escalation beyond retries in :mod:`repro.kernel.supervisor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.common.errors import UnknownFunctionError
from repro.common.retry import retry_transient
from repro.common.identifiers import NULL_SI, ObjectId, StateId
from repro.core.functions import FunctionRegistry
from repro.core.operation import Operation, execute_transform
from repro.core.redo import RedoDecision, RedoTest, VsiRedoTest
from repro.core.state_identifiers import DirtyObjectTable
from repro.storage.stable_store import StableStore
from repro.storage.stats import IOStats
from repro.wal.log_manager import LogManager
from repro.wal.records import (
    CheckpointRecord,
    FlushRecord,
    FlushTxnCommitRecord,
    FlushTxnValuesRecord,
    InstallationRecord,
    OperationRecord,
)


@dataclass
class RecoveryReport:
    """Counters describing one recovery run."""

    checkpoint_lsi: StateId = NULL_SI
    analysis_records: int = 0
    redo_start_lsi: StateId = NULL_SI
    records_scanned: int = 0
    ops_considered: int = 0
    ops_redone: int = 0
    ops_skipped_installed: int = 0
    ops_skipped_unexposed: int = 0
    ops_voided: int = 0
    flush_txns_reapplied: int = 0
    #: Checkpoints whose dirty-object table failed its content checksum
    #: and were skipped in favour of an earlier one (or the log start).
    checkpoints_rejected: int = 0

    def skipped(self) -> int:
        """All operations bypassed without re-execution."""
        return self.ops_skipped_installed + self.ops_skipped_unexposed


@dataclass
class RecoveryOutcome:
    """Everything the kernel needs to resume after recovery."""

    report: RecoveryReport
    #: The reconstructed dirty object table (rSIs) after analysis+redo.
    dirty: DirtyObjectTable
    #: Volatile values produced by redo: obj -> (value, vSI).
    volatile: Dict[ObjectId, Tuple[Any, StateId]]
    #: Redone (still uninstalled) operations in log order, as decoded
    #: off the log.  The kernel hands them to ``adopt_recovery``, which
    #: registers each one's footprint; nothing keeps the list, or the
    #: operations, once the outcome is adopted.
    redone_ops: List[Operation] = field(default_factory=list)
    #: Media mode: the objects the redo could not rebuild.
    lost: Set[ObjectId] = field(default_factory=set)


class RecoveryManager:
    """Runs analysis + redo against a stable log and stable store."""

    def __init__(
        self,
        log: LogManager,
        store: StableStore,
        registry: FunctionRegistry,
        redo_test: RedoTest,
        stats: Optional[IOStats] = None,
    ) -> None:
        self.log = log
        self.store = store
        self.registry = registry
        self.redo_test = redo_test
        self.stats = stats if stats is not None else IOStats()

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def run(
        self,
        media_redo_start: Optional[StateId] = None,
        lost: Iterable[ObjectId] = (),
    ) -> RecoveryOutcome:
        """Execute both passes and return the outcome.

        ``media_redo_start`` switches to media-recovery mode: the
        stable store was just replaced by a (fuzzy) backup, or lost
        quarantined versions, so the dirty-object table reconstructed
        by analysis cannot be trusted for skipping.  The redo scan
        instead starts at ``media_redo_start`` and relies on the
        per-object vSI test — the classical media-recovery discipline
        (the full treatment of logical operations over fuzzy backups
        is the companion paper [10]; see DESIGN.md for scope).

        A media redo keeps the ledger of objects it cannot rebuild,
        seeded with ``lost`` and returned on ``RecoveryOutcome.lost``.
        A record reading a lost object, or an input whose held vSI is
        above its lSI, is voided unexecuted; a voided record's writes
        join the ledger and a redone one's leave it; and a record
        skipped as installed adds each write whose vSI is below its lSI.
        """
        report = RecoveryReport()
        dirty = self._analysis_pass(report, media_redo_start)
        ledger = None if media_redo_start is None else set(lost)
        volatile, redone = self._redo_pass(report, dirty, ledger)
        return RecoveryOutcome(
            report=report,
            dirty=dirty,
            volatile=volatile,
            redone_ops=redone,
            lost=ledger or set(),
        )

    # ------------------------------------------------------------------
    # analysis pass
    # ------------------------------------------------------------------
    def _analysis_pass(
        self,
        report: RecoveryReport,
        media_redo_start: Optional[StateId] = None,
    ) -> DirtyObjectTable:
        """One scan of the stable log, restarted in place at every
        intact checkpoint it meets: what it has gathered so far is what
        the checkpoint summarizes, so only the table built since the
        latest one — and the flush transactions committed since — count.

        In media mode the table returned is instead the widened one:
        every object written at or after ``media_redo_start`` is
        potentially stale in the restored image.
        """
        dirty = DirtyObjectTable()
        widened = DirtyObjectTable()
        pending_txn_values: Dict[int, FlushTxnValuesRecord] = {}
        committed: List[FlushTxnValuesRecord] = []
        for record in self.log.stable_records():
            report.analysis_records += 1
            if isinstance(record, OperationRecord):
                stale = (
                    media_redo_start is not None
                    and record.lsi >= media_redo_start
                )
                for obj in record.op.writes:
                    dirty.note_write(obj, record.lsi)
                    if stale:
                        widened.note_write(obj, record.lsi)
            elif isinstance(record, InstallationRecord):
                self._apply_installation(dirty, record)
            elif isinstance(record, FlushRecord):
                dirty.remove(record.obj)
            elif isinstance(record, FlushTxnValuesRecord):
                pending_txn_values[record.txn_id] = record
            elif isinstance(record, FlushTxnCommitRecord):
                values = pending_txn_values.pop(record.txn_id, None)
                if values is not None:
                    committed.append(values)
            elif isinstance(record, CheckpointRecord):
                if not record.is_intact():
                    # Damaged dirty-object table: trusting it could skip
                    # redo work.  Keep what the previous intact
                    # checkpoint (or, if none, the log start) gave us —
                    # strictly more conservative, never less correct.
                    report.checkpoints_rejected += 1
                    continue
                dirty = DirtyObjectTable(record.dirty_objects)
                report.checkpoint_lsi = record.lsi
                report.analysis_records = 1
                pending_txn_values.clear()
                committed.clear()
        # Re-applied only now, in log order: which commits follow the
        # latest checkpoint is known once the scan ends.
        for values in committed:
            self._reapply_flush_txn(values)
            report.flush_txns_reapplied += 1
        return widened if media_redo_start is not None else dirty

    @staticmethod
    def _apply_installation(
        dirty: DirtyObjectTable, record: InstallationRecord
    ) -> None:
        for mapping in (record.flushed, record.unexposed):
            for obj, rsi in mapping.items():
                if rsi is None:
                    dirty.remove(obj)
                else:
                    # Analysis reconstructs, so assignment (not the
                    # monotone advance) is correct here: the record is
                    # authoritative for the moment it was logged.
                    dirty.remove(obj)
                    dirty.note_write(obj, rsi)

    def _reapply_flush_txn(self, values: FlushTxnValuesRecord) -> None:
        """Re-apply a committed flush transaction to the stable store.

        Idempotent: versions already in place are rewritten with the
        same value/vSI.  This repairs in-place overwrites torn by the
        crash (the mechanism's durability story).
        """
        for obj, (value, vsi) in values.versions.items():
            if self.store.vsi_of(obj) < vsi:
                retry_transient(
                    lambda obj=obj, value=value, vsi=vsi: self.store.write(
                        obj, value, vsi
                    ),
                    stats=self.stats,
                    what="flush-txn re-apply",
                )

    # ------------------------------------------------------------------
    # redo pass
    # ------------------------------------------------------------------
    def _redo_pass(
        self,
        report: RecoveryReport,
        dirty: DirtyObjectTable,
        lost: Optional[Set[ObjectId]] = None,
    ) -> Tuple[Dict[ObjectId, Tuple[Any, StateId]], List[Operation]]:
        """``lost``: the media-mode ledger, updated in place."""
        test = self.redo_test if lost is None else VsiRedoTest()
        start = dirty.min_rsi()
        if start is None:
            # Nothing dirty: no redo needed.
            report.redo_start_lsi = self.log.stable_end_lsi() + 1
            return {}, []
        report.redo_start_lsi = start

        volatile: Dict[ObjectId, Tuple[Any, StateId]] = {}
        redone: List[Operation] = []
        probed: set = set()

        def vsi_of(obj: ObjectId) -> StateId:
            if obj in volatile:
                return volatile[obj][1]
            if obj not in probed:
                # The paper: the vSI check comes "at the additional
                # cost of reading a page".  Charge the first probe of
                # each stable object (the store answers from its index).
                probed.add(obj)
                self.stats.object_reads += 1
            return self.store.vsi_of(obj)

        def value_of(obj: ObjectId) -> Any:
            if obj in volatile:
                return volatile[obj][0]
            # One index probe; then, only for an object the store has,
            # one device read (which may find the frame damaged).
            if self.store.contains(obj):
                return retry_transient(
                    lambda obj=obj: self.store.read(obj),
                    stats=self.stats,
                    what="redo-pass read",
                ).value
            return None

        for record in self.log.stable_records(from_lsi=start):
            report.records_scanned += 1
            self.stats.log_records_scanned += 1
            if not isinstance(record, OperationRecord):
                continue
            op = record.op
            report.ops_considered += 1
            decision = test.decide(op, vsi_of, dirty)
            if decision is RedoDecision.SKIP_INSTALLED:
                report.ops_skipped_installed += 1
                self.stats.redo_skipped += 1
                if lost is not None:
                    lost.update(o for o in op.writes if vsi_of(o) < op.lsi)
                continue
            if decision is RedoDecision.SKIP_UNEXPOSED:
                report.ops_skipped_unexposed += 1
                self.stats.redo_skipped += 1
                continue
            if lost is None:
                self._trial_execute(op, value_of, volatile, redone, report)
            elif any(obj in lost or vsi_of(obj) > op.lsi for obj in op.reads):
                # Inapplicable state: an input is lost or past this
                # record, so its redo would compute something else.
                lost.update(op.writes)
                self._void(report)
            elif self._trial_execute(op, value_of, volatile, redone, report):
                lost.difference_update(op.writes)
            else:
                lost.update(op.writes)
        return volatile, redone

    def _void(self, report: RecoveryReport) -> bool:
        report.ops_voided += 1
        self.stats.redo_voided += 1
        return False

    def _trial_execute(
        self,
        op: Operation,
        value_of,
        volatile: Dict[ObjectId, Tuple[Any, StateId]],
        redone: List[Operation],
        report: RecoveryReport,
    ) -> bool:
        """Re-execute ``op`` with the Section 5 voiding rules; True
        when it was redone, False when voided.

        Rule (b): an execution updating more than the original writeset
        is detected and voided.  Rule (c): an execution raising against
        inapplicable state is voided.  In neither case are changes made;
        exposed objects are never damaged.
        """
        reads = {obj: value_of(obj) for obj in op.reads}
        try:
            writes = execute_transform(op, reads, self.registry)
        except UnknownFunctionError:
            # Not an inapplicable-state symptom but a deployment error:
            # the registry lacks a transform the log names.  Voiding it
            # would silently lose the operation's effects; fail loudly.
            raise
        except Exception:
            return self._void(report)
        if set(writes) != set(op.writes):
            return self._void(report)
        for obj, value in writes.items():
            volatile[obj] = (value, op.lsi)
        redone.append(op)
        report.ops_redone += 1
        self.stats.redo_executed += 1
        return True
