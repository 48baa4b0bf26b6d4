"""Tests for the recovery manager (repro.core.recovery): analysis pass,
redo pass, trial execution with voiding, flush-transaction repair."""

import pytest

from repro.core.functions import default_registry
from repro.core.operation import Operation, OpKind
from repro.core.recovery import RecoveryManager
from repro.core.redo import GeneralizedRedoTest, VsiRedoTest
from repro.storage import IOStats, StableStore
from repro.storage.stable_store import StoredVersion
from repro.wal.log_manager import LogManager
from repro.wal.records import (
    CheckpointRecord,
    FlushRecord,
    InstallationRecord,
)


def _physical(obj, data):
    return Operation(
        f"wp({obj})",
        OpKind.PHYSICAL,
        reads=set(),
        writes={obj},
        payload={obj: data},
    )


def _copy(src, dst):
    return Operation(
        f"cp({src},{dst})",
        OpKind.LOGICAL,
        reads={src},
        writes={dst},
        fn="copy",
        params=(src, dst),
    )


def _manager(log, store, test=None):
    return RecoveryManager(
        log, store, default_registry(), test or GeneralizedRedoTest(), IOStats()
    )


class TestAnalysisPass:
    def test_empty_log(self):
        log, store = LogManager(), StableStore()
        outcome = _manager(log, store).run()
        assert outcome.report.ops_redone == 0
        assert outcome.volatile == {}

    def test_operation_records_dirty_objects(self):
        log, store = LogManager(), StableStore()
        op = _physical("x", b"v")
        log.append_operation(op)
        log.force()
        outcome = _manager(log, store).run()
        assert outcome.dirty.rsi_of("x") == op.lsi
        assert outcome.report.ops_redone == 1
        assert outcome.volatile["x"] == (b"v", op.lsi)

    def test_checkpoint_seeds_dirty_table(self):
        log, store = LogManager(), StableStore()
        op = _physical("x", b"v")
        log.append_operation(op)
        log.append(CheckpointRecord({"x": op.lsi}))
        log.force()
        outcome = _manager(log, store).run()
        assert outcome.report.checkpoint_lsi > 0
        assert outcome.report.ops_redone == 1

    def test_flush_record_cleans_object(self):
        log, store = LogManager(), StableStore()
        op = _physical("x", b"v")
        log.append_operation(op)
        store.write("x", b"v", op.lsi)  # the flush that was logged
        log.append(FlushRecord("x", op.lsi))
        log.force()
        outcome = _manager(log, store).run()
        assert not outcome.dirty.is_dirty("x")
        assert outcome.report.ops_redone == 0

    def test_installation_record_advances_rsi(self):
        log, store = LogManager(), StableStore()
        first = _physical("x", b"old")
        blind = _physical("x", b"new")
        log.append_operation(first)
        log.append_operation(blind)
        # first was installed without flushing x (rSI -> blind's lSI).
        log.append(
            InstallationRecord(
                flushed={}, unexposed={"x": blind.lsi},
                installed_lsis=(first.lsi,),
            )
        )
        log.force()
        outcome = _manager(log, store).run()
        # Only the blind write is redone; 'first' is bypassed without
        # even being scanned: the advanced rSI moved the redo scan
        # start point past its record.
        assert outcome.report.ops_redone == 1
        assert outcome.report.redo_start_lsi == blind.lsi
        assert outcome.report.ops_considered == 1
        assert outcome.volatile["x"] == (b"new", blind.lsi)

    def test_installation_record_with_none_removes(self):
        log, store = LogManager(), StableStore()
        op = _physical("x", b"v")
        log.append_operation(op)
        store.write("x", b"v", op.lsi)
        log.append(
            InstallationRecord(
                flushed={"x": None}, unexposed={}, installed_lsis=(op.lsi,)
            )
        )
        log.force()
        outcome = _manager(log, store).run()
        assert outcome.report.ops_redone == 0


class TestFlushTxnRepair:
    def test_committed_txn_reapplied(self):
        log, store = LogManager(), StableStore()
        # A flush transaction committed but its in-place writes were
        # torn: only 'a' landed.
        log.append_flush_transaction(
            {
                "a": StoredVersion(b"A", 5),
                "b": StoredVersion(b"B", 6),
            }
        )
        log.force()
        store.write("a", b"A", 5)  # 'b' never made it
        outcome = _manager(log, store).run()
        assert outcome.report.flush_txns_reapplied == 1
        assert store.peek("b").value == b"B"

    def test_uncommitted_txn_ignored(self):
        from repro.wal.records import FlushTxnValuesRecord

        log, store = LogManager(), StableStore()
        log.append(FlushTxnValuesRecord(1, {"a": (b"A", 5)}))
        # no commit record
        log.force()
        outcome = _manager(log, store).run()
        assert outcome.report.flush_txns_reapplied == 0
        assert not store.contains("a")


class TestRedoPass:
    def test_repeat_history_order(self):
        log, store = LogManager(), StableStore()
        init = _physical("x", b"data")
        cp = _copy("x", "y")
        blind = _physical("x", b"data2")
        for op in (init, cp, blind):
            log.append_operation(op)
        log.force()
        outcome = _manager(log, store).run()
        assert outcome.volatile["y"][0] == b"data"  # copied pre-blind value
        assert outcome.volatile["x"][0] == b"data2"
        assert [op.name for op in outcome.redone_ops] == [
            init.name,
            cp.name,
            blind.name,
        ]

    def test_vsi_skip_counts(self):
        log, store = LogManager(), StableStore()
        op = _physical("x", b"v")
        log.append_operation(op)
        log.force()
        store.write("x", b"v", op.lsi)  # already flushed
        outcome = _manager(log, store, VsiRedoTest()).run()
        assert outcome.report.ops_skipped_installed == 1
        assert outcome.report.ops_redone == 0

    def test_stable_operations_include_pre_checkpoint(self):
        """Recovery hands back no list of the logged operations; a
        cold-open verifier asks the log, checkpointed prefix included."""
        log, store = LogManager(), StableStore()
        first = _physical("x", b"1")
        log.append_operation(first)
        log.append(CheckpointRecord({"x": first.lsi}))
        second = _physical("y", b"2")
        log.append_operation(second)
        log.force()
        outcome = _manager(log, store).run()
        assert not hasattr(outcome, "stable_ops")
        assert [op.name for op in log.stable_operations()] == [
            first.name,
            second.name,
        ]


class TestTrialExecutionVoiding:
    def test_exception_voids(self):
        log, store = LogManager(), StableStore()
        registry = default_registry()
        registry.register(
            "explode", lambda reads, o: (_ for _ in ()).throw(ValueError())
        )
        op = Operation(
            "boom",
            OpKind.LOGICAL,
            reads=set(),
            writes={"x"},
            fn="explode",
            params=("x",),
        )
        log.append_operation(op)
        log.force()
        manager = RecoveryManager(
            log, store, registry, GeneralizedRedoTest(), IOStats()
        )
        outcome = manager.run()
        assert outcome.report.ops_voided == 1
        assert "x" not in outcome.volatile

    def test_unknown_function_fails_loudly(self):
        """An unregistered transform is a deployment error, not an
        inapplicable-state symptom — recovery must not void it."""
        from repro.common.errors import UnknownFunctionError

        log, store = LogManager(), StableStore()
        registry = default_registry()
        registry.register("will_vanish", lambda reads, o: {o: b"v"})
        op = Operation(
            "orphan",
            OpKind.LOGICAL,
            reads=set(),
            writes={"x"},
            fn="will_vanish",
            params=("x",),
        )
        log.append_operation(op)
        log.force()
        # Recovery runs with a registry missing the transform.
        manager = RecoveryManager(
            log, store, default_registry(), GeneralizedRedoTest(), IOStats()
        )
        with pytest.raises(UnknownFunctionError):
            manager.run()

    def test_writeset_expansion_voids(self):
        log, store = LogManager(), StableStore()
        registry = default_registry()
        registry.register(
            "sprawl", lambda reads, o: {o: b"v", "other": b"w"}
        )
        op = Operation(
            "sprawl",
            OpKind.LOGICAL,
            reads=set(),
            writes={"x"},
            fn="sprawl",
            params=("x",),
        )
        log.append_operation(op)
        log.force()
        manager = RecoveryManager(
            log, store, registry, GeneralizedRedoTest(), IOStats()
        )
        outcome = manager.run()
        assert outcome.report.ops_voided == 1
        assert outcome.volatile == {}
