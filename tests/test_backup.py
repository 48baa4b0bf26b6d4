"""Tests for fuzzy backups and media recovery (repro.storage.backup)."""

import pytest

from repro import RecoverableSystem, verify_recovered
from repro.storage import FuzzyBackup, StableStore
from repro.workloads import (
    LogicalWorkload,
    LogicalWorkloadConfig,
    register_workload_functions,
)
from tests.conftest import logical, physical


class TestBackupMechanics:
    def test_copy_and_restore(self):
        store = StableStore()
        store.write("x", b"v", 3)
        backup = FuzzyBackup(start_lsi=1)
        backup.copy_all(store)
        backup.finish()
        store.write("x", b"newer", 9)
        backup.restore_into(store)
        assert store.peek("x").value == b"v"

    def test_copy_after_finish_rejected(self):
        store = StableStore()
        backup = FuzzyBackup(start_lsi=1)
        backup.finish()
        with pytest.raises(ValueError, match="finished"):
            backup.copy_object(store, "x")

    def test_restore_unfinished_rejected(self):
        backup = FuzzyBackup(start_lsi=1)
        with pytest.raises(ValueError, match="unfinished"):
            backup.restore_into(StableStore())

    def test_missing_objects_skipped(self):
        store = StableStore()
        backup = FuzzyBackup(start_lsi=1)
        backup.copy_object(store, "ghost")
        backup.finish()
        assert len(backup) == 0


class TestMediaRecovery:
    def test_fuzzy_backup_plus_log_suffix_recovers(self):
        """The media-recovery path: a backup taken *while execution
        continues* (so the image mixes object versions, potentially
        violating flush order), restored and repaired by replaying the
        log from the backup-start point."""
        system = RecoverableSystem()
        register_workload_functions(system.registry)

        # Phase 1: establish some flushed state.
        system.execute(physical("x", b"base-x"))
        system.execute(physical("y", b"base-y"))
        system.flush_all()

        backup = FuzzyBackup(start_lsi=system.log.stable_end_lsi() + 1)
        backup.copy_object(system.store, "x")

        # Concurrent execution between the two copies: the fuzz.
        system.execute(
            logical("mix", "wl_combine", {"x", "y"}, {"y"}, ("x", "y"))
        )
        system.execute(physical("x", b"new-x"))
        system.flush_all()

        backup.copy_object(system.store, "y")  # newer than backup's x
        backup.finish()

        # More work after the backup completes.
        system.execute(
            logical("mix2", "wl_combine", {"y", "x"}, {"x"}, ("y", "x"))
        )
        system.flush_all()
        expected = {obj: system.read(obj) for obj in ("x", "y")}

        # Media failure: lose the stable store; with a restore marked
        # pending, recovery restores the backup and runs media-mode redo
        # over the retained log suffix from the backup-start point.
        system.crash()
        system.store.media_redo_pending = backup.start_lsi
        system.recover(quarantine_backup=backup)
        verify_recovered(system)
        assert {obj: system.read(obj) for obj in ("x", "y")} == expected

    def test_truncation_guard_protects_backup_window(self):
        """The log manager refuses truncation past a protected point,
        which media recovery uses to keep the backup's redo window."""
        from repro.common.errors import LogTruncationError

        system = RecoverableSystem()
        system.execute(physical("x", b"v"))
        system.flush_all()
        system.log.force()
        backup_start = 1
        with pytest.raises(LogTruncationError):
            system.log.truncate_before(
                system.log.stable_end_lsi() + 1, redo_start=backup_start
            )
