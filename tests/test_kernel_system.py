"""Tests for the RecoverableSystem facade (repro.kernel.system)."""

import pytest

from repro import (
    GeneralizedRedoTest,
    Operation,
    OpKind,
    RecoverableSystem,
    SystemConfig,
    SystemHealth,
    VsiRedoTest,
    verify_recovered,
)
from tests.conftest import logical, physical


class TestLifecycle:
    def test_execute_and_read(self, system):
        system.execute(physical("x", b"v"))
        assert system.read("x") == b"v"
        assert len(system.history) == 1

    def test_crash_blocks_access(self, system):
        system.execute(physical("x", b"v"))
        system.crash()
        with pytest.raises(RuntimeError, match="crashed"):
            system.read("x")
        with pytest.raises(RuntimeError, match="crashed"):
            system.execute(physical("y", b"w"))
        system.recover()
        system.execute(physical("y", b"w"))  # works again

    def test_unstorable_transform_output_fails_the_execute(self, tmp_path):
        """On a database directory too (which keeps no history): the
        operation is refused whole — no record — and the flush that
        used to trip over its value goes through."""
        from repro.common.errors import CacheError
        from repro.persist import PersistentSystem

        system = PersistentSystem.open(str(tmp_path))
        system.registry.register(
            "alien", lambda reads: {"x": {"k": bytearray(b"v")}}
        )
        system.execute(physical("y", b"fine"))
        with pytest.raises(CacheError, match="cannot be stored"):
            system.execute(logical("alien", "alien", set(), {"x"}))
        assert system.history is None and len(system.log) == 1
        assert system.flush_all() == 1
        system.close()
        reopened = PersistentSystem.open(str(tmp_path))
        assert reopened.peek("y") == b"fine" and reopened.peek("x") is None
        reopened.close()

    @pytest.mark.parametrize("backend", ["memory", "file"])
    def test_crashing_twice_is_crashing_once(self, tmp_path, backend):
        from repro.storage.registry import make_log, make_store
        from tests.conftest import listen

        def crashed(times):
            root = str(tmp_path / str(times)) if backend == "file" else None
            system = RecoverableSystem(
                store=make_store(backend, root), log=make_log(backend, root)
            )
            events = listen(system)
            system.execute(physical("x", b"stable"))
            system.log.force()
            system.execute(physical("x", b"lost"))
            system.execute(physical("y", b"lost"))
            lost = [system.crash() for _ in range(times)]
            return system, lost, events

        def ids(ops):
            return [(op.name, op.lsi) for op in ops]

        once, lost_once, events_once = crashed(1)
        twice, lost_twice, events_twice = crashed(2)
        assert [name for name, _ in ids(lost_once[0])] == ["wp(x)", "wp(y)"]
        assert [ids(ops) for ops in lost_twice] == [ids(lost_once[0]), []]
        assert ids(twice.history) == ids(once.history)
        assert twice.health is once.health is SystemHealth.RECOVERING
        assert events_twice == events_once
        assert events_once.of_kind("health.transition") == [
            {"from": "healthy", "to": "recovering"}
        ]
        for system in (once, twice):
            system.recover()
            verify_recovered(system)
            assert system.read("x") == b"stable"

    def test_peek_works_while_crashed(self, system):
        system.execute(physical("x", b"v"))
        system.flush_all()
        system.crash()
        assert system.peek("x") == b"v"


class TestDurability:
    def test_unforced_operations_are_lost(self, system):
        system.execute(physical("x", b"v"))
        lost = system.crash()
        assert len(lost) == 1
        system.recover()
        assert len(system.history) == 0
        assert system.read("x") is None

    def test_forced_operations_survive(self, system):
        op = physical("x", b"v")
        system.execute(op)
        system.log.force()
        lost = system.crash()
        assert lost == []
        system.recover()
        assert system.read("x") == b"v"
        assert list(system.history) == [op]

    def test_flushed_operations_survive_without_force(self, system):
        # flush_all itself forces the needed log prefix (WAL).
        system.execute(physical("x", b"v"))
        system.flush_all()
        system.crash()
        system.recover()
        assert system.read("x") == b"v"


class TestRecoveryCycles:
    def test_work_continues_across_recoveries(self, system):
        system.execute(physical("x", b"1"))
        system.log.force()
        system.crash()
        system.recover()
        system.execute(logical("cp", "copy", {"x"}, {"y"}, ("x", "y")))
        system.flush_all()
        system.crash()
        system.recover()
        verify_recovered(system)
        assert system.read("y") == b"1"

    def test_truncated_history_still_verifies(self, system):
        system.execute(physical("x", b"1"))
        system.flush_all()
        system.checkpoint(truncate=True)
        system.execute(logical("cp", "copy", {"x"}, {"y"}, ("x", "y")))
        system.log.force()
        system.crash()
        system.recover()
        verify_recovered(system)
        assert system.read("y") == b"1"

    def test_last_report_retained(self, system):
        system.execute(physical("x", b"v"))
        system.log.force()
        system.crash()
        report = system.recover()
        assert system.last_report is report
        assert report.ops_redone == 1


class TestConfigs:
    def test_redo_test_configurable(self):
        system = RecoverableSystem(SystemConfig(redo_test=VsiRedoTest()))
        system.execute(physical("x", b"v"))
        system.flush_all()
        system.crash()
        report = system.recover()
        assert report.ops_skipped_installed == 1

    def test_default_is_generalized(self):
        system = RecoverableSystem()
        assert isinstance(system.config.redo_test, GeneralizedRedoTest)


class TestVerifier:
    def test_detects_corruption(self, system):
        system.execute(physical("x", b"good"))
        system.flush_all()
        system.crash()
        system.recover()
        # Corrupt the stable store behind the system's back.
        system.store.write("x", b"evil", 999)
        system.cache.evict("x")
        from repro import VerificationError

        with pytest.raises(VerificationError, match="disagrees"):
            verify_recovered(system)

    def test_deleted_objects_verified_absent(self, system):
        from repro.core.operation import delete_object

        system.execute(physical("x", b"v"))
        system.execute(delete_object("x"))
        system.flush_all()
        system.crash()
        system.recover()
        verify_recovered(system)

    def test_all_cache_configs_roundtrip(self, any_cache_system):
        system = any_cache_system
        system.execute(physical("x", b"hello"))
        system.execute(logical("cp", "copy", {"x"}, {"y"}, ("x", "y")))
        system.execute(physical("x", b"world"))
        system.flush_all()
        system.crash()
        system.recover()
        verify_recovered(system)
        assert system.read("y") == b"hello"
        assert system.read("x") == b"world"


class TestReleasedHistory:
    """A long-lived owner releases the History: the kernel keeps no
    per-operation list, and nothing it decides ever depended on one."""

    def test_crash_returns_exactly_the_unforced_operations(self, system):
        system.release_history()
        kept = physical("x", b"kept")
        system.execute(kept)
        system.log.force()
        lost = [physical("y", b"lost"), physical("x", b"lost too")]
        for op in lost:
            system.execute(op)
        assert system.crash() == lost
        system.recover()
        assert system.history is None
        assert system.read("x") == b"kept" and system.read("y") is None
        assert system.crash() == []

    def test_a_kept_history_loses_the_same_operations(self, system):
        kept, lost = physical("x", b"kept"), physical("y", b"lost")
        system.execute(kept)
        system.log.force()
        system.execute(lost)
        assert system.crash() == [lost]
        assert list(system.history) == [kept]
        system.recover()
        assert list(system.history) == [kept]
        verify_recovered(system)

    def test_media_restore_still_widens_the_redo_scan(self, system):
        """Media mode's dirty table comes out of the analysis scan
        itself: every object written at or after the backup start is
        redone over the restored image, checkpoint or not."""
        from repro.storage import FuzzyBackup

        system.release_history()
        system.execute(physical("x", b"base-x"))
        system.execute(physical("y", b"base-y"))
        system.flush_all()
        backup = FuzzyBackup(start_lsi=system.log.stable_end_lsi() + 1)
        backup.copy_all(system.store)
        backup.finish()
        system.execute(logical("cp", "copy", {"x"}, {"y"}, ("x", "y")))
        system.execute(physical("x", b"new-x"))
        system.flush_all()
        system.checkpoint()  # summarizes everything above as installed
        system.log.force()
        system.crash()
        system.store.media_redo_pending = backup.start_lsi
        report = system.recover(quarantine_backup=backup)
        # From the first operation logged since the backup began, though
        # the later checkpoint's own table is empty.
        assert backup.start_lsi <= report.redo_start_lsi < report.checkpoint_lsi
        assert report.ops_redone == 2
        assert system.read("x") == b"new-x" and system.read("y") == b"base-x"

    def test_verify_recovered_says_why_it_cannot(self, system):
        system.release_history()
        system.execute(physical("x", b"v"))
        system.flush_all()
        system.crash()
        system.recover()
        with pytest.raises(RuntimeError, match="released its History"):
            verify_recovered(system)

    def test_a_cold_open_verifier_asks_the_log(self, tmp_path):
        """A system built for verification over a directory seeds its
        history from the log's operations, as before."""
        from repro.persist import FileLogManager
        from repro.storage import make_store

        def build():
            return RecoverableSystem(
                store=make_store("file", str(tmp_path)),
                log=FileLogManager(str(tmp_path)),
            )

        first = build()
        first.execute(physical("x", b"1"))
        first.execute(logical("cp", "copy", {"x"}, {"y"}, ("x", "y")))
        first.log.force()
        first.close()
        reopened = build()
        reopened.recover()
        assert [op.name for op in reopened.history] == ["wp(x)", "cp"]
        verify_recovered(reopened)
        reopened.close()
