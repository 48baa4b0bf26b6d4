"""The persisted ``media_redo_pending`` marker: restartable media
recovery across *cold process restarts*.

The in-memory store already keeps the restore-pending window so a
mid-recovery crash inside one process re-widens (tested by the torture
v2 campaigns).  The file store persists the same marker in the database
directory, so the widening also survives losing the process entirely —
the crash-between-restore-and-restart schedule that an in-memory
attribute cannot cover."""

import os

import pytest

from repro.common.errors import SimulatedCrash
from repro.common.identifiers import NULL_SI
from repro.domains.kvstore import KVPageStore, register_kv_functions
from repro.kernel.supervisor import SupervisorConfig
from repro.persist import FileStableStore, PersistentSystem
from repro.storage.framing import MARKER_NAME as _MARKER_NAME


@pytest.fixture
def dbdir(tmp_path):
    return str(tmp_path / "db")


def _marker_path(dbdir):
    return os.path.join(dbdir, _MARKER_NAME)


class TestMarkerFile:
    def test_round_trip_across_instances(self, dbdir):
        store = FileStableStore(dbdir)
        assert store.media_redo_pending is None
        store.media_redo_pending = 17
        assert os.path.exists(_marker_path(dbdir))
        again = FileStableStore(dbdir)
        assert again.media_redo_pending == 17

    def test_clear_removes_the_file(self, dbdir):
        store = FileStableStore(dbdir)
        store.media_redo_pending = 5
        store.media_redo_pending = None
        assert not os.path.exists(_marker_path(dbdir))
        assert FileStableStore(dbdir).media_redo_pending is None

    def test_rewrite_narrows_in_memory_and_on_disk(self, dbdir):
        store = FileStableStore(dbdir)
        store.media_redo_pending = 9
        store.media_redo_pending = 3
        assert FileStableStore(dbdir).media_redo_pending == 3

    def test_corrupt_marker_widens_maximally(self, dbdir):
        store = FileStableStore(dbdir)
        store.media_redo_pending = 42
        with open(_marker_path(dbdir), "wb") as handle:
            handle.write(b"garbage that is not a frame")
        again = FileStableStore(dbdir)
        # A torn marker still proves a restore was in flight: widen to
        # the whole retained log, the safe direction.
        assert again.media_redo_pending == NULL_SI + 1
        assert again.stats.checksum_failures == 1

    def test_foreign_frame_widens_maximally(self, dbdir):
        from repro.storage.framing import frame as _frame

        store = FileStableStore(dbdir)
        store.media_redo_pending = 42
        with open(_marker_path(dbdir), "wb") as handle:
            handle.write(_frame("not-the-marker-tag", 42))
        assert FileStableStore(dbdir).media_redo_pending == NULL_SI + 1


def _corrupt(path):
    with open(path, "r+b") as handle:
        handle.seek(0, os.SEEK_END)
        size = handle.tell()
        handle.seek(size // 2)
        handle.write(b"\xff\xff\xff\xff")


def _seed_database(dbdir):
    """Build a db where narrow recovery cannot repair 'k': the put is
    durable and *installed*, and a checkpoint summarizes it away."""
    system = PersistentSystem.open(dbdir, domains=[register_kv_functions])
    kv = KVPageStore(system)
    kv.put("k", "precious")
    system.log.force()
    system.flush_all()
    system.checkpoint(truncate=False)
    page_file = None
    objects_dir = os.path.join(dbdir, "objects")
    for name in os.listdir(objects_dir):
        if name.endswith(".obj"):
            page_file = os.path.join(objects_dir, name)
    assert page_file is not None
    return page_file


class TestColdRestartMediaRecovery:
    def _crash_first_recovery(self, dbdir, monkeypatch):
        """Open attempt whose redo pass dies after the scrub widened."""
        from repro.core.recovery import RecoveryManager

        def die(self, media_redo_start=None, lost=()):
            raise SimulatedCrash("process killed mid-media-redo")

        with monkeypatch.context() as patch:
            patch.setattr(RecoveryManager, "run", die)
            with pytest.raises(SimulatedCrash):
                PersistentSystem.open(dbdir, domains=[register_kv_functions])

    def test_marker_survives_process_death_and_drives_rewiden(
        self, dbdir, monkeypatch
    ):
        page_file = _seed_database(dbdir)
        _corrupt(page_file)

        # Attempt 1: the scrub quarantines the page, commits the widened
        # window to the marker, then the process dies inside redo.
        self._crash_first_recovery(dbdir, monkeypatch)
        assert os.path.exists(_marker_path(dbdir))

        # Attempt 2: a *new process* (fresh open).  The marker re-widens
        # the redo scan past the checkpoint and repeats history over the
        # quarantined page.
        system = PersistentSystem.open(dbdir, domains=[register_kv_functions])
        kv = KVPageStore(system)
        assert kv.get("k") == "precious"
        assert not os.path.exists(_marker_path(dbdir))
        assert system.store.media_redo_pending is None

    def test_supervised_open_honours_the_marker(self, dbdir, monkeypatch):
        page_file = _seed_database(dbdir)
        _corrupt(page_file)
        self._crash_first_recovery(dbdir, monkeypatch)
        system = PersistentSystem.open(
            dbdir,
            domains=[register_kv_functions],
            supervisor_config=SupervisorConfig(max_attempts=8),
        )
        assert KVPageStore(system).get("k") == "precious"
        assert not os.path.exists(_marker_path(dbdir))

    def test_without_the_marker_narrow_recovery_loses_the_page(
        self, dbdir, monkeypatch
    ):
        """Control: deleting the marker reproduces the bug the marker
        exists to fix — the restarted recovery scans from the
        checkpoint and never repairs the quarantined page."""
        page_file = _seed_database(dbdir)
        _corrupt(page_file)
        self._crash_first_recovery(dbdir, monkeypatch)
        os.unlink(_marker_path(dbdir))

        system = PersistentSystem.open(dbdir, domains=[register_kv_functions])
        assert KVPageStore(system).get("k") is None
