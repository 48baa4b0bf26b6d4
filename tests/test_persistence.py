"""Tests for real on-disk persistence (repro.persist): reopen cycles,
a genuine process-kill crash, torn WAL tails, and truncation."""

import os
import subprocess
import sys
import textwrap

import pytest

from repro import SystemConfig
from repro.domains import KVPageStore, RecoverableFileSystem
from repro.domains.filesystem import register_filesystem_functions
from repro.domains.kvstore import register_kv_functions
from repro.persist import FileLogManager, FileStableStore, PersistentSystem


@pytest.fixture
def dbdir(tmp_path):
    return str(tmp_path / "db")


def _open(dbdir):
    return PersistentSystem.open(
        dbdir,
        domains=[register_filesystem_functions, register_kv_functions],
    )


class TestFileStableStore:
    def test_roundtrip_across_instances(self, dbdir):
        store = FileStableStore(dbdir)
        store.write("obj:1", b"value", 7)
        again = FileStableStore(dbdir)
        version = again.peek("obj:1")
        assert version.value == b"value"
        assert version.vsi == 7

    def test_delete_removes_file(self, dbdir):
        store = FileStableStore(dbdir)
        store.write("x", b"v", 1)
        store.delete("x")
        assert not FileStableStore(dbdir).contains("x")

    def test_ids_with_special_characters(self, dbdir):
        store = FileStableStore(dbdir)
        weird = "file:dir/sub file:with spaces%and:colons"
        store.write(weird, b"v", 1)
        assert FileStableStore(dbdir).peek(weird).value == b"v"


class TestFileLogManager:
    def test_records_survive_reopen(self, dbdir):
        log = FileLogManager(dbdir)
        from repro.wal.records import CheckpointRecord

        first = log.append(CheckpointRecord({"a": 1}))
        log.force()
        log.append(CheckpointRecord({"b": 2}))  # unforced: must vanish
        again = FileLogManager(dbdir)
        lsis = [record.lsi for record in again.stable_records()]
        assert lsis == [first]
        # New appends continue past the lost lSI.
        new = again.append(CheckpointRecord({}))
        assert new > first

    def test_torn_tail_repaired(self, dbdir):
        log = FileLogManager(dbdir)
        from repro.wal.records import CheckpointRecord

        log.append(CheckpointRecord({"a": 1}))
        log.force()
        # Simulate a crash mid-force: half a frame at the end.
        with open(log.path, "ab") as handle:
            handle.write(b"\x40\x00\x00\x00\x12\x34\x56\x78partial")
        again = FileLogManager(dbdir)
        assert len(list(again.stable_records())) == 1
        # The repair is durable: a third open sees a clean file.
        third = FileLogManager(dbdir)
        assert len(list(third.stable_records())) == 1

    def test_corrupt_frame_checksum_dropped(self, dbdir):
        log = FileLogManager(dbdir)
        from repro.wal.records import CheckpointRecord

        log.append(CheckpointRecord({"a": 1}))
        log.force()
        size = os.path.getsize(log.path)
        log.append(CheckpointRecord({"b": 2}))
        log.force()
        # Flip a byte inside the second frame's payload.
        with open(log.path, "r+b") as handle:
            handle.seek(size + 12)
            byte = handle.read(1)
            handle.seek(size + 12)
            handle.write(bytes([byte[0] ^ 0xFF]))
        again = FileLogManager(dbdir)
        assert len(list(again.stable_records())) == 1

    def test_truncation_rewrites_file(self, dbdir):
        log = FileLogManager(dbdir)
        from repro.wal.records import CheckpointRecord

        lsis = [log.append(CheckpointRecord({})) for _ in range(5)]
        log.force()
        before = os.path.getsize(log.path)
        log.truncate_before(lsis[3], redo_start=lsis[3])
        assert os.path.getsize(log.path) < before
        again = FileLogManager(dbdir)
        assert [r.lsi for r in again.stable_records()] == lsis[3:]

    def test_truncation_copies_the_retained_byte_suffix(self, dbdir):
        """No record is re-encoded: the new file is byte-for-byte the
        tail of the old one, and appends keep landing behind it."""
        log = FileLogManager(dbdir)
        from repro.wal.records import CheckpointRecord

        lsis = [log.append(CheckpointRecord({f"o{i}": i})) for i in range(6)]
        log.force()
        with open(log.path, "rb") as handle:
            before = handle.read()
        assert log.truncate_before(lsis[2], redo_start=lsis[2]) == 2
        with open(log.path, "rb") as handle:
            after = handle.read()
        assert after and before.endswith(after)
        assert log.truncate_before(lsis[4], redo_start=lsis[4]) == 2
        tail = log.append(CheckpointRecord({"tail": 9}))
        log.force()
        again = FileLogManager(dbdir)
        assert [r.lsi for r in again.stable_records()] == lsis[4:] + [tail]
        # Everything dropped: an empty file, not a missing one.
        end = log.stable_end_lsi() + 1
        log.truncate_before(end, redo_start=end)
        assert os.path.getsize(log.path) == 0

    def test_one_append_descriptor_for_the_logs_lifetime(self, dbdir):
        log = FileLogManager(dbdir)
        from repro.wal.records import CheckpointRecord

        assert log._file._fd is None  # a log that never forces holds nothing
        lsis = [log.append(CheckpointRecord({}))]
        log.force()
        held = log._file._fd
        assert held is not None
        for _ in range(2):
            lsis.append(log.append(CheckpointRecord({})))
            log.force()
            assert log._file._fd == held
        assert os.fstat(held).st_ino == os.stat(log.path).st_ino
        # The rename in truncation orphans the held inode: the next
        # force must land in the file that now carries the name.
        log.truncate_before(lsis[1], redo_start=lsis[1])
        log.append(CheckpointRecord({}))
        log.force()
        assert os.fstat(log._file._fd).st_ino == os.stat(log.path).st_ino
        assert len(FileLogManager(dbdir)) == 3
        # close() releases it; the log stays usable and reopens lazily.
        log.close()
        assert log._file._fd is None
        with pytest.raises(OSError):
            os.fstat(held)
        log.close()  # idempotent
        log.append(CheckpointRecord({}))
        log.force()
        assert len(FileLogManager(dbdir)) == 4
        log.close()

    def test_a_dropped_log_does_not_leak_its_descriptor(self, dbdir):
        """Harnesses build a log per run and never close it."""
        import gc

        from repro.wal.records import CheckpointRecord

        log = FileLogManager(dbdir)
        log.append(CheckpointRecord({}))
        log.force()
        held = log._file._fd
        del log
        gc.collect()
        with pytest.raises(OSError):
            os.fstat(held)

    def test_system_close_releases_the_descriptor(self, dbdir):
        system = _open(dbdir)
        RecoverableFileSystem(system).write_file("a", b"1")
        system.log.force()
        assert system.log._file._fd is not None
        system.close()
        assert system.log._file._fd is None


class TestPersistentSystem:
    def test_fresh_directory(self, dbdir):
        system = _open(dbdir)
        assert system.last_report.ops_redone == 0
        fs = RecoverableFileSystem(system)
        fs.write_file("a", b"1")
        assert fs.read_file("a") == b"1"

    def test_reopen_recovers_forced_state(self, dbdir):
        system = _open(dbdir)
        fs = RecoverableFileSystem(system)
        fs.write_file("a", b"data")
        fs.sort("a", "a.sorted")
        system.log.force()
        fs.write_file("volatile", b"gone")  # never forced

        reopened = _open(dbdir)
        fs2 = RecoverableFileSystem(reopened)
        assert fs2.read_file("a") == b"data"
        assert fs2.read_file("a.sorted") == bytes(sorted(b"data"))
        assert fs2.read_file("volatile") is None

    def test_reopen_after_flush_and_truncate(self, dbdir):
        system = _open(dbdir)
        kv = KVPageStore(system, pages=4)
        for index in range(30):
            kv.put(index, f"v{index}")
        system.flush_all()
        system.checkpoint(truncate=True)

        reopened = _open(dbdir)
        assert reopened.last_report.ops_redone == 0
        kv2 = KVPageStore(reopened, pages=4)
        assert kv2.get(17) == "v17"

    def test_repeated_reopens_stable(self, dbdir):
        system = _open(dbdir)
        fs = RecoverableFileSystem(system)
        fs.write_file("a", b"x")
        system.log.force()
        for _round in range(3):
            system = _open(dbdir)
            fs = RecoverableFileSystem(system)
            assert fs.read_file("a") == b"x"


class TestPersistentBackup:
    def test_backup_restore_persists_across_reopen(self, dbdir):
        """Media recovery on a persistent database: the restored image
        must be the durable truth, surviving a further reopen."""
        from repro.kernel import BackupManager

        system = _open(dbdir)
        fs = RecoverableFileSystem(system)
        fs.write_file("a", b"backed-up")
        system.flush_all()
        manager = BackupManager(system)
        manager.take_backup()
        fs.write_file("a", b"post-backup")
        system.flush_all()
        manager.restore_latest()
        fs = RecoverableFileSystem(system)
        assert fs.read_file("a") == b"post-backup"  # log replay repaired

        reopened = _open(dbdir)
        assert RecoverableFileSystem(reopened).read_file("a") == (
            b"post-backup"
        )

    def test_flush_txn_records_roundtrip_disk(self, dbdir):
        from repro import CacheConfig, MultiObjectStrategy
        from repro.storage import FlushTransaction

        config = SystemConfig(
            cache=CacheConfig(
                multi_object_strategy=MultiObjectStrategy.ATOMIC,
                mechanism=FlushTransaction(),
            )
        )
        system = PersistentSystem.open(
            dbdir,
            config=config,
            domains=[register_filesystem_functions, register_kv_functions],
        )
        system.registry.register(
            "pairP", lambda reads: {"p1": b"1", "p2": b"2"}
        )
        from repro import Operation, OpKind

        system.execute(
            Operation(
                "pairP", OpKind.LOGICAL, reads=set(),
                writes={"p1", "p2"}, fn="pairP",
            )
        )
        system.flush_all()
        reopened = _open(dbdir)
        assert reopened.peek("p1") == b"1"
        assert reopened.peek("p2") == b"2"


KILLED_CHILD = textwrap.dedent(
    """
    import os, sys
    sys.path.insert(0, {src!r})
    from repro.persist import PersistentSystem
    from repro.domains import KVPageStore
    from repro.domains.kvstore import register_kv_functions

    system = PersistentSystem.open({db!r}, domains=[register_kv_functions])
    kv = KVPageStore(system, pages=4)
    for index in range(20):
        kv.put(index, f"v{{index}}")
    system.log.force()           # first 20 puts durable
    for _ in range(2):
        system.purge()           # some pages flushed
    for index in range(20, 40):
        kv.put(index, f"v{{index}}")   # never forced
    os._exit(1)                  # the real thing: no cleanup at all
    """
)


class TestTombstoneCodec:
    def test_tombstone_singleton_survives_the_codec(self):
        from repro.common.codec import decode_value, encode_value
        from repro.core.operation import TOMBSTONE

        assert decode_value(encode_value(TOMBSTONE)) is TOMBSTONE
        nested = decode_value(encode_value({"gone": (TOMBSTONE, 1)}))
        assert nested["gone"][0] is TOMBSTONE

    def test_deletes_survive_reopen(self, dbdir):
        """A delete's WAL record carries TOMBSTONE; replay after reopen
        must still recognize the sentinel by identity."""
        system = _open(dbdir)
        fs = RecoverableFileSystem(system)
        fs.write_file("doomed", b"bye")
        fs.write_file("kept", b"hi")
        fs.delete("doomed")
        system.log.force()

        reopened = _open(dbdir)
        fs2 = RecoverableFileSystem(reopened)
        assert fs2.read_file("doomed") is None
        assert not fs2.exists("doomed")
        assert fs2.read_file("kept") == b"hi"
        # And the tombstone never leaks into the object files.
        reopened.flush_all()
        third = _open(dbdir)
        assert RecoverableFileSystem(third).read_file("doomed") is None


class TestProcessKill:
    def test_killed_process_recovered_on_reopen(self, dbdir, tmp_path):
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        )
        script = tmp_path / "child.py"
        script.write_text(KILLED_CHILD.format(src=src, db=dbdir))
        result = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 1, result.stderr

        system = _open(dbdir)
        kv = KVPageStore(system, pages=4)
        for index in range(20):
            assert kv.get(index) == f"v{index}", f"key {index} lost"
        for index in range(20, 40):
            assert kv.get(index) is None, f"unforced key {index} survived"
