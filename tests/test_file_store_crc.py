"""CRC framing, quarantine and fault injection for the file-backed
store (repro.storage.file_store, repro.storage.faultwrap)."""

import os

import pytest

from repro.kernel.system import RecoverableSystem, SystemConfig
from repro.kernel.verify import verify_recovered
from repro.persist.file_log import FileLogManager
from repro.storage.faultwrap import FaultyFileStore
from repro.storage.file_store import FileStableStore, _encode
from repro.storage.framing import HEADER as _HEADER
from repro.storage.framing import MAGIC as _MAGIC
from repro.storage.faults import FaultCrash, FaultKind, FaultModel, FaultSpec
from repro.workloads import register_workload_functions
from tests.conftest import physical


def _object_path(root, obj):
    return os.path.join(root, "objects", _encode(obj))


class TestFraming:
    def test_roundtrip(self, tmp_path):
        root = str(tmp_path)
        store = FileStableStore(root)
        store.write("x", b"value", 7)
        reopened = FileStableStore(root)
        version = reopened.read("x")
        assert (version.value, version.vsi) == (b"value", 7)

    def test_frame_starts_with_magic(self, tmp_path):
        root = str(tmp_path)
        FileStableStore(root).write("x", b"value", 1)
        with open(_object_path(root, "x"), "rb") as handle:
            assert handle.read(len(_MAGIC)) == _MAGIC

    def test_torn_file_quarantined_on_load(self, tmp_path):
        root = str(tmp_path)
        FileStableStore(root).write("x", b"value", 1)
        path = _object_path(root, "x")
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        store = FileStableStore(root)
        assert not store.contains("x")
        assert store.stats.checksum_failures == 1
        assert "x" in store.scrub()
        # The damaged file was moved aside, evidence preserved.
        assert not os.path.exists(path)
        assert os.path.exists(
            os.path.join(root, "quarantine", _encode("x"))
        )

    def test_bit_flip_quarantined_on_load(self, tmp_path):
        root = str(tmp_path)
        FileStableStore(root).write("x", b"value", 1)
        path = _object_path(root, "x")
        flip = len(_MAGIC) + _HEADER.size + 2
        with open(path, "r+b") as handle:
            handle.seek(flip)
            byte = handle.read(1)[0]
            handle.seek(flip)
            handle.write(bytes([byte ^ 0x10]))
        store = FileStableStore(root)
        assert not store.contains("x")
        assert "x" in store.scrub()

    def test_foreign_file_quarantined_not_crashed(self, tmp_path):
        root = str(tmp_path)
        store = FileStableStore(root)
        with open(_object_path(root, "junk"), "wb") as handle:
            handle.write(b"not a frame at all")
        reopened = FileStableStore(root)
        assert "junk" in reopened.scrub()

    def test_delete_removes_file(self, tmp_path):
        root = str(tmp_path)
        store = FileStableStore(root)
        store.write("x", b"value", 1)
        store.delete("x")
        assert not os.path.exists(_object_path(root, "x"))
        assert not FileStableStore(root).contains("x")

    def test_scrub_clean_store_is_empty(self, tmp_path):
        store = FileStableStore(str(tmp_path))
        store.write("x", b"value", 1)
        store.write("y", b"other", 2)
        assert store.scrub() == []


class TestFaultyFileStore:
    def _system(self, root, *specs):
        model = FaultModel(specs)
        system = RecoverableSystem(
            SystemConfig(),
            store=FaultyFileStore(root, model),
            log=FileLogManager(root),
        )
        register_workload_functions(system.registry)
        return system, model

    def test_transient_write_retried_invisibly(self, tmp_path):
        system, _ = self._system(
            str(tmp_path), FaultSpec(0, FaultKind.TRANSIENT, times=2)
        )
        system.execute(physical("x", b"1"))
        system.log.force()
        system.flush_all()
        assert system.stats.fault_retries == 2
        assert FileStableStore(str(tmp_path)).read("x").value == b"1"

    def test_torn_object_write_quarantined_and_replayed(self, tmp_path):
        root = str(tmp_path)
        system, model = self._system(
            root, FaultSpec(0, FaultKind.TORN, crash=True)
        )
        system.execute(physical("x", b"durable"))
        system.log.force()
        with pytest.raises(FaultCrash):
            system.flush_all()
        model.armed = False
        system.crash()
        system.recover()
        verify_recovered(system)
        assert system.peek("x") == b"durable"
        assert system.stats.quarantines == 1

    def test_silent_bit_rot_caught_by_scrub_then_replayed(self, tmp_path):
        root = str(tmp_path)
        system, model = self._system(root, FaultSpec(0, FaultKind.CORRUPT))
        system.execute(physical("x", b"durable"))
        system.log.force()
        system.flush_all()  # completes; the medium rots the frame after
        model.armed = False
        system.crash()
        system.recover()
        verify_recovered(system)
        assert system.peek("x") == b"durable"
        assert system.stats.checksum_failures >= 1
        # The repaired value is dirty in the recovered cache; the next
        # flush makes it durable again with an intact frame.
        system.flush_all()
        assert FileStableStore(root).read("x").value == b"durable"
