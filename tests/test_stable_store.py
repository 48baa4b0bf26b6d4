"""Unit tests for the stable store (repro.storage.stable_store)."""

import pytest

from repro.common.errors import TransientStorageError
from repro.common.identifiers import NULL_SI
from repro.common.retry import DEFAULT_ATTEMPTS
from repro.storage import (
    FaultKind, FaultModel, FaultSpec, IOStats, StableStore, make_store,
)
from repro.storage.faults import FaultCrash
from repro.storage.stable_store import StoredVersion


class TestReadsAndWrites:
    def test_absent_object_reads_as_null(self):
        store = StableStore()
        version = store.read("x")
        assert version.value is None
        assert version.vsi == NULL_SI

    def test_write_then_read(self):
        store = StableStore()
        store.write("x", b"v", 5)
        assert store.read("x") == StoredVersion(b"v", 5)

    def test_contains_and_vsi(self):
        store = StableStore()
        assert not store.contains("x")
        assert store.vsi_of("x") == NULL_SI
        store.write("x", b"v", 3)
        assert store.contains("x")
        assert store.vsi_of("x") == 3

    def test_reads_and_writes_counted(self):
        stats = IOStats()
        store = StableStore(stats)
        store.write("x", b"v", 1)
        store.read("x")
        store.read("y")
        assert stats.object_writes == 1
        assert stats.object_reads == 2

    def test_peek_not_counted(self):
        stats = IOStats()
        store = StableStore(stats)
        store.write("x", b"v", 1)
        store.peek("x")
        assert stats.object_reads == 0

    def test_delete(self):
        store = StableStore()
        store.write("x", b"v", 1)
        store.delete("x")
        assert not store.contains("x")
        store.delete("x")  # idempotent


class TestWriteMany:
    def test_atomic_writes_all(self):
        store = StableStore()
        store.write_many(
            {"a": StoredVersion(b"1", 1), "b": StoredVersion(b"2", 2)},
            atomic=True,
        )
        assert store.read("a").value == b"1"
        assert store.read("b").value == b"2"


SET = {"a": StoredVersion(b"1", 1), "b": StoredVersion(b"2", 2)}


@pytest.mark.parametrize("backend", ["memory", "file"])
class TestWriteManyUnderFaults:
    """A fault-injecting store fires one point per object write of a
    set; ``atomic`` decides what a crash among them leaves."""

    @staticmethod
    def _store(backend, tmp_path, *specs):
        model = FaultModel(specs)
        return model, make_store(backend, str(tmp_path / "db"), model=model)

    @staticmethod
    def _landed(store):
        return [obj for obj in SET if store.contains(obj)]

    def test_raw_set_tears_between_writes(self, backend, tmp_path):
        _, store = self._store(
            backend, tmp_path, FaultSpec(1, FaultKind.CRASH)
        )
        with pytest.raises(FaultCrash):
            store.write_many(SET, atomic=False)
        assert self._landed(store) == ["a"]  # torn: exactly one landed

    @pytest.mark.parametrize("spec", [
        FaultSpec(0, FaultKind.CRASH),
        FaultSpec(1, FaultKind.CRASH),
        FaultSpec(0, FaultKind.TORN, crash=True),
        FaultSpec(1, FaultKind.CORRUPT, crash=True),
    ], ids=FaultSpec.describe)
    def test_crash_inside_an_atomic_set_lands_none(
        self, backend, tmp_path, spec
    ):
        _, store = self._store(backend, tmp_path, spec)
        with pytest.raises(FaultCrash):
            store.write_many(SET, atomic=True)
        assert self._landed(store) == []
        assert store.vsi_of("a") == NULL_SI
        assert store.scrub() == []  # no damaged member either

    def test_exhausted_retries_land_none(self, backend, tmp_path):
        spec = FaultSpec(1, FaultKind.TRANSIENT, times=DEFAULT_ATTEMPTS)
        _, store = self._store(backend, tmp_path, spec)
        with pytest.raises(TransientStorageError):
            store.write_many(SET, atomic=True)
        assert self._landed(store) == []

    def test_atomic_set_lands_whole_with_its_damage(self, backend, tmp_path):
        _, store = self._store(backend, tmp_path, FaultSpec(1, FaultKind.TORN))
        store.write_many(SET, atomic=True)
        assert self._landed(store) == ["a", "b"]
        assert store.scrub() == ["b"]

    def test_atomic_changes_no_numbering(self, backend, tmp_path):
        seen = []
        for atomic in (False, True):
            model, store = self._store(
                backend,
                tmp_path / str(atomic),
                FaultSpec(1, FaultKind.TORN, crash=True),
            )
            with pytest.raises(FaultCrash):
                store.write_many(SET, atomic=atomic)
            seen.append((model.trace(), model.next_point))
        assert seen[0] == seen[1] == (["torn@1!"], 2)


class TestSnapshots:
    def test_copy_and_restore(self):
        store = StableStore()
        store.write("x", b"v", 1)
        snap = store.copy_versions()
        store.write("x", b"w", 2)
        store.restore_versions(snap)
        assert store.read("x").value == b"v"

    def test_object_ids_and_len(self):
        store = StableStore()
        store.write("a", b"", 1)
        store.write("b", b"", 2)
        assert sorted(store.object_ids()) == ["a", "b"]
        assert len(store) == 2
