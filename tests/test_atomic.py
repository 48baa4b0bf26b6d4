"""Unit tests for the atomic flush mechanisms (repro.storage.atomic)."""

import pytest

from repro.storage import (
    FaultKind,
    FaultModel,
    FaultSpec,
    FaultyStore,
    FlushTransaction,
    IOStats,
    RawMultiWrite,
    ShadowInstall,
    StableStore,
)
from repro.storage.faults import FaultCrash
from repro.storage.stable_store import StoredVersion
from repro.wal.log_manager import LogManager
from repro.wal.records import FlushTxnCommitRecord, FlushTxnValuesRecord


def _fixture():
    stats = IOStats()
    store = StableStore(stats)
    log = LogManager(stats)
    versions = {
        "a": StoredVersion(b"A" * 100, 10),
        "b": StoredVersion(b"B" * 100, 11),
    }
    return stats, store, log, versions


class TestShadowInstall:
    def test_writes_land(self):
        stats, store, log, versions = _fixture()
        ShadowInstall().flush(store, versions, log)
        assert store.read("a").value == b"A" * 100
        assert store.read("b").vsi == 11

    def test_cost_model(self):
        stats, store, log, versions = _fixture()
        ShadowInstall().flush(store, versions, log)
        # One shadow write per object plus one pointer swing; the final
        # in-place placement is modelled by the atomic write_many.
        assert stats.shadow_writes == 2
        assert stats.pointer_swings == 1
        assert stats.atomic_flushes == 1
        assert stats.quiesce_events == 0

    def test_crash_inside_the_set_lands_none(self):
        stats, _, log, versions = _fixture()
        store = FaultyStore(FaultModel([FaultSpec(1, FaultKind.CRASH)]), stats)
        with pytest.raises(FaultCrash):
            ShadowInstall().flush(store, versions, log)
        assert len(store) == 0  # the pointer never swung


class TestFlushTransaction:
    def test_writes_land_and_logged(self):
        stats, store, log, versions = _fixture()
        FlushTransaction().flush(store, versions, log)
        assert store.read("a").value == b"A" * 100
        records = list(log.stable_records())
        assert any(isinstance(r, FlushTxnValuesRecord) for r in records)
        assert any(isinstance(r, FlushTxnCommitRecord) for r in records)

    def test_cost_model_double_write_plus_force(self):
        stats, store, log, versions = _fixture()
        FlushTransaction().flush(store, versions, log)
        # Values hit the log (value bytes) AND the store in place.
        assert stats.object_writes == 2
        assert stats.log_value_bytes == 200
        assert stats.log_forces == 1
        assert stats.quiesce_events == 1

    def test_values_record_sizes(self):
        record = FlushTxnValuesRecord(1, {"a": (b"xyz", 5)})
        assert record.value_bytes() == 3
        assert record.record_size() > 3


class TestRawMultiWrite:
    def test_writes_land_without_crash(self):
        stats, store, log, versions = _fixture()
        RawMultiWrite().flush(store, versions, log)
        assert store.read("a").value == b"A" * 100
        assert store.read("b").value == b"B" * 100

    def test_crash_between_writes_tears(self):
        stats, _, log, versions = _fixture()
        store = FaultyStore(FaultModel([FaultSpec(1, FaultKind.CRASH)]), stats)
        with pytest.raises(FaultCrash):
            RawMultiWrite().flush(store, versions, log)
        assert len(store) == 1  # exactly one of the two landed


class TestFlushOne:
    def test_single_object_flush_is_one_write(self):
        stats, store, log, versions = _fixture()
        ShadowInstall().flush_one(store, "a", versions["a"])
        assert stats.object_writes == 1
        assert stats.shadow_writes == 0
        assert store.read("a").vsi == 10
