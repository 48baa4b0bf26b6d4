"""Compaction under injected faults: a crash before or between the
retirements of old segments must leave a reopenable directory whose
rebuilt state equals the pre-compaction state (segment-id ordering is
the whole crash-safety argument — see the logstore module docstring)."""

import os

import pytest

from repro.common.errors import SimulatedCrash
from repro.storage.faults import FaultKind, FaultModel, FaultSpec
from repro.storage.faultwrap import FaultyLogStructuredStore
from repro.storage.logstore import LogStructuredStableStore
from repro.storage.stable_store import StoredVersion


@pytest.fixture
def dbdir(tmp_path):
    return str(tmp_path / "db")


def _populate(store):
    """A mixed history with plenty of dead bytes and a deletion."""
    for index in range(6):
        store.write(f"obj:{index % 3}", f"gen-{index}".encode(), index)
    store.write_many(
        {
            "obj:3": StoredVersion(b"batch-3", 10),
            "obj:4": StoredVersion(b"batch-4", 11),
        },
        atomic=True,
    )
    store.delete("obj:0")
    return {
        obj: (store.peek(obj).value, store.vsi_of(obj))
        for obj in sorted(store.object_ids())
    }


def _state(store):
    return {
        obj: (store.peek(obj).value, store.vsi_of(obj))
        for obj in sorted(store.object_ids())
    }


#: Small enough that ``_populate`` spreads over several segments, so
#: retirement has more than one old segment to unlink.
_SEGMENT_BYTES = 64
#: Old segments a clean compaction of ``_populate``'s store retires
#: (pinned by ``test_compaction_retires_every_old_segment``).
_RETIREMENTS = 5


def _store(dbdir):
    return LogStructuredStableStore(dbdir, segment_bytes=_SEGMENT_BYTES)


def _segment_names(dbdir):
    return sorted(os.listdir(os.path.join(dbdir, "segments")))


def _crash_at_retirement(monkeypatch, store, k):
    """Make the ``k``-th (0-based) ``_drop_segment`` call of ``store``
    raise before it unlinks anything; the ones before it complete."""
    original = store._drop_segment
    dropped = []

    def drop(segment):
        if len(dropped) == k:
            raise SimulatedCrash(f"killed at retirement {k}")
        original(segment)
        dropped.append(segment.seg_id)

    monkeypatch.setattr(store, "_drop_segment", drop)


class TestCrashMidCompaction:
    def test_compaction_retires_every_old_segment(self, dbdir):
        store = _store(dbdir)
        _populate(store)
        old = _segment_names(dbdir)
        assert len(old) == _RETIREMENTS
        store.compact()
        names = _segment_names(dbdir)
        assert len(names) == 1 and names[0] not in old

    @pytest.mark.parametrize("k", range(_RETIREMENTS))
    def test_crash_at_kth_retirement_preserves_state(
        self, dbdir, monkeypatch, k
    ):
        """The copy is fsynced before the first old segment goes, so
        any prefix of the retirements replays to the same state."""
        store = _store(dbdir)
        expected = _populate(store)
        _crash_at_retirement(monkeypatch, store, k)
        with pytest.raises(SimulatedCrash):
            store.compact()
        # k old segments are gone, the rest and the copy are on disk.
        assert len(_segment_names(dbdir)) == _RETIREMENTS - k + 1
        again = LogStructuredStableStore(dbdir)
        assert _state(again) == expected
        # No damage was involved: the survivor must not have widened.
        assert again.media_redo_pending is None

    def test_completed_compaction_then_reopen_preserves_state(self, dbdir):
        store = _store(dbdir)
        expected = _populate(store)
        store.compact()
        again = LogStructuredStableStore(dbdir)
        assert _state(again) == expected
        assert again.media_redo_pending is None

    def test_crash_before_retirement_keeps_old_segments(
        self, dbdir, monkeypatch
    ):
        """Until old segments are unlinked they remain authoritative:
        the copy only duplicates what they already replay to."""
        store = _store(dbdir)
        _populate(store)
        _crash_at_retirement(monkeypatch, store, 0)
        with pytest.raises(SimulatedCrash):
            store.compact()
        # Old segments plus the completed copy are all still on disk.
        assert len(_segment_names(dbdir)) == _RETIREMENTS + 1

    def test_torn_copy_segment_is_discarded(self, dbdir, monkeypatch):
        """A crash mid-copy leaves a half-written copy segment; its torn
        tail is truncated at reopen and the old segments still replay to
        the exact pre-compaction state."""
        store = _store(dbdir)
        expected = _populate(store)
        _crash_at_retirement(monkeypatch, store, 0)
        with pytest.raises(SimulatedCrash):
            store.compact()
        copy_path = os.path.join(dbdir, "segments", _segment_names(dbdir)[-1])
        size = os.path.getsize(copy_path)
        with open(copy_path, "r+b") as handle:
            handle.truncate(max(1, size // 2))
        again = LogStructuredStableStore(dbdir)
        assert _state(again) == expected

    def test_interrupted_compaction_can_rerun(self, dbdir, monkeypatch):
        store = _store(dbdir)
        expected = _populate(store)
        _crash_at_retirement(monkeypatch, store, _RETIREMENTS - 1)
        with pytest.raises(SimulatedCrash):
            store.compact()
        again = LogStructuredStableStore(dbdir)
        copied = again.compact()
        assert copied == len(expected)
        assert again.segment_count() == 1
        assert _state(LogStructuredStableStore(dbdir)) == expected


class TestFaultyAppends:
    def test_torn_append_loses_only_the_unacked_write(self, dbdir):
        seed = LogStructuredStableStore(dbdir)
        seed.write("x", b"stable", 1)
        model = FaultModel(
            [FaultSpec(0, FaultKind.TORN, crash=True)]
        )
        store = FaultyLogStructuredStore(dbdir, model)
        with pytest.raises(SimulatedCrash):
            store.write("x", b"torn-away", 2)
        again = LogStructuredStableStore(dbdir)
        assert again.peek("x").value == b"stable"
        assert again.vsi_of("x") == 1
        # Torn tail detected and truncated; the widening applies.
        assert again.stats.checksum_failures == 1

    def test_transient_append_is_retried_invisibly(self, dbdir):
        model = FaultModel([FaultSpec(0, FaultKind.TRANSIENT, times=2)])
        store = FaultyLogStructuredStore(dbdir, model)
        store.write("x", b"v", 1)
        assert store.stats.fault_retries >= 2
        assert LogStructuredStableStore(dbdir).peek("x").value == b"v"

    def test_corrupt_append_is_caught_by_scrub(self, dbdir):
        model = FaultModel([FaultSpec(0, FaultKind.CORRUPT)])
        store = FaultyLogStructuredStore(dbdir, model)
        store.write("x", b"rotted", 1)
        assert store.scrub() == ["x"]

    def test_torn_append_does_not_skew_later_offsets(self, dbdir):
        """After a torn append the next append lands at the device's
        real tail, so the rebuilt index still parses every later frame
        (the half-frame is skipped by resync)."""
        model = FaultModel([FaultSpec(0, FaultKind.TORN)])
        store = FaultyLogStructuredStore(dbdir, model)
        store.write("a", b"torn", 1)
        store.write("b", b"after", 2)
        again = LogStructuredStableStore(dbdir)
        assert again.peek("b").value == b"after"
        assert not again.contains("a") or again.peek("a").value == b"torn"

    def test_compaction_runs_under_the_faulty_wrapper(self, dbdir):
        store = FaultyLogStructuredStore(
            dbdir, FaultModel()
        )
        for index in range(10):
            store.write("x", f"v{index}".encode(), index)
        assert store.compact() == 1
        assert LogStructuredStableStore(dbdir).peek("x").value == b"v9"
