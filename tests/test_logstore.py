"""The log-structured stable store (repro.storage.logstore): append-only
segments, index rebuild by scan, batch-frame atomicity, tombstones,
torn-tail repair, maximal widening on damage, and compaction."""

import os
import random

import pytest

from repro.common.identifiers import NULL_SI
from repro.storage import framing
from repro.storage.file_store import FileStableStore
from repro.storage.logstore import LogStructuredStableStore, _segment_name
from repro.storage.stable_store import StoredVersion


@pytest.fixture
def dbdir(tmp_path):
    return str(tmp_path / "db")


def _segments_dir(dbdir):
    return os.path.join(dbdir, "segments")


def _segment_files(dbdir):
    return sorted(
        name
        for name in os.listdir(_segments_dir(dbdir))
        if name.endswith(".seg")
    )


class TestRoundTrip:
    def test_write_read_across_instances(self, dbdir):
        store = LogStructuredStableStore(dbdir)
        store.write("obj:1", b"value", 7)
        again = LogStructuredStableStore(dbdir)
        version = again.peek("obj:1")
        assert (version.value, version.vsi) == (b"value", 7)

    def test_latest_record_wins(self, dbdir):
        store = LogStructuredStableStore(dbdir)
        store.write("x", b"old", 1)
        store.write("x", b"new", 2)
        again = LogStructuredStableStore(dbdir)
        assert again.peek("x").value == b"new"
        assert again.vsi_of("x") == 2

    def test_delete_survives_reopen(self, dbdir):
        store = LogStructuredStableStore(dbdir)
        store.write("x", b"v", 1)
        store.delete("x")
        assert not LogStructuredStableStore(dbdir).contains("x")

    def test_delete_of_unknown_object_appends_nothing(self, dbdir):
        store = LogStructuredStableStore(dbdir)
        before = store.total_bytes()
        store.delete("never-written")
        assert store.total_bytes() == before

    def test_ids_with_special_characters(self, dbdir):
        store = LogStructuredStableStore(dbdir)
        weird = "file:dir/sub file:with spaces%and:colons"
        store.write(weird, b"v", 1)
        assert LogStructuredStableStore(dbdir).peek(weird).value == b"v"


class TestSegments:
    def test_active_segment_rolls_at_threshold(self, dbdir):
        store = LogStructuredStableStore(dbdir, segment_bytes=256)
        for index in range(20):
            store.write(f"obj:{index}", b"x" * 64, index)
        assert store.segment_count() > 1
        assert len(_segment_files(dbdir)) == store.segment_count()

    def test_rebuild_replays_segments_in_id_order(self, dbdir):
        store = LogStructuredStableStore(dbdir, segment_bytes=256)
        for index in range(20):
            store.write("x", f"value-{index}".encode(), index)
        again = LogStructuredStableStore(dbdir)
        assert again.peek("x").value == b"value-19"
        assert again.vsi_of("x") == 19


class TestBatchFrames:
    def test_atomic_write_many_is_one_frame(self, dbdir):
        store = LogStructuredStableStore(dbdir)
        before = store.total_bytes()
        versions = {
            f"obj:{i}": StoredVersion(f"v{i}".encode(), i) for i in range(5)
        }
        store.write_many(versions, atomic=True)
        data_len = store.total_bytes() - before
        # One frame: exactly one magic marker in the appended bytes.
        path = os.path.join(_segments_dir(dbdir), _segment_files(dbdir)[-1])
        with open(path, "rb") as handle:
            appended = handle.read()[-data_len:]
        assert appended.count(framing.MAGIC) == 1

    def test_atomic_write_many_survives_reopen(self, dbdir):
        store = LogStructuredStableStore(dbdir)
        versions = {
            f"obj:{i}": StoredVersion(f"v{i}".encode(), 10 + i)
            for i in range(5)
        }
        store.write_many(versions, atomic=True)
        again = LogStructuredStableStore(dbdir)
        for i in range(5):
            assert again.peek(f"obj:{i}").value == f"v{i}".encode()
            assert again.vsi_of(f"obj:{i}") == 10 + i

    def test_non_atomic_write_many_survives_reopen(self, dbdir):
        store = LogStructuredStableStore(dbdir)
        versions = {"a": StoredVersion(b"1", 1), "b": StoredVersion(b"2", 2)}
        store.write_many(versions, atomic=False)
        again = LogStructuredStableStore(dbdir)
        assert again.peek("a").value == b"1"
        assert again.peek("b").value == b"2"


class TestDamage:
    def test_torn_tail_truncated_and_widened(self, dbdir):
        store = LogStructuredStableStore(dbdir)
        store.write("x", b"intact", 3)
        path = os.path.join(_segments_dir(dbdir), _segment_files(dbdir)[-1])
        good_size = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(framing.frame(("put", "x", b"torn"), 4)[:10])
        again = LogStructuredStableStore(dbdir)
        # The intact prefix survives; the partial frame is gone for good.
        assert again.peek("x").value == b"intact"
        assert os.path.getsize(path) == good_size
        assert again.stats.checksum_failures == 1
        # Damage may have hidden a newer record: widen maximally.
        assert again.media_redo_pending == NULL_SI + 1

    def test_mid_segment_damage_salvages_later_records(self, dbdir):
        store = LogStructuredStableStore(dbdir)
        store.write("victim", b"first", 1)
        boundary = store.total_bytes()
        store.write("survivor", b"second", 2)
        path = os.path.join(_segments_dir(dbdir), _segment_files(dbdir)[-1])
        with open(path, "r+b") as handle:
            handle.seek(boundary // 2)
            flipped = handle.read(1)[0] ^ 0x40
            handle.seek(boundary // 2)
            handle.write(bytes([flipped]))
        again = LogStructuredStableStore(dbdir)
        # The scan resynchronizes at the next frame magic.
        assert again.peek("survivor").value == b"second"
        assert again.media_redo_pending == NULL_SI + 1

    def test_clean_reopen_does_not_widen(self, dbdir):
        store = LogStructuredStableStore(dbdir)
        store.write("x", b"v", 1)
        again = LogStructuredStableStore(dbdir)
        assert again.media_redo_pending is None
        assert again.stats.checksum_failures == 0

    def test_scrub_reports_flipped_live_record(self, dbdir):
        store = LogStructuredStableStore(dbdir)
        store.write("x", b"target-value", 1)
        loc = store._index["x"]
        path = os.path.join(
            _segments_dir(dbdir), _segment_name(loc.seg_id)
        )
        with open(path, "r+b") as handle:
            handle.seek(loc.offset + loc.length - 3)
            byte = handle.read(1)[0] ^ 0x40
            handle.seek(loc.offset + loc.length - 3)
            handle.write(bytes([byte]))
        assert store.scrub() == ["x"]
        store.quarantine("x")
        assert store.scrub() == []

    def test_scrub_fails_every_object_of_a_damaged_batch(self, dbdir):
        store = LogStructuredStableStore(dbdir)
        store.write_many(
            {"a": StoredVersion(b"1", 1), "b": StoredVersion(b"2", 2)},
            atomic=True,
        )
        loc = store._index["a"]
        path = os.path.join(_segments_dir(dbdir), _segment_name(loc.seg_id))
        with open(path, "r+b") as handle:
            handle.seek(loc.offset + loc.length - 3)
            byte = handle.read(1)[0] ^ 0x40
            handle.seek(loc.offset + loc.length - 3)
            handle.write(bytes([byte]))
        assert store.scrub() == ["a", "b"]


class TestMarker:
    def test_marker_round_trip(self, dbdir):
        store = LogStructuredStableStore(dbdir)
        store.media_redo_pending = 17
        assert LogStructuredStableStore(dbdir).media_redo_pending == 17
        store.media_redo_pending = None
        assert LogStructuredStableStore(dbdir).media_redo_pending is None


class TestCompaction:
    def test_compact_collapses_to_one_segment(self, dbdir):
        store = LogStructuredStableStore(dbdir, segment_bytes=256)
        for index in range(30):
            store.write(f"obj:{index % 3}", b"x" * 40, index)
        assert store.segment_count() > 1
        copied = store.compact()
        assert copied == 3
        assert store.segment_count() == 1
        assert store.dead_ratio() == 0.0
        again = LogStructuredStableStore(dbdir)
        for obj in range(3):
            assert again.contains(f"obj:{obj}")

    def test_compact_preserves_values_and_vsis(self, dbdir):
        store = LogStructuredStableStore(dbdir)
        for index in range(10):
            store.write("x", f"v{index}".encode(), index)
        store.delete("x")
        store.write("y", b"keep", 99)
        store.compact()
        again = LogStructuredStableStore(dbdir)
        assert not again.contains("x")
        assert again.peek("y").value == b"keep"
        assert again.vsi_of("y") == 99

    def test_compact_with_nothing_live_leaves_no_segments(self, dbdir):
        store = LogStructuredStableStore(dbdir)
        store.write("x", b"v", 1)
        store.delete("x")
        assert store.compact() == 0
        assert _segment_files(dbdir) == []
        assert not LogStructuredStableStore(dbdir).contains("x")

    def test_auto_compaction_triggers_on_dead_ratio(self, dbdir):
        store = LogStructuredStableStore(
            dbdir,
            segment_bytes=512,
            compact_ratio=0.5,
            compact_min_bytes=1024,
        )
        for index in range(200):
            store.write("hot", b"x" * 64, index)
        assert store.stats.extra.get("compactions", 0) >= 1
        assert store.stats.compaction_copies >= 1
        # The survivor is intact after however many compactions ran.
        assert LogStructuredStableStore(dbdir).vsi_of("hot") == 199

    def test_writes_after_compaction_win_over_copies(self, dbdir):
        store = LogStructuredStableStore(dbdir)
        for index in range(5):
            store.write("x", f"v{index}".encode(), index)
        store.compact()
        store.write("x", b"after", 50)
        again = LogStructuredStableStore(dbdir)
        assert again.peek("x").value == b"after"
        assert again.vsi_of("x") == 50


class TestRestore:
    def test_restore_versions_replaces_the_log(self, dbdir):
        store = LogStructuredStableStore(dbdir)
        for index in range(10):
            store.write(f"obj:{index}", b"old", index)
        image = {"a": StoredVersion(b"1", 1), "b": StoredVersion(b"2", 2)}
        store.restore_versions(image)
        again = LogStructuredStableStore(dbdir)
        assert sorted(again.object_ids()) == ["a", "b"]
        assert again.peek("a").value == b"1"


class TestRebuildParity:
    """Randomized workloads: the rebuilt logstore state must match a
    FileStableStore fed the same operations — the backends implement one
    contract over disjoint layouts."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_workload_parity_after_reopen(self, tmp_path, seed):
        rng = random.Random(seed)
        log_store = LogStructuredStableStore(
            str(tmp_path / "log"), segment_bytes=512
        )
        file_store = FileStableStore(str(tmp_path / "file"))
        objects = [f"obj:{i}" for i in range(8)]
        for step in range(120):
            obj = rng.choice(objects)
            action = rng.random()
            if action < 0.15:
                log_store.delete(obj)
                file_store.delete(obj)
            elif action < 0.3:
                batch = {
                    o: StoredVersion(f"{o}@{step}".encode(), step)
                    for o in rng.sample(objects, 3)
                }
                log_store.write_many(batch, atomic=True)
                file_store.write_many(batch, atomic=True)
            else:
                value = f"{obj}@{step}".encode()
                log_store.write(obj, value, step)
                file_store.write(obj, value, step)
        log_again = LogStructuredStableStore(str(tmp_path / "log"))
        file_again = FileStableStore(str(tmp_path / "file"))
        assert sorted(log_again.object_ids()) == sorted(file_again.object_ids())
        for obj in file_again.object_ids():
            assert log_again.peek(obj).value == file_again.peek(obj).value
            assert log_again.vsi_of(obj) == file_again.vsi_of(obj)
