"""Values have one home in RAM: the durable stores keep an index, the
device keeps the values.

What that buys, as tests: damage is found by the read that touches it
(not by the next restart's scrub), memory after open and after reads is
bounded by the index and the cache (not by the database), compaction is
a chunked file-to-file copy of verified frames, and a directory written
before the change opens and reads back unchanged.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
import sys
import tracemalloc
from unittest import mock

import pytest

from repro.common.errors import CorruptObjectError, SimulatedCrash
from repro.kernel.supervisor import RecoverySupervisor
from repro.kernel.system import RecoverableSystem, SystemConfig, SystemHealth
from repro.kernel.torture import TortureHarness
from repro.obs.metrics import MetricsRegistry
from repro.persist import PersistentSystem
from repro.storage import logstore as logstore_module
from repro.storage import framing, make_store
from repro.storage.faults import FaultKind, FaultModel, FaultSpec
from repro.storage.faultwrap import (
    FaultyLogStructuredStore,
    flip_byte_in_file,
)
from repro.storage.file_store import FileStableStore, _encode
from repro.storage.framing import OVERHEAD, FramedFile
from repro.storage.logstore import (
    COPY_CHUNK,
    MAX_READ_FDS,
    LogStructuredStableStore,
    _Loc,
    _PUT,
)
from repro.storage.registry import recommended_cache_config
from repro.storage.stable_store import StoredVersion

from tests.conftest import physical, small_cache_torture

DURABLE = ["file", "logstore"]


def _frame_of(store, root, obj):
    """``(path, offset, length)`` of ``obj``'s frame on the device."""
    if isinstance(store, FileStableStore):
        path = os.path.join(root, "objects", _encode(obj))
        return path, 0, os.path.getsize(path)
    loc = store._index[obj]
    return store._segments[loc.seg_id].file.path, loc.offset, loc.length


def _rot(store, root, obj):
    """Flip one payload byte of ``obj``'s frame, behind the store's back."""
    path, offset, length = _frame_of(store, root, obj)
    flip_byte_in_file(path, offset + OVERHEAD + (length - OVERHEAD) // 2)


def _state(store):
    return {
        obj: (version.value, version.vsi) for obj, version in store.items()
    }


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


# ----------------------------------------------------------------------
# damage is found by the read that touches it
# ----------------------------------------------------------------------
class TestDamageIsFoundByTheRead:
    @pytest.mark.parametrize("backend", DURABLE)
    def test_a_rotted_frame_fails_its_read(self, tmp_path, backend):
        root = str(tmp_path)
        store = make_store(backend, root)
        for index in range(8):
            store.write(f"obj:{index}", b"value-%d" % index * 8, index + 1)
        _rot(store, root, "obj:3")
        with pytest.raises(CorruptObjectError):
            store.read("obj:3")
        assert store.stats.checksum_failures == 1
        with pytest.raises(CorruptObjectError):
            store.peek("obj:3")
        assert store.stats.checksum_failures == 2
        for index in set(range(8)) - {3}:
            assert store.read(f"obj:{index}") == StoredVersion(
                b"value-%d" % index * 8, index + 1
            )
        # The index still answers for the damaged object: only its
        # value lives on the device.
        assert store.contains("obj:3") and store.vsi_of("obj:3") == 4

    @pytest.mark.parametrize("backend", DURABLE)
    def test_a_vanished_file_says_so(self, tmp_path, backend):
        root = str(tmp_path)
        store = make_store(backend, root)
        store.write("a", b"here", 1)
        os.unlink(_frame_of(store, root, "a")[0])
        with pytest.raises(CorruptObjectError, match="gone"):
            store.read("a")
        assert store.stats.checksum_failures == 1
        assert store.scrub() == ["a"]
        store.quarantine("a")
        assert not store.contains("a") and store.scrub() == []

    @pytest.mark.parametrize("backend", DURABLE)
    def test_a_cache_miss_surfaces_it_and_the_ladder_heals_it(
        self, tmp_path, backend
    ):
        root = str(tmp_path)
        cache = dataclasses.replace(
            recommended_cache_config(backend), capacity=2
        )
        system = PersistentSystem.open(
            root, config=SystemConfig(cache=cache), store_backend=backend
        )
        for index in range(8):
            system.execute(physical(f"obj:{index}", b"value-%d" % index * 8))
        system.flush_all()
        victim = "obj:3"
        assert victim not in system.cache._entries  # evicted: a miss
        _rot(system.store, root, victim)
        with pytest.raises(CorruptObjectError):
            system.read(victim)
        assert system.stats.checksum_failures == 1
        system.crash()
        report = RecoverySupervisor(system).run()
        assert report.converged
        assert system.health is SystemHealth.HEALTHY
        assert system.stats.quarantines == 1
        assert system.stats.media_recoveries == 1
        assert victim in report.objects_restored
        assert system.read(victim) == b"value-3" * 8
        for index in range(8):
            assert system.read(f"obj:{index}") == b"value-%d" % index * 8

    @pytest.mark.parametrize("backend", DURABLE)
    def test_small_cache_torture_reads_a_corrupt_write_before_any_crash(
        self, backend
    ):
        """A CORRUPT write fault, then a cache miss on that object while
        the workload is still running: the read raises, the machine
        dies there, and recovery verifies clean."""
        harness = TortureHarness(small_cache_torture(backend))
        spec = FaultSpec(5, FaultKind.CORRUPT)
        # Found during the drive — before any crash, scrub or restart.
        with harness._system(FaultModel([spec])) as (system, _backup):
            harness._drive(system)
            assert system.stats.checksum_failures == 1
            assert system.stats.quarantines == 0
        outcome = harness.run(FaultModel([spec]), spec.describe())
        assert outcome.ok, outcome.error
        assert outcome.trace == ["corrupt@5"]


# ----------------------------------------------------------------------
# the bound: memory tracks the index and the cache, not the database
# ----------------------------------------------------------------------
OBJECTS = 2048
VALUE = 8 * 1024
MIB = 1024 * 1024


def _value(index: int) -> bytes:
    return bytes([index % 251]) * VALUE


@pytest.fixture(scope="module")
def big_dirs(tmp_path_factory):
    """One 16 MiB directory per durable backend (fsync elided while it
    is written: the bytes matter here, not their durability)."""
    roots = {}
    with mock.patch.object(os, "fsync", lambda fd: None):
        for backend in DURABLE:
            root = str(tmp_path_factory.mktemp(f"big-{backend}"))
            store = (
                LogStructuredStableStore(root)
                if backend == "logstore"
                else make_store(backend, root)
            )
            for index in range(OBJECTS):
                store.write(f"obj:{index:04d}", _value(index), index + 1)
            store.close()
            roots[backend] = root
    return roots


@pytest.fixture
def traced():
    tracemalloc.start()
    try:
        yield lambda: tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


class TestTheBound:
    @pytest.mark.parametrize("backend", DURABLE)
    def test_open_holds_an_index_and_reads_hold_the_cache(
        self, big_dirs, traced, backend
    ):
        before = traced()
        store = make_store(backend, big_dirs[backend])
        assert len(store) == OBJECTS
        opened = traced() - before
        assert opened <= MIB, f"{opened} B live after opening 16 MiB"
        system = RecoverableSystem(
            SystemConfig(cache=dataclasses.replace(
                recommended_cache_config(backend), capacity=128
            )),
            store=store,
        )
        for index in range(OBJECTS):
            assert system.read(f"obj:{index:04d}") == _value(index)
        assert system.stats.object_reads == OBJECTS
        # The cache manager enforces its capacity when it executes, not
        # when it reads (ROADMAP item 6(ii)): one write later, what is
        # left in RAM is the cache — the store kept none of the reads.
        system.execute(physical("obj:0000", _value(0)))
        assert len(system.cache._entries) <= 128
        held = traced() - before
        assert held <= 128 * VALUE + MIB, f"{held} B live after the reads"

    @pytest.mark.parametrize(
        "cls", [FileStableStore, LogStructuredStableStore]
    )
    def test_no_durable_backend_has_a_version_map(self, tmp_path, cls):
        store = cls(str(tmp_path))
        store.write("a", b"v", 1)
        assert not hasattr(store, "_versions")
        with open(sys.modules[cls.__module__].__file__) as source:
            assert "._versions" not in source.read()

    def test_compaction_holds_a_chunk_and_lands_it_with_one_append(
        self, big_dirs, traced, monkeypatch
    ):
        store = make_store("logstore", big_dirs["logstore"])
        live = store._live
        appends = []
        append = FramedFile.append
        monkeypatch.setattr(
            FramedFile, "append",
            lambda self, data: appends.append(len(data)) or append(self, data),
        )
        monkeypatch.setattr(os, "fsync", lambda fd: None)
        tracemalloc.reset_peak()
        assert store.compact() == OBJECTS
        current, peak = tracemalloc.get_traced_memory()
        assert peak - current <= MIB
        assert len(appends) <= math.ceil(live / COPY_CHUNK) + 1
        assert max(appends) < COPY_CHUNK + VALUE + OVERHEAD + 64
        assert sum(appends) == live == store.total_bytes()
        assert store.segment_count() == 1 and store.dead_ratio() == 0.0
        assert store.stats.compaction_copies == OBJECTS
        assert store.peek("obj:2047") == StoredVersion(_value(2047), 2048)

    def test_read_descriptors_are_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "fsync", lambda fd: None)
        store = LogStructuredStableStore(str(tmp_path), segment_bytes=64)
        for index in range(320):
            store.write(f"obj:{index}", b"x" * 64, index + 1)
        assert store.segment_count() >= 300
        before = _open_fds()
        for _ in range(2):
            for index in range(320):
                assert store.read(f"obj:{index}").vsi == index + 1
        assert store.footprint()["open_read_fds"] == MAX_READ_FDS
        assert _open_fds() - before <= MAX_READ_FDS
        store.close()
        assert store.footprint()["open_read_fds"] == 0
        assert _open_fds() <= before
        assert store.read("obj:7").value == b"x" * 64  # reopens on demand

    def test_restore_versions_drops_held_descriptors_first(self, tmp_path):
        store = LogStructuredStableStore(str(tmp_path), segment_bytes=64)
        for index in range(6):
            store.write(f"obj:{index}", b"x" * 64, index + 1)
        before = _open_fds()
        for index in range(6):
            store.read(f"obj:{index}")
        assert _open_fds() > before
        store.restore_versions({"only": StoredVersion(b"one", 9)})
        assert store.footprint()["open_read_fds"] == 0
        assert _state(store) == {"only": (b"one", 9)}
        assert _state(LogStructuredStableStore(str(tmp_path))) == _state(store)

    def test_the_index_entry_is_slotted(self):
        assert not hasattr(_Loc(1, 0, 10, 0, 1), "__dict__")


# ----------------------------------------------------------------------
# the compaction copy is the old compaction, cheaper
# ----------------------------------------------------------------------
def _seeded_stream(store, seed: int, steps: int = 120):
    """Puts, atomic batches and deletes over a dozen objects."""
    rng = random.Random(seed)
    vsi = 0
    for _ in range(steps):
        roll = rng.random()
        names = [f"obj:{rng.randrange(12)}" for _ in range(3)]
        if roll < 0.6:
            vsi += 1
            store.write(names[0], rng.randbytes(rng.randrange(1, 200)), vsi)
        elif roll < 0.85:
            batch = {}
            for name in set(names):
                vsi += 1
                batch[name] = StoredVersion(rng.randbytes(40), vsi)
            store.write_many(batch, atomic=True)
        else:
            store.delete(names[0])


def _raw(store, obj) -> bytes:
    path, offset, length = _frame_of(store, None, obj)
    with open(path, "rb") as handle:
        handle.seek(offset)
        return handle.read(length)


class TestCompactionCopy:
    def test_a_put_frame_is_copied_byte_for_byte(self, tmp_path):
        store = LogStructuredStableStore(str(tmp_path))
        _seeded_stream(store, seed=1)
        before = _state(store)
        source = {obj: _raw(store, obj) for obj in store.object_ids()}
        batched = {o for o, loc in store._index.items() if loc.members}
        assert batched and batched != set(source)
        assert store.compact() == len(before)
        for obj, (value, vsi) in before.items():
            if obj in batched:  # re-framed as the put it now is
                assert _raw(store, obj) == framing.frame(
                    (_PUT, obj, value), vsi
                )
            else:
                assert _raw(store, obj) == source[obj]
            assert store._index[obj].members == 0
        assert _state(store) == before

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_compacted_and_uncompacted_stores_rebuild_alike(
        self, tmp_path, seed
    ):
        # A threshold no store reaches keeps the reference uncompacted.
        plain = LogStructuredStableStore(
            str(tmp_path / "plain"), compact_min_bytes=1 << 62
        )
        compacting = LogStructuredStableStore(str(tmp_path / "compacting"))
        _seeded_stream(plain, seed, steps=400)
        _seeded_stream(compacting, seed, steps=400)
        assert plain.stats.extra.get("compactions", 0) == 0
        assert compacting.stats.extra["compactions"] >= 1
        # Writes after the write-path compaction overwrite most of what
        # it copied; a last compaction makes the compared state its own.
        assert compacting.compact() == len(plain.object_ids())
        expected = _state(plain)
        assert _state(compacting) == expected
        for root in ("plain", "compacting"):
            again = LogStructuredStableStore(str(tmp_path / root))
            assert _state(again) == expected
            assert again.media_redo_pending is None

    @pytest.mark.parametrize("chunk", [COPY_CHUNK, 256])
    def test_a_torn_chunk_replays_to_the_old_versions(
        self, tmp_path, monkeypatch, chunk
    ):
        """Half a chunk lands — whole copied frames, then half a frame —
        and the machine dies: the old segments still replay to the
        pre-compaction versions and the copy's tail is repaired."""
        monkeypatch.setattr(logstore_module, "COPY_CHUNK", chunk)
        root = str(tmp_path)
        seed = LogStructuredStableStore(root)
        _seeded_stream(seed, seed=5)
        expected = _state(seed)
        segments = seed.segment_count()
        seed.close()
        # Point 0 is the compaction's first chunk, point 1 its second.
        point = 0 if chunk == COPY_CHUNK else 1
        store = FaultyLogStructuredStore(
            root,
            FaultModel([FaultSpec(point, FaultKind.TORN, crash=True)]),
        )
        with pytest.raises(SimulatedCrash):
            store.compact()
        names = sorted(os.listdir(os.path.join(root, "segments")))
        assert len(names) == segments + 1
        copy = FramedFile(
            os.path.join(root, "segments", names[-1]), framing.MAGIC
        )
        whole = list(copy.scan())
        assert whole and copy.torn  # whole frames, then half of one
        # The survivor in this process still serves the old versions...
        assert _state(store) == expected
        # ...and so does a reopen, which also repairs the copy's tail.
        again = LogStructuredStableStore(root)
        assert _state(again) == expected
        assert os.path.getsize(copy.path) == copy.end
        assert again.compact() == len(expected)
        assert _state(LogStructuredStableStore(root)) == expected

    def test_a_crash_between_chunks_leaves_a_clean_boundary(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(logstore_module, "COPY_CHUNK", 256)
        root = str(tmp_path)
        seed = LogStructuredStableStore(root)
        _seeded_stream(seed, seed=6)
        expected = _state(seed)
        seed.close()
        store = FaultyLogStructuredStore(
            root, FaultModel([FaultSpec(2, FaultKind.CRASH)]),
        )
        with pytest.raises(SimulatedCrash):
            store.compact()
        again = LogStructuredStableStore(root)
        assert _state(again) == expected
        assert again.stats.checksum_failures == 0
        assert again.media_redo_pending is None

    def test_a_damaged_source_frame_aborts_the_compaction(self, tmp_path):
        root = str(tmp_path)
        store = LogStructuredStableStore(root, segment_bytes=512)
        _seeded_stream(store, seed=7)
        expected = _state(store)
        victim = max(  # the last-written object with a frame to itself
            (o for o, loc in store._index.items() if not loc.members),
            key=lambda o: store._index[o].seg_id,
        )
        on_disk = sorted(os.listdir(os.path.join(root, "segments")))
        _rot(store, root, victim)
        with pytest.raises(CorruptObjectError):
            store.compact()
        assert store.stats.checksum_failures == 1
        assert "compactions" not in store.stats.extra
        # Every old segment in place, the partial copy gone.
        assert sorted(os.listdir(os.path.join(root, "segments"))) == on_disk
        assert store.segment_count() == len(on_disk)
        for obj in set(expected) - {victim}:
            assert store.peek(obj) == StoredVersion(*expected[obj])
        assert store.scrub() == [victim]
        # The ladder's quarantine takes it out; then the copy goes through.
        store.quarantine(victim)
        assert store.compact() == len(expected) - 1
        del expected[victim]
        assert _state(LogStructuredStableStore(root)) == expected


# ----------------------------------------------------------------------
# gauges that would have shown the mirror
# ----------------------------------------------------------------------
class TestStoreGauges:
    @pytest.mark.parametrize("backend", ["memory"] + DURABLE)
    def test_store_gauges_are_polled_and_reads_are_timed(
        self, tmp_path, backend
    ):
        root = str(tmp_path) if backend != "memory" else None
        system = RecoverableSystem(
            SystemConfig(cache=dataclasses.replace(
                recommended_cache_config(backend), capacity=2
            )),
            store=make_store(backend, root),
        )
        registry = system.attach_metrics(MetricsRegistry())
        for index in range(6):
            system.execute(physical(f"obj:{index}", b"v" * 100))
        system.flush_all()
        for index in range(6):
            system.read(f"obj:{index}")
        snapshot = registry.snapshot()
        gauges = snapshot["gauges"]
        assert gauges["store.objects"] == 6
        assert "store.objects" not in snapshot["counters"]
        if backend != "memory":
            assert gauges["store.device_bytes"] >= 6 * 100
        if backend == "logstore":
            assert 0.0 <= gauges["store.dead_ratio"] < 1.0
            assert 1 <= gauges["store.open_read_fds"] <= MAX_READ_FDS
        reads = snapshot["histograms"]["store.read_ms"]
        assert reads["count"] == system.stats.object_reads >= 4
        # Survives crash/recover: the store outlives the cache manager.
        system.crash()
        system.recover()
        system.read("obj:0")
        assert registry.histograms["store.read_ms"].count == reads["count"] + 1


# ----------------------------------------------------------------------
# a directory written by 4.5.0 opens and reads back unchanged
# ----------------------------------------------------------------------
#: Written by the parent commit (the last with a RAM mirror).  logstore:
#: puts, a batch, a delete, a compaction (seg 2 is its copy), then a
#: put, a batch and a delete after it.  file: three objects, one
#: rewritten, one written and deleted.
DIRS_4_5_0 = {
    "logstore": (
        {
            "segments/seg-00000002.seg": (
                "524f424a310a1c000000c23a1ae8011005000000000000000703060370757406"
                "016105067365636f6e64524f424a310a1c000000b91ebb2b0110030000000000"
                "0000070306037075740601630702060174030101524f424a310a1a00000019a3"
                "e4d601100400000000000000070306037075740601640604666f7572"
            ),
            "segments/seg-00000003.seg": (
                "524f424a310a24000000c063cc41011006000000000000000703060370757406"
                "0165050e61667465722074686520636f7079524f424a310a2b000000d42528c7"
                "0110000000000000000007020605626174636808020703060166050373697803"
                "0107070306016700030108524f424a310a14000000ff3b373801100000000000"
                "0000000702060364656c060163"
            ),
        },
        {
            "a": (b"second", 5),
            "d": ("four", 4),
            "e": (b"after the copy", 6),
            "f": (b"six", 7),
            "g": (None, 8),
        },
    ),
    "file": (
        {
            "objects/a.obj": (
                "524f424a310a12000000c227c4670110040000000000000005067365636f6e64"
            ),
            "objects/dir%2Fx%3A1.obj": (
                "524f424a310a1000000020bcc9de01100200000000000000060474657874"
            ),
            "objects/t.obj": (
                "524f424a310a1300000089708f34011003000000000000000703060174030101"
                "00"
            ),
        },
        {
            "a": (b"second", 4),
            "dir/x:1": ("text", 2),
            "t": (("t", 1, None), 3),
        },
    ),
}


class TestDirectoriesFromBeforeTheChange:
    @pytest.mark.parametrize("backend", sorted(DIRS_4_5_0))
    def test_a_4_5_0_directory_opens_and_reads_back(self, tmp_path, backend):
        files, expected = DIRS_4_5_0[backend]
        root = str(tmp_path)
        for relative, content in files.items():
            target = os.path.join(root, relative)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            with open(target, "wb") as handle:
                handle.write(bytes.fromhex(content))
        store = make_store(backend, root)
        assert store.stats.checksum_failures == 0
        assert store.media_redo_pending is None
        assert sorted(store.object_ids()) == sorted(expected)
        assert _state(store) == expected
        for obj, (value, vsi) in expected.items():
            assert store.read(obj) == StoredVersion(value, vsi)
            assert store.vsi_of(obj) == vsi
        assert store.copy_versions() == {
            obj: StoredVersion(*pair) for obj, pair in expected.items()
        }
        assert store.scrub() == []
        store.close()
        for relative, content in files.items():  # opening wrote nothing
            with open(os.path.join(root, relative), "rb") as handle:
                assert handle.read().hex() == content
