"""The one durable-file mechanism (repro.storage.framing.FramedFile).

A contract suite run over both on-disk layouts — the WAL's
``[len][crc][payload]`` file and the logstore's
``MAGIC[len][crc][payload]`` segments — plus what the two callers gain
from sharing it (directory fsync on create, cut-back after a failed
append, descriptor lifetime), golden bytes pinned at the commit before
the mechanism was shared, directories written by that commit, and the
scan that keeps fsync / replace / truncate in one module.
"""

import ast
import errno
import os
import pathlib

import pytest

from repro.common.errors import CorruptObjectError
from repro.core.operation import Operation, OpKind
from repro.domains.filesystem import (
    RecoverableFileSystem,
    register_filesystem_functions,
)
from repro.persist import PersistentSystem
from repro.persist.file_log import FileLogManager
from repro.storage import framing
from repro.storage.framing import HEADER, MAGIC, FramedFile, pack_frame
from repro.storage.logstore import LogStructuredStableStore
from repro.storage.stable_store import StoredVersion
from repro.wal.records import CheckpointRecord

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

PAYLOADS = [b"first", b"second record", b"3"]


@pytest.fixture(params=[b"", MAGIC], ids=["wal-layout", "segment-layout"])
def magic(request):
    return request.param


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "frames")


def _written(path, magic, payloads=PAYLOADS):
    file = FramedFile(path, magic)
    file.append(b"".join(pack_frame(p, magic) for p in payloads))
    file.close()
    return os.path.getsize(path)


def _scan(path, magic):
    file = FramedFile(path, magic)
    return file, [payload for _, payload in file.scan()]


def _append_raw(path, data):
    with open(path, "ab") as handle:
        handle.write(data)


def _failing_write(monkeypatch, land):
    """The next ``os.write`` in framing lands ``land`` bytes; the one
    after it raises ``ENOSPC``.  Later writes are real again."""
    real = os.write
    state = {"calls": 0}

    def write(fd, view):
        state["calls"] += 1
        if state["calls"] == 1:
            return real(fd, view[:land])
        if state["calls"] == 2:
            raise OSError(errno.ENOSPC, "injected: device full")
        return real(fd, view)

    monkeypatch.setattr("repro.storage.framing.os.write", write)


# ----------------------------------------------------------------------
# the torn-tail contract, over both layouts
# ----------------------------------------------------------------------
class TestTornTailContract:
    def test_clean_file_scans_whole_and_is_not_torn(self, path, magic):
        size = _written(path, magic)
        file, payloads = _scan(path, magic)
        assert payloads == PAYLOADS
        assert (file.end, file.torn, file.damage) == (size, False, 0)

    def test_missing_file_holds_nothing_and_is_not_created(self, path, magic):
        file, payloads = _scan(path, magic)
        assert payloads == [] and not file.torn
        assert not os.path.exists(path)

    def test_offsets_are_where_the_frames_start(self, path, magic):
        _written(path, magic)
        offsets = [offset for offset, _ in FramedFile(path, magic).scan()]
        overhead = len(magic) + HEADER.size
        assert offsets == [0, overhead + 5, 2 * overhead + 5 + 13]

    @pytest.mark.parametrize(
        "tail",
        [
            lambda magic: (magic + HEADER.pack(12345, 0))[: len(magic) + 2],
            lambda magic: pack_frame(b"never finished", magic)[:-3],
            lambda magic: magic + HEADER.pack(4, 0xDEADBEEF) + b"rot!",
            lambda magic: magic + HEADER.pack(0, 0),
            lambda magic: b"\x01",
        ],
        ids=[
            "header-split",
            "short-payload",
            "crc-mismatch",
            "all-zero-header",
            "one-stray-byte",
        ],
    )
    def test_a_bad_final_frame_is_a_torn_tail(self, path, magic, tail):
        good = _written(path, magic)
        _append_raw(path, tail(magic))
        file, payloads = _scan(path, magic)
        assert payloads == PAYLOADS
        assert (file.end, file.torn, file.damage) == (good, True, 1)
        assert os.path.getsize(path) > good  # scanning repairs nothing
        file.repair()
        assert os.path.getsize(path) == good and not file.torn

    def test_repair_is_idempotent(self, path, magic):
        good = _written(path, magic)
        _append_raw(path, b"\x01")
        for _ in range(2):
            file, payloads = _scan(path, magic)
            file.repair()
            file.repair()
            assert payloads == PAYLOADS
            assert os.path.getsize(path) == good
        assert not file.torn and file.damage == 0

    def test_appends_after_a_repair_land_on_the_clean_boundary(
        self, path, magic
    ):
        good = _written(path, magic)
        _append_raw(path, pack_frame(b"torn", magic)[:-1])
        file, _ = _scan(path, magic)
        file.repair()
        assert file.append(pack_frame(b"after", magic)) == good
        assert _scan(path, magic)[1] == PAYLOADS + [b"after"]

    def test_a_failed_append_is_cut_back_before_the_next(
        self, path, magic, monkeypatch
    ):
        good = _written(path, magic)
        file, _ = _scan(path, magic)
        _failing_write(monkeypatch, land=7)
        with pytest.raises(OSError):
            file.append(pack_frame(b"half of this lands", magic))
        assert os.path.getsize(path) == good and not file.torn
        assert file.append(pack_frame(b"after", magic)) == good
        file.close()
        again, payloads = _scan(path, magic)
        assert payloads == PAYLOADS + [b"after"]
        assert (again.torn, again.damage) == (False, 0)

    def test_a_cut_back_that_fails_too_is_redone_by_the_next_append(
        self, path, magic, monkeypatch
    ):
        good = _written(path, magic)
        file, _ = _scan(path, magic)
        _failing_write(monkeypatch, land=7)
        real = os.fsync
        fail = [True]

        def fsync(fd):
            if fail[0]:
                fail[0] = False
                raise OSError(errno.EIO, "injected fsync failure")
            real(fd)

        monkeypatch.setattr("repro.storage.framing.os.fsync", fsync)
        with pytest.raises(OSError):
            file.append(pack_frame(b"half of this lands", magic))
        assert file.torn
        assert file.append(pack_frame(b"after", magic)) == good
        assert _scan(path, magic)[1] == PAYLOADS + [b"after"]

    def test_the_landing_offset_comes_from_the_descriptor(self, path, magic):
        file = FramedFile(path, magic)
        assert file.append(pack_frame(b"one", magic)) == 0
        _append_raw(path, b"bytes this object never wrote")
        size = os.path.getsize(path)
        assert file.append(pack_frame(b"two", magic)) == size

    def test_read_frame_rereads_the_device(self, path, magic):
        _written(path, magic)
        file = FramedFile(path, magic)
        spans = [
            (offset, len(magic) + HEADER.size + len(payload))
            for offset, payload in file.scan()
        ]
        assert [file.read_frame(*span) for span in spans] == PAYLOADS
        offset, length = spans[1]
        with open(path, "r+b") as handle:
            handle.seek(offset + length - 1)
            handle.write(b"\xff")
        assert file.read_frame(*spans[0]) == PAYLOADS[0]
        with pytest.raises(CorruptObjectError):
            file.read_frame(offset, length)
        # The read descriptor is held: an unlink behind the object's
        # back is seen by the next open, which says what happened.
        os.unlink(path)
        assert file.read_frame(*spans[0]) == PAYLOADS[0]
        file.release_reader()
        with pytest.raises(CorruptObjectError, match="gone"):
            file.read_frame(*spans[0])

    def test_drop_prefix_keeps_the_byte_suffix(self, path, magic):
        _written(path, magic)
        with open(path, "rb") as handle:
            before = handle.read()
        file = FramedFile(path, magic)
        offsets = [offset for offset, _ in file.scan()]
        file.drop_prefix(offsets[1])
        with open(path, "rb") as handle:
            assert handle.read() == before[offsets[1]:]
        assert file.append(pack_frame(b"tail", magic)) == len(before) - offsets[1]
        assert _scan(path, magic)[1] == PAYLOADS[1:] + [b"tail"]
        assert os.listdir(os.path.dirname(path)) == ["frames"]  # no temp left


@pytest.fixture(params=["kernel", "chunks"])
def copy_path(request, monkeypatch):
    """Truncation's two copies: ``copy_file_range`` where the platform
    has it, else a buffer a chunk at a time (forced here by making the
    kernel refuse)."""
    if request.param == "chunks":
        def refuse(*_args):
            raise OSError(errno.ENOSYS, "no copy_file_range here")

        monkeypatch.setattr(
            "repro.storage.framing.os.copy_file_range", refuse, raising=False
        )
    elif not hasattr(os, "copy_file_range"):
        pytest.skip("the platform has no copy_file_range")
    return request.param


class TestDropPrefix:
    """Truncation runs on the serving path: it copies the retained
    suffix without holding it, and a copy that fails leaves the old
    file."""

    def test_the_copy_holds_a_chunk_not_the_suffix(self, tmp_path, copy_path):
        import tracemalloc

        path = str(tmp_path / "wal.log")
        payload = b"p" * (64 * 1024 - HEADER.size)
        file = FramedFile(path)
        file.append(pack_frame(payload) * 256)  # 16 MiB of frames
        tracemalloc.start()
        try:
            file.drop_prefix(16 * len(pack_frame(payload)))  # 1 MiB
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        assert os.path.getsize(path) == file.end == 15 << 20
        assert len(_scan(path, b"")[1]) == 240

    def _written_past_a_frame(self, path, magic, monkeypatch):
        """A file whose suffix past its first frame takes several
        copies."""
        monkeypatch.setattr(framing, "SCAN_CHUNK", 8)
        _written(path, magic)
        with open(path, "rb") as handle:
            before = handle.read()
        file = FramedFile(path, magic)
        offsets = [offset for offset, _ in file.scan()]
        return file, offsets[1], before

    def _unchanged(self, path, file, before, magic):
        with open(path, "rb") as handle:
            assert handle.read() == before
        assert file.end == len(before)
        assert os.listdir(os.path.dirname(path)) == ["frames"]  # no temp left
        assert file.append(pack_frame(b"after", magic)) == len(before)
        assert _scan(path, magic)[1] == PAYLOADS + [b"after"]

    def test_a_copy_that_dies_midway_leaves_the_old_file(
        self, path, magic, copy_path, monkeypatch
    ):
        file, base, before = self._written_past_a_frame(path, magic, monkeypatch)
        name = "copy_file_range" if copy_path == "kernel" else "pread"
        real, calls = getattr(os, name), []

        def dies_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise OSError(errno.EIO, "injected: copy failed midway")
            if name == "copy_file_range":
                source, target, count, offset = args
                return real(source, target, min(count, 8), offset)
            return real(*args)

        monkeypatch.setattr(f"repro.storage.framing.os.{name}", dies_second)
        with pytest.raises(OSError, match="midway"):
            file.drop_prefix(base)
        monkeypatch.undo()
        self._unchanged(path, file, before, magic)

    def test_a_source_torn_short_of_its_end_is_not_carried_over(
        self, path, magic, copy_path, monkeypatch
    ):
        file, base, before = self._written_past_a_frame(path, magic, monkeypatch)
        file.end += 5  # bytes the object vouches for that are not there
        with pytest.raises(CorruptObjectError, match="short of"):
            file.drop_prefix(base)
        file.end -= 5
        self._unchanged(path, file, before, magic)


class TestInteriorDamage:
    """Where the layouts differ: only a magic lets a scan resynchronize."""

    @staticmethod
    def _rot_second_frame(path, magic):
        offsets = [offset for offset, _ in FramedFile(path, magic).scan()]
        with open(path, "r+b") as handle:
            handle.seek(offsets[1] + len(magic) + HEADER.size + 1)
            handle.write(b"\xff")
        return offsets

    def test_a_segment_resynchronizes_at_the_next_magic(self, path):
        size = _written(path, MAGIC)
        self._rot_second_frame(path, MAGIC)
        file, payloads = _scan(path, MAGIC)
        assert payloads == [PAYLOADS[0], PAYLOADS[2]]
        assert (file.end, file.torn, file.damage) == (size, False, 1)

    def test_a_file_without_magic_is_prefix_valid_only(self, path):
        _written(path, b"")
        offsets = self._rot_second_frame(path, b"")
        file, payloads = _scan(path, b"")
        assert payloads == [PAYLOADS[0]]
        assert (file.end, file.torn, file.damage) == (offsets[1], True, 1)


# ----------------------------------------------------------------------
# the scan streams: a start offset, bounded reads, the same answers
# ----------------------------------------------------------------------
def _whole_file_scan(path, magic):
    """The reference: the scan as it was when it read the file in one
    piece.  Returns ``(frames, end, torn, damage)``."""
    with open(path, "rb") as handle:
        data = handle.read()
    frames, damage, offset = [], 0, 0
    while offset < len(data):
        try:
            payload = framing.payload_at(data, offset, magic)
        except CorruptObjectError:
            damage += 1
            resync = data.find(magic, offset + 1) if magic else -1
            if resync == -1:
                break
            offset = resync
            continue
        frames.append((offset, payload))
        offset += len(magic) + HEADER.size + len(payload)
    return frames, offset, offset < len(data), damage


def _debris(rng, magic):
    """Frames, torn frames, rotted frames, noise and stray magics."""
    parts = []
    for _ in range(rng.randrange(0, 9)):
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))
        whole = pack_frame(payload, magic)
        kind = rng.random()
        if kind < 0.6:
            parts.append(whole)
        elif kind < 0.7:
            parts.append(whole[: rng.randrange(len(whole))])
        elif kind < 0.8:
            rotted = bytearray(whole)
            rotted[rng.randrange(len(rotted))] ^= 0xFF
            parts.append(bytes(rotted))
        elif kind < 0.9:
            parts.append(bytes(rng.randrange(256) for _ in range(rng.randrange(30))))
        else:
            parts.append(magic[: rng.randrange(len(magic) + 1)] + b"\0" * 12)
    return b"".join(parts)


class TestStreamingScan:
    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 16, 1 << 18])
    def test_any_chunk_size_reads_what_the_whole_file_read_did(
        self, path, magic, chunk, monkeypatch
    ):
        import random

        monkeypatch.setattr(framing, "SCAN_CHUNK", chunk)
        rng = random.Random(chunk)
        for _ in range(150):
            with open(path, "wb") as handle:
                handle.write(_debris(rng, magic))
            frames, end, torn, damage = _whole_file_scan(path, magic)
            file = FramedFile(path, magic)
            assert list(file.scan()) == frames
            assert (file.end, file.torn, file.damage) == (end, torn, damage)
            for index, (offset, _payload) in enumerate(frames):
                tail = FramedFile(path, magic)
                assert list(tail.scan(offset)) == frames[index:]
                assert (tail.end, tail.torn) == (end, torn)

    def test_no_read_asks_for_more_than_a_chunk(self, path, magic, monkeypatch):
        payload = bytes(range(256)) * 16  # 4 KiB
        count = (4 << 20) // len(payload)
        file = FramedFile(path, magic)
        file.append(pack_frame(payload, magic) * count)
        file.close()
        sizes = []
        real = os.pread

        def pread(fd, size, offset):
            sizes.append(size)
            return real(fd, size, offset)

        monkeypatch.setattr("repro.storage.framing.os.pread", pread)
        assert sum(1 for _ in FramedFile(path, magic).scan()) == count
        assert 0 < max(sizes) <= framing.SCAN_CHUNK
        assert len(sizes) >= (4 << 20) // framing.SCAN_CHUNK

    def test_a_frame_larger_than_a_chunk_is_read_whole(self, path, magic):
        big = bytes(range(256)) * 4096  # 1 MiB: four chunks
        _written(path, magic, [b"before", big, b"after"])
        assert _scan(path, magic)[1] == [b"before", big, b"after"]

    def test_the_file_is_the_one_named_when_the_scan_was_asked_for(
        self, path, magic
    ):
        _written(path, magic)
        frames = FramedFile(path, magic).scan()  # not yet drawn from
        os.replace(path, path + ".old")
        _written(path, magic, [b"another file"])
        _append_raw(path + ".old", pack_frame(b"appended later", magic))
        assert [payload for _, payload in frames] == PAYLOADS


# ----------------------------------------------------------------------
# what the callers gain from sharing it
# ----------------------------------------------------------------------
def _put(obj, value):
    return Operation(
        f"wp({obj})", OpKind.PHYSICAL, reads=set(), writes={obj},
        payload={obj: value},
    )


@pytest.fixture
def dir_fsyncs(monkeypatch):
    seen = []
    real = framing.fsync_dir

    def fsync_dir(path):
        seen.append(path)
        real(path)

    monkeypatch.setattr("repro.storage.framing.fsync_dir", fsync_dir)
    return seen


class TestCreatingAppendFsyncsTheDirectory:
    def test_a_fresh_wal(self, tmp_path, dir_fsyncs):
        root = str(tmp_path)
        log = FileLogManager(root)
        assert dir_fsyncs == []  # opening creates nothing
        log.append_operation(_put("a", b"1"))
        log.force()
        assert dir_fsyncs == [root]
        log.append_operation(_put("b", b"2"))
        log.force()
        log.close()
        log.append_operation(_put("c", b"3"))
        log.force()  # reopens an existing file: nothing new to make durable
        assert dir_fsyncs == [root]
        log.close()

    def test_a_fresh_segment(self, tmp_path, dir_fsyncs):
        root = str(tmp_path)
        store = LogStructuredStableStore(root, segment_bytes=64)
        segments = os.path.join(root, "segments")
        store.write("a", b"x" * 80, 1)
        assert dir_fsyncs == [segments]
        store.write("b", b"y" * 80, 2)  # rolled: a second file is born
        assert dir_fsyncs == [segments, segments]
        store.close()


class TestLogstoreFailedAppend:
    def test_half_a_frame_does_not_stay_inside_the_segment(
        self, tmp_path, monkeypatch
    ):
        root = str(tmp_path)
        store = LogStructuredStableStore(root)
        store.write("a", b"kept", 1)
        _failing_write(monkeypatch, land=9)
        with pytest.raises(OSError):
            store.write("b", b"this append dies part-way", 2)
        store.write("c", b"lands on a clean boundary", 3)
        store.close()
        again = LogStructuredStableStore(root)
        assert again.stats.checksum_failures == 0
        assert again.media_redo_pending is None
        assert again.peek("a").value == b"kept"
        assert again.peek("c").value == b"lands on a clean boundary"
        assert again.scrub() == []


class TestLogstoreDescriptors:
    @staticmethod
    def _held(store):
        return sorted(
            seg_id
            for seg_id, segment in store._segments.items()
            if segment.file._fd is not None
        )

    def test_only_the_active_segment_holds_one(self, tmp_path):
        store = LogStructuredStableStore(str(tmp_path), segment_bytes=128)
        assert self._held(store) == []  # nothing appended, nothing held
        for index in range(12):
            store.write(f"obj:{index}", b"x" * 48, index)
        assert store.segment_count() > 2
        assert self._held(store) == [store._active.seg_id]
        held = store._active.file._fd
        store.write("same-segment", b"", 99)
        assert store._active.file._fd == held

    def test_compaction_restore_and_close_release_them(self, tmp_path):
        store = LogStructuredStableStore(str(tmp_path), segment_bytes=128)
        for index in range(12):
            store.write(f"obj:{index % 3}", b"x" * 48, index)
        store.compact()
        assert self._held(store) == []  # the copy is sealed, the rest gone
        store.write("after", b"1", 50)
        replaced = store._active.file
        store.restore_versions({"only": StoredVersion(b"v", 1)})
        assert replaced._fd is None and not os.path.exists(replaced.path)
        fd = store._active.file._fd
        store.close()
        store.close()  # idempotent
        assert self._held(store) == []
        with pytest.raises(OSError):
            os.fstat(fd)
        store.write("usable", b"still", 2)  # reopens its segment
        assert LogStructuredStableStore(str(tmp_path)).peek("usable").value == b"still"


# ----------------------------------------------------------------------
# bytes unchanged: golden bytes and directories from the parent commit
# ----------------------------------------------------------------------
GOLDEN_WAL = (
    "20000000be739a4b010101000000000000000600057770286129000001016100"
    "01016105036f6e6528000000a950f1ef01010200000000000000000004636f70"
    "7909776c5f64657269766501016101016202060161060162130000006b3b45b7"
    "01040300000000000000b58397f40701016102"
)
GOLDEN_SEGMENT = (
    "524f424a310a19000000c3038227011001000000000000000703060370757406"
    "016105036f6e65524f424a310a14000000d35a39d60110000000000000000007"
    "02060364656c060161524f424a310a31000000d2e99f22011000000000000000"
    "0007020605626174636808020703060162050374776f03010207030601630605"
    "7468726565030103"
)

#: Two database directories written by the commit before this mechanism
#: was shared (one per durable backend): a, a.sorted installed, b
#: written then deleted, a checkpoint, c forced but never installed.
PARENT_DIRS = {
    "file": {
        "objects/file%3Aa.obj": (
            "524f424a310a1f00000027d3e31701100100000000000000051362616e616e61"
            "206170706c6520636865727279"
        ),
        "objects/file%3Aa.sorted.obj": (
            "524f424a310a1f00000032d010be011002000000000000000513202061616161"
            "62636565686c6e6e7070727279"
        ),
        "wal.log": (
            "3f000000a5c685130101010000000000000006000a6673777269746528612900"
            "00010666696c653a6100010666696c653a61051362616e616e61206170706c65"
            "2063686572727962000000d939c2bf0101020000000000000000001a6673736f"
            "727465645f636f707928612d3e612e736f72746564290b736f727465645f636f"
            "7079010666696c653a61010d66696c653a612e736f7274656402060666696c65"
            "3a61060d66696c653a612e736f7274656432000000981f81b701010300000000"
            "00000006000a667377726974652862290000010666696c653a6200010666696c"
            "653a6205067365636f6e64120000002ed7377c01030400000000000000066669"
            "6c653a61011900000053c302b8010305000000000000000d66696c653a612e73"
            "6f727465640212000000a2c0b43e010306000000000000000666696c653a6203"
            "2f000000be3099cd0101070000000000000006000e64656c6574652866696c65"
            "3a62290000010666696c653a6200010666696c653a620c1200000010f25b1901"
            "0308000000000000000666696c653a62071000000077c9aaa201040900000000"
            "000000f8b182c80800340000006442797c01010a0000000000000006000a6673"
            "77726974652863290000010666696c653a6300010666696c653a6305086c6f67"
            "206f6e6c79"
        ),
    },
    "logstore": {
        "segments/seg-00000001.seg": (
            "524f424a310a2e00000024fa8f3a011001000000000000000703060370757406"
            "0666696c653a61051362616e616e61206170706c6520636865727279524f424a"
            "310a350000003328d3d20110020000000000000007030603707574060d66696c"
            "653a612e736f72746564051320206161616162636565686c6e6e707072727952"
            "4f424a310a21000000a8bf2ab701100300000000000000070306037075740606"
            "66696c653a6205067365636f6e64524f424a310a19000000a32566a501100000"
            "0000000000000702060364656c060666696c653a62"
        ),
        "wal.log": (
            "3f000000a5c685130101010000000000000006000a6673777269746528612900"
            "00010666696c653a6100010666696c653a61051362616e616e61206170706c65"
            "2063686572727962000000d939c2bf0101020000000000000000001a6673736f"
            "727465645f636f707928612d3e612e736f72746564290b736f727465645f636f"
            "7079010666696c653a61010d66696c653a612e736f7274656402060666696c65"
            "3a61060d66696c653a612e736f7274656432000000981f81b701010300000000"
            "00000006000a667377726974652862290000010666696c653a6200010666696c"
            "653a6205067365636f6e64120000002ed7377c01030400000000000000066669"
            "6c653a61011900000053c302b8010305000000000000000d66696c653a612e73"
            "6f727465640212000000a2c0b43e010306000000000000000666696c653a6203"
            "2f000000be3099cd0101070000000000000006000e64656c6574652866696c65"
            "3a62290000010666696c653a6200010666696c653a620c1200000010f25b1901"
            "0308000000000000000666696c653a62071000000077c9aaa201040900000000"
            "000000f8b182c80800340000006442797c01010a0000000000000006000a6673"
            "77726974652863290000010666696c653a6300010666696c653a6305086c6f67"
            "206f6e6c79"
        ),
    },
}


class TestBytesUnchanged:
    def test_a_three_record_wal(self, tmp_path):
        log = FileLogManager(str(tmp_path))
        log.append_operation(_put("a", b"one"))
        log.append_operation(
            Operation(
                "copy", OpKind.LOGICAL, reads={"a"}, writes={"b"},
                fn="wl_derive", params=("a", "b"),
            )
        )
        log.append(CheckpointRecord({"a": 1}))
        log.force()
        log.close()
        with open(log.path, "rb") as handle:
            assert handle.read().hex() == GOLDEN_WAL

    def test_a_put_del_batch_segment(self, tmp_path):
        store = LogStructuredStableStore(str(tmp_path))
        store.write("a", b"one", 1)
        store.delete("a")
        store.write_many(
            {"b": StoredVersion(b"two", 2), "c": StoredVersion("three", 3)},
            atomic=True,
        )
        store.close()
        path = os.path.join(str(tmp_path), "segments", "seg-00000001.seg")
        with open(path, "rb") as handle:
            assert handle.read().hex() == GOLDEN_SEGMENT

    @pytest.mark.parametrize("backend", sorted(PARENT_DIRS))
    def test_a_parent_written_directory_reads_back(self, tmp_path, backend):
        root = str(tmp_path)
        for relative, content in PARENT_DIRS[backend].items():
            target = os.path.join(root, relative)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            with open(target, "wb") as handle:
                handle.write(bytes.fromhex(content))
        system = PersistentSystem.open(
            root, domains=[register_filesystem_functions],
            store_backend=backend,
        )
        fs = RecoverableFileSystem(system)
        assert fs.read_file("a") == b"banana apple cherry"
        assert fs.read_file("a.sorted") == b"  aaaabceehlnnpprry"
        assert not fs.exists("b")
        assert fs.read_file("c") == b"log only"  # redone from the log
        assert system.last_report.ops_redone == 1
        assert system.stats.checksum_failures == 0
        assert system.store.media_redo_pending is None
        # Nothing was repaired or rewritten by opening it.
        for relative, content in PARENT_DIRS[backend].items():
            with open(os.path.join(root, relative), "rb") as handle:
                assert handle.read().hex() == content
        system.close()


# ----------------------------------------------------------------------
# one mechanism: nobody else makes bytes durable
# ----------------------------------------------------------------------
#: Sites that call fsync / replace / truncate and are *not* this
#: mechanism, as ``(file, enclosing function)``; ``None`` = whole file.
NOT_THE_MECHANISM = {
    # newline JSON, best-effort by design
    ("obs/flightrec.py", None),
    # fault *damage*: bytes landed the way a failing device lands them
    ("storage/faultwrap.py", "overwrite_raw"),
    ("storage/faultwrap.py", "flip_byte_in_file"),
    # moves a damaged object file aside (no new bytes are written)
    ("storage/file_store.py", "_quarantine_file"),
    # the daemon's port file: a rendezvous, not stable state
    ("__main__.py", "_serve_wait"),
}


def _durability_calls(tree):
    """``(function name, call)`` for each fsync / replace / truncate."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            from_os = isinstance(owner, ast.Name) and owner.id == "os"
            name = node.func.attr
            if (from_os and name in ("fsync", "fdatasync", "replace", "rename",
                                     "truncate", "ftruncate")) or (
                not from_os and name == "truncate"
            ):
                found.append((function, f"{ast.unparse(node.func)}()"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_only_framing_makes_bytes_durable():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative == "storage/framing.py":
            continue
        if (relative, None) in NOT_THE_MECHANISM:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for function, call in _durability_calls(tree):
            if (relative, function) not in NOT_THE_MECHANISM:
                offenders.append(f"{relative}: {function}: {call}")
    assert offenders == []


def test_the_allowlist_names_only_sites_that_exist():
    for relative, function in sorted(
        NOT_THE_MECHANISM, key=lambda site: (site[0], site[1] or "")
    ):
        tree = ast.parse((SRC / relative).read_text(encoding="utf-8"))
        functions = {function for function, _ in _durability_calls(tree)}
        assert functions, relative
        if function is not None:
            assert function in functions, (relative, function)


def _hook_assignments(tree):
    """``(class name, target)`` for each ``*_hook`` a class assigns, as
    a class attribute or on an instance inside one of its methods."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                name = getattr(target, "attr", getattr(target, "id", ""))
                if name.endswith("_hook"):
                    found.append((cls.name, ast.unparse(target)))
    return found


def test_no_class_carries_a_hook():
    """Stable state changes only through the cache manager's installs;
    a settable ``*_hook`` on a store or log would be a second path (a
    test that wants to crash a step patches the step itself)."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for cls, target in _hook_assignments(tree):
            offenders.append(f"{path.relative_to(SRC)}: {cls}: {target}")
    assert offenders == []


#: Where a stable store may be written: the cache manager's installs,
#: the stores and flush mechanisms themselves, and recovery's re-apply
#: of a committed flush transaction.
STORE_WRITERS = ("cache/", "storage/", "core/recovery.py")
STORE_MUTATORS = frozenset({"write", "write_many", "delete", "restore_versions"})


def _store_mutations(tree):
    """Line numbers of every ``<...>store.write / write_many / delete /
    restore_versions(...)`` call."""
    found = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in STORE_MUTATORS
        ):
            continue
        receiver = node.func.value
        name = getattr(receiver, "attr", getattr(receiver, "id", ""))
        if name.endswith("store"):
            found.append(node.lineno)
    return sorted(found)


def _store_writer(relative):
    return any(
        relative == site or (site.endswith("/") and relative.startswith(site))
        for site in STORE_WRITERS
    )


def test_no_store_write_outside_the_installers():
    """Only the cache manager's installs (and the layers beneath them)
    change a stable store; a second installer beside them writes in an
    order the write graph never approved."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if _store_writer(relative):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for lineno in _store_mutations(tree):
            offenders.append(f"{relative}:{lineno}")
    assert offenders == []


def test_the_store_scan_sees_a_store_write():
    tree = ast.parse(
        "system.store.write(obj, value, vsi)\n"
        "self.store.delete(obj)\n"
        "store.write_many(versions, atomic=True)\n"
        "target_store.restore_versions(versions)\n"
        "handle.write(data)\n"
        "fs.delete(path)\n"
        "store.read(obj)\n"
    )
    assert _store_mutations(tree) == [1, 2, 3, 4]
    for site in ("cache/cache_manager.py", "core/recovery.py"):
        tree = ast.parse((SRC / site).read_text(encoding="utf-8"))
        assert _store_mutations(tree), site
    assert not _store_writer("replica/witness.py")
    assert not _store_writer("core/redo.py")


#: The modules that may build the recovery ladder: the torture harness's
#: runs, a database's open, and a served shard's one driver
#: (``_Shard.supervise``), which startup, revive, a mid-serve crash and
#: the witness's redo cycle and promotion all go through.
LADDER_BUILDERS = (
    "kernel/torture.py", "persist/database.py", "serve/worker.py",
)


def _ladder_constructions(tree):
    """Line numbers of every ``RecoverySupervisor(...)`` call."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None))
        == "RecoverySupervisor"
    )


def test_one_serving_side_recovery_driver():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative in LADDER_BUILDERS:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for lineno in _ladder_constructions(tree):
            offenders.append(f"{relative}:{lineno}")
    assert offenders == []


def test_the_ladder_scan_sees_a_ladder():
    tree = ast.parse(
        "RecoverySupervisor(system).run()\n"
        "supervisor.RecoverySupervisor(system, config=c)\n"
        "RecoverySupervisorish(system)\n"
    )
    assert _ladder_constructions(tree) == [1, 2]
    for relative in LADDER_BUILDERS:
        tree = ast.parse((SRC / relative).read_text(encoding="utf-8"))
        assert _ladder_constructions(tree), relative


def test_the_hook_scan_sees_a_hook():
    tree = ast.parse(
        "class Store:\n"
        "    flush_hook = None\n"
        "    def __init__(self):\n"
        "        self.compaction_hook: object = lambda stage: None\n"
    )
    assert _hook_assignments(tree) == [
        ("Store", "flush_hook"), ("Store", "self.compaction_hook"),
    ]
