"""Torn-tail handling of the file-backed WAL (repro.persist.file_log).

These tests damage ``wal.log`` directly — byte surgery, not the fault
model — and assert the WAL's own policy on top of the shared frame
mechanism: replay stops at the first bad frame, everything behind it is
dropped, and the file is truncated back to the last good one.  The
torn-tail shapes themselves (split header, short payload, zero header,
idempotent repair) are asserted once, for both on-disk layouts, in
``tests/test_framed_file.py``.
"""

import os

import pytest

from repro.kernel.system import RecoverableSystem, SystemConfig
from repro.persist.file_log import FileLogManager
from repro.persist.faulty_log import FaultyFileLog
from repro.storage.framing import HEADER as _HEADER
from repro.storage.faults import FaultCrash, FaultKind, FaultModel, FaultSpec
from repro.wal.records import OperationRecord
from repro.workloads import register_workload_functions
from tests.conftest import physical


def _write_records(path, names):
    system = RecoverableSystem(
        SystemConfig(), log=FileLogManager(path)
    )
    register_workload_functions(system.registry)
    for name in names:
        system.execute(physical(name, name.encode()))
    system.log.force()
    return system


def _frames(log_file):
    """(offset, length) of every well-formed frame in the file."""
    with open(log_file, "rb") as handle:
        data = handle.read()
    frames = []
    offset = 0
    while offset + _HEADER.size <= len(data):
        length, _ = _HEADER.unpack_from(data, offset)
        end = offset + _HEADER.size + length
        if end > len(data):
            break
        frames.append((offset, end - offset))
        offset = end
    return frames


def _op_names(log):
    return [
        record.op.name
        for record in log.stable_records()
        if isinstance(record, OperationRecord)
    ]


class TestTornTail:
    def test_crc_mismatch_in_middle_frame_stops_replay_there(self, tmp_path):
        root = str(tmp_path)
        _write_records(root, ["x", "y", "z"])
        log_file = os.path.join(root, "wal.log")
        frames = _frames(log_file)
        assert len(frames) >= 3
        # Flip one payload bit of the SECOND frame.
        offset, _ = frames[1]
        with open(log_file, "r+b") as handle:
            pos = offset + _HEADER.size + 1
            handle.seek(pos)
            byte = handle.read(1)[0]
            handle.seek(pos)
            handle.write(bytes([byte ^ 0x01]))
        log = FileLogManager(root)
        # Replay keeps frame 1 only: everything from the bad frame on
        # (including the intact third frame) is gone — a log is a
        # prefix-valid structure, not a hole-tolerant one.
        assert _op_names(log) == ["wp(x)"]
        assert os.path.getsize(log_file) == frames[0][1]


class TestFaultyFileLog:
    def test_torn_force_lands_prefix_and_crash_repairs(self, tmp_path):
        root = str(tmp_path)
        model = FaultModel([FaultSpec(0, FaultKind.TORN)])
        system = RecoverableSystem(
            SystemConfig(), log=FaultyFileLog(root, model)
        )
        register_workload_functions(system.registry)
        system.execute(physical("x", b"1"))
        system.execute(physical("y", b"2"))
        with pytest.raises(FaultCrash):
            system.log.force()
        log_file = os.path.join(root, "wal.log")
        # On disk: x's whole frame plus half of y's.
        torn_size = os.path.getsize(log_file)
        assert torn_size > sum(length for _, length in _frames(log_file))
        model.armed = False
        system.crash()
        system.recover()
        assert system.peek("x") == b"1"
        assert system.peek("y") is None
        # The simulated restart repaired the tail.
        assert os.path.getsize(log_file) == sum(
            length for _, length in _frames(log_file)
        )
        # And a real re-open agrees with the in-memory survivor set.
        assert _op_names(FileLogManager(root)) == ["wp(x)"]

    def test_transient_force_retried_invisibly(self, tmp_path):
        root = str(tmp_path)
        model = FaultModel([FaultSpec(0, FaultKind.TRANSIENT, times=2)])
        system = RecoverableSystem(
            SystemConfig(), log=FaultyFileLog(root, model)
        )
        register_workload_functions(system.registry)
        system.execute(physical("x", b"1"))
        system.log.force()
        assert system.stats.fault_retries == 2
        assert _op_names(FileLogManager(root)) == ["wp(x)"]
