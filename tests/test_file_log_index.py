"""The file is the stable log: FileLogManager holds an index, not records.

* a hypothesis differential against the in-memory ``LogManager`` (whose
  list *is* its device) over append / force / force_through / adopt /
  truncate / crash / reopen, record for record and frame for frame;
* reader vs. force and reader vs. truncation orderings, with threads
  and barriers (no sleeps);
* the restart path decodes each record once (the open snapshot), and a
  stable-log scan on a fault-injecting file log is the same ``log.scan``
  fault point the in-memory lane has;
* the ``wal`` / ``process`` collectors and the ``wal.scan`` histogram.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import RecoverableSystem, SystemConfig
from repro.common.errors import WALViolationError
from repro.kernel.supervisor import RecoverySupervisor
from repro.kernel.system import SystemHealth
from repro.obs import MetricsRegistry, process_memory
from repro.persist import FileLogManager, PersistentSystem
from repro.persist import file_log as file_log_module
from repro.persist.faulty_log import FaultyFileLog
from repro.storage.faults import (
    RECOVERY_PHASE,
    FaultKind,
    FaultModel,
    FaultSpec,
)
from repro.storage.framing import pack_frame
from repro.wal.codec import decode_record, encode_record
from repro.wal.log_manager import LogManager
from repro.wal.records import (
    CheckpointRecord,
    FlushRecord,
    LogRecord,
    OperationRecord,
)
from tests.conftest import examples, physical


def _record(kind: int, tag: int) -> LogRecord:
    if kind == 0:
        return CheckpointRecord({"x": tag + 1})
    if kind == 1:
        return FlushRecord(f"o{tag % 3}", tag)
    return OperationRecord(physical(f"o{tag % 3}", b"v%d" % tag))


def _encoded(records) -> list:
    return [encode_record(record) for record in records]


# ----------------------------------------------------------------------
# (a) differential against the in-memory log
# ----------------------------------------------------------------------
STEP = st.one_of(
    st.tuples(st.just("append"), st.integers(0, 2)),
    st.tuples(st.just("force"), st.just(0)),
    st.tuples(st.just("force_through"), st.integers(0, 3)),
    st.tuples(st.just("adopt"), st.integers(0, 3)),
    st.tuples(st.just("truncate"), st.integers(0, 4)),
    st.tuples(st.just("crash"), st.just(0)),
    st.tuples(st.just("reopen"), st.just(0)),
)


def _reopened(memory: LogManager) -> LogManager:
    """A restart of the in-memory log: its device (the list) survives,
    decoded afresh, and the next lSI follows the last stable one, as
    ``FileLogManager`` leaves it on open."""
    survivor = LogManager()
    survivor._stable = [
        decode_record(payload) for payload in _encoded(memory.stable_records())
    ]
    if survivor._stable:
        survivor._next_lsi = survivor._stable[-1].lsi + 1
    return survivor


def _same_log(on_disk: LogManager, memory: LogManager) -> None:
    assert len(on_disk) == len(memory)
    assert on_disk.stable_start_lsi() == memory.stable_start_lsi()
    end = memory.stable_end_lsi()
    assert on_disk.stable_end_lsi() == end
    assert on_disk.buffered_lsis() == memory.buffered_lsis()
    # Every start: below the retained prefix, on a record, in a gap,
    # past the end.
    for lsi in range(max(0, memory.stable_start_lsi() - 2), end + 3):
        assert on_disk.is_stable(lsi) == memory.is_stable(lsi)
        assert _encoded(on_disk.stable_records(lsi)) == _encoded(
            memory.stable_records(lsi)
        ), lsi
        assert list(on_disk.stable_frames(lsi)) == list(
            memory.stable_frames(lsi)
        ), lsi


@settings(max_examples=examples(60), deadline=None)
@given(steps=st.lists(STEP, max_size=30))
def test_file_log_equals_the_in_memory_log_step_for_step(
    tmp_path_factory, steps
):
    root = str(tmp_path_factory.mktemp("wal"))
    on_disk: LogManager = FileLogManager(root)
    memory = LogManager()
    logs = (on_disk, memory)
    try:
        for tag, (step, arg) in enumerate(steps):
            if step == "append":
                for log in logs:
                    log.append(_record(arg, tag))
            elif step == "force":
                for log in logs:
                    log.force()
            elif step == "force_through":
                for log in logs:
                    log.force_through(log.stable_end_lsi() + arg)
            elif step == "adopt":
                # A re-shipped duplicate, then fresh records with a gap.
                base = max(
                    memory.stable_end_lsi(), memory.stable_start_lsi() - 1
                )
                lsis = [base, base + 1 + arg, base + 3 + arg]
                for log in logs:
                    shipped = []
                    for lsi in lsis:
                        record = _record(2, lsi)
                        record.lsi = lsi
                        shipped.append(pack_frame(encode_record(record)))
                    shipped = b"".join(shipped)
                    if log.buffered_lsis():
                        with pytest.raises(WALViolationError):
                            log.adopt_records(shipped)
                    else:
                        log.adopt_records(shipped)
            elif step == "truncate":
                cut = max(1, memory.stable_end_lsi() + 2 - arg)
                dropped = [
                    log.truncate_before(cut, redo_start=cut) for log in logs
                ]
                assert dropped[0] == dropped[1]
            elif step == "crash":
                for log in logs:
                    log.crash()
            else:
                # A restart: the file is re-read; the in-memory device
                # "survives" by handing its stable records to a new log.
                on_disk.close()
                on_disk = FileLogManager(root)
                memory = _reopened(memory)
                logs = (on_disk, memory)
            _same_log(on_disk, memory)
    finally:
        on_disk.close()


# ----------------------------------------------------------------------
# (b) readers against a concurrent force and a concurrent truncation
# ----------------------------------------------------------------------
def _forced_log(root, count: int) -> FileLogManager:
    log = FileLogManager(str(root))
    for tag in range(count):
        log.append(_record(2, tag))
    log.force()
    return log


def _lsis(records) -> list:
    return [record.lsi for record in records]


def test_a_reader_sees_none_of_a_force_in_flight(tmp_path):
    """The forced bytes are on the file before they are published; a
    reader that starts in between stops at the last published frame."""
    log = _forced_log(tmp_path, 5)
    before = log.stable_records()  # started before the force
    on_file, publish = threading.Event(), threading.Event()
    append = log._file.append

    def stalled_append(data):
        offset = append(data)
        on_file.set()
        assert publish.wait(timeout=10.0)
        return offset

    log._file.append = stalled_append
    for tag in range(5, 8):
        log.append(_record(2, tag))
    forcer = threading.Thread(target=log.force)
    forcer.start()
    try:
        assert on_file.wait(timeout=10.0)
        during = log.stable_records()  # bytes landed, not yet published
        assert log.stable_end_lsi() == 5
        assert _lsis(during) == [1, 2, 3, 4, 5]
    finally:
        publish.set()
        forcer.join(timeout=10.0)
    assert not forcer.is_alive()
    assert _lsis(before) == [1, 2, 3, 4, 5]
    assert _lsis(log.stable_records()) == list(range(1, 9))
    log.close()


def test_a_reader_racing_a_truncation_reads_one_file_not_a_mix(tmp_path):
    """Truncation replaces the inode and rebases every offset.  A reader
    that took its offset before it keeps the old file to the end; one
    that starts after it reads the new file with the new offsets."""
    log = _forced_log(tmp_path, 40)
    old = log.stable_records(from_lsi=11)
    assert next(old).lsi == 11  # mid-scan when the file is replaced
    drawn, replaced = threading.Barrier(2), threading.Barrier(2)
    results = {}

    def truncator():
        drawn.wait(timeout=10.0)
        results["dropped"] = log.truncate_before(31, redo_start=31)
        replaced.wait(timeout=10.0)

    thread = threading.Thread(target=truncator)
    thread.start()
    drawn.wait(timeout=10.0)
    replaced.wait(timeout=10.0)
    thread.join(timeout=10.0)
    assert not thread.is_alive() and results["dropped"] == 30
    assert _lsis(old) == list(range(12, 41))
    assert _lsis(log.stable_records(from_lsi=11)) == list(range(31, 41))
    assert log.stable_start_lsi() == 31 and len(log) == 10
    log.close()


def test_readers_forces_and_truncations_interleave_safely(tmp_path):
    """Time-bounded stress: every scan a reader completes is one
    contiguous, correctly decoded run of lSIs ending at or past the
    stable end it saw before starting."""
    log = _forced_log(tmp_path, 20)
    stop = threading.Event()
    failures = []

    def reader():
        while not stop.is_set():
            floor = log.stable_end_lsi()
            records = list(log.stable_records())
            lsis = _lsis(records)
            ok = (
                lsis == list(range(lsis[0], lsis[0] + len(lsis)))
                and lsis[-1] >= floor
                and all(
                    record.op.payload
                    == {f"o{(record.lsi - 1) % 3}": b"v%d" % (record.lsi - 1)}
                    for record in records
                )
            )
            if not ok:
                failures.append(lsis)

    readers = [threading.Thread(target=reader) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in readers:
            thread.start()
        for tag in range(20, 320):
            log.append(_record(2, tag))
            log.force()
            if tag % 25 == 0:
                log.truncate_before(tag - 10, redo_start=tag - 10)
    finally:
        stop.set()
        for thread in readers:
            thread.join(timeout=30.0)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert not failures, failures[:3]
    assert log.stable_end_lsi() == 320
    log.close()


def test_a_published_frame_that_rots_fails_the_read_loudly(tmp_path):
    from repro.common.errors import CorruptObjectError

    log = _forced_log(tmp_path, 6)
    with open(log.path, "r+b") as handle:
        handle.seek(log._offsets[3] + 10)
        handle.write(b"\xff")
    assert _lsis(log.stable_records(from_lsi=5)) == [5, 6]
    with pytest.raises(CorruptObjectError, match="3 records"):
        list(log.stable_records())
    log.close()


# ----------------------------------------------------------------------
# (d) the restart path: one decode per record, then the file
# ----------------------------------------------------------------------
def test_restart_decodes_each_stable_record_once(tmp_path, monkeypatch):
    from repro.kernel.supervisor import SupervisorConfig

    killed = PersistentSystem.open(str(tmp_path))
    for i in range(2_000):
        killed.execute(physical(f"k{i % 50}", b"v%d" % i))
    killed.log.force()
    stable = len(killed.log)
    del killed  # SIGKILL: nothing flushed, nothing checkpointed

    calls = []
    monkeypatch.setattr(
        file_log_module,
        "decode_record",
        lambda payload: calls.append(1) or decode_record(payload),
    )
    system = PersistentSystem.open(
        str(tmp_path), supervisor_config=SupervisorConfig()
    )
    try:
        assert system.health is SystemHealth.HEALTHY
        assert system.last_report.ops_redone == 2_000
        assert len(calls) == stable == 2_000
        footprint = system.log.footprint()
        assert footprint["resident_records"] == footprint["stable_records"]
        # The snapshot dies with the first change of the log ...
        system.execute(physical("k0", b"after"))
        system.log.force()
        assert system.log.footprint()["resident_records"] == 0
        assert system.log._snapshot is None
        # ... and recovery run later in-process reads the file.
        system.crash()
        system.recover()
        assert len(calls) > 2 * stable
        assert system.peek("k0") == b"after"
    finally:
        system.close()


# ----------------------------------------------------------------------
# the log.scan fault point on a real directory
# ----------------------------------------------------------------------
def _crashed_file_system(root, model: FaultModel) -> RecoverableSystem:
    system = RecoverableSystem(
        SystemConfig(), log=FaultyFileLog(str(root), model)
    )
    for i in range(12):
        system.execute(physical(f"obj:{i % 4}", b"v%d" % i))
    system.log.force()
    system.crash()
    model.enter_phase(RECOVERY_PHASE)
    return system


def test_file_log_scans_are_numbered_fault_points(tmp_path):
    model = FaultModel()
    system = _crashed_file_system(tmp_path, model)
    system.recover()
    # One point per scan, not per record: analysis, then redo.
    assert model.points_in(RECOVERY_PHASE) == 2
    system.close()


def test_a_transient_scan_error_is_retried_by_the_supervisor(tmp_path):
    model = FaultModel(
        [FaultSpec(1, FaultKind.TRANSIENT, times=2, phase=RECOVERY_PHASE)]
    )
    system = _crashed_file_system(tmp_path, model)
    report = RecoverySupervisor(system).run()
    assert report.converged
    assert [r.outcome for r in report.attempts] == [
        "transient", "transient", "converged",
    ]
    assert report.attempts[0].escalation == "retry"
    assert system.health is SystemHealth.HEALTHY
    assert system.peek("obj:3") == b"v11"
    system.close()


def test_a_crash_mid_scan_restarts_recovery(tmp_path):
    model = FaultModel(
        [FaultSpec(0, FaultKind.CRASH, phase=RECOVERY_PHASE)]
    )
    system = _crashed_file_system(tmp_path, model)
    report = RecoverySupervisor(system).run()
    assert report.converged
    assert [r.outcome for r in report.attempts] == ["crashed", "converged"]
    assert report.attempts[0].escalation == "restart"
    assert system.stats.recovery_restarts == 1
    assert model.trace() == ["crash@r0"]
    assert system.peek("obj:3") == b"v11"
    system.close()


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
def test_wal_collector_and_scan_histogram(tmp_path):
    registry = MetricsRegistry()
    system = PersistentSystem.open(str(tmp_path), metrics=registry)
    try:
        for i in range(10):
            system.execute(physical("k", b"v%d" % i))
        counters = registry.snapshot()["counters"]
        assert counters["wal.stable_records"] == 0
        assert counters["wal.resident_records"] == 10  # the buffer
        system.log.force()
        counters = registry.snapshot()["counters"]
        assert counters["wal.stable_records"] == 10
        assert counters["wal.resident_records"] == 0
        assert counters["wal.stable_bytes"] == system.log._file.end > 0
        assert "wal.scan" not in registry.snapshot()["histograms"]
        system.crash()
        system.recover()  # analysis + redo: two device reads
        assert registry.snapshot()["histograms"]["wal.scan"]["count"] == 2
    finally:
        system.close()


def test_in_memory_log_reports_its_list_as_resident():
    system = RecoverableSystem()
    registry = system.attach_metrics()
    for i in range(3):
        system.execute(physical("k", b"v%d" % i))
    system.log.force()
    counters = registry.snapshot()["counters"]
    assert counters["wal.stable_records"] == 3
    assert counters["wal.resident_records"] == 3
    assert "wal.stable_bytes" not in counters


def test_process_memory_reads_proc_status():
    memory = process_memory()
    if not memory:
        pytest.skip("no /proc on this platform")
    assert 0 < memory["rss_mb"] <= memory["peak_rss_mb"]
