"""Unit tests for the WAL log manager (repro.wal.log_manager)."""

import pytest

from repro.common.errors import LogTruncationError, WALViolationError
from repro.common.identifiers import NULL_SI
from repro.core.operation import Operation, OpKind
from repro.storage import IOStats
from repro.storage.framing import pack_frame
from repro.wal.codec import encode_record
from repro.wal.log_manager import LogManager
from repro.wal.records import CheckpointRecord, LogRecord, OperationRecord


def _op(name: str = "op") -> Operation:
    return Operation(
        name,
        OpKind.PHYSICAL,
        reads=set(),
        writes={"x"},
        payload={"x": b"v"},
    )


class TestAppend:
    def test_lsis_monotonic_from_one(self):
        log = LogManager()
        first = log.append(LogRecord())
        second = log.append(LogRecord())
        assert first == NULL_SI + 1
        assert second == first + 1

    def test_append_operation_sets_op_lsi(self):
        log = LogManager()
        op = _op()
        lsi = log.append_operation(op)
        assert op.lsi == lsi

    def test_accounting(self):
        stats = IOStats()
        log = LogManager(stats)
        log.append_operation(_op())
        assert stats.log_records == 1
        assert stats.log_bytes > 0
        assert stats.log_value_bytes == 1  # the one payload byte


class TestForce:
    def test_records_volatile_until_forced(self):
        log = LogManager()
        lsi = log.append(LogRecord())
        assert not log.is_stable(lsi)
        log.force()
        assert log.is_stable(lsi)

    def test_force_through_prefix_only(self):
        log = LogManager()
        first = log.append(LogRecord())
        second = log.append(LogRecord())
        third = log.append(LogRecord())
        log.force_through(second)
        assert log.is_stable(first)
        assert log.is_stable(second)
        assert not log.is_stable(third)
        assert log.buffered_lsis() == [third]

    def test_force_counts_only_when_work_done(self):
        stats = IOStats()
        log = LogManager(stats)
        log.force()
        assert stats.log_forces == 0
        log.append(LogRecord())
        log.force()
        log.force()
        assert stats.log_forces == 1

    def test_force_through_before_buffer_is_noop(self):
        log = LogManager()
        lsi = log.append(LogRecord())
        log.force()
        log.append(LogRecord())
        log.force_through(lsi)  # already stable; nothing to do
        assert len(log.buffered_lsis()) == 1

    def test_assert_stable(self):
        log = LogManager()
        lsi = log.append(LogRecord())
        with pytest.raises(WALViolationError):
            log.assert_stable(lsi)
        log.force()
        log.assert_stable(lsi)
        log.assert_stable(NULL_SI)  # the null SI is vacuously stable


class TestCrash:
    def test_crash_drops_buffer_keeps_stable(self):
        log = LogManager()
        first = log.append(LogRecord())
        log.force()
        second = log.append(LogRecord())
        log.crash()
        assert log.is_stable(first)
        assert [r.lsi for r in log.stable_records()] == [first]
        assert log.buffered_lsis() == []
        # The lost lSI is never reused.
        third = log.append(LogRecord())
        assert third > second


class TestReading:
    def test_stable_records_from_lsi(self):
        log = LogManager()
        lsis = [log.append(LogRecord()) for _ in range(4)]
        log.force()
        got = [r.lsi for r in log.stable_records(from_lsi=lsis[2])]
        assert got == lsis[2:]

    def test_end_and_start_lsi(self):
        log = LogManager()
        assert log.stable_end_lsi() == NULL_SI
        lsis = [log.append(LogRecord()) for _ in range(3)]
        log.force()
        assert log.stable_end_lsi() == lsis[-1]
        assert log.stable_start_lsi() == lsis[0]


class TestStableRecordsBisect:
    """``stable_records(from_lsi)`` finds its start by bisect; the
    stable log ascends in lSI but, on a witness, with gaps."""

    def _gapped(self, lsis):
        log = LogManager()
        frames = []
        for lsi in lsis:
            record = OperationRecord(_op())
            record.lsi = lsi
            frames.append(pack_frame(encode_record(record)))
        assert log.adopt_records(b"".join(frames)) == len(lsis)
        return log

    def test_gapped_log_from_present_absent_and_out_of_range_lsis(self):
        lsis = [3, 4, 9, 10, 17, 40]
        log = self._gapped(lsis)
        for start in range(0, 45):
            got = [r.lsi for r in log.stable_records(from_lsi=start)]
            assert got == [lsi for lsi in lsis if lsi >= start], start
        assert [r.lsi for r in log.stable_records()] == lsis

    def test_after_truncation(self):
        lsis = [3, 4, 9, 10, 17, 40]
        log = self._gapped(lsis)
        # The cut lands in a gap: everything below 9 goes.
        assert log.truncate_before(7, redo_start=9) == 2
        for start in (0, 3, 8, 9, 11, 40, 41):
            got = [r.lsi for r in log.stable_records(from_lsi=start)]
            assert got == [lsi for lsi in lsis[2:] if lsi >= start], start
        assert log.truncate_before(41, redo_start=41) == 4
        assert list(log.stable_records(from_lsi=1)) == []

    def test_scan_sees_records_forced_while_it_is_open(self):
        # The sender iterates while the committer forces.
        log = LogManager()
        first = log.append(LogRecord())
        log.force()
        scan = log.stable_records(from_lsi=first)
        assert next(scan).lsi == first
        second = log.append(LogRecord())
        log.force()
        assert [r.lsi for r in scan] == [second]


class TestTruncation:
    def test_truncate_discards_prefix(self):
        log = LogManager()
        lsis = [log.append(LogRecord()) for _ in range(5)]
        log.force()
        dropped = log.truncate_before(lsis[2], redo_start=lsis[3])
        assert dropped == 2
        assert [r.lsi for r in log.stable_records()] == lsis[2:]

    def test_truncated_lsis_count_as_stable(self):
        log = LogManager()
        lsis = [log.append(LogRecord()) for _ in range(3)]
        log.force()
        log.truncate_before(lsis[2], redo_start=lsis[2])
        assert log.is_stable(lsis[0])

    def test_truncation_past_redo_start_refused(self):
        log = LogManager()
        lsis = [log.append(LogRecord()) for _ in range(3)]
        log.force()
        with pytest.raises(LogTruncationError):
            log.truncate_before(lsis[2], redo_start=lsis[1])


class TestFlushTransactionProtocol:
    def test_append_flush_transaction(self):
        from repro.storage.stable_store import StoredVersion

        log = LogManager()
        commit_lsi = log.append_flush_transaction(
            {"a": StoredVersion(b"v", 9)}
        )
        log.force()
        records = list(log.stable_records())
        assert records[-1].lsi == commit_lsi
        assert len(records) == 2  # values + commit


# ----------------------------------------------------------------------
# forcing off the appender's thread: the device write runs unlocked
# ----------------------------------------------------------------------
def _make_log(kind: str, tmp_path, model=None):
    from repro.persist.faulty_log import FaultyFileLog
    from repro.persist.file_log import FileLogManager
    from repro.storage.faults import FaultModel
    from repro.wal.faulty_log import FaultyLog

    model = model if model is not None else FaultModel([])
    if kind == "memory":
        return LogManager()
    if kind == "file":
        return FileLogManager(str(tmp_path))
    if kind == "faulty":
        return FaultyLog(model)
    return FaultyFileLog(str(tmp_path), model)


LOG_KINDS = ["memory", "file", "faulty", "faulty-file"]


@pytest.mark.parametrize("kind", LOG_KINDS)
class TestAppendDuringForce:
    def test_append_proceeds_while_the_device_write_is_blocked(
        self, kind, tmp_path
    ):
        import threading

        from tests.conftest import StalledForce

        log = _make_log(kind, tmp_path)
        first = log.append_operation(_op("first"))
        stall = StalledForce(log)
        forcer = threading.Thread(target=log.force)
        forcer.start()
        assert stall.entered.wait(timeout=5.0)
        # The forcer is inside _write_device: an append must not wait.
        appended = []
        appender = threading.Thread(
            target=lambda: appended.append(
                log.append_operation(_op("second"))
            )
        )
        appender.start()
        appender.join(timeout=2.0)
        assert appended == [first + 1]
        # Nothing is published until the device write returns.
        assert log.buffered_lsis() == [first, first + 1]
        assert not log.is_stable(first)
        stall.release.set()
        forcer.join(timeout=5.0)
        # The force published exactly the prefix it snapshotted.
        assert log.is_stable(first) and not log.is_stable(first + 1)
        assert log.buffered_lsis() == [first + 1]
        log.force()
        assert [r.lsi for r in log.stable_records()] == [first, first + 1]
        log.close()


def _reopened_lsis(tmp_path):
    from repro.persist.file_log import FileLogManager

    reopened = FileLogManager(str(tmp_path))
    try:
        return [record.lsi for record in reopened.stable_records()]
    finally:
        reopened.close()


@pytest.mark.parametrize("kind", LOG_KINDS)
@pytest.mark.parametrize("faults", ["clean", "transient"])
def test_concurrent_forcers_publish_in_order(kind, faults, tmp_path):
    """Appender/forcer threads racing on one log: the stable log (and
    the file's frames) come out in lSI order, none lost, none twice."""
    import sys
    import threading

    from repro.storage.faults import FaultKind, FaultModel, FaultSpec

    specs = (
        [FaultSpec(point, FaultKind.TRANSIENT, times=2)
         for point in range(1, 60, 5)]
        if faults == "transient" else []
    )
    log = _make_log(kind, tmp_path, FaultModel(specs))
    threads, per_thread = 4, 40
    errors = []

    def work(tid: int) -> None:
        try:
            for index in range(per_thread):
                lsi = log.append_operation(_op(f"t{tid}.{index}"))
                if index % 3 == 0:
                    log.force()
                else:
                    log.force_through(lsi)
                assert log.is_stable(lsi)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    workers = [
        threading.Thread(target=work, args=(tid,)) for tid in range(threads)
    ]
    # More workers than cores and a short switch interval: a lost
    # update between snapshot and publish would break the order below.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    expected = list(range(1, threads * per_thread + 1))
    assert [r.lsi for r in log.stable_records()] == expected
    assert log.buffered_lsis() == []
    log.close()
    if kind in ("file", "faulty-file"):
        assert _reopened_lsis(tmp_path) == expected


@pytest.mark.parametrize("kind", ["faulty", "faulty-file"])
def test_torn_force_under_concurrent_appends_keeps_a_prefix(kind, tmp_path):
    """A force that tears while appenders keep appending: after the
    crash the stable log is an in-order prefix of what was appended,
    and the file holds exactly that prefix."""
    import threading
    import time

    from repro.storage.faults import (
        FaultCrash,
        FaultKind,
        FaultModel,
        FaultSpec,
    )

    log = _make_log(
        kind, tmp_path, FaultModel([FaultSpec(6, FaultKind.TORN)])
    )
    halt = threading.Event()

    def appender(tid: int) -> None:
        index = 0
        while not halt.is_set():
            log.append_operation(_op(f"a{tid}.{index}"))
            index += 1

    appenders = [
        threading.Thread(target=appender, args=(tid,)) for tid in range(3)
    ]
    for thread in appenders:
        thread.start()
    try:
        deadline = time.monotonic() + 10.0
        with pytest.raises(FaultCrash):
            while time.monotonic() < deadline:
                log.force()
    finally:
        halt.set()
        for thread in appenders:
            thread.join(timeout=10.0)
    appended = len(log)
    log.crash()
    stable = [r.lsi for r in log.stable_records()]
    assert stable == list(range(1, len(stable) + 1))
    assert 0 < len(stable) < appended
    if kind == "faulty-file":
        log.close()
        assert _reopened_lsis(tmp_path) == stable


class _SilentWitness:
    """A witness connection that stays alive and drops every frame."""

    alive = True

    def send(self, frame) -> None:
        pass

    def close(self) -> None:
        pass


@pytest.mark.parametrize("cut", [1, 5])
def test_witness_repins_race_no_truncation(cut):
    """A replicating primary moves its truncation pin on a reader thread
    (every witness subscribe and ack) while the apply thread's online
    checkpoint truncates.  The checkpoint must neither fail nor cut
    past the pin: this witness holds nothing, so lSI 1 stays."""
    import sys
    import threading
    import time

    from repro.kernel.system import RecoverableSystem
    from repro.replica import wire
    from repro.replica.sender import ReplicationSender

    system = RecoverableSystem()
    sender = ReplicationSender(system)
    subscribe = wire.subscribe_frame(NULL_SI, sender.epoch)
    witness = _SilentWitness()
    halt = threading.Event()

    def resubscribe() -> None:
        while not halt.is_set():
            sender.handle_frame(witness, subscribe)

    log = system.log
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    thread = threading.Thread(target=resubscribe)
    thread.start()
    try:
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline and log.stable_start_lsi() == 1:
            log.truncate_before(cut, redo_start=cut)
    finally:
        halt.set()
        thread.join(timeout=10.0)
        sys.setswitchinterval(interval)
    assert log.stable_start_lsi() == 1
