"""Group-commit WAL: force_through edge cases and the saves ledger.

With ``group_commit`` on, a prefix force that must touch the device
widens to the whole buffer; later force requests for the records that
rode along are satisfied without a device write and counted in
``log_force_saves``.  These tests pin the edge cases — empty buffer,
lsi below the buffer start, mid-buffer cuts, repeated forces of one
prefix — for both settings, plus the transient-fault retry path and
end-to-end recovery on the E8a workload.
"""

from __future__ import annotations

import random

import pytest

from repro.common.identifiers import NULL_SI
from repro.kernel.system import RecoverableSystem, SystemConfig
from repro.kernel.verify import verify_recovered
from repro.storage.faults import FaultKind, FaultModel, FaultSpec
from repro.wal.faulty_log import FaultyLog
from repro.wal.log_manager import LogManager
from repro.workloads import (
    LogicalWorkload,
    LogicalWorkloadConfig,
    register_workload_functions,
)
from tests.conftest import physical


def _filled(group_commit: bool, count: int = 5):
    """A log manager with ``count`` buffered operation records."""
    log = LogManager(group_commit=group_commit)
    lsis = [
        log.append_operation(physical(f"x{i}", b"v", name=f"op{i}"))
        for i in range(count)
    ]
    return log, lsis


@pytest.mark.parametrize("group_commit", [False, True])
class TestForceThroughEdges:
    def test_empty_buffer_is_a_noop(self, group_commit):
        log = LogManager(group_commit=group_commit)
        log.force_through(7)
        assert log.stats.log_forces == 0
        assert log.stats.log_force_saves == 0
        assert log.stable_end_lsi() == NULL_SI

    def test_lsi_below_buffer_start(self, group_commit):
        log, lsis = _filled(group_commit)
        log.force_through(lsis[1])
        forces = log.stats.log_forces
        # Everything through lsis[1] is stable; re-requesting any part
        # of that prefix must not force again.
        log.force_through(lsis[0])
        log.force_through(lsis[1])
        assert log.stats.log_forces == forces
        assert log.is_stable(lsis[1])

    def test_below_start_never_counts_a_save(self, group_commit):
        log, lsis = _filled(group_commit)
        log.force_through(lsis[2])
        saves = log.stats.log_force_saves
        # lsis[0] was *explicitly requested* before (it is part of the
        # requested prefix), so satisfying it again saves nothing.
        log.force_through(lsis[0])
        assert log.stats.log_force_saves == saves

    def test_mid_buffer_cut(self, group_commit):
        log, lsis = _filled(group_commit)
        log.force_through(lsis[2])
        assert log.stats.log_forces == 1
        assert log.is_stable(lsis[2])
        if group_commit:
            # The whole buffer rode along on the one force.
            assert log.buffered_lsis() == []
            assert log.stable_end_lsi() == lsis[-1]
        else:
            # Exact prefix semantics: the tail stays volatile.
            assert log.buffered_lsis() == lsis[3:]
            assert log.stable_end_lsi() == lsis[2]

    def test_repeated_forces_of_same_prefix(self, group_commit):
        log, lsis = _filled(group_commit)
        for _ in range(3):
            log.force_through(lsis[2])
        assert log.stats.log_forces == 1

    def test_stable_buffer_invariant(self, group_commit):
        log, lsis = _filled(group_commit)
        log.force_through(lsis[3])
        stable = [r.lsi for r in log.stable_records()]
        # Stable + buffer is always the full lsi sequence, in order.
        assert stable + log.buffered_lsis() == lsis
        assert stable == sorted(stable)


class TestGroupCommitSaves:
    def test_ride_along_counts_one_save_once(self):
        log, lsis = _filled(True)
        log.force_through(lsis[1])
        assert log.stats.log_forces == 1
        assert log.stats.log_force_saves == 0
        # lsis[4] became stable by riding along; its first request is
        # the saved force — and only the first.
        log.force_through(lsis[4])
        assert log.stats.log_forces == 1
        assert log.stats.log_force_saves == 1
        log.force_through(lsis[4])
        assert log.stats.log_forces == 1
        assert log.stats.log_force_saves == 1

    def test_intermediate_request_then_higher(self):
        log, lsis = _filled(True)
        log.force_through(lsis[0])
        log.force_through(lsis[2])  # saved: rode along
        log.force_through(lsis[4])  # saved: rode along
        assert log.stats.log_forces == 1
        assert log.stats.log_force_saves == 2

    def test_off_never_saves(self):
        log, lsis = _filled(False)
        log.force_through(lsis[1])
        log.force_through(lsis[4])
        assert log.stats.log_forces == 2
        assert log.stats.log_force_saves == 0

    def test_full_force_is_not_a_save(self):
        log, lsis = _filled(True)
        log.force()
        log.force_through(lsis[4])
        assert log.stats.log_forces == 1
        assert log.stats.log_force_saves == 0

    def test_crashed_records_never_count(self):
        log, lsis = _filled(True)
        log.force_through(lsis[0])
        more = log.append_operation(physical("y", b"v", name="late"))
        log.crash()
        # ``more`` died in the buffer; requesting it is neither a
        # force (nothing to write) nor a save (it is not stable).
        log.force_through(more)
        assert not log.is_stable(more)
        assert log.stats.log_force_saves == 0
        assert log.stats.log_forces == 1

    def test_config_knob_threads_to_log(self):
        assert RecoverableSystem(SystemConfig()).log.group_commit is False
        system = RecoverableSystem(SystemConfig(group_commit=True))
        assert system.log.group_commit is True


class TestFaultyGroupCommit:
    def test_transient_retry_single_force(self):
        model = FaultModel([FaultSpec(0, FaultKind.TRANSIENT, times=2)])
        log = FaultyLog(model)
        log.group_commit = True
        lsis = [
            log.append_operation(physical(f"x{i}", b"v", name=f"op{i}"))
            for i in range(4)
        ]
        log.force_through(lsis[1])
        # The widened force retried through the transient fault and
        # still counts as one force; the ride-along still saves.
        assert log.stats.fault_retries == 2
        assert log.stats.log_forces == 1
        assert log.buffered_lsis() == []
        log.force_through(lsis[3])
        assert log.stats.log_forces == 1
        assert log.stats.log_force_saves == 1


@pytest.mark.parametrize("group_commit", [False, True])
class TestShutdownRacesGroupCommit:
    """SIGTERM-equivalent shutdown racing the group-commit buffer.

    Graceful daemon shutdown ends with a full ``log.force()`` so that
    records still riding in the group-commit buffer reach the device
    before the process exits.  These tests pin both halves of that
    contract: the final force drains the buffer on the clean path, and
    when the force itself tears (the device dies mid-drain), recovery
    still honors every *acked* write — the torn tail only ever costs
    unacknowledged ride-alongs.
    """

    def _served(self, group_commit, log=None):
        from repro.serve import DaemonClient, DaemonConfig, RetryPolicy, ServeDaemon

        system = RecoverableSystem(
            SystemConfig(group_commit=group_commit), log=log
        )
        daemon = ServeDaemon(
            system, DaemonConfig(port=0, http_port=None)
        ).start()
        client = DaemonClient(
            "127.0.0.1", daemon.port, policy=RetryPolicy(attempts=1)
        )
        return system, daemon, client

    def test_graceful_stop_drains_ride_alongs(self, group_commit):
        system, daemon, client = self._served(group_commit)
        acked = [(f"o{i}", client.put(f"o{i}", b"acked")) for i in range(3)]
        # Buffered, never-forced records at shutdown time: appended via
        # the kernel directly while the daemon's queue is idle, the way
        # a crashed-out request or background writer would leave them.
        late_op = physical("late", b"tail", name="late")
        system.execute(late_op)
        late = late_op.lsi
        assert late in system.log.buffered_lsis()
        assert daemon.stop(graceful=True) == 0
        # The shutdown force drained everything, acked or not.
        assert system.log.buffered_lsis() == []
        for _obj, lsi in acked:
            assert system.log.is_stable(lsi)
        assert system.log.is_stable(late)

    def test_torn_shutdown_force_loses_no_acked_write(self, group_commit):
        model = FaultModel(
            [FaultSpec(0, FaultKind.TORN)], armed=False
        )
        log = FaultyLog(model)
        system, daemon, client = self._served(group_commit, log=log)
        acked = [
            (f"o{i}", b"acked", client.put(f"o{i}", b"acked"))
            for i in range(3)
        ]
        client.close()
        system.execute(physical("late", b"tail", name="late"))
        # Arm the model now: the next device write is the shutdown
        # force, and it tears.
        model.armed = True
        assert daemon.stop(graceful=True) == 1
        # The torn tail is a recoverable condition, not a loss: after
        # crash + recovery every acked write is visible at (or past)
        # its acked lSI.
        system.crash()
        system.recover()
        for obj, value, lsi in acked:
            assert system.read(obj) == value
            assert system.cache.vsi_of(obj) >= lsi
        # The unacked ride-along died in the torn suffix — permitted,
        # because no client was ever told it was durable.
        assert system.read("late") is None


def _e8a_system(group_commit: bool, seed: int) -> RecoverableSystem:
    rng = random.Random(seed)
    system = RecoverableSystem(SystemConfig(group_commit=group_commit))
    register_workload_functions(system.registry)
    workload = LogicalWorkload(
        LogicalWorkloadConfig(
            objects=6, operations=60, object_size=64,
            w_physical=0.1, w_touch=0.15, w_combine=0.45, w_derive=0.3,
        ),
        seed=seed,
    )
    for op in workload.operations():
        system.execute(op)
        if rng.random() < 0.3:
            system.purge()
    system.flush_all()
    return system


@pytest.mark.parametrize("group_commit", [False, True])
def test_e8a_recovers_both_settings(group_commit):
    system = _e8a_system(group_commit, seed=2)
    system.crash()
    system.recover()
    verify_recovered(system)


def test_group_commit_reduces_forces_on_e8a():
    off = _e8a_system(False, seed=0).stats
    on = _e8a_system(True, seed=0).stats
    assert on.log_forces < off.log_forces
    assert on.log_force_saves > 0
    assert on.log_forces + on.log_force_saves == off.log_forces
