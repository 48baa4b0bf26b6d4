"""Prefix forces of the WAL and the served committer's shutdown force.

``force_through`` forces exactly the buffer prefix up to the requested
lSI — what PurgeCache states.  These tests pin its edge cases (empty
buffer, lsi below the buffer start, mid-buffer cuts, repeated forces of
one prefix, crashed records), the transient-fault retry of a forced
prefix, the daemon's graceful-stop force, and end-to-end recovery on the
E8a workload.
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


def _filled(count: int = 5):
    """A log manager with ``count`` buffered operation records."""
    log = LogManager()
    lsis = [
        log.append_operation(physical(f"x{i}", b"v", name=f"op{i}"))
        for i in range(count)
    ]
    return log, lsis


class TestForceThroughEdges:
    @pytest.mark.parametrize("crashed", [False, True], ids=["fresh", "crashed"])
    def test_empty_buffer_is_a_noop(self, crashed):
        log, lsis = _filled(5 if crashed else 0)
        if crashed:
            log.force_through(lsis[0])
            log.crash()
        # Nothing is buffered (never appended, or lost in the crash), so
        # a request has nothing to write and makes nothing stable.
        log.force_through(7)
        assert log.stats.log_forces == (1 if crashed else 0)
        assert log.stable_end_lsi() == (lsis[0] if crashed else NULL_SI)

    @pytest.mark.parametrize("full", [False, True], ids=["prefix", "full"])
    def test_lsi_below_buffer_start(self, full):
        log, lsis = _filled()
        if full:
            log.force()
        else:
            log.force_through(lsis[1])
        # Everything forced is stable; re-requesting any part of it must
        # not force again.
        for record in log.stable_records():
            log.force_through(record.lsi)
        assert log.stats.log_forces == 1
        assert log.is_stable(lsis[1])

    @pytest.mark.parametrize("cuts", [(2,), (0, 2, 4)], ids=["one", "rising"])
    def test_mid_buffer_cut(self, cuts):
        log, lsis = _filled()
        for forces, index in enumerate(cuts, start=1):
            log.force_through(lsis[index])
            # Exact prefix semantics: each higher request is one more
            # force, and the tail past it stays volatile.
            assert log.stats.log_forces == forces
            assert log.is_stable(lsis[index])
            assert log.buffered_lsis() == lsis[index + 1:]
            assert log.stable_end_lsi() == lsis[index]

    def test_repeated_forces_of_same_prefix(self):
        log, lsis = _filled()
        for _ in range(3):
            log.force_through(lsis[2])
        assert log.stats.log_forces == 1

    def test_stable_buffer_invariant(self):
        log, lsis = _filled()
        log.force_through(lsis[3])
        stable = [r.lsi for r in log.stable_records()]
        # Stable + buffer is always the full lsi sequence, in order.
        assert stable + log.buffered_lsis() == lsis
        assert stable == sorted(stable)


class TestFaultyPrefixForce:
    @pytest.mark.parametrize("times", [1, 2])
    def test_transient_retry_counts_one_force(self, times):
        model = FaultModel([FaultSpec(0, FaultKind.TRANSIENT, times=times)])
        log = FaultyLog(model)
        lsis = [
            log.append_operation(physical(f"x{i}", b"v", name=f"op{i}"))
            for i in range(4)
        ]
        log.force_through(lsis[1])
        # A transient retry of a forced prefix counts one force and one
        # retry per fault, and forces that prefix only.
        assert log.stats.fault_retries == times
        assert log.stats.log_forces == 1
        assert log.stable_end_lsi() == lsis[1]
        assert log.buffered_lsis() == lsis[2:]
        # The fault is spent; the tail forces clean after it.
        log.force_through(lsis[3])
        assert log.stats.fault_retries == times
        assert log.stats.log_forces == 2
        assert [r.lsi for r in log.stable_records()] == lsis


class TestShutdownRacesGroupCommit:
    """SIGTERM-equivalent shutdown racing the committer's log buffer.

    Graceful daemon shutdown ends with a full ``log.force()`` so that
    records still riding in the log buffer reach the device before the
    process exits.  These tests pin both halves of that contract: the
    final force drains the buffer on the clean path, and when the force
    itself tears (the device dies mid-drain), recovery still honors
    every *acked* write — the torn tail only ever costs unacknowledged
    ride-alongs.
    """

    def _served(self, log=None):
        from repro.serve import DaemonClient, DaemonConfig, RetryPolicy, ServeDaemon

        system = RecoverableSystem(SystemConfig(), log=log)
        daemon = ServeDaemon(
            system, DaemonConfig(port=0, http_port=None)
        ).start()
        client = DaemonClient(
            "127.0.0.1", daemon.port, policy=RetryPolicy(attempts=1)
        )
        return system, daemon, client

    def test_graceful_stop_drains_ride_alongs(self):
        system, daemon, client = self._served()
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

    def test_torn_shutdown_force_loses_no_acked_write(self):
        model = FaultModel(
            [FaultSpec(0, FaultKind.TORN)], armed=False
        )
        log = FaultyLog(model)
        system, daemon, client = self._served(log=log)
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


def _e8a_system(seed: int) -> RecoverableSystem:
    rng = random.Random(seed)
    system = RecoverableSystem(SystemConfig())
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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_e8a_recovers(seed):
    system = _e8a_system(seed=seed)
    system.crash()
    system.recover()
    verify_recovered(system)
