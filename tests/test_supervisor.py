"""The recovery supervisor: restartable recovery, the escalation
ladder, budgets, and degraded read-only mode (repro.kernel.supervisor).

The torture-v2 campaigns sweep the whole fault space; these tests pin
each ladder rung individually with explicit schedules so a regression
names the rung it broke.
"""

from __future__ import annotations

import pytest

from repro.common.errors import DegradedModeError
from repro.kernel.backup_manager import BackupManager
from repro.kernel.supervisor import (
    FailureReport,
    RecoverySupervisor,
    SupervisorConfig,
)
from repro.kernel.system import (
    RecoverableSystem,
    SystemConfig,
    SystemHealth,
)
from repro.storage.faults import (
    RECOVERY_PHASE,
    FaultKind,
    FaultModel,
    FaultSpec,
)
from repro.storage.faultwrap import FaultyStore
from repro.storage.stable_store import StoredVersion
from repro.wal.faulty_log import FaultyLog
from repro.workloads import register_workload_functions
from tests.conftest import physical


def _system(model):
    system = RecoverableSystem(
        SystemConfig(), store=FaultyStore(model), log=FaultyLog(model)
    )
    register_workload_functions(system.registry)
    return system


def _crashed_workload(model, operations=8, with_backup=True):
    """A small durable workload, crashed, model switched to the
    recovery phase — ready for supervised recovery."""
    system = _system(model)
    backup = BackupManager(system).take_backup() if with_backup else None
    for index in range(operations):
        system.execute(physical(f"obj:{index % 4}", b"v%d" % index))
    system.log.force()
    system.flush_all()
    system.crash()
    model.enter_phase(RECOVERY_PHASE)
    return system, backup


def _recovery_specs(*pairs):
    return [
        FaultSpec(point, kind, phase=RECOVERY_PHASE)
        for point, kind in pairs
    ]


class TestLadderRungs:
    def test_clean_run_converges_first_attempt(self):
        model = FaultModel()
        system, backup = _crashed_workload(model)
        report = RecoverySupervisor(system, backup=backup).run()
        assert report.converged
        assert report.attempts_used == 1
        assert report.final_health is SystemHealth.HEALTHY
        assert system.health is SystemHealth.HEALTHY
        assert report.objects_lost == []
        assert report.attempts[0].outcome == "converged"
        assert report.attempts[0].escalation == "none"
        assert system.last_failure_report is report

    def test_crash_mid_recovery_restarts(self):
        model = FaultModel(
            _recovery_specs((1, FaultKind.CRASH))
        )
        system, backup = _crashed_workload(model)
        report = RecoverySupervisor(system, backup=backup).run()
        assert report.converged
        assert report.attempts_used == 2
        assert [r.outcome for r in report.attempts] == [
            "crashed", "converged",
        ]
        assert [r.escalation for r in report.attempts] == [
            "restart", "none",
        ]
        assert system.stats.recovery_restarts == 1
        assert report.fault_trace() == ["crash@r1"]
        assert system.peek("obj:0") is not None

    def test_nested_crashes_converge(self):
        """Three crashes kill three successive attempts (continuous
        recovery-phase numbering); the fourth converges."""
        model = FaultModel(
            _recovery_specs(
                (0, FaultKind.CRASH),
                (2, FaultKind.CRASH),
                (4, FaultKind.CRASH),
            )
        )
        system, backup = _crashed_workload(model)
        report = RecoverySupervisor(system, backup=backup).run()
        assert report.converged
        assert report.attempts_used == 4
        assert system.stats.recovery_restarts == 3
        assert system.health is SystemHealth.HEALTHY

    def test_transient_log_scan_escalates_to_retry_rung(self):
        """Log scans are unwrapped faultable I/O (no inner retry), so
        a transient there surfaces from recover() and the supervisor's
        retry rung must absorb the burst — one failure per attempt."""
        spec = FaultSpec(
            1, FaultKind.TRANSIENT, times=2, phase=RECOVERY_PHASE
        )
        model = FaultModel([spec])
        system, backup = _crashed_workload(model)
        report = RecoverySupervisor(system, backup=backup).run()
        assert report.converged
        assert [r.outcome for r in report.attempts] == [
            "transient", "transient", "converged",
        ]
        assert report.attempts[0].escalation == "retry"
        assert system.health is SystemHealth.HEALTHY

    def test_media_restore_rung_heals_rotten_object(self):
        """Silent rot found during recovery: quarantine + backup
        restore converge back to HEALTHY with nothing lost."""
        model = FaultModel(armed=False)
        system, backup = _crashed_workload(model)
        victim = "obj:1"
        good = system.store._versions[victim]
        system.store._versions[victim] = StoredVersion(
            b"\x00ROT\x00", good.vsi
        )
        report = RecoverySupervisor(system, backup=backup).run()
        assert report.converged
        assert report.final_health is SystemHealth.HEALTHY
        assert report.objects_lost == []
        assert victim in report.objects_restored
        assert system.stats.quarantines >= 1
        assert system.peek(victim) is not None


class TestDegradedMode:
    def _degrade(self):
        """Unrecoverable loss: rot an object whose derivation is off
        the log (checkpoint truncation) with no backup to restore."""
        model = FaultModel(armed=False)
        system = _system(model)
        for index in range(8):
            system.execute(physical(f"obj:{index % 4}", b"v%d" % index))
        system.flush_all()
        system.checkpoint(truncate=True)
        victim = "obj:1"
        good = system.store._versions[victim]
        system.store._versions[victim] = StoredVersion(
            b"\x00ROT\x00", good.vsi
        )
        system.crash()
        model.enter_phase(RECOVERY_PHASE)
        report = RecoverySupervisor(system).run()
        return system, report, victim

    def test_unrecoverable_loss_lands_degraded(self):
        system, report, victim = self._degrade()
        assert report.converged
        assert report.final_health is SystemHealth.DEGRADED
        assert report.objects_lost == [victim]
        assert report.attempts[-1].escalation == "degrade"
        assert victim in system.lost_objects

    def test_degraded_reads_survivors_rejects_lost_and_writes(self):
        system, report, victim = self._degrade()
        # Intact objects stay readable.
        assert isinstance(system.read("obj:0"), bytes)
        # The lost object and all writes are refused, loudly.
        with pytest.raises(DegradedModeError):
            system.read(victim)
        with pytest.raises(DegradedModeError):
            system.execute(physical("obj:0", b"new"))


class TestBudgets:
    def test_attempt_budget_exhaustion_fails(self):
        model = FaultModel(
            _recovery_specs(
                (0, FaultKind.CRASH),
                (1, FaultKind.CRASH),
                (2, FaultKind.CRASH),
            )
        )
        system, backup = _crashed_workload(model)
        config = SupervisorConfig(max_attempts=2)
        report = RecoverySupervisor(system, backup=backup, config=config).run()
        assert not report.converged
        assert report.attempts_used == 2
        assert report.final_health is SystemHealth.FAILED
        assert system.health is SystemHealth.FAILED

    def test_restarts_never_sleep(self, monkeypatch):
        def boom(_):
            raise AssertionError("sleep must not be called")

        monkeypatch.setattr("time.sleep", boom)
        model = FaultModel(
            _recovery_specs((0, FaultKind.CRASH), (1, FaultKind.CRASH))
        )
        system, backup = _crashed_workload(model)
        report = RecoverySupervisor(system, backup=backup).run()
        assert report.converged
        assert report.attempts_used == 3


class TestFailureReport:
    def test_report_carries_fault_trace_and_budget(self):
        model = FaultModel(_recovery_specs((0, FaultKind.CRASH)))
        system, backup = _crashed_workload(model)
        report = RecoverySupervisor(system, backup=backup).run()
        assert isinstance(report, FailureReport)
        assert report.max_attempts == 16
        assert report.elapsed >= 0.0
        assert report.fault_trace() == ["crash@r0"]
        assert "converged in 2/16 attempts" in report.summary()

    def test_failure_summary_renders(self):
        from repro.analysis import failure_summary

        model = FaultModel(_recovery_specs((1, FaultKind.CRASH)))
        system, backup = _crashed_workload(model)
        report = RecoverySupervisor(system, backup=backup).run()
        text = failure_summary(report).render()
        assert "crash@r1" in text
        assert "converged" in text
        assert "healthy" in text
