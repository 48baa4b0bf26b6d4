"""Restartable recovery supervision: the escalation ladder.

Recovery itself is idempotent (Theorem 2; :mod:`repro.core.recovery`'s
restartability note), but something still has to *drive* it when the
device keeps misbehaving while recovery runs: re-call ``recover()``
after a mid-recovery crash, decide when a corrupt read warrants
quarantine plus media restore, and — when objects are genuinely
unrecoverable — stop retrying and land the system somewhere safe
instead of looping forever.  That driver is the
:class:`RecoverySupervisor`, and its policy is an explicit escalation
ladder with budgets:

1. **bounded retry / restart** — a transient fault or an injected crash
   inside recovery is answered by running recovery again from scratch,
   at once (recovery is idempotent, so there is nothing to wait for);
2. **quarantine + media restore** — a checksum failure surfacing during
   recovery is left for the next attempt's pre-recovery scrub, which
   quarantines the damaged version and reinstates it from the backup
   image (when media restore is allowed) before widening the redo scan;
3. **degraded read-only mode** — when recovery converges but some
   quarantined objects never came back (no backup version, no
   log-reachable derivation), the system enters
   :attr:`~repro.kernel.system.SystemHealth.DEGRADED`: surviving
   objects stay readable, writes raise
   :class:`~repro.common.errors.DegradedModeError`;
4. **failed** — the attempt budget exhausted without convergence.

Every run produces a structured :class:`FailureReport` — the
per-attempt fault trace, each escalation decision, the objects lost and
restored, and how much of the attempt budget was consumed —
renderable via :func:`repro.analysis.logstats.failure_summary` and
surfaced by ``python -m repro torture``.

Lost-vs-restored classification uses the vSIs the damaged versions
*claimed*: torn/corrupt damage preserves the intended vSI, so after a
converged recovery an object is restored iff its current version is at
least that recent (``cache.vsi_of(obj) >= claimed``) — a later version
can only come from repeating history, and an older one (or none) means
the derivation was out of reach.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import (
    CorruptObjectError,
    SimulatedCrash,
    TransientStorageError,
)
from repro.common.identifiers import ObjectId, StateId
from repro.kernel.system import RecoverableSystem, SystemHealth
from repro.storage.backup import FuzzyBackup


@dataclass
class SupervisorConfig:
    """Budget and policy for one supervised recovery."""

    #: Total recovery attempts before declaring FAILED.
    max_attempts: int = 16
    #: Rung 2: reinstate quarantined objects from the backup image.
    #: Disabled by the degraded-mode campaigns to force object loss.
    allow_media_restore: bool = True


@dataclass
class AttemptRecord:
    """What one recovery attempt did and how the supervisor answered."""

    index: int
    #: "converged" | "crashed" | "transient" | "corrupt" | "latent-damage"
    outcome: str
    #: The ladder rung taken next: "none" | "restart" | "retry" |
    #: "quarantine+media-restore" | "re-recover" | "degrade"
    escalation: str
    error: str = ""
    #: Faults injected during this attempt, in schedule notation.
    faults: List[str] = field(default_factory=list)
    #: Objects this attempt's scrub quarantined.
    quarantined: List[ObjectId] = field(default_factory=list)


@dataclass
class FailureReport:
    """Structured outcome of one supervised recovery."""

    attempts: List[AttemptRecord] = field(default_factory=list)
    final_health: SystemHealth = SystemHealth.RECOVERING
    converged: bool = False
    objects_lost: List[ObjectId] = field(default_factory=list)
    objects_restored: List[ObjectId] = field(default_factory=list)
    max_attempts: int = 0
    elapsed: float = 0.0

    @property
    def attempts_used(self) -> int:
        return len(self.attempts)

    def fault_trace(self) -> List[str]:
        """All faults across all attempts, in order."""
        return [f for record in self.attempts for f in record.faults]

    def summary(self) -> str:
        """One status line, e.g. for the CLI."""
        state = self.final_health.value
        tail = ""
        if self.objects_lost:
            tail = f", lost {sorted(map(str, self.objects_lost))}"
        return (
            f"recovery {'converged' if self.converged else 'did not converge'}"
            f" in {self.attempts_used}/{self.max_attempts} attempts"
            f" ({len(self.fault_trace())} faults) -> {state}{tail}"
        )


class RecoverySupervisor:
    """Drives ``recover()`` to convergence (or a safe stop) on one system.

    The supervisor owns no recovery logic: each rung either re-enters
    :meth:`RecoverableSystem.recover` (whose pre-pass scrub performs
    quarantine and media restore) or moves the system's
    :class:`~repro.kernel.system.SystemHealth`.  Crucially it also
    re-scrubs *after* a nominally-converged attempt: a torn re-apply
    write during recovery that did not crash leaves latent stable
    damage, and converging on top of that would hand back a system
    whose next scrub finds garbage.
    """

    def __init__(
        self,
        system: RecoverableSystem,
        backup: Optional[FuzzyBackup] = None,
        config: Optional[SupervisorConfig] = None,
    ) -> None:
        self.system = system
        self.backup = backup
        self.config = config if config is not None else SupervisorConfig()
        #: Optional distributed-trace context: when a serving crash with
        #: a live request trace triggers the ladder, the watchdog sets
        #: this so recovery attempts appear in the request's trace tree.
        self.trace = None

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def run(self) -> FailureReport:
        """Recover until converged, degraded, or out of attempts."""
        cfg = self.config
        system = self.system
        start = time.monotonic()
        report = FailureReport(max_attempts=cfg.max_attempts)
        #: obj -> vSI its damaged version claimed, merged across attempts.
        claimed: Dict[ObjectId, StateId] = {}
        restore_backup = self.backup if cfg.allow_media_restore else None

        for attempt in range(cfg.max_attempts):
            system.stats.recovery_attempts += 1
            obs = system.obs
            if obs.enabled:
                obs.count("recovery.attempts")
            fault_mark = self._fault_mark()
            # One span per recovery attempt: tagged with the phase, the
            # fault points that fired during the attempt, and the
            # outcome/escalation the supervisor chose.
            trace_tags = (
                self.trace.child().tags() if self.trace is not None else {}
            )
            with obs.span(
                "recovery.attempt", attempt=attempt, phase="recovery",
                **trace_tags
            ) as span:
                try:
                    # Merge quarantine observations from *every* attempt,
                    # converged or not: an object quarantined by a run
                    # that later crashed stays quarantined in the store,
                    # and a fresh scrub will not see it again.
                    try:
                        system.recover(quarantine_backup=restore_backup)
                    finally:
                        claimed.update(system.last_quarantined)
                except SimulatedCrash as exc:
                    system.stats.recovery_restarts += 1
                    report.attempts.append(
                        self._record(
                            attempt, "crashed", "restart", exc, fault_mark,
                            span,
                        )
                    )
                    continue
                except TransientStorageError as exc:
                    report.attempts.append(
                        self._record(
                            attempt, "transient", "retry", exc, fault_mark,
                            span,
                        )
                    )
                    continue
                except CorruptObjectError as exc:
                    # The damage is stable; the next attempt's
                    # pre-recovery scrub quarantines it and (if allowed)
                    # restores from the backup image before widening the
                    # redo scan.
                    report.attempts.append(
                        self._record(
                            attempt,
                            "corrupt",
                            "quarantine+media-restore",
                            exc,
                            fault_mark,
                            span,
                        )
                    )
                    continue

                latent = system.store.scrub()
                if latent:
                    # Torn recovery writes that did not crash: stable
                    # damage exists under a cache that looks converged.
                    # Crash the volatile state and recover again — the
                    # scrub rung will quarantine what we just found.
                    record = self._record(
                        attempt, "latent-damage", "re-recover", None,
                        fault_mark, span,
                    )
                    record.error = (
                        f"post-recovery scrub found damage: "
                        f"{sorted(map(str, latent))}"
                    )
                    report.attempts.append(record)
                    system.crash()
                    continue

                return self._finish_obs(
                    self._converge(
                        report, attempt, claimed, fault_mark, start, span
                    )
                )

        # Attempts exhausted without convergence.
        system.mark_failed()
        report.final_health = system.health
        report.elapsed = time.monotonic() - start
        system.last_failure_report = report
        return self._finish_obs(report)

    # ------------------------------------------------------------------
    # rungs
    # ------------------------------------------------------------------
    def _converge(
        self,
        report: FailureReport,
        attempt: int,
        claimed: Dict[ObjectId, StateId],
        fault_mark: int,
        start: float,
        span=None,
    ) -> FailureReport:
        system = self.system
        lost = sorted(
            obj
            for obj, vsi in claimed.items()
            if system.cache.vsi_of(obj) < vsi
        )
        restored = sorted(obj for obj in claimed if obj not in lost)
        record = self._record(
            attempt, "converged", "none", None, fault_mark, span
        )
        if lost:
            record.escalation = "degrade"
            system.enter_degraded(lost)
        if span is not None:
            span.tag(
                escalation=record.escalation,
                lost=len(lost),
                restored=len(restored),
            )
        report.attempts.append(record)
        report.converged = True
        report.objects_lost = list(lost)
        report.objects_restored = list(restored)
        report.final_health = system.health
        report.elapsed = time.monotonic() - start
        system.last_failure_report = report
        return report

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _fault_mark(self) -> int:
        model = getattr(self.system.store, "model", None)
        return len(model.fired) if model is not None else 0

    def _record(
        self,
        index: int,
        outcome: str,
        escalation: str,
        exc: Optional[BaseException],
        fault_mark: int,
        span=None,
    ) -> AttemptRecord:
        model = getattr(self.system.store, "model", None)
        faults = (
            [spec.describe() for spec in model.fired[fault_mark:]]
            if model is not None
            else []
        )
        if span is not None:
            span.tag(
                outcome=outcome,
                escalation=escalation,
                faults=list(faults),
                quarantined=sorted(map(str, self.system.last_quarantined)),
            )
        return AttemptRecord(
            index=index,
            outcome=outcome,
            escalation=escalation,
            error="" if exc is None else f"{type(exc).__name__}: {exc}",
            faults=faults,
            quarantined=sorted(self.system.last_quarantined),
        )

    def _finish_obs(self, report: FailureReport) -> FailureReport:
        """Mirror the FailureReport tallies into the system registry."""
        obs = self.system.obs
        if obs.enabled:
            obs.count("recovery.supervised_runs")
            if report.converged:
                obs.count("recovery.converged_runs")
            obs.count("recovery.objects_lost", len(report.objects_lost))
            obs.count(
                "recovery.objects_restored", len(report.objects_restored)
            )
            obs.gauge("recovery.last_attempts", report.attempts_used)
            obs.gauge("recovery.last_elapsed_s", report.elapsed)
        return report
