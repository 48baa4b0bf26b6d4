"""Recovery torture harness: crash-and-recover under injected faults.

The crash matrix (E7) establishes that recovery survives *clean*
crashes at every operation boundary.  The torture harness establishes
the stronger claim this PR is about: recovery survives a **misbehaving
device** — transient I/O errors, torn intra-object writes, silent
corruption — injected at every numbered I/O point of a workload, in two
modes:

* **sweep** — a counting run first numbers the workload's I/O points,
  then one run per (point × fault kind) cell injects exactly that fault
  there and crash-recovers.  Exhaustive over the fault-point space.
* **fuzz** — ``runs`` seeded schedules draw faults independently at
  every point (:meth:`FaultModel.fuzz`); each failing run is fully
  reproducible from its single integer seed.

Every run ends the same way: disarm the model, ``crash()``,
``recover(quarantine_backup=...)`` (a backup taken at workload start
pins the log and backs the quarantine path), then assert both oracles —
:func:`~repro.kernel.verify.verify_recovered` (recovered state equals
the crash-free oracle on the durable history) and
:func:`~repro.core.invariants.check_explainable` (the stable state is
explainable, Theorem 3's consequence).

Interleaved forces and purges are driven by a dedicated rng seeded only
by the workload seed, so the I/O point numbering of a faulted run lines
up exactly with its counting run.

**Torture v2** extends the campaign to recovery's own I/O (the paper's
Theorem 2 idempotence, adversarially): :meth:`~TortureHarness.
recovery_points` numbers the ``"recovery"``-phase fault points with a
counting run, :meth:`~TortureHarness.sweep_recovery` injects every
must-survive kind at every one of them (including pure ``CRASH`` points
and nested-crash schedules that kill a recovery that is itself a
restart), and :meth:`~TortureHarness.fuzz_recovery` draws faults across
*both* phases.  Recovery in v2 is driven by the
:class:`~repro.kernel.supervisor.RecoverySupervisor` — the assertion is
that the escalation ladder converges to the verified state
(``SystemHealth.HEALTHY``) no matter where recovery itself is killed.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cache.config import CacheConfig
from repro.common.errors import (
    CorruptObjectError,
    SimulatedCrash,
    TransientStorageError,
)
from repro.common.rng import make_rng
from repro.core.invariants import check_explainable, stable_values_of
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
from repro.kernel.verify import verify_recovered
from repro.obs.metrics import MetricsRegistry
from repro.storage.faults import (
    RECOVERY_PHASE,
    FaultKind,
    FaultModel,
    FaultSpec,
    FuzzRates,
)
from repro.storage.registry import make_store, resolve_backend
from repro.wal.faulty_log import FaultyLog
from repro.workloads import (
    LogicalWorkload,
    LogicalWorkloadConfig,
    register_workload_functions,
)

#: The fault kinds every configuration must survive at every I/O point.
#: FSYNC_LIE is deliberately absent: an undetected lying fsync breaks
#: any WAL system's durability contract (see the strawman test).
SWEEP_KINDS = (FaultKind.TORN, FaultKind.TRANSIENT, FaultKind.CORRUPT)

#: The kinds the recovery-phase sweep (Torture v2) injects at every
#: recovery I/O point.  CRASH joins the list because "the machine dies
#: at recovery's k-th I/O" is exactly the restartability claim.
RECOVERY_SWEEP_KINDS = (
    FaultKind.CRASH,
    FaultKind.TORN,
    FaultKind.TRANSIENT,
    FaultKind.CORRUPT,
)

#: IOStats fields the report aggregates across runs.
_COUNTERS = (
    "faults_injected",
    "fault_retries",
    "checksum_failures",
    "quarantines",
    "media_recoveries",
    "recovery_attempts",
    "recovery_restarts",
)


@dataclass
class TortureConfig:
    """Workload shape and cache configuration for torture runs."""

    objects: int = 5
    operations: int = 20
    object_size: int = 64
    p_delete: float = 0.1
    #: Probability of a log force / purge after each operation (drawn
    #: from the interleave rng, identical across runs of one harness).
    p_force: float = 0.4
    p_purge: float = 0.3
    workload_seed: int = 0
    #: Stable-store backend under torture, resolved through
    #: :func:`repro.storage.make_store` with the run's fault model
    #: attached.  Durable backends get a fresh scratch directory per
    #: run (removed when the run's verdict is in), so the campaign
    #: tortures the real on-disk read/write/scrub paths.
    store_backend: str = "memory"
    #: Fresh cache config per run (configs hold stateful mechanisms).
    cache_factory: Callable[[], CacheConfig] = CacheConfig
    #: Torture v2: the supervisor's attempt budget per run.  Generous by
    #: default — nested-crash schedules legitimately burn several
    #: attempts before the last scheduled crash point is consumed.
    supervisor_attempts: int = 24


@dataclass
class TortureOutcome:
    """One crash-recover-verify run under one fault schedule."""

    description: str
    ok: bool
    error: str = ""
    #: Faults actually applied, in schedule notation.
    trace: List[str] = field(default_factory=list)
    #: Fuzz runs: the seed that reproduces this schedule.
    seed: Optional[int] = None
    #: Torture v2: recovery attempts the supervisor used.
    attempts: int = 0
    #: Torture v2: the supervisor's structured report when the run
    #: failed (None for passing runs, to keep reports lean).
    failure_report: Optional[FailureReport] = None


@dataclass
class TortureReport:
    """Aggregate result of a sweep or fuzz campaign."""

    mode: str
    outcomes: List[TortureOutcome] = field(default_factory=list)
    #: Size of the fault-point space (sweep mode).
    points: int = 0
    #: Summed IOStats counters across all runs.
    totals: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    def failures(self) -> List[TortureOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def summary(self) -> str:
        """One status line, e.g. for the CLI."""
        failed = len(self.failures())
        status = "OK" if failed == 0 else f"{failed} FAILED"
        return (
            f"torture {self.mode}: {len(self.outcomes)} runs over "
            f"{self.points} fault points — {status}"
        )


class TortureHarness:
    """Drives fault-injected workloads through crash and recovery."""

    def __init__(
        self,
        config: Optional[TortureConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config if config is not None else TortureConfig()
        self._totals: Dict[str, int] = {}
        #: Scratch directories backing durable-store runs; reclaimed
        #: after each run's verdict (the store dies with the run).
        self._scratch_roots: List[str] = []
        #: Optional shared registry: every system the campaign builds
        #: attaches it, so spans and histograms accumulate across runs.
        self.obs = metrics

    # ------------------------------------------------------------------
    # one run
    # ------------------------------------------------------------------
    def _build_store(self, model: FaultModel):
        backend = self.config.store_backend
        root = None
        if resolve_backend(backend).requires_root:
            root = tempfile.mkdtemp(prefix="repro-torture-")
            self._scratch_roots.append(root)
        return make_store(backend, root, model=model)

    def _reclaim_scratch(self) -> None:
        while self._scratch_roots:
            shutil.rmtree(self._scratch_roots.pop(), ignore_errors=True)

    def _build_system(self, model: FaultModel) -> RecoverableSystem:
        system = RecoverableSystem(
            SystemConfig(cache=self.config.cache_factory()),
            store=self._build_store(model),
            log=FaultyLog(model),
        )
        register_workload_functions(system.registry)
        if self.obs is not None:
            system.attach_metrics(self.obs)
        return system

    def _drive(self, system: RecoverableSystem) -> None:
        """Run the workload until it completes or the machine dies.

        The three machine-death shapes: an injected crash
        (:class:`SimulatedCrash`), a detected-corrupt read surfacing
        through the cache (:class:`CorruptObjectError` — a real system
        would fail the operation and enter recovery), and a transient
        fault outliving the retry budget.
        """
        cfg = self.config
        workload = LogicalWorkload(
            LogicalWorkloadConfig(
                objects=cfg.objects,
                operations=cfg.operations,
                object_size=cfg.object_size,
                p_delete=cfg.p_delete,
            ),
            seed=cfg.workload_seed,
        )
        interleave = make_rng(f"torture-interleave:{cfg.workload_seed}")
        try:
            for op in workload.operations():
                system.execute(op)
                if interleave.random() < cfg.p_force:
                    system.log.force()
                if interleave.random() < cfg.p_purge:
                    system.purge()
        except (SimulatedCrash, CorruptObjectError, TransientStorageError):
            pass

    def _one_run(self, model: FaultModel, description: str) -> TortureOutcome:
        system = self._build_system(model)
        # Backup at workload start: pins the whole log (truncation
        # protection) and backs the quarantine path, so any corrupted
        # object can be reinstated by full-window replay.
        backup = BackupManager(system).take_backup()
        self._drive(system)
        # Recovery runs against an honest device: the machine that
        # recovers is not the one whose controller was dying.  (Faults
        # *during* recovery are a separate, follow-on campaign.)
        model.armed = False
        outcome = TortureOutcome(description, True, trace=model.trace())
        try:
            system.crash()
            system.recover(quarantine_backup=backup)
            verify_recovered(system)
            check_explainable(
                system.history,
                system.cache.uninstalled_operations(),
                stable_values_of(system.store),
                system.oracle(),
            )
        except Exception as exc:  # noqa: BLE001 - verdict, not control flow
            outcome.ok = False
            outcome.error = f"{type(exc).__name__}: {exc}"
        self._accumulate(system)
        self._reclaim_scratch()
        return outcome

    def _accumulate(self, system: RecoverableSystem) -> None:
        for name in _COUNTERS:
            value = getattr(system.stats, name)
            self._totals[name] = self._totals.get(name, 0) + value
            # Campaign-level counters: per-run IOStats die with each
            # system, so the shared registry carries the running sums.
            if self.obs is not None and value:
                self.obs.count(f"torture.{name}", value)

    # ------------------------------------------------------------------
    # campaigns
    # ------------------------------------------------------------------
    def count_points(self) -> int:
        """Number the workload's I/O points with a pure counting model."""
        model = FaultModel()
        system = self._build_system(model)
        self._drive(system)
        self._reclaim_scratch()
        return model.next_point

    def sweep(self) -> TortureReport:
        """Every I/O point × every must-survive fault kind, one run each.

        Torn writes are paired with an immediate crash (the most
        adversarial moment to lose the machine); corruption is silent
        (detected by a later read or the pre-recovery scrub); transient
        faults burn two attempts and must be invisible.
        """
        self._totals = {}
        points = self.count_points()
        report = TortureReport(mode="sweep", points=points)
        for point in range(points):
            for kind in SWEEP_KINDS:
                if kind is FaultKind.TRANSIENT:
                    spec = FaultSpec(point, kind, times=2)
                elif kind is FaultKind.TORN:
                    spec = FaultSpec(point, kind, crash=True)
                else:
                    spec = FaultSpec(point, kind)
                report.outcomes.append(
                    self._one_run(FaultModel([spec]), spec.describe())
                )
        report.totals = dict(self._totals)
        return report

    def fuzz(
        self,
        runs: int,
        seed: int = 0,
        rates: Optional[FuzzRates] = None,
    ) -> TortureReport:
        """``runs`` independent seeded fault schedules.

        Run ``i`` uses seed ``seed + i``; a failing run's outcome
        carries that seed, and ``fuzz(runs=1, seed=that_seed)``
        replays the identical schedule.
        """
        self._totals = {}
        report = TortureReport(mode="fuzz", points=self.count_points())
        for index in range(runs):
            run_seed = seed + index
            model = FaultModel.fuzz(run_seed, rates)
            outcome = self._one_run(model, f"fuzz seed={run_seed}")
            outcome.seed = run_seed
            report.outcomes.append(outcome)
        report.totals = dict(self._totals)
        return report

    # ------------------------------------------------------------------
    # Torture v2: faults during recovery itself
    # ------------------------------------------------------------------
    def recovery_points(self) -> int:
        """Number recovery's own I/O points with a counting run.

        The workload runs clean, the machine crashes, and a single
        clean recovery is performed with the model switched to the
        ``"recovery"`` phase — its reads and re-apply writes consume
        recovery-phase points without injecting anything.
        """
        model = FaultModel()
        system = self._build_system(model)
        backup = BackupManager(system).take_backup()
        self._drive(system)
        system.crash()
        model.enter_phase(RECOVERY_PHASE)
        system.recover(quarantine_backup=backup)
        self._reclaim_scratch()
        return model.points_in(RECOVERY_PHASE)

    def _one_recovery_run(
        self, model: FaultModel, description: str
    ) -> TortureOutcome:
        """Drive the workload, crash, then recover under supervision.

        Unlike :meth:`_one_run`, the model stays **armed** through
        recovery: the supervisor must climb the escalation ladder to
        convergence.  The run passes when the ladder lands in
        ``HEALTHY`` and both oracles agree — including after nested
        mid-recovery crashes (recovery-phase numbering is continuous
        across restarts, so one schedule can kill several successive
        attempts).
        """
        system = self._build_system(model)
        backup = BackupManager(system).take_backup()
        self._drive(system)
        system.crash()
        model.enter_phase(RECOVERY_PHASE)
        supervisor = RecoverySupervisor(
            system,
            backup=backup,
            config=SupervisorConfig(
                max_attempts=self.config.supervisor_attempts
            ),
        )
        report = supervisor.run()
        model.armed = False
        outcome = TortureOutcome(
            description,
            True,
            trace=model.trace(),
            attempts=report.attempts_used,
        )
        try:
            if report.final_health is not SystemHealth.HEALTHY:
                raise AssertionError(
                    f"escalation ladder did not converge: {report.summary()}"
                )
            verify_recovered(system)
            check_explainable(
                system.history,
                system.cache.uninstalled_operations(),
                stable_values_of(system.store),
                system.oracle(),
            )
        except Exception as exc:  # noqa: BLE001 - verdict, not control flow
            outcome.ok = False
            outcome.error = f"{type(exc).__name__}: {exc}"
            outcome.failure_report = report
        self._accumulate(system)
        self._reclaim_scratch()
        return outcome

    def sweep_recovery(self) -> TortureReport:
        """Every recovery-phase I/O point × every v2 fault kind.

        CRASH is the restartability probe (the machine dies cleanly at
        that recovery I/O); TORN pairs damage with an immediate crash;
        CORRUPT is silent (caught by the supervisor's post-convergence
        scrub when recovery itself wrote the garbage); TRANSIENT must be
        absorbed invisibly by recovery's retry-hardened I/O.  A handful
        of **nested** schedules then place three crash points so the
        second and third kill recoveries that are themselves restarts.
        """
        self._totals = {}
        points = self.recovery_points()
        report = TortureReport(mode="sweep-recovery", points=points)
        for point in range(points):
            for kind in RECOVERY_SWEEP_KINDS:
                if kind is FaultKind.TRANSIENT:
                    spec = FaultSpec(
                        point, kind, times=2, phase=RECOVERY_PHASE
                    )
                elif kind is FaultKind.TORN:
                    spec = FaultSpec(
                        point, kind, crash=True, phase=RECOVERY_PHASE
                    )
                else:
                    spec = FaultSpec(point, kind, phase=RECOVERY_PHASE)
                report.outcomes.append(
                    self._one_recovery_run(
                        FaultModel([spec]), spec.describe()
                    )
                )
        stride = max(1, points // 2)
        for start in range(min(points, 3)):
            specs = [
                FaultSpec(
                    start + i * stride,
                    FaultKind.CRASH,
                    phase=RECOVERY_PHASE,
                )
                for i in range(3)
            ]
            description = "nested:" + "+".join(
                spec.describe() for spec in specs
            )
            report.outcomes.append(
                self._one_recovery_run(FaultModel(specs), description)
            )
        report.totals = dict(self._totals)
        return report

    def fuzz_recovery(
        self,
        runs: int,
        seed: int = 0,
        rates: Optional[FuzzRates] = None,
    ) -> TortureReport:
        """Seeded fault schedules spanning *both* phases.

        The model stays armed from the first workload I/O through the
        last supervised recovery attempt, so one schedule can corrupt
        the forward run, crash the first recovery, and tear a re-apply
        write of the second.  Default rates keep per-attempt kill
        probability low enough that the default attempt budget's
        failure odds are negligible (~1e-7 per run).
        """
        self._totals = {}
        report = TortureReport(
            mode="fuzz-recovery", points=self.recovery_points()
        )
        if rates is None:
            rates = FuzzRates(torn=0.005, corrupt=0.005, crash=0.01)
        for index in range(runs):
            run_seed = seed + index
            model = FaultModel.fuzz(run_seed, rates)
            outcome = self._one_recovery_run(
                model, f"fuzz-recovery seed={run_seed}"
            )
            outcome.seed = run_seed
            report.outcomes.append(outcome)
        report.totals = dict(self._totals)
        return report
