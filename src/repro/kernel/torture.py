"""Recovery torture harness: crash-and-recover under injected faults.

The crash matrix (E7) shows recovery survives *clean* crashes at every
operation boundary; this harness shows it survives a **misbehaving
device** — transient I/O errors, torn writes, silent corruption,
crashes — at every numbered I/O point.  One run path serves two
campaign shapes: a **sweep** numbers the points with a counting run and
runs every (point × fault kind) cell; a **fuzz** runs seeded schedules
that draw faults at every point, each replayable from its single
integer seed.

A campaign takes a :class:`Phase` row.  :data:`FORWARD` faults the
workload's own I/O and recovers bare against a disarmed device (the
machine that recovers is not the one whose controller was dying).
:data:`RECOVERY` (torture v2: the paper's Theorem 2 idempotence,
adversarially) faults recovery's own I/O — pure ``CRASH`` points and
nested crashes that kill recoveries that are themselves restarts
included — and recovers through the
:class:`~repro.kernel.supervisor.RecoverySupervisor` with the model
still armed, so the escalation ladder must converge to ``HEALTHY``.
:data:`FLUSH` runs the workload clean and faults one ``flush_all()``
after a log force: its sweep crashes at each of the flush's I/O points
(the tear an atomic flush set rules out) and once after its last, while
the flush's installation records are still volatile.  :data:`ROT` runs
the workload with truncating checkpoints, crashes, rots the stored
objects (one point each) and supervises recovery with no backup: the
media redo must name what it cannot rebuild, and serve nothing else
wrong.  :data:`WITNESS` faults a witness's redo cycle, one
``materialize()`` after a clean workload and a supervised recovery,
crashes once after it, and reopens a durable directory cold before the
verdict.  A harness built with ``drive`` runs that fixed
history in place of the generated workload.

Every run but the rot and witness rows' backs up at workload start
(pinning the log, backing the quarantine path), drives, crashes,
recovers, and asserts both oracles:
:func:`~repro.kernel.verify.verify_recovered` (the crash-free oracle on
the durable history) and :func:`~repro.core.invariants.check_explainable`
(Theorem 3).  Forces and purges are drawn from an rng seeded only by
the workload seed, so a faulted run's numbering lines up with its
counting run.
:class:`Outcome` and :class:`TortureReport` are the live-fire harness's
(:mod:`repro.livefire`) verdict types too.  A durable backend's runs
force into the ``wal.log`` that ``serve`` runs.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.analysis import failure_summary
from repro.cache.config import CacheConfig
from repro.common.errors import (
    CorruptObjectError, SimulatedCrash, TransientStorageError,
)
from repro.common.identifiers import ObjectId
from repro.common.rng import make_rng
from repro.common.tombstone import TOMBSTONE
from repro.core.invariants import check_explainable, stable_values_of
from repro.kernel.backup_manager import BackupManager
from repro.kernel.supervisor import (
    FailureReport, RecoverySupervisor, SupervisorConfig,
)
from repro.kernel.system import RecoverableSystem, SystemConfig, SystemHealth
from repro.kernel.verify import VerificationError, verify_recovered
from repro.obs.metrics import MetricsRegistry
from repro.storage.faults import (
    FLUSH_PHASE, FORWARD_PHASE, RECOVERY_PHASE, ROT_PHASE, WITNESS_PHASE,
    FaultKind, FaultModel, FaultSpec, FuzzRates,
)
from repro.storage.backup import FuzzyBackup
from repro.storage.registry import is_durable, make_log, make_store
from repro.storage.stats import IOStats
from repro.workloads import (
    LogicalWorkload, LogicalWorkloadConfig, register_workload_functions,
)

#: Probability of a log force after each operation.
P_FORCE = 0.4
#: Rot row: probability of a checkpoint after each operation, and that
#: it truncates the log (so a rotted object's writer may be gone).
P_CHECKPOINT = 0.1
P_TRUNCATE = 0.6
#: Supervised runs: the supervisor's attempt budget.  Generous —
#: nested-crash schedules legitimately burn several attempts before the
#: last scheduled crash point is consumed.
SUPERVISOR_ATTEMPTS = 24

#: IOStats fields the report aggregates across runs.
_COUNTERS = (
    "faults_injected", "fault_retries", "checksum_failures", "quarantines",
    "media_recoveries", "recovery_attempts", "recovery_restarts",
)


@dataclass(frozen=True)
class Phase:
    """A campaign row: the point family it faults and how runs recover."""

    #: The :class:`FaultModel` phase family whose points are faulted.
    name: str
    #: The kinds a sweep injects at every point.  TORN is paired with a
    #: crash (the most adversarial moment to lose the machine), TRANSIENT
    #: burns two attempts and must be invisible, CORRUPT is silent.
    kinds: Tuple[FaultKind, ...]
    #: Recover through the supervisor (else one bare ``recover()``);
    #: the device stays armed only on the recovery row.
    supervised: bool
    #: Add the nested-crash schedules to a sweep: three crash points a
    #: stride apart, so later ones kill recoveries that are restarts.
    nested: bool
    #: Fuzz rates when a campaign names none (None: ``FuzzRates()``).
    rates: Optional[FuzzRates]
    #: Back up at workload start: the backup pins the log and backs the
    #: quarantine path.
    backup: bool = True
    #: Purge after operations at the config's ``p_purge``.
    purges: bool = True
    #: The row's own I/O, run armed in its family after the clean
    #: workload and a log force (None: the workload's or recovery's I/O
    #: is the row's).  A sweep also crashes once after its last point:
    #: the step is done and nothing has been forced since.
    step: Optional[Callable[[RecoverableSystem], None]] = None
    #: The row's process restarts around ``step``: a crash and a
    #: supervised recovery before it, and after the crash that ends the
    #: run a durable directory is reopened cold.
    restarts: bool = False
    #: Fault kinds after which a run may end DEGRADED naming what it
    #: lost; it must then serve every other object as the oracle does.
    loses_to: Tuple[FaultKind, ...] = ()

    def mode(self, shape: str) -> str:
        """A campaign's report name: ``sweep``, ``fuzz-recovery``, ..."""
        return shape if self.name == FORWARD_PHASE else f"{shape}-{self.name}"


#: The workload's own I/O.  FSYNC_LIE is deliberately not a must-survive
#: kind: an undetected lying fsync breaks any WAL system's durability
#: contract (see the strawman test).
FORWARD = Phase(
    FORWARD_PHASE,
    kinds=(FaultKind.TORN, FaultKind.TRANSIENT, FaultKind.CORRUPT),
    supervised=False,
    nested=False,
    rates=None,
)
#: Recovery's own I/O.  CRASH joins the kinds because "the machine dies
#: at recovery's k-th I/O" is exactly the restartability claim; the
#: default rates keep per-attempt kill probability low enough that the
#: attempt budget's failure odds are negligible (~1e-7 per run).
RECOVERY = Phase(
    RECOVERY_PHASE,
    kinds=(FaultKind.CRASH,) + FORWARD.kinds,
    supervised=True,
    nested=True,
    rates=FuzzRates(torn=0.005, corrupt=0.005, crash=0.01),
)
#: One ``flush_all()`` after a clean workload and a log force.  A sweep
#: crashes at each of its I/O points — a crash between the writes of a
#: non-atomic multi-object set tears it, the state an atomic flush set
#: exists to rule out — and once after its last: the flush is done and
#: its installation records are still in the log buffer.
FLUSH = Phase(
    FLUSH_PHASE,
    kinds=(FaultKind.CRASH,),
    supervised=False,
    nested=False,
    rates=FuzzRates(torn=0.05, corrupt=0.05, crash=0.1),
    step=RecoverableSystem.flush_all,
)
#: The objects a crashed store holds, one point each; CORRUPT rots one.
#: The workload takes truncating checkpoints, so a rotted object's
#: writer may be gone from the log, and recovery is supervised with no
#: backup: its runs may end DEGRADED, when they name the
#: lost objects, and must serve every other object as the oracle does.
ROT = Phase(
    ROT_PHASE,
    kinds=(FaultKind.CORRUPT,),
    supervised=True,
    nested=False,
    rates=FuzzRates(transient=0.0, torn=0.0, corrupt=0.3),
    backup=False,
    loses_to=(FaultKind.CORRUPT,),
)
#: A witness's redo cycle: a clean workload with no purges (a witness
#: installs only in its cycles), then force, crash, supervised recovery
#: and one armed ``materialize()``; a crashed cycle's directory is
#: reopened cold.  A witness holds no backup, so a run that tore or
#: rotted a write may end DEGRADED, naming what it lost.
WITNESS = Phase(
    WITNESS_PHASE,
    kinds=(FaultKind.CRASH,),
    supervised=True,
    nested=False,
    rates=FLUSH.rates,
    backup=False,
    purges=False,
    step=lambda system: system.cache.materialize(),
    restarts=True,
    loses_to=(FaultKind.TORN, FaultKind.CORRUPT),
)


@contextlib.contextmanager
def scratch_root(
    backend: str, prefix: str, parent: Optional[str] = None, name: str = "run"
) -> Iterator[Optional[str]]:
    """Where one run's durable ``backend`` lives (None for an in-memory
    one): ``parent/name``, or ``name`` in a fresh temp directory; either
    is removed once the run's verdict is in."""
    if not is_durable(backend):
        yield None
        return
    created = None if parent is not None else tempfile.mkdtemp(prefix=prefix)
    root = os.path.join(parent or created, name)
    try:
        yield root
    finally:
        shutil.rmtree(created or root, ignore_errors=True)


@dataclass
class TortureConfig:
    """Workload shape and cache configuration for torture runs."""

    objects: int = 5
    operations: int = 20
    object_size: int = 64
    p_delete: float = 0.1
    #: Probability of a purge after each operation (drawn, like the
    #: force's, from the interleave rng: identical across runs of one
    #: harness).
    p_purge: float = 0.3
    workload_seed: int = 0
    #: Stable-store backend under torture, resolved through
    #: :func:`repro.storage.make_store` with the run's fault model
    #: attached; a durable one gets a scratch directory per run, so the
    #: campaign tortures the real on-disk read/write/scrub paths.
    store_backend: str = "memory"
    #: The cache config of each run's system.
    cache_factory: Callable[[], CacheConfig] = CacheConfig


@dataclass
class Outcome:
    """One torture run's verdict (a live-fire run's too)."""

    description: str
    ok: bool = True
    error: str = ""
    #: Seeded runs: the seed that replays this run.
    seed: Optional[int] = None

    def fail(self, error: str) -> None:
        """Record a failure; the first one names the run's error."""
        if self.ok:
            self.ok, self.error = False, error

    def details(self) -> List[str]:
        """What a failure report prints under the error line."""
        return []


@dataclass
class TortureOutcome(Outcome):
    """One crash-recover-verify run under one fault schedule."""

    #: Faults actually applied, in schedule notation.
    trace: List[str] = field(default_factory=list)
    #: Supervised runs: recovery attempts the supervisor used, the
    #: objects it declared lost, and its structured report when the run
    #: failed.
    attempts: int = 0
    lost: List[ObjectId] = field(default_factory=list)
    failure_report: Optional[FailureReport] = None

    def details(self) -> List[str]:
        lines = []
        if self.trace:
            lines.append(f"faults applied: {', '.join(self.trace)}")
        if self.failure_report is not None:
            lines.append(failure_summary(self.failure_report).render())
        return lines


@dataclass
class TortureReport:
    """Aggregate verdict of a torture campaign, library or live fire."""

    #: The campaign: ``sweep``, ``fuzz-recovery``, ``v4 (shard-kill)``.
    mode: str
    outcomes: List[Outcome] = field(default_factory=list)
    #: Library campaigns: the size of the fault-point space, and the
    #: IOStats counters summed across runs.
    points: int = 0
    totals: Dict[str, int] = field(default_factory=dict)
    #: ``(label, outcome field)`` pairs the summary line sums across
    #: runs: a live-fire campaign's acked writes, the rot row's lost
    #: objects.
    tallies: Tuple[Tuple[str, str], ...] = ()

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    def failures(self) -> List[Outcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def total(self, name: str) -> int:
        """An outcome field summed over the runs (a list by its length)."""
        values = (getattr(outcome, name) for outcome in self.outcomes)
        return sum(len(v) if isinstance(v, list) else v for v in values)

    def summary(self) -> str:
        """One status line, e.g. for the CLI."""
        scope = f" over {self.points} fault points" if self.points else ""
        scope += "".join(
            f", {self.total(name)} {label}" for label, name in self.tallies
        )
        failed = len(self.failures())
        status = "OK" if failed == 0 else f"{failed} FAILED"
        runs = len(self.outcomes)
        return f"torture {self.mode}: {runs} runs{scope} — {status}"


class TortureHarness:
    """Drives fault-injected workloads through crash and recovery."""

    def __init__(
        self,
        config: Optional[TortureConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        drive: Optional[Callable[[RecoverableSystem], None]] = None,
    ) -> None:
        self.config = config if config is not None else TortureConfig()
        self._totals: Dict[str, int] = {}
        #: Optional shared registry: every system the campaign builds
        #: attaches it, so spans and histograms accumulate across runs.
        self.obs = metrics
        #: A fixed history, ``drive(system)``, run in place of the
        #: generated workload (and its forces, purges and checkpoints).
        self.drive = drive

    # ------------------------------------------------------------------
    # one run
    # ------------------------------------------------------------------
    def _build(
        self, model: FaultModel, root: Optional[str],
        stats: Optional[IOStats] = None,
    ) -> RecoverableSystem:
        """A system on ``model``'s devices under ``root``."""
        backend = self.config.store_backend
        system = RecoverableSystem(
            SystemConfig(cache=self.config.cache_factory()),
            store=make_store(backend, root, stats, model=model),
            log=make_log(backend, root, stats, model=model),
        )
        register_workload_functions(system.registry)
        if self.obs is not None:
            system.attach_metrics(self.obs)
        return system

    @contextlib.contextmanager
    def _system(
        self, model: FaultModel, phase: Phase = FORWARD
    ) -> Iterator[Tuple[RecoverableSystem, Optional[FuzzyBackup]]]:
        """A system on ``model``'s devices and, if the row takes one, a
        backup taken at workload start; its scratch directory goes with
        it.  The model is armed from here only on the rows that fault
        the workload."""
        backend = self.config.store_backend
        with scratch_root(backend, "repro-torture-") as root:
            model.armed = phase is FORWARD or phase is RECOVERY
            system = self._build(model, root)
            backup = None
            if phase.backup:
                backup = BackupManager(system).take_backup()
            yield system, backup

    def _drive(
        self, system: RecoverableSystem, model: FaultModel,
        phase: Phase = FORWARD,
    ) -> None:
        """Run the workload until it completes or the machine dies: an
        injected crash, a detected-corrupt read surfacing through the
        cache (a real system would fail the operation and enter
        recovery), or a transient fault outliving the retry budget.
        A row with a ``step`` then forces the log, restarts if it
        says so, and runs the step armed."""
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
        p_purge = cfg.p_purge if phase.purges else 0.0
        try:
            if self.drive is not None:
                self.drive(system)
            else:
                for op in workload.operations():
                    system.execute(op)
                    if interleave.random() < P_FORCE:
                        system.log.force()
                    if interleave.random() < p_purge:
                        system.purge()
                    if phase is ROT and interleave.random() < P_CHECKPOINT:
                        system.checkpoint(
                            truncate=interleave.random() < P_TRUNCATE
                        )
            if phase.step is not None:
                system.log.force()
                if phase.restarts:
                    system.crash()
                    RecoverySupervisor(system).run()
                model.enter_phase(phase.name)
                model.armed = True
                phase.step(system)
        except (SimulatedCrash, CorruptObjectError, TransientStorageError):
            pass

    def _rot(
        self, system: RecoverableSystem, model: FaultModel
    ) -> RecoverableSystem:
        """Rot each stored object whose rot point the model faults; a
        ``file`` store rots while closed and its directory is reopened.
        (A logstore rots in process: reopened over a rotted newest
        frame it falls back to an older one, ROADMAP item 2.)"""
        model.enter_phase(ROT_PHASE)
        model.armed = True
        reopen = self.config.store_backend == "file"
        if reopen:
            system.close()
        for obj in sorted(system.store.object_ids()):
            spec = model.fire(
                "store.rot", obj, can=frozenset({FaultKind.CORRUPT}),
                stats=system.stats,
            )
            if spec is not None:
                system.store.rot(obj, spec.point)
        model.armed = False
        return self._reopened(system, model) if reopen else system

    def _reopened(
        self, system: RecoverableSystem, model: FaultModel
    ) -> RecoverableSystem:
        """``system``'s closed directory opened again on the same
        devices and stats, its history carried: what a restarted
        process finds."""
        reopened = self._build(model, system.store.root, system.stats)
        reopened.history = system.history
        return reopened

    def run(
        self, model: FaultModel, description: str, phase: Phase = FORWARD
    ) -> TortureOutcome:
        """Drive, crash, recover as ``phase`` says, check the oracles.
        Recovery-phase numbering is continuous across supervised
        restarts, so one schedule can kill several successive attempts."""
        outcome = TortureOutcome(description)
        with self._system(model, phase) as (system, backup):
            self._drive(system, model, phase)
            report, named_loss = None, False
            try:
                system.crash()
                if phase is ROT:
                    system = self._rot(system, model)
                model.enter_phase(phase.name)
                model.armed = phase is RECOVERY
                if phase.restarts and is_durable(self.config.store_backend):
                    system.close()
                    system = self._reopened(system, model)
                if phase.supervised:
                    report = RecoverySupervisor(
                        system,
                        backup=backup,
                        config=SupervisorConfig(
                            max_attempts=SUPERVISOR_ATTEMPTS
                        ),
                    ).run()
                    outcome.attempts = report.attempts_used
                    model.armed = False
                    outcome.lost = sorted(system.lost_objects)
                    health = report.final_health
                    named_loss = (
                        health is SystemHealth.DEGRADED
                        and bool(outcome.lost)
                        and any(spec.kind in phase.loses_to
                                for spec in model.fired)
                    )
                    if health is not SystemHealth.HEALTHY and not named_loss:
                        raise AssertionError(
                            "escalation ladder did not converge: "
                            f"{report.summary()}"
                        )
                else:
                    system.recover(quarantine_backup=backup)
                if phase is ROT or named_loss:
                    _serves_the_oracle(system)
                else:
                    verify_recovered(system)
                    check_explainable(
                        system.history,
                        system.cache.uninstalled_operations(),
                        stable_values_of(system.store),
                        system.oracle(),
                    )
            except Exception as exc:  # noqa: BLE001 - a verdict
                outcome.fail(f"{type(exc).__name__}: {exc}")
                outcome.failure_report = report
            model.armed = False
            outcome.trace = model.trace()
            for name in _COUNTERS:
                value = getattr(system.stats, name)
                self._totals[name] = self._totals.get(name, 0) + value
                # Per-run IOStats die with each system, so the shared
                # registry carries the campaign's running sums.
                if self.obs is not None and value:
                    self.obs.count(f"torture.{name}", value)
        return outcome

    # ------------------------------------------------------------------
    # campaigns
    # ------------------------------------------------------------------
    def points(self, phase: Phase = FORWARD) -> int:
        """Number ``phase``'s points: one run of the row under a pure
        counting model, which numbers every point and injects nothing.
        It is no campaign run, so the shared registry does not see it."""
        model = FaultModel()
        obs, self.obs = self.obs, None
        try:
            self.run(model, "count", phase)
        finally:
            self.obs = obs
        return model.points_in(phase.name)

    def sweep(self, phase: Phase = FORWARD) -> TortureReport:
        """Every ``phase`` point × every kind of the row, one run each,
        then the row's nested-crash schedules; a row with a ``step``
        adds one cell after its last point."""
        points = self.points(phase)
        cells = points if phase.step is None else points + 1
        schedules = [
            [FaultSpec(point, kind, times=2 if kind is FaultKind.TRANSIENT
                       else 1, crash=kind is FaultKind.TORN, phase=phase.name)]
            for point in range(cells)
            for kind in phase.kinds
        ]
        stride = max(1, points // 2)
        schedules += [
            [FaultSpec(start + i * stride, FaultKind.CRASH, phase=phase.name)
             for i in range(3)]
            for start in range(min(points, 3) if phase.nested else 0)
        ]
        return self._campaign(
            TortureReport(phase.mode("sweep"), points=points),
            phase,
            (
                (FaultModel(specs), ("nested:" if len(specs) > 1 else "")
                 + "+".join(spec.describe() for spec in specs), None)
                for specs in schedules
            ),
        )

    def fuzz(
        self,
        runs: int,
        seed: int = 0,
        rates: Optional[FuzzRates] = None,
        phase: Phase = FORWARD,
    ) -> TortureReport:
        """``runs`` independent seeded fault schedules.

        Run ``i`` uses seed ``seed + i``; a failing run's outcome
        carries that seed, and ``fuzz(1, that_seed)`` replays the
        identical schedule.  On the recovery row the model stays armed
        from the first workload I/O through the last supervised attempt,
        so one schedule can corrupt the forward run, crash the first
        recovery and tear a re-apply write of the second.
        """
        rates = rates if rates is not None else phase.rates
        mode = phase.mode("fuzz")
        return self._campaign(
            TortureReport(mode, points=self.points(phase)),
            phase,
            (
                (FaultModel.fuzz(run_seed, rates), f"{mode} seed={run_seed}",
                 run_seed)
                for run_seed in range(seed, seed + runs)
            ),
        )

    def _campaign(
        self,
        report: TortureReport,
        phase: Phase,
        runs: Iterable[Tuple[FaultModel, str, Optional[int]]],
    ) -> TortureReport:
        self._totals = dict.fromkeys(_COUNTERS, 0)
        if phase.loses_to:
            report.tallies = (("objects lost", "lost"),)
        for model, description, seed in runs:
            outcome = self.run(model, description, phase)
            outcome.seed = seed
            report.outcomes.append(outcome)
        report.totals = dict(self._totals)
        return report


def _serves_the_oracle(system: RecoverableSystem) -> None:
    """The rot row's verdict: every object outside ``lost_objects``
    reads what the oracle computes from the durable history."""
    final = system.oracle().replay(list(system.history))
    wrong = [
        obj
        for obj, value in sorted(final.items())
        if obj not in system.lost_objects
        and system.read(obj) != (None if value is TOMBSTONE else value)
    ]
    if wrong:
        raise VerificationError(
            f"served objects the oracle disagrees with: {wrong}"
        )
