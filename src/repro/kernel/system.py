"""RecoverableSystem: the wired-together recoverable database.

A system owns one stable store, one log manager, one cache manager and a
function registry, and exposes the lifecycle the paper describes:

* ``execute(op)`` during normal operation (WAL + write-graph
  maintenance);
* ``purge()`` / ``flush_all()`` / ``checkpoint()`` cache management;
* ``crash()`` — volatile state (cache + log buffer) is lost;
* ``recover()`` — analysis + redo per the configured REDO test, then
  adoption of the redone operations into a fresh cache manager so that
  post-recovery flushing obeys the same write-graph rules as normal
  execution (Section 5's closing point).

A :class:`SystemHealth` state machine tracks the escalation ladder
(HEALTHY / RECOVERING / DEGRADED / FAILED): :meth:`crash` enters
RECOVERING, a converged :meth:`recover` lands HEALTHY — or DEGRADED
while some object is lost — and the recovery supervisor
(:mod:`repro.kernel.supervisor`) declares it failed when its budget
runs out.

A system built for verification also carries the submitted
:class:`~repro.core.history.History`, so verifiers can compare recovered
state with the oracle over the *stable* history (the operations whose
records survived on the stable log — operations whose records were
still in the volatile buffer at the crash never happened, durably
speaking).  It is the verifier's attachment, not the kernel's ledger:
execute / crash / recover keep it current and decide nothing by it, and
a long-lived owner (the serving daemon, ``PersistentSystem.open``)
calls :meth:`RecoverableSystem.release_history` so that an installed
operation is nobody's business but the log's.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set

from repro.cache.cache_manager import CacheManager
from repro.cache.config import CacheConfig
from repro.common.errors import DegradedModeError, SimulatedCrash
from repro.common.identifiers import NULL_SI, ObjectId, StateId
from repro.core.functions import FunctionRegistry, default_registry
from repro.core.history import History
from repro.core.operation import Operation
from repro.core.oracle import Oracle
from repro.core.recovery import RecoveryManager, RecoveryReport
from repro.core.redo import GeneralizedRedoTest, RedoTest
from repro.obs.metrics import MetricsRegistry, NULL_OBS
from repro.storage.backup import FuzzyBackup
from repro.storage.stable_store import StableStore
from repro.storage.stats import IOStats
from repro.wal.log_manager import LogManager
from repro.wal.records import OperationRecord


class SystemHealth(enum.Enum):
    """The system's position on the escalation ladder.

    * ``HEALTHY`` — normal operation; all reads and writes allowed.
    * ``RECOVERING`` — crashed, recovery not (successfully) finished;
      reads and writes raise until :meth:`RecoverableSystem.recover`
      converges (the supervisor drives retries here).
    * ``DEGRADED`` — recovery converged but some objects are *lost*:
      quarantined, or written by a record the media redo could not
      redo, and not rebuilt since (``lost_objects``).  Reads of
      surviving objects succeed; reads of lost objects and **all**
      writes raise :class:`~repro.common.errors.DegradedModeError`.
      A crash keeps the lost set, so the next recovery lands here
      again unless a media redo rebuilds them.
    * ``FAILED`` — the supervisor exhausted its budgets without
      converging; nothing is trustworthy and every access raises.
    """

    HEALTHY = "healthy"
    RECOVERING = "recovering"
    DEGRADED = "degraded"
    FAILED = "failed"


@dataclass
class SystemConfig:
    """Configuration for one RecoverableSystem."""

    cache: CacheConfig = field(default_factory=CacheConfig)
    redo_test: RedoTest = field(default_factory=GeneralizedRedoTest)
    #: Automatic checkpointing: once this many log bytes have been
    #: appended since the last checkpoint, take the online checkpoint
    #: (:meth:`RecoverableSystem.checkpoint_if_due`) — install what the
    #: previous checkpoint left older than itself, write a checkpoint
    #: record, and truncate the installed log prefix.  None = manual only.
    checkpoint_every_bytes: Optional[int] = None
    #: Whether automatic checkpoints truncate the log.
    truncate_on_checkpoint: bool = True


class RecoverableSystem:
    """A complete simulated recoverable system."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        registry: Optional[FunctionRegistry] = None,
        store: Optional[StableStore] = None,
        log: Optional[LogManager] = None,
    ) -> None:
        self.config = config if config is not None else SystemConfig()
        self.registry = (
            registry if registry is not None else default_registry()
        )
        self.stats = IOStats()
        # Adopt pre-existing ledgers rather than discarding them: a
        # file-backed store may already have quarantined corrupt frames
        # while loading its directory, and those counts must survive
        # the switch to the shared ledger.
        adopted = []
        for component in (store, log):
            if component is None:
                continue
            prior = getattr(component, "stats", None)
            if prior is not None and not any(prior is p for p in adopted):
                self.stats.absorb(prior)
                adopted.append(prior)
            component.stats = self.stats
        self.store = store if store is not None else StableStore(self.stats)
        self.log = log if log is not None else LogManager(self.stats)
        self.cache = CacheManager(
            self.store, self.log, self.registry, self.config.cache, self.stats
        )
        #: Every operation submitted and not lost, in conflict order,
        #: for the verifiers; None once :meth:`release_history` ran.
        self.history: Optional[History] = History()
        self._crashed = False
        self.last_report: Optional[RecoveryReport] = None
        #: The supervisor's structured verdict from the most recent
        #: supervised recovery (set by callers that drive one, e.g.
        #: ``PersistentSystem.open(supervisor_config=...)``).
        self.last_failure_report = None
        #: The system's observability hub.  NULL_OBS (a no-op null
        #: object) until :meth:`attach_metrics` installs a registry;
        #: re-wired into every fresh cache manager across crash/recover.
        self.obs = NULL_OBS
        #: ``stats.log_bytes`` at the last checkpoint, and that
        #: checkpoint's lSI (None before the first in this process).
        self._checkpoint_marker = 0
        self._last_checkpoint: Optional[StateId] = None
        #: Escalation-ladder position (see :class:`SystemHealth`).
        #: Writes go through the ``health`` property so every transition
        #: is emitted (and lands in an attached flight recorder).
        self._health = SystemHealth.HEALTHY
        #: What the scrub quarantined, then what the last media redo
        #: could not rebuild; recover() lands DEGRADED while it is set.
        self.lost_objects: Set[ObjectId] = set()
        #: Objects quarantined by the most recent recover() attempt.
        self.last_quarantined: List[ObjectId] = []

    def attach_metrics(
        self, registry: Optional[MetricsRegistry] = None
    ) -> MetricsRegistry:
        """Attach (or create) the system's metrics registry.

        The registry absorbs the existing counter ledgers as collectors
        (``io.*`` from :class:`~repro.storage.stats.IOStats`,
        ``engine.*`` from the live write-graph engine's ``stats()``,
        ``cache.dirty_objects`` from the dirty object table, ``wal.*``
        from the log's ``footprint()``, the ``store.*`` gauges from the
        store's) and is
        wired into the log manager, cache manager and engine so hot
        paths record latencies into it.  Survives crash/recover.
        """
        if registry is None:
            registry = MetricsRegistry()
        self.obs = registry
        registry.add_collector("io", self.stats.snapshot)
        registry.add_collector("engine", lambda: dict(self.engine.stats()))
        registry.add_collector(
            "cache", lambda: {"dirty_objects": len(self.cache.dirty_table)}
        )
        registry.add_collector("wal", lambda: self.log.footprint())
        registry.add_collector(
            "store", lambda: self.store.footprint(), gauges=True
        )
        self._wire_obs()
        return registry

    def _wire_obs(self) -> None:
        """Point the current component set at the system registry."""
        self.log.obs = self.obs
        self.store.obs = self.obs
        self.cache.set_obs(self.obs)

    @property
    def health(self) -> SystemHealth:
        """Escalation-ladder position (see :class:`SystemHealth`)."""
        return self._health

    @health.setter
    def health(self, value: SystemHealth) -> None:
        previous = self._health
        self._health = value
        if value is not previous:
            # NULL_OBS makes this free when no registry is attached;
            # with one attached, the transition reaches every sink —
            # including the flight recorder, which self-dumps on FAILED.
            self.obs.emit(
                "health.transition",
                **{"from": previous.value, "to": value.value},
            )

    # ------------------------------------------------------------------
    # normal operation
    # ------------------------------------------------------------------
    def execute(self, op: Operation) -> Dict[ObjectId, Any]:
        """Submit one operation in conflict order."""
        if self._crashed:
            raise RuntimeError("system is crashed; call recover() first")
        if self.health is SystemHealth.DEGRADED:
            raise DegradedModeError(
                f"system is degraded (lost objects: "
                f"{sorted(map(str, self.lost_objects))}); writes are "
                f"disabled until the lost objects are restored"
            )
        if self.health is SystemHealth.FAILED:
            raise RuntimeError("system is FAILED; recovery did not converge")
        # Execute first: a failing operation must leave neither a log
        # record nor a history entry.
        try:
            writes = self.cache.execute(op)
        except SimulatedCrash:
            # An injected crash fired *inside* execution (a flush driven
            # by capacity pressure, a faulted device write) after the
            # operation was already logged.  The record may even have
            # been forced by that flush's WAL step, so the operation's
            # durability is decided at crash() like any other — it must
            # be on the history for the verifier's oracle to agree.
            if op.lsi > NULL_SI and self.history is not None:
                self.history.append(op)
            raise
        if self.history is not None:
            self.history.append(op)
        self._maybe_auto_checkpoint()
        return writes

    def _maybe_auto_checkpoint(self) -> None:
        every = self.config.checkpoint_every_bytes
        if every is not None:
            self.checkpoint_if_due(every, self.config.truncate_on_checkpoint)

    def checkpoint_if_due(self, every_bytes: int, truncate: bool = True) -> bool:
        """The online checkpoint, once ``every_bytes`` of log have been
        appended since the last checkpoint; True when it ran.

        The bytes are ``stats.log_bytes``: the modelled
        ``record_size()`` of each appended record (Figure 1), not its
        encoded size on a file log, so a change to the codec moves no
        checkpoint.

        It installs every node holding a record older than the
        *previous* checkpoint, then checkpoints and (with ``truncate``)
        drops the log below the new minimum rSI — so the log holds
        about two intervals, plus whatever a protection pins.  Waiting
        one interval before installing gives a blind overwrite the
        chance to leave a node unexposed, so most installs flush
        nothing.  The embedded ``checkpoint_every_bytes`` path and the
        serving daemon both take this one.
        """
        if self.stats.log_bytes - self._checkpoint_marker < every_bytes:
            return False
        self.checkpoint(truncate=truncate, install_below=self._last_checkpoint)
        return True

    def read(self, obj: ObjectId) -> Any:
        """Read the current value of ``obj`` (through the cache).

        In DEGRADED health, reads of surviving objects still succeed —
        that is the point of degraded read-only mode — while reads of
        the lost objects raise, loudly, instead of returning a silently
        wrong ``None``.
        """
        if self._crashed:
            raise RuntimeError("system is crashed; call recover() first")
        if self.health is SystemHealth.FAILED:
            raise RuntimeError("system is FAILED; recovery did not converge")
        if self.health is SystemHealth.DEGRADED and obj in self.lost_objects:
            raise DegradedModeError(
                f"{obj!r} was lost (no backup version, no log-reachable "
                f"derivation); its value is unavailable in degraded mode"
            )
        return self.cache.read_object(obj)

    def peek(self, obj: ObjectId) -> Any:
        """Read without I/O accounting; works even while crashed (it
        inspects whatever survives)."""
        return self.cache.peek_object(obj)

    def purge(self) -> bool:
        """Install one write-graph node (PurgeCache)."""
        return self.cache.purge()

    @property
    def engine(self):
        """The cache manager's live write-graph engine (rW or W)."""
        return self.cache.engine

    def flush_all(self) -> int:
        """Install every uninstalled operation."""
        return self.cache.flush_all()

    def checkpoint(
        self, truncate: bool = False, install_below: Optional[StateId] = None
    ) -> StateId:
        """Write a checkpoint record; optionally install the nodes
        holding records below ``install_below`` first
        (:meth:`CacheManager.install_before`) and truncate the log."""
        lsi = self.cache.checkpoint(
            truncate=truncate, install_below=install_below
        )
        self._last_checkpoint = lsi
        self._checkpoint_marker = self.stats.log_bytes
        return lsi

    # ------------------------------------------------------------------
    # crash and recovery
    # ------------------------------------------------------------------
    def crash(self) -> List[Operation]:
        """Lose all volatile state; returns the durably-lost operations.

        The cache and the volatile log buffer are discarded.  Operations
        whose records had not reached the stable log — read off the
        buffer itself — are removed from the history when one is kept:
        durably, they never happened.

        Idempotent, so callers need not ask first: on a crashed system
        the buffer is already empty, so a second call loses nothing,
        returns ``[]`` and leaves the system crashed and RECOVERING.
        (A FAILED system moves to RECOVERING — the transition the first
        ``recover()`` of the ladder that follows would make anyway.)
        """
        lost = [
            record.op
            for record in self.log.buffered_records()
            if isinstance(record, OperationRecord)
        ]
        self.log.crash()
        if lost and self.history is not None:
            # The surviving history deliberately includes operations
            # truncated off the log: they are installed, and the
            # verification oracle needs them to compute expected values.
            lost_lsis = {op.lsi for op in lost}
            self.history = History(
                op for op in self.history if op.lsi not in lost_lsis
            )
        self.cache = CacheManager(
            self.store,
            self.log,
            self.registry,
            self.config.cache,
            self.stats,
        )
        self.cache.set_obs(self.obs)
        self._crashed = True
        self.health = SystemHealth.RECOVERING
        return lost

    def recover(
        self, quarantine_backup: Optional["FuzzyBackup"] = None
    ) -> RecoveryReport:
        """Run analysis + redo and adopt the outcome.

        Before either pass runs, the stable store is scrubbed: stored
        versions that fail their integrity check (torn writes, bit rot)
        are **quarantined** rather than replayed over, and recovery
        falls back to media mode for the whole store — the redo scan
        opens early, uses the per-object vSI test and keeps the ledger
        of lost objects (see :meth:`RecoveryManager.run`).  With
        ``quarantine_backup`` the whole image is restored
        (:meth:`FuzzyBackup.restore_into`) and the redo scan opens at
        its ``start_lsi``: every object a redone record reads is then
        at or before that record's state, which is what the REDO test
        needs of a logical record's inputs.  Without one, the scan
        widens to the retained log's start and the redo rebuilds what
        the log still writes.  A media redo sets ``lost_objects`` to
        what it could not rebuild, a normal one keeps it, and the
        system lands DEGRADED while it is not empty.

        The widened window is recorded on the stable store
        (``media_redo_pending``) *before* the restore's first write and
        until a recovery completes.  A recovery that finds it pending
        widens again and, given a backup, restores the image again: a
        crash inside the restore or the redo leaves a store that is
        part image, part later state, and only the whole image is a
        state the redo can start from.
        """
        self.health = SystemHealth.RECOVERING
        self.last_quarantined = []
        with self.obs.span("recovery.scrub", phase="recovery") as scrub_span:
            media_start = self._quarantine_scrub(quarantine_backup)
            scrub_span.tag(
                quarantined=sorted(map(str, self.last_quarantined))
            )
        manager = RecoveryManager(
            self.log,
            self.store,
            self.registry,
            self.config.redo_test,
            self.stats,
        )
        with self.obs.span(
            "recovery.redo",
            phase="recovery",
            media=media_start is not None,
        ) as redo_span:
            outcome = manager.run(media_start, self.lost_objects)
            redo_span.tag(redone=len(outcome.redone_ops))
        if self.history is not None and len(self.history) == 0:
            # A verifier's *cold open* (no in-process history, e.g. a
            # database directory): the stable log is all there is.
            self.history = History(self.log.stable_operations())
        with self.obs.span("recovery.adopt", phase="recovery"):
            self.cache = CacheManager(
                self.store,
                self.log,
                self.registry,
                self.config.cache,
                self.stats,
            )
            self.cache.set_obs(self.obs)
            self.cache.adopt_recovery(outcome.volatile, outcome.redone_ops)
        self._crashed = False
        if media_start is not None:
            self.lost_objects = outcome.lost
        if self.lost_objects:
            self.enter_degraded(self.lost_objects)
        else:
            self.health = SystemHealth.HEALTHY
        self.store.media_redo_pending = None
        self.last_report = outcome.report
        return outcome.report

    def _quarantine_scrub(
        self, backup: Optional["FuzzyBackup"]
    ) -> Optional[StateId]:
        """Quarantine checksum-failing versions; open the redo window;
        restore the backup's whole image when one is needed.

        Returns the redo window's start: a pending marker's, lowered —
        when corruption was found or a restore is pending — to the
        backup's ``start_lsi`` (without a backup, to the retained log's
        start on corruption).  None, when nothing asks for media mode.
        """
        # A prior attempt's media restore whose widened redo never
        # finished: its store may hold part of the image.
        pending = self.store.media_redo_pending
        corrupt = self.store.scrub()
        for obj in corrupt:
            self.last_quarantined.append(obj)
            self.lost_objects.add(obj)
            self.store.quarantine(obj)
            self.stats.quarantines += 1
        if corrupt:
            self.stats.media_recoveries += 1
        restore = backup is not None and (bool(corrupt) or pending is not None)
        starts = [] if pending is None else [pending]
        if restore:
            starts.append(backup.start_lsi)
        elif corrupt:
            starts.append(self.log.stable_start_lsi())
        if not starts:
            return None
        start = min(starts)
        # The marker goes down before the restore's first write, so a
        # crash inside the restore is answered by another restore.
        self.store.media_redo_pending = start
        if restore:
            backup.restore_into(self.store)
            # The image holds every object at a recoverable state.
            self.lost_objects = set()
        return start

    # ------------------------------------------------------------------
    # escalation ladder (driven by the recovery supervisor)
    # ------------------------------------------------------------------
    def enter_degraded(self, lost: Iterable[ObjectId]) -> None:
        """Enter degraded read-only mode, naming the lost objects.

        :meth:`recover` calls it when its lost-object ledger is not
        empty.  Surviving objects stay readable;
        writes — which would let new state depend on the holes — raise
        :class:`~repro.common.errors.DegradedModeError`.
        """
        self.lost_objects = set(lost)
        self.health = SystemHealth.DEGRADED

    def mark_failed(self) -> None:
        """Declare recovery non-convergent: every access now raises."""
        self.health = SystemHealth.FAILED

    def close(self) -> None:
        """Release what the system holds open: the append descriptors
        of the file log and of the logstore's active segment.

        Idempotent; the system remains usable afterwards (the next
        force or store write reopens its file).  Long-lived owners —
        the serving daemon, benchmark harnesses — call this on shutdown
        so the descriptors do not outlive their system.
        """
        self.log.close()
        self.store.close()

    # ------------------------------------------------------------------
    # verification support
    # ------------------------------------------------------------------
    def release_history(self) -> None:
        """Stop keeping the submitted history.

        For owners that outlive any verifier: from here on ``execute``
        / ``crash`` / ``recover`` touch no per-operation list, so memory
        tracks the live objects rather than the operations ever
        submitted.  ``verify_recovered`` refuses such a system.
        """
        self.history = None

    def oracle(self, initial: Optional[Dict[ObjectId, Any]] = None) -> Oracle:
        """An oracle bound to this system's function registry."""
        return Oracle(self.registry, initial)

    def stable_values(self) -> Dict[ObjectId, Any]:
        """Raw stable-store values (verifiers only; no accounting)."""
        return {obj: version.value for obj, version in self.store.items()}
