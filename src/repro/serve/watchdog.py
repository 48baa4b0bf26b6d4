"""The serving watchdog: recovery supervision for a live daemon.

A daemon has two moments where recovery must be *driven*, not just
possible:

* **startup** — the listener must not open until the system is in a
  servable state.  :meth:`ServingWatchdog.supervised_startup` runs the
  :class:`~repro.kernel.supervisor.RecoverySupervisor` escalation
  ladder over whatever the storage contains (a clean directory, the
  debris of a SIGKILL, a half-finished media restore) and only returns
  once the ladder lands somewhere terminal (HEALTHY, DEGRADED, or
  FAILED — the admission gate then enforces what each state may serve);
* **mid-serve crash** — an injected or real storage failure surfacing
  inside ``execute``/``force`` while requests are in flight.  The apply
  loop reports it to :meth:`handle_serving_crash`, which discards the
  volatile state (``system.crash()``) and re-runs the ladder while the
  admission gate queues new arrivals (health is RECOVERING throughout).

The watchdog never owns recovery policy — that is the supervisor's
ladder, whose attempt budget (``DaemonConfig.supervisor``) decides when
the daemon stops trusting the device (exhausted ⇒ the system is marked
FAILED and every subsequent request is refused) — it owns *when* the
ladder runs, and counts the mid-serve restarts.
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.supervisor import (
    FailureReport,
    RecoverySupervisor,
    SupervisorConfig,
)
from repro.kernel.system import RecoverableSystem, SystemHealth
from repro.storage.backup import FuzzyBackup


class ServingWatchdog:
    """Drives the escalation ladder on behalf of a serving loop."""

    def __init__(
        self,
        system: RecoverableSystem,
        backup: Optional[FuzzyBackup] = None,
        config: Optional[SupervisorConfig] = None,
    ) -> None:
        self.system = system
        self.backup = backup
        #: The ladder's budget for every recovery this watchdog drives.
        self.config = config if config is not None else SupervisorConfig()
        #: Mid-serve restarts performed so far.
        self.restarts = 0
        #: The most recent ladder verdict (startup or restart).
        self.last_report: Optional[FailureReport] = None

    # ------------------------------------------------------------------
    # startup
    # ------------------------------------------------------------------
    def supervised_startup(self) -> Optional[FailureReport]:
        """Bring the system to a servable state before the listener opens.

        A system that is already HEALTHY or DEGRADED (e.g. one
        ``PersistentSystem.open`` recovered moments ago) is served as
        is; anything else — a crashed system, one left RECOVERING by an
        abrupt kill — goes through the ladder.  Returns the ladder's
        report, or ``None`` when no recovery was needed.
        """
        if self.system.health in (SystemHealth.HEALTHY, SystemHealth.DEGRADED):
            return None
        return self._run_ladder()

    # ------------------------------------------------------------------
    # mid-serve crash
    # ------------------------------------------------------------------
    def handle_serving_crash(
        self, cause: BaseException, trace=None
    ) -> FailureReport:
        """Answer a crash that surfaced while serving traffic.

        Volatile state is discarded (operations whose records never
        reached the stable log never happened, durably — which is why
        the daemon only acknowledges after a WAL force) and the ladder
        runs to a terminal state.

        ``trace`` is the crashed request's distributed-trace context,
        when it carried one: the ladder's per-attempt spans join that
        trace, so the tree shows recovery as a consequence of the
        request that tripped it.
        """
        system = self.system
        obs = system.obs
        if obs.enabled:
            obs.count("serve.crashes")
        obs.emit(
            "watchdog.crash",
            cause=type(cause).__name__,
            restarts=self.restarts,
        )
        self.restarts += 1
        if obs.enabled:
            obs.count("serve.restarts")
        obs.emit("watchdog.restart", restarts=self.restarts)
        if not system._crashed:
            system.crash()
        return self._run_ladder(trace=trace)

    # ------------------------------------------------------------------
    # shared
    # ------------------------------------------------------------------
    def _run_ladder(self, trace=None) -> FailureReport:
        supervisor = RecoverySupervisor(
            self.system, backup=self.backup, config=self.config
        )
        supervisor.trace = trace
        report = supervisor.run()
        self.last_report = report
        obs = self.system.obs
        if obs.enabled:
            obs.gauge("serve.watchdog_restarts", self.restarts)
        return report
