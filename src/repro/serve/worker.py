"""One shard's worker: its apply loop, its committer, its crash hand-off.

* **one apply thread** — the kernel is not thread-safe, so shard k's
  kernel is touched only by shard k's apply thread; reader threads only
  frame, validate, gate and enqueue.  It re-gates each dequeued item
  (deadline, health), executes and appends, and *parks* the reply: a
  write touches no device or socket on it;
* **one committer** — loops *one ``log.force()`` of the buffered
  prefix → with a sender attached, one witness wait → send every parked
  reply the stable end (or witness watermark) now covers*.  No timer,
  no batch size: a lone request is forced at once, and an acked write
  is durable by construction (DESIGN.md §4b);
* **the crash hand-off** — a storage failure inside an apply (or a
  committer's force) refuses every parked reply with a retryable
  ``UNAVAILABLE``, crashes the kernel and re-runs its escalation ladder
  on the apply thread while admission keeps queueing and the other
  shards serve on;
* **one recovery driver** — :meth:`_Shard.supervise` is the only place
  the serving layer runs the
  :class:`~repro.kernel.supervisor.RecoverySupervisor` ladder: before
  the listener opens, on revive, after a mid-serve crash, and for a
  witness's redo cycles and promotion.  It owns *when* the ladder runs;
  the ladder's attempt budget (``DaemonConfig.supervisor``) decides
  when the shard stops trusting its device (exhausted ⇒ FAILED, and
  every later request is refused).

A worker holds its daemon and calls it directly: the daemon dispatches
the verb (``ServeDaemon._dispatch``) and sends every refusal
(``ServeDaemon._refuse``).
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import (
    Any, Callable, Deque, Dict, List, Optional, Tuple, TYPE_CHECKING
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.replica.sender import ReplicationSender
    from repro.serve.cross import _CrossJob
    from repro.serve.server import ServeDaemon, _Connection

from repro.common.errors import (
    CorruptObjectError,
    DegradedModeError,
    ReproError,
    SimulatedCrash,
    TransientStorageError,
)
from repro.common.identifiers import NULL_SI, StateId
from repro.kernel.supervisor import RecoverySupervisor
from repro.kernel.system import RecoverableSystem, SystemHealth
from repro.obs.tracing import TraceContext, record_stage
from repro.serve.errors import FencedError, ServerUnavailableError
from repro.serve.protocol import WRITE_KINDS
from repro.shard.group import CrossShardError
from repro.storage.backup import FuzzyBackup

#: Log bytes appended between a shard's online checkpoints.  They are
#: the modelled ``record_size()`` bytes of ``IOStats.log_bytes``, not
#: encoded ``wal.log`` bytes, on purpose: a record layout that shrinks
#: the file (the compact blind write) then moves no checkpoint, install
#: or truncation, only the bytes between them.  Each one
#: installs what is older than the previous one, so a key that is
#: rewritten within an interval never costs a store write: per put, the
#: chance of a flush is about e^(-interval / (keys x record bytes)) —
#: ~7% for uniform puts over 1 024 keys of 128 B.  Half the interval
#: flushes a quarter of those puts, on the apply thread, for a log half
#: as long; twice it doubles the log (and a killed daemon's redo) to
#: save flushes this interval already mostly avoids.
ONLINE_CHECKPOINT_BYTES = 512 * 1024

#: Storage failures that surface inside an apply: the shard's volatile
#: state is suspect, so the shard crashes it and re-runs the ladder.
_SERVING_CRASHES = (SimulatedCrash, CorruptObjectError, TransientStorageError)


def _stage_ctx(trace: Optional[TraceContext]) -> Optional[TraceContext]:
    """A stage's own context: a direct child of the client's root."""
    return trace.child() if trace is not None else None


@dataclass(eq=False)  # identity: one item is parked, taken, answered once
class _Work:
    """One admitted request waiting in a shard's queue."""

    request: Dict[str, Any]
    conn: "_Connection"
    deadline: float
    enqueued: float
    #: Distributed-trace context minted by the client (None untraced).
    trace: Optional[TraceContext] = None
    #: Rendezvous state when the footprint spans shards: the same work
    #: item then sits in every participant's queue.
    cross: Optional["_CrossJob"] = None
    #: Set by the apply: the lSI the stable end must cover before
    #: ``response`` leaves (a write's own, a get's observed vSI), and
    #: when the apply started / parked it (monotonic).
    lsi: StateId = NULL_SI
    started: float = 0.0
    parked: float = 0.0
    response: Optional[Dict[str, Any]] = None


class _Shard:
    """One recovery domain's worker: queue, apply loop and committer."""

    def __init__(
        self,
        daemon: "ServeDaemon",
        index: int,
        system: RecoverableSystem,
        backup: Optional[FuzzyBackup] = None,
    ) -> None:
        self.daemon = daemon
        self.index = index
        #: Per-ack counter name, built once rather than per ack.
        self.acked_writes = f"serve.shard.{index}.acked_writes"
        self.system = system
        #: The image the ladder restores damaged objects from (None =
        #: replay only).
        self.backup = backup
        #: Mid-serve restarts performed so far.
        self.restarts = 0
        #: Primary-side replication of this shard's WAL (None =
        #: standalone).  With a sender attached, every write's ack
        #: additionally waits for the witness's durable receipt — see
        #: :mod:`repro.replica.sender`.
        self.replication: Optional["ReplicationSender"] = None
        self.queue: "queue.Queue[_Work]" = queue.Queue(
            maxsize=max(1, daemon.config.max_queue)
        )
        self.thread: Optional[threading.Thread] = None
        #: Replies parked behind the committer, in apply order, guarded
        #: by ``commit`` (which the apply thread signals on each park).
        self.parked: Deque[_Work] = deque()
        self.commit = threading.Condition()
        self.committer: Optional[threading.Thread] = None
        #: A force failure the committer hit, until the apply thread —
        #: the only one on the kernel — has recovered from it.
        self.crash: Optional[BaseException] = None
        self.stop = threading.Event()
        self.idle = threading.Event()
        self.idle.set()
        #: True between kill_shard and revive_shard: the workers are
        #: dead and the shard's volatile state is gone.
        self.killed = False

    def depth(self) -> int:
        """Admitted work not yet answered: queued plus parked."""
        return self.queue.qsize() + len(self.parked)

    def failed_message(self) -> str:
        """Why a FAILED shard refuses, at admission and at its gate."""
        return (
            f"shard {self.index}: recovery did not converge; "
            "the system is failed"
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the apply thread and the committer."""
        self.stop = threading.Event()
        self.crash = None
        self.thread = threading.Thread(
            target=self._shard_loop,
            name=f"repro-serve-apply-{self.index}",
            daemon=True,
        )
        self.committer = threading.Thread(
            target=self._commit_loop,
            name=f"repro-serve-commit-{self.index}",
            daemon=True,
        )
        self.thread.start()
        self.committer.start()

    def halt(self, timeout: float) -> None:
        """Stop both threads and join them: nothing is released after
        the stop flag, and whoever halts owns what is still parked."""
        self.stop.set()
        for thread in (self.thread, self.committer):
            if thread is not None:
                thread.join(timeout=timeout)

    def flush(self, code: Optional[str], message: str = "") -> None:
        """Answer (or drop, when ``code`` is None) any leftover work,
        parked replies first — never with an ack."""
        with self.commit:
            leftovers = list(self.parked)
            self.parked.clear()
        while True:
            try:
                leftovers.append(self.queue.get_nowait())
            except queue.Empty:
                break
        for work in leftovers:
            if work.cross is not None and not work.cross.cancel():
                continue  # another participant's flush already answered
            if code is not None:
                self.daemon._refuse(
                    work.conn, work.request, code, message, shard=self
                )

    # ------------------------------------------------------------------
    # apply side: the only thread on this shard's kernel
    # ------------------------------------------------------------------
    def _shard_loop(self) -> None:
        while True:
            try:
                work = self.queue.get(timeout=0.05)
            except queue.Empty:
                work = None
            if self.crash is not None:
                self._crashed(self.crash)
                with self.commit:
                    self.crash = None
                    self.commit.notify()
            if work is None:
                if self.stop.is_set():
                    return
                continue
            self.idle.clear()
            try:
                self._apply_one(work)
            finally:
                self.idle.set()

    def _apply_one(self, work: _Work) -> None:
        """Gate one dequeued work item, then run it.

        Every item — a cross-shard token included — passes the same
        two gates before any kernel is touched: its deadline, and the
        health its shard moved to while it sat in the backlog (a
        mid-serve restart may have run).
        """
        daemon = self.daemon
        job = work.cross
        if job is not None and job.cancelled:
            return
        now = time.monotonic()
        refusal = None
        if now > work.deadline:
            refusal = (
                "DEADLINE",
                f"deadline expired after {now - work.enqueued:.3f}s "
                "in queue",
            )
        elif self.system.health is SystemHealth.FAILED:
            refusal = ("FAILED", self.failed_message())
        if refusal is not None:
            if job is None or job.cancel():
                code, message = refusal
                daemon._refuse(
                    work.conn, work.request, code, message, shard=self,
                    counter=code.lower(),
                )
            return
        if job is not None:
            daemon._rendezvous.participate(self, work)
            return
        # Queue wait, attributed before the kernel touches the request
        # (a span in its tree too, when the request carried a trace).
        record_stage(
            daemon.obs, "ack.queue_ms", now - work.enqueued,
            _stage_ctx(work.trace),
            kind=work.request.get("kind"), shard=self.index,
        )
        self._answer(work, (self,), lambda: daemon._dispatch(self, work))

    def _answer(
        self,
        work: _Work,
        involved: Tuple["_Shard", ...],
        run: Callable[[], Dict[str, Any]],
    ) -> None:
        """Run one admitted request's kernel work and answer it.

        Shared by the single-shard apply and the cross-shard
        coordinator; either way this thread holds the turn of every
        involved kernel.  ``ok: true`` only leaves once the stable end
        covers ``work.lsi``: a single-shard write is parked for the
        committer, a ``get`` only when it read an unforced version, and
        a cross-shard apply forced its fences inside ``run``.  Anything
        ``run`` raises is answered from the one table in
        :meth:`_refuse_raised`, and a storage crash is then handed to
        every involved shard's :meth:`_crashed`.
        """
        work.started = time.monotonic()
        try:
            response = run()
        except Exception as exc:  # noqa: BLE001 - the loop must survive
            # Answer first: a crashed request's client should retry,
            # not wait out the whole recovery.
            self._refuse_raised(work, involved, exc)
            if isinstance(exc, _SERVING_CRASHES):
                if len(involved) > 1:
                    self.daemon.obs.count("serve.cross_shard_crashes")
                for shard in involved:
                    if not shard.killed:
                        shard._crashed(exc, trace=work.trace)
            return
        wrote = work.request["kind"] in WRITE_KINDS
        if len(involved) == 1 and (wrote or not self._covered(work.lsi)):
            work.response = response
            work.parked = time.monotonic()
            with self.commit:
                self.parked.append(work)
                self.commit.notify()
        else:
            work.conn.send(response)
            self._observe(work)
        if wrote:
            self._after_write(work, involved)

    def _after_write(
        self, work: _Work, involved: Tuple["_Shard", ...]
    ) -> None:
        """After a write, with its reply on its way: install — at zero
        I/O — what its blind updates left unexposed, so the write graph
        holds live objects and the in-flight window, not every
        operation served; and every :data:`ONLINE_CHECKPOINT_BYTES` of
        log, take the online checkpoint, so the log (and a restart's
        redo) holds about two intervals, not every write served
        (DESIGN.md §4)."""
        try:
            for shard in involved:
                shard.system.cache.install_unexposed()
                shard.system.checkpoint_if_due(ONLINE_CHECKPOINT_BYTES)
        except Exception as exc:  # noqa: BLE001 - the loop must survive
            # The bookkeeping failed, not the request: the volatile
            # state is suspect, and recovery rebuilds all of it from
            # the stable log (parked replies are refused retryably).
            crash = TransientStorageError(
                f"write-graph bookkeeping failed: {exc!r}"
            )
            for shard in involved:
                if not shard.killed:
                    shard._crashed(crash, trace=work.trace)

    def _observe(self, work: _Work) -> None:
        self.daemon.obs.observe(
            "serve.request_seconds", time.monotonic() - work.started
        )

    def supervise(self, trace: Optional[TraceContext] = None) -> None:
        """Run the escalation ladder on this shard's kernel until it
        lands HEALTHY, DEGRADED or FAILED (the admission gate enforces
        what each may serve).

        ``trace`` is the crashed request's distributed-trace context,
        when it carried one: the ladder's per-attempt spans join that
        trace, so the tree shows recovery as a consequence of the
        request that tripped it.
        """
        supervisor = RecoverySupervisor(
            self.system, backup=self.backup,
            config=self.daemon.config.supervisor,
        )
        supervisor.trace = trace
        supervisor.run()
        self.system.obs.gauge("serve.watchdog_restarts", self.restarts)

    def _crashed(self, exc: BaseException, trace=None) -> None:
        """Refuse what is parked, then recover — in that order: a reply
        whose record dies with the log buffer must never meet a later,
        higher stable end.  Runs on the kernel's own (apply) thread.

        Volatile state is discarded (operations whose records never
        reached the stable log never happened, durably — which is why
        the daemon only acknowledges after a WAL force) and the ladder
        runs while admission keeps queueing (health is RECOVERING
        throughout).
        """
        self._refuse_parked(exc)
        self.daemon.obs.count(f"serve.shard.{self.index}.crashes")
        obs = self.system.obs
        obs.count("serve.crashes")
        obs.emit(
            "watchdog.crash", cause=type(exc).__name__,
            restarts=self.restarts,
        )
        self.restarts += 1
        obs.count("serve.restarts")
        obs.emit("watchdog.restart", restarts=self.restarts)
        self.system.crash()
        self.supervise(trace)

    def _refuse_raised(
        self, work: _Work, involved: Tuple["_Shard", ...], exc: Exception
    ) -> None:
        """The one exception → response table (DESIGN.md §4b)."""
        single = involved[0] if len(involved) == 1 else None
        health = None
        retry_after_ms = None
        if isinstance(exc, FencedError):
            code, message = "FENCED", str(exc)
        elif isinstance(exc, (ServerUnavailableError, CrossShardError)):
            # Replication could not confirm the witness's durable
            # receipt (the write executed locally but was NOT acked —
            # at-least-once retries are safe, acks are never produced
            # without the receipt), or a cross-shard participant was
            # not HEALTHY at pre-flight (nothing was mutated).
            code, message = "UNAVAILABLE", str(exc)
            retry_after_ms = (
                getattr(exc, "retry_after_ms", None)
                or self.daemon.config.retry_after_ms
            )
        elif isinstance(exc, DegradedModeError):
            code, message = "DEGRADED", str(exc)
        elif isinstance(exc, _SERVING_CRASHES):
            # Mid-serve crash: the request's durability is whatever the
            # WAL made of it (never acked here; a partial cross-shard
            # fence is, by construction, unacked), and each involved
            # shard's crash hand-off gets it back.
            code = "UNAVAILABLE"
            message = (
                f"serving crash ({type(exc).__name__}: {exc}); "
                "recovery in progress"
            )
            retry_after_ms = self.daemon.config.retry_after_ms
            health = SystemHealth.RECOVERING
        elif isinstance(exc, ReproError):
            code, message = "BAD_REQUEST", f"{type(exc).__name__}: {exc}"
        else:
            code, message = "INTERNAL", f"{type(exc).__name__}: {exc}"
        self.daemon._refuse(
            work.conn, work.request, code, message, shard=single,
            retry_after_ms=retry_after_ms, health=health,
        )
        self._observe(work)

    # ------------------------------------------------------------------
    # commit side (DESIGN.md §4b)
    # ------------------------------------------------------------------
    def _covered(self, lsi: StateId) -> bool:
        """The release rule: the record is stable — replicated, durably
        on the witness (only forced records ship, so that implies it)."""
        sender = self.replication
        if sender is not None:
            return sender.watermark >= lsi
        return self.system.log.is_stable(lsi)

    def _unpark(self, want: Callable[[_Work], bool]) -> List[_Work]:
        """Remove and return the parked replies ``want`` admits.  Whoever
        removes a reply answers it, so each is answered exactly once."""
        with self.commit:
            taken: List[_Work] = []
            kept: Deque[_Work] = deque()
            for work in self.parked:
                (taken if want(work) else kept).append(work)
            self.parked = kept
        return taken

    def _refuse_parked(self, exc: BaseException, only: Any = None) -> None:
        """The failure rule: every parked reply (or those of ``only``
        still parked) is answered from the refusal table, never acked."""
        for work in self._unpark(
            lambda work: only is None or work in only
        ):
            self._refuse_raised(work, (self,), exc)

    def _commit_loop(self) -> None:
        """Commit whenever something is parked: a lone request is
        forced at once, and a batch is whatever the apply thread parked
        during the previous force."""
        while True:
            with self.commit:
                while not self.stop.is_set() and (
                    not self.parked or self.crash is not None
                ):
                    self.commit.wait(0.05)
                if self.stop.is_set():
                    return  # whoever set it owns what is still parked
            try:
                self.system.log.force()  # the whole buffer, one write
            except Exception as exc:  # noqa: BLE001 - any device verdict
                # The volatile state is suspect: refuse everything, and
                # the apply thread (the kernel's owner) recovers.
                if not isinstance(exc, _SERVING_CRASHES):
                    exc = TransientStorageError(f"WAL force failed: {exc!r}")
                self._refuse_parked(exc)
                self.crash = exc
                continue
            try:
                self._release(time.monotonic())
            except Exception as exc:  # noqa: BLE001 - the loop must survive
                self._refuse_parked(exc)

    def _release(self, forced: float) -> None:
        """After a force: wait for the witness when replicated, then
        send every parked reply the release rule now admits."""
        obs = self.daemon.obs
        sender = self.replication
        witnessed = forced
        lead = wait_ctx = None
        if sender is not None:
            log = self.system.log
            with self.commit:
                batch = [w for w in self.parked if log.is_stable(w.lsi)]
            if not batch:
                return  # a crash on the apply side refused them first
            # The first traced request lends the shipped batch its trace
            # context: the witness's spans nest under that wait.
            lead = next((w for w in batch if w.trace is not None), None)
            wait_ctx = lead.trace.child() if lead is not None else None
            try:
                sender.replicate(
                    max(work.lsi for work in batch),
                    min(work.deadline for work in batch),
                    trace=wait_ctx,
                )
            except Exception as exc:  # noqa: BLE001 - fenced, detached, late
                # Each request is refused at its own deadline; when none
                # has passed, the wait itself failed the whole batch.
                now = time.monotonic()
                late = [work for work in batch if work.deadline <= now]
                self._refuse_parked(exc, late or batch)
                return
            witnessed = time.monotonic()
        if self.stop.is_set():
            return  # killed mid-batch: no ack leaves after the kill
        wall = time.time() - time.monotonic()  # span start stamps

        def waited(name: str, start: float, end: float, ctx) -> None:
            record_stage(
                obs, name, max(0.0, end - start), ctx, ts=wall + start,
                shard=self.index,
            )

        for work in self._unpark(lambda work: self._covered(work.lsi)):
            ctx = _stage_ctx(work.trace)
            waited("ack.force_ms", work.parked, forced, ctx)
            if sender is not None:
                waited(
                    "ack.repl_wait_ms", max(forced, work.parked), witnessed,
                    wait_ctx if work is lead else ctx,
                )
            if work.request["kind"] in WRITE_KINDS:
                count_acked(obs, (self,))
            work.conn.send(work.response)
            self._observe(work)


def enqueue(work: _Work, involved: List[_Shard]) -> Optional[_Shard]:
    """Queue ``work`` on every involved shard; the full one, if any."""
    for shard in involved:
        try:
            if shard.depth() >= shard.queue.maxsize:
                raise queue.Full  # parked replies count too
            shard.queue.put_nowait(work)
        except queue.Full:
            if work.cross is not None:
                work.cross.cancel()
            return shard
    return None


def count_acked(obs, shards) -> None:
    """One acked write, on the daemon's total and on each shard it
    wrote."""
    obs.count("serve.acked_writes")
    for shard in shards:
        obs.count(shard.acked_writes)
