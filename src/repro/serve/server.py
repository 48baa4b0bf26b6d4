"""The serving daemon: one supervised socket front end, N recovery domains.

``ServeDaemon`` puts the length-prefixed JSON protocol of
:mod:`repro.serve.protocol` in front of one
:class:`~repro.kernel.system.RecoverableSystem` — or of the N kernels
of a :class:`~repro.shard.ShardedSystem`; the single-kernel server *is*
the one-shard case of the same class (trivial router, rendezvous never
taken) — and turns the escalation-ladder machinery into an *operable*
long-running process:

* **supervised startup** — the listener does not open until every
  shard's :class:`~repro.serve.watchdog.ServingWatchdog` has driven
  recovery to a terminal state, so a daemon restarted over SIGKILL
  debris serves its first request from verified state.  A shard that
  lands DEGRADED or FAILED does not block the others — admission gates
  per shard, which is the partial-outage point;
* **health-gated admission, per shard** — each shard has its own
  bounded queue and health gate: requests are admitted when HEALTHY,
  queued (bounded backlog) while RECOVERING, answered read-only while
  DEGRADED (writes get a structured ``DEGRADED`` rejection), refused
  outright when FAILED.  One shard DEGRADED answers *its* writes with
  ``DEGRADED`` while the other shards keep acking; one shard's full
  queue answers ``BACKPRESSURE`` **with the shard index**, so clients
  back off that shard only;
* **one apply thread per shard** — the kernel is not thread-safe, so
  shard k's kernel is touched only by shard k's worker; reader threads
  only frame, validate, gate and enqueue.  The worker executes, appends
  and *parks* the reply: a write touches no device or socket on it;
* **one committer per shard** — the second stage of the ack pipeline
  (``ack.queue_ms → ack.apply_ms → ack.force_ms →
  [ack.repl_wait_ms]``, DESIGN.md §4b) loops *one ``log.force()`` of
  the buffered prefix → with a sender attached, one witness wait →
  send every parked reply the stable end (and witness watermark) now
  covers*: a write waits for its lSI, a ``get`` for the vSI it read
  (answered inline when already covered).  No timer, no batch size: a
  lone request is forced at once, its company is whatever was parked
  during the previous force, and an acked write is durable by
  construction — the exactly-once visibility invariant the live-fire
  torture lanes assert.  A failed force or witness wait answers the
  parked batch from :meth:`ServeDaemon._refusal`, acks none, and (a
  storage failure) hands the shard to its watchdog once;
* **deadlines and backpressure** — every request carries a deadline
  budget (``deadline_ms``, defaulted and capped by config); a request
  that expires while queued — a cross-shard one included — is answered
  ``DEADLINE`` without touching a kernel, and a full queue answers
  ``BACKPRESSURE`` with a ``retry_after_ms`` hint the client's backoff
  honors;
* **mid-serve crash watchdog, per shard** — a storage failure
  surfacing inside an apply discards that shard's volatile state and
  re-runs its supervisor ladder while admission keeps queueing and the
  other shards serve on; the in-flight request and every parked reply
  get a retryable ``UNAVAILABLE`` answer (their durability is decided
  by the WAL, and the daemon only ever acks after a force);
* **cross-shard operations** — an ``apply`` whose footprint spans
  shards is executed under a rendezvous: the operation is enqueued to
  every participant, the lowest-numbered participant coordinates, the
  other participants park their worker (their kernel's "turn" is what
  the coordinator borrows), and the
  :meth:`~repro.shard.ShardedSystem.execute_cross` fence protocol
  runs — local physical ops, fence records on every participant, all
  participant WALs forced inline (not pipelined), then the ack.
  Rendezvous tokens are enqueued under one daemon-wide lock so their
  relative order is the same in every participant queue — two
  cross-shard operations can never deadlock waiting for each other's
  participants;
* **chaos endpoints** — with ``allow_chaos`` the protocol kinds
  ``kill_shard`` / ``revive_shard`` let harnesses and the CI smoke job
  kill one shard worker in place (its volatile state is lost, exactly
  the SIGKILL model) and later revive it through supervised recovery,
  proving partial-outage behavior against a real process;
* **graceful shutdown** — ``stop()`` (the SIGTERM path) stops
  admitting, drains the queues, forces every WAL, checkpoints, and
  closes; ``kill()`` models SIGKILL for harnesses: everything stops
  now and whatever the WALs did not force never happened.

Metrics: a one-shard daemon reports ``serve.*`` / ``ack.*`` into its
kernel's own registry.  With N > 1 every kernel keeps its own registry
(the io/engine collector prefixes would collide on a shared one), the
daemon keeps a separate one for ``serve.*``, and ``/metrics`` renders
the merged view with ``shard<k>.`` prefixes.  That wiring, done once
in the constructor, is the only place the daemon looks at N.  The
``/metrics`` + ``/healthz`` HTTP endpoint
(:class:`~repro.obs.http.ObsHTTPServer`) runs alongside the socket
listener so the registry is scrapeable while faults fire.
"""

from __future__ import annotations

import itertools
import queue
import socket
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    TYPE_CHECKING,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.http import ObsHTTPServer
    from repro.replica.sender import ReplicationConfig, ReplicationSender

from repro.common.identifiers import NULL_SI, StateId
from repro.common.errors import (
    CorruptObjectError,
    DegradedModeError,
    ReproError,
    SimulatedCrash,
    TransientStorageError,
)
from repro.core.operation import Operation, OpKind, delete_object
from repro.kernel.system import RecoverableSystem, SystemHealth
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import MetricsRegistry, process_memory
from repro.obs.tracing import TraceContext, record_stage, stage
from repro.serve import protocol
from repro.serve.errors import FencedError, ServerUnavailableError
from repro.serve.watchdog import ServingWatchdog, WatchdogConfig
from repro.shard.group import CrossShardError, ShardedSystem
from repro.storage.backup import FuzzyBackup

#: Request kinds that mutate state (gated in DEGRADED health).
WRITE_KINDS = frozenset({"put", "delete", "apply"})

#: Log bytes appended between a shard's online checkpoints.  Each one
#: installs what is older than the previous one, so a key that is
#: rewritten within an interval never costs a store write: per put, the
#: chance of a flush is about e^(-interval / (keys x record bytes)) —
#: ~7% for uniform puts over 1 024 keys of 128 B.  Half the interval
#: flushes a quarter of those puts, on the apply thread, for a log half
#: as long; twice it doubles the log (and a killed daemon's redo) to
#: save flushes this interval already mostly avoids.
ONLINE_CHECKPOINT_BYTES = 512 * 1024

#: Health severity order for the aggregate health string.
_HEALTH_RANK = {
    SystemHealth.HEALTHY: 0,
    SystemHealth.RECOVERING: 1,
    SystemHealth.DEGRADED: 2,
    SystemHealth.FAILED: 3,
}


@dataclass
class DaemonConfig:
    """Ports, budgets and shutdown policy for one daemon."""

    host: str = "127.0.0.1"
    #: TCP port for the request listener (0 = ephemeral).
    port: int = 0
    #: Port for the /metrics + /healthz HTTP endpoint (0 = ephemeral,
    #: None = no HTTP endpoint).
    http_port: Optional[int] = 0
    #: Bounded admission backlog per shard: arrivals past this get
    #: BACKPRESSURE.
    max_queue: int = 64
    #: Deadline budget applied to requests that carry none.
    default_deadline_ms: int = 5_000
    #: Ceiling on client-supplied deadlines.
    max_deadline_ms: int = 60_000
    #: Backoff hint returned with BACKPRESSURE / UNAVAILABLE answers.
    retry_after_ms: int = 50
    #: Graceful shutdown: how long to drain the queues before answering
    #: the stragglers SHUTTING_DOWN.
    drain_deadline_s: float = 10.0
    #: Write a checkpoint during graceful shutdown (HEALTHY only).
    checkpoint_on_shutdown: bool = True
    #: Watchdog/supervisor policy (ladder budgets, restart cap).
    watchdog: WatchdogConfig = field(default_factory=WatchdogConfig)
    #: Flight-recorder persistence path (``flightrec.jsonl`` under the
    #: data dir when run via the CLI; None = in-memory ring only, still
    #: served by ``/debug/flightrec``).
    flightrec_path: Optional[str] = None
    #: Flight-recorder ring capacity (recent events kept).
    flightrec_capacity: int = 2048
    #: Accept ``kill_shard`` / ``revive_shard`` chaos requests.  Off by
    #: default: only harnesses and CI smoke jobs should ever enable it.
    allow_chaos: bool = False


class _Connection:
    """A client socket plus the lock that serializes frame sends."""

    def __init__(self, sock: socket.socket) -> None:
        try:
            protocol.disable_nagle(sock)
        except OSError:
            pass  # peer already gone; the reader loop finds out
        self.sock = sock
        self.lock = threading.Lock()
        self.alive = True

    def send(self, message: Dict[str, Any]) -> None:
        """Best-effort frame send; a gone peer just marks us dead."""
        with self.lock:
            if not self.alive:
                return
            try:
                protocol.send_frame(self.sock, message)
            except (OSError, protocol.ProtocolError):
                self.alive = False

    def close(self) -> None:
        with self.lock:
            self.alive = False
            try:
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self.sock.close()
            except OSError:
                pass


class _ShardEventSink:
    """Tags one shard's events with its index, then records them.

    With N > 1 every shard kernel's registry gets one of these so
    health transitions, watchdog restarts and fault-point events from
    all N recovery domains land in the daemon's single flight recorder
    with the shard attributed.
    """

    def __init__(self, recorder: FlightRecorder, index: int) -> None:
        self._recorder = recorder
        self._index = index

    def emit(self, kind: str, **details: Any) -> None:
        details.setdefault("shard", self._index)
        self._recorder.emit(kind, **details)


class _CrossJob:
    """One cross-shard request's rendezvous state."""

    def __init__(self, participants: Tuple[int, ...]) -> None:
        self.participants = participants
        self.coordinator = participants[0]
        self._lock = threading.Lock()
        self._arrived: set = set()
        self.all_arrived = threading.Event()
        #: Set exactly once, after the coordinator answered (or the job
        #: was cancelled); parked participants resume on it.
        self.done = threading.Event()
        self.cancelled = False

    def arrive(self, shard: int) -> None:
        with self._lock:
            self._arrived.add(shard)
            if self._arrived >= set(self.participants):
                self.all_arrived.set()

    def cancel(self) -> bool:
        """Call the job off and release every parked participant.

        Tokens still queued become no-ops.  True for exactly one
        caller: the one that owes the client the refusal.
        """
        with self._lock:
            first = not self.cancelled
            self.cancelled = True
        self.done.set()
        return first


@dataclass(eq=False)  # identity: one item is parked, taken, answered once
class _Work:
    """One admitted request waiting in a shard's queue."""

    request: Dict[str, Any]
    conn: _Connection
    deadline: float
    enqueued: float
    #: Distributed-trace context minted by the client (None untraced).
    trace: Optional[TraceContext] = None
    #: Rendezvous state when the footprint spans shards: the same work
    #: item then sits in every participant's queue.
    cross: Optional[_CrossJob] = None
    #: Set by the apply: the lSI the stable end must cover before
    #: ``response`` leaves (a write's own, a get's observed vSI), and
    #: when the apply started / parked it (monotonic).
    lsi: StateId = NULL_SI
    started: float = 0.0
    parked: float = 0.0
    response: Optional[Dict[str, Any]] = None


class _Shard:
    """One recovery domain's serving-side state."""

    def __init__(
        self,
        index: int,
        system: RecoverableSystem,
        watchdog: ServingWatchdog,
        max_queue: int,
    ) -> None:
        self.index = index
        #: Per-ack counter name, built once rather than per ack.
        self.acked_writes = f"serve.shard.{index}.acked_writes"
        self.system = system
        self.watchdog = watchdog
        #: Primary-side replication of this shard's WAL (None =
        #: standalone).  With a sender attached, every write's ack
        #: additionally waits for the witness's durable receipt — see
        #: :mod:`repro.replica.sender`.
        self.replication: Optional["ReplicationSender"] = None
        self.queue: "queue.Queue[_Work]" = queue.Queue(
            maxsize=max(1, max_queue)
        )
        self.thread: Optional[threading.Thread] = None
        #: Replies parked behind the committer, in apply order, guarded
        #: by ``commit`` (which the apply thread signals on each park).
        self.parked: Deque[_Work] = deque()
        self.commit = threading.Condition()
        self.committer: Optional[threading.Thread] = None
        #: A force failure the committer hit, until the apply thread —
        #: the only one on the kernel — has run the watchdog for it.
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


#: Storage failures that surface inside an apply: the shard's volatile
#: state is suspect, so its watchdog re-runs the ladder.
_SERVING_CRASHES = (SimulatedCrash, CorruptObjectError, TransientStorageError)


def _stage_ctx(trace: Optional[TraceContext]) -> Optional[TraceContext]:
    """A stage's own context: a direct child of the client's root."""
    return trace.child() if trace is not None else None


class ServeDaemon:
    """A long-running, supervised serving loop over N recovery domains."""

    def __init__(
        self,
        system: Union[RecoverableSystem, ShardedSystem],
        config: Optional[DaemonConfig] = None,
        backup: Union[
            None, FuzzyBackup, Sequence[Optional[FuzzyBackup]]
        ] = None,
        replication: Optional["ReplicationConfig"] = None,
    ) -> None:
        #: The topology served: a lone kernel is wrapped as its own
        #: one-shard group, so everything below is written once.
        self.sharded = (
            system
            if isinstance(system, ShardedSystem)
            else ShardedSystem([system])
        )
        self.config = config if config is not None else DaemonConfig()
        systems = self.sharded.systems
        for kernel in systems:
            # A daemon outlives any verifier: what it has acked is the
            # log's to remember, not a list's.
            kernel.release_history()
            if not kernel.obs.enabled:
                kernel.attach_metrics(MetricsRegistry())
        backups = (
            list(backup) if isinstance(backup, (list, tuple)) else [backup]
        )
        backups += [None] * (len(systems) - len(backups))
        self._shards: List[_Shard] = [
            _Shard(
                index,
                kernel,
                ServingWatchdog(
                    kernel, backup=backups[index], config=self.config.watchdog
                ),
                self.config.max_queue,
            )
            for index, kernel in enumerate(systems)
        ]
        if replication is not None:
            from repro.replica.sender import ReplicationSender

            # ``self.system`` refuses N > 1: a sender ships one WAL.
            self._shards[0].replication = ReplicationSender(
                self.system, replication
            )
        #: Crash flight recorder: taps the registries' event streams
        #: (health transitions, watchdog restarts, epoch changes, chaos)
        #: into one bounded ring persisted at ``flightrec_path``, so a
        #: dump interleaves all N domains' transitions on one timeline.
        self.flightrec = FlightRecorder(
            self.config.flightrec_path,
            capacity=self.config.flightrec_capacity,
        )
        #: ``(prefix, registry)`` of every kernel registry that is *not*
        #: the daemon's own; the merged ``/metrics`` view prefixes them.
        self._kernel_registries: List[Tuple[str, Any]] = []
        if len(systems) == 1:
            # The daemon's series join the kernel's: one registry, one
            # scrape, spans of both layers nest in one tree.
            self.obs = systems[0].obs
        else:
            # One registry per kernel: the io/engine collector prefixes
            # collide on a shared registry.
            self.obs = MetricsRegistry()
            for index, kernel in enumerate(systems):
                kernel.obs.subscribe(_ShardEventSink(self.flightrec, index))
                # The kernels' ledgers (log_forces, ...) ride the
                # daemon's own snapshot and ``--metrics-out`` too.
                self.obs.add_collector(
                    f"shard{index}.io", kernel.stats.snapshot
                )
                self._kernel_registries.append(
                    (f"shard{index}.", kernel.obs)
                )
        self.obs.subscribe(self.flightrec)
        # Process-wide, so on the daemon's registry, not per shard.
        self.obs.add_collector("process", process_memory)
        # Polled when a snapshot is read; nothing is pushed per request.
        for prefix, poll in (
            ("serve", self._depth_gauges),
            ("flightrec", self.flightrec.footprint),
            ("obs", lambda: {"span_events": len(self.obs.spans)}),
        ):
            self.obs.add_collector(prefix, poll, gauges=True)
        self.role = "primary"
        self._listener: Optional[socket.socket] = None
        self._http: Optional[ObsHTTPServer] = None
        self._accept_thread: Optional[threading.Thread] = None
        #: Open connections and the reader thread of each; a reader
        #: drops its own entry on exit, so this is bounded by the
        #: connections currently open, not by those ever accepted.
        self._conns: Dict[_Connection, threading.Thread] = {}
        self._conns_lock = threading.Lock()
        #: Serializes cross-job enqueues: tokens of different cross jobs
        #: appear in the same relative order in every participant queue,
        #: which is the no-deadlock argument for the rendezvous.
        self._cross_lock = threading.Lock()
        #: Serializes chaos operations (kill/revive) with each other.
        self._control_lock = threading.Lock()
        self._draining = threading.Event()
        self._stopping = threading.Event()
        self._started = False
        self._op_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # what is served
    # ------------------------------------------------------------------
    @property
    def shards(self) -> int:
        return len(self._shards)

    @property
    def system(self) -> RecoverableSystem:
        """The kernel of a one-shard daemon.

        Replication and the witness role attach to exactly one recovery
        domain and reach it through here; a daemon over N > 1 shards
        has no "the" system (use ``sharded.systems``).
        """
        if len(self._shards) != 1:
            raise ValueError(
                f"this daemon serves {len(self._shards)} recovery domains; "
                "replication and the witness role attach to exactly one "
                "(a sharded witness is not implemented)"
            )
        return self._shards[0].system

    @property
    def replication(self) -> Optional["ReplicationSender"]:
        """The primary-side replication sender (None = standalone)."""
        return self._shards[0].replication

    @property
    def port(self) -> Optional[int]:
        """Bound request port once started."""
        if self._listener is None:
            return None
        return self._listener.getsockname()[1]

    @property
    def http_port(self) -> Optional[int]:
        """Bound scrape port once started (None when disabled)."""
        return self._http.port if self._http is not None else None

    def restarts(self) -> int:
        """Mid-serve watchdog restarts summed over the shards."""
        return sum(shard.watchdog.restarts for shard in self._shards)

    def aggregate_health(self) -> SystemHealth:
        """The worst health across shards (the conservative headline)."""
        return max(
            (shard.system.health for shard in self._shards),
            key=_HEALTH_RANK.__getitem__,
        )

    def current_epoch(self) -> Optional[int]:
        """This server's replication epoch (None when standalone)."""
        sender = self.replication
        return sender.epoch if sender is not None else None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServeDaemon":
        """Supervised startup, then open the listener and HTTP endpoint.

        Recovery runs **before** the first connection can be accepted:
        a client that manages to connect has, by definition, a server
        whose escalation ladders already landed somewhere terminal.
        Startup recovery is per shard and sequential.
        """
        if self._started:
            raise RuntimeError("daemon already started")
        self._started = True
        self.flightrec.record(
            "daemon.start",
            {
                "role": self.role,
                "shards": len(self._shards),
                "health": self.aggregate_health().value,
            },
        )
        for shard in self._shards:
            shard.watchdog.supervised_startup()
        if self.config.http_port is not None:
            # Imported where the endpoint starts: ``http.server`` and
            # what it drags in (email, ssl, ...) cost ~3 MiB that a
            # daemon, witness or child without the endpoint never pays.
            from repro.obs.http import ObsHTTPServer

            self._http = ObsHTTPServer(
                self._combined_snapshot,
                self._health_payload,
                host=self.config.host,
                port=self.config.http_port,
                ready_provider=self._ready_payload,
                flightrec_provider=lambda: self.flightrec,
            )
            self._http.start()
        listener = socket.create_server(
            (self.config.host, self.config.port), backlog=32
        )
        listener.settimeout(0.1)
        self._listener = listener
        self.flightrec.record(
            "daemon.serving",
            {
                "role": self.role,
                "health": self.aggregate_health().value,
                "port": listener.getsockname()[1],
            },
        )
        for shard in self._shards:
            self._start_worker(shard)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def _start_worker(self, shard: _Shard) -> None:
        shard.stop = threading.Event()
        shard.crash = None
        shard.thread = threading.Thread(
            target=self._shard_loop,
            args=(shard,),
            name=f"repro-serve-apply-{shard.index}",
            daemon=True,
        )
        shard.committer = threading.Thread(
            target=self._commit_loop,
            args=(shard,),
            name=f"repro-serve-commit-{shard.index}",
            daemon=True,
        )
        shard.thread.start()
        shard.committer.start()

    def stop(self, graceful: bool = True) -> int:
        """Shut down; the SIGTERM path when ``graceful``.

        Graceful order: stop admitting → drain the backlogs, parked
        replies included (bounded by
        ``drain_deadline_s``; stragglers get SHUTTING_DOWN) → force
        every WAL → checkpoint (HEALTHY shards only) → close.  Returns
        the process exit status (0 on a clean drain).
        """
        if not self._started:
            return 0
        self._draining.set()
        if graceful:
            deadline = time.monotonic() + self.config.drain_deadline_s
            while time.monotonic() < deadline:
                if all(
                    shard.idle.is_set() and shard.depth() == 0
                    for shard in self._shards
                    if not shard.killed
                ):
                    break
                time.sleep(0.01)
        # Workers and the accept loop poll their stop flag; join them
        # before touching the kernels so the final force races nothing.
        self._join_workers()
        for shard in self._shards:
            self._flush_queue(shard, "SHUTTING_DOWN", "server is shutting down")
        status = 0
        if graceful:
            for shard in self._shards:
                if shard.killed or shard.system._crashed:
                    continue
                try:
                    shard.system.log.force()
                    if (
                        self.config.checkpoint_on_shutdown
                        and shard.system.health is SystemHealth.HEALTHY
                    ):
                        shard.system.checkpoint(truncate=True)
                    if shard.replication is not None:
                        # Nudge the witness to materialize what it
                        # holds; its receipt is not waited for (we are
                        # exiting).
                        shard.replication.ship_checkpoint_hint()
                except (ReproError, SimulatedCrash):
                    # A device that dies during the final force leaves
                    # a cleanly recoverable WAL tail (the torn-tail
                    # repair path); the next startup's supervised
                    # recovery owns it.
                    status = 1
        self.sharded.close()
        # Closing the sockets unblocks reader threads parked in recv.
        self._close_everything()
        self.flightrec.record(
            "daemon.stop",
            {
                "graceful": graceful,
                "status": status,
                "health": self.aggregate_health().value,
            },
        )
        self.flightrec.close("sigterm" if graceful else "stop")
        return status

    def kill(self) -> None:
        """Abrupt stop (the SIGKILL model for in-process harnesses).

        No drain, no force, no checkpoint: connections die mid-frame
        (parked replies unsent) and whatever sat in the volatile log
        buffers is lost.  The harness completes the simulation by
        calling ``crash()`` on the system(s) before handing the storage
        to a restarted daemon.
        """
        if not self._started:
            return
        self._draining.set()
        self._close_everything()
        self._join_workers()
        for shard in self._shards:
            self._flush_queue(shard, None, None)

    def _join_workers(self) -> None:
        self._stopping.set()
        for shard in self._shards:
            shard.stop.set()
        threads = [shard.thread for shard in self._shards]
        threads += [shard.committer for shard in self._shards]
        for thread in (*threads, self._accept_thread):
            if thread is not None:
                thread.join(timeout=5.0)

    def _close_everything(self) -> None:
        """Close listener, connections and HTTP; join the readers."""
        if self.replication is not None:
            self.replication.close()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        with self._conns_lock:
            conns = dict(self._conns)
        for conn in conns:
            conn.close()
        if self._http is not None:
            self._http.stop()
            self._http = None
        for thread in conns.values():
            thread.join(timeout=5.0)

    def _flush_queue(
        self, shard: _Shard, code: Optional[str], message: Optional[str]
    ) -> None:
        """Answer (or drop, when ``code`` is None) any leftover work,
        parked replies first — never with an ack."""
        with shard.commit:
            leftovers = list(shard.parked)
            shard.parked.clear()
        while True:
            try:
                leftovers.append(shard.queue.get_nowait())
            except queue.Empty:
                break
        for work in leftovers:
            if work.cross is not None and not work.cross.cancel():
                continue  # another participant's flush already answered
            if code is not None:
                work.conn.send(
                    protocol.error_response(
                        work.request.get("id"),
                        code,
                        message or "",
                        shard.system.health.value,
                        shard=shard.index,
                    )
                )

    # ------------------------------------------------------------------
    # chaos: kill and revive one shard
    # ------------------------------------------------------------------
    def kill_shard(self, index: int) -> None:
        """Kill shard ``index``'s worker in place (SIGKILL model).

        Both worker threads are stopped and joined (nothing is released
        after the stop flag), the shard's volatile state (cache +
        unforced WAL buffer) is discarded, and its queued and parked
        requests are answered ``UNAVAILABLE``.  Every other
        shard keeps serving; cross-shard requests naming the victim
        time out at the rendezvous and answer ``UNAVAILABLE`` too.
        """
        with self._control_lock:
            shard = self._shards[index]
            if shard.killed:
                return
            shard.killed = True
            shard.stop.set()
            for thread in (shard.thread, shard.committer):
                if thread is not None:
                    thread.join(timeout=10.0)
            if not shard.system._crashed:
                shard.system.crash()
            self.obs.count(f"serve.shard.{index}.kills")
            self.obs.emit("shard.kill", shard=index)
            self._flush_queue(
                shard, "UNAVAILABLE", f"shard {index} worker was killed"
            )

    def revive_shard(self, index: int) -> None:
        """Recover a killed shard and put a fresh worker on it."""
        with self._control_lock:
            shard = self._shards[index]
            if not shard.killed:
                raise ValueError(f"shard {index} is not killed")
            shard.watchdog.supervised_startup()
            self._start_worker(shard)
            shard.killed = False
            self.obs.count(f"serve.shard.{index}.revives")
            self.obs.emit(
                "shard.revive",
                shard=index,
                health=shard.system.health.value,
            )

    def _handle_chaos(
        self, conn: _Connection, request: Dict[str, Any], reject: Callable
    ) -> None:
        if not self.config.allow_chaos:
            reject(
                "BAD_REQUEST",
                "chaos endpoints are disabled (start with allow_chaos)",
            )
            return
        raw = request.get("shard")
        if not isinstance(raw, int) or not 0 <= raw < len(self._shards):
            reject("BAD_REQUEST", f"bad shard index {raw!r}")
            return
        try:
            if request.get("kind") == "kill_shard":
                self.kill_shard(raw)
            else:
                self.revive_shard(raw)
        except ValueError as exc:
            reject("BAD_REQUEST", str(exc), shard=self._shards[raw])
            return
        conn.send(
            protocol.ok_response(
                request.get("id"),
                self.aggregate_health().value,
                shard=raw,
                killed=self._shards[raw].killed,
            )
        )

    # ------------------------------------------------------------------
    # accept + read side
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            listener = self._listener
            if listener is None:
                return
            try:
                sock, _addr = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn = _Connection(sock)
            thread = threading.Thread(
                target=self._reader_loop,
                args=(conn,),
                name="repro-serve-conn",
                daemon=True,
            )
            with self._conns_lock:
                # Started under the lock: whoever finds the thread in
                # the table (a kill joining the readers) may join it.
                self._conns[conn] = thread
                thread.start()

    def _reader_loop(self, conn: _Connection) -> None:
        try:
            while not self._stopping.is_set():
                try:
                    request = protocol.recv_frame(conn.sock)
                except (protocol.ProtocolError, OSError):
                    break
                if request is None:
                    break
                self._admit(conn, request)
        finally:
            if self.replication is not None:
                self.replication.detach(conn)
            conn.close()
            with self._conns_lock:
                self._conns.pop(conn, None)

    # ------------------------------------------------------------------
    # admission (reader threads): validate, route, health-gate, enqueue
    # ------------------------------------------------------------------
    def _admit(self, conn: _Connection, request: Dict[str, Any]) -> None:
        request_id = request.get("id")
        kind = request.get("kind")
        self.obs.count("serve.requests")

        def reject(
            code: str,
            message: str,
            retry_after_ms: Optional[int] = None,
            shard: Optional[_Shard] = None,
        ) -> None:
            self.obs.count(f"serve.rejected.{code.lower()}")
            health = (
                shard.system.health
                if shard is not None
                else self.aggregate_health()
            )
            conn.send(
                protocol.error_response(
                    request_id,
                    code,
                    message,
                    health.value,
                    retry_after_ms,
                    shard=shard.index if shard is not None else None,
                )
            )

        if kind in protocol.REPLICATION_KINDS:
            # Replication frames route around the admission queue: the
            # subscribe/ack stream must flow while the backlog is
            # jammed, and the sender owns its own locking.
            if self.replication is None:
                reject(
                    "BAD_REQUEST",
                    "replication is not enabled on this server",
                )
                return
            self.replication.handle_frame(conn, request)
            return
        if kind in protocol.CHAOS_KINDS:
            self._handle_chaos(conn, request, reject)
            return
        if kind not in protocol.REQUEST_KINDS:
            reject("BAD_REQUEST", f"unknown request kind {kind!r}")
            return
        # Liveness requests bypass the queues: they touch only
        # attributes and registry snapshots, never a kernel, and must
        # answer even when the backlog is jammed.
        if kind in ("ping", "health", "stats"):
            conn.send(self._inline_answer(kind, request_id))
            return
        if self._draining.is_set():
            reject(
                "SHUTTING_DOWN",
                "server is draining for shutdown",
                self.config.retry_after_ms,
            )
            return
        try:
            involved = [self._shards[k] for k in self._route(request, kind)]
        except protocol.ProtocolError as exc:
            reject("BAD_REQUEST", str(exc))
            return
        now = time.monotonic()
        budget_ms = request.get("deadline_ms")
        if budget_ms is None:
            budget_ms = self.config.default_deadline_ms
        try:
            budget_ms = min(int(budget_ms), self.config.max_deadline_ms)
        except (TypeError, ValueError):
            reject("BAD_REQUEST", f"bad deadline_ms: {budget_ms!r}")
            return
        # Per-shard health gates, checked for every involved shard.
        # HEALTHY admits; RECOVERING queues against the bounded backlog.
        for shard in involved:
            health = shard.system.health
            if shard.killed:
                reject(
                    "UNAVAILABLE",
                    f"shard {shard.index} worker is down",
                    self.config.retry_after_ms,
                    shard=shard,
                )
                return
            if health is SystemHealth.FAILED:
                reject(
                    "FAILED",
                    f"shard {shard.index}: recovery did not converge; "
                    "the system is failed",
                    shard=shard,
                )
                return
            if health is SystemHealth.DEGRADED and kind in WRITE_KINDS:
                reject(
                    "DEGRADED",
                    f"shard {shard.index} is in degraded read-only mode "
                    "(lost objects: "
                    f"{sorted(map(str, shard.system.lost_objects))})",
                    shard=shard,
                )
                return
        work = _Work(
            request=request,
            conn=conn,
            deadline=now + budget_ms / 1000.0,
            enqueued=now,
            trace=protocol.request_trace(request),
        )
        if len(involved) == 1:
            full = self._enqueue(work, involved)
        else:
            # The cross lock guarantees all participants see cross jobs
            # in the same relative order; a full participant queue
            # cancels the whole job (tokens already enqueued become
            # no-ops).
            work.cross = _CrossJob(tuple(s.index for s in involved))
            with self._cross_lock:
                full = self._enqueue(work, involved)
            if full is None:
                self.obs.count("serve.cross_shard_requests")
        if full is not None:
            reject(
                "BACKPRESSURE",
                f"shard {full.index} admission queue full "
                f"({self.config.max_queue} waiting)",
                self.config.retry_after_ms,
                shard=full,
            )

    def _enqueue(
        self, work: _Work, involved: List[_Shard]
    ) -> Optional[_Shard]:
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

    def _queue_depth(self) -> int:
        return sum(shard.depth() for shard in self._shards)

    def _depth_gauges(self) -> Dict[str, int]:
        """``serve.queue_depth`` and ``serve.shard.<k>.queue_depth``."""
        depths = {
            f"shard.{shard.index}.queue_depth": shard.depth()
            for shard in self._shards
        }
        return {"queue_depth": sum(depths.values()), **depths}

    def _route(self, request: Dict[str, Any], kind: str) -> Tuple[int, ...]:
        """The shards a request must visit, in rendezvous order.

        Object verbs go to the owner shard; ``apply`` goes to the full
        footprint of its read/write sets; anything without a footprint
        (``promote``) is shard 0's.
        """
        router = self.sharded.router
        if kind in ("get", "put", "delete"):
            obj = request.get("obj")
            if not isinstance(obj, str) or not obj:
                raise protocol.ProtocolError("request requires an 'obj' string")
            obj = request["obj"] = sys.intern(obj)
            return (router.shard_of(obj),)
        if kind == "apply":
            reads = self._object_ids(request, "reads")
            writes = self._object_ids(request, "writes")
            if not writes:
                raise protocol.ProtocolError("apply requires a writeset")
            return tuple(sorted(router.shards_of([*reads, *writes])))
        return (0,)

    @staticmethod
    def _object_ids(request: Dict[str, Any], field: str) -> List[str]:
        """The object ids an ``apply`` names under ``field``, each held
        to the rule ``obj`` is held to, and interned in place: every
        request decodes fresh ``str`` copies of the same few ids, and
        the write graph's footprints would keep each one."""
        ids = request.get(field)
        if ids is None:
            ids = []
        if not isinstance(ids, list) or not all(
            isinstance(obj, str) and obj for obj in ids
        ):
            raise protocol.ProtocolError(
                f"apply {field!r} must be a list of non-empty strings"
            )
        request[field] = ids = [sys.intern(obj) for obj in ids]
        return ids

    # ------------------------------------------------------------------
    # inline answers + health
    # ------------------------------------------------------------------
    def _lost_objects(self) -> List[str]:
        return sorted(
            str(obj)
            for shard in self._shards
            for obj in shard.system.lost_objects
        )

    def _inline_answer(self, kind: str, request_id: Any) -> Dict[str, Any]:
        health = self.aggregate_health().value
        if kind == "ping":
            from repro import __version__

            return protocol.ok_response(
                request_id,
                health,
                version=__version__,
                shards=len(self._shards),
            )
        if kind == "health":
            return protocol.ok_response(
                request_id,
                health,
                lost_objects=self._lost_objects(),
                queue_depth=self._queue_depth(),
                restarts=self.restarts(),
                draining=self._draining.is_set(),
                shards={
                    str(shard.index): {
                        "health": shard.system.health.value,
                        "killed": shard.killed,
                        "queue_depth": shard.depth(),
                        "restarts": shard.watchdog.restarts,
                        "lost_objects": sorted(
                            map(str, shard.system.lost_objects)
                        ),
                    }
                    for shard in self._shards
                },
            )
        # stats: the counter/gauge ledger, JSON-safe by construction.
        snapshot = self._combined_snapshot()
        return protocol.ok_response(
            request_id,
            health,
            stats={
                "counters": snapshot["counters"],
                "gauges": snapshot["gauges"],
            },
        )

    def _combined_snapshot(self) -> Dict[str, Any]:
        """The daemon's registry plus every separate kernel registry,
        shard-prefixed (none to add when the kernel's *is* the
        daemon's)."""
        merged = self.obs.snapshot()
        for prefix, registry in self._kernel_registries:
            snap = registry.snapshot()
            for section in ("counters", "gauges", "histograms", "info"):
                base = merged.setdefault(section, {})
                for name, value in snap.get(section, {}).items():
                    base[prefix + name] = value
        return merged

    def _health_payload(self) -> Tuple[int, Dict[str, Any]]:
        """Liveness: 200 while the process can make progress.

        RECOVERING and DEGRADED are *live* states (a watchdog or an
        operator is working the problem; restarting the process would
        only repeat the ladder) — only a terminally FAILED shard, which
        explicitly needs an operator, answers 503.  Load balancers and
        rolling deploys should poll readiness (``/healthz?ready=1``)
        instead, which additionally requires every shard HEALTHY and
        alive, not-draining, and a caught-up replication pair.
        """
        health = self.aggregate_health()
        payload = {
            "health": health.value,
            "role": self.role,
            "lost_objects": self._lost_objects(),
            "queue_depth": self._queue_depth(),
            "restarts": self.restarts(),
            "draining": self._draining.is_set(),
            "shards": {
                str(shard.index): shard.system.health.value
                for shard in self._shards
            },
            "killed": [
                shard.index for shard in self._shards if shard.killed
            ],
        }
        if self.replication is not None:
            payload.update(self.replication.status())
        status = 200 if health is not SystemHealth.FAILED else 503
        return status, payload

    def _ready_payload(self) -> Tuple[int, Dict[str, Any]]:
        """Readiness: 200 only when this server should receive traffic.

        Requires every shard HEALTHY (not RECOVERING/DEGRADED/FAILED)
        and alive, not draining, and — when replication is enabled — an
        attached, unfenced witness (writes cannot be acked without its
        receipt).  A load balancer should steer around a
        partially-degraded node while clients with shard affinity may
        still use its healthy shards.  The witness daemon overrides
        this with its own caught-up rule.
        """
        _status, payload = self._health_payload()
        reasons = []
        health = self.aggregate_health()
        if health is not SystemHealth.HEALTHY:
            reasons.append(f"health is {health.value}")
        for index in payload["killed"]:
            reasons.append(f"shard {index} worker is down")
        if self._draining.is_set():
            reasons.append("draining for shutdown")
        if self.replication is not None:
            if self.replication.fenced:
                reasons.append("fenced: a newer epoch is serving")
            elif not self.replication.attached:
                reasons.append(
                    "no witness attached; writes cannot be acknowledged"
                )
        payload["ready"] = not reasons
        payload["not_ready_reasons"] = reasons
        return (200 if not reasons else 503), payload

    # ------------------------------------------------------------------
    # apply side: one worker per shard, the only thread on its kernel
    # ------------------------------------------------------------------
    def _shard_loop(self, shard: _Shard) -> None:
        while True:
            try:
                work = shard.queue.get(timeout=0.05)
            except queue.Empty:
                work = None
            if shard.crash is not None:
                self._crashed(shard, shard.crash)
                with shard.commit:
                    shard.crash = None
                    shard.commit.notify()
            if work is None:
                if shard.stop.is_set():
                    return
                continue
            shard.idle.clear()
            try:
                self._apply_one(shard, work)
            finally:
                shard.idle.set()

    def _apply_one(self, shard: _Shard, work: _Work) -> None:
        """Gate one dequeued work item, then run it.

        Every item — a cross-shard token included — passes the same
        two gates before any kernel is touched: its deadline, and the
        health its shard moved to while it sat in the backlog (a
        watchdog restart may have run).
        """
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
        elif shard.system.health is SystemHealth.FAILED:
            refusal = (
                "FAILED",
                f"shard {shard.index}: recovery did not converge; "
                "the system is failed",
            )
        if refusal is not None:
            if job is None or job.cancel():
                self.obs.count(f"serve.rejected.{refusal[0].lower()}")
                work.conn.send(
                    protocol.error_response(
                        work.request.get("id"),
                        *refusal,
                        shard.system.health.value,
                        shard=shard.index,
                    )
                )
            return
        if job is not None:
            self._participate(shard, work)
            return
        # Queue wait, attributed before the kernel touches the request
        # (a span in its tree too, when the request carried a trace).
        record_stage(
            self.obs, "ack.queue_ms", now - work.enqueued,
            _stage_ctx(work.trace),
            kind=work.request.get("kind"), shard=shard.index,
        )
        self._answer(work, (shard,), lambda: self._dispatch(shard, work))

    def _answer(
        self,
        work: _Work,
        involved: Tuple[_Shard, ...],
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
        :meth:`_refusal`, and a storage crash is then handed to the
        watchdog of every involved shard.
        """
        work.started = time.monotonic()
        try:
            response = run()
        except Exception as exc:  # noqa: BLE001 - the loop must survive
            # Answer first: a crashed request's client should retry,
            # not wait out the whole recovery.
            work.conn.send(self._refusal(work, involved, exc))
            self._observe_request(work)
            if isinstance(exc, _SERVING_CRASHES):
                if len(involved) > 1:
                    self.obs.count("serve.cross_shard_crashes")
                for shard in involved:
                    if not shard.killed:
                        self._crashed(shard, exc, trace=work.trace)
            return
        shard = involved[0]
        wrote = work.request["kind"] in WRITE_KINDS
        if len(involved) == 1 and (
            wrote or not self._covered(shard, work.lsi)
        ):
            work.response = response
            work.parked = time.monotonic()
            with shard.commit:
                shard.parked.append(work)
                shard.commit.notify()
        else:
            work.conn.send(response)
            self._observe_request(work)
        if wrote:
            self._after_write(work, involved)

    def _after_write(
        self, work: _Work, involved: Tuple[_Shard, ...]
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
                    self._crashed(shard, crash, trace=work.trace)

    def _observe_request(self, work: _Work) -> None:
        self.obs.observe(
            "serve.request_seconds", time.monotonic() - work.started
        )

    def _crashed(self, shard: _Shard, exc: BaseException, trace=None) -> None:
        """Refuse what is parked, then recover — in that order: a reply
        whose record dies with the log buffer must never meet a later,
        higher stable end.  Runs on the kernel's own (apply) thread."""
        self._refuse_parked(shard, exc)
        self.obs.count(f"serve.shard.{shard.index}.crashes")
        shard.watchdog.handle_serving_crash(exc, trace=trace)

    def _refusal(
        self, work: _Work, involved: Tuple[_Shard, ...], exc: Exception
    ) -> Dict[str, Any]:
        """The one exception → response table (DESIGN.md §4b)."""
        single = involved[0] if len(involved) == 1 else None
        health = (
            single.system.health if single is not None
            else self.aggregate_health()
        )
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
                or self.config.retry_after_ms
            )
        elif isinstance(exc, DegradedModeError):
            code, message = "DEGRADED", str(exc)
        elif isinstance(exc, _SERVING_CRASHES):
            # Mid-serve crash: the request's durability is whatever the
            # WAL made of it (never acked here; a partial cross-shard
            # fence is, by construction, unacked), and the watchdogs
            # own getting the involved shards back.
            code = "UNAVAILABLE"
            message = (
                f"serving crash ({type(exc).__name__}: {exc}); "
                "recovery in progress"
            )
            retry_after_ms = self.config.retry_after_ms
            health = SystemHealth.RECOVERING
        elif isinstance(exc, ReproError):
            code, message = "BAD_REQUEST", f"{type(exc).__name__}: {exc}"
        else:
            code, message = "INTERNAL", f"{type(exc).__name__}: {exc}"
        return protocol.error_response(
            work.request.get("id"),
            code,
            message,
            health.value,
            retry_after_ms,
            shard=single.index if single is not None else None,
        )

    def _dispatch(self, shard: _Shard, work: _Work) -> Dict[str, Any]:
        request = work.request
        request_id = request.get("id")
        kind = request["kind"]
        system = shard.system
        if kind == "get":
            obj = request["obj"]
            value = system.read(obj)
            # Held in ``_answer`` while this version's record is unforced.
            work.lsi = system.cache.vsi_of(obj)
            return protocol.ok_response(
                request_id,
                system.health.value,
                value=protocol.encode_value(value),
                vsi=work.lsi,
                shard=shard.index,
            )
        if kind == "put":
            obj = request["obj"]
            value = protocol.decode_value(request.get("value"))
            op = Operation(
                f"serve.put({obj})#{next(self._op_ids)}",
                OpKind.PHYSICAL,
                reads=frozenset(),
                writes=frozenset({obj}),
                payload={obj: value},
            )
            return self._execute_write(shard, op, work)
        if kind == "delete":
            return self._execute_write(
                shard, delete_object(request["obj"]), work
            )
        if kind == "apply":
            return self._execute_write(
                shard, self._apply_operation(request), work,
                include_writes=True,
            )
        if kind == "promote":
            raise protocol.ProtocolError(
                "this server is not a witness; there is nothing to promote"
            )
        raise protocol.ProtocolError(f"unhandled request kind {kind!r}")

    def _apply_operation(self, request: Dict[str, Any]) -> Operation:
        fn = request.get("fn")
        if not isinstance(fn, str) or not fn:
            raise protocol.ProtocolError("apply requires a function name")
        params = [
            protocol.decode_value(param)
            for param in (request.get("params") or [])
        ]
        serial = next(self._op_ids)
        return Operation(
            request.get("name") or f"serve.apply({fn})#{serial}",
            OpKind.LOGICAL,
            reads=frozenset(request.get("reads") or []),
            writes=frozenset(request.get("writes") or []),
            fn=fn,
            params=tuple(params),
        )

    def _execute_write(
        self,
        shard: _Shard,
        op: Operation,
        work: _Work,
        include_writes: bool = False,
    ) -> Dict[str, Any]:
        """Execute and append; the ack it returns is parked, not sent.

        ``ok: true`` means the operation's record is on the stable log
        (and, replicated, durably on the witness), so no crash can take
        it back.  Honoring that is the committer's half: this thread
        only names the lSI the reply waits for.
        """
        system = shard.system
        sender = shard.replication
        if sender is not None and sender.fenced:
            raise FencedError(
                f"primary epoch {sender.epoch} is fenced; a "
                "promoted witness is serving"
            )
        with stage(
            self.obs, "ack.apply_ms", _stage_ctx(work.trace),
            shard=shard.index,
        ):
            writes = system.execute(op)
        work.lsi = op.lsi
        fields: Dict[str, Any] = {"lsi": op.lsi, "shard": shard.index}
        epoch = self.current_epoch()
        if epoch is not None:
            fields["epoch"] = epoch
        if include_writes:
            fields["writes"] = {
                str(obj): protocol.encode_value(value)
                for obj, value in writes.items()
            }
        return protocol.ok_response(
            work.request.get("id"), system.health.value, **fields
        )

    # ------------------------------------------------------------------
    # commit side: one committer per shard (DESIGN.md §4b)
    # ------------------------------------------------------------------
    def _covered(self, shard: _Shard, lsi: StateId) -> bool:
        """The release rule: the record is stable — replicated, durably
        on the witness (only forced records ship, so that implies it)."""
        sender = shard.replication
        if sender is not None:
            return sender.watermark >= lsi
        return shard.system.log.is_stable(lsi)

    def _unpark(
        self, shard: _Shard, want: Callable[[_Work], bool]
    ) -> List[_Work]:
        """Remove and return the parked replies ``want`` admits.  Whoever
        removes a reply answers it, so each is answered exactly once."""
        with shard.commit:
            taken: List[_Work] = []
            kept: Deque[_Work] = deque()
            for work in shard.parked:
                (taken if want(work) else kept).append(work)
            shard.parked = kept
        return taken

    def _refuse_parked(
        self, shard: _Shard, exc: BaseException, only: Any = None
    ) -> None:
        """The failure rule: every parked reply (or those of ``only``
        still parked) is answered from the refusal table, never acked."""
        for work in self._unpark(
            shard, lambda work: only is None or work in only
        ):
            work.conn.send(self._refusal(work, (shard,), exc))
            self._observe_request(work)

    def _commit_loop(self, shard: _Shard) -> None:
        """Commit whenever something is parked: a lone request is
        forced at once, and a batch is whatever the apply thread parked
        during the previous force."""
        while True:
            with shard.commit:
                while not shard.stop.is_set() and (
                    not shard.parked or shard.crash is not None
                ):
                    shard.commit.wait(0.05)
                if shard.stop.is_set():
                    return  # whoever set it owns what is still parked
            try:
                shard.system.log.force()  # the whole buffer, one write
            except Exception as exc:  # noqa: BLE001 - any device verdict
                # The volatile state is suspect: refuse everything, and
                # the apply thread (the kernel's owner) recovers.
                if not isinstance(exc, _SERVING_CRASHES):
                    exc = TransientStorageError(f"WAL force failed: {exc!r}")
                self._refuse_parked(shard, exc)
                shard.crash = exc
                continue
            try:
                self._release(shard, time.monotonic())
            except Exception as exc:  # noqa: BLE001 - the loop must survive
                self._refuse_parked(shard, exc)

    def _release(self, shard: _Shard, forced: float) -> None:
        """After a force: wait for the witness when replicated, then
        send every parked reply the release rule now admits."""
        obs = self.obs
        sender = shard.replication
        witnessed = forced
        lead = wait_ctx = None
        if sender is not None:
            log = shard.system.log
            with shard.commit:
                batch = [w for w in shard.parked if log.is_stable(w.lsi)]
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
                self._refuse_parked(shard, exc, late or batch)
                return
            witnessed = time.monotonic()
        if shard.stop.is_set():
            return  # killed mid-batch: no ack leaves after the kill
        wall = time.time() - time.monotonic()  # span start stamps

        def waited(name: str, start: float, end: float, ctx) -> None:
            record_stage(
                obs, name, max(0.0, end - start), ctx, ts=wall + start,
                shard=shard.index,
            )

        for work in self._unpark(
            shard, lambda work: self._covered(shard, work.lsi)
        ):
            ctx = _stage_ctx(work.trace)
            waited("ack.force_ms", work.parked, forced, ctx)
            if sender is not None:
                waited(
                    "ack.repl_wait_ms", max(forced, work.parked), witnessed,
                    wait_ctx if work is lead else ctx,
                )
            if work.request["kind"] in WRITE_KINDS:
                obs.count("serve.acked_writes")
                obs.count(shard.acked_writes)
            work.conn.send(work.response)
            self._observe_request(work)

    # ------------------------------------------------------------------
    # cross-shard rendezvous
    # ------------------------------------------------------------------
    def _participate(self, shard: _Shard, work: _Work) -> None:
        job = work.cross
        job.arrive(shard.index)
        if shard.index != job.coordinator:
            # Park: the coordinator borrows this shard's kernel turn.
            # done is set in the coordinator's finally (or at cancel),
            # so the park cannot outlive the job; stop breaks the park
            # when this worker is being killed.
            while not job.done.wait(0.05):
                if shard.stop.is_set():
                    return
            return
        start = time.monotonic()
        try:
            while not job.all_arrived.wait(0.05):
                if shard.stop.is_set() or job.cancelled:
                    return
                if time.monotonic() > work.deadline:
                    if job.cancel():
                        self.obs.count("serve.rejected.cross_rendezvous")
                        work.conn.send(
                            protocol.error_response(
                                work.request.get("id"),
                                "UNAVAILABLE",
                                "cross-shard rendezvous timed out on "
                                f"shards {list(job.participants)} (a "
                                "participant is down or jammed)",
                                self.aggregate_health().value,
                                self.config.retry_after_ms,
                            )
                        )
                    return
            # All participants parked: this thread owns every kernel.
            # Rendezvous latency (time for every participant queue to
            # reach this job) is the sharding tax on the write.
            record_stage(
                self.obs, "ack.rendezvous_ms", time.monotonic() - start,
                _stage_ctx(work.trace), shards=len(job.participants),
            )
            involved = tuple(self._shards[k] for k in job.participants)
            self._answer(
                work, involved, lambda: self._execute_cross(work, start)
            )
        finally:
            job.done.set()

    def _execute_cross(self, work: _Work, start: float) -> Dict[str, Any]:
        """The fence protocol under the rendezvous, then the ack."""
        job = work.cross
        op = self._apply_operation(work.request)
        with stage(
            self.obs, "ack.apply_ms", _stage_ctx(work.trace),
            cross=True, shards=len(job.participants),
        ):
            # execute_cross forces every participant's fence itself.
            writes = self.sharded.execute_cross(op, set(job.participants))
        self.obs.count("serve.acked_writes")
        self.obs.count("serve.cross_shard_acked")
        for index in job.participants:
            self.obs.count(self._shards[index].acked_writes)
        self.obs.observe(
            "serve.cross_shard_seconds", time.monotonic() - start
        )
        return protocol.ok_response(
            work.request.get("id"),
            self.aggregate_health().value,
            shards=list(job.participants),
            cross=True,
            writes={
                str(obj): protocol.encode_value(value)
                for obj, value in writes.items()
            },
        )
