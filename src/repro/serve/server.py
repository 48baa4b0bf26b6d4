"""The serving daemon: one supervised socket front end, N recovery domains.

``ServeDaemon`` puts the length-prefixed JSON protocol of
:mod:`repro.serve.protocol` in front of one
:class:`~repro.kernel.system.RecoverableSystem` — or of the N kernels
of a :class:`~repro.shard.ShardedSystem`; the single-kernel server *is*
the one-shard case of the same class.  The daemon owns lifecycle,
accept/read/admit/route, health and readiness, chaos, and the verb →
operation dispatch.  Each shard's apply loop and committer are its
worker's (:mod:`repro.serve.worker`); cross-shard applies meet in
:mod:`repro.serve.cross`.

* **supervised startup** — the listener does not open until every
  shard's :class:`~repro.serve.watchdog.ServingWatchdog` has driven
  recovery to a terminal state, so a daemon restarted over SIGKILL
  debris serves its first request from verified state.  A shard that
  lands DEGRADED or FAILED does not block the others;
* **health-gated admission, per shard** — each shard has its own
  bounded queue and health gate: requests are admitted when HEALTHY,
  queued (bounded backlog) while RECOVERING, answered read-only while
  DEGRADED, refused outright when FAILED.  A full queue answers
  ``BACKPRESSURE`` **with the shard index** and a ``retry_after_ms``
  hint, so clients back off that shard only.  Every request carries a
  deadline budget (``deadline_ms``, capped at :data:`MAX_DEADLINE_MS`);
  one that expires while queued is answered ``DEADLINE`` without
  touching a kernel.  Every refusal leaves through
  :meth:`ServeDaemon._refuse`;
* **chaos endpoints** — with ``allow_chaos``, ``kill_shard`` /
  ``revive_shard`` kill one shard worker in place (the SIGKILL model)
  and revive it through supervised recovery;
* **graceful shutdown** — ``stop()`` (the SIGTERM path) stops
  admitting, drains the queues, forces every WAL, checkpoints, and
  closes; ``kill()`` models SIGKILL for harnesses.

Metrics: a one-shard daemon reports ``serve.*`` / ``ack.*`` into its
kernel's own registry.  With N > 1 every kernel keeps its own registry
(the io/engine collector prefixes would collide on a shared one), the
daemon keeps a separate one for ``serve.*``, and ``/metrics`` renders
the merged view with ``shard<k>.`` prefixes — wired once, in the
constructor, the only place the daemon looks at N.
"""

from __future__ import annotations

import itertools
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Tuple, Union, TYPE_CHECKING
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.http import ObsHTTPServer
    from repro.replica.sender import ReplicationConfig, ReplicationSender

from repro.common.errors import ReproError, SimulatedCrash
from repro.core.operation import Operation, OpKind, delete_object
from repro.kernel.supervisor import SupervisorConfig
from repro.kernel.system import RecoverableSystem, SystemHealth
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import MetricsRegistry, process_memory
from repro.obs.tracing import stage
from repro.serve import protocol
from repro.serve.cross import Rendezvous
from repro.serve.errors import FencedError
from repro.serve.protocol import WRITE_KINDS
from repro.serve.watchdog import ServingWatchdog
from repro.serve.worker import _Shard, _stage_ctx, _Work, enqueue
from repro.shard.group import ShardedSystem
from repro.storage.backup import FuzzyBackup

#: Ceiling on client-supplied deadlines (ms): a client may ask for less
#: than a minute of queueing, never for a request that outlives the
#: operator's patience with a jammed shard.
MAX_DEADLINE_MS = 60_000

#: Graceful shutdown: how long to drain the queues before answering the
#: stragglers SHUTTING_DOWN.  Well inside a supervisor's SIGTERM →
#: SIGKILL grace period, so the drain, not the kill, ends the process.
DRAIN_DEADLINE_S = 10.0

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
    #: Backoff hint returned with BACKPRESSURE / UNAVAILABLE answers.
    retry_after_ms: int = 50
    #: The recovery ladder's budget for every supervised recovery.
    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)
    #: Flight-recorder persistence path (``flightrec.jsonl`` under the
    #: data dir when run via the CLI; None = in-memory ring only, still
    #: served by ``/debug/flightrec``).
    flightrec_path: Optional[str] = None
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
            protocol.close_socket(self.sock)


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
                self,
                index,
                kernel,
                ServingWatchdog(
                    kernel,
                    backup=backups[index],
                    config=self.config.supervisor,
                ),
            )
            for index, kernel in enumerate(systems)
        ]
        self._rendezvous = Rendezvous(self)
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
        #: Its default 2 048-event ring holds lifecycle events only, so
        #: it spans restarts and chaos, not a burst of traffic.
        self.flightrec = FlightRecorder(self.config.flightrec_path)
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
            shard.start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self, graceful: bool = True) -> int:
        """Shut down; the SIGTERM path when ``graceful``.

        Graceful order: stop admitting → drain the backlogs, parked
        replies included (bounded by :data:`DRAIN_DEADLINE_S`;
        stragglers get SHUTTING_DOWN) → force every WAL → checkpoint
        (HEALTHY shards only) → close.  Returns the process exit status
        (0 on a clean drain).
        """
        if not self._started:
            return 0
        self._draining.set()
        if graceful:
            deadline = time.monotonic() + DRAIN_DEADLINE_S
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
        self._halt_workers()
        for shard in self._shards:
            shard.flush("SHUTTING_DOWN", "server is shutting down")
        status = 0
        if graceful:
            for shard in self._shards:
                if shard.killed or shard.system._crashed:
                    continue
                try:
                    shard.system.log.force()
                    # The restart's analysis starts at this checkpoint,
                    # and the log keeps only what is still uninstalled.
                    if shard.system.health is SystemHealth.HEALTHY:
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
        self._halt_workers()
        for shard in self._shards:
            shard.flush(None)

    def _halt_workers(self) -> None:
        self._stopping.set()
        for shard in self._shards:
            shard.stop.set()  # all at once: none releases while one joins
        for shard in self._shards:
            shard.halt(timeout=5.0)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

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
            shard.halt(timeout=10.0)
            if not shard.system._crashed:
                shard.system.crash()
            self.obs.count(f"serve.shard.{index}.kills")
            self.obs.emit("shard.kill", shard=index)
            shard.flush("UNAVAILABLE", f"shard {index} worker was killed")

    def revive_shard(self, index: int) -> None:
        """Recover a killed shard and put a fresh worker on it."""
        with self._control_lock:
            shard = self._shards[index]
            if not shard.killed:
                raise ValueError(f"shard {index} is not killed")
            shard.watchdog.supervised_startup()
            shard.start()
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
        # ``type``, not ``isinstance``: JSON ``true`` is no shard index.
        if type(raw) is not int or not 0 <= raw < len(self._shards):
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
    # refusals: every ``ok: false`` the daemon sends is built here
    # ------------------------------------------------------------------
    def _refuse(
        self, conn: _Connection, request: Dict[str, Any], code: str,
        message: str, shard: Optional[_Shard] = None,
        retry_after_ms: Optional[int] = None,
        health: Optional[SystemHealth] = None, counter: Optional[str] = None,
    ) -> None:
        """Answer ``request`` with a structured refusal.

        The answer names ``shard`` and reports its health when the
        refusal is one shard's (otherwise the aggregate), unless
        ``health`` overrides it; ``counter`` is the
        ``serve.rejected.<counter>`` it moves, if any.  What raised
        exceptions map to is the worker's table
        (:meth:`~repro.serve.worker._Shard._refuse_raised`).
        """
        if counter is not None:
            self.obs.count(f"serve.rejected.{counter}")
        if health is None:
            health = (
                shard.system.health if shard else self.aggregate_health()
            )
        conn.send(protocol.error_response(
            request.get("id"), code, message, health.value, retry_after_ms,
            shard=shard.index if shard else None,
        ))

    # ------------------------------------------------------------------
    # admission (reader threads): validate, route, health-gate, enqueue
    # ------------------------------------------------------------------
    def _admit(self, conn: _Connection, request: Dict[str, Any]) -> None:
        kind = request.get("kind")
        self.obs.count("serve.requests")

        def reject(code: str, message: str, retry_after_ms=None, shard=None):
            self._refuse(
                conn, request, code, message, shard, retry_after_ms,
                counter=code.lower(),
            )

        if not isinstance(kind, str):
            # Checked first: a list or object ``kind`` is unhashable.
            reject("BAD_REQUEST", f"unknown request kind {kind!r}")
            return
        if kind in protocol.REPLICATION_KINDS:
            # Replication frames route around the admission queue: the
            # subscribe/ack stream must flow while the backlog is
            # jammed, and the sender owns its own locking.
            if self.replication is None:
                reject(
                    "BAD_REQUEST", "replication is not enabled on this server"
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
            conn.send(self._inline_answer(kind, request.get("id")))
            return
        if self._draining.is_set():
            reject(
                "SHUTTING_DOWN", "server is draining for shutdown",
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
            budget_ms = min(int(budget_ms), MAX_DEADLINE_MS)
        except (TypeError, ValueError):
            reject("BAD_REQUEST", f"bad deadline_ms: {budget_ms!r}")
            return
        # Per-shard health gates, checked for every involved shard.
        # HEALTHY admits; RECOVERING queues against the bounded backlog.
        for shard in involved:
            health = shard.system.health
            if shard.killed:
                reject(
                    "UNAVAILABLE", f"shard {shard.index} worker is down",
                    self.config.retry_after_ms, shard,
                )
            elif health is SystemHealth.FAILED:
                reject("FAILED", shard.failed_message(), shard=shard)
            elif health is SystemHealth.DEGRADED and kind in WRITE_KINDS:
                lost = sorted(map(str, shard.system.lost_objects))
                reject(
                    "DEGRADED", f"shard {shard.index} is in degraded "
                    f"read-only mode (lost objects: {lost})", shard=shard,
                )
            else:
                continue
            return
        work = _Work(
            request=request,
            conn=conn,
            deadline=now + budget_ms / 1000.0,
            enqueued=now,
            trace=protocol.request_trace(request),
        )
        if len(involved) == 1:
            full = enqueue(work, involved)
        else:
            full = self._rendezvous.enqueue(work, involved)
        if full is not None:
            reject(
                "BACKPRESSURE", f"shard {full.index} admission queue full "
                f"({self.config.max_queue} waiting)",
                self.config.retry_after_ms, full,
            )

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
    def _health_report(self) -> Dict[str, Any]:
        """What both health answers report, computed once: the totals
        and, under ``shards``, each shard's own."""
        shards = {
            str(shard.index): {
                "health": shard.system.health.value,
                "killed": shard.killed,
                "queue_depth": shard.depth(),
                "restarts": shard.watchdog.restarts,
                "lost_objects": sorted(map(str, shard.system.lost_objects)),
            }
            for shard in self._shards
        }
        each = shards.values()
        return {
            "lost_objects": sorted(
                obj for one in each for obj in one["lost_objects"]
            ),
            "queue_depth": sum(one["queue_depth"] for one in each),
            "restarts": sum(one["restarts"] for one in each),
            "draining": self._draining.is_set(),
            "shards": shards,
        }

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
                request_id, health, **self._health_report()
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
        report = self._health_report()
        shards = report.pop("shards")
        payload = {
            "health": health.value,
            "role": self.role,
            **report,
            "shards": {index: one["health"] for index, one in shards.items()},
            "killed": [
                int(index) for index, one in shards.items() if one["killed"]
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
        if payload["health"] != SystemHealth.HEALTHY.value:
            reasons.append(f"health is {payload['health']}")
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
    # verb → operation (called by the shard's apply thread)
    # ------------------------------------------------------------------
    def _dispatch(self, shard: _Shard, work: _Work) -> Dict[str, Any]:
        """Run one verb on ``shard``'s kernel; a write's ack is parked,
        not sent.

        ``ok: true`` means the operation's record is on the stable log
        (and, replicated, durably on the witness), so no crash can take
        it back.  Honoring that is the committer's half: this thread
        only names the lSI the reply waits for in ``work.lsi`` — a
        write's own, or the vSI a ``get`` read.
        """
        request = work.request
        kind = request["kind"]
        system = shard.system
        if kind == "get":
            obj = request["obj"]
            value = system.read(obj)
            work.lsi = system.cache.vsi_of(obj)
            return protocol.ok_response(
                request.get("id"),
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
        elif kind == "delete":
            op = delete_object(request["obj"])
        elif kind == "apply":
            op = self._apply_operation(request)
        elif kind == "promote":
            raise protocol.ProtocolError(
                "this server is not a witness; there is nothing to promote"
            )
        else:
            raise protocol.ProtocolError(f"unhandled request kind {kind!r}")
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
        if kind == "apply":
            fields["writes"] = protocol.encode_writes(writes)
        return protocol.ok_response(
            request.get("id"), system.health.value, **fields
        )

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
