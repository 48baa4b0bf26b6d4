"""The serving daemon: a supervised socket front end on one system.

``ServeDaemon`` wraps a :class:`~repro.kernel.system.RecoverableSystem`
behind the length-prefixed JSON protocol of
:mod:`repro.serve.protocol` and turns the escalation-ladder machinery
into an *operable* long-running process:

* **supervised startup** — the listener does not open until the
  :class:`~repro.serve.watchdog.ServingWatchdog` has driven recovery to
  a terminal state, so a daemon restarted over SIGKILL debris serves
  its first request from verified state;
* **health-gated admission** — requests are admitted when HEALTHY,
  queued (bounded backlog) while RECOVERING, answered read-only while
  DEGRADED (writes get a structured ``DEGRADED`` rejection), and
  refused outright when FAILED;
* **single-writer apply loop** — the kernel is not thread-safe, so all
  system access is confined to one apply thread fed by the admission
  queue; reader threads only frame, validate, gate and enqueue.
  Because every acknowledgment is sent *after* the operation's log
  record is forced stable, an acked write is durable by construction —
  the exactly-once visibility invariant the live-fire torture lane
  asserts;
* **deadlines and backpressure** — every request carries a deadline
  budget (``deadline_ms``, defaulted and capped by config); a request
  that expires while queued is answered ``DEADLINE`` without touching
  the system, and a full queue answers ``BACKPRESSURE`` with a
  ``retry_after_ms`` hint the client's backoff honors;
* **mid-serve crash watchdog** — a storage failure surfacing inside
  the apply loop discards volatile state and re-runs the supervisor
  ladder while admission keeps queueing; the in-flight request gets a
  retryable ``UNAVAILABLE`` answer (its durability is decided by the
  WAL, and the daemon only ever acks after a force);
* **graceful shutdown** — ``stop()`` (the SIGTERM path) stops
  admitting, drains the queue, forces the WAL, checkpoints, and closes;
  ``kill()`` models SIGKILL for harnesses: everything stops now and
  whatever the WAL did not force never happened.

The ``/metrics`` + ``/healthz`` HTTP endpoint
(:class:`~repro.obs.http.ObsHTTPServer`) runs alongside the socket
listener so the registry PR 5 built is scrapeable while faults fire.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.replica.sender import ReplicationConfig

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
from repro.obs.http import ObsHTTPServer
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import TraceContext
from repro.serve import protocol
from repro.serve.errors import FencedError, ServerUnavailableError
from repro.serve.watchdog import ServingWatchdog, WatchdogConfig
from repro.storage.backup import FuzzyBackup

#: Request kinds that mutate state (gated in DEGRADED health).
WRITE_KINDS = frozenset({"put", "delete", "apply"})


@dataclass
class DaemonConfig:
    """Ports, budgets and shutdown policy for one daemon."""

    host: str = "127.0.0.1"
    #: TCP port for the request listener (0 = ephemeral).
    port: int = 0
    #: Port for the /metrics + /healthz HTTP endpoint (0 = ephemeral,
    #: None = no HTTP endpoint).
    http_port: Optional[int] = 0
    #: Bounded admission backlog: arrivals past this get BACKPRESSURE.
    max_queue: int = 64
    #: Deadline budget applied to requests that carry none.
    default_deadline_ms: int = 5_000
    #: Ceiling on client-supplied deadlines.
    max_deadline_ms: int = 60_000
    #: Backoff hint returned with BACKPRESSURE / UNAVAILABLE answers.
    retry_after_ms: int = 50
    #: Graceful shutdown: how long to drain the queue before answering
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


@dataclass
class _Work:
    """One admitted request waiting for the apply loop."""

    request: Dict[str, Any]
    conn: "_Connection"
    deadline: float
    enqueued: float
    #: Distributed-trace context minted by the client (None untraced).
    trace: Optional[TraceContext] = None


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


class ServeDaemon:
    """A long-running, supervised serving loop over one system."""

    def __init__(
        self,
        system: RecoverableSystem,
        config: Optional[DaemonConfig] = None,
        backup: Optional[FuzzyBackup] = None,
        replication: Optional["ReplicationConfig"] = None,
    ) -> None:
        self.system = system
        self.config = config if config is not None else DaemonConfig()
        if not system.obs.enabled:
            system.attach_metrics(MetricsRegistry())
        #: Crash flight recorder: taps the registry's event stream
        #: (health transitions, watchdog restarts, epoch changes) into
        #: a bounded ring persisted at ``flightrec_path``.
        self.flightrec = FlightRecorder(
            self.config.flightrec_path,
            capacity=self.config.flightrec_capacity,
        )
        system.obs.subscribe(self.flightrec)
        self.watchdog = ServingWatchdog(
            system, backup=backup, config=self.config.watchdog
        )
        #: Primary-side replication (None = standalone).  With a sender
        #: attached, every write's ack additionally waits for the
        #: witness's durable receipt — see :mod:`repro.replica.sender`.
        self.replication = None
        if replication is not None:
            from repro.replica.sender import ReplicationSender

            self.replication = ReplicationSender(self, replication)
        self.role = "primary"
        self._queue: "queue.Queue[_Work]" = queue.Queue(
            maxsize=max(1, self.config.max_queue)
        )
        self._listener: Optional[socket.socket] = None
        self._http: Optional[ObsHTTPServer] = None
        self._apply_thread: Optional[threading.Thread] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._readers: List[threading.Thread] = []
        self._conns: List[_Connection] = []
        self._conns_lock = threading.Lock()
        self._draining = threading.Event()
        self._stopping = threading.Event()
        self._apply_idle = threading.Event()
        self._apply_idle.set()
        self._started = False
        self._op_counter = 0
        #: Deadline of the request the apply thread is executing (the
        #: replication wait honors it; single apply thread, no races).
        self._deadline_in_flight: Optional[float] = None
        #: Trace context of the request the apply thread is executing
        #: (same single-thread pattern as the deadline).
        self._trace_in_flight: Optional[TraceContext] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
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

    def start(self) -> "ServeDaemon":
        """Supervised startup, then open the listener and HTTP endpoint.

        Recovery runs **before** the first connection can be accepted:
        a client that manages to connect has, by definition, a server
        whose escalation ladder already landed somewhere terminal.
        """
        if self._started:
            raise RuntimeError("daemon already started")
        self._started = True
        self.flightrec.record(
            "daemon.start",
            {"role": self.role, "health": self.system.health.value},
        )
        self.watchdog.supervised_startup()
        if self.config.http_port is not None:
            self._http = ObsHTTPServer(
                self._metrics_source,
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
                "health": self.system.health.value,
                "port": listener.getsockname()[1],
            },
        )
        self._apply_thread = threading.Thread(
            target=self._apply_loop, name="repro-serve-apply", daemon=True
        )
        self._apply_thread.start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self, graceful: bool = True) -> int:
        """Shut down; the SIGTERM path when ``graceful``.

        Graceful order: stop admitting → drain the backlog (bounded by
        ``drain_deadline_s``; stragglers get SHUTTING_DOWN) → force the
        WAL → checkpoint (HEALTHY systems only) → close.  Returns the
        process exit status (0 on a clean drain).
        """
        if not self._started:
            return 0
        self._draining.set()
        if graceful:
            deadline = time.monotonic() + self.config.drain_deadline_s
            while time.monotonic() < deadline:
                if self._queue.empty() and self._apply_idle.is_set():
                    break
                time.sleep(0.01)
        self._stopping.set()
        # Apply and accept loops poll their stop flag; join them before
        # touching the kernel so the final force races nothing.
        for thread in (self._apply_thread, self._accept_thread):
            if thread is not None:
                thread.join(timeout=5.0)
        self._flush_queue("SHUTTING_DOWN", "server is shutting down")
        status = 0
        if graceful and not self.system._crashed:
            try:
                self.system.log.force()
                if (
                    self.config.checkpoint_on_shutdown
                    and self.system.health is SystemHealth.HEALTHY
                ):
                    self.system.checkpoint(truncate=True)
                if self.replication is not None:
                    # Nudge the witness to materialize what it holds;
                    # its receipt is not waited for (we are exiting).
                    self.replication.ship_checkpoint_hint()
            except (ReproError, SimulatedCrash):
                # A device that dies during the final force leaves a
                # cleanly recoverable WAL tail (the torn-tail repair
                # path); the next startup's supervised recovery owns it.
                status = 1
        self.system.close()
        # Closing the sockets unblocks reader threads parked in recv.
        self._close_everything()
        for thread in list(self._readers):
            thread.join(timeout=5.0)
        self.flightrec.record(
            "daemon.stop",
            {"graceful": graceful, "status": status,
             "health": self.system.health.value},
        )
        self.flightrec.close("sigterm" if graceful else "stop")
        return status

    def kill(self) -> None:
        """Abrupt stop (the SIGKILL model for in-process harnesses).

        No drain, no force, no checkpoint: connections die mid-frame
        and whatever sat in the volatile log buffer is lost.  The
        harness completes the simulation by calling ``system.crash()``
        before handing the storage to a restarted daemon.
        """
        if not self._started:
            return
        self._draining.set()
        self._stopping.set()
        self._close_everything()
        for thread in (self._apply_thread, self._accept_thread):
            if thread is not None:
                thread.join(timeout=5.0)
        for thread in list(self._readers):
            thread.join(timeout=5.0)
        self._flush_queue(None, None)

    def _close_everything(self) -> None:
        if self.replication is not None:
            self.replication.close()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        with self._conns_lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            conn.close()
        if self._http is not None:
            self._http.stop()
            self._http = None

    def _flush_queue(
        self, code: Optional[str], message: Optional[str]
    ) -> None:
        """Answer (or drop, when ``code`` is None) any leftover work."""
        while True:
            try:
                work = self._queue.get_nowait()
            except queue.Empty:
                return
            if code is not None:
                work.conn.send(
                    protocol.error_response(
                        work.request.get("id"),
                        code,
                        message or "",
                        self.system.health.value,
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
            with self._conns_lock:
                self._conns.append(conn)
            thread = threading.Thread(
                target=self._reader_loop,
                args=(conn,),
                name="repro-serve-conn",
                daemon=True,
            )
            thread.start()
            self._readers.append(thread)

    def _reader_loop(self, conn: _Connection) -> None:
        try:
            while not self._stopping.is_set():
                try:
                    request = protocol.recv_frame(conn.sock)
                except protocol.ProtocolError:
                    break
                except OSError:
                    break
                if request is None:
                    break
                self._admit(conn, request)
        finally:
            if self.replication is not None:
                self.replication.detach(conn)
            conn.close()

    def _admit(self, conn: _Connection, request: Dict[str, Any]) -> None:
        """The admission gate: validate, health-gate, enqueue."""
        obs = self.system.obs
        request_id = request.get("id")
        kind = request.get("kind")
        health = self.system.health
        if obs.enabled:
            obs.count("serve.requests")

        def reject(
            code: str, message: str, retry_after_ms: Optional[int] = None
        ) -> None:
            if obs.enabled:
                obs.count(f"serve.rejected.{code.lower()}")
            conn.send(
                protocol.error_response(
                    request_id, code, message, health.value, retry_after_ms
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
        if kind not in protocol.REQUEST_KINDS:
            reject("BAD_REQUEST", f"unknown request kind {kind!r}")
            return
        # Liveness requests bypass the queue: they touch only
        # attributes and the registry snapshot, never the kernel, and
        # must answer even when the backlog is jammed.
        if kind in ("ping", "health", "stats"):
            conn.send(self._inline_answer(kind, request_id, health))
            return
        if self._draining.is_set():
            reject(
                "SHUTTING_DOWN",
                "server is draining for shutdown",
                self.config.retry_after_ms,
            )
            return
        if health is SystemHealth.FAILED:
            reject(
                "FAILED",
                "recovery did not converge; the system is failed",
            )
            return
        if health is SystemHealth.DEGRADED and kind in WRITE_KINDS:
            reject(
                "DEGRADED",
                "system is in degraded read-only mode (lost objects: "
                f"{sorted(map(str, self.system.lost_objects))})",
            )
            return
        # HEALTHY admits; RECOVERING queues against the bounded backlog.
        now = time.monotonic()
        budget_ms = request.get("deadline_ms")
        if budget_ms is None:
            budget_ms = self.config.default_deadline_ms
        try:
            budget_ms = min(int(budget_ms), self.config.max_deadline_ms)
        except (TypeError, ValueError):
            reject("BAD_REQUEST", f"bad deadline_ms: {budget_ms!r}")
            return
        work = _Work(
            request=request,
            conn=conn,
            deadline=now + budget_ms / 1000.0,
            enqueued=now,
            trace=protocol.request_trace(request) if obs.enabled else None,
        )
        try:
            self._queue.put_nowait(work)
        except queue.Full:
            reject(
                "BACKPRESSURE",
                f"admission queue full ({self.config.max_queue} waiting)",
                self.config.retry_after_ms,
            )
            return
        if obs.enabled:
            obs.gauge("serve.queue_depth", self._queue.qsize())

    def _inline_answer(
        self, kind: str, request_id: Any, health: SystemHealth
    ) -> Dict[str, Any]:
        if kind == "ping":
            from repro import __version__

            return protocol.ok_response(
                request_id, health.value, version=__version__
            )
        if kind == "health":
            return protocol.ok_response(
                request_id,
                health.value,
                lost_objects=sorted(map(str, self.system.lost_objects)),
                queue_depth=self._queue.qsize(),
                restarts=self.watchdog.restarts,
                draining=self._draining.is_set(),
            )
        # stats: the counter/gauge ledger, JSON-safe by construction.
        snapshot: Dict[str, Any] = {"counters": {}, "gauges": {}}
        if self.system.obs.enabled:
            snap = self.system.obs.snapshot()
            snapshot["counters"] = snap.get("counters", {})
            snapshot["gauges"] = snap.get("gauges", {})
        return protocol.ok_response(request_id, health.value, stats=snapshot)

    # ------------------------------------------------------------------
    # apply side (the only thread that touches the kernel)
    # ------------------------------------------------------------------
    def _apply_loop(self) -> None:
        while True:
            try:
                work = self._queue.get(timeout=0.05)
            except queue.Empty:
                if self._stopping.is_set():
                    return
                continue
            self._apply_idle.clear()
            try:
                self._apply_one(work)
            finally:
                self._apply_idle.set()
                if self.system.obs.enabled:
                    self.system.obs.gauge(
                        "serve.queue_depth", self._queue.qsize()
                    )

    def _apply_one(self, work: _Work) -> None:
        obs = self.system.obs
        request = work.request
        request_id = request.get("id")
        health = self.system.health
        now = time.monotonic()
        if now > work.deadline:
            if obs.enabled:
                obs.count("serve.rejected.deadline")
            work.conn.send(
                protocol.error_response(
                    request_id,
                    "DEADLINE",
                    f"deadline expired after {now - work.enqueued:.3f}s "
                    "in queue",
                    health.value,
                )
            )
            return
        # Health may have moved while the request sat in the backlog
        # (a watchdog restart ran): re-gate before touching the kernel.
        if health is SystemHealth.FAILED:
            work.conn.send(
                protocol.error_response(
                    request_id,
                    "FAILED",
                    "recovery did not converge; the system is failed",
                    health.value,
                )
            )
            return
        if obs.enabled:
            tags = work.trace.child().tags() if work.trace else {}
            obs.record_span(
                "ack.queue_ms", now - work.enqueued, kind=request.get("kind"),
                **tags
            )
        self._deadline_in_flight = work.deadline
        self._trace_in_flight = work.trace
        try:
            response = self._dispatch(request, request_id)
        except FencedError as exc:
            response = protocol.error_response(
                request_id, "FENCED", str(exc), self.system.health.value
            )
        except ServerUnavailableError as exc:
            # Replication could not confirm the witness's durable
            # receipt: the write executed locally but was NOT acked —
            # at-least-once retries are safe, acks are never produced
            # without the receipt.
            response = protocol.error_response(
                request_id,
                "UNAVAILABLE",
                str(exc),
                self.system.health.value,
                exc.retry_after_ms or self.config.retry_after_ms,
            )
        except DegradedModeError as exc:
            response = protocol.error_response(
                request_id, "DEGRADED", str(exc), self.system.health.value
            )
        except (SimulatedCrash, CorruptObjectError, TransientStorageError) as exc:
            # Mid-serve crash: the request's durability is whatever the
            # WAL made of it (never acked here), and the watchdog owns
            # getting the system back.  Answer retryable first so the
            # client is not stuck waiting out the whole recovery.
            work.conn.send(
                protocol.error_response(
                    request_id,
                    "UNAVAILABLE",
                    f"serving crash ({type(exc).__name__}: {exc}); "
                    "recovery in progress",
                    SystemHealth.RECOVERING.value,
                    self.config.retry_after_ms,
                )
            )
            self.watchdog.handle_serving_crash(exc, trace=work.trace)
            return
        except ReproError as exc:
            response = protocol.error_response(
                request_id,
                "BAD_REQUEST",
                f"{type(exc).__name__}: {exc}",
                self.system.health.value,
            )
        except Exception as exc:  # noqa: BLE001 - the loop must survive
            response = protocol.error_response(
                request_id,
                "INTERNAL",
                f"{type(exc).__name__}: {exc}",
                self.system.health.value,
            )
        if obs.enabled:
            obs.observe("serve.request_seconds", time.monotonic() - now)
        work.conn.send(response)

    def _dispatch(
        self, request: Dict[str, Any], request_id: Any
    ) -> Dict[str, Any]:
        kind = request["kind"]
        system = self.system
        health = system.health.value
        if kind == "get":
            obj = self._require_obj(request)
            value = system.read(obj)
            return protocol.ok_response(
                request_id,
                health,
                value=protocol.encode_value(value),
                vsi=system.cache.vsi_of(obj),
            )
        if kind == "put":
            obj = self._require_obj(request)
            value = protocol.decode_value(request.get("value"))
            self._op_counter += 1
            op = Operation(
                f"serve.put({obj})#{self._op_counter}",
                OpKind.PHYSICAL,
                reads=frozenset(),
                writes=frozenset({obj}),
                payload={obj: value},
            )
            return self._execute_durably(op, request_id)
        if kind == "delete":
            obj = self._require_obj(request)
            return self._execute_durably(delete_object(obj), request_id)
        if kind == "apply":
            fn = request.get("fn")
            reads = request.get("reads") or []
            writes = request.get("writes") or []
            if not isinstance(fn, str) or not fn:
                raise protocol.ProtocolError("apply requires a function name")
            if not writes:
                raise protocol.ProtocolError("apply requires a writeset")
            params = [
                protocol.decode_value(param)
                for param in (request.get("params") or [])
            ]
            self._op_counter += 1
            op = Operation(
                request.get("name")
                or f"serve.apply({fn})#{self._op_counter}",
                OpKind.LOGICAL,
                reads=frozenset(reads),
                writes=frozenset(writes),
                fn=fn,
                params=tuple(params),
            )
            return self._execute_durably(op, request_id, include_writes=True)
        if kind == "promote":
            raise protocol.ProtocolError(
                "this server is not a witness; there is nothing to promote"
            )
        raise protocol.ProtocolError(f"unhandled request kind {kind!r}")

    def _execute_durably(
        self,
        op: Operation,
        request_id: Any,
        include_writes: bool = False,
    ) -> Dict[str, Any]:
        """Execute, then force the WAL through the op before acking.

        The force is the acknowledgment contract: a response with
        ``ok: true`` means the operation's record is on the stable log,
        so no crash — SIGKILL included — can take it back.  With
        replication enabled the contract widens: the ack additionally
        waits for the witness's durable receipt of the record
        (semi-synchronous shipping), so the acked write survives the
        loss of either machine; if the receipt cannot be confirmed the
        client gets a retryable ``UNAVAILABLE`` and no ack.
        """
        system = self.system
        obs = system.obs
        trace = self._trace_in_flight
        if self.replication is not None and self.replication.fenced:
            raise FencedError(
                f"primary epoch {self.replication.epoch} is fenced; a "
                "promoted witness is serving"
            )
        # The ack pipeline, one ``ack.*_ms`` stage span per phase.  Each
        # stage is a direct child of the client's root span; the
        # replication wait additionally hands its context to the sender
        # so the shipped batch (and the witness's spans) nest under it.
        with obs.span("ack.apply_ms",
                      **(trace.child().tags() if trace else {})):
            writes = system.execute(op)
        with obs.span("ack.force_ms",
                      **(trace.child().tags() if trace else {})):
            system.log.force_through(op.lsi)
        if self.replication is not None:
            wait_ctx = trace.child() if trace else None
            with obs.span("ack.repl_wait_ms",
                          **(wait_ctx.tags() if wait_ctx else {})):
                self.replication.replicate(
                    op.lsi, self._deadline_in_flight, trace=wait_ctx
                )
        if obs.enabled:
            obs.count("serve.acked_writes")
        fields: Dict[str, Any] = {"lsi": op.lsi}
        epoch = self.current_epoch()
        if epoch is not None:
            fields["epoch"] = epoch
        if include_writes:
            fields["writes"] = {
                str(obj): protocol.encode_value(value)
                for obj, value in writes.items()
            }
        return protocol.ok_response(
            request_id, system.health.value, **fields
        )

    def current_epoch(self) -> Optional[int]:
        """This server's replication epoch (None when standalone)."""
        if self.replication is not None:
            return self.replication.epoch
        return None

    @staticmethod
    def _require_obj(request: Dict[str, Any]) -> str:
        obj = request.get("obj")
        if not isinstance(obj, str) or not obj:
            raise protocol.ProtocolError("request requires an 'obj' string")
        return obj

    # ------------------------------------------------------------------
    # HTTP endpoint providers
    # ------------------------------------------------------------------
    def _metrics_source(self) -> Optional[Any]:
        return self.system.obs if self.system.obs.enabled else None

    def _health_payload(self) -> Tuple[int, Dict[str, Any]]:
        """Liveness: 200 while the process can make progress.

        RECOVERING and DEGRADED are *live* states (the watchdog or an
        operator is working the problem; restarting the process would
        only repeat the ladder) — only FAILED, which explicitly needs
        an operator, answers 503.  Load balancers and rolling deploys
        should poll readiness (``/healthz?ready=1``) instead, which
        additionally requires HEALTHY, not-draining, and a caught-up
        replication pair.
        """
        health = self.system.health
        payload = {
            "health": health.value,
            "role": self.role,
            "lost_objects": sorted(map(str, self.system.lost_objects)),
            "queue_depth": self._queue.qsize(),
            "restarts": self.watchdog.restarts,
            "draining": self._draining.is_set(),
        }
        if self.replication is not None:
            payload.update(self.replication.status())
        status = 200 if health is not SystemHealth.FAILED else 503
        return status, payload

    def _ready_payload(self) -> Tuple[int, Dict[str, Any]]:
        """Readiness: 200 only when this server should receive traffic.

        Requires HEALTHY (not RECOVERING/DEGRADED/FAILED), not
        draining, and — when replication is enabled — an attached,
        unfenced witness (writes cannot be acked without its receipt).
        The witness daemon overrides this with its own caught-up rule.
        """
        _status, payload = self._health_payload()
        reasons = []
        health = self.system.health
        if health is not SystemHealth.HEALTHY:
            reasons.append(f"health is {health.value}")
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
