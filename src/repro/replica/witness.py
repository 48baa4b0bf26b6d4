"""The witness daemon: continuous redo from a shipped WAL, promotion.

A :class:`WitnessDaemon` is a one-shard
:class:`~repro.serve.server.ServeDaemon` in a different role, hooked
into the one serving core at its admit, inline-answer and dispatch
points: instead of executing client operations, it dials
the primary (``python -m repro serve --witness-of HOST:PORT``),
subscribes from its own durable watermark, adopts every shipped batch
into its log (:meth:`~repro.wal.log_manager.LogManager.adopt_records`
forces before the receipt ack — the ack is a durability promise), and
**continuously redoes the adopted log through the real recovery
path**: on a cadence it crashes its own volatile state, runs the
:class:`~repro.kernel.supervisor.RecoverySupervisor` ladder through its
shard's one recovery driver
(:meth:`~repro.serve.worker._Shard.supervise`), and installs the
redone operations through its cache manager, in write-graph order.
This is the
paper's REDO test doing replication: the shipped records keep the
primary's lSIs, the witness's installed versions carry those lSIs as
vSIs, and the test ``lsi >= max(rsi, vsi + 1)`` prunes exactly the
records whose effects a previous cycle already installed — ``rSI``
pruning across a process boundary.

Until promoted, the witness refuses data requests (``UNAVAILABLE``
with its role in the message) and answers ping/health/stats with its
role, epoch and watermarks.  An operator (or harness) promotes it with
a ``promote`` request: the subscriber stops, a fencing ack carrying
``epoch + 1`` is pushed at the old primary (so a still-live zombie
refuses all further writes with ``FENCED``), a final supervised
recovery converges the adopted log, an
:class:`~repro.wal.records.EpochRecord` is forced, and the daemon
starts serving as a primary at the new epoch.  Promotion is *never*
automatic — a witness cannot distinguish a dead primary from a
partition, so the split-brain decision belongs to the operator.
"""

from __future__ import annotations

import select
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.common.identifiers import NULL_SI, StateId
from repro.kernel.system import RecoverableSystem, SystemHealth
from repro.obs.tracing import stage
from repro.replica import wire
from repro.replica.epoch import INITIAL_EPOCH, EpochStore
from repro.serve import protocol
from repro.serve.server import DaemonConfig, ServeDaemon, _Connection
from repro.serve.worker import _Shard, _Work
from repro.wal.records import EpochRecord

#: How long one dial of the primary may take before the subscriber
#: backs off and redials: a live primary on a reachable host accepts in
#: well under this, and a longer wait only delays noticing a dead one.
CONNECT_TIMEOUT_S = 2.0


@dataclass
class WitnessConfig:
    """Where the primary is and how eagerly the witness redoes."""

    primary_host: str = "127.0.0.1"
    primary_port: int = 0
    #: Run a redo/materialize cycle after this many adopted records
    #: (checkpoint hints from the primary also trigger one).
    redo_every_records: int = 64
    #: Backoff between subscribe attempts while the primary is away.
    reconnect_delay_s: float = 0.2
    #: Directory for the durable epoch sidecar (None = in-memory).
    epoch_root: Optional[str] = None


class WitnessDaemon(ServeDaemon):
    """A daemon that redoes a primary's shipped WAL until promoted."""

    def __init__(
        self,
        system: RecoverableSystem,
        config: Optional[DaemonConfig] = None,
        witness: Optional[WitnessConfig] = None,
    ) -> None:
        super().__init__(system, config)
        self.witness_config = witness if witness is not None else WitnessConfig()
        self.epochs = EpochStore(self.witness_config.epoch_root)
        self.epoch = self.epochs.load()
        self.role = "witness"
        self._promoted = threading.Event()
        #: Serializes kernel access between the subscriber thread
        #: (adopt / redo cycles) and the apply thread (promotion).
        self._witness_lock = threading.RLock()
        self._subscriber_thread: Optional[threading.Thread] = None
        self._stop_subscriber = threading.Event()
        self._subscriber_sock: Optional[socket.socket] = None
        self._sock_lock = threading.Lock()
        #: Serializes frames written to the subscriber socket (the
        #: promotion fence ack races the stream's receipt acks).
        self._send_lock = threading.Lock()
        self._attached = threading.Event()
        #: Highest ``through`` the primary has announced.
        self._primary_through: StateId = NULL_SI
        #: Highest ``through`` covered by our own stable log (what we
        #: ack): everything at or below it is durable here.
        self._adopted_through: StateId = NULL_SI
        #: Watermark the last redo/materialize cycle redid through.
        self._materialized_through: StateId = NULL_SI
        self._records_since_cycle = 0
        #: Completed redo/materialize cycles (telemetry + tests).
        self.redo_cycles = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "WitnessDaemon":
        super().start()
        # Whatever the adopted log already holds is our durable resume
        # position; the primary re-ships anything past it.
        self._adopted_through = self.system.log.stable_end_lsi()
        self._subscriber_thread = threading.Thread(
            target=self._subscriber_loop,
            name="repro-witness-subscribe",
            daemon=True,
        )
        self._subscriber_thread.start()
        return self

    def stop(self, graceful: bool = True) -> int:
        self._halt_subscriber()
        return super().stop(graceful)

    def kill(self) -> None:
        self._halt_subscriber()
        super().kill()

    def _halt_subscriber(self) -> None:
        self._stop_subscriber.set()
        self._close_subscriber_sock()
        thread = self._subscriber_thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=10.0)

    def _close_subscriber_sock(self) -> None:
        with self._sock_lock:
            sock, self._subscriber_sock = self._subscriber_sock, None
        if sock is not None:
            protocol.close_socket(sock)

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------
    @property
    def promoted(self) -> bool:
        return self._promoted.is_set()

    @property
    def attached(self) -> bool:
        """True while subscribed to a live primary."""
        return self._attached.is_set()

    @property
    def lag_records(self) -> int:
        """How far the durable log trails the primary's announcements."""
        return max(0, self._primary_through - self._adopted_through)

    @property
    def redo_lag_records(self) -> int:
        """How far materialized state trails the durable log."""
        return max(0, self._adopted_through - self._materialized_through)

    def replication_status(self) -> Dict[str, Any]:
        return {
            "role": self.role,
            "epoch": self.epoch,
            "promoted": self.promoted,
            "attached": self.attached,
            "primary_through": self._primary_through,
            "adopted_through": self._adopted_through,
            "materialized_through": self._materialized_through,
            "lag_records": self.lag_records,
            "redo_lag_records": self.redo_lag_records,
            "redo_cycles": self.redo_cycles,
        }

    def current_epoch(self) -> Optional[int]:
        return self.epoch

    # ------------------------------------------------------------------
    # admission overrides (pre-promotion gating)
    # ------------------------------------------------------------------
    def _admit(self, conn: _Connection, request: Dict[str, Any]) -> None:
        kind = request.get("kind")
        # A kind that is no string is the core's to refuse.
        if isinstance(kind, str) and not self._promoted.is_set():
            if kind in protocol.REPLICATION_KINDS:
                self._refuse(
                    conn, request, "BAD_REQUEST",
                    "this server is a witness; it does not accept "
                    "replication subscriptions",
                )
                return
            if kind in ("get", "put", "delete", "apply"):
                target = (
                    f"{self.witness_config.primary_host}:"
                    f"{self.witness_config.primary_port}"
                )
                self._refuse(
                    conn, request, "UNAVAILABLE",
                    f"this server is a witness of {target} (epoch "
                    f"{self.epoch}); not serving until promoted",
                    retry_after_ms=self.config.retry_after_ms,
                )
                return
        super()._admit(conn, request)

    def _inline_answer(self, kind: str, request_id: Any) -> Dict[str, Any]:
        answer = super()._inline_answer(kind, request_id)
        if kind in ("ping", "health"):
            answer.update(self.replication_status())
        return answer

    def _dispatch(self, shard: _Shard, work: _Work) -> Dict[str, Any]:
        if work.request.get("kind") == "promote":
            return self._promote(work.request.get("id"))
        return super()._dispatch(shard, work)

    # ------------------------------------------------------------------
    # the subscriber: dial, adopt, ack, redo
    # ------------------------------------------------------------------
    def _subscriber_loop(self) -> None:
        cfg = self.witness_config
        while not self._stop_subscriber.is_set():
            try:
                sock = socket.create_connection(
                    (cfg.primary_host, cfg.primary_port),
                    timeout=CONNECT_TIMEOUT_S,
                )
                sock.settimeout(None)
                protocol.disable_nagle(sock)
                with self._sock_lock:
                    if self._stop_subscriber.is_set():
                        sock.close()
                        return
                    self._subscriber_sock = sock
                self._subscribe_and_stream(sock)
            except wire.RefusedError as exc:
                # A refused subscription or batch: drop it and redial.
                # The flight recorder says why the pair never attaches.
                self.system.obs.emit("repl.refused", reason=str(exc))
            except (OSError, ValueError, protocol.ProtocolError):
                pass  # no primary, peer gone mid-frame, or our socket closed
            finally:
                self._attached.clear()
                self._close_subscriber_sock()
            if self._stop_subscriber.wait(cfg.reconnect_delay_s):
                return

    def _send_to_primary(
        self, sock: socket.socket, frame: Dict[str, Any]
    ) -> None:
        with self._send_lock:
            protocol.send_frame(sock, frame)

    def _subscribe_and_stream(self, sock: socket.socket) -> None:
        watermark = self.system.log.stable_end_lsi()
        self._send_to_primary(
            sock, wire.subscribe_frame(watermark, self.epoch)
        )
        response = protocol.recv_frame(sock)
        if response is None:
            return
        if not response.get("ok"):
            # A fenced or unwilling primary: the loop backs off, redials.
            raise wire.RefusedError(
                f"primary refused the subscription: {response.get('error')}"
            )
        try:
            primary_epoch = int(response.get("epoch", INITIAL_EPOCH))
            through = int(response.get("through", NULL_SI))
        except (TypeError, ValueError):
            return
        with self._witness_lock:
            if primary_epoch < self.epoch:
                # A stale primary must not feed us; tell it so in-band.
                self._send_to_primary(
                    sock, wire.ack_frame(self._adopted_through, self.epoch)
                )
                return
            if primary_epoch > self.epoch:
                self._set_epoch_locked(primary_epoch)
            self._primary_through = max(self._primary_through, through)
        self._attached.set()
        if self.system.obs.enabled:
            self.system.obs.count("repl.witness_subscribes")
        while not self._stop_subscriber.is_set():
            readable, _, _ = select.select([sock], [], [], 0.25)
            if not readable:
                continue
            frame = protocol.recv_frame(sock)
            if frame is None:
                return
            if frame.get("kind") != wire.KIND_BATCH:
                continue
            if not self._handle_batch(sock, frame):
                return

    def _handle_batch(
        self, sock: socket.socket, frame: Dict[str, Any]
    ) -> bool:
        """Adopt one pushed batch; ack its durable receipt.

        Returns False when the stream must end (stale pusher, or this
        witness has been promoted) — the fencing ack carrying our
        higher epoch has already been sent by then.
        """
        try:
            epoch = int(frame.get("epoch", INITIAL_EPOCH))
            through = int(frame.get("through", NULL_SI))
        except (TypeError, ValueError):
            raise wire.RefusedError("bad repl_batch frame")
        run_cycle = False
        obs = self.system.obs
        # The batch may carry the trace of the client write whose ack
        # gates on it; tolerant parsing (an old primary sends none).
        batch_trace = protocol.request_trace(frame)
        adopt_ctx = batch_trace.child() if batch_trace is not None else None
        with self._witness_lock:
            if self._promoted.is_set() or epoch < self.epoch:
                # The pusher's epoch is history.  The ack's epoch field
                # is the fence: the primary sees a number above its own
                # and refuses to ack anything ever again.
                self._send_to_primary(
                    sock, wire.ack_frame(self._adopted_through, self.epoch)
                )
                return False
            if epoch > self.epoch:
                self._set_epoch_locked(epoch)
            # The durable-adopt stage: check + decode + adopt_records
            # (which forces) is what the witness's receipt promise costs.
            with stage(obs, "witness.adopt_ms", adopt_ctx):
                adopted = wire.adopt_batch(self.system.log, frame)
            self._adopted_through = max(
                self._adopted_through,
                through,
                self.system.log.stable_end_lsi(),
            )
            self._primary_through = max(self._primary_through, through)
            self._records_since_cycle += adopted
            run_cycle = bool(frame.get("checkpoint")) or (
                self._records_since_cycle
                >= self.witness_config.redo_every_records
            )
        # The receipt ack goes out *after* adopt_records forced the
        # batch (durable receipt), *before* the redo cycle (redo is
        # catch-up work, not part of the durability contract).  It
        # echoes the batch's trace back at the primary.
        ack_ctx = adopt_ctx.child() if adopt_ctx is not None else None
        with stage(obs, "witness.ack_ms", ack_ctx):
            self._send_to_primary(
                sock,
                wire.ack_frame(
                    self._adopted_through,
                    self.epoch,
                    trace=(batch_trace.to_wire()
                           if batch_trace is not None else None),
                ),
            )
        if obs.enabled:
            obs.count("repl.witness_batches")
            obs.gauge(
                "repl.witness_adopted_through", self._adopted_through
            )
            # Live lag gauges, updated per batch (not just per redo
            # cycle) so /metrics always reflects the current windows.
            obs.gauge("repl.lag_records", self.lag_records)
            obs.gauge("repl.redo_lag_records", self.redo_lag_records)
        if run_cycle:
            self._redo_cycle()
        return True

    def _set_epoch_locked(self, epoch: int) -> None:
        previous = self.epoch
        self.epoch = self.epochs.save(epoch)
        if self.epoch != previous:
            self.system.obs.emit(
                "epoch.change",
                old=previous,
                new=self.epoch,
                role=self.role,
            )

    # ------------------------------------------------------------------
    # the redo/materialize cycle (the paper's recovery path, on a timer)
    # ------------------------------------------------------------------
    def _redo_cycle(self) -> None:
        """Crash, supervise recovery, install, truncate.

        The supervisor replays the adopted records through analysis +
        REDO-test pruning; the redone operations install through the
        cache manager in write-graph order, so a crash between any two
        store writes recovers.  The log is then cut where a truncating
        checkpoint cuts it: below the oldest rSI still dirty (a flush
        set waiting for the primary's identity writes), else past the
        watermark.
        """
        with self._witness_lock:
            if self._promoted.is_set():
                return
            watermark = self.system.log.stable_end_lsi()
            if watermark == NULL_SI or watermark <= self._materialized_through:
                self._records_since_cycle = 0
                return
            start = time.perf_counter()
            self.system.crash()
            self._shards[0].supervise()
            if self.system.health is not SystemHealth.HEALTHY:
                # The ladder did not converge (it will re-run next
                # cycle and at promotion); keep the log intact.
                return
            # Flush, but neither force nor log: the adopted log's lSIs
            # are the primary's.
            cache = self.system.cache
            cache.install_unexposed(flush=True)
            oldest, end = cache.dirty_table.min_rsi(), watermark + 1
            cut = end if oldest is None else min(oldest, end)
            self.system.log.truncate_before(cut, cut)
            self._materialized_through = watermark
            self._records_since_cycle = 0
            self.redo_cycles += 1
            if self.system.obs.enabled:
                self.system.obs.count("repl.redo_cycles")
                self.system.obs.observe(
                    "repl.redo_cycle_seconds", time.perf_counter() - start
                )
                self.system.obs.gauge(
                    "repl.redo_lag_records", self.redo_lag_records
                )

    # ------------------------------------------------------------------
    # promotion (apply thread, via the ``promote`` request kind)
    # ------------------------------------------------------------------
    def _promote(self, request_id: Any) -> Dict[str, Any]:
        """Fence the old epoch, converge the log, start serving."""
        if self._promoted.is_set():
            return protocol.ok_response(
                request_id,
                self.system.health.value,
                role="primary",
                epoch=self.epoch,
                watermark=self._adopted_through,
                already_promoted=True,
            )
        # Stop the stream first: nothing may be adopted at or after the
        # promotion watermark.
        self._stop_subscriber.set()
        with self._witness_lock:
            old_epoch = self.epoch
            new_epoch = self.epochs.save(self.epoch + 1)
            self.epoch = new_epoch
        self.system.obs.emit(
            "epoch.promote", old=old_epoch, new=new_epoch
        )
        # Best-effort in-band fence: an ack carrying the new epoch makes
        # a still-live primary refuse every further write with FENCED.
        # (If the primary is dead, its loss of the witness connection
        # already guarantees it can never ack — replication is
        # semi-synchronous.)
        with self._sock_lock:
            sock = self._subscriber_sock
        if sock is not None:
            try:
                self._send_to_primary(
                    sock, wire.ack_frame(self._adopted_through, new_epoch)
                )
            except (OSError, protocol.ProtocolError):
                pass
        self._halt_subscriber()
        with self._witness_lock:
            # Everything durably adopted counts, including what a redo
            # cycle already installed and truncated off the log (the
            # stable end alone reads NULL_SI right after such a cycle).
            watermark = max(
                self._adopted_through, self.system.log.stable_end_lsi()
            )
            self.system.crash()
            self._shards[0].supervise()
            if self.system.health is SystemHealth.FAILED:
                return protocol.error_response(
                    request_id,
                    "FAILED",
                    "promotion recovery did not converge",
                    self.system.health.value,
                )
            # New appends must never reuse a primary-era lSI (the
            # shipped stream had bookkeeping gaps above our stable end).
            self.system.log.reserve_lsis_through(
                max(self._primary_through, self._adopted_through)
            )
            self.system.log.append(
                EpochRecord(
                    epoch=new_epoch,
                    role="primary",
                    note=f"promoted from witness at watermark {watermark}",
                )
            )
            self.system.log.force()
            self.role = "primary"
            self._promoted.set()
        self.system.obs.emit(
            "epoch.promoted",
            epoch=new_epoch,
            watermark=watermark,
            health=self.system.health.value,
        )
        if self.system.obs.enabled:
            self.system.obs.count("repl.promotions")
        return protocol.ok_response(
            request_id,
            self.system.health.value,
            role="primary",
            epoch=new_epoch,
            watermark=watermark,
        )

    # ------------------------------------------------------------------
    # HTTP endpoint providers
    # ------------------------------------------------------------------
    def _health_payload(self) -> Tuple[int, Dict[str, Any]]:
        status, payload = super()._health_payload()
        payload.update(self.replication_status())
        return status, payload

    def _ready_payload(self) -> Tuple[int, Dict[str, Any]]:
        if self._promoted.is_set():
            return super()._ready_payload()
        _status, payload = self._health_payload()
        reasons = []
        if not self.attached:
            reasons.append("not subscribed to a primary")
        if self.lag_records > 0:
            reasons.append(
                f"{self.lag_records} records behind the primary's "
                "watermark"
            )
        if self.system.health is SystemHealth.RECOVERING:
            reasons.append("redo cycle in progress")
        payload["ready"] = not reasons
        payload["not_ready_reasons"] = reasons
        return (200 if not reasons else 503), payload
