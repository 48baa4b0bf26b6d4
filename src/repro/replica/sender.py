"""Primary-side replication: ship forced WAL records, gate the ack.

The :class:`ReplicationSender` is attached to one shard of a
:class:`~repro.serve.server.ServeDaemon` — it ships that shard's
:class:`~repro.kernel.system.RecoverableSystem` log — and owns the
primary half of the protocol in :mod:`repro.replica.wire`:

* a witness's ``repl_subscribe`` registers its connection (and durable
  watermark) here; the reply carries the primary's epoch and stable
  end, and a catch-up batch follows immediately;
* after every commit batch's WAL force, the shard's committer calls
  :meth:`replicate` once, which ships the new stable WAL frames and
  **blocks until the witness's durable watermark covers the batch's
  highest lSI** (or the deadline runs out); the daemon releases a
  reply only when :attr:`watermark` covers the lSI it waits for.
  Replication is semi-synchronous: with no witness attached, or a
  witness too slow, the batch is answered ``UNAVAILABLE`` and *not*
  acknowledged — consistency over availability, so the acked-write
  oracle holds across failover;
* the shipped-but-unacked window is pinned against checkpoint
  truncation with a log protection
  (:meth:`~repro.wal.log_manager.LogManager.add_protection`), held at
  the log's start from construction until the first subscribe and
  advanced as acks arrive — a reconnecting witness can always be caught
  up from the primary's own log;
* epoch fencing: a subscribe or ack carrying a *larger* epoch proves a
  promotion happened elsewhere — the sender marks itself fenced and
  every subsequent write is refused with ``FENCED`` (an ack from the
  old epoch must never be produced).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, TYPE_CHECKING

from repro.common.identifiers import NULL_SI, StateId
from repro.obs.tracing import TraceContext, stage
from repro.replica import wire
from repro.replica.epoch import EpochStore
from repro.serve import protocol
from repro.serve.errors import FencedError, ServerUnavailableError
from repro.wal.codec import SHIPPED_TYPES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.system import RecoverableSystem
    from repro.serve.server import _Connection


#: Maximum records per ``repl_batch`` frame (a reconnecting witness far
#: behind is caught up in chunks, not one giant frame).
MAX_BATCH_RECORDS = 512


@dataclass
class ReplicationConfig:
    """Primary-side replication policy."""

    #: Directory for the durable epoch sidecar (None = in-memory, the
    #: harness default; real daemons pass their data directory).
    epoch_root: Optional[str] = None
    #: Ceiling on the per-write wait for the witness's durable receipt
    #: (the request's own deadline applies too; the smaller wins).
    ack_timeout_s: float = 5.0
    #: Backoff hint attached to replication UNAVAILABLE rejections.
    retry_after_ms: int = 100


class ReplicationSender:
    """The primary's shipping, watermark and fencing state."""

    def __init__(
        self,
        system: "RecoverableSystem",
        config: Optional[ReplicationConfig] = None,
    ) -> None:
        self.system = system
        self.config = config if config is not None else ReplicationConfig()
        self.epochs = EpochStore(self.config.epoch_root)
        #: This primary's epoch.  Bumped only by an external promotion
        #: (observed via fencing); the primary itself never promotes.
        self.epoch = self.epochs.load()
        #: True once a higher epoch has been observed: a witness was
        #: promoted, and this primary must never ack again.
        self.fenced = False
        self._cond = threading.Condition()
        self._conn: Optional["_Connection"] = None
        #: Last lSI the attached witness has durably acknowledged.
        self._watermark: StateId = NULL_SI
        #: Stable end already announced to the witness (``through``).
        self._shipped_through: StateId = NULL_SI
        #: The truncation pin.  Until a witness says what it holds, that
        #: may be anything from the log's start: writes executed with no
        #: witness attached are logged (only their acks are refused),
        #: and an online checkpoint must not cut them off before the
        #: witness has them.
        log = system.log
        self._protection: Optional[int] = log.add_protection(
            log.stable_start_lsi()
        )

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------
    @property
    def attached(self) -> bool:
        """True while a live witness connection is registered."""
        with self._cond:
            return self._conn is not None and self._conn.alive

    @property
    def watermark(self) -> StateId:
        """The witness's durable watermark (``NULL_SI`` if never acked)."""
        with self._cond:
            return self._watermark

    def status(self) -> Dict[str, Any]:
        """Replication fields for health/readiness payloads."""
        with self._cond:
            return {
                "role": "primary",
                "epoch": self.epoch,
                "fenced": self.fenced,
                "witness_attached": (
                    self._conn is not None and self._conn.alive
                ),
                "witness_watermark": self._watermark,
                "shipped_through": self._shipped_through,
            }

    # ------------------------------------------------------------------
    # frames from the witness (reader threads)
    # ------------------------------------------------------------------
    def handle_frame(
        self, conn: "_Connection", request: Dict[str, Any]
    ) -> None:
        """Route one replication frame from a reader thread."""
        kind = request.get("kind")
        if kind == wire.KIND_SUBSCRIBE:
            self._handle_subscribe(conn, request)
        elif kind == wire.KIND_ACK:
            self._handle_ack(conn, request)

    def _handle_subscribe(
        self, conn: "_Connection", request: Dict[str, Any]
    ) -> None:
        request_id = request.get("id")
        health = self.system.health.value
        try:
            wire.check_protocol(request, "witness")
            watermark = int(request.get("watermark", NULL_SI))
            peer_epoch = int(request.get("epoch", self.epoch))
        except (TypeError, ValueError, protocol.ProtocolError) as exc:
            conn.send(
                protocol.error_response(
                    request_id, "BAD_REQUEST",
                    f"bad subscribe frame: {exc}", health,
                )
            )
            return
        log = self.system.log
        previous: Optional["_Connection"] = None
        with self._cond:
            if peer_epoch > self.epoch:
                # The subscriber outranks us: a promotion happened while
                # we were partitioned.  Fence forever; never ack again.
                self._fence_locked(peer_epoch)
                conn.send(
                    protocol.error_response(
                        request_id,
                        "FENCED",
                        f"subscriber epoch {peer_epoch} outranks "
                        f"primary epoch {self.epoch}; primary is fenced",
                        health,
                    )
                )
                return
            if self.fenced:
                conn.send(
                    protocol.error_response(
                        request_id,
                        "FENCED",
                        "primary is fenced; a newer epoch is serving",
                        health,
                    )
                )
                return
            previous, self._conn = self._conn, conn
            self._watermark = watermark
            self._shipped_through = watermark
            # Pin everything the witness does not yet hold: checkpoint
            # truncation must not outrun the shipping stream.
            self._repin_locked(watermark)
            conn.send(
                protocol.ok_response(
                    request_id,
                    health,
                    epoch=self.epoch,
                    through=log.stable_end_lsi(),
                )
            )
            self._ship_locked()
            self._cond.notify_all()
        if previous is not None and previous is not conn:
            previous.close()
        if self.system.obs.enabled:
            self.system.obs.count("repl.subscribes")

    def _handle_ack(
        self, conn: "_Connection", request: Dict[str, Any]
    ) -> None:
        try:
            watermark = int(request.get("watermark", NULL_SI))
            peer_epoch = int(request.get("epoch", self.epoch))
        except (TypeError, ValueError):
            return
        with self._cond:
            if peer_epoch > self.epoch:
                self._fence_locked(peer_epoch)
                return
            if conn is not self._conn:
                return  # a superseded connection's straggler
            if watermark > self._watermark:
                self._watermark = watermark
                self._repin_locked(watermark)
            unacked = max(0, self._shipped_through - self._watermark)
            self._cond.notify_all()
        obs = self.system.obs
        if obs.enabled:
            obs.gauge("repl.witness_watermark", watermark)
            obs.gauge("repl.unacked_records", unacked)

    def _repin_locked(self, watermark: StateId) -> None:
        """Move the truncation pin to just past ``watermark``.  The new
        pin goes in before the old one comes out: an online checkpoint
        on the apply thread may truncate in between."""
        log = self.system.log
        previous = self._protection
        self._protection = log.add_protection(watermark + 1)
        if previous is not None:
            log.remove_protection(previous)

    def detach(self, conn: "_Connection") -> None:
        """A registered witness connection died (reader loop exited)."""
        with self._cond:
            if conn is self._conn:
                self._conn = None
                self._cond.notify_all()

    def _fence_locked(self, peer_epoch: int) -> None:
        self.fenced = True
        self.epochs.save(peer_epoch)
        if self._conn is not None:
            self._conn = None
        self._cond.notify_all()
        obs = self.system.obs
        if obs.enabled:
            obs.count("repl.fenced")
        obs.emit("epoch.fenced", old=self.epoch, new=peer_epoch)

    # ------------------------------------------------------------------
    # shipping (the shard's committer thread)
    # ------------------------------------------------------------------
    def replicate(
        self,
        lsi: StateId,
        deadline: Optional[float] = None,
        trace: Optional[TraceContext] = None,
    ) -> None:
        """Block until the witness durably holds ``lsi``; raise otherwise.

        Called by the committer after the local WAL force, before the
        batch's acks.  Raises :class:`FencedError` if this primary has
        been fenced, :class:`ServerUnavailableError` (retryable) when
        no witness is attached or the receipt does not arrive in time.

        ``trace`` is the trace context of one request the wait serves:
        the batch that ships this lSI carries it on the wire, so the
        witness's adopt and durable-ack spans join that request's tree.
        """
        timeout_at = time.monotonic() + self.config.ack_timeout_s
        if deadline is not None:
            timeout_at = min(timeout_at, deadline)
        with self._cond:
            self._ship_locked(trace=trace)
            while True:
                if self.fenced:
                    raise FencedError(
                        f"primary epoch {self.epoch} is fenced; a "
                        "promoted witness is serving"
                    )
                if self._watermark >= lsi:
                    return
                if self._conn is None or not self._conn.alive:
                    raise ServerUnavailableError(
                        "write executed but not acknowledged: no witness "
                        "attached to replicate it",
                        retry_after_ms=self.config.retry_after_ms,
                    )
                remaining = timeout_at - time.monotonic()
                if remaining <= 0:
                    raise ServerUnavailableError(
                        "write executed but not acknowledged: witness "
                        f"receipt for lSI {lsi} did not arrive in time "
                        f"(witness watermark {self._watermark})",
                        retry_after_ms=self.config.retry_after_ms,
                    )
                self._cond.wait(min(remaining, 0.05))
                self._ship_locked(trace=trace)

    def ship_checkpoint_hint(self) -> None:
        """Push current stable records with the checkpoint flag set."""
        with self._cond:
            self._ship_locked(checkpoint=True)

    def _ship_locked(
        self,
        checkpoint: bool = False,
        trace: Optional[TraceContext] = None,
    ) -> None:
        """Push stable records past ``_shipped_through`` (lock held)."""
        conn = self._conn
        if conn is None or not conn.alive or self.fenced:
            return
        log = self.system.log
        through = log.stable_end_lsi()
        if through <= self._shipped_through and not checkpoint:
            return
        # Shipped as they lie in the log: no record is decoded here.
        frames = log.stable_frames(self._shipped_through + 1)
        shipped = [
            (lsi, frame) for lsi, code, frame in frames
            if code in SHIPPED_TYPES
        ]
        obs = self.system.obs
        ship_ctx = trace.child() if trace is not None else None
        wire_trace = ship_ctx.to_wire() if ship_ctx is not None else None
        with stage(obs, "repl.ship_ms", ship_ctx):
            while len(shipped) > MAX_BATCH_RECORDS:
                chunk = shipped[:MAX_BATCH_RECORDS]
                shipped = shipped[MAX_BATCH_RECORDS:]
                conn.send(
                    wire.batch_frame(
                        self.epoch, chunk[-1][0], [f for _, f in chunk],
                        trace=wire_trace,
                    )
                )
            conn.send(
                wire.batch_frame(
                    self.epoch, through, [f for _, f in shipped], checkpoint,
                    trace=wire_trace,
                )
            )
        self._shipped_through = through
        if obs.enabled:
            obs.count("repl.batches")
            obs.gauge("repl.shipped_through", through)
            obs.gauge(
                "repl.unacked_records",
                max(0, self._shipped_through - self._watermark),
            )

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the truncation pin and drop the witness connection."""
        with self._cond:
            if self._protection is not None:
                self.system.log.remove_protection(self._protection)
                self._protection = None
            self._conn = None
            self._cond.notify_all()
