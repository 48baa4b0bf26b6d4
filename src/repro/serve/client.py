"""Daemon client: framing, typed errors, retry with jittered backoff.

``DaemonClient`` speaks :mod:`repro.serve.protocol` to one daemon and
turns structured rejections into the exceptions of
:mod:`repro.serve.errors`.  Its retry loop is deliberately the same
shape as the kernel's (:func:`repro.common.retry.backoff_delay` with
full jitter under a ceiling) plus two serving-specific rules:

* **server hints win** — a rejection carrying ``retry_after_ms`` is
  backed off by at least that long (the server knows how jammed its
  queue is; the client's exponential schedule is only a floor);
* **hints are scoped to their shard** — a sharded daemon labels
  rejections with the recovery domain they came from, and the client
  keeps one backoff floor *per shard* (plus the object→shard map it
  learns from responses).  One jammed shard slows requests routed to
  that shard only; traffic to the other shards proceeds at full speed.
  Shard-less rejections (a single-kernel daemon, or a whole-daemon
  condition like draining) keep the legacy whole-client behavior;
* **deadlines are an overall budget** — ``RetryPolicy.deadline``
  caps *total elapsed time* across connects, sends, and backoff
  sleeps, mirroring the elapsed-budget cap ``retry_transient`` grew
  for exactly this reason: a retried request must never outlive the
  deadline its caller was promised.  When the budget runs out the
  client raises :class:`~repro.serve.errors.DeadlineExceededError`
  carrying the last server answer.

Transport failures (connection refused mid-restart, a connection that
dies when the daemon is SIGKILLed) are retried under the same policy —
every serving operation is either idempotent (get/put/delete re-apply
the same value) or replay-safe by the durability contract, so
at-least-once delivery over retries composes with the server's
force-before-ack into the exactly-once visibility the torture lane
checks.  Two transport rules refine the loop:

* **a stale connection gets one free retry** — when a *reused* socket
  dies mid-request (connection reset because the daemon drained and
  closed idle connections during a graceful SIGTERM, say), the failure
  tells us nothing about the server's current state.  The client
  reconnects and retries immediately without burning an attempt or
  backing off; only failures on a *fresh* connection (refused,
  reset during the very round-trip that opened it) count against the
  attempt budget.  This is bounded: the free retry always runs on a
  fresh connection, so at most one free retry precedes every counted
  attempt;
* **failover targets** — a client constructed with ``failover``
  addresses rotates to the next target on fresh-connection transport
  failures, on ``FENCED`` rejections (the server took itself out of
  service because a newer epoch exists — retrying *that* server can
  never help, but the promoted peer is usually the next target), and
  on whole-server ``UNAVAILABLE``/``SHUTTING_DOWN`` rejections (the
  peer may be serving).  Rotation preserves the attempt budget; with a
  single target a ``FENCED`` rejection raises immediately.

Clock and sleep are injectable so tests drive the policy without real
time passing.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import DegradedModeError
from repro.common.retry import DEFAULT_MAX_DELAY, backoff_delay
from repro.obs.metrics import NULL_OBS
from repro.obs.tracing import TraceContext
from repro.serve import protocol
from repro.serve.errors import (
    BackpressureError,
    BadRequestError,
    DeadlineExceededError,
    FencedError,
    ProtocolError,
    ServeError,
    ServerFailedError,
    ServerUnavailableError,
    ShuttingDownError,
)

#: Rejection codes the retry loop may answer with another attempt.
RETRYABLE_CODES = frozenset({"BACKPRESSURE", "UNAVAILABLE", "SHUTTING_DOWN"})

_CODE_TO_ERROR = {
    "PROTOCOL": ProtocolError,
    "BAD_REQUEST": BadRequestError,
    "BACKPRESSURE": BackpressureError,
    "DEADLINE": DeadlineExceededError,
    "UNAVAILABLE": ServerUnavailableError,
    "SHUTTING_DOWN": ShuttingDownError,
    "FENCED": FencedError,
    "FAILED": ServerFailedError,
}


@dataclass
class RetryPolicy:
    """How hard the client tries before giving up."""

    #: Total attempts (first try included).
    attempts: int = 8
    base_delay: float = 0.02
    max_delay: float = DEFAULT_MAX_DELAY
    #: Jitter fraction in [0, 1]; 1.0 = AWS-style full jitter.
    jitter: float = 1.0
    #: Overall elapsed budget in seconds (None = attempts budget only).
    deadline: Optional[float] = None
    #: Injectable time sources (tests pass stubs; nothing sleeps).
    sleep: Callable[[float], None] = time.sleep
    clock: Callable[[], float] = time.monotonic
    rng: Optional[random.Random] = None


class DaemonClient:
    """A retrying client for one :class:`~repro.serve.server.ServeDaemon`."""

    def __init__(
        self,
        host: str,
        port: int,
        policy: Optional[RetryPolicy] = None,
        deadline_ms: Optional[int] = None,
        connect_timeout: float = 5.0,
        failover: Optional[List[Tuple[str, int]]] = None,
        obs: Optional[Any] = None,
    ) -> None:
        self.host = host
        self.port = port
        #: Client-side observability.  With a real registry attached the
        #: client mints a trace per request, sends it on the wire, and
        #: records the root ``client.<kind>`` span; with the default
        #: NULL_OBS nothing is minted and requests carry no trace field.
        self.obs = obs if obs is not None else NULL_OBS
        #: Trace id of the most recent traced request (None untraced).
        self.last_trace: Optional[str] = None
        #: Ordered connect targets: the primary address first, then any
        #: failover addresses.  ``host``/``port`` always reflect the
        #: *current* target.
        self._targets: List[Tuple[str, int]] = [(host, port)]
        self._targets.extend((h, p) for h, p in (failover or []))
        self._target_index = 0
        self.policy = policy if policy is not None else RetryPolicy()
        #: Per-request deadline hint forwarded to the server (ms);
        #: ``None`` lets the server apply its configured default.
        self.deadline_ms = deadline_ms
        self.connect_timeout = connect_timeout
        self._sock: Optional[socket.socket] = None
        self._next_id = 0
        #: Responses the server acknowledged (``ok: true``) for write
        #: kinds, kept for harness-side durability auditing.
        self.acked: List[Dict[str, Any]] = []
        #: Per-shard backoff floors (monotonic deadlines) learned from
        #: shard-labeled retry hints; see the module docstring.
        self._shard_floors: Dict[int, float] = {}
        #: Object→shard map learned from shard-labeled responses.
        self._obj_shards: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    def _connect(self) -> socket.socket:
        if self._sock is not None:
            return self._sock
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        sock.settimeout(self.connect_timeout)
        protocol.disable_nagle(sock)
        self._sock = sock
        return sock

    def _disconnect(self) -> None:
        if self._sock is None:
            return
        try:
            self._sock.close()
        except OSError:
            pass
        self._sock = None

    def _rotate(self) -> bool:
        """Advance to the next failover target; False with only one."""
        if len(self._targets) <= 1:
            return False
        self._disconnect()
        self._target_index = (self._target_index + 1) % len(self._targets)
        self.host, self.port = self._targets[self._target_index]
        return True

    def close(self) -> None:
        """Drop the connection (idempotent)."""
        self._disconnect()

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the retry loop
    # ------------------------------------------------------------------
    def request(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Send one request, retrying per policy; returns the response.

        Raises the typed serve error for terminal rejections, and
        :class:`DeadlineExceededError` when the overall budget runs out
        while the condition was still retryable.
        """
        if not self.obs.enabled:
            return self._request(kind, None, **fields)
        # Root of the distributed trace: the span covers the full retry
        # loop, so its duration is the latency the caller experienced.
        trace = TraceContext.mint()
        self.last_trace = trace.trace_id
        with self.obs.span("client." + kind, **trace.tags()):
            return self._request(kind, trace, **fields)

    def _request(
        self, kind: str, trace: Optional[TraceContext], **fields: Any
    ) -> Dict[str, Any]:
        policy = self.policy
        start = policy.clock()
        self._next_id += 1
        message: Dict[str, Any] = {"id": self._next_id, "kind": kind}
        if self.deadline_ms is not None and "deadline_ms" not in fields:
            message["deadline_ms"] = self.deadline_ms
        if trace is not None:
            message[protocol.TRACE_FIELD] = trace.to_wire()
        message.update(fields)
        obj = fields.get("obj") if isinstance(fields.get("obj"), str) else None
        last_error: Optional[Exception] = None
        out_of_budget = False
        attempt = 0
        while attempt < policy.attempts:
            if self._out_of_budget(start):
                out_of_budget = True
                break
            self._await_shard_floor(obj, start)
            if self._out_of_budget(start):
                out_of_budget = True
                break
            reused = self._sock is not None
            try:
                response = self._round_trip(message)
            except (OSError, ProtocolError) as exc:
                # Transport failure: the daemon restarted, was killed,
                # or the stream desynced.  Reconnect and retry.
                self._disconnect()
                last_error = exc
                if reused:
                    # A reused connection can die for reasons that
                    # predate this request (the server drained and
                    # closed the idle socket during graceful shutdown):
                    # retry once on a fresh connection, free of charge.
                    continue
                self._rotate()
                attempt += 1
                if not self._pause(attempt - 1, start, None):
                    break
                continue
            shard = response.get("shard")
            if obj is not None and isinstance(shard, int):
                self._obj_shards[obj] = shard
            if response.get("ok"):
                if isinstance(shard, int):
                    self._shard_floors.pop(shard, None)
                if kind in ("put", "delete", "apply"):
                    self.acked.append(dict(response))
                return response
            error = response.get("error") or {}
            code = error.get("code", "INTERNAL")
            retry_after_ms = error.get("retry_after_ms")
            exc = self._as_exception(code, error.get("message", ""),
                                     retry_after_ms)
            if code == "FENCED" and self._rotate():
                # This server stood down for a newer epoch; try the
                # next target (usually the promoted witness).
                last_error = exc
                attempt += 1
                if not self._pause(attempt - 1, start, None):
                    break
                continue
            if code not in RETRYABLE_CODES:
                raise exc
            last_error = exc
            if code in ("UNAVAILABLE", "SHUTTING_DOWN"):
                # Whole-server conditions: the peer target (a promoted
                # witness, or the primary a witness still defers to)
                # may serve right now.  BACKPRESSURE stays put — it is
                # transient load, not a role problem.
                self._rotate()
            if isinstance(shard, int) and retry_after_ms is not None:
                # Shard-scoped hint: raise that shard's floor only.
                # The floor gate above makes *this* request (which is
                # bound for the same shard) honor it, while concurrent
                # requests to other shards back off on the exponential
                # schedule alone.
                self._shard_floors[shard] = max(
                    self._shard_floors.get(shard, 0.0),
                    policy.clock() + retry_after_ms / 1000.0,
                )
                retry_after_ms = None
            attempt += 1
            if not self._pause(attempt - 1, start, retry_after_ms):
                break
        # Budget exhaustion is a deadline condition; attempts exhaustion
        # re-raises the (typed, retryable) condition that kept failing.
        if out_of_budget or self._out_of_budget(start):
            raise DeadlineExceededError(
                f"request {kind!r} gave up after "
                f"{policy.clock() - start:.3f}s (deadline "
                f"{policy.deadline}s); last error: {last_error}"
            )
        if isinstance(last_error, ServeError):
            raise last_error
        raise ServerUnavailableError(
            f"request {kind!r} failed {policy.attempts} transport "
            f"attempts; last error: {last_error}"
        )

    def _round_trip(self, message: Dict[str, Any]) -> Dict[str, Any]:
        sock = self._connect()
        protocol.send_frame(sock, message)
        response = protocol.recv_frame(sock)
        if response is None:
            raise ProtocolError("server closed the connection mid-request")
        return response

    def _await_shard_floor(self, obj: Optional[str], start: float) -> None:
        """Sleep out the target shard's backoff floor, if one is set.

        Only object-routed requests gate here (their shard is known
        from the learned map); the wait is capped by the remaining
        deadline budget so a long hint cannot push a request past the
        deadline its caller was promised.
        """
        if obj is None:
            return
        shard = self._obj_shards.get(obj)
        if shard is None:
            return
        floor = self._shard_floors.get(shard)
        if floor is None:
            return
        policy = self.policy
        now = policy.clock()
        wait = floor - now
        if wait <= 0.0:
            self._shard_floors.pop(shard, None)
            return
        if policy.deadline is not None:
            remaining = policy.deadline - (now - start)
            wait = min(wait, max(0.0, remaining))
        if wait > 0.0:
            policy.sleep(wait)

    def _out_of_budget(self, start: float) -> bool:
        policy = self.policy
        return (
            policy.deadline is not None
            and policy.clock() - start >= policy.deadline
        )

    def _pause(
        self,
        attempt: int,
        start: float,
        retry_after_ms: Optional[int],
    ) -> bool:
        """Back off before the next attempt; False = budget exhausted."""
        policy = self.policy
        if attempt >= policy.attempts - 1:
            return False
        delay = backoff_delay(
            attempt,
            base_delay=policy.base_delay,
            max_delay=policy.max_delay,
            jitter=policy.jitter,
            rng=policy.rng,
        )
        if retry_after_ms is not None:
            # The server's hint is a floor, not a suggestion to ignore.
            delay = max(delay, retry_after_ms / 1000.0)
        if policy.deadline is not None:
            remaining = policy.deadline - (policy.clock() - start)
            if remaining <= 0.0:
                return False
            if delay >= remaining:
                # Spend what is left, then let the final attempt (or
                # the budget check) decide.
                delay = remaining
        if delay > 0.0:
            policy.sleep(delay)
        return True

    @staticmethod
    def _as_exception(
        code: str, message: str, retry_after_ms: Optional[int]
    ) -> Exception:
        if code == "DEGRADED":
            return DegradedModeError(message)
        cls = _CODE_TO_ERROR.get(code, ServeError)
        return cls(message, retry_after_ms=retry_after_ms)

    # ------------------------------------------------------------------
    # convenience verbs
    # ------------------------------------------------------------------
    def ping(self) -> Dict[str, Any]:
        return self.request("ping")

    def health(self) -> Dict[str, Any]:
        return self.request("health")

    def stats(self) -> Dict[str, Any]:
        return self.request("stats")["stats"]

    def get(self, obj: str) -> Tuple[Any, int]:
        """Read ``obj``; returns ``(value, vsi)``."""
        response = self.request("get", obj=obj)
        return protocol.decode_value(response.get("value")), response["vsi"]

    def put(self, obj: str, value: Any, **fields: Any) -> int:
        """Durably write ``obj``; returns the record's lSI."""
        response = self.request(
            "put", obj=obj, value=protocol.encode_value(value), **fields
        )
        return response["lsi"]

    def delete(self, obj: str, **fields: Any) -> int:
        """Durably delete ``obj``; returns the record's lSI."""
        return self.request("delete", obj=obj, **fields)["lsi"]

    def apply(
        self,
        fn: str,
        reads: Any,
        writes: Any,
        params: Any = (),
        name: Optional[str] = None,
        **fields: Any,
    ) -> Dict[str, Any]:
        """Submit a logical operation; returns the full response."""
        return self.request(
            "apply",
            fn=fn,
            reads=sorted(reads),
            writes=sorted(writes),
            params=[protocol.encode_value(p) for p in params],
            name=name,
            **fields,
        )
