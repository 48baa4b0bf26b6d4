"""The serving layer: an operable daemon over N recovery domains.

``repro.serve`` turns the kernel + escalation-ladder machinery into a
long-running process with an operator's contract:

* :class:`ServeDaemon` — the one serving core: supervised startup,
  per-shard health-gated admission, one single-writer apply loop per
  shard with force-before-ack durability, deadlines and backpressure,
  graceful (SIGTERM) and abrupt (SIGKILL-model) shutdown, and a
  ``/metrics`` + ``/healthz`` scrape endpoint.  Each shard runs its
  own escalation ladder (before the listener opens, on revive, after a
  mid-serve crash) under the budget of ``DaemonConfig.supervisor``.
  Given one :class:`~repro.kernel.system.RecoverableSystem` it is the
  single-kernel server; given a :class:`~repro.shard.ShardedSystem` it
  serves N shards through the same code;
* :class:`DaemonClient` / :class:`RetryPolicy` — the client library:
  jittered exponential backoff that honors server ``retry_after_ms``
  hints under an overall elapsed deadline budget;
* :mod:`repro.serve.protocol` — the length-prefixed JSON framing;
* :mod:`repro.serve.errors` — the typed rejections clients catch.

Sharded serving (``python -m repro serve --shards N``) fronts N
independent recovery domains with one apply thread, WAL stream, health
gate and recovery ladder per shard, a fence-protocol rendezvous for
cross-shard operations, and chaos endpoints that kill and revive one
shard while the others keep serving.

Replication (:mod:`repro.replica`, ``--replicate`` /
``--witness-of``) pairs a primary with a witness that adopts and
continuously redoes its shipped WAL; client acks wait for the
witness's durable receipt, promotion is epoch-fenced and
operator-driven, and :class:`DaemonClient` takes ``failover`` targets
so applications ride through the switch.

The live-fire torture harness that kills all of the above under client
load and audits every acknowledged write lives above this package, in
:mod:`repro.livefire` (``python -m repro torture v3|v4|v5``).
"""

from repro._exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".client": ("RETRYABLE_CODES", "DaemonClient", "RetryPolicy"),
    ".errors": (
        "BackpressureError", "BadRequestError", "DeadlineExceededError",
        "FencedError", "ProtocolError", "ServeError", "ServerFailedError",
        "ServerUnavailableError", "ShuttingDownError",
    ),
    ".server": ("WRITE_KINDS", "DaemonConfig", "ServeDaemon"),
})
