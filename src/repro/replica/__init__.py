"""Primary/witness replication: logical WAL shipping over the serve wire.

The package extends one recovery domain to a *pair* of them: a primary
:class:`~repro.serve.server.ServeDaemon` ships its forced WAL suffix
(operation, fence, and epoch records — the logical log, never the
primary's private bookkeeping) to a :class:`WitnessDaemon` that adopts
the records into its own WAL at the primary's lSIs and continuously
redoes them through the real recovery path.  Acks to clients are gated
on the witness's durable receipt (semi-synchronous shipping), so every
acknowledged write survives the loss of either machine; an epoch
sidecar (:class:`EpochStore`) plus in-band fencing keeps a deposed
primary from acknowledging writes after its witness was promoted.

Layout:

* :mod:`repro.replica.wire` — frame builders/parsers for the three
  replication frames (``repl_subscribe``/``repl_batch``/``repl_ack``)
  and the shippable-record filter;
* :mod:`repro.replica.epoch` — the durable, monotone epoch sidecar;
* :mod:`repro.replica.sender` — the primary-side
  :class:`ReplicationSender` (subscriber registry, watermark tracking,
  truncation protection, the ack-gated ``replicate`` call);
* :mod:`repro.replica.witness` — :class:`WitnessDaemon`, a ServeDaemon
  subclass that subscribes, adopts, redoes, answers probes, and
  promotes to primary on operator request.

Torture v5 — seeded primary kills and zombie-primary lanes over a real
TCP pair, audited with the exactly-once acked-write oracle — is the
replicated row of :data:`repro.livefire.SCENARIOS`.
"""

from repro._exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".epoch": ("INITIAL_EPOCH", "EpochStore"),
    ".sender": ("ReplicationConfig", "ReplicationSender"),
    ".witness": ("WitnessConfig", "WitnessDaemon"),
})
