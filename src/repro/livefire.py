"""Live-fire torture (v3, v4, v5): client workloads against real daemons.

The library campaigns (:mod:`repro.kernel.torture`) crash a system
object the harness owns.  Live fire tortures the **daemon**: concurrent
clients drive requests over real sockets at a
:class:`~repro.serve.server.ServeDaemon` while seeded fault models
misfire the storage underneath; at a seeded ack count the scenario's
fault is injected; the topology is healed; and the run is judged
against the serving layer's one promise:

    **every client-acknowledged write is durable, exactly once** — after
    recovery each object's vSI is at least the highest lSI any daemon
    ever acked for it, a vSI equal to that lSI carries that ack's value,
    and the recovered value is the last acked one or one the client sent
    after it (the unacked tail, which at-least-once delivery may land).

Retries make delivery at-least-once, but ``put`` writes a specific value
and the daemon acks only after the WAL force (**force-before-ack**), so
replayed duplicates are idempotent and an ack is never rolled back.

One harness (:class:`LiveFireHarness`), one client log (:class:`ClientLog`
of :class:`Ack` records), one client worker, and checks that are plain
functions over an :class:`Evidence`; a scenario is a row of
:data:`SCENARIOS` — a topology (shards × store backend × replicated), a
fault, and the checks that judge it:

* **v3** kills one daemon mid-workload (``kill()`` models SIGKILL) and
  audits a fresh one started over the debris; the same row also runs at
  a real ``python -m repro serve`` process killed by a real ``SIGKILL``
  or drained by ``SIGTERM`` (:meth:`LiveFireHarness.subprocess_run`).
  **v3-rewrite** rewrites two objects per client twenty times, so kills
  and the drain's checkpoint land after zero-I/O installs.
  **v3-checkpoint** puts 8 KiB values on honest devices, so the daemon
  crosses online checkpoints that really truncate its log; a seeded
  crash lands at a seeded device step *inside* one (between its
  installs' store writes, or just before its truncation), the daemon
  recovers from what that left and is then killed and restarted.
* **v4** kills one seeded shard's worker in place; sentinel puts to
  every *surviving* shard must be acked during the outage, then the
  victim is revived and every ack audited.  The fence audit must show no
  conflicting fence; **partial fences are legal** (the ack force covers
  every participant, so a strict-subset fence is a never-acked remainder).
* **v5** kills (or, in the *zombie* lane, leaves alive) the primary of a
  primary/witness pair and promotes the witness, where the audit runs:
  shipping is **semi-synchronous**, so no ack names state the witness
  lacks.  No ack may carry the deposed epoch above the promotion
  watermark — the in-band fence makes a zombie refuse (``FENCED`` or
  ``UNAVAILABLE``; an *ack* is split brain).

**The verdict is never faulted**: every fault model is disarmed before
the healing recovery and the read-back.  A live read-your-writes
violation (each object has one writer) fails a run in every scenario.
:func:`plan` is the pure, seed-determined part of a run, so a failing
seed replays the same scenario shape.
"""

from __future__ import annotations

import enum
import itertools
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, NamedTuple
from typing import Optional, Sequence, Tuple, Union

from repro.common.errors import DegradedModeError
from repro.common.identifiers import NULL_SI
from repro.common.rng import make_rng
from repro.kernel.backup_manager import BackupManager
from repro.kernel.supervisor import SupervisorConfig
from repro.kernel.torture import Outcome, TortureReport, scratch_root
from repro.obs.metrics import MetricsRegistry
from repro.replica.sender import ReplicationConfig
from repro.replica.witness import WitnessConfig
from repro.serve import protocol
from repro.serve.client import DaemonClient, RetryPolicy
from repro.serve.errors import ServeError
from repro.serve.server import DaemonConfig, ServeDaemon
from repro.shard.group import FenceAudit
from repro.shard.router import ShardRouter
from repro.storage.faults import FaultCrash, FaultModel, FuzzRates
from repro.storage.registry import check_backend
from repro.topology import build_daemon, build_systems

#: A request that ended without an ack: rejected, or lost in flight.  The
#: oracle decides whether it landed anyway (at-least-once is fine).
REFUSED = (ServeError, DegradedModeError, OSError)
#: Stands in ``ClientLog.sent_values`` for a cross-shard derive until its
#: ack tells what it wrote; if refused it may have landed all the same.
DERIVED = object()

# One value each was ever in use; these are not configuration.
KILL_WAIT_S = 30.0  # cap on waiting for the seeded ack count
SENTINELS_PER_SURVIVOR = 2  # outage puts per surviving shard
ATTACH_TIMEOUT_S = 10.0  # cap on the witness's first subscription
ZOMBIE_PROBE_WRITES = 3  # writes driven at a deposed, living primary
PROCESS_TIMEOUT_S = 30.0  # a real process coming up / going down
TRUNCATION_STEP = 3  # kill steps 0-2 are store writes, this one truncation
#: Every in-process daemon: a small admission bound (backpressure should
#: fire) and a generous ladder budget for mid-serve recoveries.
DAEMON = DaemonConfig(
    port=0,
    http_port=None,
    max_queue=16,
    retry_after_ms=5,
    supervisor=SupervisorConfig(max_attempts=24),
)
#: The pair: a short cap on one witness receipt, and a redo cadence
#: small enough that redo cycles interleave with the load.
REPLICATION = ReplicationConfig(ack_timeout_s=2.0, retry_after_ms=5)
WITNESS = WitnessConfig(redo_every_records=8, reconnect_delay_s=0.02)


class Fault(enum.Enum):
    """What is killed at the seeded ack count."""

    #: The daemon the clients talk to.  Standalone it is restarted over
    #: its debris; in a replicated topology the witness is promoted
    #: instead, and a seeded share of runs leaves the primary alive.
    KILL_DAEMON = "kill daemon"
    #: One seeded shard's worker, in place; it is revived afterwards.
    KILL_SHARD = "kill one shard"
    #: The daemon, once a seeded device step inside a seeded online
    #: checkpoint has crashed it; it is restarted over its debris.
    KILL_IN_CHECKPOINT = "kill inside an online checkpoint"


@dataclass
class LiveFireConfig:
    """Workload shape, fault rates and topology axes of a campaign
    (defaults differ per scenario: :meth:`Scenario.config`)."""

    #: Concurrent client threads; each owns a disjoint object set, so
    #: per-object write order is total and read-your-writes checkable.
    clients: int = 3
    #: Sequential requests per client, cycling over this many objects.
    requests_per_client: int = 12
    objects_per_client: int = 3
    #: Probability an acked put is followed by a get that must return it.
    p_get: float = 0.25
    #: Probability a request is a cross-shard derive instead of a put
    #: (only where the client's objects actually span shards).
    p_cross: float = 0.2
    #: Fuzz rates armed on every shard's store and log (None = honest
    #: devices).  The models stay armed through mid-serve
    #: recoveries, so these faults also hit recovery's own I/O.
    rates: Optional[FuzzRates] = None
    #: Share of replicated runs that leave the primary alive (a zombie)
    #: through the promotion instead of killing it.
    zombie_ratio: float = 0.2
    shards: int = 1
    #: Stable-store backend ("memory", "file", "logstore"); a durable
    #: one gets a per-run directory under ``store_root`` (default: a
    #: temp directory).  The harness removes what it creates.
    store_backend: str = "memory"
    store_root: Optional[str] = None


class Ack(NamedTuple):
    """The client log record: one acknowledged write."""

    obj: str
    value: Any
    #: The ack's lSI (None for a cross-shard ack, which spans logs).
    lsi: Optional[int]
    #: The acking daemon's replication epoch (None when standalone).
    epoch: Optional[int]
    #: ``time.monotonic()`` when the ack reached the client.
    t_ack: float


@dataclass
class ClientLog:
    """What one client sent and what the daemons acked, in order."""

    #: obj -> every value sent for it, acked or not, in send order.
    sent_values: Dict[str, List[Any]] = field(default_factory=dict)
    acks: List[Ack] = field(default_factory=list)
    sent: int = 0
    #: Live read-your-writes violations; any one fails the run.
    violations: List[str] = field(default_factory=list)

    def write(
        self, obj: str, value: Any, send: Callable[[], Dict[str, Any]]
    ) -> bool:
        """Log one write of ``value`` to ``obj`` and, unless ``send``
        is refused, its ack.  A :data:`DERIVED` value is read off the
        ack, which then carries no single lSI."""
        sent = self.sent_values.setdefault(obj, [])
        sent.append(value)
        self.sent += 1
        try:
            response = send()
        except REFUSED:
            return False
        if value is DERIVED:
            value = sent[-1] = protocol.decode_value(response["writes"][obj])
        self.acks.append(Ack(
            obj, value, response.get("lsi"), response.get("epoch"),
            time.monotonic(),
        ))
        return True

    def put(self, client: DaemonClient, obj: str, value: Any) -> bool:
        return self.write(obj, value, lambda: client.request(
            "put", obj=obj, value=protocol.encode_value(value)
        ))


@dataclass
class LiveFireOutcome(Outcome):
    """One fault-heal-verify run against a live topology."""

    #: "kill" or "zombie" (replicated); "sigkill"/"sigterm" (subprocess).
    lane: str = "kill"
    victim: Optional[int] = None
    #: Requests attempted and acknowledged (the rest were refused or
    #: lost in flight), and the cross-shard ones among the acked.
    sent: int = 0
    acked: int = 0
    cross_acked: int = 0
    #: Sentinel acks on surviving shards *during* the victim's outage —
    #: the partial-availability evidence.
    survivor_acks_during_outage: int = 0
    #: Mid-serve watchdog restarts, and faults the models injected.
    restarts: int = 0
    faults_injected: int = 0
    fences_complete: int = 0
    fences_partial: int = 0
    fences_conflicting: int = 0
    #: Did the witness end the run promoted, HEALTHY and serving?
    promoted: bool = False
    #: Seconds from the fault to the promote ack, and the redo cycles
    #: the witness completed during the run.
    failover_seconds: float = 0.0
    redo_cycles: int = 0
    #: Acks carrying the deposed epoch above the promotion watermark —
    #: writes the promoted state cannot contain.  Must be 0.
    old_epoch_acks: int = 0
    #: Acked writes found missing or stale after recovery.  The whole
    #: point of a campaign is that this list stays empty.
    losses: List[str] = field(default_factory=list)

    def details(self) -> List[str]:
        return [f"lost: {loss}" for loss in self.losses]


# ----------------------------------------------------------------------
# the checks: plain functions over the evidence of one healed run
# ----------------------------------------------------------------------
@dataclass
class Evidence:
    """What a healed run hands its checks."""

    logs: Sequence[ClientLog]
    #: ``obj -> (value, vsi)`` against the healed topology.
    read_back: Callable[[str], Tuple[Any, Optional[int]]]
    #: ``(obj, value) -> lsi`` against the healed topology.
    write: Optional[Callable[[str, Any], int]] = None
    #: The fence audit of the topology's stable logs.
    fences: Optional[FenceAudit] = None
    #: What the promote ack said, and ``time.monotonic()`` on arrival.
    promoted_epoch: int = 0
    watermark: int = 0
    promote_time: float = 0.0
    seed: int = 0
    #: Where the killed log started when a kill landed inside an online
    #: checkpoint (None: no kill did).
    log_start_at_kill: Optional[int] = None


#: A check fills its counters on the outcome and fails it on a breach.
Check = Callable[[Evidence, LiveFireOutcome], None]


def acked_writes(evidence: Evidence, outcome: LiveFireOutcome) -> None:
    """The oracle: every acked write is visible, exactly once.

    Per object (one writer each): the recovered vSI is at least the
    highest acked lSI; a vSI equal to it carries that ack's value; and
    the recovered value is the last acked value or one sent after it.
    An earlier value, or one never sent, is a rolled-back ack.
    """
    for log in evidence.logs:
        by_obj: Dict[str, List[Ack]] = {}
        for ack in log.acks:
            by_obj.setdefault(ack.obj, []).append(ack)
        for obj, acks in by_obj.items():
            last = acks[-1].value
            top = max(
                (ack for ack in acks if ack.lsi is not None),
                key=lambda ack: ack.lsi,
                default=None,
            )
            value, vsi = evidence.read_back(obj)
            if top is not None and (vsi is None or vsi < top.lsi):
                outcome.losses.append(
                    f"{obj}: acked through lsi {top.lsi} but recovered "
                    f"vsi is {vsi}"
                )
            elif top is not None and vsi == top.lsi and value != top.value:
                outcome.losses.append(
                    f"{obj}: recovered vsi {vsi} matches the last ack but "
                    f"value is {value!r}, acked {top.value!r}"
                )
            elif value != last:
                sent = log.sent_values.get(obj, [])
                cut = max(i for i, v in enumerate(sent) if v == last)
                tail = sent[cut + 1:]
                if value not in tail and DERIVED not in tail:
                    outcome.losses.append(
                        f"{obj}: recovered value {value!r} is neither the "
                        f"last acked value {last!r} nor one sent after it"
                    )
    if outcome.losses:
        outcome.fail(f"{len(outcome.losses)} acked writes lost")


def fence_audit(evidence: Evidence, outcome: LiveFireOutcome) -> None:
    """No fence disagrees with its own copies (partial ones are legal)."""
    audit = evidence.fences
    outcome.fences_complete = len(audit.complete)
    outcome.fences_partial = len(audit.partial)
    outcome.fences_conflicting = len(audit.conflicting)
    if not audit.ok:
        outcome.fail(
            f"fence audit found {len(audit.conflicting)} conflicting "
            f"fences: {[fence.fence_id for fence in audit.conflicting]}"
        )


def epoch_audit(evidence: Evidence, outcome: LiveFireOutcome) -> None:
    """No ack from the deposed epoch above the promotion watermark."""
    outcome.old_epoch_acks = sum(
        1
        for log in evidence.logs
        for ack in log.acks
        if ack.epoch is not None
        and ack.epoch < evidence.promoted_epoch
        and ack.t_ack > evidence.promote_time
        and ack.lsi > evidence.watermark
    )
    if outcome.old_epoch_acks:
        outcome.fail(
            f"{outcome.old_epoch_acks} post-promotion acks from the "
            "deposed epoch"
        )


def survivors_acked(evidence: Evidence, outcome: LiveFireOutcome) -> None:
    """Shards that were not killed kept acking during the outage."""
    if not outcome.survivor_acks_during_outage:
        outcome.fail(
            "no surviving shard was there to ack during the outage "
            "(partial availability needs at least 2 shards)"
        )


def killed_in_checkpoint(evidence: Evidence, outcome: LiveFireOutcome) -> None:
    """The kill landed inside an online checkpoint, over a log an
    earlier one had already truncated (a pinned log proves nothing)."""
    start = evidence.log_start_at_kill
    if start is None:
        outcome.fail("the seeded kill never landed inside a checkpoint")
    elif start <= NULL_SI + 1:
        outcome.fail("no online checkpoint truncated the log before the kill")


def promoted_serves(evidence: Evidence, outcome: LiveFireOutcome) -> None:
    """The promoted witness serves: one write-read trip at its epoch."""
    obj = f"postfailover:{evidence.seed}"
    value = f"epoch-probe:{evidence.seed}"
    lsi = evidence.write(obj, value)
    read_value, vsi = evidence.read_back(obj)
    outcome.promoted = vsi == lsi and read_value == value
    if not outcome.promoted:
        outcome.fail(
            "promoted witness failed the write-read probe: wrote lsi "
            f"{lsi}, read ({read_value!r}, {vsi})"
        )


# ----------------------------------------------------------------------
# the scenario table and the seed-determined plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """One row: a topology, a fault, and the checks that judge the run."""

    name: str
    #: The lane label reports print, and the one-line CLI help.
    label: str
    help: str
    fault: Fault
    #: A primary/witness pair (healed by promotion) or one daemon.
    replicated: bool
    checks: Tuple[Check, ...]
    #: This scenario's :class:`LiveFireConfig` defaults.
    defaults: Mapping[str, Any]
    #: RNG stream names and key/value formats.  Pinned: a seed must keep
    #: meaning the same run (``tests/test_livefire.py`` golden values).
    kill_stream: str
    client_stream: str
    obj: str
    value: str
    #: Values are padded to this many characters (0: as formatted).
    value_bytes: int = 0

    def config(self, **overrides: Any) -> LiveFireConfig:
        return LiveFireConfig(**{**self.defaults, **overrides})

    def value_of(self, seed: int, cid: int, seq: int) -> str:
        """Client ``cid``'s ``seq``-th value."""
        value = self.value.format(seed=seed, cid=cid, seq=seq)
        return value.ljust(self.value_bytes, ".")

    @property
    def subprocess_lane(self) -> bool:
        """Can the run also be driven at a real ``serve`` process?"""
        return self.fault is Fault.KILL_DAEMON and not self.replicated

    def report(self, lane: str) -> TortureReport:
        """An empty report whose summary sums what this row's checks
        count: acks, then survivor acks, losses and old-epoch acks."""
        tallies = [("acked writes", "acked")]
        if survivors_acked in self.checks:
            tallies.append(("survivor acks during outages",
                            "survivor_acks_during_outage"))
        tallies.append(("acked losses", "losses"))
        if epoch_audit in self.checks:
            tallies.append(("old-epoch acks", "old_epoch_acks"))
        return TortureReport(f"{self.name} ({lane})", tallies=tuple(tallies))


SCENARIOS: Dict[str, Scenario] = {
    row.name: row
    for row in (
        Scenario(
            name="v3",
            label="in-process",
            help="live fire: kill a served daemon under faults and client "
            "load, restart it, audit every acked write for durability",
            fault=Fault.KILL_DAEMON,
            replicated=False,
            checks=(acked_writes,),
            defaults=dict(
                rates=FuzzRates(transient=0.01, torn=0.004, corrupt=0.004)
            ),
            kill_stream="livefire-kill",
            client_stream="livefire-client",
            obj="lf{cid}:{index}",
            value="run{seed}:c{cid}:s{seq}",
        ),
        Scenario(
            name="v3-rewrite",
            label="rewrite",
            help="v3 over a small key set rewritten many times: the kill "
            "lands after the daemon installed what the overwrites left "
            "unexposed, and a SIGTERM drain checkpoints over advanced rSIs",
            fault=Fault.KILL_DAEMON,
            replicated=False,
            checks=(acked_writes,),
            defaults=dict(
                requests_per_client=40,
                objects_per_client=2,
                p_get=0.1,
                rates=FuzzRates(transient=0.01, torn=0.004, corrupt=0.004),
            ),
            kill_stream="rewrite-kill",
            client_stream="rewrite-client",
            obj="rw{cid}:{index}",
            value="rw{seed}:c{cid}:s{seq}",
        ),
        Scenario(
            name="v3-checkpoint",
            label="checkpoint-kill",
            help="v3 with 8 KiB puts on honest devices: the daemon crosses "
            "online checkpoints that truncate its log, and a seeded crash "
            "lands at a seeded device step inside one before the kill",
            fault=Fault.KILL_IN_CHECKPOINT,
            replicated=False,
            checks=(acked_writes, killed_in_checkpoint),
            # Puts only: a logical op over an object a checkpoint
            # installed is the media-redo case these runs do not cover.
            # No fault rates, so no time-zero backup pins the log.
            defaults=dict(requests_per_client=100, objects_per_client=32,
                          p_get=0.1),
            kill_stream="checkpoint-kill",
            client_stream="checkpoint-client",
            obj="ck{cid}:{index}",
            value="ck{seed}:c{cid}:s{seq}:",
            value_bytes=8192,
        ),
        Scenario(
            name="v4",
            label="shard-kill",
            help="sharded live fire: kill one shard worker mid-serve; the "
            "survivors must keep acking, every acked write must survive",
            fault=Fault.KILL_SHARD,
            replicated=False,
            checks=(acked_writes, fence_audit, survivors_acked),
            defaults=dict(
                shards=2,
                requests_per_client=14,
                objects_per_client=4,
                rates=FuzzRates(transient=0.01, torn=0.003, corrupt=0.003),
            ),
            kill_stream="v4",
            client_stream="v4-client",
            obj="v4c{cid}:{index}",
            value="v4:{seed}:c{cid}:s{seq}",
        ),
        Scenario(
            name="v5",
            label="replica",
            help="replication live fire: kill (or zombie) the primary of a "
            "pair mid-serve, promote the witness, fail clients over, audit "
            "every acked write there plus the epoch-fencing invariant",
            fault=Fault.KILL_DAEMON,
            replicated=True,
            checks=(acked_writes, epoch_audit, promoted_serves),
            defaults=dict(requests_per_client=10, p_get=0.0),
            kill_stream="replica-kill",
            client_stream="replica-client",
            obj="rf{cid}:{index}",
            value="run{seed}:c{cid}:s{seq}",
        ),
    )
}


@dataclass(frozen=True)
class Plan:
    """Everything about one run that its seed alone decides."""

    seed: int
    #: Inject the fault once this many writes were acked.
    kill_after: int
    victim: Optional[int]
    lane: str
    #: One fault-model seed per shard (empty = honest devices).
    fault_seeds: Tuple[int, ...]
    #: Each client's RNG stream (get/cross draws and retry jitter).
    client_streams: Tuple[str, ...]
    #: Each client's first ``(obj, value)``.
    first_puts: Tuple[Tuple[str, str], ...]
    #: A kill inside a checkpoint: which online checkpoint (1-based)
    #: and which of its device steps — one of its first store writes
    #: (0-based), or :data:`TRUNCATION_STEP`, its truncation (where a
    #: checkpoint with fewer store writes is killed too).  Zero for the
    #: other faults.
    kill_checkpoint: int = 0
    kill_step: int = 0


def client_objects(
    scenario: Scenario, config: LiveFireConfig, seed: int, cid: int
) -> List[str]:
    """A client's object set, extended until it spans >= 2 shards when
    the topology has them (so cross-shard derives are possible)."""
    router = ShardRouter(config.shards)
    objs = [
        scenario.obj.format(seed=seed, cid=cid, index=index)
        for index in range(config.objects_per_client)
    ]
    extra = 0
    while config.shards > 1 and len(router.shards_of(objs)) < 2 and extra < 64:
        objs.append(scenario.obj.format(seed=seed, cid=cid, index=f"x{extra}"))
        extra += 1
    return objs


def plan(scenario: Scenario, config: LiveFireConfig, seed: int) -> Plan:
    """The seeded decisions of run ``seed`` (pure: nothing is built).

    The fault lands at a seeded ack count, so every run faults a
    different phase of the workload — including mid-request, the race
    the force-before-ack contract exists for.
    """
    rng = make_rng(f"{scenario.kill_stream}:{seed}")
    victim = None
    if scenario.fault is Fault.KILL_SHARD:
        victim = rng.randrange(config.shards)
    kill_after = rng.randint(1, config.clients * config.requests_per_client)
    kill_checkpoint = kill_step = 0
    if scenario.fault is Fault.KILL_IN_CHECKPOINT:
        # The third at the earliest: the first has nothing older than a
        # previous checkpoint to install, and only from the second on
        # does the log's start have to move.
        kill_checkpoint = rng.randint(3, 4)
        kill_step = rng.randint(0, TRUNCATION_STEP)
    zombie = (
        scenario.replicated
        and make_rng(f"replica-lane:{seed}").random() < config.zombie_ratio
    )
    fault_seeds: Tuple[int, ...] = ()
    if config.rates is not None:
        fault_seeds = tuple(
            seed * config.shards + index for index in range(config.shards)
        )
    clients = range(config.clients)
    return Plan(
        seed=seed,
        kill_after=kill_after,
        victim=victim,
        lane="zombie" if zombie else "kill",
        fault_seeds=fault_seeds,
        client_streams=tuple(
            f"{scenario.client_stream}:{seed}:{cid}" for cid in clients
        ),
        first_puts=tuple(
            (
                client_objects(scenario, config, seed, cid)[0],
                scenario.value_of(seed, cid, 0),
            )
            for cid in clients
        ),
        kill_checkpoint=kill_checkpoint,
        kill_step=kill_step,
    )


# ----------------------------------------------------------------------
# topologies under fire
# ----------------------------------------------------------------------
class _CheckpointKill:
    """A crash at a seeded device step inside a seeded online checkpoint.

    Wraps one system's ``checkpoint`` (to know when the seeded one runs)
    and its devices' steps: the store writes of the checkpoint's
    installs, then its truncation.  The seeded step raises
    :class:`~repro.storage.faults.FaultCrash` instead of touching the
    device, so the stable state is what a kill at that instant leaves —
    some installs flushed, their installation records and the
    checkpoint record perhaps unforced, the log untruncated — and the
    daemon's startup ladder recovers from exactly that.
    """

    def __init__(self, system: Any, checkpoint: int, step: int) -> None:
        self.system, self.checkpoint, self.step = system, checkpoint, step
        self.fired = threading.Event()
        #: The log's stable start at the kill.
        self.log_start: Optional[int] = None
        self._seen = 0
        #: Device steps taken inside the seeded checkpoint (None outside).
        self._steps: Optional[int] = None
        self._wrap(system, "checkpoint", self._checkpointing)
        for name in ("write", "write_many", "delete"):
            self._wrap(system.store, name, self._device_step)
        self._wrap(system.log, "truncate_before", self._truncating)

    @staticmethod
    def _wrap(owner: Any, name: str, hook: Callable) -> None:
        inner = getattr(owner, name)
        setattr(owner, name, lambda *args, **kwargs: hook(inner, args, kwargs))

    def _checkpointing(self, inner: Callable, args: tuple, kwargs: dict):
        self._seen += 1
        if self._seen == self.checkpoint:
            self._steps = 0
        try:
            return inner(*args, **kwargs)
        finally:
            self._steps = None

    def _device_step(self, inner: Callable, args: tuple, kwargs: dict):
        if self._steps is not None:
            if self.step < TRUNCATION_STEP and self._steps == self.step:
                self._kill(f"store write {self.step}")
            self._steps += 1
        return inner(*args, **kwargs)

    def _truncating(self, inner: Callable, args: tuple, kwargs: dict):
        if self._steps is not None:
            self._kill("its truncation")
        return inner(*args, **kwargs)

    def _kill(self, where: str) -> None:
        self._steps = None
        self.log_start = self.system.log.stable_start_lsi()
        self.fired.set()
        raise FaultCrash(
            f"killed inside online checkpoint {self.checkpoint}, at {where}"
        )


class _InProcess:
    """The scenario's topology from in-memory parts, in this process."""

    def __init__(
        self, harness: "LiveFireHarness", run_plan: Plan, root: Optional[str]
    ) -> None:
        self.harness, self.plan, self.root = harness, run_plan, root
        self.scenario = harness.scenario
        self.models = [
            FaultModel.fuzz(seed, harness.config.rates)
            for seed in run_plan.fault_seeds
        ]
        self.sharded = self._systems("primary", self.models)
        self.kill_point: Optional[_CheckpointKill] = None
        if self.scenario.fault is Fault.KILL_IN_CHECKPOINT:
            self.kill_point = _CheckpointKill(
                self.sharded.systems[0],
                run_plan.kill_checkpoint,
                run_plan.kill_step,
            )
        # Backups at time zero pin the log and back the quarantine path,
        # so a mid-serve quarantine restores the image and redoes the
        # log instead of escalating to DEGRADED.
        self.backups = [
            BackupManager(system).take_backup()
            for system in self.sharded.systems
            if self.models
        ]
        self.primary = build_daemon(
            self.sharded,
            DAEMON,
            replication=REPLICATION if self.scenario.replicated else None,
            backups=self.backups,
        )
        self.witness: Optional[ServeDaemon] = None
        self.daemons = [self.primary]
        self.port = 0
        self.failover: List[Tuple[str, int]] = []

    def _systems(self, name: str, models: Sequence[FaultModel]):
        config = self.harness.config
        root = None if self.root is None else os.path.join(self.root, name)
        return build_systems(
            config.shards,
            config.store_backend,
            root,
            models=models,
            metrics=self.harness.obs,
        )

    def start(self) -> None:
        self.port = self.primary.start().port
        if not self.scenario.replicated:
            return
        self.witness = build_daemon(
            self._systems("witness", ()),
            DAEMON,
            witness=replace(WITNESS, primary_port=self.port),
        ).start()
        self.daemons.append(self.witness)
        self.failover = [("127.0.0.1", self.witness.port)]
        deadline = time.monotonic() + ATTACH_TIMEOUT_S
        sender = self.primary.replication
        while not (self.witness.attached and sender.attached):
            if time.monotonic() > deadline:
                raise AssertionError("witness never attached to the primary")
            time.sleep(0.002)

    def inject(self) -> None:
        if self.scenario.fault is Fault.KILL_SHARD:
            # The victim's worker dies in place; its volatile state
            # (cache + unforced WAL tail) is gone.
            self.primary.kill_shard(self.plan.victim)
        elif self.plan.lane == "kill":
            self.primary.kill()
        # zombie lane: the primary stays alive through the promotion.

    def outage_puts(self, log: ClientLog) -> int:
        """Ack sentinel puts on every surviving shard, now.  Sentinel
        objects are found by routing, so this holds for any shard count."""
        stem = f"{self.scenario.name}sentinel:{self.plan.seed}"
        router = self.sharded.router
        before = len(log.acks)
        with DaemonClient(
            "127.0.0.1",
            self.port,
            policy=_retry_policy(replicated=False),
            connect_timeout=2.0,
        ) as client:
            for survivor in range(router.shards):
                if survivor == self.plan.victim:
                    continue
                keys = (f"{stem}:{n}" for n in itertools.count())
                owned = (o for o in keys if router.shard_of(o) == survivor)
                for found, obj in enumerate(
                    itertools.islice(owned, SENTINELS_PER_SURVIVOR), 1
                ):
                    value = f"{stem}:{survivor}:{found}"
                    if not log.put(client, obj, value):
                        raise AssertionError(
                            f"surviving shard {survivor} refused {obj} "
                            "during the outage"
                        )
        return len(log.acks) - before

    def promote(self) -> Dict[str, Any]:
        """Promote the witness; the ack carries epoch and watermark."""
        with DaemonClient(
            "127.0.0.1",
            self.witness.port,
            policy=RetryPolicy(attempts=5, base_delay=0.01, deadline=20.0),
        ) as client:
            return client.request("promote")

    def heal(self, probes: ClientLog) -> Tuple[int, Optional[FenceAudit]]:
        """Disarm every device, then recover: the port to read back
        from, and the fence audit of the primary's stable logs."""
        for model in self.models:
            model.armed = False
        healed = self.primary
        if self.scenario.replicated:
            if self.plan.lane == "zombie":
                self._probe_zombie(probes)
                self.primary.kill()
            if not self.witness.promoted:
                raise AssertionError("witness did not end the run promoted")
            healed = self.witness
        elif self.scenario.fault is Fault.KILL_SHARD:
            self.primary.revive_shard(self.plan.victim)
        else:
            # A fresh daemon over the killed one's debris.
            self.sharded.crash_all()
            healed = self.primary = build_daemon(
                self.sharded, DAEMON, backups=self.backups
            ).start()
            self.daemons.append(healed)
        return healed.port, self.sharded.fence_audit()

    def _probe_zombie(self, probes: ClientLog) -> None:
        """Drive writes at the still-live deposed primary; none may ack.

        A refusal is what the fence promises.  An ack lands in the log
        with the old epoch, for :func:`epoch_audit` to count — and for
        the oracle, since the promoted witness cannot hold it.
        """
        with DaemonClient(
            "127.0.0.1", self.port, policy=RetryPolicy(attempts=1)
        ) as client:
            for probe in range(ZOMBIE_PROBE_WRITES):
                value = f"zombie{self.plan.seed}:{probe}"
                probes.put(client, f"zombie{probe % 2}", value)

    def close(self, outcome: LiveFireOutcome) -> None:
        """Stop everything (a passing run's survivor drains gracefully)
        and record what the topology saw."""
        if outcome.ok and not self.scenario.replicated:
            self.primary.stop(graceful=True)
        for daemon in reversed(self.daemons):
            daemon.stop(graceful=False)
        outcome.restarts = sum(daemon.restarts() for daemon in self.daemons)
        outcome.faults_injected = sum(
            system.stats.faults_injected for system in self.sharded.systems
        )
        if self.witness is not None:
            outcome.redo_cycles = self.witness.redo_cycles


class _Subprocess:
    """One real ``python -m repro serve`` process over a real directory,
    killed with a real signal and restarted with honest devices."""

    failover: Sequence[Tuple[str, int]] = ()
    kill_point: Optional[_CheckpointKill] = None

    def __init__(
        self, workdir: str, graceful: bool, fault_seed: Optional[int]
    ) -> None:
        self.workdir = workdir
        self.graceful, self.fault_seed = graceful, fault_seed
        self.proc: Optional["subprocess.Popen[bytes]"] = None
        self.port = 0

    def start(self) -> None:
        self.port = self._spawn(self.fault_seed)

    def inject(self) -> None:
        if self.graceful:
            self._drain("SIGTERM drain")
        else:
            self.proc.kill()
            self.proc.wait(timeout=PROCESS_TIMEOUT_S)

    def heal(self, probes: ClientLog) -> Tuple[int, Optional[FenceAudit]]:
        # Faults off: the verdict is honest.
        return self._spawn(None), None

    def close(self, outcome: LiveFireOutcome) -> None:
        """The verification daemon of a passing run must drain too."""
        try:
            if outcome.ok:
                self._drain("verification daemon")
        except (AssertionError, subprocess.TimeoutExpired) as exc:
            outcome.fail(f"{type(exc).__name__}: {exc}")
        finally:
            if self.proc is not None and self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait(timeout=PROCESS_TIMEOUT_S)

    def _drain(self, what: str) -> None:
        """SIGTERM: the daemon must drain, force, checkpoint, exit 0."""
        self.proc.send_signal(signal.SIGTERM)
        status = self.proc.wait(timeout=PROCESS_TIMEOUT_S)
        if status != 0:
            raise AssertionError(f"{what} exited with status {status}")

    def _spawn(self, fault_seed: Optional[int]) -> int:
        """Start ``python -m repro serve``; its port, once the port file
        says recovery is over and the listener is open."""
        port_file = os.path.join(
            self.workdir, f"port-{time.monotonic_ns()}.json"
        )
        command = [
            sys.executable, "-m", "repro", "serve", "--no-http",
            "--data-dir", os.path.join(self.workdir, "data"),
            "--port", "0", "--port-file", port_file,
        ]
        if fault_seed is not None:
            command += ["--fault-seed", str(fault_seed)]
        env = dict(os.environ)
        source = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (source, env.get("PYTHONPATH")) if p
        )
        self.proc = subprocess.Popen(command, env=env)
        deadline = time.monotonic() + PROCESS_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise AssertionError(
                    "serve subprocess died at startup "
                    f"(status {self.proc.returncode})"
                )
            try:
                with open(port_file, "r", encoding="utf-8") as handle:
                    return json.load(handle)["port"]
            except (OSError, ValueError, KeyError):
                time.sleep(0.02)  # absent or partially written
        raise AssertionError("serve subprocess never wrote its port file")


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
def _retry_policy(replicated: bool, rng: Any = None) -> RetryPolicy:
    """The workload clients' retry budget, derived from the topology.

    Tight against one daemon, so post-kill stragglers fail fast (the
    oracle never depends on them).  Generous against a pair: a request
    caught by the kill must survive connect-refused → rotate → witness
    UNAVAILABLE (not yet promoted) → rotate ... until promotion.
    """
    return RetryPolicy(
        attempts=40 if replicated else 5,
        base_delay=0.002,
        max_delay=0.1 if replicated else 0.05,
        deadline=15.0 if replicated else 5.0,
        rng=rng,
    )


def _join(workers: Sequence[threading.Thread], timeout: float) -> None:
    for worker in workers:
        worker.join(timeout=timeout)


class LiveFireHarness:
    """Drives one scenario's runs: build → start → seeded clients → wait
    for the seeded ack count → fault → outage step → heal → checks."""

    def __init__(
        self,
        scenario: Union[str, Scenario],
        config: Optional[LiveFireConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.scenario = (
            SCENARIOS[scenario] if isinstance(scenario, str) else scenario
        )
        self.config = config if config is not None else self.scenario.config()
        check_backend(self.config.store_backend)
        #: Optional shared registry attached to every system built.
        self.obs = metrics

    def run(self, seed: int) -> LiveFireOutcome:
        """One seeded in-process run."""
        run_plan = plan(self.scenario, self.config, seed)
        description = f"{self.scenario.name} seed={seed}"
        if run_plan.victim is not None:
            description += f" victim=shard{run_plan.victim}"
        if self.scenario.replicated:
            description += f" lane={run_plan.lane}"
        if run_plan.kill_checkpoint:
            description += (
                f" checkpoint={run_plan.kill_checkpoint}"
                f" step={run_plan.kill_step}"
            )
        outcome = LiveFireOutcome(
            description, seed=seed, lane=run_plan.lane, victim=run_plan.victim
        )
        cfg = self.config
        with scratch_root(cfg.store_backend, f"{self.scenario.name}-store-",
                          cfg.store_root, f"run{seed}") as root:
            target = _InProcess(self, run_plan, root)
            return self._drive(target, run_plan, outcome)

    def campaign(self, runs: int, seed: int = 0) -> TortureReport:
        """``runs`` seeded in-process runs; run ``i`` uses ``seed + i``."""
        report = self.scenario.report(self.scenario.label)
        for index in range(runs):
            report.outcomes.append(self.run(seed + index))
        return report

    def subprocess_lanes(self, seed: int = 0) -> TortureReport:
        """Run ``seed`` at a real process twice: SIGKILL, then SIGTERM."""
        report = self.scenario.report("subprocess")
        for graceful in (False, True):
            with tempfile.TemporaryDirectory(prefix="repro-v3-") as workdir:
                report.outcomes.append(
                    self.subprocess_run(workdir, seed, graceful)
                )
        return report

    def subprocess_run(
        self,
        workdir: str,
        seed: int = 0,
        graceful: bool = False,
        fault_seed: Optional[int] = None,
    ) -> LiveFireOutcome:
        """The same run against a real ``python -m repro serve`` process.

        One client drives the whole workload; ``SIGKILL`` lands at the
        seeded ack count, ``SIGTERM`` (``graceful``) after the last
        request.  ``fault_seed`` arms the process's on-disk devices.
        """
        if not self.scenario.subprocess_lane:
            raise ValueError(
                f"scenario {self.scenario.name} has no real-process lane"
            )
        cfg = self.config
        total = cfg.clients * cfg.requests_per_client
        lane = LiveFireHarness(
            replace(
                self.scenario,
                kill_stream="livefire-subprocess",
                client_stream="livefire-subprocess",
                obj="sp{seed}:{index}",
                value="sub{seed}:s{seq}",
            ),
            replace(
                cfg,
                clients=1,
                requests_per_client=total,
                objects_per_client=3 * cfg.objects_per_client,
            ),
            self.obs,
        )
        run_plan = plan(lane.scenario, lane.config, seed)
        if graceful:
            run_plan = replace(run_plan, kill_after=total)
        signal_name = "sigterm" if graceful else "sigkill"
        outcome = LiveFireOutcome(
            f"{self.scenario.name} subprocess {signal_name} seed={seed}",
            seed=seed,
            lane=signal_name,
        )
        target = _Subprocess(workdir, graceful, fault_seed)
        return lane._drive(target, run_plan, outcome)

    def _drive(
        self,
        target: Union[_InProcess, _Subprocess],
        run_plan: Plan,
        outcome: LiveFireOutcome,
    ) -> LiveFireOutcome:
        scenario, cfg = self.scenario, self.config
        logs = [ClientLog() for _ in range(cfg.clients)]
        stop = threading.Event()
        workers: List[threading.Thread] = []
        try:
            target.start()
            workers = [
                threading.Thread(
                    target=self._client,
                    args=(run_plan, cid, target, logs[cid], stop),
                    name=f"livefire-client-{cid}",
                    daemon=True,
                )
                for cid in range(cfg.clients)
            ]
            for worker in workers:
                worker.start()
            deadline = time.monotonic() + KILL_WAIT_S
            kill_point = target.kill_point

            def due() -> bool:
                if kill_point is not None:
                    return kill_point.fired.is_set()
                return sum(len(log.acks) for log in logs) >= run_plan.kill_after

            while (
                not due()
                and any(worker.is_alive() for worker in workers)
                and time.monotonic() < deadline
            ):
                time.sleep(0.002)
            fault_time = time.monotonic()
            target.inject()
            # Sentinel and probe writes are audited like any client's.
            extra = ClientLog()
            logs.append(extra)
            if scenario.fault is Fault.KILL_SHARD:
                outcome.survivor_acks_during_outage = target.outage_puts(extra)
            promotion: Dict[str, Any] = {}
            if scenario.replicated:
                promoted = target.promote()
                promote_time = time.monotonic()
                promotion = dict(
                    promoted_epoch=promoted["epoch"],
                    watermark=promoted["watermark"],
                    promote_time=promote_time,
                )
                outcome.failover_seconds = promote_time - fault_time
                _join(workers, 20.0)  # clients ride through the failover
            stop.set()
            _join(workers, 10.0)
            # A live violation precedes anything the read-back can show.
            for log in logs:
                for violation in log.violations:
                    outcome.fail(violation)
            port, fences = target.heal(extra)
            with DaemonClient(
                "127.0.0.1",
                port,
                policy=RetryPolicy(attempts=5, base_delay=0.01, deadline=10.0),
            ) as reader:
                health = reader.health()["health"]
                if health != "healthy":
                    raise AssertionError(f"the healed topology is {health}")
                evidence = Evidence(
                    logs, reader.get, reader.put, fences,
                    seed=run_plan.seed,
                    log_start_at_kill=(
                        kill_point.log_start if kill_point is not None
                        else None
                    ),
                    **promotion,
                )
                for check in scenario.checks:
                    check(evidence, outcome)
        except Exception as exc:  # noqa: BLE001 - verdict, not control flow
            outcome.fail(f"{type(exc).__name__}: {exc}")
        finally:
            stop.set()
            _join(workers, 10.0)
            target.close(outcome)
        acks = [ack for log in logs for ack in log.acks]
        outcome.sent = sum(log.sent for log in logs)
        outcome.acked = len(acks)
        outcome.cross_acked = sum(1 for ack in acks if ack.lsi is None)
        return outcome

    def _client(
        self,
        run_plan: Plan,
        cid: int,
        target: Union[_InProcess, _Subprocess],
        log: ClientLog,
        stop: threading.Event,
    ) -> None:
        """One client: sequential puts over its own objects, a seeded
        share followed by a read-your-writes get, a seeded share replaced
        by a cross-shard derive; failover targets when replicated."""
        scenario, cfg, seed = self.scenario, self.config, run_plan.seed
        rng = make_rng(run_plan.client_streams[cid])
        router = ShardRouter(cfg.shards)
        objs = client_objects(scenario, cfg, seed, cid)
        # A cross pair: two of this client's objects on distinct shards.
        pair = next(
            (
                (src, dst)
                for src in objs
                for dst in objs
                if router.shard_of(src) != router.shard_of(dst)
            ),
            None,
        )
        with DaemonClient(
            "127.0.0.1",
            target.port,
            policy=_retry_policy(scenario.replicated, rng),
            connect_timeout=2.0,
            failover=list(target.failover) or None,
        ) as client:
            for seq in range(cfg.requests_per_client):
                if stop.is_set():
                    return
                if pair is not None and rng.random() < cfg.p_cross:
                    # dst <- derive(src) through the fence protocol.
                    src, dst = pair
                    log.write(dst, DERIVED, lambda: client.apply(
                        "wl_derive",
                        reads=[src],
                        writes=[dst],
                        params=[src, dst],
                        name=f"{scenario.name}x:{seed}:{cid}:{seq}",
                    ))
                    continue
                obj = objs[seq % len(objs)]
                value = scenario.value_of(seed, cid, seq)
                if not log.put(client, obj, value) or stop.is_set():
                    continue
                if rng.random() < cfg.p_get:
                    try:
                        read_value, _vsi = client.get(obj)
                    except REFUSED:
                        continue
                    # Live: this client is obj's only writer and the put
                    # was acked.
                    if read_value != value:
                        log.violations.append(
                            f"read-your-writes violated on {obj}: got "
                            f"{read_value!r}, acked {value!r}"
                        )
