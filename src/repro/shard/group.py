"""Sharded recovery domains: N kernels, N WALs, one object space.

The paper ties recoverability to the write graph's conflict order, not
to a single totally-ordered log, and "Guaranteeing Recoverability via
Partially Constrained Transaction Logs" (PAPERS.md) shows a partial
log order preserves recoverability.  That is the license this module
cashes in: the object space is partitioned by a stable
:class:`~repro.shard.router.ShardRouter`, and each shard owns a full
:class:`~repro.kernel.system.RecoverableSystem` — its own cache
manager, write-graph engine, WAL stream and recovery lifecycle.
Operations confined to one shard (the common case) touch exactly one
kernel and pay **zero** cross-shard coordination.

Cross-shard operations use a fence protocol:

1. *pre-flight* — every participating shard must be HEALTHY, checked
   before anything is mutated anywhere;
2. *read* — input values are read from their owning shards;
3. *transform once* — the registered function runs once, on the
   combined read values;
4. *local physical ops* — each shard that owns written objects
   executes a PHYSICAL operation carrying just its share of the
   values.  Physical (value) logging is what makes each shard's log
   independently replayable: redo needs no foreign reads;
5. *fence* — every participant appends a
   :class:`~repro.wal.records.FenceRecord` naming the fence id, the
   full participant set and the vector of per-shard local-op lSIs;
6. *force all, then ack* — the caller's ack force covers every
   participant's fence.

Recovery replays each shard's log independently (analysis and redo
skip fence records like any unknown record kind) and synchronizes only
at fences, via :meth:`ShardedSystem.fence_audit`: a fence present on
every participant with agreeing vectors is *complete*; a fence present
on a strict subset is *partial* — possible only for operations that
were never acknowledged, because the ack force covers all
participants; copies that disagree are *conflicting* (corruption).

Concurrency contract: one thread per shard may drive that shard's
kernel.  A cross-shard execution must hold the "turn" of every
participant (the serving layer's rendezvous does exactly this); the
kernels themselves are not locked here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.common.identifiers import ObjectId, StateId
from repro.core.functions import FunctionRegistry, default_registry
from repro.core.operation import (
    OpKind,
    Operation,
    execute_transform,
)
from repro.kernel.system import RecoverableSystem, SystemConfig, SystemHealth
from repro.shard.router import ShardRouter
from repro.wal.log_manager import LogManager
from repro.wal.records import FenceRecord
from repro.storage.stable_store import StableStore


class CrossShardError(RuntimeError):
    """A cross-shard operation could not start (unhealthy participant)."""


@dataclass
class FenceStatus:
    """One fence's post-crash classification."""

    fence_id: str
    participants: Tuple[int, ...]
    #: Shards whose stable log actually carries the fence.
    present_on: Tuple[int, ...]
    #: "complete" | "partial" | "conflicting".
    state: str
    #: Human-readable diagnosis.  For a conflicting fence it names the
    #: fence id and the lSI of each disagreeing copy, so an operator
    #: can go straight to the corrupt record without replaying logs.
    detail: str = ""


@dataclass
class FenceAudit:
    """The cross-shard synchronization verdict after recovery."""

    complete: List[FenceStatus] = field(default_factory=list)
    partial: List[FenceStatus] = field(default_factory=list)
    conflicting: List[FenceStatus] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no fence shows disagreeing copies."""
        return not self.conflicting


class ShardedSystem:
    """N recoverable systems behind one stable object→shard router."""

    def __init__(
        self,
        systems: List[RecoverableSystem],
        router: Optional[ShardRouter] = None,
    ) -> None:
        if not systems:
            raise ValueError("a sharded system needs at least one shard")
        self.systems = list(systems)
        self.router = (
            router if router is not None else ShardRouter(len(systems))
        )
        if self.router.shards != len(self.systems):
            raise ValueError(
                f"router covers {self.router.shards} shards but "
                f"{len(self.systems)} systems were supplied"
            )
        self.registry = self.systems[0].registry
        #: Monotonic label counter for cross-shard operations (display
        #: only; fence identity comes from the lSI vector).
        self._cross_seq = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        shards: int,
        config_factory: Optional[Callable[[int], SystemConfig]] = None,
        registry: Optional[FunctionRegistry] = None,
        store_factory: Optional[Callable[[int], StableStore]] = None,
        log_factory: Optional[Callable[[int], LogManager]] = None,
    ) -> "ShardedSystem":
        """Build ``shards`` kernels sharing one function registry.

        The factories receive the shard index, so file-backed shards
        land in per-shard directories and fault models stay per-shard.
        The function registry is shared — transforms are code, not
        state — while every other component is strictly per-shard.
        """
        registry = registry if registry is not None else default_registry()
        systems = []
        for index in range(shards):
            systems.append(
                RecoverableSystem(
                    config=(
                        config_factory(index) if config_factory else None
                    ),
                    registry=registry,
                    store=store_factory(index) if store_factory else None,
                    log=log_factory(index) if log_factory else None,
                )
            )
        return cls(systems, ShardRouter(shards))

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    @property
    def shards(self) -> int:
        return len(self.systems)

    def shard_of(self, obj: ObjectId) -> int:
        return self.router.shard_of(obj)

    def system_for(self, obj: ObjectId) -> RecoverableSystem:
        return self.systems[self.router.shard_of(obj)]

    def participants_of(self, op: Operation) -> Set[int]:
        """The shards an operation's read/write footprint touches."""
        return self.router.shards_of(op.reads | op.writes)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, op: Operation) -> Dict[ObjectId, Any]:
        """Route one operation: single-shard fast path, else fence."""
        participants = self.participants_of(op)
        if len(participants) == 1:
            return self.systems[next(iter(participants))].execute(op)
        return self.execute_cross(op, participants)

    def execute_cross(
        self, op: Operation, participants: Optional[Set[int]] = None
    ) -> Dict[ObjectId, Any]:
        """Run one cross-shard operation through the fence protocol.

        The caller must hold every participant's execution turn (see
        the module docstring).  Raises :class:`CrossShardError` before
        mutating anything if a participant is not HEALTHY; an exception
        later in the protocol leaves a *partial* (never-acked) fence,
        which recovery's audit is built to tolerate.
        """
        if participants is None:
            participants = self.participants_of(op)
        ordered = tuple(sorted(participants))
        for shard in ordered:
            health = self.systems[shard].health
            if health is not SystemHealth.HEALTHY:
                raise CrossShardError(
                    f"shard {shard} is {health.value}; cross-shard "
                    f"operation {op.name!r} refused before execution"
                )
        # Read inputs from their owning shards, then transform once.
        read_values = {
            obj: self.system_for(obj).read(obj) for obj in sorted(
                op.reads, key=str
            )
        }
        writes = execute_transform(op, read_values, self.registry)
        self._cross_seq += 1
        label = f"{op.name}&x{self._cross_seq}"
        # Each writing shard executes a PHYSICAL op carrying its share
        # of the values: per-shard redo then needs no foreign reads,
        # which is what keeps per-shard logs independently replayable.
        by_shard = self.router.partition(writes)
        vector: Dict[int, StateId] = {}
        for shard in ordered:
            owned = by_shard.get(shard)
            if not owned:
                continue  # read-only participant: fence record only
            local = Operation(
                name=f"{label}@s{shard}",
                kind=OpKind.PHYSICAL,
                reads=frozenset(),
                writes=frozenset(owned),
                payload={obj: writes[obj] for obj in owned},
            )
            self.systems[shard].execute(local)
            vector[shard] = local.lsi
        # The vector is unique for all time — per-shard lSIs are
        # monotone — so it doubles as the fence identity.
        fence_id = "xs:" + ",".join(
            f"{shard}@{lsi}" for shard, lsi in sorted(vector.items())
        )
        fence_lsis: Dict[int, StateId] = {}
        for shard in ordered:
            # One fresh record per log: lSIs are assigned per stream.
            record = FenceRecord(
                fence_id=fence_id,
                origin_shard=ordered[0],
                participants=ordered,
                vector=dict(vector),
            )
            fence_lsis[shard] = self.systems[shard].log.append(record)
        # Ack force: every participant's fence must be stable before
        # the operation may be acknowledged.
        for shard in ordered:
            self.systems[shard].log.force_through(fence_lsis[shard])
        return writes

    def read(self, obj: ObjectId) -> Any:
        return self.system_for(obj).read(obj)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def crash_shard(self, shard: int) -> None:
        self.systems[shard].crash()

    def recover_shard(self, shard: int):
        return self.systems[shard].recover()

    def crash_all(self) -> None:
        for system in self.systems:
            system.crash()

    def recover_all(self) -> List[Any]:
        return [system.recover() for system in self.systems]

    def close(self) -> None:
        for system in self.systems:
            system.close()

    def health(self) -> Dict[int, SystemHealth]:
        """Per-shard health (sharding's point: these are independent)."""
        return {
            index: system.health
            for index, system in enumerate(self.systems)
        }

    # ------------------------------------------------------------------
    # cross-shard synchronization audit
    # ------------------------------------------------------------------
    def fence_audit(self) -> FenceAudit:
        """Classify every fence found on the stable logs.

        * **complete** — the fence is on every listed participant's
          stable log and all copies agree;
        * **partial** — a strict subset carries it.  Only possible for
          never-acked operations (the ack force covers all
          participants), so recovery tolerates it: each shard's local
          physical ops replay independently and the unacked remainder
          is simply absent;
        * **conflicting** — copies disagree on participants or vector:
          log corruption, never a legal outcome of the protocol.

        A checkpoint may have truncated a fence off a participant's log
        after installing its local op.  A writing participant whose
        retained log starts above its entry in the fence's vector counts
        as present: its copy was appended in the same turn, right behind
        that op, and a checkpoint forces the buffer before it truncates.
        (A read-only participant has no vector entry, so only its
        retained log speaks for it.)
        """
        seen: Dict[str, Dict[int, FenceRecord]] = {}
        starts: Dict[int, StateId] = {}
        for index, system in enumerate(self.systems):
            starts[index] = system.log.stable_start_lsi()
            for record in system.log.stable_records():
                if isinstance(record, FenceRecord):
                    seen.setdefault(record.fence_id, {})[index] = record
        audit = FenceAudit()
        for fence_id, copies in sorted(seen.items()):
            reference = next(iter(copies.values()))
            truncated = {
                shard
                for shard, lsi in reference.vector.items()
                if shard not in copies and starts.get(shard, lsi) > lsi
            }
            present = tuple(sorted(set(copies) | truncated))
            agreeing = all(
                copy.participants == reference.participants
                and copy.vector == reference.vector
                for copy in copies.values()
            )
            status = FenceStatus(
                fence_id=fence_id,
                participants=reference.participants,
                present_on=present,
                state="conflicting",
            )
            if not agreeing:
                reference_shard = next(iter(copies))
                disagreeing = next(
                    (shard, copy)
                    for shard, copy in copies.items()
                    if copy.participants != reference.participants
                    or copy.vector != reference.vector
                )
                status.detail = (
                    f"fence {fence_id!r}: shard {reference_shard}'s copy "
                    f"at lSI {reference.lsi} disagrees with shard "
                    f"{disagreeing[0]}'s copy at lSI {disagreeing[1].lsi} "
                    "on participants or vector"
                )
                audit.conflicting.append(status)
            elif set(present) == set(reference.participants):
                status.state = "complete"
                audit.complete.append(status)
            else:
                status.state = "partial"
                audit.partial.append(status)
        return audit
