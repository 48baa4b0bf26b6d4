"""The cache manager: execution, write-graph maintenance, PurgeCache.

Normal-execution flow for one operation (Section 2's WAL assumptions
plus the Figure 6 incremental graph maintenance):

1. read the operation's inputs through the cache; a miss is a
   verified read of the stable store's device (no backend keeps a
   second copy in RAM), so it can raise ``CorruptObjectError``;
2. append the operation's record to the volatile log (assigning its
   lSI);
3. apply the transform, updating cached entries (dirty, vSI = lSI);
4. register the operation's *footprint* — name, lSI, readset, writeset
   — in the write-graph engine and the dirty-object /
   uninstalled-writer tables.  The values it wrote have two homes, its
   log record and the cache entries of step 3; the graph is not a
   third.

The manager holds exactly **one live write-graph engine** (a
:class:`~repro.core.engine.WriteGraphEngine`), selected by
``CacheConfig.graph_mode`` and built once by
:func:`~repro.core.engine.make_engine`: the refined ``rW`` engine or
the incremental ``W`` engine.  Both are maintained per operation —
neither mode ever rebuilds a graph from scratch on the hot path
(``engine.stats()["full_rebuilds"]`` stays 0), which is what retired
the old per-purge ``WriteGraph`` batch reconstruction.

Installation (PurgeCache, Figure 4, generalized for rW):

1. choose a minimal write-graph node n;
2. if |vars(n)| > 1, either dissolve the set with identity writes
   (Section 4) or use an atomic flush mechanism;
3. force the log through max(lSI of ops(n), lSIs of the blind writers
   justifying Notx(n)) — the WAL protocol;
4. flush vars(n); objects flushed become clean, objects in Notx(n)
   remain dirty with advanced rSIs;
5. log an installation record carrying the new rSIs (lazily — it need
   not be forced; a lost installation record only costs extra redos);
6. remove n from the graph.

A node whose flush set a later blind update has emptied needs none of
the I/O above: :meth:`CacheManager.install_unexposed` installs such
nodes once the records they depend on are *already* stable — steps 3-5
become a check, nothing, and nothing — through the same plan and
bookkeeping as PurgeCache.  The serving daemon calls it after every
write; the embedded kernel's ``purge``/``flush_all`` never do.

What makes the log truncatable is the third install path,
:meth:`CacheManager.install_before`: it installs, oldest rSI first,
every node holding an operation logged below a given lSI, so a
checkpoint taken afterwards can drop that prefix.  The online
checkpoint (:meth:`CacheManager.checkpoint` with ``install_below``)
runs it with the previous checkpoint's lSI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import (
    AbstractSet,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.common.codec import CodecError, check_value
from repro.common.errors import CacheError
from repro.common.identifiers import NULL_SI, ObjectId, StateId
from repro.common.retry import retry_transient
from repro.common.sizes import size_of
from repro.cache.config import CacheConfig, GraphMode, MultiObjectStrategy
from repro.cache.policies import LRUEviction
from repro.core.engine import WriteGraphEngine, make_engine
from repro.core.functions import FunctionRegistry
from repro.core.operation import (
    OpFootprint,
    OpKind,
    Operation,
    TOMBSTONE,
    execute_transform,
    identity_write,
)
from repro.core.refined_write_graph import RWNode
from repro.core.state_identifiers import DirtyObjectTable, UninstalledWriters
from repro.obs.metrics import COUNT_BUCKETS, NULL_OBS
from repro.storage.stable_store import StableStore, StoredVersion
from repro.storage.stats import IOStats
from repro.wal.log_manager import LogManager
from repro.wal.records import CheckpointRecord, FlushRecord, InstallationRecord

#: Most nodes one ``install_unexposed`` call installs.  A backlog — a
#: recovery re-adds every redone operation at once — is worked off over
#: the following calls instead of landing on the first one.
UNEXPOSED_INSTALLS_PER_CALL = 16

#: Histogram boundaries for the bytes one checkpoint flushes: powers of
#: two from 1 KiB to 1 GiB.
_BYTE_BUCKETS = tuple(float(1 << n) for n in range(10, 31))

_node_id = attrgetter("node_id")


@dataclass
class CacheEntry:
    """One cached object: current value, its vSI, and dirtiness."""

    value: Any
    vsi: StateId
    dirty: bool


class CacheManager:
    """Dirty volatile state plus the machinery to install it safely."""

    def __init__(
        self,
        store: StableStore,
        log: LogManager,
        registry: FunctionRegistry,
        config: Optional[CacheConfig] = None,
        stats: Optional[IOStats] = None,
    ) -> None:
        self.store = store
        self.log = log
        self.registry = registry
        self.config = config if config is not None else CacheConfig()
        self.stats = stats if stats is not None else store.stats
        self._entries: Dict[ObjectId, CacheEntry] = {}
        self.dirty_table = DirtyObjectTable()
        self._writers = UninstalledWriters()
        self._uninstalled: Dict[StateId, OpFootprint] = {}
        self._engine: WriteGraphEngine = make_engine(self.config.graph_mode)
        #: Modelled value bytes every flush so far wrote to the store
        #: (the checkpoint telemetry reports its own share).
        self._flushed_bytes = 0
        #: The one access clock: capacity eviction drops its least
        #: recently used clean object, and the hot-object victim policy
        #: peels its most recently used one.
        self.heat = LRUEviction()
        #: Observability hook (null object by default).  Events flow
        #: through ``obs.emit`` to the registry's subscribed sinks.
        self.obs = NULL_OBS

    def set_obs(self, obs) -> None:
        """Wire a metrics registry (or NULL_OBS) into this manager and
        its live write-graph engine."""
        self.obs = obs
        self._engine.obs = obs

    def _emit(self, kind: str, **details) -> None:
        self.obs.emit(kind, **details)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, op: Operation) -> Dict[ObjectId, Any]:
        """Log and apply ``op``; returns the values written.

        The transform runs before the record is appended: an operation
        that fails (bad inputs, missing source object) must leave no
        trace on the log.
        """
        # In a fixed order: a miss is a device read, so the order is
        # fault-point numbering and LRU heat, and must not follow the
        # process's string hashing.
        reads = {obj: self.read_object(obj) for obj in sorted(op.reads)}
        writes = execute_transform(op, reads, self.registry)
        if set(writes) != set(op.writes):
            raise CacheError(
                f"{op!r} produced writes {sorted(writes)} but declared "
                f"writeset {sorted(op.writes)}"
            )
        if op.kind not in (OpKind.PHYSICAL, OpKind.IDENTITY):
            # A logged payload is checked by the append that encodes
            # it; a computed value meets the codec only when its object
            # is flushed, long after the operation was acknowledged.
            for obj, value in writes.items():
                try:
                    check_value(value)
                except (TypeError, CodecError) as exc:
                    raise CacheError(
                        f"{op!r} produced a value for {obj!r} that "
                        f"cannot be stored: {exc}"
                    ) from None
        self.log.append_operation(op)
        self._emit(
            "execute", op=op.name, op_kind=op.kind.value, lsi=op.lsi,
            writes=tuple(sorted(op.writes)),
        )
        for obj, value in writes.items():
            self._apply_write(obj, value, op.lsi)
        self._register(op)
        self._enforce_capacity()
        return writes

    def read_object(self, obj: ObjectId) -> Any:
        """Current value of ``obj``, reading through to the store.

        Deleted objects (TOMBSTONE) and never-written objects read as
        None, which domains treat as "does not exist".  The entry made
        by a miss is the value's one home in RAM; a stored frame that
        fails its test raises ``CorruptObjectError`` from here.
        """
        entry = self._entries.get(obj)
        if entry is None:
            version = retry_transient(
                lambda: self.store.read(obj),
                stats=self.stats,
                what=f"read {obj!r}",
            )
            entry = CacheEntry(version.value, version.vsi, dirty=False)
            self._entries[obj] = entry
        self.heat.touch(obj)
        if entry.value is TOMBSTONE:
            return None
        return entry.value

    def peek_object(self, obj: ObjectId) -> Any:
        """Like :meth:`read_object` but with no I/O accounting and no
        cache population — for verifiers and tests."""
        entry = self._entries.get(obj)
        if entry is not None:
            return None if entry.value is TOMBSTONE else entry.value
        version = self.store.peek(obj)
        return None if version.value is TOMBSTONE else version.value

    def vsi_of(self, obj: ObjectId) -> StateId:
        """Current vSI of ``obj`` (cached version wins)."""
        entry = self._entries.get(obj)
        if entry is not None:
            return entry.vsi
        return self.store.vsi_of(obj)

    def _apply_write(self, obj: ObjectId, value: Any, lsi: StateId) -> None:
        entry = self._entries.get(obj)
        if entry is None:
            self._entries[obj] = CacheEntry(value, lsi, dirty=True)
        else:
            entry.value = value
            entry.vsi = lsi
            entry.dirty = True
        self.heat.touch(obj)

    def _register(self, op: Operation) -> None:
        """Enter logged ``op`` in the tables and the graph — by its
        footprint, so none of them keeps the operation or its values."""
        held = op.footprint()
        for obj in held.writes:
            self.dirty_table.note_write(obj, held.lsi)
            self._writers.note(obj, held.lsi)
        self._uninstalled[held.lsi] = held
        self._engine.add_operation(held)

    # ------------------------------------------------------------------
    # graph access
    # ------------------------------------------------------------------
    def uninstalled_operations(self) -> List[OpFootprint]:
        """Footprints of the uninstalled operations in conflict (log)
        order — the objects ``engine.node_of`` knows; pair one with an
        executed :class:`Operation` by ``lsi``."""
        return [self._uninstalled[lsi] for lsi in sorted(self._uninstalled)]

    def uninstalled(self, lsi: StateId) -> Optional[OpFootprint]:
        """The footprint held for the operation logged at ``lsi``, None
        once it is installed (or if it never ran here)."""
        return self._uninstalled.get(lsi)

    @property
    def engine(self) -> WriteGraphEngine:
        """The live write-graph engine (rW or incremental W, by mode)."""
        return self._engine

    # ------------------------------------------------------------------
    # PurgeCache
    # ------------------------------------------------------------------
    def purge(self) -> bool:
        """Install one write-graph node; False when nothing is dirty."""
        graph = self._engine
        if not len(graph):
            return False
        for _attempt in range(len(graph) + 8):
            node = graph.least_minimal()
            if node is None:  # pragma: no cover - graphs stay acyclic
                raise CacheError("write graph has no minimal node")
            if self._install_minimal(node):
                return True
        raise CacheError("purge failed to converge")  # pragma: no cover

    def _install_minimal(self, node: RWNode) -> bool:
        """Install the minimal ``node``; False when it could not be.

        Under the identity-write strategy a flush set of several objects
        is first dissolved (Section 4).  The injections can add inverse
        write-read edges — some reader node must install first — and
        then nothing is installed: the caller picks again.
        """
        graph = self._engine
        if (
            len(node.vars) > 1
            and self.config.graph_mode is GraphMode.RW
            and self.config.multi_object_strategy
            is MultiObjectStrategy.IDENTITY_WRITES
        ):
            node = self._dissolve_flush_set(node)
            if graph.predecessors(node):
                return False
        self._install_node(node, graph)
        return True

    def install_before(self, lsi: StateId) -> int:
        """Install every node holding an operation logged below ``lsi``.

        Afterwards no dirty object's rSI is below ``lsi``, so neither
        the redo scan nor the retained log has to reach below it.  The
        log's tail is pinned by the oldest rSIs, so the dirty entries
        below ``lsi`` are ordered once and worked off oldest first:
        each names its object's first uninstalled writer, whose node is
        installed after its predecessors (walked up to a minimal one)
        through :meth:`_install_minimal` — PurgeCache's WAL rule,
        identity writes and atomic flushes.  :meth:`purge` would instead
        take the cheapest minimal node anywhere, flushing every recent
        one-key node before the old node that pins the log.

        The buffer is forced once up front, so the WAL bound of every
        node below is already stable when it installs.  Returns the
        number of nodes installed.
        """
        pinning = sorted(
            ((obj, rsi) for obj, rsi in self.dirty_table.items() if rsi < lsi),
            key=itemgetter(1),
        )
        if not pinning:
            return 0
        self.log.force()
        graph = self._engine
        rsi_of = self.dirty_table.rsi_of
        installed = stalls = 0
        for obj, _ in pinning:
            rsi = rsi_of(obj)
            while rsi is not None and rsi < lsi:
                node = graph.node_of(self._uninstalled[rsi])
                predecessors = graph.predecessors(node)
                while predecessors:
                    node = min(predecessors, key=_node_id)
                    predecessors = graph.predecessors(node)
                if self._install_minimal(node):
                    installed += 1
                else:
                    stalls += 1
                    if stalls > len(graph) + 8:  # pragma: no cover
                        raise CacheError("install_before failed to converge")
                rsi = rsi_of(obj)
        return installed

    def flush_all(self) -> int:
        """Drain the cache: install nodes until none remain."""
        installed = 0
        while self.purge():
            installed += 1
        return installed

    def make_clean(self, obj: ObjectId) -> None:
        """Install whatever is needed for ``obj`` to become clean.

        Used before eviction: repeatedly installs minimal nodes that are
        ancestors of (or are) the node holding ``obj``'s last writer.
        """
        guard = 0
        while self.dirty_table.is_dirty(obj) or (
            obj in self._entries and self._entries[obj].dirty
        ):
            guard += 1
            if guard > len(self._uninstalled) + len(self._entries) + 8:
                raise CacheError(f"make_clean({obj!r}) failed to converge")
            if not self.purge():
                raise CacheError(
                    f"{obj!r} is dirty but the write graph is empty"
                )

    def evict(self, obj: ObjectId) -> None:
        """Drop a clean object from the cache (STEAL requires clean)."""
        entry = self._entries.get(obj)
        if entry is None:
            return
        if entry.dirty:
            raise CacheError(
                f"cannot evict dirty object {obj!r}; call make_clean first"
            )
        del self._entries[obj]
        self.heat.forget(obj)
        if self.obs.enabled:
            self.obs.count("cache.evictions")
        self._emit("evict", obj=obj)

    def _enforce_capacity(self) -> None:
        """Shrink the cache to the configured capacity.

        The least recently used clean object is evicted first; when
        nothing is clean, write-graph nodes are installed (PurgeCache)
        until eviction candidates appear.  Re-entrant calls (capacity
        pressure during an identity-write injection inside a purge) are
        ignored — the outer call finishes the job.
        """
        capacity = self.config.capacity
        if capacity is None or getattr(self, "_enforcing", False):
            return
        self._enforcing = True
        try:
            # Sized once: reads do not enforce the capacity, so a scan
            # can leave the cache many times over it, and a bound that
            # shrank with every eviction would trip before the job ends.
            guard, limit = 0, 4 * len(self._entries) + 16
            while len(self._entries) > capacity:
                guard += 1
                if guard > limit:
                    raise CacheError("capacity enforcement did not converge")
                clean = [
                    obj
                    for obj, entry in self._entries.items()
                    if not entry.dirty
                ]
                if clean:
                    self.evict(min(clean, key=self.heat.last_access))
                    continue
                if not self.purge():
                    # Nothing dirty yet nothing clean: impossible, but
                    # never loop silently.
                    raise CacheError(
                        "over capacity with no evictable objects"
                    )  # pragma: no cover
        finally:
            self._enforcing = False

    # ------------------------------------------------------------------
    # identity writes (Section 4)
    # ------------------------------------------------------------------
    def _dissolve_flush_set(self, node: RWNode) -> RWNode:
        """Inject identity writes until the node's flush set is small.

        Each ``W_IP(X, val(X))`` is fed through the ordinary execution
        path: it is logged as a physical record carrying X's current
        value, lands in its own new node, and its blind write removes X
        from this node's vars.  The injections can add inverse
        write-read edges (readers of the dropped values must install
        first) and, rarely, merge nodes via cycle collapse; the caller's
        minimal-node choice is re-evaluated afterwards, so we return the
        node that now holds the anchor operation.
        """
        anchor = next(iter(node.ops))
        guard = 0
        # Suppress capacity enforcement while injecting: a nested purge
        # could install (and thus invalidate) the very node being
        # dissolved.  The post-injection execute() calls re-enable it.
        previous = getattr(self, "_enforcing", False)
        self._enforcing = True
        try:
            while True:
                current = self._engine.node_of(anchor)
                if current is None:  # pragma: no cover - defensive
                    raise CacheError("anchor operation vanished from rW")
                if len(current.vars) <= 1:
                    return current
                guard += 1
                if guard > 4 * (len(current.vars) + len(self._engine)) + 16:
                    raise CacheError(
                        "identity-write injection did not converge"
                    )
                # Peel per the victim policy (default: lexicographic;
                # the hot-object policy peels recently-used objects so
                # a cold one is the single object flushed).
                victim = self.config.victim_policy.peel(
                    set(current.vars), self.heat
                )
                wip = identity_write(victim, self._entries[victim].value)
                self._emit("identity-write", obj=victim)
                if self.obs.enabled:
                    injected = time.perf_counter()
                    self.execute(wip)
                    self.obs.observe(
                        "cache.identity_write",
                        time.perf_counter() - injected,
                    )
                else:
                    self.execute(wip)
                self.stats.identity_writes += 1
        finally:
            self._enforcing = previous

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _install_node(self, node: RWNode, graph: WriteGraphEngine) -> None:
        obs = self.obs
        if not obs.enabled:
            self._install_node_inner(node, graph)
            return
        start = time.perf_counter()
        try:
            self._install_node_inner(node, graph)
        finally:
            obs.observe("cache.install", time.perf_counter() - start)

    def _install_node_inner(
        self, node: RWNode, graph: WriteGraphEngine
    ) -> None:
        if graph.predecessors(node):  # pragma: no cover - defensive
            raise CacheError(f"{node!r} is not minimal")
        vars_ = set(node.vars)
        ops, new_rsis, wal_bound = self._installation_plan(node)
        notx = set(new_rsis) - vars_

        # WAL: the node's own records, plus the blind writers that
        # justify not flushing Notx(n), must be stable before we flush.
        self.log.force_through(wal_bound)
        for op in ops:
            self.log.assert_stable(op.lsi)

        # Flush vars(n).
        self._flush_objects(vars_)
        self.stats.flushes += 1
        self._emit(
            "install",
            vars=tuple(sorted(vars_)),
            notx=tuple(sorted(notx)),
            ops=tuple(op.name for op in ops),
        )

        # Installation record (lazy): lets the analysis pass advance
        # rSIs for both flushed and unexposed objects.  The degenerate
        # physiological case — one object flushed fully clean, nothing
        # unexposed — gets the cheaper flush record the paper describes
        # ("flushes can be lazily logged after the flush"); the two are
        # equivalent to the analysis pass.
        if self.config.log_installations:
            if (
                len(vars_) == 1
                and not notx
                and new_rsis[next(iter(vars_))] is None
            ):
                (obj,) = vars_
                entry = self._entries.get(obj)
                vsi = entry.vsi if entry is not None else NULL_SI
                self.log.append(FlushRecord(obj, vsi))
            else:
                self.log.append(
                    InstallationRecord(
                        flushed={obj: new_rsis[obj] for obj in vars_},
                        unexposed={obj: new_rsis[obj] for obj in notx},
                        installed_lsis=tuple(op.lsi for op in ops),
                    )
                )

        self._retire(node, ops, vars_, new_rsis)

    def _installation_plan(
        self, node: RWNode
    ) -> Tuple[List[OpFootprint], Dict[ObjectId, Optional[StateId]], StateId]:
        """What installing ``node`` will change, read off without
        changing it.

        Returns the node's operations in lSI order; the new rSI of every
        object of ``Writes(n)`` — the lSI of its first writer that stays
        uninstalled, None when the object comes clean; and the WAL
        bound: the highest lSI that must be stable first, over the
        node's own records and the blind writers that justify leaving
        ``Notx(n)`` unflushed.
        """
        ops = sorted(node.ops, key=lambda o: o.lsi)
        written: Dict[ObjectId, List[StateId]] = {}
        for op in ops:
            for obj in op.writes:
                written.setdefault(obj, []).append(op.lsi)
        first_after = self._writers.first_after
        wal_bound = ops[-1].lsi
        flushed = node.vars
        new_rsis: Dict[ObjectId, Optional[StateId]] = {}
        for obj, lsis in written.items():
            rsi = new_rsis[obj] = first_after(obj, lsis)
            if rsi is not None and rsi > wal_bound and obj not in flushed:
                wal_bound = rsi
        return ops, new_rsis, wal_bound

    def _retire(
        self,
        node: RWNode,
        ops: List[OpFootprint],
        flushed: AbstractSet[ObjectId],
        new_rsis: Mapping[ObjectId, Optional[StateId]],
    ) -> None:
        """Carry out an installation plan: the bookkeeping both install
        paths share once their WAL (and flush) obligations are met.

        Discharges the installed writes, advances every written
        object's rSI (or drops it from the dirty object table), marks
        the ``flushed`` objects that came clean, and removes the node.
        """
        discharge = self._writers.discharge
        for op in ops:
            for obj in op.writes:
                discharge(obj, op.lsi)
            del self._uninstalled[op.lsi]
        for obj, rsi in new_rsis.items():
            if rsi is not None:
                # Unexposed: stays dirty, recoverable from rsi onwards.
                # (A flushed object never keeps a writer — the node
                # holds its last one.)
                self.dirty_table.advance(obj, rsi)
                continue
            self.dirty_table.remove(obj)
            if obj in flushed:
                entry = self._entries.get(obj)
                if entry is not None:
                    if entry.value is TOMBSTONE:
                        del self._entries[obj]
                    else:
                        entry.dirty = False
        self._engine.remove_node(node)

    def install_unexposed(self) -> int:
        """Install minimal nodes whose flush set is empty, at zero I/O.

        A later blind update left every object such a node wrote
        unexposed, so the paper installs it by flushing ``vars(n) = ∅``:
        nothing.  What remains of PurgeCache is the WAL rule and the
        bookkeeping, and this verb does only those — it installs a node
        only when the records it depends on (its WAL bound) are
        *already* stable, never forces, never touches the store, and
        logs no installation record: a lost one "only costs extra
        redos", and with nothing flushed that redo is the one a system
        that never installed would run.  The advanced rSIs live in the
        dirty object table until the next checkpoint record carries
        them.  Returns the number of nodes installed, at most
        :data:`UNEXPOSED_INSTALLS_PER_CALL`; a call with nothing to
        install costs one look at the frontier.
        """
        obs = self.obs
        started = time.perf_counter() if obs.enabled else 0.0
        graph = self._engine
        is_stable = self.log.is_stable
        installed = 0
        while installed < UNEXPOSED_INSTALLS_PER_CALL:
            node = graph.least_minimal()
            if node is None or node.vars:
                break
            ops, new_rsis, wal_bound = self._installation_plan(node)
            if not is_stable(wal_bound):
                break  # its turn comes once the committer catches up
            self._retire(node, ops, frozenset(), new_rsis)
            installed += 1
        if obs.enabled:
            obs.observe(
                "cache.install_unexposed", time.perf_counter() - started
            )
            obs.observe(
                "cache.unexposed_installs_per_call", installed, COUNT_BUCKETS
            )
            if installed:
                obs.count("cache.unexposed_installs", installed)
        return installed

    def materialize(self) -> None:
        """A witness's redo cycle, after recovery: install every node
        whose records are stable, flushing its set but neither forcing
        nor logging (the log's lSIs are the primary's), up to the first
        set only a logged identity write could split; then truncate the
        log where a truncating checkpoint would."""
        graph = self._engine
        split = (
            self.config.multi_object_strategy
            is MultiObjectStrategy.IDENTITY_WRITES
        )
        while True:
            node = graph.least_minimal()
            if node is None or (split and len(node.vars) > 1):
                break
            ops, new_rsis, wal_bound = self._installation_plan(node)
            if not self.log.is_stable(wal_bound):
                break
            vars_ = set(node.vars)
            if vars_:
                self._flush_objects(vars_)
                self.stats.flushes += 1
            self._retire(node, ops, vars_, new_rsis)
        self._truncate_below(self.log.stable_end_lsi() + 1)

    def _truncate_below(self, bound: StateId) -> None:
        """Truncate the stable log below ``bound``, or below the oldest
        dirty rSI when that is lower: only installed records precede
        the cut, which is also the redo scan's start."""
        oldest = self.dirty_table.min_rsi()
        cut = bound if oldest is None else min(oldest, bound)
        self.log.truncate_before(cut, redo_start=cut)

    def _flush_objects(self, objs: Set[ObjectId]) -> None:
        """Write the current cached versions of ``objs`` to the store.

        Transient device errors are retried with the shared bounded
        budget: the flush mechanisms write full versions, so re-driving
        a flush after a partial failure rewrites the same values — the
        retry is idempotent with respect to the stable state (I/O
        counters do record the extra attempts, as a real device would).
        """
        if not objs:
            return
        obs = self.obs
        if not obs.enabled:
            self._flush_objects_inner(objs)
            return
        start = time.perf_counter()
        try:
            self._flush_objects_inner(objs)
        finally:
            obs.observe("cache.flush", time.perf_counter() - start)

    def _flush_objects_inner(self, objs: Set[ObjectId]) -> None:
        versions: Dict[ObjectId, StoredVersion] = {}
        deletions: List[ObjectId] = []
        for obj in sorted(objs):
            entry = self._entries[obj]
            if entry.value is TOMBSTONE:
                deletions.append(obj)
            else:
                versions[obj] = StoredVersion(entry.value, entry.vsi)
                self._flushed_bytes += size_of(entry.value)
        if len(versions) > 1:
            retry_transient(
                lambda: self.config.mechanism.flush(
                    self.store, versions, self.log
                ),
                stats=self.stats,
                what="multi-object flush",
            )
        elif len(versions) == 1:
            ((obj, version),) = versions.items()
            retry_transient(
                lambda: self.config.mechanism.flush_one(
                    self.store, obj, version
                ),
                stats=self.stats,
                what=f"flush {obj!r}",
            )
        for obj in deletions:
            # Removing a terminated object is one metadata write.
            self.stats.object_writes += 1
            retry_transient(
                lambda: self.store.delete(obj),
                stats=self.stats,
                what=f"delete {obj!r}",
            )

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def checkpoint(
        self, truncate: bool = False, install_below: Optional[StateId] = None
    ) -> StateId:
        """Log a checkpoint record (the dirty object table) and force.

        With ``install_below`` — the online checkpoint passes the
        previous checkpoint's lSI — every node holding an operation
        logged below it is installed first (:meth:`install_before`).
        With ``truncate=True`` the stable log is truncated up to the
        redo scan start point, which only installed records precede.
        The ``cache.checkpoint`` histogram times the whole call;
        ``cache.checkpoint_installs`` and
        ``cache.checkpoint_flushed_bytes`` say what its installs cost.
        """
        obs = self.obs
        started = time.perf_counter() if obs.enabled else 0.0
        installs, before = 0, self._flushed_bytes
        if install_below is not None:
            installs = self.install_before(install_below)
        flushed = self._flushed_bytes - before
        record = CheckpointRecord(self.dirty_table.snapshot())
        lsi = self.log.append(record)
        self.log.force()
        self.stats.checkpoints += 1
        self._emit(
            "checkpoint", lsi=lsi, dirty=len(record.dirty_objects),
            truncate=truncate, installs=installs, flushed_bytes=flushed,
        )
        if truncate:
            self._truncate_below(lsi)
        if obs.enabled:
            obs.observe("cache.checkpoint", time.perf_counter() - started)
            obs.observe("cache.checkpoint_installs", installs, COUNT_BUCKETS)
            obs.observe(
                "cache.checkpoint_flushed_bytes", flushed, _BYTE_BUCKETS
            )
        return lsi

    # ------------------------------------------------------------------
    # recovery adoption
    # ------------------------------------------------------------------
    def adopt_recovery(
        self,
        volatile: Mapping[ObjectId, Tuple[Any, StateId]],
        redone_ops: List[Operation],
    ) -> None:
        """Seed a fresh cache manager with the outcome of a redo pass.

        The redone operations are uninstalled again (their records are
        already on the stable log, so nothing is re-logged); the write
        graph, dirty object table and writer index are rebuilt from them
        in log order, through the registration ``execute`` uses — the
        list itself is not kept.
        """
        if self._uninstalled:
            raise CacheError("adopt_recovery requires an empty cache manager")
        for obj, (value, vsi) in volatile.items():
            self._entries[obj] = CacheEntry(value, vsi, dirty=True)
        for op in sorted(redone_ops, key=lambda o: o.lsi):
            self._register(op)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def entry(self, obj: ObjectId) -> Optional[CacheEntry]:
        """The raw cache entry for tests and verifiers."""
        return self._entries.get(obj)

    def __len__(self) -> int:
        return len(self._entries)
