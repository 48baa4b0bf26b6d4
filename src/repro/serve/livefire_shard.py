"""Sharded live-fire torture (v4): kill one shard, the rest serve on.

Torture v3 proves one daemon's force-before-ack contract across kills.
The v4 lane tortures the **sharded** daemon's stronger claim — shards
are independent recovery domains:

* concurrent clients drive puts (and seeded cross-shard applies)
  against a :class:`~repro.serve.server.ServeDaemon` whose
  shards all run on seeded faulty devices;
* at a seeded ack count one seeded **victim shard's worker is killed
  in place** (its volatile state — cache and unforced WAL tail — is
  discarded, the in-process SIGKILL model);
* while the victim is down, the harness performs **sentinel puts
  routed to every surviving shard and requires them to be acked** —
  a partial outage must not become a total one;
* the victim is revived through supervised recovery and the oracle
  audits *every* acked write of the whole run, the victim's pre-kill
  acks included: recovered vSI >= the highest acked lSI per object and
  the recovered value is one a client actually sent.  The fence audit
  must show no conflicting fences (partial fences are legal: they are
  exactly the never-acked cross-shard remainders).

Verification is honest: every shard's fault model is disarmed before
the victim's recovery and the final audit.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import DegradedModeError
from repro.common.rng import make_rng
from repro.kernel.backup_manager import BackupManager
from repro.kernel.supervisor import SupervisorConfig
from repro.kernel.system import RecoverableSystem, SystemConfig, SystemHealth
from repro.obs.metrics import MetricsRegistry
from repro.serve.client import DaemonClient, RetryPolicy
from repro.serve.errors import ServeError
from repro.serve.server import DaemonConfig, ServeDaemon
from repro.serve.watchdog import WatchdogConfig
from repro.shard.group import ShardedSystem
from repro.shard.router import ShardRouter
from repro.storage.faults import FaultModel, FuzzRates
from repro.storage.faultwrap import FaultyStore
from repro.wal.faulty_log import FaultyLog
from repro.workloads.generator import register_workload_functions


@dataclass
class ShardLiveFireConfig:
    """Workload shape and fault rates for one v4 campaign."""

    shards: int = 2
    clients: int = 3
    #: Sequential requests each client attempts.
    requests_per_client: int = 14
    #: Objects each client cycles over (spread over shards by routing).
    objects_per_client: int = 4
    #: Probability a client issues a cross-shard derive instead of a
    #: put (when its object set actually spans shards).
    p_cross: float = 0.2
    #: Forward-phase fuzz rates, armed on *every* shard's devices.
    rates: FuzzRates = field(
        default_factory=lambda: FuzzRates(
            transient=0.01, torn=0.003, corrupt=0.003
        )
    )
    supervisor_attempts: int = 24
    max_queue: int = 16
    client_attempts: int = 5
    client_base_delay: float = 0.002
    client_deadline: float = 5.0
    #: Sentinel puts per surviving shard while the victim is down.
    sentinels_per_survivor: int = 2
    #: Per-shard stable-store backend ("memory", "file", "logstore").
    #: Durable backends get a per-shard directory under ``store_root``
    #: and the backend's recommended cache strategy; "memory" keeps the
    #: paper's simulated store.
    store_backend: str = "memory"
    #: Root directory for durable backends (a temp directory is created
    #: per run when omitted).
    store_root: Optional[str] = None


@dataclass
class ShardLiveFireOutcome:
    """One kill-one-shard / revive / audit run."""

    description: str
    ok: bool
    error: str = ""
    seed: Optional[int] = None
    victim: int = -1
    acked: int = 0
    sent: int = 0
    failed: int = 0
    #: Acked writes (sentinels) on surviving shards *during* the
    #: victim's outage — the partial-availability evidence.
    survivor_acks_during_outage: int = 0
    #: Cross-shard applies acked before the kill.
    cross_acked: int = 0
    restarts: int = 0
    fences_complete: int = 0
    fences_partial: int = 0
    fences_conflicting: int = 0
    losses: List[str] = field(default_factory=list)


@dataclass
class ShardLiveFireReport:
    """Aggregate verdict of a v4 campaign."""

    outcomes: List[ShardLiveFireOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def total_acked(self) -> int:
        return sum(outcome.acked for outcome in self.outcomes)

    @property
    def total_losses(self) -> int:
        return sum(len(outcome.losses) for outcome in self.outcomes)

    def failures(self) -> List[ShardLiveFireOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def summary(self) -> str:
        failed = len(self.failures())
        status = "OK" if failed == 0 else f"{failed} FAILED"
        survivor = sum(
            outcome.survivor_acks_during_outage for outcome in self.outcomes
        )
        return (
            f"torture v4 (shard-kill): {len(self.outcomes)} runs, "
            f"{self.total_acked} acked writes, {survivor} survivor acks "
            f"during outages, {self.total_losses} acked losses — {status}"
        )


class _ClientRecord:
    """What one client thread sent and what the daemon acked."""

    def __init__(self) -> None:
        self.sent_values: Dict[str, List[str]] = {}
        #: (obj, value, lsi-or-None) per ack; cross acks carry no lSI.
        self.acks: List[Tuple[str, str, Optional[int]]] = []
        self.cross_acked = 0
        self.sent = 0
        self.failed = 0
        self.errors: List[str] = []


class ShardLiveFireHarness:
    """Drives sharded live fire and audits partial-outage behavior."""

    def __init__(
        self,
        config: Optional[ShardLiveFireConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config if config is not None else ShardLiveFireConfig()
        self.obs = metrics

    # ------------------------------------------------------------------
    # one seeded run
    # ------------------------------------------------------------------
    def run(self, seed: int) -> ShardLiveFireOutcome:
        cfg = self.config
        models = [
            FaultModel.fuzz(seed * cfg.shards + index, cfg.rates)
            for index in range(cfg.shards)
        ]
        store_factory, config_factory, cleanup = self._shard_factories(
            seed, models
        )
        try:
            return self._run_built(seed, models, store_factory,
                                   config_factory)
        finally:
            cleanup()

    def _shard_factories(self, seed, models):
        """Per-shard store/config factories for the configured backend.

        The default "memory" backend keeps the paper's simulated store;
        a durable backend (satellite of the pluggable-backend API) gets
        a per-shard directory and its recommended cache strategy, so a
        v4 campaign can torture e.g. the log-structured store under
        shard kills without any harness changes.
        """
        cfg = self.config
        if cfg.store_backend == "memory":
            return (
                lambda index: FaultyStore(models[index]),
                None,
                lambda: None,
            )
        from repro.storage.registry import make_store, recommended_cache_config

        root = cfg.store_root
        created = None
        if root is None:
            created = root = tempfile.mkdtemp(prefix="v4-store-")
        run_root = os.path.join(root, f"run{seed}")

        def store_factory(index: int):
            return make_store(
                cfg.store_backend,
                os.path.join(run_root, f"shard{index}"),
                model=models[index],
            )

        def config_factory(index: int) -> SystemConfig:
            return SystemConfig(
                cache=recommended_cache_config(cfg.store_backend)
            )

        def cleanup() -> None:
            target = created if created is not None else run_root
            shutil.rmtree(target, ignore_errors=True)

        return store_factory, config_factory, cleanup

    def _run_built(
        self, seed: int, models, store_factory, config_factory
    ) -> ShardLiveFireOutcome:
        cfg = self.config
        sharded = ShardedSystem.build(
            cfg.shards,
            config_factory=config_factory,
            store_factory=store_factory,
            log_factory=lambda index: FaultyLog(models[index]),
        )
        register_workload_functions(sharded.registry)
        if self.obs is not None:
            for system in sharded.systems:
                # The shared campaign registry only absorbs the last
                # shard's collectors; counts still aggregate via the
                # instrumented hot paths.
                system.attach_metrics(self.obs)
        backups = [
            BackupManager(system).take_backup() for system in sharded.systems
        ]
        daemon = ServeDaemon(
            sharded,
            DaemonConfig(
                port=0,
                http_port=None,
                max_queue=cfg.max_queue,
                retry_after_ms=5,
                allow_chaos=True,
                watchdog=WatchdogConfig(
                    supervisor=SupervisorConfig(
                        max_attempts=cfg.supervisor_attempts
                    )
                ),
            ),
            backup=backups,
        )
        daemon.start()
        rng = make_rng(f"v4:{seed}")
        victim = rng.randrange(cfg.shards)
        outcome = ShardLiveFireOutcome(
            f"v4 seed={seed} victim=shard{victim}",
            True,
            seed=seed,
            victim=victim,
        )
        records = [_ClientRecord() for _ in range(cfg.clients)]
        stop = threading.Event()
        workers = [
            threading.Thread(
                target=self._client_worker,
                args=(seed, cid, daemon.port, records[cid], stop),
                name=f"v4-client-{cid}",
                daemon=True,
            )
            for cid in range(cfg.clients)
        ]
        for worker in workers:
            worker.start()
        total = cfg.clients * cfg.requests_per_client
        kill_after = rng.randint(1, total)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if sum(len(record.acks) for record in records) >= kill_after:
                break
            if not any(worker.is_alive() for worker in workers):
                break
            time.sleep(0.002)
        # The kill: one shard's worker dies in place; volatile state
        # (cache + unforced WAL tail) is gone.
        daemon.kill_shard(victim)
        try:
            # Partial availability: every surviving shard must keep
            # acking while the victim is down.  Sentinel objects are
            # found by routing, so this holds for any shard count.
            outcome.survivor_acks_during_outage = self._sentinel_puts(
                daemon, sharded.router, victim, seed, records[0]
            )
        except Exception as exc:  # noqa: BLE001 - verdict, not control flow
            outcome.ok = False
            outcome.error = (
                f"surviving shards failed to ack during the outage: "
                f"{type(exc).__name__}: {exc}"
            )
        stop.set()
        for worker in workers:
            worker.join(timeout=10.0)
        # Honest verdict: disarm every device before the victim's
        # recovery and the audit.
        for model in models:
            model.armed = False
        if outcome.ok:
            try:
                daemon.revive_shard(victim)
                self._audit(daemon, sharded, records, outcome)
            except Exception as exc:  # noqa: BLE001
                outcome.ok = False
                outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.restarts = daemon.restarts()
        daemon.stop(graceful=True)
        outcome.sent = sum(record.sent for record in records)
        outcome.acked = sum(len(record.acks) for record in records)
        outcome.failed = sum(record.failed for record in records)
        outcome.cross_acked = sum(record.cross_acked for record in records)
        for record in records:
            for error in record.errors:
                if error.startswith("read-your-writes"):
                    outcome.ok = False
                    outcome.error = error
        if outcome.losses and outcome.ok:
            outcome.ok = False
            outcome.error = f"{len(outcome.losses)} acked writes lost"
        return outcome

    def campaign(self, runs: int, seed: int = 0) -> ShardLiveFireReport:
        """``runs`` seeded runs; run ``i`` uses ``seed + i``."""
        report = ShardLiveFireReport()
        for index in range(runs):
            report.outcomes.append(self.run(seed + index))
        return report

    # ------------------------------------------------------------------
    # workload
    # ------------------------------------------------------------------
    def _objects_for(self, cid: int, router: ShardRouter) -> List[str]:
        """A client's object set, guaranteed to span >= 2 shards when
        the topology has them (so cross-shard applies are possible)."""
        objs = [
            f"v4c{cid}:{index}"
            for index in range(self.config.objects_per_client)
        ]
        if router.shards > 1:
            extra = 0
            while len(router.shards_of(objs)) < 2 and extra < 64:
                objs.append(f"v4c{cid}:x{extra}")
                extra += 1
        return objs

    def _client_worker(
        self,
        seed: int,
        cid: int,
        port: int,
        record: _ClientRecord,
        stop: threading.Event,
    ) -> None:
        cfg = self.config
        rng = make_rng(f"v4-client:{seed}:{cid}")
        client = DaemonClient(
            "127.0.0.1",
            port,
            policy=RetryPolicy(
                attempts=cfg.client_attempts,
                base_delay=cfg.client_base_delay,
                max_delay=0.05,
                deadline=cfg.client_deadline,
                rng=rng,
            ),
            connect_timeout=2.0,
        )
        router = ShardRouter(cfg.shards)
        objs = self._objects_for(cid, router)
        # A cross pair: two of this client's objects on distinct shards.
        cross_pair: Optional[Tuple[str, str]] = None
        for src in objs:
            for dst in objs:
                if router.shard_of(src) != router.shard_of(dst):
                    cross_pair = (src, dst)
                    break
            if cross_pair:
                break
        last_acked: Dict[str, str] = {}
        try:
            for seq in range(cfg.requests_per_client):
                if stop.is_set():
                    return
                if cross_pair is not None and rng.random() < cfg.p_cross:
                    src, dst = cross_pair
                    record.sent += 1
                    try:
                        response = client.apply(
                            "wl_derive",
                            reads=[src],
                            writes=[dst],
                            params=[src, dst],
                            name=f"v4x:{seed}:{cid}:{seq}",
                        )
                    except (ServeError, DegradedModeError, OSError) as exc:
                        record.failed += 1
                        record.errors.append(f"{type(exc).__name__}: {exc}")
                        continue
                    from repro.serve import protocol

                    value = protocol.decode_value(
                        (response.get("writes") or {}).get(dst)
                    )
                    record.sent_values.setdefault(dst, []).append(value)
                    record.acks.append((dst, value, None))
                    record.cross_acked += 1
                    last_acked[dst] = value
                    continue
                obj = objs[seq % len(objs)]
                value = f"v4:{seed}:c{cid}:s{seq}"
                record.sent_values.setdefault(obj, []).append(value)
                record.sent += 1
                try:
                    lsi = client.put(obj, value)
                except (ServeError, DegradedModeError, OSError) as exc:
                    record.failed += 1
                    record.errors.append(f"{type(exc).__name__}: {exc}")
                    continue
                record.acks.append((obj, value, lsi))
                last_acked[obj] = value
                if not stop.is_set() and rng.random() < 0.25:
                    try:
                        read_value, _vsi = client.get(obj)
                    except (ServeError, DegradedModeError, OSError):
                        continue
                    if read_value != last_acked[obj]:
                        record.errors.append(
                            f"read-your-writes violated on {obj}: got "
                            f"{read_value!r}, acked {last_acked[obj]!r}"
                        )
                        record.failed += 1
        finally:
            client.close()

    def _sentinel_puts(
        self,
        daemon: ServeDaemon,
        router: ShardRouter,
        victim: int,
        seed: int,
        record: _ClientRecord,
    ) -> int:
        """Ack one batch of puts on every surviving shard, now."""
        cfg = self.config
        client = DaemonClient(
            "127.0.0.1",
            daemon.port,
            policy=RetryPolicy(
                attempts=cfg.client_attempts,
                base_delay=cfg.client_base_delay,
                deadline=cfg.client_deadline,
            ),
            connect_timeout=2.0,
        )
        acked = 0
        try:
            for survivor in range(router.shards):
                if survivor == victim:
                    continue
                found = 0
                probe = 0
                while found < cfg.sentinels_per_survivor and probe < 512:
                    obj = f"v4sentinel:{seed}:{probe}"
                    probe += 1
                    if router.shard_of(obj) != survivor:
                        continue
                    found += 1
                    value = f"v4sentinel:{seed}:{survivor}:{found}"
                    record.sent_values.setdefault(obj, []).append(value)
                    record.sent += 1
                    lsi = client.put(obj, value)
                    record.acks.append((obj, value, lsi))
                    acked += 1
                if found < cfg.sentinels_per_survivor:
                    raise AssertionError(
                        f"could not find sentinel keys for shard {survivor}"
                    )
        finally:
            client.close()
        return acked

    # ------------------------------------------------------------------
    # the oracle
    # ------------------------------------------------------------------
    def _audit(
        self,
        daemon: ServeDaemon,
        sharded: ShardedSystem,
        records: List[_ClientRecord],
        outcome: ShardLiveFireOutcome,
    ) -> None:
        """Audit every ack of the whole run against the live daemon."""
        for index, system in enumerate(sharded.systems):
            if system.health is not SystemHealth.HEALTHY:
                raise AssertionError(
                    f"shard {index} is {system.health.value} after the "
                    "victim's supervised recovery"
                )
        client = DaemonClient("127.0.0.1", daemon.port)
        try:
            for record in records:
                by_obj: Dict[str, List[Tuple[str, Optional[int]]]] = {}
                for obj, value, lsi in record.acks:
                    by_obj.setdefault(obj, []).append((value, lsi))
                for obj, acks in by_obj.items():
                    last_value, _last_lsi = acks[-1]
                    max_lsi = max(
                        (lsi for _value, lsi in acks if lsi is not None),
                        default=None,
                    )
                    value, vsi = client.get(obj)
                    if max_lsi is not None and (vsi is None or vsi < max_lsi):
                        outcome.losses.append(
                            f"{obj}: acked through lsi {max_lsi} but "
                            f"recovered vsi is {vsi}"
                        )
                        continue
                    if value == last_value:
                        continue
                    # The recovered value must be from the unacked tail
                    # sent after the last ack (at-least-once replay);
                    # anything else — an earlier value, or a value never
                    # sent — is a rolled-back ack.
                    sent = record.sent_values.get(obj, [])
                    try:
                        cut = len(sent) - 1 - sent[::-1].index(last_value)
                    except ValueError:
                        cut = -1
                    if value not in sent[cut + 1:]:
                        outcome.losses.append(
                            f"{obj}: recovered value {value!r} regressed "
                            f"behind the last acked value {last_value!r}"
                        )
        finally:
            client.close()
        audit = sharded.fence_audit()
        outcome.fences_complete = len(audit.complete)
        outcome.fences_partial = len(audit.partial)
        outcome.fences_conflicting = len(audit.conflicting)
        if not audit.ok:
            raise AssertionError(
                f"fence audit found {len(audit.conflicting)} conflicting "
                f"fences: {[f.fence_id for f in audit.conflicting]}"
            )
