"""What one daemon process serves, built in one place.

A *topology* is N recovery domains (each its own store, WAL, cache
manager and supervisor) on one stable-store backend, served in one role:
standalone, a replicating primary, or a witness.  ``python -m repro
serve`` builds it over a data directory (store and WAL on disk, the
debris of a previous process recovered at startup); the live-fire
harness (:mod:`repro.livefire`) builds it from in-memory parts, or over a
scratch directory for a durable backend, with seeded fault models armed
on every device.  Both go through the two functions here, so what is
tortured is what is served.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional, Sequence

from repro.kernel.system import SystemConfig
from repro.obs.metrics import MetricsRegistry
from repro.persist.file_log import FileLogManager
from repro.serve.server import DaemonConfig, ServeDaemon
from repro.shard.group import ShardedSystem
from repro.storage.backup import FuzzyBackup
from repro.storage.faults import FaultModel
from repro.storage.registry import make_store, recommended_cache_config
from repro.workloads.generator import register_workload_functions

# Annotations only: the witness and the faulty logs are imported in the
# branch that builds them, so a plain ``serve`` process loads neither.
if TYPE_CHECKING:
    from repro.replica.sender import ReplicationConfig
    from repro.replica.witness import WitnessConfig


def shard_root(root: str, shards: int, index: int) -> str:
    """Directory of recovery domain ``index``.

    One domain lives at the root itself (``wal.log`` right under it);
    N > 1 live under ``root/shard-<index>``, each its own WAL stream.
    """
    return root if shards == 1 else os.path.join(root, f"shard-{index}")


def build_systems(
    shards: int = 1,
    store_backend: str = "memory",
    root: Optional[str] = None,
    *,
    file_log: bool = False,
    models: Sequence[FaultModel] = (),
    metrics: Optional[MetricsRegistry] = None,
) -> ShardedSystem:
    """Build ``shards`` recovery domains behind one router.

    ``root`` holds the durable backends' per-shard directories (and the
    WAL files when ``file_log``; otherwise the WAL is the in-memory
    simulated log).  ``models``, when given, carries one fault model per
    shard and selects the fault-injecting variant of both devices.
    Every domain gets the backend's recommended cache strategy and the
    workload transforms (``wl_*``), so clients need no registration.
    """

    def directory(index: int) -> Optional[str]:
        return None if root is None else shard_root(root, shards, index)

    def model(index: int) -> Optional[FaultModel]:
        return models[index] if models else None

    def log(index: int):
        faults = model(index)
        if file_log:
            if faults is None:
                return FileLogManager(directory(index))
            from repro.persist.faulty_log import FaultyFileLog

            return FaultyFileLog(directory(index), faults)
        if faults is None:
            return None
        from repro.wal.faulty_log import FaultyLog

        return FaultyLog(faults)

    sharded = ShardedSystem.build(
        shards,
        config_factory=lambda index: SystemConfig(
            cache=recommended_cache_config(store_backend)
        ),
        store_factory=lambda index: make_store(
            store_backend, directory(index), model=model(index)
        ),
        log_factory=log,
    )
    register_workload_functions(sharded.registry)
    if metrics is not None:
        for system in sharded.systems:
            system.attach_metrics(metrics)
    return sharded


def build_daemon(
    sharded: ShardedSystem,
    config: DaemonConfig,
    *,
    replication: Optional[ReplicationConfig] = None,
    witness: Optional[WitnessConfig] = None,
    backups: Optional[Sequence[Optional[FuzzyBackup]]] = None,
) -> ServeDaemon:
    """The (unstarted) daemon serving ``sharded`` in its role.

    ``witness`` makes it the witness of the primary that config names,
    ``replication`` a primary that gates acks on a witness's durable
    receipt, neither a standalone daemon.  Replication pairs exactly
    one recovery domain with one witness.
    """
    if witness is None:
        return ServeDaemon(
            sharded, config, backup=backups, replication=replication
        )
    if sharded.shards != 1:
        raise ValueError(
            f"a witness adopts one WAL stream; got {sharded.shards} shards"
        )
    from repro.replica.witness import WitnessDaemon

    return WitnessDaemon(
        sharded.systems[0],
        config,
        witness=witness,
        backup=backups[0] if backups else None,
    )
