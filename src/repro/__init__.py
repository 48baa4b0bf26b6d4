"""repro — a reproduction of Lomet & Tuttle's *Logical Logging to
Extend Recovery to New Domains* (SIGMOD 1999).

The library implements general redo recovery with logical log
operations: the installation graph and explainable-state theory, the
write graph W of [8], the paper's refined write graph rW, cache-manager
identity writes, and SI/rSI-based REDO tests — plus the substrates
(stable store, WAL, cache manager) and the paper's motivating recovery
domains (application state, file systems, B-trees).

Quickstart::

    from repro import RecoverableSystem, Operation, OpKind

    system = RecoverableSystem()
    system.execute(Operation(
        "copy(a,b)", OpKind.LOGICAL,
        reads={"a"}, writes={"b"}, fn="copy", params=("a", "b"),
    ))
    system.crash()
    system.recover()
"""

from repro.common import ObjectId, StateId
from repro.common.errors import DegradedModeError
from repro.core import (
    OpKind,
    Operation,
    TOMBSTONE,
    identity_write,
    FunctionRegistry,
    default_registry,
    History,
    InstallationGraph,
    WriteWritePolicy,
    WriteGraphEngine,
    make_engine,
    BatchWriteGraph,
    IncrementalWriteGraph,
    RefinedWriteGraph,
    RedoTest,
    RedoAll,
    VsiRedoTest,
    GeneralizedRedoTest,
    RecoveryReport,
)
from repro.cache import CacheConfig, GraphMode, MultiObjectStrategy
from repro.storage import (
    IOStats,
    StableStore,
    ShadowInstall,
    FlushTransaction,
    LogStructuredInstall,
    RawMultiWrite,
    FuzzyBackup,
    FaultKind,
    FaultModel,
    FaultSpec,
    FaultyStore,
    FaultyFileStore,
    FaultyLogStructuredStore,
    FuzzRates,
    FileStableStore,
    LogStructuredStableStore,
    StoreBackend,
    make_store,
    recommended_cache_config,
    register_store_backend,
    store_backends,
)
from repro.obs import (
    MetricsRegistry,
    NULL_OBS,
    Span,
    dump_jsonl,
    load_jsonl,
    render_prometheus,
)
from repro.kernel import (
    RecoverableSystem,
    SystemConfig,
    SystemHealth,
    CrashInjector,
    verify_recovered,
    VerificationError,
    FailureReport,
    RecoverySupervisor,
    SupervisorConfig,
    TortureConfig,
    TortureHarness,
    TortureReport,
)
from repro.replica import (
    EpochStore,
    ReplicationConfig,
    ReplicationSender,
    WitnessConfig,
    WitnessDaemon,
)
from repro.serve import (
    BackpressureError,
    BadRequestError,
    DaemonClient,
    DaemonConfig,
    DeadlineExceededError,
    FencedError,
    RetryPolicy,
    ServeDaemon,
    ServeError,
    ServerFailedError,
    ServerUnavailableError,
    ServingWatchdog,
    ShuttingDownError,
    WatchdogConfig,
)
from repro.shard import (
    CrossShardError,
    FenceAudit,
    ShardRouter,
    ShardedSystem,
)
from repro.livefire import SCENARIOS, LiveFireConfig, LiveFireHarness

__version__ = "4.10.0"

__all__ = [
    "ObjectId",
    "StateId",
    "OpKind",
    "Operation",
    "TOMBSTONE",
    "identity_write",
    "FunctionRegistry",
    "default_registry",
    "History",
    "InstallationGraph",
    "WriteWritePolicy",
    "WriteGraphEngine",
    "make_engine",
    "BatchWriteGraph",
    "IncrementalWriteGraph",
    "RefinedWriteGraph",
    "RedoTest",
    "RedoAll",
    "VsiRedoTest",
    "GeneralizedRedoTest",
    "RecoveryReport",
    "CacheConfig",
    "GraphMode",
    "MultiObjectStrategy",
    "IOStats",
    "StableStore",
    "ShadowInstall",
    "FlushTransaction",
    "LogStructuredInstall",
    "RawMultiWrite",
    "FuzzyBackup",
    "FaultKind",
    "FaultModel",
    "FaultSpec",
    "FaultyStore",
    "FaultyFileStore",
    "FaultyLogStructuredStore",
    "FuzzRates",
    "FileStableStore",
    "LogStructuredStableStore",
    "StoreBackend",
    "make_store",
    "recommended_cache_config",
    "register_store_backend",
    "store_backends",
    "DegradedModeError",
    "MetricsRegistry",
    "NULL_OBS",
    "Span",
    "dump_jsonl",
    "load_jsonl",
    "render_prometheus",
    "RecoverableSystem",
    "SystemConfig",
    "SystemHealth",
    "CrashInjector",
    "verify_recovered",
    "VerificationError",
    "FailureReport",
    "RecoverySupervisor",
    "SupervisorConfig",
    "TortureConfig",
    "TortureHarness",
    "TortureReport",
    "BackpressureError",
    "BadRequestError",
    "DaemonClient",
    "DaemonConfig",
    "DeadlineExceededError",
    "LiveFireConfig",
    "LiveFireHarness",
    "SCENARIOS",
    "RetryPolicy",
    "ServeDaemon",
    "ServeError",
    "ServerFailedError",
    "ServerUnavailableError",
    "ServingWatchdog",
    "ShardRouter",
    "EpochStore",
    "FencedError",
    "ReplicationConfig",
    "ReplicationSender",
    "WitnessConfig",
    "WitnessDaemon",
    "ShardedSystem",
    "CrossShardError",
    "FenceAudit",
    "ShuttingDownError",
    "WatchdogConfig",
    "__version__",
]
