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

from repro._exports import lazy_exports

__version__ = "14.0.0"

__all__, __getattr__ = lazy_exports(__name__, {
    ".common": ("ObjectId", "StateId"),
    ".common.errors": ("DegradedModeError",),
    ".core": (
        "OpKind", "Operation", "TOMBSTONE", "identity_write",
        "FunctionRegistry", "default_registry", "History",
        "InstallationGraph", "WriteWritePolicy", "WriteGraphEngine",
        "make_engine", "BatchWriteGraph", "IncrementalWriteGraph",
        "RefinedWriteGraph", "RedoTest", "RedoAll", "VsiRedoTest",
        "GeneralizedRedoTest", "RecoveryReport",
    ),
    ".cache": ("CacheConfig", "GraphMode", "MultiObjectStrategy"),
    ".storage": (
        "IOStats", "StableStore", "ShadowInstall", "FlushTransaction",
        "LogStructuredInstall", "RawMultiWrite", "FuzzyBackup", "FaultKind",
        "FaultModel", "FaultSpec", "FaultyStore", "FaultyFileStore",
        "FaultyLogStructuredStore", "FuzzRates", "FileStableStore",
        "LogStructuredStableStore", "make_log", "make_store",
        "recommended_cache_config", "store_backends",
    ),
    ".obs": (
        "MetricsRegistry", "NULL_OBS", "Span", "dump_jsonl", "load_jsonl",
        "render_prometheus",
    ),
    ".kernel": (
        "RecoverableSystem", "SystemConfig", "SystemHealth",
        "verify_recovered", "VerificationError", "FailureReport",
        "RecoverySupervisor", "SupervisorConfig", "TortureConfig",
        "TortureHarness", "TortureReport",
    ),
    ".replica": (
        "EpochStore", "ReplicationConfig", "ReplicationSender",
        "WitnessConfig", "WitnessDaemon",
    ),
    ".serve": (
        "BackpressureError", "BadRequestError", "DaemonClient",
        "DaemonConfig", "DeadlineExceededError", "FencedError", "RetryPolicy",
        "ServeDaemon", "ServeError", "ServerFailedError",
        "ServerUnavailableError", "ShuttingDownError",
    ),
    ".shard": (
        "CrossShardError", "FenceAudit", "ShardRouter", "ShardedSystem",
    ),
    ".livefire": ("SCENARIOS", "LiveFireConfig", "LiveFireHarness"),
})
__all__.append("__version__")
