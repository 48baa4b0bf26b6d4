"""The public surface: ``__all__`` stays resolvable and complete."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import repro
import repro.serve as serve
import repro.storage as storage


class TestTopLevel:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_no_duplicates(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_serving_surface_exported(self):
        # The operable-daemon surface is part of the package API.
        for name in (
            "ServeDaemon", "DaemonClient", "DaemonConfig", "RetryPolicy",
            "LiveFireConfig", "LiveFireHarness", "SCENARIOS",
            "ServeError", "BackpressureError", "DeadlineExceededError",
            "ServerUnavailableError", "ShuttingDownError",
            "ServerFailedError", "BadRequestError",
            "SystemHealth", "DegradedModeError",
        ):
            assert name in repro.__all__, name

    def test_sharding_surface_exported(self):
        # The sharded-serving surface (PR 7) is part of the package API.
        for name in (
            "ShardRouter", "ShardedSystem", "CrossShardError", "FenceAudit",
        ):
            assert name in repro.__all__, name

    def test_version_is_pep440ish(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3 and all(p.isdigit() for p in parts)

    def test_version_agrees_with_pyproject(self):
        import pathlib
        import re

        text = (
            pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
        ).read_text(encoding="utf-8")
        declared = re.search(r'(?m)^version\s*=\s*"([^"]+)"', text).group(1)
        assert declared == repro.__version__

    def test_storage_surface_exported(self):
        # The storage surface is part of the package API: the
        # backends, their fault-injecting variants, and the factory
        # that selects among them by name.
        for name in (
            "StableStore", "FileStableStore", "LogStructuredStableStore",
            "FaultyStore", "FaultyFileStore", "FaultyLogStructuredStore",
            "LogStructuredInstall", "make_log", "make_store",
            "store_backends", "recommended_cache_config",
        ):
            assert name in repro.__all__, name

    def test_replication_surface_exported(self):
        # The primary/witness surface (PR 9): the epoch sidecar and the
        # sender/witness pair (torture v5 is a row of SCENARIOS).
        for name in (
            "EpochStore", "FencedError", "ReplicationConfig",
            "ReplicationSender", "WitnessConfig", "WitnessDaemon",
        ):
            assert name in repro.__all__, name


class TestStorageModule:
    def test_all_names_resolve(self):
        for name in storage.__all__:
            assert getattr(storage, name, None) is not None, name

    def test_builtin_backends_registered(self):
        assert storage.store_backends() == ["file", "logstore", "memory"]


# Spelled in pieces so that a repo-wide grep for the removed names
# finds only migration notes, never this audit.
REMOVED_MODULES = [
    "repro.persist." + "file_store",
    "repro.persist." + "faulty",
    "repro.serve." + "sharded",
    # 4.0.0: the three live-fire harnesses are one, repro.livefire.
    "repro.serve." + "livefire",
    "repro.serve." + "livefire_shard",
    "repro.replica." + "livefire",
    # 6.0.0: one crash model; a torn flush is a FaultModel crash point.
    "repro.kernel." + "crash",
    # 8.0.0: the event stream needs no tracer of its own.
    "repro.analysis." + "trace",
    # 9.0.0: a served shard drives its own recovery ladder.
    "repro.serve." + "watchdog",
]
REMOVED_NAMES = ["Sharded" + "ServeDaemon", "Sharded" + "DaemonConfig"] + [
    prefix + "LiveFire" + suffix
    for prefix in ("Shard", "Replica")
    for suffix in ("Config", "Harness", "Outcome", "Report")
] + [
    # 4.7.0: both harnesses report through TortureReport.
    "LiveFire" + "Report",
    # 5.0.0: DaemonConfig.supervisor; one LRU access clock.
    "Watchdog" + "Config",
    "Eviction" + "Policy",
    "FIFO" + "Eviction",
    # 5.2.0: the store backends are a closed table.
    "Store" + "Backend",
    "register_store" + "_backend",
    "resolve" + "_backend",
    "DEFAULT" + "_BACKEND",
    # 6.0.0: one crash model.
    "Crash" + "Injector",
    "Crash" + "Now",
    # 8.0.0: a list subscribed to the registry is the event sink.
    "Trace" + "Event",
    "Tra" + "cer",
    # 9.0.0: one recovery driver per served shard; nothing only the
    # tests reach.
    "Serving" + "Watchdog",
    "Log" + "Breakdown",
    "analyze" + "_log",
    "engine" + "_summary",
]
# 4.7.0: one run path, one point counter, one sweep, one fuzz; the
# injector raises the post-damage crash.  (module, attribute path)
REMOVED_ATTRIBUTES = [
    ("repro.kernel.torture", "TortureHarness." + name)
    for name in ("count_points", "recovery_points", "sweep_recovery",
                 "fuzz_recovery", "_one_run", "_one_recovery_run")
] + [
    ("repro.kernel.torture", "SWEEP_KINDS"),
    ("repro.kernel.torture", "RECOVERY_SWEEP_KINDS"),
    # 13.0.0: the flush sweep is the harness's flush row.
    ("repro.kernel.torture", "flush_crash_sweep"),
    ("repro.storage.faults", "FaultModel.crash_if_demanded"),
    ("repro.storage.faultwrap", "WRITE_DAMAGE"),
    ("repro.__main__", "_report_livefire"),
    ("repro.__main__", "_report_torture"),
] + [
    # 5.0.0: values no caller outside the tests set are constants, and
    # the code paths only those values reached are gone.
    ("repro.kernel.supervisor", "SupervisorConfig." + name)
    for name in ("base_delay", "max_delay", "jitter", "sleep", "clock",
                 "rng", "deadline", "allow_degraded")
] + [
    ("repro.kernel.supervisor", "RecoverySupervisor._pause"),
    ("repro.kernel.supervisor", "FailureReport.deadline"),
    ("repro.kernel.system", "SystemConfig.fresh_cache_config"),
    ("repro.kernel.system", "SystemConfig.store_backend"),
    ("repro.kernel.system", "SystemConfig.store_root"),
    ("repro.cache.policies", "LRUEviction.victims"),
    ("repro.replica.sender", "ReplicationConfig.max_batch_records"),
    ("repro.kernel.torture", "TortureConfig.p_force"),
    ("repro.kernel.torture", "TortureConfig.supervisor_attempts"),
    ("repro.storage.faults", "FuzzRates.max_times"),
    ("repro.storage.faults", "FuzzRates.crash_given_fault"),
] + [
    # 5.2.0: one prefix force (no second group commit) and a closed
    # table of store backends.
    ("repro.kernel.system", "SystemConfig.group" + "_commit"),
    ("repro.storage.stats", "IOStats.log_force" + "_saves"),
] + [
    ("repro.storage.registry", name)
    for name in ("_REGISTRY", "_ALIASES", "_register_builtins")
] + [
    # 5.3.0: the WAL frame is the wire's record format; no per-record
    # envelope, and nothing re-frames an adopted record.
    ("repro.replica.wire", name)
    for name in ("encode_records", "decode_records", "shippable",
                 "SHIPPED_RECORD_KINDS")
] + [
    ("repro.persist.file_log", "FileLogManager._frame"),
] + [
    # 6.0.0: no store hook tears a flush, and no flag claims a mechanism
    # can tear; the flush crash sweep measures that by behaviour.
    ("repro.storage.stable_store", "StableStore.mid_write" + "_hook"),
    ("repro.storage.atomic", "AtomicFlushMechanism.tear" + "able"),
    ("repro.storage.atomic", "RawMultiWrite.tear" + "able"),
] + [
    # 7.0.0: the registry pairs every store with its WAL.
    ("repro.persist.database", "PersistentSystem.last_open" + "_report"),
] + [
    # 8.0.0: nothing that only the tests reach.
    ("repro.kernel.system", "RecoverableSystem.attach" + "_tracer"),
    ("repro.cache.cache_manager", "CacheManager.cached" + "_objects"),
    ("repro.kernel.supervisor", "SupervisorConfig.allow_media" + "_restore"),
    ("repro.storage.logstore", "LogStructuredStableStore.auto" + "_compact"),
    ("repro.storage.logstore",
     "LogStructuredStableStore.compaction" + "_hook"),
    ("repro.analysis.logstats", "_hist" + "_quantile"),
] + [
    # 9.0.0: nothing that only the tests reach.
    ("repro.analysis.logstats", "_bump"),
    ("repro.storage.stats", "IOStats.total_device" + "_writes"),
    ("repro.storage.faults", "FaultKind.FSYNC" + "_FAIL"),
    ("repro.storage.faults", "FaultKind." + "SLOW"),
] + [
    # 10.0.0: media repair restores the whole backup image.
    ("repro.storage.backup", "FuzzyBackup.restore" + "_object"),
    ("repro.storage.stable_store", "StableStore.restore" + "_version"),
    ("repro.storage.faultwrap", "FaultyStore.restore" + "_version"),
] + [
    # 11.0.0: the witness installs through the write graph, and only
    # tests read the dirty objects off the cache manager.
    ("repro.replica.witness", "WitnessDaemon._materialize" + "_locked"),
    ("repro.cache.cache_manager", "CacheManager.dirty" + "_objects"),
]


class TestRemovedPaths:
    """Removed modules and names (3.0.0, 4.0.0, 4.7.0, 5.0.0, 5.2.0,
    5.3.0, 6.0.0, 7.0.0, 8.0.0, 9.0.0, 10.0.0, 11.0.0) are gone, not
    aliased."""

    def test_recover_takes_no_media_redo_start(self):
        # 11.0.0: a media restore is a pending marker plus the backup.
        from repro.kernel.system import RecoverableSystem

        parameters = inspect.signature(RecoverableSystem.recover).parameters
        assert tuple(parameters) == ("self", "quarantine_backup")

    @pytest.mark.parametrize("module", REMOVED_MODULES)
    def test_module_is_gone(self, module):
        saved = sys.modules.pop(module, None)
        try:
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)
        finally:
            if saved is not None:
                sys.modules[module] = saved

    @pytest.mark.parametrize(
        "name", ["FaultyStore", "_checksum", "_damaged_value", "_MOVED"]
    )
    def test_faults_no_longer_forwards_moved_names(self, name):
        from repro.storage import faults

        assert not hasattr(faults, name), name

    @pytest.mark.parametrize("name", REMOVED_NAMES)
    def test_removed_names_are_gone(self, name):
        for package in (
            repro, serve, repro.replica, repro.livefire, repro.cache,
            storage, repro.storage.registry, repro.analysis,
        ):
            assert name not in getattr(package, "__all__", ())
            assert not hasattr(package, name)

    @pytest.mark.parametrize("module, path", REMOVED_ATTRIBUTES)
    def test_removed_attributes_are_gone(self, module, path):
        *owners, name = path.split(".")
        target = importlib.import_module(module)
        for owner in owners:
            target = getattr(target, owner)
        assert not hasattr(target, name), f"{module}.{path}"

    def test_no_package_init_imports_the_harness(self):
        # The harness sits above serve and replica; neither depends on it.
        for package in (serve, repro.replica):
            assert not hasattr(package, "LiveFireHarness")

    def test_canonical_homes_still_export(self):
        assert repro.persist.FileStableStore is storage.FileStableStore
        assert repro.persist.FaultyFileStore is storage.FaultyFileStore
        assert storage.FaultyStore is not None

    def test_no_internal_references(self):
        package_root = Path(repro.__file__).parent
        gone = re.compile(
            "|".join(
                re.escape(name) + r"\b"
                for name in REMOVED_MODULES + REMOVED_NAMES
            )
        )
        offenders = []
        for path in package_root.rglob("*.py"):
            for lineno, line in enumerate(
                path.read_text().splitlines(), start=1
            ):
                if gone.search(line):
                    offenders.append(f"{path}:{lineno}: {line.strip()}")
        assert not offenders, "\n".join(offenders)


class TestServeModule:
    def test_all_names_resolve(self):
        for name in serve.__all__:
            assert getattr(serve, name, None) is not None, name

    def test_errors_all_carry_codes(self):
        from repro.serve import errors
        from repro.serve.protocol import ERROR_CODES

        for name in serve.__all__:
            obj = getattr(serve, name)
            if isinstance(obj, type) and issubclass(obj, errors.ServeError):
                assert obj.code in ERROR_CODES, name


# Every value a caller can set on a ``*Config`` dataclass, and on the
# other surfaces 5.0.0 narrowed.  A knob earns its place when two
# callers outside the tests need different values; adding one is a
# reviewed edit of this table.
OPTION_SURFACE = {
    "repro.cache.config.CacheConfig": (
        "graph_mode", "multi_object_strategy", "mechanism",
        "log_installations", "capacity", "victim_policy",
    ),
    "repro.kernel.supervisor.SupervisorConfig": ("max_attempts",),
    "repro.kernel.system.SystemConfig": (
        "cache", "redo_test", "checkpoint_every_bytes",
        "truncate_on_checkpoint",
    ),
    "repro.kernel.torture.TortureConfig": (
        "objects", "operations", "object_size", "p_delete", "p_purge",
        "workload_seed", "store_backend", "cache_factory",
    ),
    "repro.livefire.LiveFireConfig": (
        "clients", "requests_per_client", "objects_per_client", "p_get",
        "p_cross", "rates", "zombie_ratio", "shards", "store_backend",
        "store_root",
    ),
    "repro.replica.sender.ReplicationConfig": (
        "epoch_root", "ack_timeout_s", "retry_after_ms",
    ),
    "repro.replica.witness.WitnessConfig": (
        "primary_host", "primary_port", "redo_every_records",
        "reconnect_delay_s", "epoch_root",
    ),
    "repro.serve.server.DaemonConfig": (
        "host", "port", "http_port", "max_queue", "default_deadline_ms",
        "retry_after_ms", "supervisor", "flightrec_path", "allow_chaos",
    ),
    "repro.workloads.generator.LogicalWorkloadConfig": (
        "objects", "operations", "object_size", "w_physical", "w_touch",
        "w_combine", "w_derive", "p_delete",
    ),
    "repro.storage.faults.FuzzRates": (
        "transient", "torn", "corrupt", "fsync_lie", "crash",
    ),
}
CALL_SURFACE = {
    "repro.common.retry.retry_transient": ("fn", "stats", "what"),
    "repro.wal.latency.LatencyLog": ("force_latency_s", "stats"),
    "repro.wal.log_manager.LogManager": ("stats",),
    "repro.storage.registry.make_store": ("backend", "root", "stats", "model"),
    "repro.storage.registry.make_log": ("backend", "root", "stats", "model"),
    "repro.storage.logstore.LogStructuredStableStore": (
        "root", "stats", "segment_bytes", "compact_ratio",
        "compact_min_bytes",
    ),
    "repro.topology.build_systems": (
        "shards", "store_backend", "root", "models", "metrics",
    ),
    "repro.replica.witness.WitnessDaemon": ("system", "config", "witness"),
    # 14.0.0: a witness's redo cycle materializes through its own verb.
    "repro.cache.cache_manager.CacheManager.install_unexposed": ("self",),
    "repro.cache.cache_manager.CacheManager.materialize": ("self",),
    # 12.0.0: the rSI test always confirms with the vSI check.
    "repro.core.redo.GeneralizedRedoTest": (),
}


def _resolve(dotted):
    module, name = dotted.rsplit(".", 1)
    try:
        return getattr(importlib.import_module(module), name)
    except ModuleNotFoundError:  # a method: resolve its class
        return getattr(_resolve(module), name)


class TestOptionSurface:
    @pytest.mark.parametrize("dotted", sorted(OPTION_SURFACE))
    def test_config_fields(self, dotted):
        fields = tuple(f.name for f in dataclasses.fields(_resolve(dotted)))
        assert fields == OPTION_SURFACE[dotted]

    @pytest.mark.parametrize("dotted", sorted(CALL_SURFACE))
    def test_call_parameters(self, dotted):
        parameters = tuple(inspect.signature(_resolve(dotted)).parameters)
        assert parameters == CALL_SURFACE[dotted]

    def test_every_config_dataclass_is_listed(self):
        found = set()
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name == "repro.__main__":
                continue
            module = importlib.import_module(info.name)
            for name, obj in vars(module).items():
                if (
                    name.endswith("Config")
                    and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__
                ):
                    found.add(f"{module.__name__}.{name}")
        assert found == {
            dotted for dotted in OPTION_SURFACE if dotted.endswith("Config")
        }
