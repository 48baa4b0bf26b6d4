"""The closed backend table (repro.storage.registry): name checks,
fault-injecting variants, error paths, the WAL each backend is served
with, and the threading of backend names through the kernel, persist,
torture, topology and live-fire layers."""

import os

import pytest

from repro.cache.config import CacheConfig, MultiObjectStrategy
from repro.domains.kvstore import KVPageStore, register_kv_functions
from repro.kernel.system import SystemConfig
from repro.kernel.torture import (
    TortureConfig, TortureHarness, flush_crash_sweep,
)
from repro.livefire import SCENARIOS, LiveFireHarness
from repro.persist import PersistentSystem
from repro.persist.faulty_log import FaultyFileLog
from repro.persist.file_log import FileLogManager
from repro.storage.atomic import LogStructuredInstall
from repro.storage.faults import FaultModel
from repro.storage.faultwrap import (
    FaultyFileStore,
    FaultyLogStructuredStore,
    FaultyStore,
)
from repro.storage.file_store import FileStableStore
from repro.storage.logstore import LogStructuredStableStore
from repro.storage.registry import (
    DURABLE_BACKENDS,
    check_backend,
    is_durable,
    make_log,
    make_store,
    recommended_cache_config,
    store_backends,
)
from repro.storage.stable_store import StableStore
from repro.storage.stats import IOStats
from repro.topology import build_systems
from repro.wal.faulty_log import FaultyLog
from repro.wal.log_manager import LogManager
from tests.conftest import physical


class TestMakeStore:
    def test_default_is_the_memory_backend(self):
        store = make_store()
        assert type(store) is StableStore

    def test_file_backend(self, tmp_path):
        store = make_store("file", str(tmp_path))
        assert type(store) is FileStableStore

    def test_logstore_backend(self, tmp_path):
        store = make_store("logstore", str(tmp_path))
        assert type(store) is LogStructuredStableStore

    def test_unknown_backend_names_the_known_ones(self):
        with pytest.raises(ValueError, match="file, logstore, memory"):
            make_store("papyrus")

    def test_durable_backend_requires_root(self):
        with pytest.raises(ValueError, match="requires a root"):
            make_store("logstore")

    def test_memory_backend_ignores_missing_root(self):
        assert make_store("memory") is not None

    def test_model_builds_the_faulty_variant(self, tmp_path):
        model = FaultModel()
        assert type(make_store("memory", model=model)) is FaultyStore
        assert (
            type(make_store("file", str(tmp_path / "f"), model=model))
            is FaultyFileStore
        )
        assert (
            type(make_store("logstore", str(tmp_path / "l"), model=model))
            is FaultyLogStructuredStore
        )

    def test_shared_stats_are_adopted(self, tmp_path):
        stats = IOStats()
        store = make_store("logstore", str(tmp_path), stats)
        assert store.stats is stats


class TestMakeLog:
    @pytest.mark.parametrize(
        "backend, plain, faulty",
        [
            ("memory", LogManager, FaultyLog),
            ("file", FileLogManager, FaultyFileLog),
            ("logstore", FileLogManager, FaultyFileLog),
        ],
    )
    @pytest.mark.parametrize("faulted", [False, True])
    def test_every_backend_gets_the_log_it_is_served_with(
        self, tmp_path, backend, plain, faulty, faulted
    ):
        root = str(tmp_path / "db") if is_durable(backend) else None
        stats = IOStats()
        model = FaultModel() if faulted else None
        log = make_log(backend, root, stats, model=model)
        assert type(log) is (faulty if faulted else plain)
        assert log.stats is stats
        if root is not None:
            assert log.path == os.path.join(root, "wal.log")

    def test_default_is_the_simulated_log(self):
        assert type(make_log()) is LogManager

    @pytest.mark.parametrize("backend", ["file", "logstore"])
    def test_durable_backend_requires_root(self, backend):
        with pytest.raises(ValueError, match="requires a root"):
            make_log(backend)

    def test_unknown_backend_names_the_known_ones(self):
        with pytest.raises(ValueError, match="file, logstore, memory"):
            make_log("papyrus")


class TestEveryBuilderServesTheFileWal:
    """A durable system, however it is built, forces into ``wal.log``."""

    @pytest.mark.parametrize("backend", ["file", "logstore"])
    def test_torture_harness(self, backend):
        harness = TortureHarness(TortureConfig(store_backend=backend))
        with harness._system(FaultModel(armed=False)) as (system, _):
            assert type(system.log) is FaultyFileLog

    def test_flush_crash_sweep(self):
        logs = []

        def drive(system):
            logs.append(system.log)
            system.execute(physical("x", b"x0"))

        flush_crash_sweep(CacheConfig, drive, "file")
        assert logs and all(type(log) is FileLogManager for log in logs)

    @pytest.mark.parametrize("backend", ["file", "logstore"])
    def test_build_systems(self, tmp_path, backend):
        sharded = build_systems(2, backend, str(tmp_path))
        try:
            for index, system in enumerate(sharded.systems):
                assert type(system.log) is FileLogManager
                assert system.log.path == str(
                    tmp_path / f"shard-{index}" / "wal.log"
                )
        finally:
            sharded.close()

    @pytest.mark.parametrize("backend", ["file", "logstore"])
    def test_live_fire_in_process(self, monkeypatch, tmp_path, backend):
        logs = []

        def capture(self, target, run_plan, outcome):
            logs.extend(system.log for system in target.sharded.systems)
            target.sharded.close()
            return outcome

        monkeypatch.setattr(LiveFireHarness, "_drive", capture)
        config = SCENARIOS["v4"].config(
            store_backend=backend, store_root=str(tmp_path)
        )
        LiveFireHarness("v4", config).run(0)
        assert logs and all(isinstance(log, FileLogManager) for log in logs)


class TestBackendNames:
    def test_backends_are_listed_sorted(self):
        assert store_backends() == ["file", "logstore", "memory"]

    @pytest.mark.parametrize("name", ["log", "log-structured", "nope"])
    def test_unknown_name_names_every_backend(self, name, tmp_path):
        # The former logstore aliases are unknown names like any other.
        known = r"\(known: file, logstore, memory\)"
        with pytest.raises(ValueError, match=known):
            make_store(name, str(tmp_path / "store"))
        with pytest.raises(ValueError, match=known):
            PersistentSystem.open(str(tmp_path / "db"), store_backend=name)
        with pytest.raises(ValueError, match=known):
            recommended_cache_config(name)
        with pytest.raises(ValueError, match=known):
            check_backend(name)

    @pytest.mark.parametrize(
        "name, durable", [("memory", False), ("file", True), ("logstore", True)]
    )
    def test_is_durable(self, name, durable):
        # The durable set is what ``serve --store`` offers and what
        # needs a root directory.
        assert check_backend(name) == name
        assert is_durable(name) is durable
        assert (name in DURABLE_BACKENDS) is durable


class TestRecommendedCacheConfig:
    def test_logstore_gets_atomic_batch_installs(self):
        config = recommended_cache_config("logstore")
        assert config.multi_object_strategy is MultiObjectStrategy.ATOMIC
        assert isinstance(config.mechanism, LogStructuredInstall)

    @pytest.mark.parametrize("backend", ["memory", "file"])
    def test_in_place_backends_keep_the_default(self, backend):
        config = recommended_cache_config(backend)
        assert not isinstance(config.mechanism, LogStructuredInstall)


class TestBackendThreading:
    @pytest.mark.parametrize("backend", ["file", "logstore"])
    def test_persistent_open_round_trip(self, tmp_path, backend):
        dbdir = str(tmp_path / "db")
        system = PersistentSystem.open(
            dbdir,
            config=SystemConfig(cache=recommended_cache_config(backend)),
            domains=[register_kv_functions],
            store_backend=backend,
        )
        kv = KVPageStore(system)
        kv.put("k", "v1")
        kv.put("k", "v2")
        system.log.force()
        system.flush_all()
        again = PersistentSystem.open(
            dbdir,
            config=SystemConfig(cache=recommended_cache_config(backend)),
            domains=[register_kv_functions],
            store_backend=backend,
        )
        assert KVPageStore(again).get("k") == "v2"

    def test_persistent_open_refuses_the_memory_store(self, tmp_path):
        # A volatile store under a durable wal.log: a checkpoint would
        # truncate the records of writes the store then forgets.
        dbdir = tmp_path / "db"
        with pytest.raises(ValueError, match="'memory' is not durable"):
            PersistentSystem.open(str(dbdir), store_backend="memory")
        assert not dbdir.exists()
