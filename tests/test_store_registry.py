"""The pluggable-backend registry (repro.storage.registry): name
resolution, aliases, fault-injecting variants, error paths, and the
threading of backend names through the kernel and persist layers."""

import pytest

from repro.cache.config import MultiObjectStrategy
from repro.domains.kvstore import KVPageStore, register_kv_functions
from repro.kernel.system import SystemConfig
from repro.persist import PersistentSystem
from repro.storage import registry as registry_module
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
    StoreBackend,
    make_store,
    recommended_cache_config,
    register_store_backend,
    resolve_backend,
    store_backends,
)
from repro.storage.stable_store import StableStore


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

    @pytest.mark.parametrize("alias", ["log", "log-structured"])
    def test_aliases_resolve_to_logstore(self, alias, tmp_path):
        store = make_store(alias, str(tmp_path))
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

    def test_backend_kwargs_pass_through(self, tmp_path):
        store = make_store(
            "logstore", str(tmp_path), segment_bytes=128, auto_compact=False
        )
        assert store.segment_bytes == 128
        assert store.auto_compact is False

    def test_shared_stats_are_adopted(self, tmp_path):
        from repro.storage.stats import IOStats

        stats = IOStats()
        store = make_store("logstore", str(tmp_path), stats)
        assert store.stats is stats


class TestRegistry:
    def test_builtins_are_listed_sorted(self):
        assert store_backends() == ["file", "logstore", "memory"]

    def test_resolve_returns_the_spec(self):
        spec = resolve_backend("logstore")
        assert spec.name == "logstore"
        assert spec.requires_root

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_store_backend(
                StoreBackend(
                    name="memory",
                    description="",
                    requires_root=False,
                    factory=lambda root, stats, **kw: StableStore(stats),
                )
            )

    def test_alias_collision_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_store_backend(
                StoreBackend(
                    name="log",
                    description="",
                    requires_root=False,
                    factory=lambda root, stats, **kw: StableStore(stats),
                )
            )

    def test_registry_is_open_to_new_backends(self):
        register_store_backend(
            StoreBackend(
                name="test-null",
                description="a test backend",
                requires_root=False,
                factory=lambda root, stats, **kw: StableStore(stats),
            )
        )
        try:
            assert type(make_store("test-null")) is StableStore
            with pytest.raises(ValueError, match="no fault-injecting"):
                make_store("test-null", model=FaultModel())
        finally:
            registry_module._REGISTRY.pop("test-null")


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
