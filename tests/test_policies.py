"""Tests for cache policies (repro.cache.policies) and their
integration: capacity eviction and identity-write victim selection."""

import pytest

from repro import (
    CacheConfig,
    Operation,
    OpKind,
    RecoverableSystem,
    SystemConfig,
    verify_recovered,
)
from repro.cache.policies import LRUEviction, PeelFirstSorted, PeelHottest
from repro.workloads import register_workload_functions
from tests.conftest import physical


class TestLRUEviction:
    def test_orders_by_recency(self):
        policy = LRUEviction()
        for obj in ("a", "b", "c"):
            policy.touch(obj)
        policy.touch("a")  # a is now hottest
        assert sorted("abc", key=policy.last_access) == ["b", "c", "a"]

    def test_forget(self):
        policy = LRUEviction()
        policy.touch("a")
        policy.forget("a")
        assert policy.last_access("a") == 0

    def test_untouched_objects_coldest(self):
        policy = LRUEviction()
        policy.touch("a")
        assert min(["a", "ghost"], key=policy.last_access) == "ghost"


class TestVictimPolicies:
    def test_sorted_peels_lexicographic(self):
        assert PeelFirstSorted().peel({"zz", "aa"}) == "aa"

    def test_hottest_peels_most_recent(self):
        heat = LRUEviction()
        heat.touch("cold")
        heat.touch("hot")
        assert PeelHottest().peel({"cold", "hot"}, heat) == "hot"

    def test_hottest_without_heat_falls_back(self):
        assert PeelHottest().peel({"b", "a"}) == "a"


class TestCapacityEnforcement:
    def test_cache_stays_within_capacity(self):
        config = SystemConfig(cache=CacheConfig(capacity=6))
        system = RecoverableSystem(config)
        for index in range(30):
            system.execute(physical(f"o{index}", b"v" * 32))
        assert len(system.cache) <= 6

    def test_installs_when_everything_dirty(self):
        # Capacity 3, four dirty objects: enforcement must purge to
        # create clean entries before evicting.
        config = SystemConfig(cache=CacheConfig(capacity=3))
        system = RecoverableSystem(config)
        for index in range(8):
            system.execute(physical(f"o{index}", b"v"))
        assert len(system.cache) <= 3
        assert system.stats.flushes > 0

    def test_evicted_objects_read_through(self):
        config = SystemConfig(cache=CacheConfig(capacity=4))
        system = RecoverableSystem(config)
        for index in range(10):
            system.execute(physical(f"o{index}", bytes([index])))
        for index in range(10):
            assert system.read(f"o{index}") == bytes([index])

    def test_capacity_system_recovers(self):
        config = SystemConfig(cache=CacheConfig(capacity=4))
        system = RecoverableSystem(config)
        register_workload_functions(system.registry)
        from repro.workloads import LogicalWorkload, LogicalWorkloadConfig

        workload = LogicalWorkload(
            LogicalWorkloadConfig(objects=8, operations=40, object_size=32),
            seed=2,
        )
        for op in workload.operations():
            system.execute(op)
        system.log.force()
        system.crash()
        system.recover()
        verify_recovered(system)

    def test_lru_evicts_coldest(self):
        config = SystemConfig(cache=CacheConfig(capacity=3))
        system = RecoverableSystem(config)
        for obj in ("a", "b", "c"):
            system.execute(physical(obj, b"v"))
        system.flush_all()
        system.read("a")  # heat a; b is now coldest
        system.execute(physical("d", b"v"))  # forces one eviction
        assert len(system.cache) <= 3
        assert system.cache.entry("a") is not None
        assert system.cache.entry("b") is None

    def test_systems_sharing_a_config_keep_their_own_clock(self):
        # One SystemConfig, two systems: each evicts by its own
        # accesses, never by the other's.
        config = SystemConfig(cache=CacheConfig(capacity=2))
        a, b = RecoverableSystem(config), RecoverableSystem(config)
        a.execute(physical("x", b"v"))
        a.execute(physical("y", b"v"))
        a.flush_all()
        for obj in ("x", "y", "x"):
            a.read(obj)
        b.execute(physical("y", b"w"))
        b.read("y")
        a.execute(physical("z", b"v"))  # forces one eviction
        assert a.cache.entry("x") is not None
        assert a.cache.entry("y") is None


class TestHotVictimIntegration:
    def _pair_system(self, victim_policy):
        system = RecoverableSystem(
            SystemConfig(cache=CacheConfig(victim_policy=victim_policy))
        )
        system.registry.register(
            "pair2", lambda reads: {"hot": b"H", "cold": b"C"}
        )
        return system

    def test_hottest_policy_flushes_cold_object(self):
        system = self._pair_system(PeelHottest())
        system.execute(
            Operation(
                "pair2", OpKind.LOGICAL, reads=set(),
                writes={"hot", "cold"}, fn="pair2",
            )
        )
        system.read("hot")  # make it hot
        system.purge()
        # The hot object was peeled (identity write, stays dirty in
        # cache); the cold one was flushed.
        assert system.store.contains("cold")
        assert not system.store.contains("hot")
        # Recoverability unaffected.
        system.log.force()
        system.crash()
        system.recover()
        verify_recovered(system)

    def test_sorted_policy_deterministic(self):
        system = self._pair_system(PeelFirstSorted())
        system.execute(
            Operation(
                "pair2", OpKind.LOGICAL, reads=set(),
                writes={"hot", "cold"}, fn="pair2",
            )
        )
        system.purge()
        # 'cold' sorts first, so it is peeled; 'hot' is flushed.
        assert system.store.contains("hot")
        assert not system.store.contains("cold")
