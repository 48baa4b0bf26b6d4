"""Tests for the cache manager (repro.cache.cache_manager): execution,
WAL enforcement, installation, rSI advancement, eviction, checkpoints."""

import pytest

from repro.cache import CacheConfig, CacheManager, GraphMode, MultiObjectStrategy
from repro.common.errors import CacheError
from repro.core.functions import default_registry
from repro.core.operation import Operation, OpKind, delete_object
from repro.storage import IOStats, ShadowInstall, StableStore
from repro.wal.log_manager import LogManager
from repro.wal.records import CheckpointRecord, InstallationRecord, OperationRecord


def _physical(obj, data):
    return Operation(
        f"wp({obj})",
        OpKind.PHYSICAL,
        reads=set(),
        writes={obj},
        payload={obj: data},
    )


def _copy(src, dst):
    return Operation(
        f"cp({src},{dst})",
        OpKind.LOGICAL,
        reads={src},
        writes={dst},
        fn="copy",
        params=(src, dst),
    )


def _cm(config=None):
    stats = IOStats()
    store = StableStore(stats)
    log = LogManager(stats)
    cm = CacheManager(store, log, default_registry(), config, stats)
    return cm, store, log, stats


class TestExecute:
    def test_execute_applies_and_logs(self):
        cm, store, log, stats = _cm()
        op = _physical("x", b"v")
        writes = cm.execute(op)
        assert writes == {"x": b"v"}
        assert op.lsi > 0
        assert cm.read_object("x") == b"v"
        assert cm.vsi_of("x") == op.lsi
        assert stats.log_records == 1

    def test_read_through_populates_cache(self):
        cm, store, log, stats = _cm()
        store.write("x", b"disk", 1)
        assert cm.read_object("x") == b"disk"
        assert stats.object_reads == 1
        cm.read_object("x")  # now cached
        assert stats.object_reads == 1

    def test_writeset_mismatch_detected(self):
        cm, store, log, stats = _cm()
        registry = cm.registry
        registry.register("rogue", lambda reads: {"y": b"v"})
        op = Operation(
            "rogue", OpKind.LOGICAL, reads=set(), writes={"x"}, fn="rogue"
        )
        with pytest.raises(CacheError, match="declared writeset"):
            cm.execute(op)

    @pytest.mark.parametrize(
        "produced", [bytearray(b"v"), type("Vault", (dict,), {})(a=1), [1j]]
    )
    def test_computed_value_outside_the_codec_universe_leaves_no_record(
        self, produced
    ):
        """A transform *returning* what no store can hold fails at
        execute — not at the flush, long after the acknowledgement."""
        cm, store, log, stats = _cm()
        cm.registry.register("alien", lambda reads: {"x": produced})
        cm.execute(_physical("y", b"fine"))
        op = Operation(
            "alien", OpKind.LOGICAL, reads=set(), writes={"x"}, fn="alien"
        )
        with pytest.raises(CacheError, match="cannot be stored"):
            cm.execute(op)
        assert op.lsi == 0 and stats.log_records == 1
        assert sorted(cm.dirty_table.snapshot()) == ["y"]
        assert len(cm.engine) == 1
        assert cm.read_object("x") is None
        assert cm.flush_all() == 1

    def test_dirty_table_tracks_first_writer(self):
        cm, store, log, stats = _cm()
        first = _physical("x", b"1")
        second = _physical("x", b"2")
        cm.execute(first)
        cm.execute(second)
        assert cm.dirty_table.rsi_of("x") == first.lsi


class TestWalEnforcement:
    def test_purge_forces_log_prefix(self):
        cm, store, log, stats = _cm()
        op = _physical("x", b"v")
        cm.execute(op)
        assert not log.is_stable(op.lsi)
        assert cm.purge()
        assert log.is_stable(op.lsi)
        assert store.read("x").value == b"v"

    def test_notx_blind_writer_forced(self):
        """Installing a node whose Notx is justified by a later blind
        writer must force that writer's record too, else a crash loses
        the only way to recover the unflushed object."""
        cm, store, log, stats = _cm()
        first = _physical("x", b"old")
        reader = _copy("x", "y")
        blind = _physical("x", b"new")
        for op in (first, reader, blind):
            cm.execute(op)
        # Install until 'first' is installed (its node has x in Notx).
        cm.purge()
        cm.purge()
        assert log.is_stable(blind.lsi)


class TestInstallation:
    def test_install_marks_clean_and_advances(self):
        cm, store, log, stats = _cm()
        op = _physical("x", b"v")
        cm.execute(op)
        cm.flush_all()
        assert len(cm.dirty_table) == 0
        entry = cm.entry("x")
        assert entry is not None and not entry.dirty
        assert store.read("x").vsi == op.lsi

    def test_unexposed_object_stays_dirty(self):
        cm, store, log, stats = _cm()
        first = _physical("x", b"old")
        blind = _physical("x", b"new")
        cm.execute(first)
        cm.execute(blind)
        cm.purge()  # installs first's node without flushing x
        assert cm.dirty_table.rsi_of("x") == blind.lsi
        assert not store.contains("x")  # never flushed
        cm.purge()  # installs blind, flushing x
        assert store.read("x").value == b"new"

    def test_clean_single_flush_logs_flush_record(self):
        # The degenerate physiological case uses the cheaper flush
        # record ("flushes can be lazily logged after the flush").
        cm, store, log, stats = _cm()
        cm.execute(_physical("x", b"v"))
        cm.flush_all()
        log.force()
        kinds = [type(r).__name__ for r in log.stable_records()]
        assert "FlushRecord" in kinds
        assert "InstallationRecord" not in kinds

    def test_notx_install_logs_installation_record(self):
        cm, store, log, stats = _cm()
        cm.execute(_physical("x", b"old"))
        cm.execute(_physical("x", b"new"))
        cm.purge()  # installs the first write with x unexposed
        log.force()
        kinds = [type(r).__name__ for r in log.stable_records()]
        assert "InstallationRecord" in kinds

    def test_installation_logging_can_be_disabled(self):
        cm, store, log, stats = _cm(CacheConfig(log_installations=False))
        cm.execute(_physical("x", b"v"))
        cm.flush_all()
        log.force()
        kinds = [type(r).__name__ for r in log.stable_records()]
        assert "InstallationRecord" not in kinds
        assert "FlushRecord" not in kinds

    def test_delete_removes_from_store_and_cache(self):
        cm, store, log, stats = _cm()
        cm.execute(_physical("x", b"v"))
        cm.flush_all()
        cm.execute(delete_object("x"))
        cm.flush_all()
        assert not store.contains("x")
        assert cm.read_object("x") is None

    def test_purge_on_empty_cache_returns_false(self):
        cm, store, log, stats = _cm()
        assert cm.purge() is False


class TestEviction:
    def test_evict_clean(self):
        cm, store, log, stats = _cm()
        cm.execute(_physical("x", b"v"))
        cm.flush_all()
        cm.evict("x")
        assert cm.entry("x") is None
        # Read-through works again.
        assert cm.read_object("x") == b"v"

    def test_evict_dirty_rejected(self):
        cm, store, log, stats = _cm()
        cm.execute(_physical("x", b"v"))
        with pytest.raises(CacheError, match="dirty"):
            cm.evict("x")

    def test_make_clean_then_evict(self):
        cm, store, log, stats = _cm()
        cm.execute(_physical("x", b"v"))
        cm.execute(_copy("x", "y"))
        cm.make_clean("y")
        cm.evict("y")
        assert cm.entry("y") is None

    def test_evict_uncached_is_noop(self):
        cm, store, log, stats = _cm()
        cm.evict("ghost")


class TestCheckpoint:
    def test_checkpoint_logs_dirty_table(self):
        cm, store, log, stats = _cm()
        op = _physical("x", b"v")
        cm.execute(op)
        cm.checkpoint()
        checkpoints = [
            r
            for r in log.stable_records()
            if isinstance(r, CheckpointRecord)
        ]
        assert len(checkpoints) == 1
        assert checkpoints[0].dirty_objects == {"x": op.lsi}

    def test_checkpoint_truncates_installed_prefix(self):
        cm, store, log, stats = _cm()
        cm.execute(_physical("x", b"v"))
        cm.flush_all()
        cm.checkpoint(truncate=True)
        op_records = [
            r for r in log.stable_records() if isinstance(r, OperationRecord)
        ]
        assert op_records == []  # installed prefix discarded


class TestWMode:
    def test_w_mode_atomic_flush_of_overlapping_sets(self):
        config = CacheConfig(
            graph_mode=GraphMode.W,
            multi_object_strategy=MultiObjectStrategy.ATOMIC,
            mechanism=ShadowInstall(),
        )
        cm, store, log, stats = _cm(config)
        registry = cm.registry
        registry.register(
            "two", lambda reads: {"x": b"1", "y": b"2"}
        )
        cm.execute(
            Operation(
                "two", OpKind.LOGICAL, reads=set(), writes={"x", "y"}, fn="two"
            )
        )
        cm.flush_all()
        assert stats.atomic_flushes == 1
        assert store.read("x").value == b"1"
        assert store.read("y").value == b"2"

    def test_w_mode_rejects_identity_strategy(self):
        with pytest.raises(ValueError, match="identity writes require"):
            CacheConfig(
                graph_mode=GraphMode.W,
                multi_object_strategy=MultiObjectStrategy.IDENTITY_WRITES,
            )


class TestAdoptRecovery:
    def test_adopt_rebuilds_bookkeeping(self):
        cm, store, log, stats = _cm()
        op = _physical("x", b"v")
        log.append_operation(op)
        log.force()  # adopted ops' records are already durable
        cm.adopt_recovery({"x": (b"v", op.lsi)}, [op])
        assert cm.read_object("x") == b"v"
        assert cm.dirty_table.rsi_of("x") == op.lsi
        assert cm.purge()
        assert store.read("x").value == b"v"

    def test_adopt_requires_empty(self):
        cm, store, log, stats = _cm()
        cm.execute(_physical("x", b"v"))
        with pytest.raises(CacheError, match="empty"):
            cm.adopt_recovery({}, [])
