"""The WriteGraphEngine protocol, make_engine, and the engine lifecycle.

Covers the API-surface guarantees of the engine redesign:

* every engine implementation satisfies the runtime-checkable protocol;
* ``make_engine`` maps every GraphMode (enum or string) to the right
  engine class;
* the cache manager holds one live engine per mode and never rebuilds
  it — asserted through the ``stats()["full_rebuilds"]`` hook over a
  long mixed-workload run in both modes;
* the deprecated ``WriteGraph(installation)`` /
  ``CacheManager.write_graph()`` shims are gone (they warned for one
  release) and nothing in the library emits DeprecationWarning.
"""

from __future__ import annotations

import warnings

import pytest

from repro import (
    BatchWriteGraph,
    CacheConfig,
    GraphMode,
    IncrementalWriteGraph,
    MultiObjectStrategy,
    RecoverableSystem,
    RefinedWriteGraph,
    SystemConfig,
    WriteGraphEngine,
    make_engine,
    verify_recovered,
)
from repro.core._reference import ReferenceWriteGraph
from repro.core.history import History
from repro.core.installation_graph import InstallationGraph
from repro.core.operation import Operation, OpKind
from repro.workloads import (
    LogicalWorkload,
    LogicalWorkloadConfig,
    register_workload_functions,
)

HEAVY_MIX = dict(w_physical=0.1, w_touch=0.15, w_combine=0.45, w_derive=0.3)


def _ops(operations=120, objects=8, seed=11, **mix):
    config = LogicalWorkloadConfig(
        objects=objects, operations=operations, object_size=16,
        **(mix or HEAVY_MIX),
    )
    history = History()
    out = []
    for op in LogicalWorkload(config, seed=seed).operations():
        history.append(op)
        op.lsi = op.op_id + 1
        out.append(op)
    return out


def _rw_system() -> RecoverableSystem:
    system = RecoverableSystem()
    register_workload_functions(system.registry)
    return system


def _w_system(**cache_kwargs) -> RecoverableSystem:
    system = RecoverableSystem(SystemConfig(cache=CacheConfig(
        graph_mode=GraphMode.W,
        multi_object_strategy=MultiObjectStrategy.ATOMIC,
        **cache_kwargs,
    )))
    register_workload_functions(system.registry)
    return system


class TestProtocol:
    @pytest.mark.parametrize("engine_cls", [
        RefinedWriteGraph, IncrementalWriteGraph, ReferenceWriteGraph,
    ])
    def test_engines_satisfy_protocol(self, engine_cls):
        assert isinstance(engine_cls(), WriteGraphEngine)

    def test_batch_graph_is_not_a_live_engine(self):
        """BatchWriteGraph shares the query surface but is a one-shot
        construction: no add_operation, so it fails the protocol check
        — you cannot accidentally hand it to the cache manager."""
        graph = BatchWriteGraph(InstallationGraph(_ops(operations=20)))
        assert not isinstance(graph, WriteGraphEngine)
        for member in (
            "minimal_nodes", "remove_node", "holder_of", "node_of",
            "flush_set_sizes", "stats", "edges", "is_acyclic",
        ):
            assert callable(getattr(graph, member))

    def test_make_engine_by_mode(self):
        assert type(make_engine(GraphMode.RW)) is RefinedWriteGraph
        assert type(make_engine(GraphMode.W)) is IncrementalWriteGraph

    def test_make_engine_by_string(self):
        assert type(make_engine("rW")) is RefinedWriteGraph
        assert type(make_engine("W")) is IncrementalWriteGraph

    def test_make_engine_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_engine("refined")

    def test_stats_shape(self):
        for mode in (GraphMode.RW, GraphMode.W):
            engine = make_engine(mode)
            stats = engine.stats()
            for key in (
                "engine", "operations_added", "live_nodes",
                "cycle_collapses", "full_rebuilds",
            ):
                assert key in stats, (mode, key)
            assert stats["full_rebuilds"] == 0


def _drain(engine) -> None:
    """Remove minimal nodes, smallest flush set first, until none is
    left — installation order, without a cache manager."""
    while (node := engine.least_minimal()) is not None:
        engine.remove_node(node)
    assert len(engine) == 0


def _assert_holds_nothing(engine) -> None:
    """Every per-node and per-object index of an emptied engine is
    empty: none outlives the nodes that put entries in it."""
    for name in (
        "_nodes", "_succ", "_pred", "_last_write_node",
        "_readers_since_write", "_reader_nodes", "_node_of_op", "_ready",
        "_topo", "_frontier",
    ):
        assert not getattr(engine, name), (name, len(getattr(engine, name)))


class TestEmptiedGraph:
    """Memory follows the live graph, not every key ever touched."""

    @pytest.mark.parametrize("engine_cls", [
        RefinedWriteGraph, IncrementalWriteGraph,
    ])
    def test_logical_copies_leave_no_index_entries(self, engine_cls):
        engine = engine_cls()
        for i in range(1000):
            op = Operation(
                f"cp(src{i},k{i})", OpKind.LOGICAL, reads={f"src{i}"},
                writes={f"k{i}"}, fn="copy", params=(f"src{i}", f"k{i}"),
            )
            op.lsi = i + 1
            engine.add_operation(op)
        _drain(engine)
        _assert_holds_nothing(engine)

    @pytest.mark.parametrize("engine_cls", [
        RefinedWriteGraph, IncrementalWriteGraph,
    ])
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_merged_and_collapsed_nodes_leave_no_index_entries(
        self, engine_cls, seed
    ):
        engine = engine_cls()
        for op in _ops(operations=300, objects=12, seed=seed):
            engine.add_operation(op)
        assert engine.stats()["merges"] > 0
        _drain(engine)
        _assert_holds_nothing(engine)


class TestCacheManagerEngine:
    @pytest.mark.parametrize("make_system", [_rw_system, _w_system])
    def test_no_full_rebuilds_across_mixed_run(self, make_system):
        """The acceptance gate: a long E4-mix run with interleaved
        purges performs zero full graph rebuilds in either mode."""
        system = make_system()
        for count, op in enumerate(_ops(operations=400, seed=3), start=1):
            system.execute(op)
            if count % 16 == 0:
                system.purge()
        stats = system.engine.stats()
        assert stats["full_rebuilds"] == 0
        assert stats["operations_added"] >= 400
        system.flush_all()
        assert system.engine.stats()["full_rebuilds"] == 0
        assert len(system.engine) == 0

    def test_engine_survives_purges(self):
        system = _w_system()
        engine = system.engine
        for op in _ops(operations=60, seed=9):
            system.execute(op)
        system.flush_all()
        assert system.engine is engine, "engine must not be rebuilt"

    def test_w_mode_end_to_end_recovery(self):
        system = _w_system()
        for op in _ops(operations=80, seed=21):
            system.execute(op)
        system.purge()
        system.crash()
        system.recover()
        verify_recovered(system)
        assert type(system.engine) is IncrementalWriteGraph

    def test_engine_matches_mode(self):
        assert type(_rw_system().engine) is RefinedWriteGraph
        assert type(_w_system().engine) is IncrementalWriteGraph


class TestDeprecatedNamesRemoved:
    def test_write_graph_shim_is_gone(self):
        """The deprecation window closed: the names no longer import."""
        with pytest.raises(ImportError):
            from repro import WriteGraph  # noqa: F401
        with pytest.raises(ImportError):
            from repro.core.write_graph import WriteGraph  # noqa: F401

    def test_write_graph_method_is_gone(self):
        system = RecoverableSystem()
        assert not hasattr(system.cache, "write_graph")

    def test_no_internal_callers_warn(self):
        """Driving both modes end to end emits no DeprecationWarning:
        nothing inside the library uses the deprecated names."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for make_system in (_rw_system, _w_system):
                system = make_system()
                for op in _ops(operations=60, seed=13):
                    system.execute(op)
                system.purge()
                system.crash()
                system.recover()
                system.flush_all()
