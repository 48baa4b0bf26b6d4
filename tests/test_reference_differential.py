"""Differential property tests: incremental engines vs naive rebuilds.

Two oracles, one per graph mode:

* rW — ``repro.core._reference.ReferenceWriteGraph`` is the
  scan-everything Figure 6 construction, kept deliberately naive.  The
  indexed :class:`~repro.core.refined_write_graph.RefinedWriteGraph`
  must match it *exactly* — node shapes, flush sets, edges,
  cycle-collapse counts, and install orders — including with node
  installation interleaved into the stream.
* W — :class:`~repro.core.write_graph.BatchWriteGraph` is the verbatim
  Figure 3 batch algorithm.  The live
  :class:`~repro.core.incremental_write_graph.IncrementalWriteGraph`
  must produce the same graph (nodes, vars, edges, flush-set sizes,
  minimal sets, unordered) as a batch rebuild over the surviving
  operations, at every checkpoint and after every install.

Nodes are compared by their operation-name sets: the engines mint
their own node instances, but a node *is* its set of operations.

What a cache manager feeds its engine is not the operation but its
:class:`~repro.core.operation.OpFootprint`; the ``*_fed_footprints``
tests run the same comparisons with the live engine fed footprints and
the oracle fed the operations.
"""

from __future__ import annotations

import random
from typing import FrozenSet

import pytest

from repro.core._reference import ReferenceWriteGraph
from repro.core.history import History
from repro.core.incremental_write_graph import IncrementalWriteGraph
from repro.core.installation_graph import InstallationGraph
from repro.core.operation import Operation
from repro.core.refined_write_graph import RefinedWriteGraph
from repro.core.write_graph import BatchWriteGraph
from repro.workloads import LogicalWorkload, LogicalWorkloadConfig

MIXES = [
    ("physiological", dict(w_physical=0.2, w_touch=0.8, w_combine=0.0, w_derive=0.0)),
    ("mixed", dict(w_physical=0.15, w_touch=0.35, w_combine=0.3, w_derive=0.2)),
    ("heavy-logical", dict(w_physical=0.1, w_touch=0.15, w_combine=0.45, w_derive=0.3)),
    ("deleting", dict(w_physical=0.2, w_touch=0.3, w_combine=0.3, w_derive=0.2, p_delete=0.15)),
]


def _stream(mix: dict, seed: int, operations: int = 120, objects: int = 8):
    config = LogicalWorkloadConfig(
        objects=objects, operations=operations, object_size=16, **mix
    )
    workload = LogicalWorkload(config, seed=seed)
    history = History()
    ops = []
    for op in workload.operations():
        history.append(op)
        op.lsi = op.op_id + 1
        ops.append(op)
    return ops


def _key(node) -> FrozenSet[str]:
    return frozenset(op.name for op in node.ops)


def _shape(graph) -> dict:
    """Everything observable about a graph, keyed by op-name sets."""
    by_key = {_key(n): n for n in graph.nodes}
    return {
        "order": [_key(n) for n in graph.nodes],
        "vars": {k: set(n.vars) for k, n in by_key.items()},
        "notx": {k: set(n.notx) for k, n in by_key.items()},
        "edges": {(_key(a), _key(b)) for a, b in graph.edges()},
        "collapses": graph.cycle_collapses,
        "flush_sizes": sorted(graph.flush_set_sizes()),
        "minimal": [_key(n) for n in graph.minimal_nodes()],
    }


def _assert_same(ref: ReferenceWriteGraph, idx: RefinedWriteGraph) -> None:
    a, b = _shape(ref), _shape(idx)
    assert a["order"] == b["order"]
    assert a["vars"] == b["vars"]
    assert a["notx"] == b["notx"]
    assert a["edges"] == b["edges"]
    assert a["collapses"] == b["collapses"]
    assert a["flush_sizes"] == b["flush_sizes"]
    assert a["minimal"] == b["minimal"]
    assert idx.is_acyclic()


def _itself(op: Operation) -> Operation:
    return op


def _check_insertion_stream(ops, feed) -> None:
    ref, idx = ReferenceWriteGraph(), RefinedWriteGraph()
    for op in ops:
        node_ref = ref.add_operation(op)
        node_idx = idx.add_operation(feed(op))
        assert _key(node_ref) == _key(node_idx), op.name
    _assert_same(ref, idx)


@pytest.mark.parametrize("mix_name,mix", MIXES)
@pytest.mark.parametrize("seed", range(4))
def test_insertion_stream_matches(mix_name, mix, seed):
    _check_insertion_stream(_stream(mix, seed), _itself)


@pytest.mark.parametrize("mix_name,mix", MIXES)
@pytest.mark.parametrize("seed", range(4))
def test_insertion_stream_matches_fed_footprints(mix_name, mix, seed):
    _check_insertion_stream(_stream(mix, seed), Operation.footprint)


@pytest.mark.parametrize("mix_name,mix", MIXES)
@pytest.mark.parametrize("seed", range(3))
def test_interleaved_installation_matches(mix_name, mix, seed):
    """Install minimal nodes mid-stream; orders and results must track."""
    _check_interleaved_installation(mix, seed, _itself)


@pytest.mark.parametrize("mix_name,mix", MIXES)
@pytest.mark.parametrize("seed", range(3))
def test_interleaved_installation_matches_fed_footprints(mix_name, mix, seed):
    _check_interleaved_installation(mix, seed, Operation.footprint)


def _check_interleaved_installation(mix, seed, feed) -> None:
    rng = random.Random(seed * 7919 + 13)
    ops = _stream(mix, seed + 100)
    ref, idx = ReferenceWriteGraph(), RefinedWriteGraph()
    for op in ops:
        ref.add_operation(op)
        idx.add_operation(feed(op))
        if rng.random() < 0.25 and ref.nodes:
            minimal_ref = ref.minimal_nodes()
            minimal_idx = idx.minimal_nodes()
            assert [_key(n) for n in minimal_ref] == [
                _key(n) for n in minimal_idx
            ]
            if minimal_ref:
                flushed_ref = ref.remove_node(minimal_ref[0])
                flushed_idx = idx.remove_node(minimal_idx[0])
                assert flushed_ref == flushed_idx
    _assert_same(ref, idx)
    # Drain both graphs completely: the full install order must match.
    while len(ref):
        minimal_ref = ref.minimal_nodes()
        minimal_idx = idx.minimal_nodes()
        assert [_key(n) for n in minimal_ref] == [
            _key(n) for n in minimal_idx
        ]
        assert ref.remove_node(minimal_ref[0]) == idx.remove_node(
            minimal_idx[0]
        )
    assert len(idx) == 0
    assert idx.uninstalled_operations() == set()


@pytest.mark.parametrize("seed", range(3))
def test_adversarial_tiny_population(seed):
    """Few objects and many logical ops maximize merge/cycle pressure."""
    ops = _stream(
        dict(w_physical=0.1, w_touch=0.1, w_combine=0.5, w_derive=0.3),
        seed=seed,
        operations=150,
        objects=3,
    )
    ref, idx = ReferenceWriteGraph(), RefinedWriteGraph()
    for op in ops:
        ref.add_operation(op)
        idx.add_operation(op)
    _assert_same(ref, idx)
    # Tiny populations force real collapses, or the test is vacuous.
    assert ref.cycle_collapses > 0


def test_queries_match_after_stream():
    ops = _stream(dict(MIXES[2][1]), seed=5)
    ref, idx = ReferenceWriteGraph(), RefinedWriteGraph()
    for op in ops:
        ref.add_operation(op)
        idx.add_operation(op)
    for op in ops:
        node_ref, node_idx = ref.node_of(op), idx.node_of(op)
        assert (node_ref is None) == (node_idx is None)
        if node_ref is not None:
            assert _key(node_ref) == _key(node_idx)
    objects = {obj for op in ops for obj in op.writes | op.reads}
    for obj in objects:
        holder_ref, holder_idx = ref.holder_of(obj), idx.holder_of(obj)
        assert (holder_ref is None) == (holder_idx is None), obj
        if holder_ref is not None:
            assert _key(holder_ref) == _key(holder_idx), obj
    assert ref.uninstalled_operations() == idx.uninstalled_operations()


# ----------------------------------------------------------------------
# W mode: incremental engine vs the Figure 3 batch construction
# ----------------------------------------------------------------------
#
# The incremental W engine never rebuilds; BatchWriteGraph rebuilds from
# the surviving operations every time it is asked.  Batch node order and
# node identity are arbitrary, so W shapes are compared *unordered* by
# op-name sets — unlike the rW suite above, which also checks order.


def _w_shape(graph) -> dict:
    by_key = {_key(n): n for n in graph.nodes}
    assert len(by_key) == len(graph.nodes)
    return {
        "nodes": set(by_key),
        "vars": {k: set(n.vars) for k, n in by_key.items()},
        "edges": {(_key(a), _key(b)) for a, b in graph.edges()},
        "flush_sizes": sorted(graph.flush_set_sizes()),
        "minimal": {_key(n) for n in graph.minimal_nodes()},
    }


def _assert_w_same(live_ops, incremental: IncrementalWriteGraph) -> None:
    batch = BatchWriteGraph(InstallationGraph(list(live_ops)))
    a, b = _w_shape(batch), _w_shape(incremental)
    assert a["nodes"] == b["nodes"]
    assert a["vars"] == b["vars"]
    assert a["edges"] == b["edges"]
    assert a["flush_sizes"] == b["flush_sizes"]
    assert a["minimal"] == b["minimal"]
    assert incremental.is_acyclic()
    # W never unexposes: vars(n) = Writes(n) and Notx(n) = ∅, always.
    for node in incremental.nodes:
        assert not node.notx
        assert set(node.vars) == {
            obj for op in node.ops for obj in op.writes
        }


@pytest.mark.parametrize("mix_name,mix", MIXES)
@pytest.mark.parametrize("seed", range(4))
def test_w_insertion_stream_matches_batch(mix_name, mix, seed):
    ops = _stream(mix, seed)
    incremental = IncrementalWriteGraph()
    for count, op in enumerate(ops, start=1):
        incremental.add_operation(op)
        if count % 30 == 0:
            _assert_w_same(ops[:count], incremental)
    _assert_w_same(ops, incremental)
    assert incremental.stats()["full_rebuilds"] == 0


@pytest.mark.parametrize("mix_name,mix", MIXES)
@pytest.mark.parametrize("seed", range(3))
def test_w_interleaved_installation_matches_batch(mix_name, mix, seed):
    """Install minimal W nodes mid-stream; the surviving graph must
    equal a batch rebuild of the surviving operations."""
    _check_w_interleaved_installation(mix, seed, _itself)


@pytest.mark.parametrize("mix_name,mix", MIXES)
@pytest.mark.parametrize("seed", range(3))
def test_w_interleaved_installation_matches_batch_fed_footprints(
    mix_name, mix, seed
):
    _check_w_interleaved_installation(mix, seed, Operation.footprint)


def _check_w_interleaved_installation(mix, seed, feed) -> None:
    rng = random.Random(seed * 6007 + 29)
    live = []
    incremental = IncrementalWriteGraph()

    def survivors(node):
        # The engine holds what it was fed; the batch oracle rebuilds
        # from the operations — paired by lSI.
        installed = {held.lsi for held in node.ops}
        return [o for o in live if o.lsi not in installed]

    for op in _stream(mix, seed + 200):
        incremental.add_operation(feed(op))
        live.append(op)
        if rng.random() < 0.2 and incremental.nodes:
            node = min(incremental.minimal_nodes(), key=_key)
            flushed, notx = incremental.remove_node(node)
            assert notx == set()
            assert flushed == {o for op_ in node.ops for o in op_.writes}
            live = survivors(node)
            _assert_w_same(live, incremental)
    _assert_w_same(live, incremental)
    # Drain fully; every removal must stay consistent with a rebuild.
    while len(incremental):
        node = min(incremental.minimal_nodes(), key=_key)
        incremental.remove_node(node)
        live = survivors(node)
        _assert_w_same(live, incremental)
    assert live == []
    assert incremental.uninstalled_operations() == set()


@pytest.mark.parametrize("seed", range(3))
def test_w_adversarial_tiny_population(seed):
    """Few objects, heavy logical mix: writeset overlap merges nearly
    everything, the W engine's worst case."""
    ops = _stream(
        dict(w_physical=0.1, w_touch=0.1, w_combine=0.5, w_derive=0.3),
        seed=seed,
        operations=150,
        objects=3,
    )
    incremental = IncrementalWriteGraph()
    for op in ops:
        incremental.add_operation(op)
    _assert_w_same(ops, incremental)
    assert incremental.stats()["merges"] > 0
