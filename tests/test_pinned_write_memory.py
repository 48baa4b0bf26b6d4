"""What the cache manager's bookkeeping costs per pinned operation.

A served daemon does not flush yet, so the last write of every key it
has served stays registered: an rW node, an uninstalled-writer entry
and a dirty-table entry.  Both cases register operations through
``CacheManager._register`` — the one registration path — and measure
what it leaves allocated with ``tracemalloc``:

* 1 024 single-key blind puts, one node each.  At 4.7.0 this cost
  2 918.5 B per put — about 2 000 B of rW (a node with a ``__dict__``
  and four sets, two edge sets, an empty reader set per written key)
  and an 865 B writer ``deque`` beside the dirty-table entry and the
  footprint; the bound is half of that.
* 2 000 ``wl_combine``-shaped operations (``acc := f(src_i, acc)``) that
  all merge into one node.  At 4.7.0 this cost 732.7 B per operation;
  the bound keeps the lazily allocated sets from making a big node
  dearer than that.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.cache import CacheManager
from repro.core.functions import default_registry
from repro.core.operation import Operation, OpKind
from repro.storage import IOStats, StableStore
from repro.wal.log_manager import LogManager

PUT_BYTES_AT_4_7 = 2918.5
COMBINE_BYTES_AT_4_7 = 732.7


def _bytes_per_op(ops):
    """Register ``ops`` (lSIs assigned) in a fresh cache manager and
    return the bytes that stay allocated per operation, with it."""
    stats = IOStats()
    cache = CacheManager(
        StableStore(stats), LogManager(stats), default_registry(), None, stats
    )
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for op in ops:
            cache._register(op)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / len(ops), cache


def _numbered(ops):
    for lsi, op in enumerate(ops, start=1):
        op.lsi = lsi
    return ops


def test_a_pinned_put_costs_at_most_half_of_4_7():
    ops = _numbered([
        Operation(
            f"put(k{i})", OpKind.PHYSICAL, reads=set(), writes={f"k{i}"},
            payload={f"k{i}": b"v"},
        )
        for i in range(1024)
    ])
    per_put, cache = _bytes_per_op(ops)
    assert len(cache.engine) == 1024
    assert len(cache.dirty_table) == 1024
    assert per_put <= PUT_BYTES_AT_4_7 / 2, per_put


def test_a_big_node_costs_less_per_op_than_at_4_7():
    ops = _numbered([
        Operation(
            f"combine(s{i},acc)", OpKind.LOGICAL, reads={f"s{i}", "acc"},
            writes={"acc"}, fn="wl_combine", params=(f"s{i}", "acc"),
        )
        for i in range(2000)
    ])
    per_op, cache = _bytes_per_op(ops)
    stats = cache.engine.stats()
    assert stats["live_nodes"] == 1
    assert stats["largest_node_ops"] == 2000
    assert per_op <= 0.8 * COMBINE_BYTES_AT_4_7, per_op
