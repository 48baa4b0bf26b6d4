"""E14 — the log-structured backend vs the in-place backends on the
paper's C3 cost metrics, plus what compaction costs.

Section 4's cost comparison charges the cache-manager path for the two
artifacts of in-place installs: *flush-transaction double writes*
(every object in an atomic flush set hits the device twice — log copy
then in-place write) and *identity writes* (the records injected to
dissolve multi-object flush dependencies).  The log-structured store
(:class:`~repro.storage.logstore.LogStructuredStableStore`) removes the
in-place granule entirely — a flush set is one batch frame under one
CRC — so both counters must read **zero** on that path.  E14 measures:

* **backend_costs** — one seeded multi-object workload driven through
  three configurations: the file backend under flush transactions, the
  file backend under identity writes (the paper's recommendation for
  in-place stores), and the logstore under batch installs
  (:func:`repro.storage.recommended_cache_config`).  The ``c3_*`` lanes
  are diffed by CI (lower is better); the zero claims are hard
  assertions.
* **compaction_sweep** — overwrite churn against the logstore at
  several ``compact_ratio`` settings: copies performed, bytes
  reclaimed, final footprint.  Aggressive compaction must bound the
  footprint; lazy compaction must copy less.

Results merge into ``.bench_results/BENCH_e14.json`` (untracked), which
CI diffs against the committed ``BENCH_e14.json``.
"""

from __future__ import annotations

import os
import time
from functools import partial
from typing import Dict

import pytest

from repro import (
    CacheConfig,
    MultiObjectStrategy,
    Operation,
    OpKind,
    RecoverableSystem,
    SystemConfig,
    verify_recovered,
)
from repro.analysis import Table, format_bytes
from repro.storage import FlushTransaction, make_store
from repro.storage.logstore import LogStructuredStableStore
from repro.storage.registry import recommended_cache_config
from benchmarks.conftest import once, payload, record

#: Operations in the workload (CI smoke: E14_OPS=20).
OPS = int(os.environ.get("E14_OPS", "60"))
OBJECT_SIZE = 2 * 1024
#: Objects per multi-object operation — the paper's common k=2 case.
SET_SIZE = 2


#: The three C3 configurations: (backend, cache-config factory).
LANES = {
    "file+flush-txn": (
        "file",
        lambda: CacheConfig(
            multi_object_strategy=MultiObjectStrategy.ATOMIC,
            mechanism=FlushTransaction(),
        ),
    ),
    "file+identity": ("file", CacheConfig),
    "logstore+batch": ("logstore", lambda: recommended_cache_config("logstore")),
}


_record = partial(
    record, "BENCH_e14.json", operations=OPS, object_size=OBJECT_SIZE
)


def _pair_op(step: int) -> Operation:
    objects = [f"o{(step + offset) % 6}" for offset in range(SET_SIZE)]
    return Operation(
        f"pair@{step}",
        OpKind.PHYSICAL,
        reads=set(),
        writes=set(objects),
        payload={obj: payload(f"{obj}@{step}", OBJECT_SIZE) for obj in objects},
    )


def _drive(lane: str, root: str) -> Dict[str, float]:
    backend, cache_factory = LANES[lane]
    store = make_store(backend, root)
    system = RecoverableSystem(
        SystemConfig(cache=cache_factory()), store=store
    )
    t0 = time.perf_counter()
    for step in range(OPS):
        system.execute(_pair_op(step))
        if step % 4 == 3:
            system.log.force()
            system.purge()
    system.log.force()
    system.flush_all()
    elapsed = time.perf_counter() - t0
    # Sanity: every lane must be crash-consistent.
    system.crash()
    system.recover()
    verify_recovered(system)
    snap = system.stats.snapshot()
    return {
        "c3_identity_writes": snap["identity_writes"],
        "c3_flush_double_writes": snap["flush_double_writes"],
        "c3_quiesce_events": snap["quiesce_events"],
        "object_writes": snap["object_writes"],
        "atomic_flushes": snap["atomic_flushes"],
        "log_value_bytes": snap["log_value_bytes"],
        "compactions": snap.get("compactions", 0),
        "compaction_copies": snap["compaction_copies"],
        "wall_s": elapsed,
    }


def _backend_costs(tmp_root: str) -> Dict[str, Dict[str, float]]:
    return {
        lane: _drive(lane, os.path.join(tmp_root, lane))
        for lane in LANES
    }


@pytest.mark.benchmark(group="e14")
def test_e14_backend_costs(benchmark, tmp_path):
    results = once(benchmark, _backend_costs, str(tmp_path))

    table = Table(
        f"E14: C3 cost metrics by backend ({OPS} k={SET_SIZE} ops, "
        f"{format_bytes(OBJECT_SIZE)} objects)",
        ["lane", "identity writes", "flush double writes", "quiesces",
         "device writes", "atomic flushes", "compaction copies", "wall s"],
    )
    for lane, row in results.items():
        table.add_row(
            lane,
            row["c3_identity_writes"],
            row["c3_flush_double_writes"],
            row["c3_quiesce_events"],
            row["object_writes"],
            row["atomic_flushes"],
            row["compaction_copies"],
            f"{row['wall_s']:.3f}",
        )
    table.print()

    txn = results["file+flush-txn"]
    ident = results["file+identity"]
    logstore = results["logstore+batch"]
    # The headline claim: nothing is written in place, so both in-place
    # cost artifacts are identically zero on the log-structured path.
    assert logstore["c3_identity_writes"] == 0
    assert logstore["c3_flush_double_writes"] == 0
    assert logstore["c3_quiesce_events"] == 0
    # ...while the flush-transaction lane pays double writes + quiesces
    # and the identity-write lane pays identity records — the two costs
    # the paper's C3 comparison trades between.
    assert txn["c3_flush_double_writes"] > 0
    assert txn["c3_quiesce_events"] > 0
    assert ident["c3_identity_writes"] > 0
    assert ident["c3_flush_double_writes"] == 0
    # The logstore still performs real atomic installs to do it.
    assert logstore["atomic_flushes"] > 0

    _record("backend_costs", results)


# ----------------------------------------------------------------------
# compaction-cost sweep
# ----------------------------------------------------------------------
COMPACT_RATIOS = (0.3, 0.5, 0.8)
#: Overwrite churn per ratio (CI smoke: E14_CHURN=200).
CHURN = int(os.environ.get("E14_CHURN", "600"))


def _churn(root: str, ratio: float) -> Dict[str, float]:
    store = LogStructuredStableStore(
        root,
        segment_bytes=8 * 1024,
        compact_ratio=ratio,
        compact_min_bytes=16 * 1024,
    )
    value = payload("churn", 512)
    t0 = time.perf_counter()
    for step in range(CHURN):
        store.write(f"obj:{step % 8}", value, step)
    elapsed = time.perf_counter() - t0
    live_bytes = 8 * len(value)
    return {
        "compactions": store.stats.extra.get("compactions", 0),
        "compaction_copies": store.stats.compaction_copies,
        "final_bytes": store.total_bytes(),
        "final_segments": store.segment_count(),
        "dead_ratio": store.dead_ratio(),
        "amplification": store.stats.compaction_copies / CHURN,
        "footprint_x_live": store.total_bytes() / live_bytes,
        "wall_s": elapsed,
    }


def _compaction_sweep(tmp_root: str) -> Dict[str, Dict[str, float]]:
    return {
        f"{ratio:g}": _churn(os.path.join(tmp_root, f"r{ratio:g}"), ratio)
        for ratio in COMPACT_RATIOS
    }


@pytest.mark.benchmark(group="e14")
def test_e14_compaction_sweep(benchmark, tmp_path):
    results = once(benchmark, _compaction_sweep, str(tmp_path))

    table = Table(
        f"E14: compaction cost vs reclamation ({CHURN} overwrites, "
        "8 live objects)",
        ["compact ratio", "compactions", "copies", "copy/write",
         "final bytes", "dead ratio", "wall s"],
    )
    for ratio, row in results.items():
        table.add_row(
            ratio,
            row["compactions"],
            row["compaction_copies"],
            f"{row['amplification']:.3f}",
            format_bytes(row["final_bytes"]),
            f"{row['dead_ratio']:.2f}",
            f"{row['wall_s']:.3f}",
        )
    table.print()

    rows = [results[f"{ratio:g}"] for ratio in COMPACT_RATIOS]
    # Every rung must actually compact under this much churn.
    for row in rows:
        assert row["compactions"] >= 1
    # Aggressive thresholds copy at least as much as lazy ones; lazy
    # thresholds never out-reclaim aggressive ones (monotone trade-off).
    assert rows[0]["compaction_copies"] >= rows[-1]["compaction_copies"]
    # The copy cost stays a small multiple of the write count: full
    # compaction copies only the 8 live versions per run.
    for row in rows:
        assert row["amplification"] < 1.0

    _record("compaction_sweep", results)
