"""E7 — Theorems 1-3, empirically: a crash matrix.

Random logical workloads are crashed at every operation index (with
random interleaved purges and forces driven by the same seed) and
recovered; the recovered state is compared against the oracle over the
durable history.  The matrix spans the four supported cache
configurations.  Expected: 100% success everywhere.

Three more rows are the torture harness's flush row
(:data:`~repro.kernel.torture.FLUSH`): one flush crashed at each of its
I/O points, and once after its last.  The ``raw`` strawman
(multi-object flushes with no atomicity mechanism) reports how often
the torn flush leaves an *unrecoverable* state — the paper's motivation
for the whole apparatus — and the shadow and flush-transaction rows
show the same crash points under each atomic mechanism, where every one
must recover.
"""

from __future__ import annotations

import random
from typing import Dict, List

import pytest

from repro import (
    CacheConfig,
    GraphMode,
    MultiObjectStrategy,
    RawMultiWrite,
    RecoverableSystem,
    SystemConfig,
    verify_recovered,
)
from repro.analysis import Table
from repro.kernel.torture import FLUSH, TortureConfig, TortureHarness
from repro.storage import FlushTransaction, ShadowInstall
from repro.workloads import (
    LogicalWorkload,
    LogicalWorkloadConfig,
    register_workload_functions,
)
from benchmarks.conftest import once

CONFIGS = {
    "rW + identity": lambda: CacheConfig(),
    "rW + shadow": lambda: CacheConfig(
        multi_object_strategy=MultiObjectStrategy.ATOMIC,
        mechanism=ShadowInstall(),
    ),
    "rW + flush-txn": lambda: CacheConfig(
        multi_object_strategy=MultiObjectStrategy.ATOMIC,
        mechanism=FlushTransaction(),
    ),
    "W + shadow": lambda: CacheConfig(
        graph_mode=GraphMode.W,
        multi_object_strategy=MultiObjectStrategy.ATOMIC,
        mechanism=ShadowInstall(),
    ),
    # The kitchen sink: tiny cache (constant eviction pressure) and
    # hot-object victim policy on top of identity writes.
    "rW + identity + cap4": lambda: _capacity_config(),
}


def _capacity_config() -> CacheConfig:
    from repro.cache.policies import PeelHottest

    return CacheConfig(capacity=4, victim_policy=PeelHottest())

OPERATIONS = 20
SEEDS = range(6)

#: Flush crash sweep rows: the strawman's final flush crashed at every
#: store write, with no mechanism and with each atomic one.
STRAWMAN = "raw (torn, strawman)"
FLUSH_CRASH_ROWS = {
    STRAWMAN: RawMultiWrite(),
    "flush crash: shadow": ShadowInstall(),
    "flush crash: flush-txn": FlushTransaction(),
}
FLUSH_SEEDS = range(24)


def _one_run(make_config, seed: int, crash_at: int) -> bool:
    rng = random.Random(seed * 1000 + crash_at)
    system = RecoverableSystem(SystemConfig(cache=make_config()))
    register_workload_functions(system.registry)
    workload = LogicalWorkload(
        LogicalWorkloadConfig(
            objects=5, operations=OPERATIONS, object_size=64, p_delete=0.1
        ),
        seed=seed,
    )
    for index, op in enumerate(workload.operations()):
        system.execute(op)
        if rng.random() < 0.4:
            system.log.force()
        if rng.random() < 0.3:
            system.purge()
        if index == crash_at:
            break
    system.crash()
    system.recover()
    try:
        verify_recovered(system)
        return True
    except AssertionError:
        return False


def _flush_crash_sweep(mechanism, seed: int) -> List[bool]:
    """Crash the strawman workload's final flush at each of its I/O
    points and after its last (the harness's flush row); one verdict
    per run."""

    def drive(system: RecoverableSystem) -> None:
        workload = LogicalWorkload(
            LogicalWorkloadConfig(
                objects=4,
                operations=OPERATIONS,
                object_size=64,
                w_combine=0.45,
                w_derive=0.3,
                w_touch=0.15,
                w_physical=0.1,
            ),
            seed=seed,
        )
        for op in workload.operations():
            system.execute(op)

    harness = TortureHarness(
        TortureConfig(
            cache_factory=lambda: CacheConfig(
                multi_object_strategy=MultiObjectStrategy.ATOMIC,
                mechanism=mechanism,
            )
        ),
        drive=drive,
    )
    return [outcome.ok for outcome in harness.sweep(FLUSH).outcomes]


def _matrix() -> Dict[str, Dict[str, int]]:
    out: Dict[str, Dict[str, int]] = {}
    for name, make_config in CONFIGS.items():
        runs = ok = 0
        for seed in SEEDS:
            for crash_at in range(0, OPERATIONS, 2):
                runs += 1
                ok += _one_run(make_config, seed, crash_at)
        out[name] = {"runs": runs, "ok": ok}
    for name, mechanism in FLUSH_CRASH_ROWS.items():
        verdicts = [
            ok
            for seed in FLUSH_SEEDS
            for ok in _flush_crash_sweep(mechanism, seed)
        ]
        out[name] = {"runs": len(verdicts), "ok": sum(verdicts)}
    return out


@pytest.mark.benchmark(group="e7")
def test_e7_crash_matrix(benchmark):
    results = once(benchmark, _matrix)

    table = Table(
        "E7: crash-recovery matrix (recovered == oracle)",
        ["configuration", "runs", "recovered", "success"],
    )
    for name, row in results.items():
        table.add_row(
            name,
            row["runs"],
            row["ok"],
            f"{row['ok'] / row['runs']:.0%}",
        )
    table.print()

    for name, row in results.items():
        if name != STRAWMAN:
            assert row["ok"] == row["runs"], (
                f"{name} failed a crash-recovery run"
            )
    # The strawman must demonstrate actual failures, else the matrix
    # proves nothing about the mechanisms.
    raw = results[STRAWMAN]
    assert raw["ok"] < raw["runs"], "torn flushes never broke recovery?"
