"""E6 — Section 5: recovery work under the three recovery schemes.

The paper's comparison is between recovery *systems*, not just tests:
"Recovery optimization using rSI's and logging installations is
extremely important when we extend recovery to non-traditional objects
such as application state and files."  We therefore compare:

* ``vsi, no install-logging`` — the traditional scheme: no
  installation records on the log, so the analysis pass cannot advance
  rSIs for objects installed without flushing; the redo scan starts at
  the first dirty write and every operation is re-checked (and
  re-executed unless a flushed version proves it installed);
* ``vsi + install-logging`` — installation records shorten the scan,
  but the test itself still cannot recognise unexposed writesets;
* ``rsi + install-logging`` — the paper's full scheme.

Workloads: **transient files** (most operations touch temp files
deleted before the crash — sorts of deleted files are expensive
re-executions the paper wants to avoid) and **kv pages** (classic
physiological traffic where the vSI test is already effective).
``redo-all`` appears for the kv workload as a counts-only upper bound;
unconditional redo is only safe for physical-write-only logs, so it is
not verified and not run on the logical workload.

Expected shape: on transient files the paper's scheme re-executes
nothing while the traditional scheme re-runs every sort (including
those of deleted files); on kv pages the schemes converge.
"""

from __future__ import annotations

from typing import Dict, Optional

import pytest

from repro import (
    CacheConfig,
    GeneralizedRedoTest,
    RecoverableSystem,
    RedoAll,
    SystemConfig,
    VsiRedoTest,
    verify_recovered,
)
from repro.analysis import Table
from repro.workloads import kv_update_workload, transient_files_workload
from benchmarks.conftest import once

SCHEMES = {
    "vsi, no install-logging": lambda: SystemConfig(
        cache=CacheConfig(log_installations=False),
        redo_test=VsiRedoTest(),
    ),
    "vsi + install-logging": lambda: SystemConfig(
        redo_test=VsiRedoTest()
    ),
    "rsi + install-logging": lambda: SystemConfig(
        redo_test=GeneralizedRedoTest()
    ),
}


def _run(system: RecoverableSystem, drive) -> Dict[str, int]:
    drive(system)
    system.flush_all()
    system.log.force()  # installation records (where enabled) durable
    system.crash()
    before = system.stats.snapshot()
    report = system.recover()
    reads = system.stats.diff(before)["object_reads"]
    verify_recovered(system)
    return {
        "scanned": report.records_scanned,
        "redone": report.ops_redone,
        "skipped": report.skipped(),
        "reads": reads,
    }


def _drive_transient(system: RecoverableSystem) -> None:
    transient_files_workload(system, files=24, object_size=4096, keep_every=4)


def _drive_kv(system: RecoverableSystem) -> None:
    kv_update_workload(system, updates=150, keys=30, pages=8, value_size=64)
    # Partial installation: only some pages flushed before the crash.
    system.log.force()
    for _ in range(4):
        system.purge()


def _kv_redo_all() -> Dict[str, int]:
    system = RecoverableSystem(SystemConfig(redo_test=RedoAll()))
    _drive_kv(system)
    system.crash()
    before = system.stats.snapshot()
    report = system.recover()  # counts only; not verified (unsafe)
    return {
        "scanned": report.records_scanned,
        "redone": report.ops_redone,
        "skipped": report.skipped(),
        "reads": system.stats.diff(before)["object_reads"],
    }


def _run_all():
    results: Dict[str, Dict[str, Optional[Dict[str, int]]]] = {
        "transient-files": {},
        "kv-pages": {},
    }
    for name, make_config in SCHEMES.items():
        results["transient-files"][name] = _run(
            RecoverableSystem(make_config()), _drive_transient
        )
        results["kv-pages"][name] = _run(
            RecoverableSystem(make_config()), _drive_kv
        )
    results["kv-pages"]["redo-all (upper bound)"] = _kv_redo_all()
    results["transient-files"]["redo-all (upper bound)"] = None
    return results


@pytest.mark.benchmark(group="e6")
def test_e6_recovery_schemes(benchmark):
    results = once(benchmark, _run_all)

    table = Table(
        "E6 (Section 5): recovery work by scheme",
        ["workload", "scheme", "records scanned", "ops redone",
         "ops bypassed", "stable reads"],
    )
    for workload, per_scheme in results.items():
        for name, row in per_scheme.items():
            if row is None:
                table.add_row(workload, name, "n/a (unsafe)", "-", "-", "-")
            else:
                table.add_row(
                    workload, name, row["scanned"], row["redone"],
                    row["skipped"], row["reads"],
                )
    table.print()

    transient = results["transient-files"]
    baseline = transient["vsi, no install-logging"]
    paper = transient["rsi + install-logging"]
    # The paper's scheme re-executes nothing: every operation was
    # installed (many without ever flushing their deleted objects).
    assert paper["redone"] == 0
    # The traditional scheme re-executes the deleted files' operations
    # (their objects are gone, so no vSI can prove installation).
    assert baseline["redone"] > 0
    # And it scans the whole tail while the paper's scheme scans ~none.
    assert paper["scanned"] < baseline["scanned"]

    kv = results["kv-pages"]
    # On physiological workloads the SI tests agree with each other.
    assert (
        kv["rsi + install-logging"]["redone"]
        <= kv["vsi + install-logging"]["redone"]
    )
    upper = kv["redo-all (upper bound)"]
    assert upper["redone"] >= kv["vsi + install-logging"]["redone"]


def _checkpoint_sweep() -> Dict[str, Dict[str, int]]:
    """Checkpoint frequency vs. restart cost and log retention.

    rSIs only advance when operations are installed, so the workload
    interleaves page cleaning (purges), and each automatic checkpoint
    installs what the previous one left older than itself.  What
    checkpointing buys is (a) a bounded analysis pass (it starts at the
    latest checkpoint), (b) log truncation and (c) a redo scan that
    starts no earlier than the previous checkpoint; all three shrink
    with the interval, at the cost of checkpoint records and flushes
    during normal execution.
    """
    import random as _random

    from repro.domains import KVPageStore

    out: Dict[str, Dict[str, int]] = {}
    for label, every in (
        ("none", None),
        ("16 KiB", 16 * 1024),
        ("4 KiB", 4 * 1024),
        ("1 KiB", 1024),
    ):
        system = RecoverableSystem(
            SystemConfig(checkpoint_every_bytes=every)
        )
        store = KVPageStore(system, pages=8)
        rng = _random.Random(7)
        for index in range(200):
            store.put(rng.randrange(40), f"v{index}")
            if index % 10 == 9:
                system.purge()  # ongoing page cleaning
        system.log.force()
        # Counted, not read off the retained log: each checkpoint
        # truncates the records of the ones before it.
        checkpoints = system.stats.checkpoints
        retained = len(list(system.log.stable_records()))
        system.crash()
        report = system.recover()
        verify_recovered(system)
        out[label] = {
            "checkpoints": checkpoints,
            "retained": retained,
            "analysis": report.analysis_records,
            "scanned": report.records_scanned,
        }
    return out


@pytest.mark.benchmark(group="e6")
def test_e6_checkpoint_interval_sweep(benchmark):
    results = once(benchmark, _checkpoint_sweep)
    table = Table(
        "E6b: checkpoint interval (200 kv updates with page cleaning)",
        ["checkpoint every", "checkpoints", "log records retained",
         "analysis records", "redo records scanned"],
    )
    for label, row in results.items():
        table.add_row(
            label, row["checkpoints"], row["retained"],
            row["analysis"], row["scanned"],
        )
    table.print()

    # More frequent checkpoints => shorter retained log, analysis and,
    # since each installs behind the one before, redo scan.
    assert results["1 KiB"]["retained"] < results["none"]["retained"]
    assert results["1 KiB"]["analysis"] <= results["none"]["analysis"]
    assert results["1 KiB"]["scanned"] < results["none"]["scanned"]
    assert results["1 KiB"]["checkpoints"] > results["16 KiB"]["checkpoints"]


def _timed_recovery_factory(scheme: str):
    """Build a crashed system ready to recover (pedantic setup hook)."""

    def setup():
        system = RecoverableSystem(SCHEMES[scheme]())
        _drive_transient(system)
        system.flush_all()
        system.log.force()
        system.crash()
        return (system,), {}

    return setup


def _recover(system: RecoverableSystem) -> None:
    system.recover()


@pytest.mark.benchmark(group="e6-timing")
def test_e6_recovery_time_traditional(benchmark):
    """Wall-clock recovery under the traditional (vSI, no installation
    logging) scheme — re-executes the transient-file operations."""
    benchmark.pedantic(
        _recover,
        setup=_timed_recovery_factory("vsi, no install-logging"),
        rounds=5,
    )


@pytest.mark.benchmark(group="e6-timing")
def test_e6_recovery_time_paper(benchmark):
    """Wall-clock recovery under the paper's scheme — bypasses all of
    it.  Expect this to be markedly faster than the traditional row."""
    benchmark.pedantic(
        _recover,
        setup=_timed_recovery_factory("rsi + install-logging"),
        rounds=5,
    )
