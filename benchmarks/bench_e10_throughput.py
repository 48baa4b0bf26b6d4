"""E10 — hot-path throughput: indexed addop_rW.

The perf companion to E4's structural story.  E4 showed *what* rW
buys (small flush sets); E10 measures *how fast* the bookkeeping runs
now that the engine is indexed:

* **graph maintenance** — ops/sec and p50/p99 per-op latency of
  ``RefinedWriteGraph.add_operation`` at 1k/5k/20k operations across
  the E4 workload mixes, against the scan-everything
  ``ReferenceWriteGraph`` (the pre-optimization implementation, kept
  verbatim in ``repro.core._reference``);
* **near-linear scaling** — the time ratio between the largest and
  smallest sizes must stay well below the quadratic baseline's;
* **W-mode lane** — the live ``IncrementalWriteGraph`` engine against
  the per-install ``BatchWriteGraph`` rebuild the cache manager used to
  perform in W mode, under an identical drain-to-bound install policy;
  plus a full W-mode kernel run asserting the engine performs **zero**
  full graph rebuilds across the whole stream;
* **end-to-end kernel runs** — ``RecoverableSystem.execute`` with
  purge pressure, the full WAL + cache + graph path.

Results merge into ``.bench_results/BENCH_e10.json`` (untracked); CI
diffs its ``ops_per_sec`` lanes against the committed ``BENCH_e10.json``
(``benchmarks/diff_trajectory.py``).  ``E10_MAX_OPS`` caps the largest
size (CI smoke runs with ``E10_MAX_OPS=1000``); the sizes and the
reference measurements scale down with it, so every assertion still
runs.  The quadratic reference is never *run* above ``SPEEDUP_SIZE``:
larger sizes get entries extrapolated from a fitted power law, marked
``"extrapolated": true`` and excluded from differential checks and CI
lane diffs.
"""

from __future__ import annotations

import math
import os
import random
import time
from functools import partial
from typing import Dict, List

import pytest

from repro import (
    CacheConfig,
    GraphMode,
    MultiObjectStrategy,
    RecoverableSystem,
    SystemConfig,
)
from repro.analysis import Table
from repro.core._reference import ReferenceWriteGraph
from repro.core.history import History
from repro.core.incremental_write_graph import IncrementalWriteGraph
from repro.core.installation_graph import InstallationGraph
from repro.core.refined_write_graph import RefinedWriteGraph
from repro.core.write_graph import BatchWriteGraph
from repro.workloads import (
    LogicalWorkload,
    LogicalWorkloadConfig,
    register_workload_functions,
)
from benchmarks.conftest import once, record

MIXES = [
    ("physiological-only", dict(w_physical=0.2, w_touch=0.8, w_combine=0.0, w_derive=0.0)),
    ("25% logical", dict(w_physical=0.2, w_touch=0.55, w_combine=0.15, w_derive=0.1)),
    ("50% logical", dict(w_physical=0.15, w_touch=0.35, w_combine=0.3, w_derive=0.2)),
    ("75% logical", dict(w_physical=0.1, w_touch=0.15, w_combine=0.45, w_derive=0.3)),
]
HEAVY = "75% logical"

MAX_OPS = int(os.environ.get("E10_MAX_OPS", "20000"))
#: Small/medium/large — 1k/5k/20k by default, scaled down under a cap.
SIZES = sorted({max(50, MAX_OPS // 20), max(100, MAX_OPS // 4), MAX_OPS})
#: The reference graph is quadratic; it is only run at the two smaller
#: sizes (and the speedup is asserted at the middle one).
REF_SIZES = SIZES[:2]
SPEEDUP_SIZE = REF_SIZES[-1]
#: >= 10x is the acceptance bar at the real 5k size; the scaled-down
#: smoke sizes leave less quadratic work to win back.
SPEEDUP_FLOOR = 10.0 if SPEEDUP_SIZE >= 5000 else 3.0



def _ops_for(mix: dict, size: int, seed: int = 7) -> List:
    config = LogicalWorkloadConfig(
        objects=max(64, size // 4), operations=size, object_size=32, **mix
    )
    workload = LogicalWorkload(config, seed=seed)
    history = History()
    ops = []
    for op in workload.operations():
        history.append(op)
        op.lsi = op.op_id + 1
        ops.append(op)
    return ops


def _drive(graph, ops) -> Dict[str, float]:
    """Feed ``ops`` one at a time, recording per-op latency."""
    latencies = []
    t_start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        graph.add_operation(op)
        latencies.append(time.perf_counter() - t0)
    total = time.perf_counter() - t_start
    latencies.sort()
    n = len(latencies)
    return {
        "ops": n,
        "total_s": total,
        "ops_per_sec": n / total,
        "p50_us": latencies[n // 2] * 1e6,
        "p99_us": latencies[min(n - 1, int(0.99 * (n - 1)))] * 1e6,
        "nodes": len(graph),
        "collapses": graph.cycle_collapses,
    }


_record = partial(record, "BENCH_e10.json", max_ops=MAX_OPS, sizes=SIZES)


def _maintenance_sweep() -> Dict[str, Dict]:
    out: Dict[str, Dict] = {"indexed": {}, "reference": {}}
    # Warm-up: the first lanes measured otherwise pay interpreter and
    # allocator cold-start (up to ~30% on short runs), making recorded
    # throughput depend on sweep order.
    for engine_cls in (RefinedWriteGraph, ReferenceWriteGraph):
        _drive(engine_cls(), _ops_for(dict(MIXES[2][1]), 400, seed=3))
    for name, mix in MIXES:
        for size in SIZES:
            ops = _ops_for(mix, size)
            out["indexed"][f"{name}@{size}"] = _drive(RefinedWriteGraph(), ops)
    # The quadratic reference: smallest size for every mix (the
    # cross-mix table), plus the speedup size for the heavy mix only —
    # at 5k it already costs ~20s of wall clock.
    for name, mix in MIXES:
        ops = _ops_for(mix, SIZES[0])
        out["reference"][f"{name}@{SIZES[0]}"] = _drive(
            ReferenceWriteGraph(), ops
        )
    heavy_mix = dict(MIXES[3][1])
    ops = _ops_for(heavy_mix, SPEEDUP_SIZE)
    out["reference"][f"{HEAVY}@{SPEEDUP_SIZE}"] = _drive(
        ReferenceWriteGraph(), ops
    )
    # Above SPEEDUP_SIZE the reference is unaffordable (quadratic: the
    # 20k heavy run would take minutes).  Fit t = c * n^k to the two
    # measured heavy-mix sizes and extrapolate, labelling the entries
    # so differential checks and CI lane diffs skip them.
    t0 = out["reference"][f"{HEAVY}@{SIZES[0]}"]["total_s"]
    t1 = out["reference"][f"{HEAVY}@{SPEEDUP_SIZE}"]["total_s"]
    if SIZES[0] < SPEEDUP_SIZE and t0 > 0 and t1 > 0:
        exponent = math.log(t1 / t0) / math.log(SPEEDUP_SIZE / SIZES[0])
        scale = t1 / SPEEDUP_SIZE ** exponent
        for size in SIZES:
            if size <= SPEEDUP_SIZE:
                continue
            predicted = scale * size ** exponent
            out["reference"][f"{HEAVY}@{size}"] = {
                "ops": size,
                "total_s": predicted,
                "ops_per_sec": size / predicted,
                "extrapolated": True,
                "fit_exponent": exponent,
            }
    return out


@pytest.mark.benchmark(group="e10")
def test_e10_graph_maintenance_throughput(benchmark):
    results = once(benchmark, _maintenance_sweep)
    indexed, reference = results["indexed"], results["reference"]

    table = Table(
        f"E10: addop_rW throughput, sizes {SIZES}",
        ["mix @ ops", "idx ops/s", "idx p50us", "idx p99us",
         "ref ops/s", "speedup"],
    )
    for key, row in indexed.items():
        ref = reference.get(key)
        mark = "~" if ref and ref.get("extrapolated") else ""
        table.add_row(
            key,
            f"{row['ops_per_sec']:,.0f}",
            f"{row['p50_us']:.1f}",
            f"{row['p99_us']:.1f}",
            f"{mark}{ref['ops_per_sec']:,.0f}" if ref else "-",
            f"{mark}{row['ops_per_sec'] / ref['ops_per_sec']:.1f}x"
            if ref else "-",
        )
    table.print()

    # Differential sanity: same graphs out of both engines.
    # Extrapolated entries were never run, so they carry no graph shape.
    for key, ref in reference.items():
        if ref.get("extrapolated"):
            continue
        assert indexed[key]["nodes"] == ref["nodes"], key
        assert indexed[key]["collapses"] == ref["collapses"], key

    # Acceptance: >= 10x on the 5k-op 75%-logical maintenance workload.
    heavy_key = f"{HEAVY}@{SPEEDUP_SIZE}"
    speedup = (
        indexed[heavy_key]["ops_per_sec"]
        / reference[heavy_key]["ops_per_sec"]
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"indexed engine only {speedup:.1f}x faster at {heavy_key}"
    )

    # Near-linear scaling: growing the op count by R must grow the
    # total time far less than the quadratic baseline's R^2.
    small, large = SIZES[0], SIZES[-1]
    ops_ratio = large / small
    quadratic = ops_ratio * ops_ratio
    scaling = {}
    for name, _ in MIXES:
        t_small = indexed[f"{name}@{small}"]["total_s"]
        t_large = indexed[f"{name}@{large}"]["total_s"]
        ratio = t_large / t_small
        scaling[name] = ratio
        assert ratio < quadratic / 2, (
            f"{name}: {large}/{small} time ratio {ratio:.0f}x is not "
            f"meaningfully below the quadratic baseline ({quadratic:.0f}x)"
        )

    payload = {
        "indexed": indexed,
        "reference": reference,
        "speedup_at": heavy_key,
        "speedup": speedup,
        "scaling_time_ratio": scaling,
        "ops_ratio": ops_ratio,
    }
    top_key = f"{HEAVY}@{SIZES[-1]}"
    top_ref = reference.get(top_key)
    if top_ref is not None and top_ref.get("extrapolated"):
        payload["speedup_extrapolated_at"] = top_key
        payload["speedup_extrapolated"] = (
            indexed[top_key]["ops_per_sec"] / top_ref["ops_per_sec"]
        )
    _record("graph_maintenance", payload)


# ----------------------------------------------------------------------
# W-mode lane: live incremental engine vs per-install batch rebuild
# ----------------------------------------------------------------------
#
# Before the engine redesign, W mode rebuilt a batch write graph from
# every surviving operation *per installed node*.  Both drivers below
# apply the same drain-to-bound policy (purge pressure every
# W_DRAIN_EVERY ops once the live set exceeds W_DRAIN_TRIGGER, draining
# to W_DRAIN_TO) so the only difference measured is graph maintenance:
# incremental add + cheap removal versus rebuild-per-install.

W_DRAIN_EVERY = 25
W_DRAIN_TO = 100
W_DRAIN_TRIGGER = 200


def _drive_w_incremental(ops) -> Dict[str, float]:
    engine = IncrementalWriteGraph()
    live = 0
    installs = 0
    start = time.perf_counter()
    for count, op in enumerate(ops, start=1):
        engine.add_operation(op)
        live += 1
        if count % W_DRAIN_EVERY == 0 and live > W_DRAIN_TRIGGER:
            while live > W_DRAIN_TO:
                node = engine.minimal_nodes()[0]
                live -= len(node.ops)
                engine.remove_node(node)
                installs += 1
    total = time.perf_counter() - start
    stats = engine.stats()
    return {
        "ops": len(ops),
        "total_s": total,
        "ops_per_sec": len(ops) / total,
        "installs": installs,
        "full_rebuilds": stats["full_rebuilds"],
        "merges": stats["merges"],
    }


def _drive_w_batch_rebuild(ops) -> Dict[str, float]:
    live: List = []
    installs = 0
    rebuilds = 0
    start = time.perf_counter()
    for count, op in enumerate(ops, start=1):
        live.append(op)
        if count % W_DRAIN_EVERY == 0 and len(live) > W_DRAIN_TRIGGER:
            while len(live) > W_DRAIN_TO:
                graph = BatchWriteGraph(InstallationGraph(live))
                rebuilds += 1
                node = graph.minimal_nodes()[0]
                installed = set(node.ops)
                live = [o for o in live if o not in installed]
                installs += 1
    total = time.perf_counter() - start
    return {
        "ops": len(ops),
        "total_s": total,
        "ops_per_sec": len(ops) / total,
        "installs": installs,
        "full_rebuilds": rebuilds,
    }


def _w_kernel_run(size: int) -> Dict[str, float]:
    """Full W-mode system at ``size`` ops: the zero-rebuild acceptance
    run, with flush-set accretion sampled at every purge."""
    rng = random.Random(23)
    system = RecoverableSystem(SystemConfig(
        cache=CacheConfig(
            graph_mode=GraphMode.W,
            multi_object_strategy=MultiObjectStrategy.ATOMIC,
        ),
    ))
    register_workload_functions(system.registry)
    workload = LogicalWorkload(
        LogicalWorkloadConfig(
            objects=max(64, size // 4), operations=size, object_size=32,
            **dict(MIXES[3][1]),
        ),
        seed=23,
    )
    flush_set_peaks = []
    start = time.perf_counter()
    for count, op in enumerate(workload.operations(), start=1):
        system.execute(op)
        if count % W_DRAIN_EVERY == 0 and len(
            system.cache.uninstalled_operations()
        ) > W_DRAIN_TRIGGER:
            sizes = system.engine.flush_set_sizes()
            flush_set_peaks.append(max(sizes) if sizes else 0)
            while len(system.cache.uninstalled_operations()) > W_DRAIN_TO:
                if not system.purge():
                    break
    total = time.perf_counter() - start
    stats = system.engine.stats()
    system.flush_all()
    return {
        "ops": size,
        "total_s": total,
        "ops_per_sec": size / total,
        "full_rebuilds": stats["full_rebuilds"],
        "operations_added": stats["operations_added"],
        "max_flush_set": max(flush_set_peaks, default=0),
        "mean_flush_set_peak": (
            sum(flush_set_peaks) / len(flush_set_peaks)
            if flush_set_peaks else 0.0
        ),
    }


@pytest.mark.benchmark(group="e10")
def test_e10_w_mode_lane(benchmark):
    def sweep():
        heavy_mix = dict(MIXES[3][1])
        ops = _ops_for(heavy_mix, SPEEDUP_SIZE, seed=19)
        return {
            "incremental": _drive_w_incremental(ops),
            "batch_rebuild": _drive_w_batch_rebuild(list(ops)),
            "kernel": _w_kernel_run(MAX_OPS),
        }

    results = once(benchmark, sweep)
    incremental = results["incremental"]
    batch = results["batch_rebuild"]
    kernel = results["kernel"]

    table = Table(
        f"E10: W-mode maintenance at {SPEEDUP_SIZE} ops (75% logical)",
        ["driver", "ops/s", "installs", "rebuilds"],
    )
    table.add_row(
        "incremental", f"{incremental['ops_per_sec']:,.0f}",
        incremental["installs"], incremental["full_rebuilds"],
    )
    table.add_row(
        "batch-rebuild", f"{batch['ops_per_sec']:,.0f}",
        batch["installs"], batch["full_rebuilds"],
    )
    table.add_row(
        f"kernel@{MAX_OPS}", f"{kernel['ops_per_sec']:,.0f}",
        "-", kernel["full_rebuilds"],
    )
    table.print()

    # Acceptance: the live engine never rebuilds, and beats the old
    # rebuild-per-install W mode by >= 10x at the 5k heavy-mix size.
    assert incremental["full_rebuilds"] == 0
    assert kernel["full_rebuilds"] == 0, (
        f"W-mode kernel run performed {kernel['full_rebuilds']} rebuilds"
    )
    assert kernel["operations_added"] >= MAX_OPS
    speedup = incremental["ops_per_sec"] / batch["ops_per_sec"]
    assert speedup >= SPEEDUP_FLOOR, (
        f"incremental W engine only {speedup:.1f}x faster than the "
        f"per-install batch rebuild at {SPEEDUP_SIZE} ops"
    )

    _record("w_mode", {
        "incremental": incremental,
        "batch_rebuild": batch,
        "kernel": kernel,
        "speedup": speedup,
        "speedup_at": f"{HEAVY}@{SPEEDUP_SIZE}",
    })


def _kernel_run(size: int, metrics=None) -> Dict[str, float]:
    """End-to-end: execute + periodic purge through a full system.

    ``metrics`` attaches a registry so the same driver measures the
    instrumented path (the observability-overhead lane).
    """
    rng = random.Random(11)
    system = RecoverableSystem()
    if metrics is not None:
        system.attach_metrics(metrics)
    register_workload_functions(system.registry)
    workload = LogicalWorkload(
        LogicalWorkloadConfig(
            objects=max(64, size // 4), operations=size, object_size=64,
            **dict(MIXES[3][1]),
        ),
        seed=11,
    )
    latencies = []
    t_start = time.perf_counter()
    for op in workload.operations():
        t0 = time.perf_counter()
        system.execute(op)
        latencies.append(time.perf_counter() - t0)
        if rng.random() < 0.05:
            system.purge()
    total = time.perf_counter() - t_start
    system.flush_all()
    latencies.sort()
    n = len(latencies)
    return {
        "ops": n,
        "total_s": total,
        "ops_per_sec": n / total,
        "p50_us": latencies[n // 2] * 1e6,
        "p99_us": latencies[min(n - 1, int(0.99 * (n - 1)))] * 1e6,
    }


@pytest.mark.benchmark(group="e10")
def test_e10_end_to_end_kernel(benchmark):
    sizes = REF_SIZES  # the two smaller sizes bound the wall clock
    results = once(
        benchmark, lambda: {size: _kernel_run(size) for size in sizes}
    )

    table = Table(
        "E10: end-to-end kernel throughput (execute + purge, 75% logical)",
        ["ops", "ops/s", "p50us", "p99us"],
    )
    for size, row in results.items():
        table.add_row(
            size,
            f"{row['ops_per_sec']:,.0f}",
            f"{row['p50_us']:.1f}",
            f"{row['p99_us']:.1f}",
        )
    table.print()

    # The full path has linear per-op work (logging, cache, oracle), so
    # doubling and more the op count must not crater throughput.
    small, large = sizes[0], sizes[-1]
    ops_ratio = large / small
    time_ratio = results[large]["total_s"] / results[small]["total_s"]
    assert time_ratio < ops_ratio * ops_ratio / 2

    _record(
        "kernel_end_to_end",
        {str(size): row for size, row in results.items()},
    )


# ----------------------------------------------------------------------
# Observability overhead: the null-object default must cost ~nothing
# ----------------------------------------------------------------------
#
# The instrumented hot paths (WAL force, cache install/flush, engine
# addop) gate all real work behind ``if obs.enabled``; with no registry
# attached that is one attribute check per call.  This lane runs the
# end-to-end kernel driver both ways and records both throughputs —
# the *null* lane is what CI diffs against the committed baseline (the
# <5% acceptance bar runs at the driver level with the committed
# BENCH_e10.json), the attached/null ratio is the in-test sanity bar.

#: Write the attached run's registry here as a JSONL artifact
#: (CI smoke sets it; unset skips the dump).
METRICS_OUT = os.environ.get("E10_METRICS_OUT", "")


@pytest.mark.benchmark(group="e10")
def test_e10_observability_overhead(benchmark):
    from repro.obs import MetricsRegistry, dump_jsonl

    size = SIZES[1]

    def sweep():
        _kernel_run(max(100, size // 4))  # shared warm-up
        null_run = _kernel_run(size)
        registry = MetricsRegistry()
        attached_run = _kernel_run(size, metrics=registry)
        return null_run, attached_run, registry

    null_run, attached_run, registry = once(benchmark, sweep)

    ratio = attached_run["ops_per_sec"] / null_run["ops_per_sec"]
    table = Table(
        f"E10: observability overhead at {size} ops (75% logical)",
        ["registry", "ops/s", "p50us", "p99us"],
    )
    table.add_row(
        "none (NULL_OBS)", f"{null_run['ops_per_sec']:,.0f}",
        f"{null_run['p50_us']:.1f}", f"{null_run['p99_us']:.1f}",
    )
    table.add_row(
        "attached", f"{attached_run['ops_per_sec']:,.0f}",
        f"{attached_run['p50_us']:.1f}", f"{attached_run['p99_us']:.1f}",
    )
    table.add_row("attached/null", f"{ratio:.2f}x", "-", "-")
    table.print()

    # The attached registry actually measured the run.
    assert registry.histograms["wal.force"].count > 0
    assert registry.histograms["cache.flush"].count > 0
    # >= size: identity writes pass through add_operation too.
    assert registry.histograms["engine.addop"].count >= size
    assert registry.counter_value("io.log_forces") > 0

    # Instrumentation cost bar: generous because a single short lane is
    # noisy — the tight no-registry bar is the CI lane diff on `null`.
    assert ratio >= 0.5, (
        f"attached registry halved throughput ({ratio:.2f}x)"
    )

    if METRICS_OUT:
        dump_jsonl(registry, METRICS_OUT)

    _record("observability", {
        "size": size,
        "null": null_run,
        "attached": attached_run,
        "attached_over_null": ratio,
    })
