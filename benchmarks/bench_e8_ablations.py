"""E8 — ablations of the design choices DESIGN.md calls out.

(a) **WAL force bound at installation** — the install of a node with
    unexposed objects forces the log through the blind writers
    justifying Notx(n), not just through the node's own records
    (DESIGN.md §5 gives the four-operation schedule that loses an update
    otherwise, so there is no mode without it to compare against).  The
    lane counts what the rule costs: how many installs had their bound
    extended past their own last record, and by how many records.

(b) **Installation logging** — without installation records the
    analysis pass cannot advance rSIs; recovery re-scans and re-executes
    operations whose effects were installed without flushing.

(c) **Cycle pressure, W vs rW** — how often each graph is forced to
    merge nodes (W: writeset-overlap coalescing + SCC collapse; rW:
    SCC collapse only), and how many identity writes the cache manager
    injects to dissolve what remains.

(d) **Write-write edge policy** — the repeat-history strategy (the
    paper's choice) versus conservative write-write installation edges:
    edge counts and the resulting W-node sizes.

(f) **Zero-I/O installs while serving, W vs rW** — an overwrite-heavy
    stream, every record forced and ``install_unexposed`` called after
    each operation (what the serving daemon does): how many nodes are
    installed with no flush at all, and what the graph still holds at
    the end.  C2 stated as a serving-time number: W never has an
    unexposed object, so it installs nothing without I/O and keeps
    every operation.
"""

from __future__ import annotations

import random
from statistics import mean
from typing import Dict

import pytest

from repro import (
    CacheConfig,
    GeneralizedRedoTest,
    RecoverableSystem,
    SystemConfig,
    verify_recovered,
)
from repro.analysis import Table
from repro.cache.cache_manager import CacheManager
from repro.core.history import History
from repro.core.installation_graph import InstallationGraph, WriteWritePolicy
from repro.core.refined_write_graph import RefinedWriteGraph
from repro.core.write_graph import BatchWriteGraph
from repro.workloads import (
    LogicalWorkload,
    LogicalWorkloadConfig,
    register_workload_functions,
    transient_files_workload,
)
from benchmarks.conftest import once
from tests.conftest import listen

HEAVY_MIX = dict(w_physical=0.1, w_touch=0.15, w_combine=0.45, w_derive=0.3)


class _BoundTally(CacheManager):
    """Records, per installation plan, the node's own last lSI and the
    WAL bound the plan asks for."""

    def _installation_plan(self, node):
        ops, new_rsis, wal_bound = super()._installation_plan(node)
        self.bounds.append((ops[-1].lsi, wal_bound))
        return ops, new_rsis, wal_bound


def _driven_system(seed: int) -> Dict[str, int]:
    rng = random.Random(seed)
    system = RecoverableSystem()
    system.cache = _BoundTally(
        system.store, system.log, system.registry, system.config.cache,
        system.stats,
    )
    bounds = system.cache.bounds = []
    register_workload_functions(system.registry)
    workload = LogicalWorkload(
        LogicalWorkloadConfig(
            objects=6, operations=60, object_size=64, **HEAVY_MIX
        ),
        seed=seed,
    )
    for op in workload.operations():
        system.execute(op)
        if rng.random() < 0.3:
            system.purge()
    system.flush_all()
    system.crash()
    system.recover()
    verify_recovered(system)
    extended = [bound - own for own, bound in bounds if bound > own]
    return {
        **system.stats.snapshot(),
        "installs": len(bounds),
        "extended": len(extended),
        "extra_records": sum(extended),
    }


def _ablation_wal_force() -> Dict[str, float]:
    runs = [_driven_system(seed) for seed in range(4)]
    return {
        key: mean(run[key] for run in runs)
        for key in ("installs", "extended", "extra_records", "log_forces")
    }


def _ablation_install_logging() -> Dict[str, Dict[str, int]]:
    out = {}
    for label, flag in (("on (paper)", True), ("off", False)):
        system = RecoverableSystem(
            SystemConfig(
                cache=CacheConfig(log_installations=flag),
                redo_test=GeneralizedRedoTest(),
            )
        )
        transient_files_workload(system, files=16, object_size=2048)
        system.flush_all()
        system.log.force()
        system.crash()
        report = system.recover()
        verify_recovered(system)
        out[label] = {
            "scanned": report.records_scanned,
            "redone": report.ops_redone,
        }
    return out


def _ablation_cycles() -> Dict[str, float]:
    rw_collapses = []
    w_nontrivial = []
    identity_writes = []
    for seed in range(5):
        workload = LogicalWorkload(
            LogicalWorkloadConfig(
                objects=8, operations=100, object_size=48, **HEAVY_MIX
            ),
            seed=seed,
        )
        history = History()
        ops = []
        for op in workload.operations():
            history.append(op)
            op.lsi = op.op_id + 1
            ops.append(op)
        rw = RefinedWriteGraph()
        for op in ops:
            rw.add_operation(op)
        rw_collapses.append(rw.cycle_collapses)
        # W: count operations forced into shared nodes beyond their own.
        w = BatchWriteGraph(InstallationGraph(ops))
        w_nontrivial.append(
            sum(1 for node in w.nodes if len(node.ops) > 1)
        )
        # Identity writes injected when actually draining a CM.
        stats = _driven_system(seed)
        identity_writes.append(stats["identity_writes"])
    return {
        "rw_cycle_collapses": mean(rw_collapses),
        "w_merged_nodes": mean(w_nontrivial),
        "identity_writes_per_run": mean(identity_writes),
    }


def _ablation_ww_policy() -> Dict[str, Dict[str, float]]:
    out = {}
    workload = LogicalWorkload(
        LogicalWorkloadConfig(
            objects=8, operations=100, object_size=48, **HEAVY_MIX
        ),
        seed=11,
    )
    history = History()
    ops = []
    for op in workload.operations():
        history.append(op)
        op.lsi = op.op_id + 1
        ops.append(op)
    for policy in WriteWritePolicy:
        graph = InstallationGraph(ops, policy)
        edges = sum(1 for _ in graph.edges())
        w = BatchWriteGraph(graph)
        out[policy.value] = {
            "installation_edges": edges,
            "w_nodes": len(w.nodes),
            "w_max_vars": max(len(n.vars) for n in w.nodes),
        }
    return out


def _ablation_victim_policy() -> Dict[str, Dict[str, int]]:
    """Hot/cold skew: one hot object repeatedly co-written with cold
    ones.  The hot-object victim policy should peel (log) the hot
    object and flush cold ones, so the hot object is flushed rarely
    while its updates accumulate in cache — the paper's Section 4
    "hot objects" remark."""
    from repro.cache.policies import PeelFirstSorted, PeelHottest
    from repro.core.operation import Operation, OpKind

    # Each round updates the hot object in place (exposed: it reads its
    # own prior value) and emits one cold object derived from it, so
    # the pair {hot, cold_i} lands in one flush set every round.  The
    # hot object's name sorts *last*: the naive policy peels the colds
    # and keeps flushing the hot object; the paper's policy peels the
    # hot object (logging its value once) and flushes a cold one.
    def hot_step(reads, cold):
        prior = reads["zzz-hot"] or b""
        return {"zzz-hot": (prior + b"H")[-64:], cold: b"C" * 64}

    out = {}
    for label, policy in (
        ("sorted (naive)", PeelFirstSorted()),
        ("peel-hottest (paper)", PeelHottest()),
    ):
        # A tiny cache creates the pressure: capacity enforcement
        # installs and evicts the minimum necessary each round, and the
        # victim policy decides whether the hot object is what gets
        # flushed+evicted or what stays dirty in cache.
        system = RecoverableSystem(
            SystemConfig(
                cache=CacheConfig(victim_policy=policy, capacity=2)
            )
        )
        events = listen(system)
        system.registry.register("hot_step", hot_step)
        for round_index in range(12):
            cold = f"cold{round_index}"
            system.execute(
                Operation(
                    f"hotstep({cold})",
                    OpKind.LOGICAL,
                    reads={"zzz-hot"},
                    writes={"zzz-hot", cold},
                    fn="hot_step",
                    params=(cold,),
                )
            )
            system.read("zzz-hot")  # keep it hot
        system.log.force()
        system.crash()
        system.recover()
        verify_recovered(system)
        hot_flushes = sum(
            1
            for event in events.of_kind("install")
            if "zzz-hot" in event.get("vars", ())
        )
        snapshot = system.stats.snapshot()
        out[label] = {
            "hot object flushes": hot_flushes,
            "identity writes": snapshot["identity_writes"],
            "stable reads": snapshot["object_reads"],
        }
    return out


OVERWRITE_MIX = dict(w_physical=0.8, w_touch=0.1, w_combine=0.0, w_derive=0.1)


def _ablation_serving_installs() -> Dict[str, Dict[str, int]]:
    from repro import GraphMode, MultiObjectStrategy

    out = {}
    for label, cache in (
        ("rW (this paper)", CacheConfig()),
        ("W of [8]", CacheConfig(
            graph_mode=GraphMode.W,
            multi_object_strategy=MultiObjectStrategy.ATOMIC,
        )),
    ):
        system = RecoverableSystem(SystemConfig(cache=cache))
        register_workload_functions(system.registry)
        workload = LogicalWorkload(
            LogicalWorkloadConfig(
                objects=16, operations=600, object_size=64, **OVERWRITE_MIX
            ),
            seed=7,
        )
        installed = 0
        peak = 0
        for op in workload.operations():
            system.execute(op)
            system.log.force()
            installed += system.cache.install_unexposed()
            peak = max(peak, len(system.cache.uninstalled_operations()))
        snapshot = system.stats.snapshot()
        out[label] = {
            "operations": len(system.history),
            "zero_flush_installs": installed,
            "live_nodes": len(system.engine),
            "uninstalled_ops": len(system.cache.uninstalled_operations()),
            "peak_uninstalled_ops": peak,
            "flushes": snapshot["flushes"],
            "object_writes": snapshot["object_writes"],
        }
        system.crash()
        system.recover()
        verify_recovered(system)
    return out


def _run_all():
    return {
        "serving_installs": _ablation_serving_installs(),
        "wal_force": _ablation_wal_force(),
        "install_logging": _ablation_install_logging(),
        "cycles": _ablation_cycles(),
        "ww_policy": _ablation_ww_policy(),
        "victim_policy": _ablation_victim_policy(),
    }


@pytest.mark.benchmark(group="e8")
def test_e8_ablations(benchmark):
    results = once(benchmark, _run_all)

    bound = results["wal_force"]
    table_a = Table(
        "E8a: WAL force bound at installation (mean/run, all recover)",
        ["installs", "bound extended past own records", "by records",
         "log forces"],
    )
    table_a.add_row(
        f"{bound['installs']:.1f}", f"{bound['extended']:.1f}",
        f"{bound['extra_records']:.1f}", f"{bound['log_forces']:.1f}",
    )
    table_a.print()

    table_b = Table(
        "E8b: installation logging (transient-file workload)",
        ["installation records", "records scanned", "ops redone"],
    )
    for label, row in results["install_logging"].items():
        table_b.add_row(label, row["scanned"], row["redone"])
    table_b.print()

    cycles = results["cycles"]
    table_c = Table(
        "E8c: cycle pressure and identity-write injections (mean/run)",
        ["metric", "value"],
    )
    table_c.add_row("rW cycle collapses", f"{cycles['rw_cycle_collapses']:.1f}")
    table_c.add_row("W multi-op (merged) nodes", f"{cycles['w_merged_nodes']:.1f}")
    table_c.add_row(
        "identity writes injected", f"{cycles['identity_writes_per_run']:.1f}"
    )
    table_c.print()

    table_d = Table(
        "E8d: write-write installation-edge policy",
        ["policy", "installation edges", "W nodes", "W max |vars|"],
    )
    for label, row in results["ww_policy"].items():
        table_d.add_row(
            label, row["installation_edges"], row["w_nodes"],
            row["w_max_vars"],
        )
    table_d.print()

    table_e = Table(
        "E8e: identity-write victim policy under hot/cold skew "
        "(12 rounds, 1 hot object, cache capacity 2)",
        ["victim policy", "hot-object flushes", "identity writes",
         "stable reads"],
    )
    for label, row in results["victim_policy"].items():
        table_e.add_row(
            label, row["hot object flushes"], row["identity writes"],
            row["stable reads"],
        )
    table_e.print()

    table_f = Table(
        "E8f: zero-I/O installs while serving (600 ops, 16 objects, 80% "
        "blind overwrites; every record forced, no flush ever)",
        ["write graph", "nodes installed, 0 flushes", "live nodes at end",
         "uninstalled ops at end", "peak uninstalled ops", "store writes"],
    )
    for label, row in results["serving_installs"].items():
        table_f.add_row(
            label, row["zero_flush_installs"], row["live_nodes"],
            row["uninstalled_ops"], row["peak_uninstalled_ops"],
            row["object_writes"],
        )
    table_f.print()

    # (f) W keeps every operation — nothing of its is ever unexposed —
    # while rW's graph tracks the live objects; neither touched the
    # store.
    served_rw = results["serving_installs"]["rW (this paper)"]
    served_w = results["serving_installs"]["W of [8]"]
    assert served_w["zero_flush_installs"] == 0
    assert served_w["uninstalled_ops"] == served_w["operations"] == 600
    assert served_rw["zero_flush_installs"] > 400
    assert served_rw["live_nodes"] <= 2 * 16
    assert served_rw["peak_uninstalled_ops"] < 600 // 4
    assert served_rw["flushes"] == served_w["flushes"] == 0
    assert served_rw["object_writes"] == served_w["object_writes"] == 0

    # (a) every run recovered (verified inside); the Notx half of the
    # bound is exercised on this workload, and not by every install.
    assert 0 < bound["extended"] < bound["installs"]
    assert bound["extra_records"] >= bound["extended"]

    # (b) without installation records, recovery rescans and re-runs.
    with_records = results["install_logging"]["on (paper)"]
    without = results["install_logging"]["off"]
    assert with_records["redone"] == 0
    assert without["redone"] > 0

    # (d) the repeat-history strategy never has more edges than the
    # conservative policy.
    repeat = results["ww_policy"][WriteWritePolicy.REPEAT_HISTORY.value]
    conservative = results["ww_policy"][WriteWritePolicy.CONSERVATIVE.value]
    assert (
        repeat["installation_edges"] <= conservative["installation_edges"]
    )

    # (e) the hot-object policy flushes the hot object less often.
    naive = results["victim_policy"]["sorted (naive)"]
    hot = results["victim_policy"]["peel-hottest (paper)"]
    assert hot["hot object flushes"] < naive["hot object flushes"]
