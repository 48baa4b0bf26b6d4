"""E16 — latency attribution: where an acked write's milliseconds go.

E10 priced the kernel's instrumentation; E15 priced replication as a
whole.  E16 decomposes one acked write's end-to-end latency into the
named stages the tracing tentpole records — queue wait, apply, WAL
force, replication wait (and inside it the ship, the witness's durable
adopt and its ack) — and checks the decomposition is *honest*: every
stage non-negative, and the stages reconstructed from the trace tree
sum to approximately the client-observed latency rather than inventing
or losing time.  Two lanes:

* **stage attribution** — ``E16_WRITES`` traced puts through a live
  primary/witness pair; every ``ack.*_ms`` / ``repl.ship_ms`` /
  ``witness.*_ms`` histogram must have fired, and the last write's
  trace tree (stitched from the client, primary and witness registries
  exactly the way ``python -m repro trace`` does it) must be one
  complete tree whose stage sum is within slack of the client span.
  Stage p50s are recorded as ``stage_ms_*`` lanes (lower is better);
* **tracing overhead** — acked puts/second with an untraced client
  (no registry ⇒ no ``trace`` field on the wire) vs. a traced one
  against the same single daemon: ``acked_per_s_untraced`` /
  ``acked_per_s_traced`` plus the ratio sanity bar.

Results merge into ``.bench_results/BENCH_e16.json`` (untracked), which
CI diffs against the committed ``BENCH_e16.json``;
``benchmarks/diff_trajectory.py`` treats ``stage_ms_*`` as
lower-is-better and ``acked_per_s*`` as higher-is-better.
"""

from __future__ import annotations

import os
import time
from functools import partial
from typing import Dict, List

import pytest

from repro.analysis import Table
from repro.kernel.system import RecoverableSystem
from repro.obs import MetricsRegistry
from repro.obs.tracetree import build_trace, trace_has_stages
from repro.replica import ReplicationConfig, WitnessConfig, WitnessDaemon
from repro.serve import DaemonClient, DaemonConfig, ServeDaemon
from repro.workloads import register_workload_functions
from benchmarks.conftest import once, record

#: Traced puts in the attribution lane (CI smoke: E16_WRITES=40).
WRITES = int(os.environ.get("E16_WRITES", "150"))
#: Puts per overhead lane (untraced and traced).
THROUGHPUT_OPS = int(os.environ.get("E16_THROUGHPUT_OPS", "300"))

#: The stages a replicated acked write must decompose into.
STAGES = (
    "ack.queue_ms",
    "ack.apply_ms",
    "ack.force_ms",
    "ack.repl_wait_ms",
    "repl.ship_ms",
    "witness.adopt_ms",
    "witness.ack_ms",
)


_record = partial(record, "BENCH_e16.json", writes=WRITES)


def _start_pair():
    """One primary (replication on) + attached witness, in-process."""
    primary_system = RecoverableSystem()
    register_workload_functions(primary_system.registry)
    primary_system.attach_metrics(MetricsRegistry())
    primary = ServeDaemon(
        primary_system,
        DaemonConfig(port=0, http_port=None, retry_after_ms=5),
        replication=ReplicationConfig(ack_timeout_s=5.0, retry_after_ms=5),
    ).start()
    witness_system = RecoverableSystem()
    register_workload_functions(witness_system.registry)
    witness_system.attach_metrics(MetricsRegistry())
    witness = WitnessDaemon(
        witness_system,
        DaemonConfig(port=0, http_port=None, retry_after_ms=5),
        witness=WitnessConfig(
            primary_port=primary.port,
            redo_every_records=64,
            reconnect_delay_s=0.02,
        ),
    ).start()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if witness.attached and primary.replication.attached:
            break
        time.sleep(0.01)
    else:
        witness.stop(graceful=False)
        primary.kill()
        raise RuntimeError("witness never attached to the primary")
    return primary, witness


def _registry_spans(registry: MetricsRegistry) -> List[Dict]:
    """Span events in the shape ``collect_spans`` produces from JSONL."""
    return [event for event in registry.span_events()
            if (event.get("tags") or {}).get("trace")]


# ----------------------------------------------------------------------
# lane 1: stage attribution over a live pair
# ----------------------------------------------------------------------
def _attribution() -> Dict:
    primary, witness = _start_pair()
    client_registry = MetricsRegistry()
    client = DaemonClient("127.0.0.1", primary.port, obs=client_registry)
    try:
        for index in range(WRITES):
            client.request("put", obj=f"obj{index % 8}", value=index)
        last_trace = client.last_trace
    finally:
        client.close()
        witness.stop(graceful=False)
        primary.stop()

    spans = (
        _registry_spans(client_registry)
        + _registry_spans(primary.system.obs)
        + _registry_spans(witness.system.obs)
    )
    roots = build_trace(spans, last_trace)
    assert trace_has_stages(
        roots, ["client.put", "ack.queue_ms", "ack.apply_ms",
                "ack.force_ms", "ack.repl_wait_ms", "repl.ship_ms",
                "witness.adopt_ms", "witness.ack_ms"]
    ), "last write did not reconstruct into one complete trace tree"
    tree = roots[0].walk()
    assert all(node.seconds >= 0.0 for node in tree)
    client_ms = roots[0].ms
    # Direct children partition the client's wait (the witness chain is
    # nested inside ack.repl_wait_ms, so it must not be double-counted).
    stage_ms = sum(child.ms for child in roots[0].children)
    assert stage_ms <= client_ms * 1.25 + 1.0, (
        f"stages invent time: {stage_ms:.3f} ms attributed vs "
        f"{client_ms:.3f} ms observed by the client"
    )

    snap_primary = primary.system.obs.snapshot()["histograms"]
    snap_witness = witness.system.obs.snapshot()["histograms"]
    merged = dict(snap_witness)
    merged.update(snap_primary)
    stages = {}
    for name in STAGES:
        assert name in merged, f"stage histogram {name} never fired"
        hist = merged[name]
        assert hist["count"] > 0 and hist["min"] >= 0.0
        stages[name] = hist
    return {
        "client_ms": client_ms,
        "attributed_ms": stage_ms,
        "stages": stages,
    }


@pytest.mark.benchmark(group="e16")
def test_e16_stage_attribution(benchmark):
    result = once(benchmark, _attribution)

    table = Table(
        f"E16: per-stage latency attribution over {WRITES} replicated "
        "acked puts",
        ["stage", "count", "p50 ms", "p95 ms", "p99 ms"],
    )
    for name in STAGES:
        hist = result["stages"][name]
        table.add_row(
            name, hist["count"], f"{hist['p50']:.3f}",
            f"{hist['p95']:.3f}", f"{hist['p99']:.3f}",
        )
    table.print()
    print(
        f"last write: client {result['client_ms']:.3f} ms, "
        f"stage sum {result['attributed_ms']:.3f} ms"
    )

    _record("stage_attribution", {
        "client_ms": result["client_ms"],
        "attributed_ms": result["attributed_ms"],
        **{
            "stage_ms_" + name.replace(".", "_"):
                result["stages"][name]["p50"]
            for name in STAGES
        },
    })


# ----------------------------------------------------------------------
# lane 2: the tracing tax on an acked write
# ----------------------------------------------------------------------
def _throughput(traced: bool) -> float:
    system = RecoverableSystem()
    register_workload_functions(system.registry)
    system.attach_metrics(MetricsRegistry())
    daemon = ServeDaemon(
        system, DaemonConfig(port=0, http_port=None, retry_after_ms=5)
    ).start()
    registry = MetricsRegistry() if traced else None
    client = DaemonClient("127.0.0.1", daemon.port, obs=registry)
    try:
        start = time.perf_counter()
        for index in range(THROUGHPUT_OPS):
            client.request("put", obj=f"obj{index % 8}", value=index)
        elapsed = time.perf_counter() - start
    finally:
        client.close()
        daemon.stop()
    return THROUGHPUT_OPS / elapsed if elapsed > 0 else 0.0


def _overhead() -> Dict[str, float]:
    _throughput(False)  # shared warm-up
    untraced = _throughput(False)
    traced = _throughput(True)
    return {
        "acked_per_s_untraced": untraced,
        "acked_per_s_traced": traced,
        "traced_over_untraced": traced / untraced if untraced else 0.0,
    }


@pytest.mark.benchmark(group="e16")
def test_e16_tracing_overhead(benchmark):
    result = once(benchmark, _overhead)

    table = Table(
        f"E16: tracing overhead at {THROUGHPUT_OPS} acked puts",
        ["client", "acked/s"],
    )
    table.add_row("untraced", f"{result['acked_per_s_untraced']:,.0f}")
    table.add_row("traced", f"{result['acked_per_s_traced']:,.0f}")
    table.add_row("traced/untraced",
                  f"{result['traced_over_untraced']:.2f}x")
    table.print()

    # Generous bar: one short socket lane is noisy, and the real cost
    # gate is the committed acked_per_s lanes in BENCH_e16.json.
    assert result["traced_over_untraced"] >= 0.5, (
        f"tracing halved client throughput "
        f"({result['traced_over_untraced']:.2f}x)"
    )

    _record("tracing_overhead", result)
