"""E15 — replication: failover time, witness redo lag, shipping cost.

E12 proved one daemon loses nothing it acked across a SIGKILL.  E15
measures the replicated pair (``repro.replica``): a primary that ships
every forced WAL record to a witness before acking, and a witness that
continuously redoes the shipped log so promotion is a bounded amount of
catch-up, not a full replay.  Three lanes:

* **failover campaign** — ``E15_RUNS`` seeded torture-v5 runs (CI
  smoke: ``E15_RUNS=6``), each killing or fencing the primary under
  concurrent client load, promoting the witness, and auditing
  exactly-once visibility across the pair.  Expected zero acked-write
  losses and zero post-promotion acks from the old epoch; the kill-lane
  failover times give the distribution (``seconds_per_failover_p50`` /
  ``_p95``) the runbook quotes;
* **redo lag watermark** — one quiet pair driven with
  ``E15_LAG_WRITES`` forced puts while sampling the witness's
  ship/adopt/materialize watermarks: ``lag_records_peak`` is the worst
  observed distance between the primary's announcements and the
  witness's durable log (must drain to 0 when the writers stop),
  ``lag_redo_records_peak`` the worst distance between the durable log
  and materialized state (bounded by the redo cadence);
* **shipping cost** — acked puts/second standalone
  (``acked_per_s_standalone``) vs. through the semi-synchronous pair
  (``acked_per_s_replicated``), so the durability upgrade's price has a
  number and a trajectory.

Results merge into ``.bench_results/BENCH_e15.json`` (untracked), which
CI diffs against the committed ``BENCH_e15.json``;
``benchmarks/diff_trajectory.py`` treats ``seconds_per_*`` and
``lag_*`` lanes as lower-is-better and ``acked_per_s*`` as
higher-is-better.
"""

from __future__ import annotations

import os
import time
from functools import partial
from typing import Dict, List

import pytest

from repro.analysis import Table
from repro.kernel.system import RecoverableSystem
from repro.livefire import LiveFireHarness
from repro.replica import (
    ReplicationConfig,
    WitnessConfig,
    WitnessDaemon,
)
from repro.serve import (
    DaemonClient,
    DaemonConfig,
    RetryPolicy,
    ServeDaemon,
)
from repro.workloads import register_workload_functions
from benchmarks.conftest import once, record

#: Seeded kill/zombie-promote runs in the campaign (CI smoke: E15_RUNS=6).
RUNS = int(os.environ.get("E15_RUNS", "100"))
#: Forced puts driven while sampling the witness watermarks.
LAG_WRITES = int(os.environ.get("E15_LAG_WRITES", "200"))
#: Puts per throughput lane (standalone and replicated).
THROUGHPUT_OPS = int(os.environ.get("E15_THROUGHPUT_OPS", "300"))


_record = partial(record, "BENCH_e15.json", runs=RUNS)


def _percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


def _start_pair(max_queue: int = 64):
    """One primary (replication on) + attached witness, both in-process."""
    primary_system = RecoverableSystem()
    register_workload_functions(primary_system.registry)
    primary = ServeDaemon(
        primary_system,
        DaemonConfig(port=0, http_port=None, max_queue=max_queue,
                     retry_after_ms=5),
        replication=ReplicationConfig(ack_timeout_s=5.0, retry_after_ms=5),
    ).start()
    witness_system = RecoverableSystem()
    register_workload_functions(witness_system.registry)
    witness = WitnessDaemon(
        witness_system,
        DaemonConfig(port=0, http_port=None, max_queue=max_queue,
                     retry_after_ms=5),
        witness=WitnessConfig(
            primary_port=primary.port,
            redo_every_records=32,
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


# ----------------------------------------------------------------------
# lane 1: the failover campaign (torture v5)
# ----------------------------------------------------------------------
def _campaign() -> Dict:
    harness = LiveFireHarness("v5")
    t0 = time.perf_counter()
    report = harness.campaign(RUNS, seed=0)
    elapsed = time.perf_counter() - t0
    kill_failovers = [
        outcome.failover_seconds
        for outcome in report.outcomes
        if outcome.lane == "kill" and outcome.promoted
    ]
    return {
        "runs": len(report.outcomes),
        "failed": len(report.failures()),
        "kill_runs": sum(1 for o in report.outcomes if o.lane == "kill"),
        "zombie_runs": sum(1 for o in report.outcomes if o.lane == "zombie"),
        "acked_writes": report.total("acked"),
        "acked_losses": report.total("losses"),
        "old_epoch_acks": report.total("old_epoch_acks"),
        "promoted": sum(1 for o in report.outcomes if o.promoted),
        "redo_cycles": sum(o.redo_cycles for o in report.outcomes),
        "seconds_per_failover_p50": _percentile(kill_failovers, 0.50),
        "seconds_per_failover_p95": _percentile(kill_failovers, 0.95),
        "seconds_per_failover_max": max(kill_failovers) if kill_failovers
        else 0.0,
        "wall_s": elapsed,
        "_report": report,
    }


@pytest.mark.benchmark(group="e15")
def test_e15_failover_campaign(benchmark):
    result = once(benchmark, _campaign)
    report = result.pop("_report")

    table = Table(
        f"E15: failover campaign ({RUNS} seeded kill/zombie-promote runs)",
        ["metric", "value"],
    )
    for key, value in result.items():
        table.add_row(
            key, f"{value:.4f}" if isinstance(value, float) else value
        )
    table.print()

    assert report.ok, report.summary() + "; " + "; ".join(
        f"{o.description}: {o.error or o.losses}" for o in report.failures()
    )
    # The headline claims: every run promoted and lost nothing it acked,
    # and the fence held — no post-promotion ack from the old epoch.
    assert result["acked_writes"] > 0
    assert result["acked_losses"] == 0
    assert result["old_epoch_acks"] == 0
    assert result["promoted"] == result["runs"]
    # The witness was actually redoing, not just hoarding records.
    assert result["redo_cycles"] > 0

    _record("failover_campaign", result)


# ----------------------------------------------------------------------
# lane 2: the witness redo-lag watermark
# ----------------------------------------------------------------------
def _redo_lag() -> Dict:
    primary, witness = _start_pair()
    try:
        client = DaemonClient(
            "127.0.0.1", primary.port, policy=RetryPolicy(attempts=3)
        )
        payload = b"r" * 64
        peak_lag = 0
        peak_redo_lag = 0
        t0 = time.perf_counter()
        for index in range(LAG_WRITES):
            client.put(f"lag:{index % 16}", payload)
            status = witness.replication_status()
            peak_lag = max(peak_lag, status["lag_records"])
            peak_redo_lag = max(peak_redo_lag, status["redo_lag_records"])
        elapsed = time.perf_counter() - t0
        client.close()
        # The firehose has stopped: the *durable* lag must drain to
        # zero (every ack waited for the witness's receipt, so the last
        # ack implies adopted == announced).  The *materialize* lag is
        # bounded by the redo cadence — the tail below one
        # ``redo_every_records`` batch stays un-redone until the next
        # cycle or promotion's final catch-up, by design.
        deadline = time.monotonic() + 5.0
        drained = None
        while time.monotonic() < deadline:
            drained = witness.replication_status()["lag_records"]
            if drained == 0:
                break
            time.sleep(0.01)
        final = witness.replication_status()
        return {
            "writes": LAG_WRITES,
            "lag_records_peak": peak_lag,
            "lag_redo_records_peak": peak_redo_lag,
            "lag_records_drained": drained,
            "lag_redo_records_final": final["redo_lag_records"],
            "redo_every_records": 32,
            "redo_cycles": final["redo_cycles"],
            "materialized_through": final["materialized_through"],
            "wall_s": elapsed,
        }
    finally:
        witness.stop(graceful=False)
        primary.kill()


@pytest.mark.benchmark(group="e15")
def test_e15_redo_lag(benchmark):
    result = once(benchmark, _redo_lag)

    table = Table(
        f"E15: witness redo lag under {LAG_WRITES} forced puts",
        ["metric", "value"],
    )
    for key, value in result.items():
        table.add_row(
            key, f"{value:.2f}" if isinstance(value, float) else value
        )
    table.print()

    # Semi-synchronous shipping bounds the durable lag at the batch the
    # witness is currently acking, and it must drain to zero once the
    # writers stop; the materialize lag is bounded by the redo cadence
    # (the un-redone tail is always smaller than one cycle's batch).
    assert result["lag_records_drained"] == 0
    assert result["lag_redo_records_final"] < result["redo_every_records"]
    assert result["redo_cycles"] > 0
    assert result["materialized_through"] > 0

    _record("redo_lag", result)


# ----------------------------------------------------------------------
# lane 3: the shipping cost (throughput replication off vs. on)
# ----------------------------------------------------------------------
def _throughput() -> Dict:
    payload = b"x" * 64
    # Standalone: the E12 clean path, re-measured here so both numbers
    # come from the same machine and moment.
    system = RecoverableSystem()
    register_workload_functions(system.registry)
    daemon = ServeDaemon(
        system, DaemonConfig(port=0, http_port=None)
    ).start()
    try:
        client = DaemonClient(
            "127.0.0.1", daemon.port, policy=RetryPolicy(attempts=2)
        )
        t0 = time.perf_counter()
        for index in range(THROUGHPUT_OPS):
            client.put(f"tp:{index % 16}", payload)
        standalone_s = time.perf_counter() - t0
        client.close()
    finally:
        daemon.kill()
    # Replicated: every ack now waits for the witness's durable receipt.
    primary, witness = _start_pair()
    try:
        client = DaemonClient(
            "127.0.0.1", primary.port, policy=RetryPolicy(attempts=3)
        )
        t0 = time.perf_counter()
        for index in range(THROUGHPUT_OPS):
            client.put(f"tp:{index % 16}", payload)
        replicated_s = time.perf_counter() - t0
        client.close()
    finally:
        witness.stop(graceful=False)
        primary.kill()
    standalone = THROUGHPUT_OPS / standalone_s if standalone_s > 0 else 0.0
    replicated = THROUGHPUT_OPS / replicated_s if replicated_s > 0 else 0.0
    return {
        "ops": THROUGHPUT_OPS,
        "acked_per_s_standalone": standalone,
        "acked_per_s_replicated": replicated,
        "replication_cost_x": standalone / replicated if replicated else 0.0,
        "wall_s": standalone_s + replicated_s,
    }


@pytest.mark.benchmark(group="e15")
def test_e15_throughput(benchmark):
    result = once(benchmark, _throughput)

    table = Table(
        f"E15: shipping cost ({THROUGHPUT_OPS} forced puts per lane)",
        ["metric", "value"],
    )
    for key, value in result.items():
        table.add_row(
            key, f"{value:.2f}" if isinstance(value, float) else value
        )
    table.print()

    # Both paths must ack at an operable rate; semi-synchronous shipping
    # adds one loopback round trip + one witness force per ack, so the
    # slowdown should be a small constant factor, not an order of
    # magnitude.
    assert result["acked_per_s_standalone"] > 100
    assert result["acked_per_s_replicated"] > 50
    assert result["replication_cost_x"] < 10

    _record("shipping_cost", result)
