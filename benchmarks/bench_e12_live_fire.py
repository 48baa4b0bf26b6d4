"""E12 — live fire: exactly-once visibility through a serving daemon.

E9/E11 tortured the kernel through its Python API.  E12 tortures the
whole *operable* stack: real clients over real sockets against the
serving daemon, fault-injected storage underneath, the daemon
SIGKILL-simulated at a seeded moment mid-workload, supervised recovery,
then an audit of the one claim operators actually rely on — **every
write the daemon acknowledged is visible after recovery, exactly once**
(at or past its acked lSI, with the acked value when the lSI matches,
and never a value no client sent):

* **live-fire campaign** — ``E12_RUNS`` seeded in-process runs (CI
  smoke: ``E12_RUNS=25``), each with concurrent clients, fuzzed
  transient/torn/corrupt faults, a seeded kill point, and a full
  post-recovery audit; expected zero acked-write losses, with the
  watchdog's restarts and the fault ledger reported;
* **subprocess lanes** — the same contract against a real
  ``python -m repro serve`` process: one SIGKILL run (abrupt death,
  restart, HEALTHY on the wire, audit) and one SIGTERM run (the
  drain must exit 0 and lose nothing);
* **clean-path throughput** — acked writes/second through the daemon
  with no faults armed, so the serving overhead has a number and a
  trajectory.

Results merge into ``.bench_results/BENCH_e12.json`` (untracked), which
CI diffs against the committed ``BENCH_e12.json``.
"""

from __future__ import annotations

import os
import tempfile
import time
from functools import partial
from typing import Dict

import pytest

from repro.analysis import Table
from repro.kernel.system import RecoverableSystem
from repro.livefire import SCENARIOS, LiveFireHarness
from repro.obs import MetricsRegistry
from repro.serve import (
    DaemonClient,
    DaemonConfig,
    RetryPolicy,
    ServeDaemon,
)
from repro.workloads import register_workload_functions
from benchmarks.conftest import once, record

#: Seeded live-fire runs in the campaign (CI smoke: E12_RUNS=25).
RUNS = int(os.environ.get("E12_RUNS", "200"))
#: Clean-path throughput sample size.
THROUGHPUT_OPS = int(os.environ.get("E12_THROUGHPUT_OPS", "400"))


_record = partial(record, "BENCH_e12.json", runs=RUNS)


# ----------------------------------------------------------------------
# lane 1: the in-process live-fire campaign
# ----------------------------------------------------------------------
def _campaign() -> Dict:
    registry = MetricsRegistry()
    harness = LiveFireHarness("v3", metrics=registry)
    t0 = time.perf_counter()
    report = harness.campaign(RUNS, seed=0)
    elapsed = time.perf_counter() - t0
    acked = report.total("acked")
    return {
        "runs": len(report.outcomes),
        "failed": len(report.failures()),
        "acked_writes": acked,
        "acked_losses": report.total("losses"),
        "sent": sum(o.sent for o in report.outcomes),
        "restarts": sum(o.restarts for o in report.outcomes),
        "faults_injected": sum(o.faults_injected for o in report.outcomes),
        "acked_per_s": acked / elapsed if elapsed > 0 else 0.0,
        "wall_s": elapsed,
        "_report": report,
    }


@pytest.mark.benchmark(group="e12")
def test_e12_live_fire_campaign(benchmark):
    result = once(benchmark, _campaign)
    report = result.pop("_report")

    table = Table(
        f"E12: live-fire campaign ({RUNS} seeded kill-and-audit runs)",
        ["metric", "value"],
    )
    for key in (
        "runs", "failed", "acked_writes", "acked_losses", "sent",
        "restarts", "faults_injected", "acked_per_s", "wall_s",
    ):
        value = result[key]
        table.add_row(
            key, f"{value:.2f}" if isinstance(value, float) else value
        )
    table.print()

    assert report.ok, report.summary() + "; " + "; ".join(
        f"{o.description}: {o.error or o.losses}" for o in report.failures()
    )
    # The headline claim: many acked writes, zero lost after recovery.
    assert result["acked_writes"] > 0
    assert result["acked_losses"] == 0
    # The campaign must actually be live fire, not a calm-weather walk:
    # faults were injected and at least one run crashed serving hard
    # enough that the watchdog restarted recovery.
    assert result["faults_injected"] > 0
    assert result["restarts"] > 0

    _record("live_fire", result)


# ----------------------------------------------------------------------
# lane 2: the subprocess lanes (a real daemon process)
# ----------------------------------------------------------------------
def _subprocess_lanes() -> Dict[str, Dict]:
    harness = LiveFireHarness(
        "v3", SCENARIOS["v3"].config(clients=2, requests_per_client=10)
    )
    out: Dict[str, Dict] = {}
    for label, graceful, fault_seed in (
        ("sigkill", False, 3), ("sigterm", True, None),
    ):
        with tempfile.TemporaryDirectory(prefix=f"e12-{label}-") as workdir:
            t0 = time.perf_counter()
            outcome = harness.subprocess_run(
                workdir, seed=1, graceful=graceful, fault_seed=fault_seed
            )
            out[label] = {
                "ok": outcome.ok,
                "error": outcome.error,
                "acked_writes": outcome.acked,
                "acked_losses": len(outcome.losses),
                "wall_s": time.perf_counter() - t0,
            }
    return out


@pytest.mark.benchmark(group="e12")
def test_e12_subprocess_lanes(benchmark):
    results = once(benchmark, _subprocess_lanes)

    table = Table(
        "E12: real-process lanes (SIGKILL + restart, SIGTERM drain)",
        ["lane", "ok", "acked", "losses", "wall s"],
    )
    for label, row in results.items():
        table.add_row(
            label, row["ok"], row["acked_writes"], row["acked_losses"],
            f"{row['wall_s']:.2f}",
        )
    table.print()

    for label, row in results.items():
        assert row["ok"], f"{label}: {row['error']}"
        assert row["acked_writes"] > 0
        assert row["acked_losses"] == 0

    _record("subprocess_lanes", results)


# ----------------------------------------------------------------------
# lane 3: clean-path serving throughput
# ----------------------------------------------------------------------
def _throughput() -> Dict:
    system = RecoverableSystem()
    register_workload_functions(system.registry)
    daemon = ServeDaemon(
        system, DaemonConfig(port=0, http_port=None)
    ).start()
    try:
        client = DaemonClient(
            "127.0.0.1", daemon.port, policy=RetryPolicy(attempts=2)
        )
        payload = b"x" * 64
        t0 = time.perf_counter()
        for index in range(THROUGHPUT_OPS):
            client.put(f"tp:{index % 16}", payload)
        elapsed = time.perf_counter() - t0
        client.close()
        status = daemon.stop(graceful=True)
    finally:
        daemon.stop(graceful=False)
    return {
        "ops": THROUGHPUT_OPS,
        "acked_per_s": THROUGHPUT_OPS / elapsed if elapsed > 0 else 0.0,
        "shutdown_status": status,
        "wall_s": elapsed,
    }


@pytest.mark.benchmark(group="e12")
def test_e12_serving_throughput(benchmark):
    result = once(benchmark, _throughput)

    table = Table(
        f"E12: clean-path daemon throughput ({THROUGHPUT_OPS} forced puts)",
        ["metric", "value"],
    )
    for key, value in result.items():
        table.add_row(
            key, f"{value:.2f}" if isinstance(value, float) else value
        )
    table.print()

    assert result["shutdown_status"] == 0
    # Loopback round trip + WAL force per op: anything under 100/s
    # would mean the serving layer grew a pathological stall.
    assert result["acked_per_s"] > 100

    _record("serving_throughput", result)
