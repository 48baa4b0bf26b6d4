"""E11 — recovery resilience: convergence cost when recovery itself
is under fire.

E9 proved recovery survives a faulty device when the faults hit the
*forward* run.  E11 turns the adversary on recovery: every numbered
recovery-phase I/O point is crashed/torn/flipped (including nested
schedules that kill several successive recovery attempts), and a fuzz
ladder raises the mid-recovery crash rate to measure what resilience
*costs* — supervised attempts per convergence, restarts, and wall
time — as the device gets nastier:

* **recovery-point sweep** — the torture-v2 grid (point × kind plus
  nested-crash schedules); expected 100% convergence to HEALTHY with
  the restart machinery visibly working (nonzero restarts);
* **fuzz ladder** — seeded two-phase schedules at increasing
  mid-recovery crash rates; expected 100% convergence at every rung
  with mean attempts growing monotonically (within noise) in the
  crash rate — resilience scales smoothly, it does not cliff;
* **degraded-mode lane** — the worst case: unrecoverable loss with no
  backup and media restore disabled must land in DEGRADED read-only
  mode in one attempt, never loop.

Results merge into ``.bench_results/BENCH_e11.json`` (untracked), which
CI diffs against the committed ``BENCH_e11.json``.  ``E11_RUNS`` caps the fuzz runs per
ladder rung (CI smoke runs with ``E11_RUNS=20``); the assertions all
still run at any cap.
"""

from __future__ import annotations

import os
import time
from functools import partial
from typing import Dict

import pytest

from repro.common.errors import DegradedModeError
from repro.kernel.supervisor import RecoverySupervisor
from repro.kernel.system import (
    RecoverableSystem,
    SystemConfig,
    SystemHealth,
)
from repro.kernel.torture import RECOVERY, TortureConfig, TortureHarness
from repro.analysis import Table, fault_summary
from repro.storage.faults import (
    RECOVERY_PHASE,
    FaultModel,
    FuzzRates,
)
from repro.storage.faultwrap import FaultyStore
from repro.storage.stable_store import StoredVersion
from repro.wal.faulty_log import FaultyLog
from repro.workloads import register_workload_functions
from tests.conftest import physical
from benchmarks.conftest import RESULTS_DIR, once, record

#: Fuzz schedules per ladder rung (CI smoke: E11_RUNS=20).
RUNS = int(os.environ.get("E11_RUNS", "150"))
#: Workload size for every campaign.
OPS = int(os.environ.get("E11_OPS", "30"))

#: The ladder: mid-recovery crash probability per I/O point.  Damage
#: rates stay fixed so attempts isolate the cost of *restarting*.
CRASH_RATES = (0.0, 0.01, 0.05, 0.15)


_record = partial(record, "BENCH_e11.json", runs_per_rung=RUNS, operations=OPS)


def _harness() -> TortureHarness:
    return TortureHarness(TortureConfig(operations=OPS))


# ----------------------------------------------------------------------
# lane 1: the sweep
# ----------------------------------------------------------------------
def _sweep_campaign() -> Dict:
    harness = _harness()
    t0 = time.perf_counter()
    report = harness.sweep(RECOVERY)
    elapsed = time.perf_counter() - t0
    return {
        "points": report.points,
        "runs": len(report.outcomes),
        "failed": len(report.failures()),
        "max_attempts": max(o.attempts for o in report.outcomes),
        "restarts": report.totals.get("recovery_restarts", 0),
        "attempts": report.totals.get("recovery_attempts", 0),
        "wall_s": elapsed,
        "totals": report.totals,
        "_report": report,
    }


@pytest.mark.benchmark(group="e11")
def test_e11_recovery_sweep(benchmark):
    result = once(benchmark, _sweep_campaign)
    report = result.pop("_report")

    table = Table(
        "E11: recovery-phase fault sweep (converge under fire)",
        ["metric", "value"],
    )
    for key in (
        "points", "runs", "failed", "max_attempts", "restarts", "wall_s",
    ):
        value = result[key]
        table.add_row(
            key, f"{value:.3f}" if isinstance(value, float) else value
        )
    table.print()
    fault_summary(result["totals"], title="E11: sweep fault ledger").print()

    assert report.ok, "; ".join(
        f"{o.description}: {o.error}" for o in report.failures()
    )
    # The restart machinery must be doing real work: the nested-crash
    # schedules alone force ≥3 restarts each.
    assert result["restarts"] >= 3
    assert result["max_attempts"] >= 4

    result["totals"] = dict(result["totals"])
    _record("sweep", result)


# ----------------------------------------------------------------------
# lane 2: the fuzz ladder
# ----------------------------------------------------------------------
def _ladder_campaign() -> Dict[str, Dict]:
    out: Dict[str, Dict] = {}
    for rate in CRASH_RATES:
        harness = _harness()
        rates = FuzzRates(torn=0.005, corrupt=0.005, crash=rate)
        t0 = time.perf_counter()
        report = harness.fuzz(RUNS, seed=0, rates=rates, phase=RECOVERY)
        elapsed = time.perf_counter() - t0
        attempts = [o.attempts for o in report.outcomes]
        out[f"{rate:g}"] = {
            "runs": len(report.outcomes),
            "failed": len(report.failures()),
            "mean_attempts": sum(attempts) / max(1, len(attempts)),
            "max_attempts": max(attempts),
            "restarts": report.totals.get("recovery_restarts", 0),
            "faults": report.totals.get("faults_injected", 0),
            "wall_s": elapsed,
            "_report": report,
        }
    return out


@pytest.mark.benchmark(group="e11")
def test_e11_crash_rate_ladder(benchmark):
    results = once(benchmark, _ladder_campaign)

    table = Table(
        f"E11: mid-recovery crash-rate ladder ({RUNS} runs/rung)",
        ["crash rate", "runs", "failed", "mean att", "max att",
         "restarts", "wall s"],
    )
    for rate, row in results.items():
        table.add_row(
            rate, row["runs"], row["failed"],
            f"{row['mean_attempts']:.2f}", row["max_attempts"],
            row["restarts"], f"{row['wall_s']:.3f}",
        )
    table.print()

    for rate, row in results.items():
        report = row.pop("_report")
        assert report.ok, f"crash rate {rate}: " + "; ".join(
            f"{o.description}: {o.error}" for o in report.failures()
        )
    # Resilience costs attempts, smoothly: the top rung restarts more
    # than the bottom one, and nothing ever fails to converge.
    rungs = list(results.values())
    assert rungs[-1]["restarts"] > rungs[0]["restarts"]
    assert rungs[-1]["mean_attempts"] >= rungs[0]["mean_attempts"]

    _record("crash_rate_ladder", results)


# ----------------------------------------------------------------------
# lane 3: recovery telemetry — spans + latency digests from a
# supervised campaign, exported as the JSONL artifact CI uploads
# ----------------------------------------------------------------------

#: Where the telemetry artifact lands (beside the results; CI smoke
#: overrides via E11_METRICS_OUT).
METRICS_PATH = os.environ.get(
    "E11_METRICS_OUT", str(RESULTS_DIR / "BENCH_e11_metrics.jsonl")
)
#: Supervised fuzz runs for the telemetry lane (kept small: every run
#: is a full workload + supervised recovery).
TELEMETRY_RUNS = max(2, min(10, RUNS // 5))


def _telemetry_campaign() -> Dict:
    from repro.obs import MetricsRegistry, dump_jsonl

    registry = MetricsRegistry()
    harness = TortureHarness(
        TortureConfig(operations=OPS), metrics=registry
    )
    rates = FuzzRates(torn=0.005, corrupt=0.005, crash=0.05)
    t0 = time.perf_counter()
    report = harness.fuzz(TELEMETRY_RUNS, seed=0, rates=rates, phase=RECOVERY)
    elapsed = time.perf_counter() - t0
    dump_jsonl(registry, METRICS_PATH)
    attempts = sum(o.attempts for o in report.outcomes)
    snap = registry.snapshot()
    return {
        "runs": len(report.outcomes),
        "failed": len(report.failures()),
        "attempts": attempts,
        "seconds_per_attempt": (
            sum(
                event["seconds"]
                for event in registry.span_events("recovery.attempt")
            )
            / max(1, attempts)
        ),
        "wall_s": elapsed,
        "metrics_path": METRICS_PATH,
        "_report": report,
        "_registry": registry,
        "_snapshot": snap,
    }


@pytest.mark.benchmark(group="e11")
def test_e11_recovery_telemetry(benchmark):
    result = once(benchmark, _telemetry_campaign)
    report = result.pop("_report")
    registry = result.pop("_registry")
    snap = result.pop("_snapshot")

    table = Table(
        f"E11: supervised-recovery telemetry ({TELEMETRY_RUNS} fuzz runs)",
        ["metric", "value"],
    )
    for key in ("runs", "failed", "attempts", "seconds_per_attempt",
                "wall_s"):
        value = result[key]
        table.add_row(
            key, f"{value:.5f}" if isinstance(value, float) else value
        )
    table.print()

    assert report.ok
    # One span per supervised recovery attempt, each tagged with the
    # phase and the supervisor's verdict.
    spans = registry.span_events("recovery.attempt")
    assert len(spans) == result["attempts"] > 0
    for event in spans:
        assert event["tags"]["phase"] == "recovery"
        assert "outcome" in event["tags"]
    # The latency digests CI's artifact carries: p50/p99 for the WAL
    # force and the cache flush paths.
    for name in ("wal.force", "cache.flush"):
        hist = snap["histograms"][name]
        assert hist["count"] > 0
        assert hist["p99"] >= hist["p50"] >= 0.0
    # The artifact on disk round-trips to the same counters.
    from repro.obs import load_jsonl

    loaded = load_jsonl(METRICS_PATH)
    assert loaded["snapshot"]["counters"] == snap["counters"]
    assert len(loaded["spans"]) == len(registry.span_events())

    _record("recovery_telemetry", {
        key: value for key, value in result.items()
    })


# ----------------------------------------------------------------------
# lane 4: degraded mode, the worst case
# ----------------------------------------------------------------------
def _degraded_campaign() -> Dict:
    model = FaultModel(armed=False)
    system = RecoverableSystem(
        SystemConfig(), store=FaultyStore(model), log=FaultyLog(model)
    )
    register_workload_functions(system.registry)
    for index in range(OPS):
        system.execute(physical(f"obj:{index % 4}", b"v%d" % index))
    system.flush_all()
    system.checkpoint(truncate=True)
    victim = "obj:1"
    good = system.store._versions[victim]
    system.store._versions[victim] = StoredVersion(b"\x00ROT\x00", good.vsi)
    system.crash()
    model.enter_phase(RECOVERY_PHASE)
    t0 = time.perf_counter()
    report = RecoverySupervisor(system).run()
    elapsed = time.perf_counter() - t0
    survivors_readable = all(
        system.read(obj) is not None
        for obj in ("obj:0", "obj:2", "obj:3")
    )
    writes_refused = False
    try:
        system.execute(physical("obj:0", b"nope"))
    except DegradedModeError:
        writes_refused = True
    return {
        "attempts": report.attempts_used,
        "health": report.final_health.value,
        "lost": sorted(map(str, report.objects_lost)),
        "survivors_readable": survivors_readable,
        "writes_refused": writes_refused,
        "wall_s": elapsed,
    }


@pytest.mark.benchmark(group="e11")
def test_e11_degraded_mode(benchmark):
    result = once(benchmark, _degraded_campaign)

    table = Table(
        "E11: unrecoverable loss lands read-only, fast",
        ["metric", "value"],
    )
    for key, value in result.items():
        table.add_row(
            key, f"{value:.4f}" if isinstance(value, float) else str(value)
        )
    table.print()

    assert result["health"] == SystemHealth.DEGRADED.value
    assert result["lost"] == ["obj:1"]
    assert result["survivors_readable"]
    assert result["writes_refused"]
    # The worst case must not burn the attempt budget: one converged
    # attempt classifies the loss and stops.
    assert result["attempts"] == 1

    _record("degraded", result)
