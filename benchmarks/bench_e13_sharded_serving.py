"""E13 — sharded serving: aggregate throughput vs shard count.

The sharded daemon's performance claim is architectural: each shard
owns its own WAL stream, so N single-shard writes force N devices
concurrently — the force latency, not a shared log, is the serial
resource.  On this container (1 CPU core) real fsync parallelism can't
be shown honestly with threads, so the scaling lane runs every shard
on a :class:`~repro.wal.latency.LatencyLog` — a WAL whose stable write
sleeps a modeled device force latency (default 1.5 ms, GIL-releasing).
The daemon, sockets, admission, fence protocol and force-before-ack
path are all real; only the device wait is modeled, which is exactly
the component per-shard WALs exist to overlap.

Lanes (recorded in ``BENCH_e13.json``):

* **sharded_scaling** — aggregate acked puts/second at 1/2/4/8 shards
  under a fixed 8-client offered load, 0% cross-shard.  Acceptance:
  1→4 shards scales by at least ``E13_MIN_SPEEDUP`` (default 2.5x);
* **cross_shard_ratio** — 4 shards with 0%/5%/25% of requests made
  cross-shard (fence protocol: every participant forces before the
  ack), showing what coordination costs as the ratio grows;
* **inmemory_reference** — the same ladder on the plain in-memory WAL
  (no modeled latency), recorded for context only: on a 1-core host
  its scaling is GIL-bound and flat, which is the honest contrast.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import pytest

from repro.analysis import Table
from repro.common.rng import make_rng
from repro.serve import DaemonClient, RetryPolicy
from repro.serve.server import DaemonConfig, ServeDaemon
from repro.shard import ShardedSystem
from repro.wal.latency import LatencyLog
from repro.workloads import register_workload_functions
from benchmarks.conftest import once

#: Put requests per client thread per configuration.
OPS = int(os.environ.get("E13_OPS", "80"))
#: Fixed offered load: client threads, regardless of shard count.
CLIENTS = int(os.environ.get("E13_CLIENTS", "8"))
#: Modeled device force latency for the scaling lanes (milliseconds).
FORCE_LATENCY_MS = float(os.environ.get("E13_FORCE_LATENCY_MS", "1.5"))
#: Required aggregate speedup from 1 shard to 4 shards at 0% cross.
MIN_SPEEDUP = float(os.environ.get("E13_MIN_SPEEDUP", "2.5"))

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_e13.json"


def _record(section: str, payload) -> None:
    """Merge one section into the BENCH_e13.json trajectory file."""
    data = {}
    if RESULTS_PATH.exists():
        try:
            data = json.loads(RESULTS_PATH.read_text())
        except (ValueError, OSError):
            data = {}
    data["ops_per_client"] = OPS
    data["clients"] = CLIENTS
    data["force_latency_ms"] = FORCE_LATENCY_MS
    data[section] = payload
    RESULTS_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# workload plumbing
# ----------------------------------------------------------------------
def _keys_by_shard(shards: int, per_shard: int) -> Dict[int, List[str]]:
    """Probe key names until every shard owns ``per_shard`` keys."""
    sharded_keys: Dict[int, List[str]] = {s: [] for s in range(shards)}
    from repro.shard import ShardRouter

    router = ShardRouter(shards)
    probe = 0
    while any(len(keys) < per_shard for keys in sharded_keys.values()):
        key = f"e13:{probe}"
        probe += 1
        owner = router.shard_of(key)
        if len(sharded_keys[owner]) < per_shard:
            sharded_keys[owner].append(key)
        if probe > 100_000:  # pragma: no cover - crc32 is uniform
            raise AssertionError("key probing did not converge")
    return sharded_keys


def _run_load(
    shards: int,
    cross_ratio: float = 0.0,
    modeled_latency: bool = True,
) -> Dict:
    """Drive CLIENTS threads at an S-shard daemon; return the rates."""
    log_factory = None
    if modeled_latency:
        log_factory = lambda index: LatencyLog(  # noqa: E731
            force_latency_s=FORCE_LATENCY_MS / 1000.0
        )
    sharded = ShardedSystem.build(shards, log_factory=log_factory)
    register_workload_functions(sharded.registry)
    daemon = ServeDaemon(
        sharded,
        DaemonConfig(port=0, http_port=None, max_queue=256),
    ).start()
    keys = _keys_by_shard(shards, max(2, CLIENTS))
    payload = b"x" * 64
    acked = [0] * CLIENTS
    cross_acked = [0] * CLIENTS
    errors: List[str] = []

    def worker(cid: int) -> None:
        # Each client is pinned to one shard's keys: the 0% lane is
        # exactly N independent single-shard streams.
        home = cid % shards
        my_keys = keys[home]
        other = (home + 1) % shards
        rng = make_rng(f"e13:{shards}:{cross_ratio}:{cid}")
        client = DaemonClient(
            "127.0.0.1",
            daemon.port,
            policy=RetryPolicy(attempts=6, base_delay=0.001, deadline=30.0),
        )
        try:
            for index in range(OPS):
                if cross_ratio > 0.0 and rng.random() < cross_ratio:
                    src = my_keys[index % len(my_keys)]
                    dst = keys[other][cid % len(keys[other])]
                    client.apply(
                        "wl_derive",
                        reads=[src],
                        writes=[dst],
                        params=[src, dst],
                        name=f"e13x:{cid}:{index}",
                    )
                    cross_acked[cid] += 1
                else:
                    client.put(
                        my_keys[index % len(my_keys)], payload
                    )
                acked[cid] += 1
        except Exception as exc:  # noqa: BLE001 - recorded, fails the lane
            errors.append(f"client {cid}: {type(exc).__name__}: {exc}")
        finally:
            client.close()

    threads = [
        threading.Thread(target=worker, args=(cid,), daemon=True)
        for cid in range(CLIENTS)
    ]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - t0
    daemon.stop(graceful=True)
    total = sum(acked)
    if errors:
        raise AssertionError("; ".join(errors[:3]))
    return {
        "shards": shards,
        "cross_ratio": cross_ratio,
        "acked": total,
        "cross_acked": sum(cross_acked),
        "acked_per_s": total / elapsed if elapsed > 0 else 0.0,
        "wall_s": elapsed,
    }


# ----------------------------------------------------------------------
# lane 1: aggregate throughput vs shard count (0% cross-shard)
# ----------------------------------------------------------------------
def _scaling() -> Dict:
    out: Dict[str, Dict] = {}
    for shards in (1, 2, 4, 8):
        out[str(shards)] = _run_load(shards)
    base = out["1"]["acked_per_s"]
    return {
        "configs": out,
        "acked_per_s_1": out["1"]["acked_per_s"],
        "acked_per_s_2": out["2"]["acked_per_s"],
        "acked_per_s_4": out["4"]["acked_per_s"],
        "acked_per_s_8": out["8"]["acked_per_s"],
        "speedup_1_to_4": out["4"]["acked_per_s"] / base if base else 0.0,
        "speedup_1_to_8": out["8"]["acked_per_s"] / base if base else 0.0,
    }


@pytest.mark.benchmark(group="e13")
def test_e13_sharded_scaling(benchmark):
    result = once(benchmark, _scaling)

    table = Table(
        f"E13: aggregate acked puts/s vs shard count "
        f"({CLIENTS} clients x {OPS} ops, "
        f"{FORCE_LATENCY_MS} ms modeled force)",
        ["shards", "acked", "acked/s", "wall s"],
    )
    for shards, row in result["configs"].items():
        table.add_row(
            shards, row["acked"], f"{row['acked_per_s']:.0f}",
            f"{row['wall_s']:.2f}",
        )
    table.print()
    print(
        f"speedup 1->4 shards: {result['speedup_1_to_4']:.2f}x "
        f"(floor {MIN_SPEEDUP}x); 1->8: {result['speedup_1_to_8']:.2f}x"
    )

    # The tentpole acceptance bar: per-shard WALs must buy real
    # aggregate scaling when the workload is shard-local.
    assert result["speedup_1_to_4"] >= MIN_SPEEDUP, (
        f"1->4 shard speedup {result['speedup_1_to_4']:.2f}x is below "
        f"the {MIN_SPEEDUP}x floor"
    )

    _record("sharded_scaling", result)


# ----------------------------------------------------------------------
# lane 2: what cross-shard coordination costs
# ----------------------------------------------------------------------
def _cross_ratio() -> Dict:
    out: Dict[str, Dict] = {}
    for ratio in (0.0, 0.05, 0.25):
        out[f"{ratio:.2f}"] = _run_load(4, cross_ratio=ratio)
    return out


@pytest.mark.benchmark(group="e13")
def test_e13_cross_shard_ratio(benchmark):
    results = once(benchmark, _cross_ratio)

    table = Table(
        "E13: 4-shard throughput vs cross-shard ratio (fence on every "
        "participant, all forced before ack)",
        ["ratio", "acked", "cross", "acked/s"],
    )
    for ratio, row in results.items():
        table.add_row(
            ratio, row["acked"], row["cross_acked"],
            f"{row['acked_per_s']:.0f}",
        )
    table.print()

    for ratio, row in results.items():
        assert row["acked"] == CLIENTS * OPS, (ratio, row)
    # 25% cross-shard must actually exercise the fence protocol.
    assert results["0.25"]["cross_acked"] > 0

    _record(
        "cross_shard_ratio",
        {
            ratio: {
                "acked_per_s": row["acked_per_s"],
                "cross_acked": row["cross_acked"],
            }
            for ratio, row in results.items()
        },
    )


# ----------------------------------------------------------------------
# lane 3: the honest 1-core reference (no modeled latency)
# ----------------------------------------------------------------------
def _inmemory_reference() -> Dict:
    out: Dict[str, Dict] = {}
    for shards in (1, 4):
        out[str(shards)] = _run_load(shards, modeled_latency=False)
    return out


@pytest.mark.benchmark(group="e13")
def test_e13_inmemory_reference(benchmark):
    results = once(benchmark, _inmemory_reference)

    table = Table(
        "E13: in-memory WAL reference (GIL-bound on a 1-core host; "
        "recorded for contrast, no scaling asserted)",
        ["shards", "acked", "acked/s"],
    )
    for shards, row in results.items():
        table.add_row(shards, row["acked"], f"{row['acked_per_s']:.0f}")
    table.print()

    for row in results.values():
        assert row["acked"] == CLIENTS * OPS

    _record(
        "inmemory_reference",
        {
            shards: {"acked_per_s": row["acked_per_s"]}
            for shards, row in results.items()
        },
    )
