"""E13 — sharded serving: aggregate throughput vs shard count.

Each shard owns its own WAL stream and its own committer, so the
force latency is paid per *commit batch*, not per write: whatever the
apply thread appended during the previous force shares the next one.
The scaling lane runs every shard on a
:class:`~repro.wal.latency.LatencyLog` — a WAL whose stable write
sleeps a modeled device force latency (default 1.5 ms, GIL-releasing) —
so the device wait is pinned while the daemon, sockets, admission,
fence protocol and release-by-stable-lSI path are all real.  This lane
is a model, not a hardware measurement (``perf/`` measures real fsync).

Before the pipelined commit (3.1.0) one shard under the 8-client load
was a serial one-force-per-ack stream (409-531 acked/s), and the bar
was that 4 shards deliver ≥ 2.5x of it.  A committer shares each force,
so one shard under load is no longer that stream; the lane now
measures it directly — one lone caller on one shard, one force per ack
— and keeps the bar against it.

Lanes (recorded in ``.bench_results/BENCH_e13.json``, which CI diffs
against the committed ``BENCH_e13.json``):

* **sharded_scaling** — aggregate acked puts/second at 1/2/4/8 shards
  under a fixed 8-client offered load, 0% cross-shard, beside the
  serial stream (1 shard, 1 client).  Acceptance: 4 and 8 shards each
  deliver at least ``E13_MIN_SPEEDUP`` (default 2.5x) of the serial
  stream (per-shard WALs overlap their forces), and one shard under
  the 8-client load at least 2x of it (its committer shares forces);
* **cross_shard_ratio** — 4 shards with 0%/5%/25% of requests made
  cross-shard (fence protocol: every participant forces before the
  ack), showing what coordination costs as the ratio grows;
* **inmemory_reference** — the same ladder on the plain in-memory WAL
  (no modeled latency), recorded for context only: on a 1-core host
  its scaling is GIL-bound and flat, which is the honest contrast.
"""

from __future__ import annotations

import gc
import os
import threading
import time
from functools import partial
from typing import Dict, List, Optional

import pytest

from repro.analysis import Table
from repro.common.rng import make_rng
from repro.serve import DaemonClient, RetryPolicy
from repro.serve.server import DaemonConfig, ServeDaemon
from repro.shard import ShardedSystem
from repro.wal.latency import LatencyLog
from repro.workloads import register_workload_functions
from benchmarks.conftest import once, record

#: Put requests per client thread per configuration.
OPS = int(os.environ.get("E13_OPS", "80"))
#: Fixed offered load: client threads, regardless of shard count.
CLIENTS = int(os.environ.get("E13_CLIENTS", "8"))
#: Modeled device force latency for the scaling lanes (milliseconds).
FORCE_LATENCY_MS = float(os.environ.get("E13_FORCE_LATENCY_MS", "1.5"))
#: Required aggregate speedup of 4 (and 8) shards at 0% cross over one
#: serial one-force-per-ack stream.
MIN_SPEEDUP = float(os.environ.get("E13_MIN_SPEEDUP", "2.5"))
#: Required speedup of one shard under the 8-client load over it.
MIN_COALESCE = 2.0


_record = partial(
    record, "BENCH_e13.json", ops_per_client=OPS, clients=CLIENTS,
    force_latency_ms=FORCE_LATENCY_MS,
)


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
    clients: int = CLIENTS,
) -> Dict:
    """Drive ``clients`` threads at an S-shard daemon; return the rates."""
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
    keys = _keys_by_shard(shards, max(2, clients))
    payload = b"x" * 64
    acked = [0] * clients
    cross_acked = [0] * clients
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
        for cid in range(clients)
    ]
    # Tier-1 runs this after E10-E12 in one interpreter: their garbage
    # makes a full collection a ~0.3 s pause, as long as a whole config
    # here.  Collect it now so it is not billed to this lane.
    gc.collect()
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
    # The serial stream: a lone caller gets exactly one force per ack.
    base = _run_load(1, clients=1)["acked_per_s"]
    return {
        "configs": out,
        "serial_acked_per_s": base,
        "acked_per_s_1": out["1"]["acked_per_s"],
        "acked_per_s_2": out["2"]["acked_per_s"],
        "acked_per_s_4": out["4"]["acked_per_s"],
        "acked_per_s_8": out["8"]["acked_per_s"],
        "speedup_1_to_4": out["4"]["acked_per_s"] / base if base else 0.0,
        "speedup_1_to_8": out["8"]["acked_per_s"] / base if base else 0.0,
        "coalesce_x_1": out["1"]["acked_per_s"] / base if base else 0.0,
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
        f"serial one-force-per-ack stream: "
        f"{result['serial_acked_per_s']:.0f} acked/s; over it: "
        f"1 shard {result['coalesce_x_1']:.2f}x (floor {MIN_COALESCE}x), "
        f"4 shards {result['speedup_1_to_4']:.2f}x, "
        f"8 shards {result['speedup_1_to_8']:.2f}x (floor {MIN_SPEEDUP}x)"
    )

    # The acceptance bar, unchanged in kind: per-shard WALs must buy
    # real aggregate scaling over one serial force stream when the
    # workload is shard-local — and now one shard's committer must too.
    for key in ("speedup_1_to_4", "speedup_1_to_8"):
        assert result[key] >= MIN_SPEEDUP, (
            f"{key} {result[key]:.2f}x is below the {MIN_SPEEDUP}x floor"
        )
    assert result["coalesce_x_1"] >= MIN_COALESCE, (
        f"one shard under load acks only {result['coalesce_x_1']:.2f}x "
        f"the serial stream (floor {MIN_COALESCE}x)"
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
