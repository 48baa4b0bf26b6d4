"""Per-layer metrics derived from the traced pass's spans and counters.

Every ``*.self_*`` number is span self time (see ``perf.spans``); every
``*_per_kop`` / ``*_per_op`` count is a counter delta over the traced
operations.  A layer that did not run on a workload reads 0.0 — that is
the prediction for ``cache.purge``, ``storage.write`` and
``wal.truncate`` on the served workloads, and for ``replica.*`` outside
``serve_replicated``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping

from perf.spans import SpanTable


#: Layers with no code on a workload's path, reported as 0.0 there: the
#: embedded workload has no daemon and no witness, the served ones run
#: no comparator passes.
ABSENT_ON_EMBEDDED = (
    "serve.protocol.encode_decode_us_per_op", "serve.ping_rtt_ms",
    "replica.witness.records_per_adopt", "replica.cost_x",
)
ABSENT_ON_SERVED = (
    "comparator.physical.acked_per_s", "comparator.physical.log_bytes_per_op",
    "comparator.w_graph.acked_per_s", "comparator.w_graph.flushes_per_kop",
)


#: Scale of the short untraced pass the traced run adds (see
#: ``e2e_sample``), as a share of ``--seconds``.
E2E_SAMPLE_SHARE = 0.25


def e2e_sample(sample: Mapping[str, Any]) -> Dict[str, float]:
    """The wall-clock timings of a quarter-scale untraced pass, carried
    among the per-layer metrics as ``e2e.*``: on this sandbox they move
    by a factor of two with the machine's mood, so no bound can gate
    them, but every run still records them."""
    return {f"e2e.{name}": value for name, value in sample["timings"].items()}


def span_metrics(table: SpanTable, ops: int) -> Dict[str, float]:
    per_op, per_call = table.self_per_op, table.self_per_call
    return {
        "serve.client_request.self_ms_per_op":
            per_op("serve.client_request", ops, 1e3),
        "kernel.execute.self_us_per_op": per_op("kernel.execute", ops, 1e6),
        "kernel.read.self_us_per_op": per_op("kernel.read", ops, 1e6),
        "cache.execute.self_us_per_op": per_op("cache.execute", ops, 1e6),
        "cache.read_object.self_us_per_op":
            per_op("cache.read_object", ops, 1e6),
        "cache.purge.self_ms_per_call": per_call("cache.purge", 1e3),
        "cache.purge.calls_per_kop": table.calls_per_kop("cache.purge", ops),
        "cache.checkpoint.self_ms_per_call":
            per_call("cache.checkpoint", 1e3),
        "cache.checkpoint.calls": float(table.calls.get("cache.checkpoint", 0)),
        "core.engine.add_operation.self_us_per_op":
            per_op("core.engine.add_operation", ops, 1e6),
        "core.engine.remove_node.self_us_per_call":
            per_call("core.engine.remove_node", 1e6),
        "wal.append.self_us_per_op": per_op("wal.append", ops, 1e6),
        "wal.truncate.self_ms_per_call": per_call("wal.truncate", 1e3),
        "wal.truncate.calls": float(table.calls.get("wal.truncate", 0)),
        "storage.write.self_ms_per_call": per_call("storage.write", 1e3),
        "storage.write.calls_per_kop":
            table.calls_per_kop("storage.write", ops),
        "storage.read.self_us_per_call": per_call("storage.read", 1e6),
        "storage.read.calls_per_kop": table.calls_per_kop("storage.read", ops),
        "storage.compact.self_ms_per_call": per_call("storage.compact", 1e3),
        "replica.replicate.self_ms_per_op":
            per_op("replica.replicate", ops, 1e3),
        "replica.witness.adopt_records.self_ms_per_call":
            per_call("replica.witness.adopt_records", 1e3),
    }


def counter_metrics(table: SpanTable, io: Mapping[str, int],
                    ops: int) -> Dict[str, float]:
    """Ratios from the kernel's own ``IOStats`` ledger (delta over the
    traced operations)."""
    forces = io.get("log_forces", 0)
    kops = ops / 1000.0 if ops else 1.0
    return {
        "cache.flushes_per_kop": io.get("flushes", 0) / kops,
        "cache.identity_writes_per_kop": io.get("identity_writes", 0) / kops,
        # Per *device* force: force requests that found the record
        # already stable are spans too, but touch no disk.
        "wal.force.self_ms_per_call":
            table.self_s.get("wal.force", 0.0) * 1e3 / forces if forces else 0.0,
        "wal.force.calls_per_op": forces / ops if ops else 0.0,
        "wal.force.records_per_call":
            io.get("log_records", 0) / forces if forces else 0.0,
        "storage.compactions": float(io.get("compactions", 0)),
        "storage.compaction_copies_per_kop":
            io.get("compaction_copies", 0) / kops,
    }


def recovery_metrics(spans: Iterable[Mapping[str, Any]], scanned: int,
                     considered: int, redone: int) -> Dict[str, float]:
    """From the one crash()/supervised-recover cycle that ends the
    traced pass: whole-span durations of the supervisor and the
    recovery manager, and three counts off the ``RecoveryReport``."""
    duration: Dict[str, float] = {}
    for span in spans:
        duration[span["name"]] = (
            duration.get(span["name"], 0.0) + span["end"] - span["start"]
        )
    run_ms = duration.get("core.recovery.run", 0.0) * 1e3
    return {
        "kernel.supervisor.run_ms":
            duration.get("kernel.supervisor.run", 0.0) * 1e3,
        "core.recovery.run_ms_per_krecord":
            run_ms / (scanned / 1000.0) if scanned else 0.0,
        "core.recovery.records_scanned": float(scanned),
        "core.recovery.redone_share": redone / considered if considered else 0.0,
    }
