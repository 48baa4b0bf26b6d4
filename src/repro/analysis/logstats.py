"""Log composition analytics.

Summarizes a log's stable records by type and by operation kind: record
counts, total bytes, data-value bytes.  Useful for understanding *where
the log bytes went* — the question the paper's whole Figure 1 argument
is about — and used by examples and tests to report log composition.

Also renders the fault-injection ledger (:func:`fault_summary`): how
many faults a torture campaign injected and how each was absorbed —
retried, checksum-detected, quarantined, media-recovered, and how many
recovery attempts/restarts the supervisor drove — the write-graph
engine's counters (:func:`engine_summary`), the recovery
supervisor's structured :class:`~repro.kernel.supervisor.FailureReport`
(:func:`failure_summary`), and a system's observability registry
(:func:`obs_summary`: top counters plus per-histogram p50/p95/p99).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Union

from repro.analysis.tables import Table, format_bytes
from repro.storage.stats import IOStats
from repro.wal.log_manager import LogManager
from repro.wal.records import OperationRecord


@dataclass
class LogBreakdown:
    """Aggregated composition of a log's stable records."""

    #: record-type name -> (count, bytes, value bytes)
    by_record_type: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: operation kind -> (count, bytes, value bytes), operation records only
    by_op_kind: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def total_bytes(self) -> int:
        """All stable-log bytes."""
        return sum(row["bytes"] for row in self.by_record_type.values())

    def total_value_bytes(self) -> int:
        """All data-value bytes on the stable log."""
        return sum(
            row["value_bytes"] for row in self.by_record_type.values()
        )

    def overhead_fraction(self) -> float:
        """Share of log bytes that are NOT data values (headers, ids,
        parameters, bookkeeping records)."""
        total = self.total_bytes()
        if total == 0:
            return 0.0
        return 1.0 - self.total_value_bytes() / total

    def render(self, title: str = "log composition") -> str:
        """An aligned two-section table."""
        table = Table(
            title, ["record type / op kind", "count", "bytes", "value bytes"]
        )
        for name in sorted(self.by_record_type):
            row = self.by_record_type[name]
            table.add_row(
                name,
                row["count"],
                format_bytes(row["bytes"]),
                format_bytes(row["value_bytes"]),
            )
        for kind in sorted(self.by_op_kind):
            row = self.by_op_kind[kind]
            table.add_row(
                f"  op:{kind}",
                row["count"],
                format_bytes(row["bytes"]),
                format_bytes(row["value_bytes"]),
            )
        return table.render()


def _bump(bucket: Dict[str, Dict[str, int]], key: str, size: int,
          value_bytes: int) -> None:
    row = bucket.setdefault(
        key, {"count": 0, "bytes": 0, "value_bytes": 0}
    )
    row["count"] += 1
    row["bytes"] += size
    row["value_bytes"] += value_bytes


#: Counter name -> row label for the fault ledger, in display order.
_FAULT_ROWS = (
    ("faults_injected", "faults injected"),
    ("fault_retries", "transient retries absorbed"),
    ("checksum_failures", "checksum failures detected"),
    ("quarantines", "versions quarantined"),
    ("media_recoveries", "media-recovery fallbacks"),
    ("recovery_attempts", "supervised recovery attempts"),
    ("recovery_restarts", "mid-recovery crash restarts"),
)


def fault_summary(
    stats: Union[IOStats, Mapping[str, int]],
    title: str = "fault injection ledger",
) -> Table:
    """The fault/retry/quarantine counters as a printable table.

    Accepts a live :class:`IOStats` or a plain counter mapping (e.g.
    :attr:`~repro.kernel.torture.TortureReport.totals`, which sums the
    counters across a whole torture campaign).
    """
    table = Table(title, ["event", "count"])
    for name, label in _FAULT_ROWS:
        if isinstance(stats, IOStats):
            value = getattr(stats, name)
        else:
            value = stats.get(name, 0)
        table.add_row(label, value)
    return table


def engine_summary(
    stats: Mapping[str, object],
    title: str = "write-graph engine counters",
) -> Table:
    """A :meth:`WriteGraphEngine.stats` mapping as a printable table.

    The ``engine`` entry (the mode string) becomes part of the title;
    the remaining counters are emitted in the engine's own order.
    """
    mode = stats.get("engine")
    if mode:
        title = f"{title} [{mode}]"
    table = Table(title, ["counter", "value"])
    for name, value in stats.items():
        if name == "engine":
            continue
        table.add_row(name, value)
    return table


def failure_summary(
    report, title: str = "recovery supervision report"
) -> Table:
    """A supervisor :class:`~repro.kernel.supervisor.FailureReport`
    as a printable table: the budget header, one row per attempt (its
    outcome, the escalation rung taken, and the faults it absorbed),
    then the lost/restored object verdict.
    """
    table = Table(title, ["attempt", "outcome", "escalation", "detail"])
    table.add_row(
        "budget",
        f"{report.attempts_used}/{report.max_attempts}",
        "-",
        f"elapsed {report.elapsed:.3f}s",
    )
    for record in report.attempts:
        detail = ", ".join(record.faults) if record.faults else "-"
        if record.quarantined:
            detail += (
                f" [quarantined: "
                f"{', '.join(map(str, record.quarantined))}]"
            )
        table.add_row(
            str(record.index), record.outcome, record.escalation, detail
        )
    table.add_row(
        "verdict",
        "converged" if report.converged else "NOT CONVERGED",
        report.final_health.value,
        (
            f"lost {sorted(map(str, report.objects_lost))}, "
            f"restored {sorted(map(str, report.objects_restored))}"
        ),
    )
    return table


def _sig(value: float) -> str:
    """Compact numeric rendering for mixed counts and sub-ms latencies."""
    if float(value) == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def obs_summary(
    source: Union[Any, Mapping[str, Any]],
    title: str = "observability summary",
    top: int = 12,
) -> Table:
    """A metrics registry (or its :meth:`snapshot`) as a printable table.

    Two sections: the ``top`` largest counters (collector-backed
    ``io.*``/``engine.*`` values included), then every histogram with
    its observation count, p50, p95, p99, and mean — the per-span-kind
    latency digest the benchmarks and the ``metrics --summary`` CLI
    print.
    """
    snap = source if isinstance(source, Mapping) else source.snapshot()
    table = Table(title, ["metric", "count", "p50", "p95", "p99", "mean"])
    counters = snap.get("counters", {})
    ranked = sorted(counters.items(), key=lambda kv: (-kv[1], kv[0]))
    for name, value in ranked[:top]:
        table.add_row(name, _sig(value), "-", "-", "-", "-")
    dropped = len(ranked) - top
    if dropped > 0:
        table.add_row(f"... {dropped} more counters", "-", "-", "-", "-", "-")
    for name in sorted(snap.get("histograms", {})):
        hist = snap["histograms"][name]
        table.add_row(
            name,
            _sig(hist["count"]),
            *[_sig(hist[key]) for key in ("p50", "p95", "p99")],
            _sig(hist["mean"]),
        )
    return table


def analyze_log(log: LogManager) -> LogBreakdown:
    """Aggregate the stable log's records into a :class:`LogBreakdown`."""
    breakdown = LogBreakdown()
    for record in log.stable_records():
        size = record.record_size()
        values = record.value_bytes()
        _bump(
            breakdown.by_record_type, type(record).__name__, size, values
        )
        if isinstance(record, OperationRecord):
            _bump(
                breakdown.by_op_kind, record.op.kind.value, size, values
            )
    return breakdown
