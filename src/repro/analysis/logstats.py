"""Printable ledgers of a run: faults, supervised recovery, telemetry.

Renders the fault-injection ledger (:func:`fault_summary`): how many
faults a torture campaign injected and how each was absorbed —
retried, checksum-detected, quarantined, media-recovered, and how many
recovery attempts/restarts the supervisor drove — the recovery
supervisor's structured :class:`~repro.kernel.supervisor.FailureReport`
(:func:`failure_summary`), and a system's observability registry
(:func:`obs_summary`: top counters plus per-histogram p50/p95/p99).
"""

from __future__ import annotations

from typing import Any, Mapping, Union

from repro.analysis.tables import Table
from repro.storage.stats import IOStats


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

