"""Order statistics the benchmark reports.

Timings are reported as a median plus the highest percentile that has
at least ten samples beyond it (the choosing-metrics rule), never as a
mean: one stalled fsync must not move the headline number.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence

#: Percentiles the tail rule chooses from, lowest first.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in [0, 100]) of ``samples``."""
    if not samples:
        return 0.0  # see median()
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported_tail(count: int) -> float:
    """The highest ladder percentile with ``MIN_BEYOND`` samples past it.

    With 1900 samples p99 has 19 beyond it and p99.9 only 1, so p99 is
    reported; with 500 samples p95 is the honest tail.
    """
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        # In whole per-mille, so that 100 samples have exactly ten
        # beyond p90 (100 * (1 - 0.9) is 9.999999999999998 in floats).
        if count * (1000 - round(pct * 10)) >= MIN_BEYOND * 1000:
            best = pct
    return best


def segment_rates(done_times: Sequence[float], start: float,
                  segments: int = 10) -> List[float]:
    """Completions per second in ``segments`` equal-count slices.

    ``done_times`` are completion instants in completion order and
    ``start`` the instant the first request was issued.  Reporting the
    median slice, not total/wall, keeps one checkpoint or compaction
    stall from deciding the throughput number.
    """
    count = len(done_times)
    if count < segments:
        raise ValueError(f"{count} completions cannot fill {segments} segments")
    rates = []
    previous_time, previous_index = start, 0
    for k in range(1, segments + 1):
        index = count * k // segments
        elapsed = done_times[index - 1] - previous_time
        rates.append((index - previous_index) / elapsed)
        previous_time, previous_index = done_times[index - 1], index
    return rates


def median(samples: Sequence[float]) -> float:
    """Median; 0.0 when nothing was sampled (a smoke-scale run can draw
    no read at all from a 5%-read mix)."""
    return statistics.median(samples) if samples else 0.0
