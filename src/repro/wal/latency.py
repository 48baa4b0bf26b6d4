"""A log whose stable writes take modeled device time.

The in-memory :class:`~repro.wal.log_manager.LogManager` completes a
force in nanoseconds, and the file backend's fsync latency depends
entirely on the host (fast NVMe makes per-shard WAL overlap invisible;
a loaded ext4 journal exaggerates it).  :class:`LatencyLog` pins the
device model instead: every stable write sleeps a configured force
latency, releasing the GIL exactly the way a real ``fsync`` does.

That makes it the honest substrate for the E13 sharding bench: the
architectural claim under test is that **N per-shard WALs overlap N
force latencies** where a single WAL serializes them, and a fixed,
declared latency measures that claim without conflating it with the
benchmark host's storage stack.  It is also a deliberately *slow*
device for tests that need a force to take long enough to race.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.storage.stats import IOStats
from repro.wal.log_manager import LogManager
from repro.wal.records import LogRecord


class LatencyLog(LogManager):
    """An in-memory log with a fixed modeled per-force device latency."""

    def __init__(
        self,
        force_latency_s: float = 0.0015,
        stats: Optional[IOStats] = None,
    ) -> None:
        super().__init__(stats=stats)
        if force_latency_s < 0:
            raise ValueError(
                f"force latency must be >= 0, got {force_latency_s}"
            )
        #: Modeled device force latency (seconds); ~1.5 ms approximates
        #: a commodity SSD fsync including the kernel round trip.
        self.force_latency_s = force_latency_s

    def _write_device(self, pending: List[LogRecord]) -> None:
        if self.force_latency_s > 0:
            # time.sleep releases the GIL, like a real fsync: forces on
            # *different* LatencyLogs overlap, forces on the same log
            # serialize on its force mutex while appends keep landing.
            time.sleep(self.force_latency_s)
        super()._write_device(pending)
