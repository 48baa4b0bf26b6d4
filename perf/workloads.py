"""The four workloads: names, sizes, rates — the frozen definitions.

Sizes are fixed operation counts, not durations, so both sides of a
comparison grow the never-truncated WAL by the same amount.  The counts
are stated *per second of* ``--seconds`` (the contract's run length):
at ``BENCHMARK.json``'s ``run_seconds`` the open-loop phase lasts half
the run at its fixed rate and the closed-loop phase issues a fixed
number of requests that takes about four tenths of it on the reference
box, on a quiet day, at the commit that defined the benchmark.  A faster program finishes
the closed phase sooner; it is never given more work.

Flush policy (frozen): the daemons run with their default flags — one
``force_through`` per acknowledged write, no ``--group-commit`` — and
the embedded workload forces after every mutating call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from perf.gen import Traffic

#: Logical callers of every closed-loop phase (multiplexed on the
#: generator's two connections).
CLOSED_CALLERS = 16

#: Share of ``--seconds`` the open-loop phase lasts.
OPEN_SHARE = 0.5

#: A measured phase may run this many times its nominal duration before
#: it stops issuing: bounded run time on a device far slower than the
#: one the counts were sized for.
CAP_FACTOR = 2.5

#: The traced pass drives this share of the workload's operations, in
#: this many untraced/traced block pairs.
TRACED_SHARE = 0.2
BLOCK_PAIRS = 4


def scaled_warmup(warmup: int, seconds: float, full_seconds: float) -> int:
    """Warm-up operations of a run: the full count at full scale,
    proportionally fewer in a scaled-down run (the smoke test)."""
    return max(10, round(warmup * min(1.0, seconds / full_seconds)))


@dataclass(frozen=True)
class Served:
    """A workload driven against ``python -m repro serve``."""

    name: str
    why: str
    store: str
    traffic: Traffic
    #: Put every key once, drain with SIGTERM and restart before warm-up.
    preload: bool
    #: Run a ``--replicate`` primary with a ``--witness-of`` witness.
    replicated: bool
    #: Open-loop arrival rate, requests per second.
    open_rate: float
    #: Closed-loop requests issued per second of ``--seconds``.
    closed_per_second: float
    #: Requests of the mix run before measurement begins.
    warmup: int

    def open_count(self, seconds: float) -> int:
        return max(20, round(self.open_rate * OPEN_SHARE * seconds))

    def closed_count(self, seconds: float) -> int:
        # A multiple of ten, for the ten equal throughput segments.
        return max(20, 10 * round(self.closed_per_second * seconds / 10))

    def warmup_count(self, seconds: float, full_seconds: float) -> int:
        return scaled_warmup(self.warmup, seconds, full_seconds)


SERVE_PUT = Served(
    name="serve_put",
    why="fsync-bound small puts on the file store: the WAL force and "
        "the serial ack path do nearly all the work, cache/storage/core "
        "almost none",
    store="file",
    traffic=Traffic(keys=1024, value_bytes=128, zipf=None,
                    p_get=0.05, p_apply=0.0),
    preload=False,
    replicated=False,
    open_rate=400.0,
    closed_per_second=680.0,
    warmup=1000,
)

SERVE_MIXED = Served(
    name="serve_mixed",
    why="CPU/protocol-bound on logstore: 4 KiB values, Zipf keys, 60% "
        "reads beside logical applies and puts, so fsync is a minority "
        "cost",
    store="logstore",
    traffic=Traffic(keys=512, value_bytes=4096, zipf=1.1,
                    p_get=0.60, p_apply=0.20),
    preload=True,
    replicated=False,
    open_rate=700.0,
    closed_per_second=1040.0,
    warmup=1000,
)

SERVE_REPLICATED = Served(
    name="serve_replicated",
    why="primary + witness on real fsync: the witness round trip and "
        "its durable adopt sit on every ack, so the replica layer "
        "dominates",
    store="file",
    traffic=SERVE_PUT.traffic,
    preload=False,
    replicated=True,
    open_rate=140.0,
    closed_per_second=190.0,
    warmup=250,
)

SERVED: Dict[str, Served] = {
    spec.name: spec for spec in (SERVE_PUT, SERVE_MIXED, SERVE_REPLICATED)
}


@dataclass(frozen=True)
class Embedded:
    """The in-process file-system workload (no daemon)."""

    name: str = "embedded_fs"
    why: str = (
        "512 x 8 KiB files against a 128-object cache, in process: the "
        "only workload where purge, eviction, store writes, compaction, "
        "checkpoint and WAL truncation run; carries the paper's comparators"
    )
    cache_capacity: int = 128
    checkpoint_every_bytes: int = 1 << 20
    #: Main-pass calls per second of ``--seconds``.
    ops_per_second: float = 1100.0
    #: Comparator-pass length as a share of the main pass.
    comparator_share: float = 0.2
    warmup: int = 1000

    def op_count(self, seconds: float) -> int:
        return max(20, 10 * round(self.ops_per_second * seconds / 10))

    def warmup_count(self, seconds: float, full_seconds: float) -> int:
        return scaled_warmup(self.warmup, seconds, full_seconds)


EMBEDDED_FS = Embedded()

WORKLOAD_NAMES = [*SERVED, EMBEDDED_FS.name]
