"""A log manager whose stable device is described by a FaultModel.

The in-memory :class:`~repro.wal.log_manager.LogManager` models a
perfect stable log: a force either happens or the process crashes first.
:class:`FaultyLog` interposes the fault model at every force — the
log's device touchpoint — and reproduces the WAL failure modes:

* **transient force failure** (``TRANSIENT``/``FSYNC_FAIL``): the
  append raises; the base class's bounded retry re-drives it, and the
  workload never notices;
* **torn force** (``TORN``): only a prefix of the forced records
  reaches the stable log before the crash — exactly the torn-tail
  state the file WAL repairs on open;
* **lying fsync** (``FSYNC_LIE``): the force reports success but the
  records are not durable; a later *successful* force makes everything
  before it durable (one real fsync flushes the whole file), and a
  crash before that loses the lied-about suffix.  This fault is
  deliberately outside the must-survive envelope — no WAL system can
  keep its durability contract against an undetected lying fsync, and
  the torture suite includes a strawman demonstrating the breakage.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.common.identifiers import NULL_SI, StateId
from repro.storage.faults import FaultCrash, FaultKind, FaultModel
from repro.storage.stats import IOStats
from repro.wal.log_manager import LogManager
from repro.wal.records import LogRecord

_LOG_FAULTS = frozenset({FaultKind.TORN, FaultKind.FSYNC_LIE})


class FaultyLog(LogManager):
    """An in-memory log with injected stable-append faults."""

    def __init__(
        self, model: FaultModel, stats: Optional[IOStats] = None
    ) -> None:
        super().__init__(stats)
        self.model = model
        #: Stable records up to this index are genuinely durable; a
        #: lying fsync appends records beyond it without advancing it.
        self._durable_len = 0

    def _write_device(self, pending: List[LogRecord]) -> None:
        spec = self.model.fire(
            "log.force",
            f"{len(pending)} records",
            can=_LOG_FAULTS,
            stats=self.stats,
        )
        if spec is None:
            super()._write_device(pending)
            self._durable_len = len(self._stable)
            return
        if spec.kind is FaultKind.TORN:
            # The device tore the append: a strict prefix landed.  The
            # rest stays in the volatile buffer and dies with the crash
            # (a torn force is only observable if the machine goes down
            # before a successful re-force).
            landed = pending[: len(pending) - 1]
            super()._write_device(landed)
            self._durable_len = len(self._stable)
            raise FaultCrash(f"log force torn at {spec.describe()}")
        # FSYNC_LIE: everything "succeeds" but durability is a lie.
        super()._write_device(pending)

    def stable_records(
        self, from_lsi: StateId = NULL_SI
    ) -> Iterator[LogRecord]:
        """A stable-log scan is a device read: one faultable I/O point.

        Scans only happen during recovery (analysis and redo passes),
        so this is the log-side recovery-phase fault surface: a
        transient scan failure or a crash mid-scan kills the recovery
        attempt and the supervisor must restart it.  One point per scan
        call, not per record — the unit of device I/O is the sequential
        read, and per-record points would explode the sweep space
        without adding distinct failure shapes.
        """
        self.model.fire(
            "log.scan", f"from {from_lsi}", stats=self.stats
        )
        return super().stable_records(from_lsi)

    def truncate_before(self, lsi, redo_start) -> int:
        with self._force_mutex:
            dropped = super().truncate_before(lsi, redo_start)
            # Truncation rewrites the stable log in place; model the
            # rewrite as durable (the interesting lie is on the force
            # path).
            self._durable_len = len(self._stable)
            return dropped

    def crash(self) -> None:
        """Lose the buffer *and* any lied-about stable suffix."""
        with self._force_mutex:
            del self._stable[self._durable_len :]
            super().crash()
