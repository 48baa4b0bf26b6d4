"""The in-memory log with the fault layer's injector in front of it.

:class:`FaultyLog` fires the stores' injector
(:class:`~repro.storage.faultwrap.LogFaultInjector`) at every force and
stable scan — transient failures raise from it and the base class's
bounded retry absorbs them — and keeps only the in-memory physics of
damage: a **torn force** lands a strict prefix of the forced records and
the machine dies (the torn-tail state the file WAL repairs on open); a
**lying fsync** (``FSYNC_LIE``) reports success while the records stay
volatile until a later honest force, so a crash before it loses them.
The lie is outside the must-survive envelope — no WAL can keep its
durability contract against an undetected lying fsync, as the torture
suite's strawman shows.
"""

from __future__ import annotations

from typing import List, Optional

from repro.storage.faults import FaultCrash, FaultKind, FaultModel, FaultSpec
from repro.storage.faultwrap import LogFaultInjector
from repro.storage.stats import IOStats
from repro.wal.log_manager import LogManager
from repro.wal.records import LogRecord


class FaultyLog(LogFaultInjector, LogManager):
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
        write = super()._write_device

        def land(records: List[LogRecord]) -> None:
            write(records)
            self._durable_len = len(self._stable)

        def torn(spec: FaultSpec) -> None:
            # A strict prefix landed; the rest dies with the machine.
            land(pending[:-1])
            raise FaultCrash(f"log force torn at {spec.describe()}")

        self._faulted_device_write(
            f"{len(pending)} records",
            lambda: land(pending),
            {
                FaultKind.TORN: torn,
                # Everything "succeeds", but durability is a lie.
                FaultKind.FSYNC_LIE: lambda spec: write(pending),
            },
        )

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
