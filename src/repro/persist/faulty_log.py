"""Fault-injecting variant of the file-backed WAL.

Mirrors :class:`~repro.wal.faulty_log.FaultyLog` but damages the *real
log file*, so the detection machinery being exercised is the on-disk
frame checksum rather than the in-memory model:

* transient force errors (retried by the hardened force path);
* torn log appends — the final record of a force lands half-written;
  reopening (or the in-process ``crash()`` that simulates it) repairs
  the tail;
* failing scans — on a file log ``stable_records`` is a device read, so
  it is the same ``log.scan`` fault point the in-memory faulty log
  fires: a transient read error or a crash mid-scan kills the recovery
  attempt, and the supervisor retries or restarts it.

The fault-injecting *stores* live in :mod:`repro.storage.faultwrap`;
only the WAL-side wrapper lives here because the file log itself is a
:mod:`repro.persist` component.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.common.identifiers import NULL_SI, StateId
from repro.persist.file_log import FileLogManager
from repro.storage.faults import FaultCrash, FaultKind, FaultModel
from repro.storage.faultwrap import torn_prefix
from repro.storage.stats import IOStats
from repro.wal.records import LogRecord


class FaultyFileLog(FileLogManager):
    """A FileLogManager whose force path obeys a :class:`FaultModel`."""

    def __init__(
        self, root: str, model: FaultModel, stats: Optional[IOStats] = None
    ) -> None:
        self.model = model
        super().__init__(root, stats)

    def _write_device(self, pending: List[LogRecord]) -> None:
        spec = self.model.fire(
            "log.force",
            f"{len(pending)} records",
            can=frozenset({FaultKind.TORN}),
            stats=self.stats,
        )
        if spec is None:
            super()._write_device(pending)
            return
        # Torn force: every record but the last lands whole, the last
        # lands as half a frame, and the machine dies mid-force — a torn
        # log write is only ever *observed* because of a crash; had the
        # process lived, the force would have completed or errored.
        landed = pending[: len(pending) - 1]
        super()._write_device(landed)
        if pending:
            good = self._file.end
            self._file.append(torn_prefix(self._frame(pending[-1])))
            # The device took those bytes; no frame owns them.
            self._file.end, self._file.torn = good, True
        raise FaultCrash(f"machine lost mid-force ({spec.describe()})")

    def stable_records(
        self, from_lsi: StateId = NULL_SI
    ) -> Iterator[LogRecord]:
        # One point per scan, not per record (see FaultyLog).
        self.model.fire("log.scan", f"from {from_lsi}", stats=self.stats)
        return super().stable_records(from_lsi)

    def crash(self) -> None:
        with self._force_mutex:
            super().crash()
            # A machine restart reopens the file and repairs the torn
            # tail; the in-process equivalent is cutting the file back
            # to the end of the good frames the index describes.
            self._file.repair()
