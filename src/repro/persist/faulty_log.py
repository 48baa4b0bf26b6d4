"""The file-backed WAL with the fault layer's injector in front of it.

The same injector as every faulty store and the in-memory
:class:`~repro.wal.faulty_log.FaultyLog`, over the real ``wal.log``, so
what detects the damage is the on-disk frame test.  Its own physics: a
torn force lands the final record as half a frame, which reopening (or
the in-process ``crash()`` that simulates it) cuts off.
"""

from __future__ import annotations

from typing import List, Optional

from repro.persist.file_log import FileLogManager
from repro.storage.faults import FaultCrash, FaultKind, FaultModel, FaultSpec
from repro.storage.faultwrap import LogFaultInjector, torn_prefix
from repro.storage.stats import IOStats
from repro.wal.records import LogRecord


class FaultyFileLog(LogFaultInjector, FileLogManager):
    """A FileLogManager whose device obeys a :class:`FaultModel`."""

    def __init__(
        self, root: str, model: FaultModel, stats: Optional[IOStats] = None
    ) -> None:
        self.model = model
        super().__init__(root, stats)

    def _write_device(self, pending: List[LogRecord]) -> None:
        write = super()._write_device

        def torn(spec: FaultSpec) -> None:
            # Every record but the last lands whole, the last as half a
            # frame the device took but no frame owns.
            write(pending[:-1])
            if pending:
                good = self._file.end
                self._file.append(torn_prefix(self._frames[pending[-1].lsi]))
                self._file.end, self._file.torn = good, True
            raise FaultCrash(f"machine lost mid-force ({spec.describe()})")

        self._faulted_device_write(
            f"{len(pending)} records",
            lambda: write(pending),
            {FaultKind.TORN: torn},
        )

    def crash(self) -> None:
        with self._force_mutex:
            super().crash()
            # A machine restart reopens the file and repairs the torn
            # tail; the in-process equivalent is cutting the file back
            # to the end of the good frames the index describes.
            self._file.repair()
