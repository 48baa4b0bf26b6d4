"""Durable replication epochs: the split-brain guard's source of truth.

The epoch is a monotonically increasing integer naming who may
acknowledge writes.  Promotion bumps it; every replication frame and
every ack carries it; a frame from a smaller epoch is refused with
``FENCED``.  The number must survive restarts — a promoted witness that
reboots and comes back believing it is still epoch 1 would accept the
old primary's stream again — and it cannot live only in the WAL,
because checkpoint truncation legitimately drops old records
(:class:`~repro.wal.records.EpochRecord` is the in-band copy; this
sidecar is the durable one).

``EpochStore`` keeps the number in ``epoch.json`` under the daemon's
data directory, written through
:func:`~repro.storage.framing.write_file_durably` (temp file → fsync →
rename → directory fsync), so a crash mid-update leaves either the old
number or the new one, never garbage.  A store built with ``root=None``
(the in-process harnesses) keeps the number in memory with the same
interface.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.storage.framing import write_file_durably

#: Epoch of a pair that has never failed over.
INITIAL_EPOCH = 1

_FILENAME = "epoch.json"


class EpochStore:
    """Durable (or in-memory) storage for one daemon's epoch."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root
        self._memory = INITIAL_EPOCH
        if root is not None:
            os.makedirs(root, exist_ok=True)

    @property
    def path(self) -> Optional[str]:
        if self.root is None:
            return None
        return os.path.join(self.root, _FILENAME)

    def load(self) -> int:
        """The stored epoch; ``INITIAL_EPOCH`` when none was saved."""
        if self.root is None:
            return self._memory
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            epoch = int(payload["epoch"])
        except (OSError, ValueError, KeyError, TypeError):
            return INITIAL_EPOCH
        return max(epoch, INITIAL_EPOCH)

    def save(self, epoch: int) -> int:
        """Persist ``epoch`` (monotone: a smaller number is ignored).

        Returns the number actually stored.
        """
        current = self.load()
        epoch = max(int(epoch), current)
        if epoch == current and self.root is not None:
            return epoch
        if self.root is None:
            self._memory = epoch
            return epoch
        write_file_durably(
            self.path, json.dumps({"epoch": epoch}).encode("utf-8")
        )
        return epoch
