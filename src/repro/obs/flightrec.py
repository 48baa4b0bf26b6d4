"""Crash flight recorder: a bounded ring of recent structured events.

Post-mortems of a killed daemon used to be archaeology — the metrics
snapshot dies with the process and the WAL records *what* was applied,
not *what the daemon was doing*.  The flight recorder keeps the last N
structured events (health transitions, watchdog restarts, epoch
changes, fault points, shard kills) in a lock-cheap in-memory ring and
persists them two ways:

- **continuous append** — events are appended and flushed to
  ``flightrec.jsonl`` as they happen, so even a ``SIGKILL`` leaves a
  parseable file whose last lines are the daemon's final moments (a
  torn final line is tolerated by :func:`load_flightrec`).  Only the
  kernel's per-operation events (:data:`BATCHED_KINDS`) wait, in the
  ring, for the next :meth:`FlightRecorder.flush` — the daemon's
  committer calls it once per commit batch, before the acks leave;
- **atomic dump** — on FAILED, SIGTERM drain, or on demand via the
  ``/debug/flightrec`` endpoint, the ring is rewritten to the same
  path via ``os.replace`` so the file is exactly the ring, bounded
  and ordered, with a ``flightrec.dump`` trailer naming the reason.

The recorder is an ordinary :class:`~repro.obs.metrics.MetricsRegistry`
event sink (``emit(kind, **details)``), so subscribing it taps the
event stream every instrumented component already produces; it also
watches for ``health.transition`` events into ``failed`` and dumps
itself — the daemon does not need to be alive enough to ask.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

__all__ = [
    "BATCHED_KINDS",
    "FlightRecorder",
    "load_flightrec",
]

#: Per-operation kernel events: on file at the next ``flush()`` (or
#: other event, ``dump()``, ``close()``), at the latest once
#: ``_BATCH_MAX`` lines wait (a bare kernel's recorder has no flusher).
BATCHED_KINDS = frozenset({"execute", "install", "evict", "identity-write"})
_BATCH_MAX = 256

#: Rewrite the live file once the append-only tail grows past this many
#: lines beyond the ring capacity, so the on-disk file stays bounded
#: even between explicit dumps.
_COMPACT_SLACK = 4


class FlightRecorder:
    """Bounded event ring with crash-surviving JSONL persistence."""

    def __init__(self, path: Optional[str] = None, capacity: int = 2048):
        self.path = path
        self.capacity = capacity
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._handle = None
        #: Events in the ring whose lines are not yet on file.
        self._unwritten: List[Dict[str, Any]] = []
        self._appended = 0
        self._closed = False
        if path is not None:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            self._repair_torn_tail(path)
            self._handle = open(path, "a", encoding="utf-8")

    @staticmethod
    def _repair_torn_tail(path: str) -> None:
        """Drop a torn final line left by a previous SIGKILL'd process.

        Without this, the first append of a restarted daemon would fuse
        onto the partial line, turning an expected torn *tail* into a
        malformed *interior* line that :func:`load_flightrec` rejects.
        """
        try:
            if not os.path.exists(path) or os.path.getsize(path) == 0:
                return
            with open(path, "rb") as existing:
                data = existing.read()
            if data.endswith(b"\n"):
                return
            keep = data[: data.rfind(b"\n") + 1] if b"\n" in data else b""
            tmp = path + ".tmp"
            with open(tmp, "wb") as handle:
                handle.write(keep)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError:
            return

    # -- sink interface ------------------------------------------------

    def emit(self, kind: str, **details: Any) -> None:
        """Registry-sink entry point: record the event, and self-dump
        when the system transitions into FAILED."""
        self.record(kind, details)
        if kind == "health.transition" and details.get("to") == "failed":
            self.dump("failed")

    # -- recording -----------------------------------------------------

    def record(self, kind: str, details: Optional[Dict[str, Any]] = None) -> None:
        event = {"ts": time.time(), "kind": kind}
        if details:
            for key, value in details.items():
                if isinstance(value, (str, int, float, bool)) or value is None:
                    event[key] = value
                else:
                    event[key] = str(value)
        with self._lock:
            self._ring.append(event)
            if self._handle is None or self._closed:
                return
            self._unwritten.append(event)
            if kind in BATCHED_KINDS and len(self._unwritten) < _BATCH_MAX:
                return
        self.flush()

    def flush(self) -> None:
        """Write the waiting lines, in ring order, with one ``write``."""
        with self._lock:
            events, self._unwritten = self._unwritten, []
            if not events or self._handle is None or self._closed:
                return
            try:
                self._handle.write(_lines(events))
                self._handle.flush()
                self._appended += len(events)
            except (OSError, ValueError):
                return
        if self._appended > self.capacity * _COMPACT_SLACK:
            self.dump("compact")

    def events(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._ring)

    # -- persistence ---------------------------------------------------

    def dump(self, reason: str) -> Optional[str]:
        """Atomically rewrite the file to exactly the current ring.

        Returns the path written, or ``None`` when the recorder has no
        backing path.  The live append handle is reopened afterwards so
        recording continues seamlessly.
        """
        if self.path is None:
            return None
        trailer = {"ts": time.time(), "kind": "flightrec.dump",
                   "reason": reason}
        with self._lock:
            if self._closed:
                return None
            events = list(self._ring)
            self._ring.append(trailer)
            self._unwritten.clear()  # the ring holds them all
            tmp = self.path + ".tmp"
            try:
                with open(tmp, "w", encoding="utf-8") as handle:
                    handle.write(_lines(events + [trailer]))
                    handle.flush()
                    os.fsync(handle.fileno())
                if self._handle is not None:
                    self._handle.close()
                os.replace(tmp, self.path)
                self._handle = open(self.path, "a", encoding="utf-8")
                self._appended = 0
            except OSError:
                return None
        return self.path

    def close(self, reason: str = "close") -> None:
        """Final dump and release the file handle."""
        self.dump(reason)
        with self._lock:
            self._closed = True
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None


def _lines(events: List[Dict[str, Any]]) -> str:
    return "".join(
        json.dumps(event, sort_keys=True) + "\n" for event in events
    )


def load_flightrec(path: str) -> List[Dict[str, Any]]:
    """Parse a flight-recorder file, tolerating a torn final line.

    A SIGKILL can land mid-write; every complete line is returned and a
    trailing partial line is ignored.  A malformed *interior* line
    raises — that is corruption, not a torn tail.
    """
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except ValueError:
            remainder = [l for l in lines[index + 1:] if l.strip()]
            if remainder:
                raise ValueError(
                    f"{path}: malformed interior line {index + 1}"
                )
            break  # torn tail from an abrupt kill — expected
    return events
