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
  torn final line is tolerated by :func:`load_flightrec`);
- **atomic dump** — on FAILED, SIGTERM drain, or on demand via the
  ``/debug/flightrec`` endpoint, the ring is rewritten to the same
  path via ``os.replace`` so the file is exactly the ring, bounded
  and ordered, with a ``flightrec.dump`` trailer naming the reason.

The recorder is an ordinary :class:`~repro.obs.metrics.MetricsRegistry`
event sink (``emit(kind, **details)``), so subscribing it taps the
event stream every instrumented component already produces; it also
watches for ``health.transition`` events into ``failed`` and dumps
itself — the daemon does not need to be alive enough to ask.
It keeps no per-operation event (:data:`PER_OPERATION_KINDS`): the WAL
is that record, so the ring spans the daemon's life, not its last
half-second of traffic.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

__all__ = [
    "FlightRecorder",
    "PER_OPERATION_KINDS",
    "load_flightrec",
]

#: The kernel's per-operation events, which :meth:`FlightRecorder.emit`
#: drops: every field of one is already in the operation's WAL record.
PER_OPERATION_KINDS = frozenset(
    {"execute", "install", "evict", "identity-write"}
)

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
        self._appended = 0
        self._closed = False
        if path is not None:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            self._repair_torn_tail(path)
            # A restarted daemon's ring starts with its predecessor's
            # lifecycle, so its next dump keeps it.
            try:
                self._ring.extend(load_flightrec(path))
            except (OSError, ValueError):
                pass  # no file yet, or one that is not ours to read
            self._handle = open(path, "a", encoding="utf-8")

    @staticmethod
    def _repair_torn_tail(path: str) -> None:
        """Drop a torn final line left by a previous SIGKILL'd process.

        Without this, the first append of a restarted daemon would fuse
        onto the partial line, turning an expected torn *tail* into a
        malformed *interior* line that :func:`load_flightrec` rejects.
        """
        try:
            with open(path, "rb+") as existing:
                data = existing.read()
                if data and not data.endswith(b"\n"):
                    existing.truncate(data.rfind(b"\n") + 1)
        except OSError:
            return  # no file yet, or not ours to repair

    # -- sink interface ------------------------------------------------

    def emit(self, kind: str, **details: Any) -> None:
        """Registry-sink entry point: record the event unless it is a
        per-operation kind; self-dump on a transition into FAILED."""
        if kind in PER_OPERATION_KINDS:
            return
        self.record(kind, details)
        if kind == "health.transition" and details.get("to") == "failed":
            self.dump("failed")

    # -- recording -----------------------------------------------------

    def record(self, kind: str, details: Optional[Dict[str, Any]] = None) -> None:
        """Append one event; it is on file when this returns."""
        event = {"ts": time.time(), "kind": kind}
        if details:
            for key, value in details.items():
                event[key] = _jsonable(value)
        with self._lock:
            self._ring.append(event)
            if self._handle is None or self._closed:
                return
            try:
                self._handle.write(_lines([event]))
                self._handle.flush()
                self._appended += 1
            except (OSError, ValueError):
                return
        if self._appended > self.capacity * _COMPACT_SLACK:
            self.dump("compact")

    def events(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._ring)

    def footprint(self) -> Dict[str, int]:
        """What the recorder holds, for the polled ``flightrec.*``
        gauges: ring length (≤ ``capacity``) and bytes on file."""
        try:
            file_bytes = os.path.getsize(self.path) if self.path else 0
        except OSError:
            file_bytes = 0
        return {"events": len(self._ring), "file_bytes": file_bytes}

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


_SCALARS = (str, int, float, bool, type(None))


def _jsonable(value: Any) -> Any:
    """Scalars as themselves, a flat sequence of scalars as a JSON
    array, anything else as its ``str``."""
    if isinstance(value, (tuple, list)) and all(
        isinstance(item, _SCALARS) for item in value
    ):
        return list(value)
    return value if isinstance(value, _SCALARS) else str(value)


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
