"""Request-scoped trace context, propagated across process boundaries.

A *trace* follows one client request through every process it touches:
the client mints a ``trace_id`` and a root span id, attaches them to
the wire frame as a ``"trace"`` field, and every stage downstream —
admission queue, apply, WAL force, replication ship, witness adopt —
opens spans tagged with the same trace id and a fresh span id whose
``parent_span`` points at the stage that caused it.  The span events
land in each process's ordinary :class:`~repro.obs.metrics.MetricsRegistry`
deque and JSONL export; ``python -m repro trace`` stitches the exports
back into one causal tree.

Design constraints, in order:

- **Zero cost when off.**  Nothing here runs unless a real registry is
  attached; ids are only minted for traced requests.
- **Request telemetry is an aggregate unless the request is traced.**
  A stage of a request that carries no trace (:func:`stage`,
  :func:`record_stage`) observes its ``*_ms`` histogram and appends
  nothing: the span ring holds traced requests and lifecycle phases
  (``recovery.*``), not the last few thousand writes.
- **Tolerant of old peers.**  ``from_wire`` never raises: absent,
  malformed, or wrong-typed trace fields from old clients (or hand-rolled
  ones) parse to ``None`` and the request proceeds untraced.
- **No clock agreement required.**  Span events carry the local
  wall-clock ``ts`` for *ordering* hints only; durations are measured
  per-process on the monotonic clock, so attribution never subtracts
  timestamps from two machines.
"""

from __future__ import annotations

import time
import uuid
from typing import Any, Dict, Optional

from repro.obs.metrics import MS_BUCKETS

__all__ = [
    "TRACE_FIELD",
    "TraceContext",
    "new_span_id",
    "new_trace_id",
    "record_stage",
    "stage",
]

#: Wire-frame key carrying trace context: ``{"id": ..., "span": ...}``.
TRACE_FIELD = "trace"


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id, unique across processes."""
    return uuid.uuid4().hex


def new_span_id() -> str:
    """A fresh 16-hex-char span id, unique across processes."""
    return uuid.uuid4().hex[:16]


class TraceContext:
    """One node of a distributed trace: (trace id, this span's id).

    ``child()`` derives the context for a caused stage; ``to_wire()`` /
    ``from_wire()`` cross process boundaries; ``tags()`` is splatted
    into ``registry.span(...)`` so the span event carries the ids.
    """

    __slots__ = ("trace_id", "span_id", "parent_span")

    def __init__(self, trace_id: str, span_id: Optional[str] = None,
                 parent_span: Optional[str] = None):
        self.trace_id = trace_id
        self.span_id = span_id if span_id is not None else new_span_id()
        self.parent_span = parent_span

    @classmethod
    def mint(cls) -> "TraceContext":
        """Start a new trace (the client-side root)."""
        return cls(new_trace_id())

    def child(self) -> "TraceContext":
        """Context for a stage caused by this one."""
        return TraceContext(self.trace_id, new_span_id(), self.span_id)

    def tags(self) -> Dict[str, str]:
        """Span tags that make the event reconstructable into a tree."""
        tags = {"trace": self.trace_id, "span": self.span_id}
        if self.parent_span:
            tags["parent_span"] = self.parent_span
        return tags

    def to_wire(self) -> Dict[str, str]:
        """The ``"trace"`` field value for an outgoing frame."""
        return {"id": self.trace_id, "span": self.span_id}

    @staticmethod
    def from_wire(frame: Any) -> Optional["TraceContext"]:
        """Tolerantly parse the trace context out of a decoded frame.

        Accepts the frame dict itself (looks up :data:`TRACE_FIELD`) or
        the field value directly.  Anything that is not a dict with
        non-empty string ``id``/``span`` values parses to ``None`` —
        old clients and malformed senders must never break serving.
        """
        value = frame
        if isinstance(frame, dict) and TRACE_FIELD in frame:
            value = frame.get(TRACE_FIELD)
        if not isinstance(value, dict):
            return None
        trace_id = value.get("id")
        span_id = value.get("span")
        if not isinstance(trace_id, str) or not trace_id:
            return None
        if not isinstance(span_id, str) or not span_id:
            return None
        # The wire span is the *remote parent*: local stages derived
        # from it become its children.
        return TraceContext(trace_id, span_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceContext(trace_id={self.trace_id!r}, "
                f"span_id={self.span_id!r}, parent_span={self.parent_span!r})")


class _UntracedStage:
    """Times a ``with`` block into the ``*_ms`` histogram; no event."""

    __slots__ = ("obs", "name", "_start")

    def __init__(self, obs: Any, name: str) -> None:
        self.obs = obs
        self.name = name

    def __enter__(self) -> "_UntracedStage":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.obs.observe(
            self.name,
            (time.perf_counter() - self._start) * 1000.0,
            MS_BUCKETS,
        )


def stage(obs: Any, name: str, ctx: Optional[TraceContext], **tags: Any):
    """Time one ``*_ms`` stage of a request as a context manager.

    ``ctx`` is the stage's own context (``request_trace.child()``):
    with one, this is ``obs.span(name, ...)`` carrying its ids — the
    event joins the request's tree; with ``None`` only the histogram of
    the same name is observed and ``tags`` are dropped.
    """
    if ctx is None:
        return _UntracedStage(obs, name)
    return obs.span(name, **tags, **ctx.tags())


def record_stage(obs: Any, name: str, seconds: float,
                 ctx: Optional[TraceContext],
                 ts: Optional[float] = None, **tags: Any) -> None:
    """:func:`stage` for an externally measured duration (the
    ``record_span`` form)."""
    if ctx is None:
        obs.observe(name, seconds * 1000.0, MS_BUCKETS)
    else:
        obs.record_span(name, seconds, ts=ts, **tags, **ctx.tags())
