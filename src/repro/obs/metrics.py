"""Metrics registry, bounded-bucket histograms, and phase spans.

One :class:`MetricsRegistry` per :class:`~repro.kernel.system.RecoverableSystem`
(or :class:`~repro.persist.database.PersistentSystem`) aggregates:

- **counters** — monotonically increasing event tallies,
- **gauges** — last-write-wins point samples,
- **histograms** — bounded-bucket distributions (latencies, cone
  sizes, batch sizes) with p50/p99 read off the cumulative counts,
- **spans** — timed, nestable phases whose durations land in the
  histogram of the same name and whose tagged completion events sit in
  a bounded deque for export,
- **collectors** — callables polled at snapshot time that absorb the
  pre-existing counter ledgers (``IOStats.snapshot()``, engine
  ``stats()``) under a prefix — or, registered as gauges, supply point
  samples (queue depth, ring lengths) nobody pushes per request, and
- **sinks** — subscribers (e.g. the ``FlightRecorder``) receiving the
  ``emit()`` event stream.

:data:`NULL_OBS` is the shared null object: ``enabled`` is False and
every method is a no-op, so instrumented hot paths cost ~one attribute
check when no registry is attached.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "COUNT_BUCKETS",
    "LATENCY_BUCKETS",
    "MS_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBS",
    "NullRegistry",
    "Span",
    "process_memory",
]

#: Default histogram boundaries for durations, in seconds.  Exponential
#: from 1 microsecond to 10 seconds; values above the last boundary land
#: in the overflow (+Inf) bucket.
LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    1e-1, 2.5e-1, 5e-1,
    1.0, 2.5, 5.0, 10.0,
)

#: Default histogram boundaries for counts/sizes (cone sizes, batch
#: sizes): powers of two up to 64k.
COUNT_BUCKETS: Tuple[float, ...] = tuple(float(1 << n) for n in range(17))

#: Histogram boundaries for millisecond-denominated stage latencies
#: (the ``ack.*_ms`` request-stage histograms): 10 microseconds to
#: 10 seconds, expressed in ms.  Spans whose name ends in ``_ms``
#: observe into these buckets automatically.
MS_BUCKETS: Tuple[float, ...] = (
    0.01, 0.025, 0.05,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0,
    10.0, 25.0, 50.0,
    100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0,
)


def process_memory() -> Dict[str, float]:
    """This process's resident set, now and at its peak, in MiB — the
    ``process`` collector (``rss_mb`` / ``peak_rss_mb``), read from
    ``/proc/self/status``; empty where there is no ``/proc``."""
    fields = {"VmRSS:": "rss_mb", "VmHWM:": "peak_rss_mb"}
    memory: Dict[str, float] = {}
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                parts = line.split()
                if parts and parts[0] in fields:
                    memory[fields[parts[0]]] = int(parts[1]) / 1024
    except (OSError, ValueError, IndexError):
        return {}
    return memory


class Histogram:
    """A bounded-bucket histogram with cumulative-count quantiles.

    ``boundaries`` are inclusive upper bounds (Prometheus ``le``
    semantics): an observation ``v`` lands in the first bucket whose
    boundary satisfies ``v <= boundary``, or in the overflow bucket
    past the last boundary.  Memory is fixed at ``len(boundaries)+1``
    ints regardless of observation volume.
    """

    __slots__ = ("name", "boundaries", "buckets", "count", "total", "min", "max")

    def __init__(self, name: str, boundaries: Iterable[float] = LATENCY_BUCKETS):
        self.name = name
        self.boundaries: Tuple[float, ...] = tuple(sorted(float(b) for b in boundaries))
        if not self.boundaries:
            raise ValueError("histogram needs at least one bucket boundary")
        # One slot per boundary plus the overflow (+Inf) bucket.
        self.buckets: List[int] = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.buckets[bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def quantile(self, q: float) -> float:
        """Upper bucket boundary at quantile ``q`` (0 < q <= 1).

        Returns 0.0 for an empty histogram.  Observations in the
        overflow bucket report the observed maximum (the only bound we
        have above the last boundary).
        """
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket in enumerate(self.buckets):
            cumulative += bucket
            if cumulative >= rank and bucket:
                if index < len(self.boundaries):
                    return min(self.boundaries[index], self.max)
                return self.max
        return self.max

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "boundaries": list(self.boundaries),
            "buckets": list(self.buckets),
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class Span:
    """A timed phase.  Use as a context manager:

    ``with registry.span("recovery.attempt", attempt=2) as span:``

    On exit — **including via an exception** — the span observes its
    duration into the histogram named after it, records a completion
    event (name, parent, seconds, tags) in the registry's bounded span
    deque, and pops itself off the nesting stack.  An exception adds
    ``outcome="error"`` and ``error=repr(exc)`` tags before re-raising.
    """

    __slots__ = ("registry", "name", "tags", "parent", "ts", "_start", "_closed")

    def __init__(self, registry: "MetricsRegistry", name: str, tags: Dict[str, Any]):
        self.registry = registry
        self.name = name
        self.tags = tags
        self.parent: Optional[str] = None
        #: Wall-clock start time — lets cross-process trace events be
        #: ordered even though durations come from the monotonic clock.
        self.ts = 0.0
        self._start = 0.0
        self._closed = False

    def tag(self, **tags: Any) -> "Span":
        self.tags.update(tags)
        return self

    def __enter__(self) -> "Span":
        stack = self.registry._span_stack
        self.parent = stack[-1].name if stack else None
        stack.append(self)
        self.ts = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._start
        if exc is not None:
            self.tags.setdefault("outcome", "error")
            self.tags.setdefault("error", repr(exc))
        self._close(elapsed)
        return None  # never swallow the exception

    def _close(self, elapsed: float) -> None:
        if self._closed:
            return
        self._closed = True
        stack = self.registry._span_stack
        # Defensive pop: tolerate a mis-nested close without corrupting
        # the stack for outer spans.
        if self in stack:
            while stack.pop() is not self:
                pass
        self.registry._record_span(self, elapsed)


class _NullSpan:
    """Shared do-nothing span handed out by :class:`NullRegistry`."""

    __slots__ = ()

    def tag(self, **tags: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


class MetricsRegistry:
    """The single telemetry hub a system reports into."""

    enabled = True

    def __init__(self, max_span_events: int = 10000):
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.spans: Deque[Dict[str, Any]] = deque(maxlen=max_span_events)
        self._span_local = threading.local()
        self._sinks: List[Any] = []
        #: ``(prefix, fn, gauges)`` — see :meth:`add_collector`.
        self._collectors: List[
            Tuple[str, Callable[[], Mapping[str, Any]], bool]
        ] = []

    @property
    def _span_stack(self) -> List[Span]:
        """The calling thread's open spans: nesting is per thread (the
        apply thread and the committer both open spans on one registry)."""
        return self._span_local.__dict__.setdefault("stack", [])

    # -- primitives ---------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def histogram(self, name: str,
                  boundaries: Iterable[float] = LATENCY_BUCKETS) -> Histogram:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(name, boundaries)
        return hist

    def observe(self, name: str, value: float,
                boundaries: Iterable[float] = LATENCY_BUCKETS) -> None:
        self.histogram(name, boundaries).observe(value)

    def span(self, name: str, **tags: Any) -> Span:
        return Span(self, name, tags)

    def _record_span(self, span: Span, elapsed: float) -> None:
        # Spans named ``*_ms`` are request-stage timers: their histogram
        # is denominated in milliseconds over MS_BUCKETS, matching the
        # exported metric name.  Everything else stays in seconds.
        if span.name.endswith("_ms"):
            self.observe(span.name, elapsed * 1000.0, MS_BUCKETS)
        else:
            self.observe(span.name, elapsed)
        self.spans.append({
            "name": span.name,
            "parent": span.parent,
            "seconds": elapsed,
            "ts": span.ts,
            "tags": dict(span.tags),
        })

    def record_span(self, name: str, seconds: float,
                    ts: Optional[float] = None,
                    parent: Optional[str] = None, **tags: Any) -> None:
        """Record an externally timed phase as a span event.

        Stages whose start and end live on different threads (queue
        wait) or whose timing is measured around a blocking call can't
        use the context-manager form; this records the same event shape
        — including trace tags — from a measured duration.
        """
        if name.endswith("_ms"):
            self.observe(name, seconds * 1000.0, MS_BUCKETS)
        else:
            self.observe(name, seconds)
        self.spans.append({
            "name": name,
            "parent": parent,
            "seconds": seconds,
            "ts": time.time() - seconds if ts is None else ts,
            "tags": dict(tags),
        })

    def span_events(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        if name is None:
            return list(self.spans)
        return [event for event in self.spans if event["name"] == name]

    # -- event stream (sinks) -----------------------------------------

    def subscribe(self, sink: Any) -> None:
        """Register an event sink: any object with ``emit(kind, **details)``."""
        if sink not in self._sinks:
            self._sinks.append(sink)

    def unsubscribe(self, sink: Any) -> None:
        if sink in self._sinks:
            self._sinks.remove(sink)

    def emit(self, kind: str, **details: Any) -> None:
        self.count("events." + kind)
        for sink in self._sinks:
            sink.emit(kind, **details)

    # -- collectors (compatibility with existing counter ledgers) -----

    def add_collector(self, prefix: str,
                      fn: Callable[[], Mapping[str, Any]],
                      gauges: bool = False) -> None:
        """Poll ``fn()`` at snapshot time, exposing its numeric items as
        ``<prefix>.<key>`` counters — or, with ``gauges``, as gauges:
        point samples nobody has to push per request.  Re-adding a
        prefix replaces the previous collector, so re-attaching across
        crash/rebuild cycles does not accumulate stale sources.
        """
        self._collectors = [c for c in self._collectors if c[0] != prefix]
        self._collectors.append((prefix, fn, gauges))

    def counter_value(self, name: str) -> float:
        """Compatibility accessor: registry counters first, then
        collector-backed values addressed as ``<prefix>.<key>``."""
        if name in self.counters:
            return self.counters[name]
        for prefix, fn, _gauges in self._collectors:
            head = prefix + "."
            if name.startswith(head):
                value = fn().get(name[len(head):])
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    return value
        return 0

    # -- snapshot ------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        counters = dict(self.counters)
        gauges = dict(self.gauges)
        info: Dict[str, str] = {}
        for prefix, fn, as_gauges in self._collectors:
            numbers = gauges if as_gauges else counters
            for key, value in fn().items():
                full = f"{prefix}.{key}"
                if isinstance(value, bool):
                    numbers[full] = int(value)
                elif isinstance(value, (int, float)):
                    numbers[full] = value
                else:
                    info[full] = str(value)
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": {
                name: hist.snapshot()
                for name, hist in sorted(self.histograms.items())
            },
            "info": info,
            "span_events": len(self.spans),
        }

    def clear(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self.spans.clear()
        self._span_stack.clear()


class NullRegistry:
    """Null object standing in when no registry is attached.

    Every instrumented component defaults to :data:`NULL_OBS`; hot
    paths guard real work behind ``if obs.enabled``, and the remaining
    unconditional calls (``emit``, ``span``) are no-ops here.
    """

    enabled = False
    _NULL_SPAN = _NullSpan()

    def count(self, name: str, amount: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float,
                boundaries: Iterable[float] = LATENCY_BUCKETS) -> None:
        pass

    def span(self, name: str, **tags: Any) -> _NullSpan:
        return self._NULL_SPAN

    def record_span(self, name: str, seconds: float,
                    ts: Optional[float] = None,
                    parent: Optional[str] = None, **tags: Any) -> None:
        pass

    def span_events(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        return []

    def subscribe(self, sink: Any) -> None:
        pass

    def unsubscribe(self, sink: Any) -> None:
        pass

    def emit(self, kind: str, **details: Any) -> None:
        pass

    def add_collector(self, prefix: str,
                      fn: Callable[[], Mapping[str, Any]],
                      gauges: bool = False) -> None:
        pass

    def counter_value(self, name: str) -> float:
        return 0

    def snapshot(self) -> Dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}, "info": {},
                "span_events": 0}


#: The shared null registry — ``enabled`` is False, all methods no-op.
NULL_OBS = NullRegistry()
