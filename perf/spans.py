"""In-memory span recorder for the traced pass.

The benchmark wraps public callables on the live objects (never edits
the program) and records one span per call: name, start, end, the span
that caused it, and the request it served.  Spans stay in memory until
the run ends; ``self_times`` then charges each span its own duration
minus the part of that interval its child spans cover, which is the
number every ``*.self_*`` per-layer metric is derived from.

Parenting: within a thread the enclosing open span is the parent.  A
span that opens on a thread with nothing open (the daemon's apply
thread picking up a request, the witness thread adopting a batch) is
caused by the most recently opened span still open anywhere — exact
for the traced pass, which drives one synchronous caller, so at most
one request is in flight and its work is causally serial.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


class Span:
    __slots__ = ("span_id", "name", "start", "end", "parent", "request")

    def __init__(self, span_id: int, name: str, start: float,
                 parent: Optional[int], request: Optional[int]) -> None:
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request

    def as_dict(self) -> Dict[str, Any]:
        return {"id": self.span_id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "request": self.request}


class SpanRecorder:
    """Records spans around wrapped callables; restores them on exit."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Set by the driver loop: the request the caller is issuing.
        self.current_request: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open: List[Span] = []
        self._patched: List[Tuple[Any, str, bool, Any]] = []

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (instance, class or module attribute)
        with a recording wrapper; ``restore`` puts the original back."""
        # A bound method off an instance, a plain function off a class
        # or module: either way calling it with the wrapper's own
        # arguments is the original call.
        original = getattr(owner, attr)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self._call(name, original, args, kwargs)

        self._patched.append(
            (owner, attr, attr in vars(owner), vars(owner).get(attr))
        )
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, own, previous = self._patched.pop()
            if own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)

    def _call(self, name: str, fn: Callable[..., Any], args: Any,
              kwargs: Any) -> Any:
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------
    def open(self, name: str) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            if stack:
                parent: Optional[int] = stack[-1].span_id
            elif self._open:
                parent = self._open[-1].span_id
            else:
                parent = None
            span = Span(len(self.spans), name, time.perf_counter(), parent,
                        self.current_request)
            self.spans.append(span)
            self._open.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()
        with self._lock:
            self._open.remove(span)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def rows(self) -> List[Dict[str, Any]]:
        return [span.as_dict() for span in self.spans]

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for row in self.rows():
                handle.write(json.dumps(row) + "\n")


def load_spans(path: str) -> List[Dict[str, Any]]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ----------------------------------------------------------------------
# derivation
# ----------------------------------------------------------------------
def self_times(spans: Iterable[Dict[str, Any]]) -> Dict[int, float]:
    """Self time per span id: duration minus the part of the span's own
    interval that its direct children cover (children clipped to the
    parent, overlapping children counted once)."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    bounds = {s["id"]: (s["start"], s["end"]) for s in spans}
    for span in spans:
        parent = span["parent"]
        if parent is None or parent not in bounds:
            continue
        lo, hi = bounds[parent]
        start, end = max(span["start"], lo), min(span["end"], hi)
        if end > start:
            children.setdefault(parent, []).append((start, end))
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        result[span["id"]] = (span["end"] - span["start"]) - covered
    return result


class SpanTable:
    """Self time and call count per span name."""

    def __init__(self, spans: Iterable[Dict[str, Any]]) -> None:
        spans = list(spans)
        own = self_times(spans)
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        for span in spans:
            name = span["name"]
            self.self_s[name] = self.self_s.get(name, 0.0) + own[span["id"]]
            self.calls[name] = self.calls.get(name, 0) + 1

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    def self_per_op(self, name: str, ops: int, unit: float) -> float:
        """Self seconds of ``name`` per traced op, scaled by ``unit``
        (1e3 = ms, 1e6 = us); 0.0 when the layer never ran."""
        return self.self_s.get(name, 0.0) * unit / ops if ops else 0.0

    def self_per_call(self, name: str, unit: float) -> float:
        calls = self.calls.get(name, 0)
        return self.self_s.get(name, 0.0) * unit / calls if calls else 0.0

    def calls_per_kop(self, name: str, ops: int) -> float:
        return 1000.0 * self.calls.get(name, 0) / ops if ops else 0.0
