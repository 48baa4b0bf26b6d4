"""Load generator: one process, one thread, a ``selectors`` loop.

Requests go out by ``id`` over the daemon's length-prefixed JSON
protocol (the server answers out of band per id).  Frames are encoded
before the clock starts, so the timed loop only moves bytes and parses
replies.

Two drivers:

* ``open_loop`` — independent users: each request is sent when its
  seeded Poisson due time arrives, whatever the server is doing, and
  is timed from the instant it was *due*, so a stall charges every
  request it delays.  Independent users do not share a connection, so
  each request travels alone on an idle connection of a pool (see
  ``OPEN_CONNECTIONS``); when every connection is busy the request
  waits in the generator, still on the clock.  The pool is smaller
  than the daemon's admission queue (64), so the benchmark never
  provokes BACKPRESSURE itself.
* ``closed_loop`` — callers that each wait for their reply: a fixed
  number of logical callers, each with one request outstanding,
  multiplexed on ``CONNECTIONS`` pipelined connections.
"""

from __future__ import annotations

import json
import selectors
import socket
import struct
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

_LEN = struct.Struct("<I")

#: Connections of the closed loop (= nproc on the reference box).
CONNECTIONS = 2

#: Connections of the open loop, one request at a time on each.  Two
#: pipelined connections would measure TCP, not the daemon: its accepted
#: sockets run with Nagle on, so a second small reply on a connection
#: waits for the client's delayed ACK of the first, and the median
#: latency comes out as the gap between arrivals on that connection
#: (2/rate: 5 ms at 400 req/s against a 0.6 ms synchronous round trip).
OPEN_CONNECTIONS = 32

#: A reply that takes this long means the server is wedged; fail the
#: run instead of hanging the driver.
REPLY_TIMEOUT_S = 60.0


def encode_frame(message: Dict[str, Any]) -> bytes:
    """One wire frame, as ``repro.serve.protocol.send_frame`` writes it."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    return _LEN.pack(len(payload)) + payload


def with_ids(requests: Sequence[Dict[str, Any]], first_id: int) -> List[Dict[str, Any]]:
    return [dict(request, id=first_id + offset)
            for offset, request in enumerate(requests)]


class _Conn:
    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.inbox = bytearray()
        self.outbox = bytearray()


class Pipeline:
    """Non-blocking framed connections to one daemon."""

    def __init__(self, host: str, port: int,
                 connections: int = CONNECTIONS) -> None:
        # select(2), not epoll: its timeout has microsecond resolution,
        # and epoll's whole milliseconds would make every open-loop
        # send up to 1 ms late.
        self.selector = selectors.SelectSelector()
        self.conns: List[_Conn] = []
        try:
            for _ in range(connections):
                sock = socket.create_connection((host, port), timeout=10.0)
                # Pipelined small frames must not wait on Nagle.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.setblocking(False)
                conn = _Conn(sock)
                self.conns.append(conn)
                self.selector.register(sock, selectors.EVENT_READ, conn)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        for conn in self.conns:
            try:
                self.selector.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
            conn.sock.close()
        self.conns = []
        self.selector.close()

    def __enter__(self) -> "Pipeline":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def send(self, index: int, frame: bytes) -> None:
        conn = self.conns[index]
        if conn.outbox:
            conn.outbox += frame
            return
        try:
            sent = conn.sock.send(frame)
        except BlockingIOError:
            sent = 0
        if sent < len(frame):
            conn.outbox += frame[sent:]
            self.selector.modify(
                conn.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, conn
            )

    def poll(self, timeout: Optional[float]) -> List[Dict[str, Any]]:
        """Replies that arrived within ``timeout`` seconds (maybe none)."""
        replies: List[Dict[str, Any]] = []
        for key, events in self.selector.select(timeout):
            conn: _Conn = key.data
            if events & selectors.EVENT_WRITE:
                self._flush(conn)
            if events & selectors.EVENT_READ:
                try:
                    chunk = conn.sock.recv(1 << 18)
                except BlockingIOError:
                    continue
                if not chunk:
                    raise ConnectionError("daemon closed the connection")
                conn.inbox += chunk
                self._parse(conn, replies)
        return replies

    def _flush(self, conn: _Conn) -> None:
        try:
            sent = conn.sock.send(conn.outbox)
        except BlockingIOError:
            return
        del conn.outbox[:sent]
        if not conn.outbox:
            self.selector.modify(conn.sock, selectors.EVENT_READ, conn)

    @staticmethod
    def _parse(conn: _Conn, replies: List[Dict[str, Any]]) -> None:
        inbox = conn.inbox
        offset = 0
        while len(inbox) - offset >= _LEN.size:
            (length,) = _LEN.unpack_from(inbox, offset)
            end = offset + _LEN.size + length
            if len(inbox) < end:
                break
            replies.append(json.loads(bytes(inbox[offset + _LEN.size:end])))
            offset = end
        if offset:
            del inbox[:offset]


@dataclass
class PhaseResult:
    """Per-request timings of one phase, indexed like its requests."""

    #: Instant each request was due (open loop) or sent (closed loop).
    origin: List[float]
    #: Instant each request was actually written to the socket.
    sent: List[float]
    #: Instant each reply was parsed.
    done: List[float]
    #: Phase start and end instants.
    start: float = 0.0
    end: float = 0.0
    #: Completion instants in completion order (throughput segments).
    completion_order: List[float] = field(default_factory=list)
    #: Requests actually sent: fewer than asked only when the phase hit
    #: its time cap (a device far slower than the one the counts were
    #: sized for), in which case the rest were never issued.
    issued: int = 0

    def latency_ms(self, index: int) -> float:
        return (self.done[index] - self.origin[index]) * 1e3


ReplyHook = Callable[[Dict[str, Any], Dict[str, Any]], None]


def _run(pipe: Pipeline, requests: Sequence[Dict[str, Any]],
         due: Optional[Sequence[float]], callers: int,
         on_reply: ReplyHook, cap_s: float) -> PhaseResult:
    """The shared loop: ``due`` offsets make it open, None closed.

    Sizes are fixed request counts; ``cap_s`` only bounds the damage
    when the device is having a very bad day: past it nothing new is
    issued, so a run always ends in bounded time.
    """
    count = len(requests)
    frames = [encode_frame(request) for request in requests]
    first_id = requests[0]["id"]
    result = PhaseResult([0.0] * count, [0.0] * count, [0.0] * count)
    lanes = len(pipe.conns)
    lane_of = [0] * count
    idle = list(range(lanes))  # open loop: connections with no request
    next_index = 0
    completed = 0
    in_flight = 0
    clock = time.perf_counter
    result.start = start = clock()
    last_progress = start

    def issue(index: int, origin: float, lane: int) -> None:
        result.origin[index] = origin
        lane_of[index] = lane
        pipe.send(lane, frames[index])
        result.sent[index] = clock()

    if due is None:
        while next_index < min(callers, count):
            issue(next_index, clock(), next_index % lanes)
            next_index += 1
            in_flight += 1
    while completed < count:
        timeout: Optional[float] = 1.0
        if clock() - start > cap_s:
            count = next_index
            if completed == count:
                break
        if due is not None:
            now = clock()
            while next_index < count and idle and start + due[next_index] <= now:
                issue(next_index, start + due[next_index], idle.pop())
                next_index += 1
                in_flight += 1
            if next_index < count and idle:
                timeout = max(0.0, start + due[next_index] - clock())
        replies = pipe.poll(timeout)
        now = clock()
        for reply in replies:
            index = reply["id"] - first_id
            result.done[index] = now
            result.completion_order.append(now)
            completed += 1
            in_flight -= 1
            on_reply(requests[index], reply)
            if due is not None:
                idle.append(lane_of[index])
            elif next_index < count:
                # The caller that just got its reply sends its next
                # request on the connection it has been using.
                issue(next_index, clock(), lane_of[index])
                next_index += 1
                in_flight += 1
        if replies:
            last_progress = now
        elif in_flight and now - last_progress > REPLY_TIMEOUT_S:
            raise TimeoutError(
                f"no reply for {REPLY_TIMEOUT_S:.0f}s with {in_flight} "
                "requests in flight"
            )
    result.end = clock()
    result.issued = count
    return result


def open_loop(pipe: Pipeline, requests: Sequence[Dict[str, Any]],
              due: Sequence[float], on_reply: ReplyHook,
              cap_s: float) -> PhaseResult:
    return _run(pipe, requests, due, 0, on_reply, cap_s)


def closed_loop(pipe: Pipeline, requests: Sequence[Dict[str, Any]],
                callers: int, on_reply: ReplyHook,
                cap_s: float) -> PhaseResult:
    return _run(pipe, requests, None, callers, on_reply, cap_s)
