"""Wire protocol: length-prefixed JSON frames over a stream socket.

One frame is a 4-byte little-endian unsigned length followed by that
many bytes of UTF-8 JSON.  Requests and responses are JSON objects:

Request::

    {"id": 7, "kind": "put", "obj": "user:42",
     "value": {"__bytes__": "<base64>"}, "deadline_ms": 250}

Response (success)::

    {"id": 7, "ok": true, "lsi": 19, "health": "healthy", ...}

Response (rejection)::

    {"id": 7, "ok": false,
     "error": {"code": "BACKPRESSURE",
               "message": "admission queue full (64 waiting)",
               "retry_after_ms": 40},
     "health": "recovering"}

Byte values travel as ``{"__bytes__": "<base64>"}`` envelopes (JSON has
no bytes type); the tombstone of a deleted object never travels — a
deleted or absent object reads as ``value: null``.  Every response
carries the server's current :class:`~repro.kernel.system.SystemHealth`
value so clients observe health transitions without polling
``/healthz``.

Requests may carry an optional ``"trace"`` field —
``{"id": "<trace id>", "span": "<parent span id>"}`` — minted by an
instrumented :class:`~repro.serve.client.DaemonClient`.  The field is
advisory: :func:`request_trace` parses it tolerantly (absent or
malformed from an old client → ``None``) and the server threads it
through its stage spans so ``python -m repro trace`` can reconstruct
the request's causal tree across processes.

The framing is symmetric (client and server use the same
:func:`send_frame` / :func:`recv_frame`), and deliberately boring: the
interesting machinery — admission, deadlines, the escalation ladder —
lives above it.
"""

from __future__ import annotations

import base64
import contextlib
import json
import socket
import struct
from typing import Any, Dict, Optional

from repro.obs.tracing import TRACE_FIELD, TraceContext
from repro.serve.errors import ProtocolError

#: Frame header: payload length, little-endian u32.
_LEN = struct.Struct("<I")

#: Refuse frames above this size (16 MiB): a corrupt length prefix must
#: not make a reader allocate gigabytes.
MAX_FRAME = 16 * 1024 * 1024

#: Request kinds the server understands.  ``promote`` is answered only
#: by a witness daemon (a plain primary rejects it with BAD_REQUEST) —
#: it is the operator-driven failover trigger.
REQUEST_KINDS = frozenset(
    {"ping", "get", "put", "delete", "apply", "health", "stats", "promote"}
)

#: Request kinds that mutate state (gated in DEGRADED health).
WRITE_KINDS = frozenset({"put", "delete", "apply"})

#: Chaos-engineering kinds the *sharded* daemon accepts when started
#: with ``--allow-chaos`` (harness/CI use only): kill one shard worker
#: in place, and revive it through supervised recovery.
CHAOS_KINDS = frozenset({"kill_shard", "revive_shard"})

#: Replication kinds, exchanged on the primary's normal listener but
#: routed around the admission queue: a witness opens a connection and
#: sends ``repl_subscribe`` (carrying its durable watermark + epoch);
#: the primary pushes ``repl_batch`` frames down that connection and
#: the witness answers each with ``repl_ack`` (its new durable
#: watermark).  See :mod:`repro.replica.wire`.
REPLICATION_KINDS = frozenset({"repl_subscribe", "repl_ack"})

#: Stable rejection codes (mirrored by :mod:`repro.serve.errors`).
#: ``FENCED`` means the responder's replication epoch outranks the
#: caller's — a promoted witness refusing a zombie primary, or a fenced
#: old primary refusing writes it may no longer ack.
ERROR_CODES = frozenset(
    {
        "PROTOCOL",
        "BAD_REQUEST",
        "BACKPRESSURE",
        "DEADLINE",
        "UNAVAILABLE",
        "SHUTTING_DOWN",
        "DEGRADED",
        "FAILED",
        "FENCED",
        "INTERNAL",
    }
)


# ----------------------------------------------------------------------
# value envelopes
# ----------------------------------------------------------------------
def encode_value(value: Any) -> Any:
    """JSON-encode a stored value (bytes ride in a base64 envelope)."""
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": base64.b64encode(bytes(value)).decode("ascii")}
    return value


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`."""
    if isinstance(value, dict) and set(value) == {"__bytes__"}:
        try:
            return base64.b64decode(value["__bytes__"], validate=True)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"bad bytes envelope: {exc}") from None
    return value


def encode_writes(writes: Dict[Any, Any]) -> Dict[str, Any]:
    """An ``apply`` answer's ``writes`` field: object id → value."""
    return {str(obj): encode_value(value) for obj, value in writes.items()}


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def disable_nagle(sock: socket.socket) -> None:
    """Set ``TCP_NODELAY``: every frame is one complete ``sendall``.

    With Nagle on, a peer that pipelines small frames on one connection
    has each frame held until the previous one is acknowledged — the
    delayed-ACK interaction, about 2/rate per request.  Every TCP
    socket that carries this protocol calls this once it is connected
    or accepted.
    """
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def close_socket(sock: socket.socket) -> None:
    """Shut a stream down both ways, waking a thread blocked in ``recv``
    on it, and close it; a peer that is already gone is no error."""
    with contextlib.suppress(OSError):
        sock.shutdown(socket.SHUT_RDWR)
    with contextlib.suppress(OSError):
        sock.close()


def send_frame(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Serialize ``message`` and write one frame."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME ({MAX_FRAME})"
        )
    sock.sendall(_LEN.pack(len(payload)) + payload)


def recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    header = _recv_exact(sock, _LEN.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(
            f"incoming frame claims {length} bytes (> MAX_FRAME)"
        )
    payload = _recv_exact(sock, length, eof_ok=False)
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(message).__name__}"
        )
    return message


def _recv_exact(
    sock: socket.socket, count: int, eof_ok: bool
) -> Optional[bytes]:
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            if eof_ok and remaining == count:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining}/"
                f"{count} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ----------------------------------------------------------------------
# trace context
# ----------------------------------------------------------------------
def request_trace(request: Dict[str, Any]) -> Optional[TraceContext]:
    """The request's trace context, or ``None``.

    Never raises: old clients send no ``trace`` field and hand-rolled
    ones may send garbage; both must serve normally, just untraced.
    """
    return TraceContext.from_wire(request)


# ----------------------------------------------------------------------
# message constructors
# ----------------------------------------------------------------------
def ok_response(request_id: Any, health: str, **fields: Any) -> Dict[str, Any]:
    """A success response echoing the request id."""
    response: Dict[str, Any] = {"id": request_id, "ok": True, "health": health}
    response.update(fields)
    return response


def error_response(
    request_id: Any,
    code: str,
    message: str,
    health: str,
    retry_after_ms: Optional[int] = None,
    shard: Optional[int] = None,
) -> Dict[str, Any]:
    """A structured rejection.

    ``shard`` names the recovery domain the rejection came from, when
    the server is sharded — clients use it to scope backpressure hints
    to the one jammed shard instead of backing off everywhere.
    """
    assert code in ERROR_CODES, code
    error: Dict[str, Any] = {"code": code, "message": message}
    if retry_after_ms is not None:
        error["retry_after_ms"] = int(retry_after_ms)
    response = {"id": request_id, "ok": False, "health": health, "error": error}
    if shard is not None:
        response["shard"] = int(shard)
    return response
