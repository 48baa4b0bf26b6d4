"""Replication wire format: WAL frames over the serving protocol.

Replication reuses the length-prefixed JSON framing of
:mod:`repro.serve.protocol` — a witness dials the primary's *normal*
request listener and sends one ``repl_subscribe`` frame; the primary
answers it like any request, then keeps the connection and pushes
``repl_batch`` frames down it, each of which the witness answers with a
``repl_ack``.  Three frame shapes:

``repl_subscribe`` (witness → primary, once per connection)::

    {"id": 0, "kind": "repl_subscribe", "protocol": 2,
     "watermark": 41, "epoch": 1}

``watermark`` is the witness's durable position (the last lSI it has on
its stable log, ``NULL_SI`` when empty): the primary resumes shipping
from the record after it, so a restarting witness never re-downloads
what it already holds.  The response carries the primary's ``epoch``
and current stable end (``through``).

``repl_batch`` (primary → witness, pushed)::

    {"kind": "repl_batch", "protocol": 2, "epoch": 1, "through": 57,
     "checkpoint": false, "frames": "<base64 WAL frames>"}

``frames`` is one base64 string: the primary's forced WAL frames
(``[length u32][crc32 u32][payload]``) back to back, byte for byte as
its ``wal.log`` holds them, so a record is encoded once — by the
primary's append — and the witness writes the bytes it received.  Only
operation, fence and epoch records ship, with their original lSIs
(:data:`~repro.wal.codec.SHIPPED_TYPES`: the primary's bookkeeping
describes the *primary's* stable store).  ``through`` is the primary's
stable end when the batch was built: it is the unit of the watermark
handshake, and it may exceed the last shipped record's lSI (bookkeeping
gaps).  ``checkpoint`` hints that the primary just checkpointed,
nudging the witness to run a redo/materialize cycle soon.

``repl_ack`` (witness → primary, one per batch)::

    {"kind": "repl_ack", "watermark": 57, "epoch": 1}

The ack is a **durability promise**: the witness sends it only after
:meth:`~repro.wal.log_manager.LogManager.adopt_records` has forced the
batch to its own stable log.  The primary releases the client ack for
an operation only once the witness watermark covers its lSI —
replication is semi-synchronous, which is what makes the acked-write
oracle extendable across the pair.

Nothing on this channel is trusted: every frame must pass its CRC,
carry a shipped type and decode before any of the batch lands; anything
else, or another :data:`PROTOCOL`, is a :class:`RefusedError` (a
:class:`~repro.serve.errors.ProtocolError`).
"""

from __future__ import annotations

import base64
from typing import Any, Dict, Optional, Sequence, TYPE_CHECKING

from repro.common.codec import CodecError
from repro.common.errors import CorruptObjectError, WALViolationError
from repro.serve.errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.wal.log_manager import LogManager

#: The replication protocol of this build.  Subscribe and batch frames
#: carry it; a peer without it speaks protocol 1 (per-record envelopes,
#: before 5.3.0) and is refused by name.
PROTOCOL = 2

KIND_SUBSCRIBE = "repl_subscribe"
KIND_BATCH = "repl_batch"
KIND_ACK = "repl_ack"


class RefusedError(ProtocolError):
    """A frame this build refuses (a torn stream is a plain ProtocolError)."""


def check_protocol(frame: Dict[str, Any], peer: str) -> None:
    """Refuse, naming both versions, a ``frame`` not in :data:`PROTOCOL`."""
    spoken = frame.get("protocol", 1)
    if spoken != PROTOCOL:
        raise RefusedError(
            f"the {peer} speaks replication protocol {spoken!r}; this "
            f"build speaks {PROTOCOL}: upgrade the pair together"
        )


def adopt_batch(log: "LogManager", frame: Dict[str, Any]) -> int:
    """Adopt one ``repl_batch``'s frames into ``log``; return how many
    records landed.  Every refusal is a :class:`RefusedError` and leaves
    the log as it was."""
    check_protocol(frame, "primary")
    try:  # TypeError: not a string; ValueError: not ASCII or base64
        blob = str.encode(frame.get("frames"), "ascii")
        frames = base64.b64decode(blob, validate=True)
    except (TypeError, ValueError) as exc:
        raise RefusedError(f"repl_batch frames: {exc}") from None
    try:
        return log.adopt_records(frames)
    except (CodecError, CorruptObjectError, WALViolationError) as exc:
        raise RefusedError(f"refusing repl_batch: {exc}") from None


def batch_frame(
    epoch: int,
    through: int,
    frames: Sequence[bytes],
    checkpoint: bool = False,
    trace: Optional[Dict[str, str]] = None,
) -> Dict[str, Any]:
    """Build one ``repl_batch`` push frame from stable WAL frames.

    ``trace`` is the optional distributed-trace wire field of the
    client write whose ack is gated on this batch: the witness parses
    it tolerantly (see :func:`repro.serve.protocol.request_trace`) and
    parents its adopt/ack spans on it.
    """
    frame: Dict[str, Any] = {
        "kind": KIND_BATCH,
        "protocol": PROTOCOL,
        "epoch": int(epoch),
        "through": int(through),
        "checkpoint": bool(checkpoint),
        "frames": base64.b64encode(b"".join(frames)).decode("ascii"),
    }
    if trace is not None:
        frame["trace"] = trace
    return frame


def subscribe_frame(watermark: int, epoch: int) -> Dict[str, Any]:
    """Build the ``repl_subscribe`` handshake frame."""
    return {
        "id": 0,
        "kind": KIND_SUBSCRIBE,
        "protocol": PROTOCOL,
        "watermark": int(watermark),
        "epoch": int(epoch),
    }


def ack_frame(
    watermark: int,
    epoch: int,
    trace: Optional[Dict[str, str]] = None,
) -> Dict[str, Any]:
    """Build one ``repl_ack`` durable-receipt frame.

    ``trace`` echoes the acknowledged batch's trace field back to the
    primary, closing the shipped span's loop on the wire.
    """
    frame: Dict[str, Any] = {
        "kind": KIND_ACK,
        "watermark": int(watermark),
        "epoch": int(epoch),
    }
    if trace is not None:
        frame["trace"] = trace
    return frame
