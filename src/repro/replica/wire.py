"""Replication wire format: WAL records over the serving protocol.

Replication reuses the length-prefixed JSON framing of
:mod:`repro.serve.protocol` — a witness dials the primary's *normal*
request listener and sends one ``repl_subscribe`` frame; the primary
answers it like any request, then keeps the connection and pushes
``repl_batch`` frames down it, each of which the witness answers with a
``repl_ack``.  Three frame shapes:

``repl_subscribe`` (witness → primary, once per connection)::

    {"id": 0, "kind": "repl_subscribe", "watermark": 41, "epoch": 1}

``watermark`` is the witness's durable position (the last lSI it has on
its stable log, ``NULL_SI`` when empty): the primary resumes shipping
from the record after it, so a restarting witness never re-downloads
what it already holds.  The response carries the primary's ``epoch``
and current stable end (``through``).

``repl_batch`` (primary → witness, pushed)::

    {"kind": "repl_batch", "epoch": 1, "through": 57,
     "checkpoint": false, "records": ["<base64 record payload>", ...]}

``records`` are the primary's forced :class:`~repro.wal.records`
objects — operation, fence and epoch records only; the primary's
private bookkeeping records (installation, flush, checkpoint) describe
the *primary's* stable store and are never shipped — with their
original lSIs preserved.  ``through`` is the primary's stable end when
the batch was built: it is the unit of the watermark handshake, and it
may exceed the last shipped record's lSI (bookkeeping gaps).
``checkpoint`` hints that the primary just checkpointed, nudging the
witness to run a redo/materialize cycle soon.

``repl_ack`` (witness → primary, one per batch)::

    {"kind": "repl_ack", "watermark": 57, "epoch": 1}

The ack is a **durability promise**: the witness sends it only after
:meth:`~repro.wal.log_manager.LogManager.adopt_records` has forced the
batch to its own stable log.  The primary releases the client ack for
an operation only once the witness watermark covers its lSI —
replication is semi-synchronous, which is what makes the acked-write
oracle extendable across the pair.

Records travel as the versioned binary payloads of
:mod:`repro.wal.codec` — the same bytes the WAL file frames — in base64
envelopes (the frame is JSON).  Nothing on this channel is trusted:
decoding constructs only shippable record classes, bounds every length
by the bytes received, and answers anything else — garbage, a foreign
codec version, a record kind that is never shipped — with
:class:`~repro.serve.errors.ProtocolError`.
"""

from __future__ import annotations

import base64
from typing import Any, Dict, List, Optional, Sequence

from repro.common.codec import CodecError
from repro.serve.errors import ProtocolError
from repro.wal.codec import decode_record, encode_record
from repro.wal.records import (
    EpochRecord,
    FenceRecord,
    LogRecord,
    OperationRecord,
)

#: Record kinds a primary ships.  Everything else in its WAL is private
#: bookkeeping about its own stable store and must not prune (or drive)
#: the witness's redo.
SHIPPED_RECORD_KINDS = (OperationRecord, FenceRecord, EpochRecord)

KIND_SUBSCRIBE = "repl_subscribe"
KIND_BATCH = "repl_batch"
KIND_ACK = "repl_ack"


def shippable(record: LogRecord) -> bool:
    """True for record kinds that cross the replication channel."""
    return isinstance(record, SHIPPED_RECORD_KINDS)


def encode_records(records: Sequence[LogRecord]) -> List[str]:
    """Serialize records for a ``repl_batch`` frame."""
    return [
        base64.b64encode(encode_record(record)).decode("ascii")
        for record in records
    ]


def decode_records(blobs: Sequence[Any]) -> List[LogRecord]:
    """Invert :func:`encode_records`, validating every entry."""
    records: List[LogRecord] = []
    for blob in blobs:
        if not isinstance(blob, str):
            raise ProtocolError(
                f"repl_batch record must be a base64 string, got "
                f"{type(blob).__name__}"
            )
        try:
            record = decode_record(base64.b64decode(blob, validate=True))
        except (ValueError, CodecError) as exc:  # bad base64 / bad payload
            raise ProtocolError(f"undecodable shipped record: {exc}") from None
        if not shippable(record):
            raise ProtocolError(
                f"{type(record).__name__} is never shipped; refusing it"
            )
        records.append(record)
    return records


def batch_frame(
    epoch: int,
    through: int,
    records: Sequence[LogRecord],
    checkpoint: bool = False,
    trace: Optional[Dict[str, str]] = None,
) -> Dict[str, Any]:
    """Build one ``repl_batch`` push frame.

    ``trace`` is the optional distributed-trace wire field of the
    client write whose ack is gated on this batch: the witness parses
    it tolerantly (see :func:`repro.serve.protocol.request_trace`) and
    parents its adopt/ack spans on it.
    """
    frame: Dict[str, Any] = {
        "kind": KIND_BATCH,
        "epoch": int(epoch),
        "through": int(through),
        "checkpoint": bool(checkpoint),
        "records": encode_records(records),
    }
    if trace is not None:
        frame["trace"] = trace
    return frame


def subscribe_frame(watermark: int, epoch: int) -> Dict[str, Any]:
    """Build the ``repl_subscribe`` handshake frame."""
    return {
        "id": 0,
        "kind": KIND_SUBSCRIBE,
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
