"""Record bodies of the shared binary codec.

One payload layout — ``version u8 · type u8 · lsi u64 · body`` — inside
one length+CRC frame (:func:`repro.storage.framing.pack_frame`) serves
the WAL file (:mod:`repro.persist.file_log`) and the replication wire,
which carries the primary's frames verbatim (:func:`unpack_shipped`).
:mod:`repro.common.codec` owns the header, the primitives and the
tagged value encoding; this module owns the type table and the body of
each record class in :mod:`repro.wal.records`.

Bodies are typed, not self-describing: identifiers are bare strings,
state identifiers and counts are varints, and only data values (an
operation's parameters and payload, a flush transaction's versions) go
through the tagged value codec.  A logical operation's record is
therefore its identifiers and nothing else — the paper's Figure 1
economy, on real bytes.  A blind physical write under its canonical
name (``put(obj)``, ``delete(obj)``) is likewise its object and its
value: the compact layout rebuilds the name, the empty readset and the
writeset instead of storing them.

Decoding constructs only the classes in :data:`RECORD_TYPES`, through
their ordinary constructors (so ``Operation.__post_init__`` validates
every decoded operation), and raises only
:class:`~repro.common.codec.CodecError`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from repro.common.codec import (
    DECODE_ERRORS,
    CodecError,
    finish,
    get_count,
    get_str,
    get_uvarint,
    get_value,
    pack_header,
    put_str,
    put_uvarint,
    put_value,
    unpack_header,
)
from repro.core.operation import OpKind, Operation, blind_write_name, put_object
from repro.storage.framing import HEADER as FRAME_HEADER, payload_at
from repro.wal.records import (
    CheckpointRecord,
    EpochRecord,
    FenceRecord,
    FlushRecord,
    FlushTxnCommitRecord,
    FlushTxnValuesRecord,
    InstallationRecord,
    LogRecord,
    OperationRecord,
)

_OP_KINDS = (
    OpKind.LOGICAL,
    OpKind.PHYSIOLOGICAL,
    OpKind.PHYSICAL,
    OpKind.IDENTITY,
)
_OP_KIND_CODE = {kind: code for code, kind in enumerate(_OP_KINDS)}
_HAS_PAYLOAD = 0x04
#: The compact layout of a blind physical write under its canonical
#: name (:func:`~repro.core.operation.blind_write_name`).  It is the
#: whole flags byte: the kind (PHYSICAL), the empty readset, ``fn`` and
#: params, the one-object payload and the writeset it equals are all
#: implied, and the body is ``op_id + 1 · obj · value``.
_BLIND_WRITE = 0x08


# ----------------------------------------------------------------------
# shared body shapes
# ----------------------------------------------------------------------
def _put_optional(out: bytearray, number: Optional[int]) -> None:
    """An optional unsigned number: 0 is None, ``n + 1`` otherwise."""
    put_uvarint(out, 0 if number is None else number + 1)


def _get_optional(data: bytes, pos: int) -> Tuple[Optional[int], int]:
    number, pos = get_uvarint(data, pos)
    return (None if number == 0 else number - 1), pos


def _put_ids(out: bytearray, ids: Iterable[str]) -> None:
    """An identifier set, in sorted order (the encoding is canonical)."""
    ordered = sorted(ids)
    put_uvarint(out, len(ordered))
    for obj in ordered:
        put_str(out, obj)


def _get_ids(data: bytes, pos: int) -> Tuple[frozenset, int]:
    count, pos = get_count(data, pos)
    ids = []
    for _ in range(count):
        obj, pos = get_str(data, pos)
        ids.append(obj)
    members = frozenset(ids)
    if len(members) != count:
        raise CodecError("duplicate identifier in set")
    return members, pos


def _put_si_map(out: bytearray, table: Mapping[str, Optional[int]]) -> None:
    """Object id → optional state identifier, in the table's order."""
    put_uvarint(out, len(table))
    for obj, si in table.items():
        put_str(out, obj)
        _put_optional(out, si)


def _get_si_map(data: bytes, pos: int) -> Tuple[Dict[str, Optional[int]], int]:
    count, pos = get_count(data, pos)
    table: Dict[str, Optional[int]] = {}
    for _ in range(count):
        obj, pos = get_str(data, pos)
        table[obj], pos = _get_optional(data, pos)
    if len(table) != count:
        raise CodecError("duplicate object in table")
    return table, pos


def _put_numbers(out: bytearray, numbers: Sequence[int]) -> None:
    put_uvarint(out, len(numbers))
    for number in numbers:
        put_uvarint(out, number)


def _get_numbers(data: bytes, pos: int) -> Tuple[Tuple[int, ...], int]:
    count, pos = get_count(data, pos)
    numbers = []
    for _ in range(count):
        number, pos = get_uvarint(data, pos)
        numbers.append(number)
    return tuple(numbers), pos


# ----------------------------------------------------------------------
# one encoder/decoder pair per record class
# ----------------------------------------------------------------------
def _put_operation(out: bytearray, record: OperationRecord) -> None:
    op = record.op
    if (
        op.kind is OpKind.PHYSICAL
        and not op.reads
        and not op.fn
        and not op.params
        and len(op.payload) == 1
    ):
        ((obj, value),) = op.payload.items()
        if op.name == blind_write_name(obj, value):
            out.append(_BLIND_WRITE)
            put_uvarint(out, op.op_id + 1)
            put_str(out, obj)
            put_value(out, value)
            return
    flags = _OP_KIND_CODE[op.kind]
    if op.payload is not None:
        flags |= _HAS_PAYLOAD
    out.append(flags)
    put_uvarint(out, op.op_id + 1)  # -1 (never submitted) encodes as 0
    put_str(out, op.name)
    put_str(out, op.fn)
    _put_ids(out, op.reads)
    _put_ids(out, op.writes)
    put_uvarint(out, len(op.params))
    for param in op.params:
        put_value(out, param)
    if op.payload is not None:
        put_uvarint(out, len(op.payload))
        for obj, value in op.payload.items():
            put_str(out, obj)
            put_value(out, value)


def _get_operation(data: bytes, pos: int) -> Tuple[LogRecord, int]:
    flags = data[pos]
    pos += 1
    if flags == _BLIND_WRITE:
        op_id, pos = get_uvarint(data, pos)
        obj, pos = get_str(data, pos)
        value, pos = get_value(data, pos)
        op = put_object(obj, value)
        op.op_id = op_id - 1
        return OperationRecord(op), pos
    if flags & ~(_HAS_PAYLOAD | 0x03):
        raise CodecError(f"unknown operation flags 0x{flags:02x}")
    op_id, pos = get_uvarint(data, pos)
    name, pos = get_str(data, pos)
    fn, pos = get_str(data, pos)
    reads, pos = _get_ids(data, pos)
    writes, pos = _get_ids(data, pos)
    count, pos = get_count(data, pos)
    params = []
    for _ in range(count):
        param, pos = get_value(data, pos)
        params.append(param)
    payload = None
    if flags & _HAS_PAYLOAD:
        count, pos = get_count(data, pos)
        payload = {}
        for _ in range(count):
            obj, pos = get_str(data, pos)
            payload[obj], pos = get_value(data, pos)
        if len(payload) != count:
            raise CodecError("duplicate object in payload")
    op = Operation(
        name,
        _OP_KINDS[flags & 0x03],
        reads,
        writes,
        fn=fn,
        params=tuple(params),
        payload=payload,
        op_id=op_id - 1,
    )
    return OperationRecord(op), pos


def _put_installation(out: bytearray, record: InstallationRecord) -> None:
    _put_si_map(out, record.flushed)
    _put_si_map(out, record.unexposed)
    _put_numbers(out, record.installed_lsis)


def _get_installation(data: bytes, pos: int) -> Tuple[LogRecord, int]:
    flushed, pos = _get_si_map(data, pos)
    unexposed, pos = _get_si_map(data, pos)
    installed, pos = _get_numbers(data, pos)
    return InstallationRecord(flushed, unexposed, installed), pos


def _put_flush(out: bytearray, record: FlushRecord) -> None:
    put_str(out, record.obj)
    put_uvarint(out, record.vsi)


def _get_flush(data: bytes, pos: int) -> Tuple[LogRecord, int]:
    obj, pos = get_str(data, pos)
    vsi, pos = get_uvarint(data, pos)
    return FlushRecord(obj, vsi), pos


def _put_checkpoint(out: bytearray, record: CheckpointRecord) -> None:
    _put_optional(out, record.checksum)
    _put_si_map(out, record.dirty_objects)


def _get_checkpoint(data: bytes, pos: int) -> Tuple[LogRecord, int]:
    checksum, pos = _get_optional(data, pos)
    dirty, pos = _get_si_map(data, pos)
    if None in dirty.values():
        raise CodecError("checkpoint entry without a recovery SI")
    return CheckpointRecord(dirty, checksum), pos


def _put_fence(out: bytearray, record: FenceRecord) -> None:
    put_str(out, record.fence_id)
    put_uvarint(out, record.origin_shard)
    _put_numbers(out, record.participants)
    put_uvarint(out, len(record.vector))
    for shard, lsi in record.vector.items():
        put_uvarint(out, shard)
        put_uvarint(out, lsi)


def _get_fence(data: bytes, pos: int) -> Tuple[LogRecord, int]:
    fence_id, pos = get_str(data, pos)
    origin, pos = get_uvarint(data, pos)
    participants, pos = _get_numbers(data, pos)
    count, pos = get_count(data, pos)
    vector: Dict[int, int] = {}
    for _ in range(count):
        shard, pos = get_uvarint(data, pos)
        vector[shard], pos = get_uvarint(data, pos)
    if len(vector) != count:
        raise CodecError("duplicate shard in fence vector")
    return FenceRecord(fence_id, origin, participants, vector), pos


def _put_epoch(out: bytearray, record: EpochRecord) -> None:
    put_uvarint(out, record.epoch)
    put_str(out, record.role)
    put_str(out, record.note)


def _get_epoch(data: bytes, pos: int) -> Tuple[LogRecord, int]:
    epoch, pos = get_uvarint(data, pos)
    role, pos = get_str(data, pos)
    note, pos = get_str(data, pos)
    return EpochRecord(epoch, role, note), pos


def _put_txn_values(out: bytearray, record: FlushTxnValuesRecord) -> None:
    put_uvarint(out, record.txn_id)
    put_uvarint(out, len(record.versions))
    for obj, (value, vsi) in record.versions.items():
        put_str(out, obj)
        put_uvarint(out, vsi)
        put_value(out, value)


def _get_txn_values(data: bytes, pos: int) -> Tuple[LogRecord, int]:
    txn_id, pos = get_uvarint(data, pos)
    count, pos = get_count(data, pos)
    versions = {}
    for _ in range(count):
        obj, pos = get_str(data, pos)
        vsi, pos = get_uvarint(data, pos)
        value, pos = get_value(data, pos)
        versions[obj] = (value, vsi)
    if len(versions) != count:
        raise CodecError("duplicate object in flush transaction")
    return FlushTxnValuesRecord(txn_id, versions), pos


def _put_txn_commit(out: bytearray, record: FlushTxnCommitRecord) -> None:
    put_uvarint(out, record.txn_id)


def _get_txn_commit(data: bytes, pos: int) -> Tuple[LogRecord, int]:
    txn_id, pos = get_uvarint(data, pos)
    return FlushTxnCommitRecord(txn_id), pos


#: The type table: (payload type byte, record class, body encoder, body
#: decoder).  Numbers are part of the on-disk format; never reuse one.
_TABLE = (
    (1, OperationRecord, _put_operation, _get_operation),
    (2, InstallationRecord, _put_installation, _get_installation),
    (3, FlushRecord, _put_flush, _get_flush),
    (4, CheckpointRecord, _put_checkpoint, _get_checkpoint),
    (5, FenceRecord, _put_fence, _get_fence),
    (6, EpochRecord, _put_epoch, _get_epoch),
    (7, FlushTxnValuesRecord, _put_txn_values, _get_txn_values),
    (8, FlushTxnCommitRecord, _put_txn_commit, _get_txn_commit),
)
RECORD_TYPES: Dict[int, type] = {code: cls for code, cls, _, _ in _TABLE}
#: The types a primary ships (operation, fence, epoch).  The others are
#: its private bookkeeping about its own stable store and must not
#: prune (or drive) a witness's redo.
SHIPPED_TYPES = frozenset(
    code
    for code, cls, _, _ in _TABLE
    if cls in (OperationRecord, FenceRecord, EpochRecord)
)
_ENCODERS = {cls: (code, put) for code, cls, put, _ in _TABLE}
_DECODERS = {code: get for code, _, _, get in _TABLE}


def encode_record(record: LogRecord) -> bytes:
    """Serialize one log record as a codec payload.

    ``TypeError`` for a record class outside the type table or a value
    outside the codec's universe (exact types: stricter than the
    ``isinstance`` walk of ``record_size()``).  ``FileLogManager``
    encodes at append, so the error belongs to the append that carried
    the value.
    """
    entry = _ENCODERS.get(type(record))
    if entry is None:
        raise TypeError(
            f"no codec for records of type {type(record).__name__}"
        )
    code, put_body = entry
    out = pack_header(code, record.lsi)
    put_body(out, record)
    return bytes(out)


def decode_record(data: bytes) -> LogRecord:
    """Invert :func:`encode_record`; raises only ``CodecError``."""
    data = bytes(data)
    code, lsi, pos = unpack_header(data)
    get_body = _DECODERS.get(code)
    if get_body is None:
        raise CodecError(f"unknown record type {code}")
    try:
        record, pos = get_body(data, pos)
        finish(data, pos)
    except DECODE_ERRORS as exc:
        raise CodecError(
            f"malformed {RECORD_TYPES[code].__name__}: {exc}"
        ) from None
    record.lsi = lsi
    if type(record) is OperationRecord:
        record.op.lsi = lsi  # the pair append_operation keeps equal
    return record


def unpack_shipped(frames: bytes) -> Iterator[Tuple[LogRecord, bytes]]:
    """``(record, frame)`` of each WAL frame in ``frames``, which lie
    back to back as a primary's ``wal.log`` holds them.

    Each frame must pass the frame test
    (:class:`~repro.common.errors.CorruptObjectError` otherwise), carry
    a type in :data:`SHIPPED_TYPES` and decode (``CodecError``
    otherwise): its payload is decoded exactly once.
    """
    offset = 0
    while offset < len(frames):
        payload = payload_at(frames, offset, origin=f"shipped frame @{offset}")
        code, _lsi, _body = unpack_header(payload)
        if code not in SHIPPED_TYPES:
            name = getattr(RECORD_TYPES.get(code), "__name__", f"type {code}")
            raise CodecError(f"{name} is never shipped; refusing it")
        end = offset + FRAME_HEADER.size + len(payload)
        yield decode_record(payload), frames[offset:end]
        offset = end
