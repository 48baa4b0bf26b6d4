"""The binary codec shared by the WAL, the store frames and the wire.

Every durable or shipped payload is ``version u8 · type u8 · si u64``
followed by a body typed by ``type`` (see DESIGN.md, "Byte layout").
This module owns the parts that do not depend on the record classes:
the payload header, the body primitives, and the **value codec** — a
tagged encoding of exactly the value universe
:func:`repro.common.sizes.size_of` models (None, bool, int, float,
bytes, str, tuple, list, dict, set, frozenset, ``TOMBSTONE``).
:mod:`repro.wal.codec` builds the record bodies on top of it.

Encoding is canonical — one byte string per value: ints are minimal
two's complement, varints are minimal, set members are ordered by their
encoded bytes (dicts keep insertion order, which is part of the value)
— so a CRC over the encoding is a content checksum.

Decoding is safe on hostile bytes: every declared length or count is
checked against the bytes that remain before anything is allocated,
container nesting is bounded by :data:`MAX_DEPTH`, trailing bytes are
rejected, and every failure is a :class:`CodecError`.
"""

from __future__ import annotations

import struct
from typing import Any, Tuple, Union

from repro.common.errors import ReproError
from repro.common.tombstone import TOMBSTONE

#: The one layout this build reads and writes.  A payload carrying any
#: other version is refused (:class:`UnknownVersionError`); there is no
#: fallback reader.
VERSION = 1

#: Deepest container nesting accepted by encode and decode alike (what
#: cannot be read back must not be written).
MAX_DEPTH = 32

#: Payload type of a stored object version: ``si`` is the vSI and the
#: body is one tagged value.  Types 1–8 are the WAL record classes
#: (:mod:`repro.wal.codec`).
TYPE_STORED_VERSION = 16

#: The version byte of a *deflated* stored version, which only store
#: frames carry (:func:`repro.storage.framing.frame`): the header is
#: ``2 · TYPE_STORED_VERSION · vSI`` and the body is the tagged value's
#: length as a varint, then that encoding deflated.  No other payload
#: takes it, so :func:`unpack_header` refuses it everywhere else — and a
#: build that reads only version 1 refuses a deflated store frame
#: (:class:`UnknownVersionError`) instead of taking it for damage.
DEFLATED_VERSION = 2

HEADER = struct.Struct("<BBQ")  # version, type, si
#: What the decoders read: the codec never needs the bytes to be ``bytes``.
Buffer = Union[bytes, memoryview]
_F64 = struct.Struct("<d")

TAG_NONE = 0x00
TAG_FALSE = 0x01
TAG_TRUE = 0x02
TAG_INT = 0x03
TAG_FLOAT = 0x04
TAG_BYTES = 0x05
TAG_STR = 0x06
TAG_TUPLE = 0x07
TAG_LIST = 0x08
TAG_DICT = 0x09
TAG_SET = 0x0A
TAG_FROZENSET = 0x0B
TAG_TOMBSTONE = 0x0C


class CodecError(ReproError):
    """Bytes that are not a well-formed payload of this codec."""


class UnknownVersionError(CodecError):
    """A payload written by a different layout version.

    Distinguished from damage because the answer differs: damage is
    repaired (torn-tail truncation, quarantine + replay), a foreign
    version is refused and left untouched.
    """


#: What decoding untrusted bytes can raise underneath: a read past the
#: end, a short struct, bad UTF-8, an unhashable dict key or set
#: member, and the ``ValueError``/``TypeError`` of a record class's own
#: validation.  ``CodecError`` is none of these and passes through.
DECODE_ERRORS = (IndexError, struct.error, ValueError, TypeError, OverflowError)


# ----------------------------------------------------------------------
# body primitives (also used by repro.wal.codec)
# ----------------------------------------------------------------------
def put_uvarint(out: bytearray, n: int) -> None:
    """Append ``n >= 0`` as a minimal LEB128 varint."""
    if n < 0:
        raise ValueError(f"cannot encode negative count or identifier {n}")
    while n > 0x7F:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def get_uvarint(data: Buffer, pos: int) -> Tuple[int, int]:
    """Read one varint of at most ten bytes; return ``(value, new pos)``."""
    byte = data[pos]
    if byte < 0x80:
        return byte, pos + 1
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            break
        shift += 7
        if shift > 63:
            raise CodecError("varint longer than ten bytes")
    if byte == 0 and shift:
        raise CodecError("non-minimal varint")
    return result, pos


def get_count(data: Buffer, pos: int) -> Tuple[int, int]:
    """Read an element count: no more elements than bytes remain."""
    count, pos = get_uvarint(data, pos)
    if count > len(data) - pos:
        raise CodecError(
            f"count {count} exceeds the {len(data) - pos} bytes remaining"
        )
    return count, pos


def put_str(out: bytearray, text: str) -> None:
    """Append an untagged string: varint byte length, then UTF-8.

    ``surrogatepass`` keeps the codec total over ``str`` (JSON clients
    can send lone surrogates).
    """
    if type(text) is not str:
        raise TypeError(f"expected str, got {type(text).__name__}")
    raw = text.encode("utf-8", "surrogatepass")
    put_uvarint(out, len(raw))
    out += raw


def get_str(data: Buffer, pos: int) -> Tuple[str, int]:
    length, pos = get_uvarint(data, pos)
    end = pos + length
    if end > len(data):
        raise CodecError(
            f"string of {length} bytes exceeds the {len(data) - pos} remaining"
        )
    return str(data[pos:end], "utf-8", "surrogatepass"), end


def pack_header(kind: int, si: int) -> bytearray:
    """Start a payload: version, type and state identifier."""
    return bytearray(HEADER.pack(VERSION, kind, si))


def unpack_header(data: Buffer) -> Tuple[int, int, int]:
    """Check the version; return ``(type, si, body offset)``."""
    if not data:
        raise CodecError("empty payload")
    if data[0] != VERSION:
        raise UnknownVersionError(
            f"payload has codec version {data[0]}; this build reads "
            f"only version {VERSION}"
        )
    try:
        _version, kind, si = HEADER.unpack_from(data, 0)
    except struct.error:
        raise CodecError("truncated payload header") from None
    return kind, si, HEADER.size


# ----------------------------------------------------------------------
# tagged values
# ----------------------------------------------------------------------
def put_value(out: bytearray, value: Any, depth: int = 0) -> None:
    """Append one tagged value; ``TypeError`` outside the universe."""
    kind = type(value)
    if kind is bytes:
        out.append(TAG_BYTES)
        put_uvarint(out, len(value))
        out += value
    elif kind is str:
        out.append(TAG_STR)
        put_str(out, value)
    elif kind is int:
        width = (value.bit_length() + 8) >> 3
        out.append(TAG_INT)
        put_uvarint(out, width)
        out += value.to_bytes(width, "little", signed=True)
    elif value is None:
        out.append(TAG_NONE)
    elif kind is bool:
        out.append(TAG_TRUE if value else TAG_FALSE)
    elif kind is float:
        out.append(TAG_FLOAT)
        out += _F64.pack(value)
    elif kind is tuple or kind is list:
        _check_depth(depth)
        out.append(TAG_TUPLE if kind is tuple else TAG_LIST)
        put_uvarint(out, len(value))
        for item in value:
            put_value(out, item, depth + 1)
    elif kind is dict:
        _check_depth(depth)
        out.append(TAG_DICT)
        put_uvarint(out, len(value))
        for key, item in value.items():
            put_value(out, key, depth + 1)
            put_value(out, item, depth + 1)
    elif kind is set or kind is frozenset:
        _check_depth(depth)
        out.append(TAG_SET if kind is set else TAG_FROZENSET)
        put_uvarint(out, len(value))
        members = []
        for item in value:
            member = bytearray()
            put_value(member, item, depth + 1)
            members.append(member)
        for member in sorted(members):
            out += member
    elif value is TOMBSTONE:
        out.append(TAG_TOMBSTONE)
    else:
        raise TypeError(f"no codec for values of type {kind.__name__}")


_LEAF_TYPES = frozenset({bytes, str, int, type(None), bool, float})


def check_value(value: Any, depth: int = 0) -> None:
    """Raise what :func:`put_value` would (``TypeError`` outside the
    universe, :class:`CodecError` past :data:`MAX_DEPTH`) without
    writing a byte: the same walk over types only, so a large ``bytes``
    costs nothing."""
    kind = type(value)
    if kind in _LEAF_TYPES or value is TOMBSTONE:
        return
    if kind is tuple or kind is list or kind is set or kind is frozenset:
        _check_depth(depth)
        for item in value:
            check_value(item, depth + 1)
    elif kind is dict:
        _check_depth(depth)
        for key, item in value.items():
            check_value(key, depth + 1)
            check_value(item, depth + 1)
    else:
        raise TypeError(f"no codec for values of type {kind.__name__}")


def _check_depth(depth: int) -> None:
    if depth >= MAX_DEPTH:
        raise CodecError(f"containers nested deeper than {MAX_DEPTH}")


def get_value(data: Buffer, pos: int, depth: int = 0) -> Tuple[Any, int]:
    """Read one tagged value; return ``(value, new pos)``."""
    tag = data[pos]
    pos += 1
    if tag == TAG_BYTES:
        length, pos = get_count(data, pos)
        end = pos + length
        # The one copy of a value read through a ``memoryview``.
        return bytes(data[pos:end]), end
    if tag == TAG_STR:
        return get_str(data, pos)
    if tag == TAG_INT:
        width, pos = get_count(data, pos)
        end = pos + width
        value = int.from_bytes(data[pos:end], "little", signed=True)
        if (value.bit_length() + 8) >> 3 != width:
            raise CodecError("non-minimal int")
        return value, end
    if tag == TAG_NONE:
        return None, pos
    if tag == TAG_TRUE:
        return True, pos
    if tag == TAG_FALSE:
        return False, pos
    if tag == TAG_FLOAT:
        return _F64.unpack_from(data, pos)[0], pos + 8
    if tag == TAG_TOMBSTONE:
        return TOMBSTONE, pos
    if tag == TAG_TUPLE or tag == TAG_LIST:
        _check_depth(depth)
        count, pos = get_count(data, pos)
        items = []
        for _ in range(count):
            item, pos = get_value(data, pos, depth + 1)
            items.append(item)
        return (tuple(items) if tag == TAG_TUPLE else items), pos
    if tag == TAG_DICT:
        _check_depth(depth)
        count, pos = get_count(data, pos)
        mapping = {}
        for _ in range(count):
            key, pos = get_value(data, pos, depth + 1)
            mapping[key], pos = get_value(data, pos, depth + 1)
        if len(mapping) != count:
            raise CodecError("duplicate dict key")
        return mapping, pos
    if tag == TAG_SET or tag == TAG_FROZENSET:
        _check_depth(depth)
        count, pos = get_count(data, pos)
        members = set()
        for _ in range(count):
            member, pos = get_value(data, pos, depth + 1)
            members.add(member)
        if len(members) != count:
            raise CodecError("duplicate set member")
        return (members if tag == TAG_SET else frozenset(members)), pos
    raise CodecError(f"unknown value tag 0x{tag:02x}")


def finish(data: Buffer, pos: int) -> None:
    """Reject a payload that continues past its decoded content."""
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes after payload")


def encode_value(value: Any) -> bytes:
    """The canonical encoding of one value (checksums hash this)."""
    out = bytearray()
    put_value(out, value)
    return bytes(out)


def decode_value(data: bytes) -> Any:
    """Invert :func:`encode_value`."""
    data = bytes(data)
    try:
        value, pos = get_value(data, 0)
        finish(data, pos)
    except DECODE_ERRORS as exc:
        raise CodecError(f"malformed value: {exc}") from None
    return value


def encode_stored_version(value: Any, vsi: int) -> bytes:
    """Payload of a store frame: one object version ``(value, vSI)``."""
    out = pack_header(TYPE_STORED_VERSION, vsi)
    put_value(out, value)
    return bytes(out)


def decode_stored_version(data: Buffer) -> Tuple[Any, int]:
    """Invert :func:`encode_stored_version`, in place on ``data`` (a
    ``memoryview`` of a read buffer is decoded without copying it)."""
    kind, vsi, pos = unpack_header(data)
    if kind != TYPE_STORED_VERSION:
        raise CodecError(f"payload type {kind} is not a stored version")
    try:
        value, pos = get_value(data, pos)
        finish(data, pos)
    except DECODE_ERRORS as exc:
        raise CodecError(f"malformed stored version: {exc}") from None
    return value, vsi
