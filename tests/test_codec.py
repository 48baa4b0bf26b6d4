"""The binary record codec (repro.common.codec, repro.wal.codec).

Round trips over the whole value universe and every record class,
hostile and stale bytes on disk and on the wire, golden bytes that pin
the layout, and the paper's C1 claim measured on real encoded bytes.

The property tests take their example budget from the active
hypothesis profile; CI reruns this module under the derandomized
``codec-ci`` profile (tests/conftest.py) so a failure replays.
"""

from __future__ import annotations

import ast
import base64
import errno
import os
import pathlib
import pickle
import random
import shutil
import stat
import struct
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.codec import (
    DEFLATED_VERSION,
    MAX_DEPTH,
    TYPE_STORED_VERSION,
    VERSION,
    CodecError,
    UnknownVersionError,
    check_value,
    decode_stored_version,
    decode_value,
    encode_stored_version,
    encode_value,
    pack_header,
    put_str,
    put_uvarint,
    put_value,
    unpack_header,
)
from repro.common.errors import CorruptObjectError
from repro.common.sizes import ID_SIZE
from repro.core.operation import (
    TOMBSTONE,
    Operation,
    OpKind,
    blind_write_name,
    delete_object,
    put_object,
)
from repro.persist import PersistentSystem
from repro.persist.file_log import FileLogManager
from repro.replica.wire import adopt_batch, batch_frame
from repro.serve.errors import ProtocolError
from repro.storage import framing
from repro.storage.framing import HEADER as _HEADER, pack_frame
from repro.storage.registry import make_store
from repro.storage.stable_store import StoredVersion
from repro.wal.codec import RECORD_TYPES, decode_record, encode_record
from repro.wal.log_manager import LogManager
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

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


# ----------------------------------------------------------------------
# strict structural equality (== conflates 1/True/1.0 and ignores order)
# ----------------------------------------------------------------------
def same(left, right) -> bool:
    if type(left) is not type(right):
        return False
    if isinstance(left, float):
        return struct.pack("<d", left) == struct.pack("<d", right)
    if isinstance(left, (tuple, list)):
        return len(left) == len(right) and all(map(same, left, right))
    if isinstance(left, dict):
        return len(left) == len(right) and all(
            same(a, b) and same(left[a], right[b])
            for a, b in zip(left, right)
        )
    if isinstance(left, (set, frozenset)):  # not ==: {nan} != {nan}
        return len(left) == len(right) and all(
            any(same(a, b) for b in right) for a in left
        )
    if isinstance(left, Operation):
        return same(vars(left), vars(right))
    if isinstance(left, LogRecord):
        return same(vars(left), vars(right))
    if left is TOMBSTONE or isinstance(left, OpKind):
        return left is right
    return left == right


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
TEXT = st.text(
    alphabet=st.characters(blacklist_categories=()), max_size=12
)  # includes lone surrogates
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(allow_nan=True),
    st.binary(max_size=40),
    TEXT,
    st.just(TOMBSTONE),
)
HASHABLES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.frozensets(inner, max_size=3),
    ),
    max_leaves=6,
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(HASHABLES, inner, max_size=4),
        st.sets(HASHABLES, max_size=3),
        st.frozensets(HASHABLES, max_size=3),
    ),
    max_leaves=12,
)
IDS = st.text(min_size=1, max_size=10)
SIS = st.integers(min_value=0, max_value=2**64 - 1)
OPTIONAL_SIS = st.one_of(st.none(), st.integers(0, 2**62))
SI_MAPS = st.dictionaries(IDS, OPTIONAL_SIS, max_size=4)


@st.composite
def operations(draw):
    kind = draw(st.sampled_from(list(OpKind)))
    writes = draw(st.frozensets(IDS, min_size=1, max_size=3))
    reads = draw(st.frozensets(IDS, max_size=3))
    payload = None
    if kind is OpKind.PHYSIOLOGICAL:
        writes = frozenset(sorted(writes)[:1])
        reads = draw(st.sampled_from([frozenset(), writes]))
    if kind in (OpKind.PHYSICAL, OpKind.IDENTITY) or draw(st.booleans()):
        order = draw(st.permutations(sorted(writes)))
        payload = {obj: draw(VALUES) for obj in order}
    return Operation(
        draw(TEXT),
        kind,
        reads,
        writes,
        fn=draw(TEXT),
        params=tuple(draw(st.lists(VALUES, max_size=3))),
        payload=payload,
        op_id=draw(st.integers(-1, 2**40)),
    )


#: The record kinds a primary ships, and its private bookkeeping.
SHIPPED_RECORDS = st.one_of(
    operations().map(OperationRecord),
    st.builds(
        FenceRecord,
        TEXT,
        st.integers(0, 64),
        st.lists(st.integers(0, 64), max_size=4).map(tuple),
        st.dictionaries(st.integers(0, 64), st.integers(0, 2**62), max_size=4),
    ),
    st.builds(EpochRecord, st.integers(0, 2**40), TEXT, TEXT),
)
PRIVATE_RECORDS = st.one_of(
    st.builds(
        InstallationRecord,
        SI_MAPS,
        SI_MAPS,
        st.lists(st.integers(0, 2**62), max_size=4).map(tuple),
    ),
    st.builds(FlushRecord, IDS, st.integers(0, 2**62)),
    st.builds(
        CheckpointRecord,
        st.dictionaries(IDS, st.integers(0, 2**62), max_size=4),
        st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    ),
    st.builds(
        FlushTxnValuesRecord,
        st.integers(0, 2**40),
        st.dictionaries(
            IDS, st.tuples(VALUES, st.integers(0, 2**62)), max_size=3
        ),
    ),
    st.builds(FlushTxnCommitRecord, st.integers(0, 2**40)),
)
RECORDS = st.one_of(SHIPPED_RECORDS, PRIVATE_RECORDS)


@st.composite
def stamped_records(draw):
    record = draw(RECORDS)
    record.lsi = draw(SIS)
    if isinstance(record, OperationRecord):
        record.op.lsi = record.lsi  # as append_operation leaves them
    return record


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------
class TestValueRoundTrip:
    @given(VALUES)
    @settings(deadline=None)
    def test_every_value_round_trips_exactly(self, value):
        assert same(decode_value(encode_value(value)), value)

    @given(VALUES, SIS)
    @settings(deadline=None)
    def test_stored_versions_round_trip(self, value, vsi):
        decoded, decoded_vsi = decode_stored_version(
            encode_stored_version(value, vsi)
        )
        assert same(decoded, value) and decoded_vsi == vsi

    def test_the_distinctions_pickle_kept_are_kept(self):
        for value in (
            {"b": 1, "a": 2},  # dict order
            (1, 2),
            [1, 2],  # tuple vs list
            True,
            1,
            1.0,  # bool vs int vs float
            2**64,
            -(2**64),
            2**63 - 1,
            -(2**63),
            {1, 2},
            frozenset({1, 2}),  # set vs frozenset
            "\ud800",  # a lone surrogate, as a JSON client can send
            b"",
            "",
            (),
        ):
            assert same(decode_value(encode_value(value)), value), value
        assert list(decode_value(encode_value({"b": 1, "a": 2}))) == ["b", "a"]

    def test_tombstone_is_the_singleton(self):
        assert decode_value(encode_value(TOMBSTONE)) is TOMBSTONE
        assert decode_value(encode_value([TOMBSTONE]))[0] is TOMBSTONE

    def test_set_encoding_ignores_iteration_order(self):
        members = [f"k{i}" for i in range(50)] + list(range(50))
        forward, backward = set(), set()
        for member in members:
            forward.add(member)
        for member in reversed(members):
            backward.add(member)
        assert encode_value(forward) == encode_value(backward)

    def test_values_outside_the_universe_are_type_errors(self):
        class Point:
            pass

        for alien in (Point(), bytearray(b"x"), 1j, OpKind.LOGICAL, range(3)):
            with pytest.raises(TypeError):
                encode_value(alien)
            with pytest.raises(TypeError):
                encode_value({"nested": [alien]})

    def test_check_value_is_the_encoder_without_the_bytes(self):
        """``check_value`` accepts exactly what ``encode_value`` does —
        same universe, same depth bound — and reads no content."""

        class Point:
            pass

        class Vault(dict):
            pass

        deep = None
        for _ in range(MAX_DEPTH):
            deep = [deep]
        samples = [
            None, True, 7, -(1 << 80), 2.5, b"raw", "text", TOMBSTONE,
            (1, [2, {"k": {3, frozenset({4})}}]), deep, [deep],
            Point(), bytearray(b"x"), 1j, range(3), Vault(a=1),
            {"nested": [bytearray(b"x")]}, {Point(): 1}, [(Vault(),)],
        ]
        for sample in samples:
            try:
                encode_value(sample)
                verdict = None
            except (TypeError, CodecError) as exc:
                verdict = type(exc)
            if verdict is None:
                check_value(sample)
            else:
                with pytest.raises(verdict):
                    check_value(sample)

    def test_nesting_is_bounded_on_both_sides(self):
        value = None
        for _ in range(MAX_DEPTH):
            value = [value]
        assert same(decode_value(encode_value(value)), value)
        with pytest.raises(CodecError):
            encode_value([value])
        too_deep = b"\x08\x01" * (MAX_DEPTH + 1) + b"\x00"
        with pytest.raises(CodecError):
            decode_value(too_deep)


class TestRecordRoundTrip:
    @given(stamped_records())
    @settings(deadline=None)
    def test_every_record_class_round_trips(self, record):
        decoded = decode_record(encode_record(record))
        assert same(decoded, record)

    def test_every_class_in_the_type_table_is_exercised(self):
        assert set(RECORD_TYPES.values()) == {type(r) for r in GOLDEN_RECORDS}

    def test_decoded_operations_went_through_validation(self):
        """A payload that names a physical operation whose payload keys
        differ from its writeset is refused by Operation.__post_init__,
        surfaced as the codec error.  The compact layout stores one key
        for both, so the operation takes a non-canonical name to keep
        the full layout."""
        op = Operation(
            "w(x)", OpKind.PHYSICAL, frozenset(), {"x"}, payload={"x": b"v"}
        )
        record = _stamp(OperationRecord(op), 9)
        payload = encode_record(record)
        # flip the payload key "x" to "y" (its last occurrence)
        at = payload.rindex(b"\x01x")
        with pytest.raises(CodecError, match="payload keys"):
            decode_record(payload[:at] + b"\x01y" + payload[at + 2 :])

    def test_classes_outside_the_table_do_not_encode(self):
        class Private(LogRecord):
            pass

        for alien in (LogRecord(), Private()):
            with pytest.raises(TypeError):
                encode_record(alien)


# ----------------------------------------------------------------------
# golden bytes: an accidental layout change fails loudly
# ----------------------------------------------------------------------
def _stamp(record, lsi):
    record.lsi = lsi
    if isinstance(record, OperationRecord):
        record.op.lsi = lsi
    return record


def _put(obj, value):
    return Operation(
        f"put({obj})", OpKind.PHYSICAL, frozenset(), {obj}, payload={obj: value}
    )


GOLDEN_RECORDS = [
    _stamp(
        OperationRecord(
            Operation(
                "copy",
                OpKind.LOGICAL,
                {"f:a"},
                {"f:b"},
                fn="fs.copy",
                params=("f:a", "f:b", 7),
                op_id=4,
            )
        ),
        258,
    ),
    _stamp(InstallationRecord({"a": 3, "b": None}, {"c": 9}, (2, 3)), 5),
    _stamp(FlushRecord("page:7", 300), 6),
    _stamp(CheckpointRecord({"a": 3, "b": 130}), 7),
    _stamp(FenceRecord("f-1", 1, (0, 1), {0: 12, 1: 40}), 8),
    _stamp(EpochRecord(2, "witness", "promoted at 41"), 9),
    _stamp(FlushTxnValuesRecord(3, {"a": (b"v", 11), "b": (TOMBSTONE, 12)}), 10),
    _stamp(FlushTxnCommitRecord(3), 11),
]
GOLDEN_HEX = [
    "01010201000000000000" "00" "05" "04636f7079" "0766732e636f7079"
    "0103663a61" "0103663a62" "03" "0603663a61" "0603663a62" "030107",
    "01020500000000000000" "02" "016104" "016200" "01" "01630a" "02" "02" "03",
    "01030600000000000000" "06706167653a37" "ac02",
    "01040700000000000000" "e39e99aa03" "02" "016104" "01628301",
    "01050800000000000000" "03662d31" "01" "02" "00" "01" "02" "000c" "0128",
    "01060900000000000000" "02" "077769746e657373"
    "0e70726f6d6f746564206174203431",
    "01070a00000000000000" "03" "02" "0161" "0b" "050176" "0162" "0c" "0c",
    "01080b00000000000000" "03",
]
#: The compact layout of a blind write under its canonical name:
#: flags 0x08, ``op_id + 1``, the object, the value.
COMPACT_GOLDEN = {
    "put": (put_object("x", b"v"), "01010c00000000000000" "08" "00" "0178"
            "050176"),
    "delete": (delete_object("x"), "01010c00000000000000" "08" "00" "0178"
               "0c"),
}
#: The same put as 5.0.0 wrote it: flags, op_id, name, fn, reads,
#: writes, params, payload.
FULL_LAYOUT_PUT_HEX = (
    "01010c00000000000000" "06" "00" "06707574287829" "00" "00" "010178" "00"
    "01" "0178" "050176"
)
GOLDEN_STORED_HEX = (
    "01102a00000000000000" "09" "02" "06016b" "0502ff00" "06016e" "0702" "00"
    "04000000000000f83f"
)


class TestGoldenBytes:
    @pytest.mark.parametrize(
        "record,expected",
        list(zip(GOLDEN_RECORDS, GOLDEN_HEX)),
        ids=[type(r).__name__ for r in GOLDEN_RECORDS],
    )
    def test_record_layout_is_pinned(self, record, expected):
        assert encode_record(record).hex() == expected
        assert same(decode_record(bytes.fromhex(expected)), record)

    def test_stored_version_layout_is_pinned(self):
        value = {"k": b"\xff\x00", "n": (None, 1.5)}
        assert encode_stored_version(value, 42).hex() == GOLDEN_STORED_HEX
        decoded, vsi = decode_stored_version(bytes.fromhex(GOLDEN_STORED_HEX))
        assert same(decoded, value) and vsi == 42


# ----------------------------------------------------------------------
# the compact layout of a blind write
# ----------------------------------------------------------------------
_FLAGS_AT = struct.calcsize("<BBQ")  # an operation body starts with flags


def _full_layout(op) -> bytes:
    """The 5.0.0 payload of a one-object physical write."""
    ((obj, value),) = op.payload.items()
    out = pack_header(1, op.lsi)
    out.append(0x06)  # PHYSICAL, with a payload
    put_uvarint(out, op.op_id + 1)
    put_str(out, op.name)
    put_str(out, op.fn)
    put_uvarint(out, 0)  # no reads
    put_uvarint(out, 1)
    put_str(out, obj)
    put_uvarint(out, 0)  # no params
    put_uvarint(out, 1)
    put_str(out, obj)
    put_value(out, value)
    return bytes(out)


@st.composite
def near_blind_writes(draw):
    """A canonical put or delete with one thing changed that the
    compact layout cannot carry."""
    obj, value = draw(IDS), draw(VALUES)
    name = blind_write_name(obj, value)
    kind, reads, fn, params = OpKind.PHYSICAL, frozenset(), "", ()
    payload = {obj: value}
    change = draw(st.sampled_from(
        ["name", "kind", "reads", "fn", "params", "objects"]
    ))
    if change == "name":
        name = draw(TEXT.filter(lambda text: text != name))
    elif change == "kind":
        kind = draw(st.sampled_from(
            [k for k in OpKind if k is not OpKind.PHYSICAL]
        ))
    elif change == "reads":
        reads = draw(st.frozensets(IDS, min_size=1, max_size=3))
    elif change == "fn":
        fn = draw(TEXT.filter(bool))
    elif change == "params":
        params = tuple(draw(st.lists(VALUES, min_size=1, max_size=3)))
    else:
        other = draw(IDS.filter(lambda text: text != obj))
        payload[other] = draw(VALUES)
    return Operation(
        name, kind, reads, set(payload), fn=fn, params=params,
        payload=payload, op_id=draw(st.integers(-1, 2**40)),
    )


class TestCompactBlindWrites:
    @pytest.mark.parametrize(
        "op,expected", list(COMPACT_GOLDEN.values()), ids=list(COMPACT_GOLDEN)
    )
    def test_layout_is_pinned(self, op, expected):
        record = _stamp(OperationRecord(op), 12)
        assert encode_record(record).hex() == expected
        assert same(decode_record(bytes.fromhex(expected)), record)

    def test_a_5_0_0_put_decodes_to_the_identical_op(self):
        put, compact = COMPACT_GOLDEN["put"]
        record = _stamp(OperationRecord(put), 12)
        assert _full_layout(put).hex() == FULL_LAYOUT_PUT_HEX
        assert same(decode_record(bytes.fromhex(FULL_LAYOUT_PUT_HEX)), record)
        assert encode_record(record).hex() == compact

    def test_a_served_put_frames_to_157_bytes(self):
        """8 B frame + 10 B header + flags + op_id + 6 B object +
        3 B tag and length + the 128 B value."""
        record = _stamp(OperationRecord(put_object("k0123", b"v" * 128)), 9)
        assert _HEADER.size + len(encode_record(record)) == 157

    def test_blind_writes_share_one_empty_readset(self):
        decoded = decode_record(bytes.fromhex(COMPACT_GOLDEN["put"][1]))
        first = put_object("a", 1)
        for op in (put_object("b", 2), delete_object("c"), decoded.op):
            assert op.reads is first.reads

    @given(TEXT, VALUES, st.integers(-1, 2**40), SIS)
    @settings(deadline=None)
    def test_every_put_and_delete_round_trips_compact(
        self, obj, value, op_id, lsi
    ):
        for op in (put_object(obj, value), delete_object(obj)):
            op.op_id = op_id
            record = _stamp(OperationRecord(op), lsi)
            payload = encode_record(record)
            assert payload[_FLAGS_AT] == 0x08
            assert same(decode_record(payload), record)

    @given(near_blind_writes(), SIS)
    @settings(deadline=None)
    def test_anything_else_keeps_the_full_layout(self, op, lsi):
        record = _stamp(OperationRecord(op), lsi)
        payload = encode_record(record)
        assert not payload[_FLAGS_AT] & 0x08
        assert same(decode_record(payload), record)

    @given(
        st.integers(0, 255).filter(lambda flags: flags & 0x08 and flags != 8),
        IDS,
        VALUES,
    )
    @settings(deadline=None)
    def test_bit_3_with_any_other_flag_bit_is_refused(self, flags, obj, value):
        payload = bytearray(
            encode_record(_stamp(OperationRecord(put_object(obj, value)), 1))
        )
        payload[_FLAGS_AT] = flags
        with pytest.raises(CodecError, match="unknown operation flags"):
            decode_record(bytes(payload))

    @given(IDS, VALUES)
    @settings(deadline=None)
    def test_a_truncated_compact_body_raises_only_the_codec_error(
        self, obj, value
    ):
        payload = encode_record(
            _stamp(OperationRecord(put_object(obj, value)), 1)
        )
        for cut in range(_FLAGS_AT, len(payload)):
            with pytest.raises(CodecError):
                decode_record(payload[:cut])

    @given(st.binary(max_size=120))
    @settings(deadline=None)
    def test_random_compact_bodies(self, body):
        header = struct.pack("<BBQ", VERSION, 1, 7)
        _decodes_or_codec_error(decode_record, header + b"\x08" + body)

    def test_a_wal_log_of_5_0_0_puts_opens_and_recovers(self, tmp_path):
        """A ``wal.log`` written before the compact layout opens
        unchanged, recovers what the same writes logged today recover,
        and takes compact records after its old ones."""

        def writes():
            return [
                put_object("a", b"1"), put_object("b", b"2"),
                put_object("a", b"3"), delete_object("b"),
                put_object("c", None),
            ]

        old, new = tmp_path / "old", tmp_path / "new"
        old.mkdir()
        logged = writes()
        with open(old / "wal.log", "wb") as handle:
            for lsi, op in enumerate(logged, start=1):
                op.lsi = lsi
                handle.write(_frame(_full_layout(op)))
        log = FileLogManager(str(old))
        reopened = log.stable_operations()
        log.close()
        assert len(reopened) == len(logged)
        assert all(map(same, reopened, logged))

        log = FileLogManager(str(new))
        for op in writes():
            log.append_operation(op)
        log.force()
        log.close()
        assert (new / "wal.log").stat().st_size < (old / "wal.log").stat().st_size

        def recovered(directory):
            system = PersistentSystem.open(str(directory))
            try:
                return {obj: system.read(obj) for obj in ("a", "b", "c", "d")}
            finally:
                system.close()

        expected = {"a": b"3", "b": None, "c": None, "d": None}
        assert recovered(old) == recovered(new) == expected
        system = PersistentSystem.open(str(old))
        system.execute(put_object("d", b"4"))
        system.log.force()
        system.close()
        assert recovered(old) == {**expected, "d": b"4"}


# ----------------------------------------------------------------------
# hostile bytes
# ----------------------------------------------------------------------
def _decodes_or_codec_error(decode, data) -> None:
    try:
        decode(data)
    except CodecError:
        pass


class TestHostileBytes:
    @given(st.binary(max_size=200))
    @settings(deadline=None)
    def test_random_bytes_raise_only_the_codec_error(self, data):
        _decodes_or_codec_error(decode_value, data)
        _decodes_or_codec_error(decode_record, data)
        _decodes_or_codec_error(decode_stored_version, data)

    @given(st.binary(max_size=120), st.sampled_from(sorted(RECORD_TYPES)))
    @settings(deadline=None)
    def test_random_bodies_behind_a_valid_header(self, body, kind):
        header = struct.pack("<BBQ", VERSION, kind, 7)
        _decodes_or_codec_error(decode_record, header + body)

    @pytest.mark.parametrize(
        "payload",
        [bytes.fromhex(h) for h in GOLDEN_HEX]
        + [bytes.fromhex(h) for _, h in COMPACT_GOLDEN.values()],
        ids=[type(r).__name__ for r in GOLDEN_RECORDS]
        + [f"compact-{name}" for name in COMPACT_GOLDEN],
    )
    def test_every_bit_flip_and_every_prefix(self, payload):
        tracemalloc.start()
        try:
            for cut in range(len(payload)):
                with pytest.raises(CodecError):
                    decode_record(payload[:cut])
            for index in range(len(payload) * 8):
                flipped = bytearray(payload)
                flipped[index // 8] ^= 1 << (index % 8)
                _decodes_or_codec_error(decode_record, bytes(flipped))
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize(
        "claim",
        [
            b"\x05",  # bytes
            b"\x06",  # str
            b"\x03",  # int width
            b"\x07",  # tuple
            b"\x08",  # list
            b"\x09",  # dict
            b"\x0a",  # set
            b"\x0b",  # frozenset
        ],
    )
    def test_declared_lengths_are_checked_before_allocating(self, claim):
        huge = b"\xff\xff\xff\xff\xff\xff\xff\x7f"  # 2**56 - 1
        tracemalloc.start()
        try:
            with pytest.raises(CodecError):
                decode_value(claim + huge + b"\x00" * 16)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024

    def test_trailing_bytes_are_rejected(self):
        with pytest.raises(CodecError, match="trailing"):
            decode_value(encode_value(1) + b"\x00")
        with pytest.raises(CodecError, match="trailing"):
            decode_record(bytes.fromhex(GOLDEN_HEX[-1]) + b"\x00")

    def test_non_canonical_encodings_are_rejected(self):
        for data in (
            b"\x03\x02\x01\x00",  # int 1 in two bytes
            b"\x03\x00",  # int in zero bytes
            b"\x05\x81\x00x",  # length 1 as a two-byte varint
            b"\x0a\x02\x03\x01\x01\x03\x01\x01",  # set {1, 1}
            b"\x09\x02\x00\x00\x00\x00",  # dict {None: None, None: None}
        ):
            with pytest.raises(CodecError):
                decode_value(data)

    def test_unhashable_keys_and_members_are_codec_errors(self):
        with pytest.raises(CodecError):
            decode_value(b"\x09\x01\x08\x00\x00")  # {[]: None}
        with pytest.raises(CodecError):
            decode_value(b"\x0a\x01\x09\x00")  # {{}}

    def test_unknown_version_is_named(self):
        payload = bytearray(bytes.fromhex(GOLDEN_HEX[0]))
        payload[0] = 2
        with pytest.raises(UnknownVersionError, match="version 2"):
            decode_record(bytes(payload))
        with pytest.raises(UnknownVersionError, match="version 128"):
            decode_record(pickle.dumps(GOLDEN_RECORDS[0]))
        with pytest.raises(UnknownVersionError, match="version 128"):
            decode_stored_version(pickle.dumps((b"v", 3)))

    def test_unknown_type_is_rejected(self):
        for kind in (0, 9, 16, 255):
            with pytest.raises(CodecError, match="unknown record type"):
                decode_record(struct.pack("<BBQ", VERSION, kind, 1))
        with pytest.raises(CodecError):
            decode_stored_version(bytes.fromhex(GOLDEN_HEX[0]))


# ----------------------------------------------------------------------
# the wire: pickle is gone from the request listener
# ----------------------------------------------------------------------
_DETONATED = []


def _detonate():
    _DETONATED.append("ran")
    return LogRecord()


class _Bomb:
    def __reduce__(self):
        return (_detonate, ())


class TestWireRefusesPickle:
    def test_a_reduce_payload_in_a_repl_batch_runs_nothing(self):
        blob = base64.b64encode(pickle.dumps(_Bomb())).decode("ascii")
        pickle.loads(base64.b64decode(blob))  # the bomb is live...
        assert _DETONATED == ["ran"]
        del _DETONATED[:]
        batch = dict(batch_frame(1, 1, []), frames=blob)
        with pytest.raises(ProtocolError):  # ...and the wire is deaf to it
            adopt_batch(LogManager(), batch)
        assert _DETONATED == []


# ----------------------------------------------------------------------
# the wire: a repl_batch's frames against hostile bytes
# ----------------------------------------------------------------------
#: The witness log under attack holds lSIs 1-3; batches ship above them.
_SEED_END = 3


def _framed(record) -> bytes:
    return pack_frame(encode_record(record))


def _seeded_log() -> LogManager:
    log = LogManager()
    log.adopt_records(
        b"".join(_framed(_stamp(OperationRecord(_put("k", b"v")), lsi))
                 for lsi in range(1, _SEED_END + 1))
    )
    return log


def _appendable(record) -> bool:
    """Could a primary's append have sized it?  (The codec writes lone
    surrogates; the size model does not.)"""
    try:
        record.record_size()
    except ValueError:
        return False
    return True


@st.composite
def shipped_frames(draw, min_size=1):
    """A valid batch's frames: shipped records a primary could append,
    at ascending lSIs past the seeded log's end."""
    frames, lsi = [], _SEED_END
    records = SHIPPED_RECORDS.filter(_appendable)
    for record in draw(st.lists(records, min_size=min_size, max_size=4)):
        lsi += draw(st.integers(1, 3))
        frames.append(_framed(_stamp(record, lsi)))
    return frames


def _blob(frames) -> str:
    return base64.b64encode(b"".join(frames)).decode("ascii")


def _refused(frames_field) -> None:
    """The batch raises ProtocolError, nothing else, and the log (its
    frames, its buffer, its ledger) is as it was."""
    log = _seeded_log()

    def state():
        return (list(log.stable_frames()), len(log), log.stats.log_records)

    before = state()
    batch = dict(batch_frame(1, 99, []), frames=frames_field)
    with pytest.raises(ProtocolError):
        adopt_batch(log, batch)
    assert state() == before


class TestHostileBatches:
    """Run derandomized in CI's codec-fuzz step with the rest of this
    file: every malformed batch is a ``ProtocolError`` that lands
    nothing."""

    @given(shipped_frames())
    @settings(deadline=None)
    def test_a_valid_batch_lands_byte_for_byte(self, frames):
        log = _seeded_log()
        adopt_batch(log, dict(batch_frame(1, 99, frames)))
        landed = [frame for _, _, frame in log.stable_frames(_SEED_END + 1)]
        assert landed == frames

    @given(shipped_frames(), st.data())
    @settings(deadline=None)
    def test_truncated(self, frames, data):
        whole = b"".join(frames)
        ends, end = set(), 0
        for frame in frames:
            end += len(frame)
            ends.add(end)
        cut = data.draw(
            st.integers(1, len(whole) - 1).filter(lambda c: c not in ends)
        )
        _refused(base64.b64encode(whole[:cut]).decode("ascii"))

    @given(shipped_frames(), st.data())
    @settings(deadline=None)
    def test_bit_flipped(self, frames, data):
        whole = bytearray(b"".join(frames))
        bit = data.draw(st.integers(0, len(whole) * 8 - 1))
        whole[bit // 8] ^= 1 << (bit % 8)
        _refused(base64.b64encode(bytes(whole)).decode("ascii"))

    @given(shipped_frames(), st.data())
    @settings(deadline=None)
    def test_an_oversized_length_prefix(self, frames, data):
        index = data.draw(st.integers(0, len(frames) - 1))
        length, crc = _HEADER.unpack_from(frames[index])
        claim = data.draw(st.integers(length + 1, 2**32 - 1))
        frames[index] = _HEADER.pack(claim, crc) + frames[index][_HEADER.size:]
        _refused(_blob(frames))

    @given(shipped_frames(), st.data())
    @settings(deadline=None)
    def test_a_foreign_codec_version(self, frames, data):
        index = data.draw(st.integers(0, len(frames) - 1))
        version = data.draw(st.integers(0, 255).filter(lambda v: v != VERSION))
        payload = frames[index][_HEADER.size:]
        frames[index] = pack_frame(bytes([version]) + payload[1:])
        _refused(_blob(frames))

    @given(shipped_frames(min_size=0), PRIVATE_RECORDS, st.data())
    @settings(deadline=None)
    def test_an_unshippable_type(self, frames, private, data):
        index = data.draw(st.integers(0, len(frames)))
        frames.insert(index, _framed(_stamp(private, 50 + index)))
        _refused(_blob(frames))

    def test_a_value_no_append_could_size(self):
        op = Operation("put(k)", OpKind.PHYSICAL, frozenset(), {"k"},
                       payload={"k": "\ud800"})
        _refused(_blob([_framed(_stamp(OperationRecord(op), 4))]))

    @given(shipped_frames(min_size=2))
    @settings(deadline=None)
    def test_descending_lsis(self, frames):
        _refused(_blob(frames[::-1]))

    @given(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(),
            st.floats(),
            st.binary(max_size=20),
            st.lists(st.text(max_size=8), max_size=3),
            st.dictionaries(st.text(max_size=4), st.text(max_size=4),
                            max_size=2),
        )
    )
    @settings(deadline=None)
    def test_frames_that_are_not_a_string(self, field):
        _refused(field)

    def test_a_file_log_keeps_its_bytes(self, tmp_path):
        log = FileLogManager(str(tmp_path))
        log.adopt_records(
            b"".join(frame for _, _, frame in _seeded_log().stable_frames())
        )
        before = (tmp_path / "wal.log").read_bytes()
        bad = [_framed(_stamp(OperationRecord(_put("k", b"w")), lsi))
               for lsi in (6, 5)]
        with pytest.raises(ProtocolError, match="ascending"):
            adopt_batch(log, dict(batch_frame(1, 6, bad)))
        assert (tmp_path / "wal.log").read_bytes() == before
        assert log.buffered_lsis() == [] and log.stable_end_lsi() == 3
        log.close()


# ----------------------------------------------------------------------
# on disk: torn tail versus written-whole-but-undecodable
# ----------------------------------------------------------------------
def _frame(payload: bytes) -> bytes:
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _log_with(tmp_path, count):
    log = FileLogManager(str(tmp_path))
    for index in range(count):
        log.append_operation(_put(f"k{index}", b"v%d" % index))
    log.force()
    log.close()
    return os.path.join(str(tmp_path), "wal.log")


class TestUndecodableFrameOnDisk:
    @pytest.mark.parametrize(
        "bad_payload",
        [
            struct.pack("<BBQ", VERSION, 1, 2) + b"\xff\xff",  # bad body
            struct.pack("<BBQ", VERSION, 99, 2),  # unknown type
            pickle.dumps(_stamp(OperationRecord(_put("k", b"v")), 2)),
        ],
        ids=["bad-body", "unknown-type", "pre-codec-pickle"],
    )
    def test_crc_valid_undecodable_mid_log_frame_refuses_open(
        self, tmp_path, bad_payload
    ):
        path = _log_with(tmp_path, 3)
        with open(path, "rb") as handle:
            data = handle.read()
        first_len = _HEADER.size + _HEADER.unpack_from(data, 0)[0]
        damaged = data[:first_len] + _frame(bad_payload) + data[first_len:]
        with open(path, "wb") as handle:
            handle.write(damaged)
        with pytest.raises(CodecError, match="refusing to open"):
            FileLogManager(str(tmp_path))
        with open(path, "rb") as handle:
            assert handle.read() == damaged  # untouched: nothing truncated

    def test_a_pre_codec_directory_names_the_version(self, tmp_path):
        path = os.path.join(str(tmp_path), "wal.log")
        record = _stamp(OperationRecord(_put("k", b"v")), 1)
        with open(path, "wb") as handle:
            handle.write(_frame(pickle.dumps(record)))
        with pytest.raises(UnknownVersionError, match="version 128"):
            FileLogManager(str(tmp_path))

    def test_crc_failing_final_frame_is_still_a_torn_tail(self, tmp_path):
        path = _log_with(tmp_path, 2)
        good = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(_frame(b"\x01\x01half a record")[:-3])
        log = FileLogManager(str(tmp_path))
        assert len(log) == 2 and os.path.getsize(path) == good


class TestFailedForceLeavesOffsetsTrue:
    """A force that errors after bytes landed (O_APPEND keeps them) must
    not leave them ahead of the next append: the frame offsets drive
    truncation's byte copy."""

    @staticmethod
    def _failing_fsync(monkeypatch, failures):
        real = os.fsync
        left = [failures]

        def fsync(fd):
            # File fsyncs only: a fresh log's first force also fsyncs
            # the directory, whose failure is tolerated by design.
            if left[0] and not stat.S_ISDIR(os.fstat(fd).st_mode):
                left[0] -= 1
                raise OSError(errno.EIO, "injected fsync failure")
            real(fd)

        monkeypatch.setattr("repro.storage.framing.os.fsync", fsync)

    @pytest.mark.parametrize("failures", [1, 2], ids=["append", "and-repair"])
    def test_force_again_truncate_and_reopen(
        self, tmp_path, monkeypatch, failures
    ):
        log = FileLogManager(str(tmp_path))
        log.append_operation(_put("a", b"1"))
        log.append_operation(_put("b", b"2"))
        self._failing_fsync(monkeypatch, failures)
        with pytest.raises(OSError):
            log.force()
        assert log.stable_end_lsi() == 0 and log.buffered_lsis() == [1, 2]
        third = log.append_operation(_put("c", b"3"))
        log.force()
        assert os.path.getsize(log.path) == log._file.end
        assert log.truncate_before(third, third) == 2
        log.close()
        reopened = FileLogManager(str(tmp_path))
        assert [r.lsi for r in reopened.stable_records()] == [third]
        assert reopened.stable_operations()[0].payload == {"c": b"3"}


class TestUnencodableValueFailsItsOwnAppend:
    def test_the_log_stays_usable(self, tmp_path):
        log = FileLogManager(str(tmp_path))
        first = log.append_operation(_put("a", b"1"))
        with pytest.raises(TypeError, match="bytearray"):
            log.append_operation(_put("b", bytearray(b"2")))
        assert log.buffered_lsis() == [first]
        second = log.append_operation(_put("c", b"3"))
        assert second == first + 1  # the refused append took no lSI
        log.force()
        log.close()
        reopened = FileLogManager(str(tmp_path))
        assert [r.lsi for r in reopened.stable_records()] == [first, second]


# ----------------------------------------------------------------------
# store frames: a stored version is deflated when that pays
# ----------------------------------------------------------------------
#: Values a store frame deflates: repeats, sorted bytes (the paper's
#: sort example), long text and small-integer tuples.
COMPRESSIBLE = st.one_of(
    st.tuples(st.binary(min_size=1, max_size=32), st.integers(1, 300)).map(
        lambda unit_count: unit_count[0] * unit_count[1]
    ),
    st.binary(min_size=200, max_size=4096).map(lambda raw: bytes(sorted(raw))),
    st.tuples(TEXT, st.integers(1, 80)).map(lambda pair: pair[0] * pair[1]),
    st.lists(st.integers(0, 3), max_size=400).map(tuple),
)
#: Random bytes, which stay plain.
NOISE = st.builds(
    lambda seed, size: random.Random(seed).randbytes(size),
    st.integers(0, 2**32),
    st.integers(0, 4096),
)
STORED = st.one_of(VALUES, COMPRESSIBLE, NOISE, st.binary(max_size=4096))


def _payload(frame: bytes) -> bytes:
    return frame[framing.OVERHEAD:]


def _deflated_payload(
    body: bytes, length: int, kind=TYPE_STORED_VERSION, vsi=11
) -> bytes:
    """A deflated stored-version payload declaring ``length``."""
    out = bytearray(struct.pack("<BBQ", DEFLATED_VERSION, kind, vsi))
    put_uvarint(out, length)
    return bytes(out) + body


#: A deflated 100-byte value: its encoding is 103 bytes.
_A100 = zlib.compress(encode_value(b"a" * 100))


class TestDeflatedFrames:
    @given(STORED, SIS)
    @settings(deadline=None)
    def test_frames_round_trip(self, value, vsi):
        frame = framing.frame(value, vsi)
        decoded, decoded_vsi = framing.unframe(frame, "t")
        assert same(decoded, value) and decoded_vsi == vsi

    @given(STORED, SIS)
    @settings(deadline=None)
    def test_the_deflate_rule(self, value, vsi):
        """At least the floor and saving at least 1/8: deflated at level
        1; otherwise today's bytes exactly."""
        plain = encode_stored_version(value, vsi)
        encoding = encode_value(value)
        candidate = _deflated_payload(
            zlib.compress(encoding, 1), len(encoding), vsi=vsi
        )
        pays = (
            len(plain) >= framing.DEFLATE_FLOOR
            and len(candidate) * 8 <= len(plain) * 7
        )
        expected = candidate if pays else plain
        assert framing.frame(value, vsi) == pack_frame(expected, framing.MAGIC)

    @given(
        st.binary(min_size=1, max_size=8).map(lambda u: u * (400 // len(u))),
        SIS,
    )
    @settings(deadline=None)
    def test_a_version_1_reader_refuses_a_deflated_frame(self, value, vsi):
        """What 14.0.0's ``decode_stored_version`` runs first refuses it:
        an unknown version, never damage to quarantine."""
        payload = _payload(framing.frame(value, vsi))
        assert payload[0] == DEFLATED_VERSION
        with pytest.raises(UnknownVersionError, match="version 2"):
            unpack_header(payload)
        with pytest.raises(UnknownVersionError):
            decode_stored_version(payload)

    def test_the_sort_example_stores_in_a_fraction(self):
        data = bytes(sorted(random.Random(7).randbytes(8192)))
        assert len(framing.frame(data, 1)) < 1024
        noise = random.Random(7).randbytes(8192)
        assert _payload(framing.frame(noise, 1)) == encode_stored_version(
            noise, 1
        )

    def test_a_memoryview_decodes_to_owned_values(self):
        value = (b"bytes", "str", 7, [b"x" * 300])
        payload = encode_stored_version(value, 3)
        decoded, vsi = decode_stored_version(memoryview(payload))
        assert same(decoded, value) and vsi == 3

    @pytest.mark.parametrize(
        "payload",
        [
            _deflated_payload(b"not a deflate stream", 40),
            # inflates past its declared length (the bound)
            _deflated_payload(zlib.compress(encode_value(b"a" * 1000)), 100),
            # inflates short of it
            _deflated_payload(_A100, 500),
            _deflated_payload(_A100[:-4], 103),
            _deflated_payload(_A100 + b"!", 103),
            # inflates to bytes that are not one value
            _deflated_payload(zlib.compress(b"\xff" * 300), 300),
            _deflated_payload(zlib.compress(encode_value(1) + b"\x00"), 3),
            _deflated_payload(zlib.compress(encode_value(b"x" * 50)), 0),
            _deflated_payload(zlib.compress(encode_value(b"x" * 50)), 52,
                              kind=1),
            struct.pack("<BBQ", DEFLATED_VERSION, TYPE_STORED_VERSION, 1)[:7],
            struct.pack("<BBQ", DEFLATED_VERSION, TYPE_STORED_VERSION, 1)
            + b"\xff",
        ],
        ids=[
            "bad-stream", "past-the-bound", "short", "truncated-stream",
            "trailing-bytes", "not-a-value", "trailing-value", "zero-length",
            "not-a-stored-version", "torn-header", "torn-length",
        ],
    )
    def test_hostile_deflated_frames_are_damage(self, payload):
        with pytest.raises(CorruptObjectError, match="undecodable"):
            framing.unframe(pack_frame(payload, framing.MAGIC), "t")

    def test_a_bomb_is_refused_within_its_bound(self):
        """A stream inflating to 8 MiB that declares 1 KiB allocates
        about the KiB; a declared length deflate cannot reach allocates
        nothing."""
        bomb = zlib.compress(bytes(8 << 20), 9)
        tracemalloc.start()
        try:
            for payload in (
                _deflated_payload(bomb, 1024),
                _deflated_payload(bomb[:64], 2**60),
            ):
                with pytest.raises(CorruptObjectError):
                    framing.unframe(pack_frame(payload, framing.MAGIC), "t")
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @given(st.binary(max_size=300), st.integers(0, 2**20))
    @settings(deadline=None)
    def test_random_deflated_bodies(self, body, length):
        frame = pack_frame(_deflated_payload(body, length), framing.MAGIC)
        try:
            framing.unframe(frame, "t")
        except CorruptObjectError:
            pass

    def test_a_damaged_deflated_object_file_is_quarantined(self, tmp_path):
        store = make_store("file", str(tmp_path))
        store.write("k", b"ab" * 500, 4)
        store.close()
        path = tmp_path / "objects" / "k.obj"
        frame = path.read_bytes()
        assert frame[framing.OVERHEAD] == DEFLATED_VERSION
        path.write_bytes(
            pack_frame(_payload(frame)[:-6] + b"\x00" * 6, framing.MAGIC)
        )
        reopened = make_store("file", str(tmp_path))
        assert reopened.scrub() == ["k"]
        assert (tmp_path / "quarantine" / "k.obj").exists()

    def test_a_later_version_is_refused_not_quarantined(self, tmp_path):
        store = make_store("file", str(tmp_path))
        store.write("k", b"ab" * 500, 4)
        store.close()
        path = tmp_path / "objects" / "k.obj"
        payload = bytearray(_payload(path.read_bytes()))
        payload[0] = DEFLATED_VERSION + 1
        path.write_bytes(pack_frame(bytes(payload), framing.MAGIC))
        with pytest.raises(UnknownVersionError, match="version 3"):
            make_store("file", str(tmp_path))
        assert path.exists() and not (tmp_path / "quarantine").exists()


# ----------------------------------------------------------------------
# directories written at 14.0.0 (no deflated frame) open unchanged
# ----------------------------------------------------------------------
GOLDEN_DIRS = pathlib.Path(__file__).resolve().parent / "data" / "store-14.0.0"


def golden_writes(store, batches: bool) -> None:
    """The writes behind ``tests/data/store-14.0.0/<backend>``: 14.0.0's
    file store and logstore took exactly these (``batches`` on the
    logstore), then were closed."""
    rng = random.Random(14)
    store.write("obj:text", "an older version " * 20, 1)
    store.write("obj:text", "logical logging " * 40, 5)
    store.write("obj:zeros", bytes(2048), 2)
    store.write("obj:sorted", bytes(sorted(rng.randbytes(1024))), 3)
    store.write("obj:random", rng.randbytes(600), 4)
    store.write("obj:small", b"v1", 6)
    store.write("obj:tuple", tuple(range(100)), 7)
    store.write("obj:gone", b"x" * 512, 8)
    store.delete("obj:gone")
    versions = {
        "obj:batch-a": StoredVersion(b"ab" * 300, 9),
        "obj:batch-b": StoredVersion({"k": "v" * 400}, 9),
    }
    if batches:
        store.write_many(versions, atomic=True)
    else:
        for obj, version in versions.items():
            store.write(obj, version.value, version.vsi)


def _tree(root: pathlib.Path):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _frames(root: pathlib.Path):
    """Every store frame's payload under ``root``."""
    for path in sorted(root.rglob("*")):
        if path.suffix == ".obj":
            yield _payload(path.read_bytes())
        elif path.suffix == ".seg":
            for _offset, payload in framing.FramedFile(
                str(path), framing.MAGIC
            ).scan():
                yield payload


@pytest.mark.parametrize("backend", ["file", "logstore"])
class TestGoldenDirectories:
    def _copy(self, tmp_path, backend) -> pathlib.Path:
        root = tmp_path / backend
        shutil.copytree(GOLDEN_DIRS / backend, root)
        return root

    def test_it_holds_no_deflated_frame(self, backend):
        payloads = list(_frames(GOLDEN_DIRS / backend))
        assert payloads and {p[0] for p in payloads} == {VERSION}
        assert any(len(p) >= framing.DEFLATE_FLOOR for p in payloads)

    def test_opens_unchanged_and_reads_every_object(self, tmp_path, backend):
        root = self._copy(tmp_path, backend)
        before = _tree(root)
        expected = make_store("memory")
        golden_writes(expected, batches=backend == "logstore")
        store = make_store(backend, str(root))
        assert store.scrub() == [] and store.media_redo_pending is None
        assert sorted(store.object_ids()) == sorted(expected.object_ids())
        for obj in expected.object_ids():
            got, want = store.read(obj), expected.peek(obj)
            assert same(got.value, want.value) and got.vsi == want.vsi
        store.close()
        assert _tree(root) == before

    def test_new_frames_land_beside_the_old(self, tmp_path, backend):
        root = self._copy(tmp_path, backend)
        store = make_store(backend, str(root))
        store.write("obj:new", b"ab" * 1000, 20)
        if backend == "logstore":
            store.compact()  # put frames move as the bytes they are
        store.close()
        payloads = list(_frames(root))
        assert {p[0] for p in payloads} == {VERSION, DEFLATED_VERSION}
        reopened = make_store(backend, str(root))
        assert reopened.peek("obj:new") == StoredVersion(b"ab" * 1000, 20)
        assert reopened.peek("obj:text").value == "logical logging " * 40
        assert reopened.scrub() == []


def test_compaction_copies_14_0_0_put_frames_verbatim(tmp_path):
    root = tmp_path / "logstore"
    shutil.copytree(GOLDEN_DIRS / "logstore", root)
    before = set(_frames(root))
    store = make_store("logstore", str(root))
    store.compact()
    store.close()
    after = set(_frames(root))
    # Every put the copy carried is a frame 14.0.0 wrote, byte for byte;
    # only the two batch members are framed anew (as puts, deflated).
    assert {p for p in after if p[0] == VERSION} <= before
    assert {p[0] for p in after - before} == {DEFLATED_VERSION}
    assert len(after - before) == 2


# ----------------------------------------------------------------------
# C1 on real bytes (Figure 1): logical records are identifiers only
# ----------------------------------------------------------------------
class TestLogicalRecordsAreIdentifierSized:
    @staticmethod
    def _copy(sources, kind, value_size):
        reads = {f"file:{i:04d}" for i in range(sources)}
        writes = {"file:dest"}
        if kind is OpKind.LOGICAL:
            op = Operation(
                "fs.concat", kind, reads, writes, fn="fs.concat",
                params=tuple(sorted(reads)) + ("file:dest",),
            )
        else:
            op = Operation(
                "fs.concat", kind, frozenset(), writes,
                payload={"file:dest": b"x" * (sources * value_size)},
            )
        return len(encode_record(_stamp(OperationRecord(op), 1000)))

    def test_logical_size_is_independent_of_value_size(self):
        """The record names objects; how big they are never enters."""
        for sources in (1, 4, 16):
            assert (
                self._copy(sources, OpKind.LOGICAL, 10)
                == self._copy(sources, OpKind.LOGICAL, 1 << 20)
            )

    def test_logical_size_is_linear_in_identifier_count(self):
        """Bounded by a small linear function of the identifiers named
        (readset + writeset + identifier parameters + fn + name): the
        paper's "unlikely to be larger than 16 bytes" per identifier."""
        for sources in (1, 2, 8, 64, 512):
            identifiers = 2 * (sources + 1) + 2
            assert self._copy(sources, OpKind.LOGICAL, 0) <= (
                24 + ID_SIZE * identifiers
            )

    def test_physical_equivalent_carries_its_value_bytes(self):
        for sources, value_size in ((1, 128), (4, 4096), (16, 8192)):
            physical = self._copy(sources, OpKind.PHYSICAL, value_size)
            logical = self._copy(sources, OpKind.LOGICAL, value_size)
            assert physical >= sources * value_size
            assert logical < physical


# ----------------------------------------------------------------------
# pickle is off disk and off the network
# ----------------------------------------------------------------------
def test_no_module_under_src_imports_pickle():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            for name in names:
                if name.split(".")[0] in ("pickle", "cPickle", "_pickle",
                                          "marshal", "shelve", "dill"):
                    offenders.append(f"{path.relative_to(SRC)}: {name}")
    assert offenders == []
