"""Wire protocol: framing, byte envelopes, and malformed streams."""

from __future__ import annotations

import socket
import struct
import threading

import pytest

from repro.serve import protocol
from repro.serve.errors import ProtocolError


def _pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    return a, b


class TestValueEnvelopes:
    def test_bytes_round_trip(self):
        encoded = protocol.encode_value(b"\x00\xffdata")
        assert set(encoded) == {"__bytes__"}
        assert protocol.decode_value(encoded) == b"\x00\xffdata"

    def test_bytearray_encodes_as_bytes(self):
        assert protocol.decode_value(
            protocol.encode_value(bytearray(b"xy"))
        ) == b"xy"

    def test_plain_values_pass_through(self):
        for value in (None, 7, "text", [1, 2], {"k": "v"}):
            assert protocol.encode_value(value) == value
            assert protocol.decode_value(value) == value

    def test_dict_with_other_keys_is_not_an_envelope(self):
        value = {"__bytes__": "AA==", "extra": 1}
        assert protocol.decode_value(value) == value

    def test_bad_base64_raises_protocol_error(self):
        with pytest.raises(ProtocolError):
            protocol.decode_value({"__bytes__": "!!not base64!!"})


class TestFraming:
    def test_round_trip(self):
        a, b = _pair()
        try:
            message = {"id": 1, "kind": "put", "value": {"__bytes__": "AA=="}}
            protocol.send_frame(a, message)
            assert protocol.recv_frame(b) == message
        finally:
            a.close()
            b.close()

    def test_multiple_frames_in_sequence(self):
        a, b = _pair()
        try:
            for index in range(5):
                protocol.send_frame(a, {"id": index})
            for index in range(5):
                assert protocol.recv_frame(b) == {"id": index}
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = _pair()
        a.close()
        try:
            assert protocol.recv_frame(b) is None
        finally:
            b.close()

    def test_eof_mid_frame_raises(self):
        a, b = _pair()
        try:
            a.sendall(struct.pack("<I", 100) + b"{")
            a.close()
            with pytest.raises(ProtocolError):
                protocol.recv_frame(b)
        finally:
            b.close()

    def test_oversized_claimed_length_raises(self):
        a, b = _pair()
        try:
            a.sendall(struct.pack("<I", protocol.MAX_FRAME + 1))
            with pytest.raises(ProtocolError):
                protocol.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_oversized_outgoing_frame_raises(self):
        a, b = _pair()
        try:
            with pytest.raises(ProtocolError):
                protocol.send_frame(
                    a, {"pad": "x" * (protocol.MAX_FRAME + 1)}
                )
        finally:
            a.close()
            b.close()

    def test_undecodable_payload_raises(self):
        a, b = _pair()
        try:
            payload = b"\xff\xfe not json"
            a.sendall(struct.pack("<I", len(payload)) + payload)
            with pytest.raises(ProtocolError):
                protocol.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_non_object_frame_raises(self):
        a, b = _pair()
        try:
            payload = b"[1, 2, 3]"
            a.sendall(struct.pack("<I", len(payload)) + payload)
            with pytest.raises(ProtocolError):
                protocol.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_large_frame_round_trips(self):
        # Bigger than one socket buffer, so _recv_exact must loop.
        a, b = _pair()
        try:
            message = {"id": 1, "pad": "x" * 300_000}
            received = {}
            thread = threading.Thread(
                target=lambda: received.update(protocol.recv_frame(b))
            )
            thread.start()
            protocol.send_frame(a, message)
            thread.join(timeout=10.0)
            assert received == message
        finally:
            a.close()
            b.close()


class TestResponses:
    def test_ok_response_carries_health_and_fields(self):
        response = protocol.ok_response(9, "healthy", lsi=4)
        assert response == {
            "id": 9, "ok": True, "health": "healthy", "lsi": 4
        }

    def test_error_response_with_hint(self):
        response = protocol.error_response(
            3, "BACKPRESSURE", "full", "recovering", retry_after_ms=40
        )
        assert response["ok"] is False
        assert response["health"] == "recovering"
        assert response["error"]["code"] == "BACKPRESSURE"
        assert response["error"]["retry_after_ms"] == 40

    def test_error_response_without_hint_omits_key(self):
        response = protocol.error_response(3, "FAILED", "gone", "failed")
        assert "retry_after_ms" not in response["error"]

    def test_error_codes_mirror_serve_errors(self):
        from repro.serve import errors

        for cls in (
            errors.ProtocolError,
            errors.BadRequestError,
            errors.BackpressureError,
            errors.DeadlineExceededError,
            errors.ServerUnavailableError,
            errors.ShuttingDownError,
            errors.ServerFailedError,
        ):
            assert cls.code in protocol.ERROR_CODES


class TestObjectIdAdmission:
    """Every object id a request names is held to one rule at
    admission — a non-empty string — whichever verb carries it."""

    @pytest.fixture()
    def daemon(self):
        from repro import RecoverableSystem
        from repro.serve import DaemonConfig, ServeDaemon
        from repro.workloads import register_workload_functions

        system = RecoverableSystem()
        register_workload_functions(system.registry)
        daemon = ServeDaemon(
            system, DaemonConfig(port=0, http_port=None)
        ).start()
        yield daemon
        daemon.stop(graceful=False)

    @staticmethod
    def _ask(daemon, **request):
        with socket.create_connection(("127.0.0.1", daemon.port), 5.0) as sock:
            protocol.send_frame(sock, {"id": 1, **request})
            return protocol.recv_frame(sock)

    @pytest.mark.parametrize(
        "fields",
        [
            {"reads": [], "writes": [""]},
            {"reads": [""], "writes": ["d"]},
            {"reads": [["x"]], "writes": ["d"]},
            {"reads": [7], "writes": ["d"]},
            {"reads": ["x"], "writes": [{"k": 1}]},
            {"reads": "x", "writes": ["d"]},
            {"reads": ["x"], "writes": "d"},
            {"reads": ["x"], "writes": []},
            {"reads": ["x"]},
        ],
    )
    def test_apply_with_a_malformed_id_is_a_bad_request(self, daemon, fields):
        response = self._ask(
            daemon, kind="apply", fn="wl_derive", params=["x", "d"], **fields
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "BAD_REQUEST"
        counters = daemon.obs.snapshot()["counters"]
        assert counters["serve.rejected.bad_request"] == 1
        # Refused at admission: nothing ran, nothing was logged.
        assert daemon.system.stats.log_records == 0

    @pytest.mark.parametrize("kind", ["get", "put", "delete"])
    @pytest.mark.parametrize("obj", ["", None, 7, ["x"]])
    def test_object_verbs_refuse_the_same_ids(self, daemon, kind, obj):
        response = self._ask(
            daemon, kind=kind, obj=obj, value=protocol.encode_value(b"v")
        )
        assert response["error"]["code"] == "BAD_REQUEST"

    def test_admitted_ids_are_interned(self, daemon):
        """Each request decodes fresh ``str`` copies of its ids; what
        the kernel — and the write graph's footprints — keep is one
        object per id."""
        assert self._ask(
            daemon, kind="put", obj="src", value=protocol.encode_value(b"v")
        )["ok"]
        for _ in range(2):
            response = self._ask(
                daemon, kind="apply", fn="wl_derive",
                reads=["src"], writes=["dst"], params=["src", "dst"],
            )
            assert response["ok"], response
        held = daemon.system.cache.uninstalled_operations()
        reads = [obj for op in held for obj in op.reads]
        writes = [obj for op in held for obj in op.writes if obj == "dst"]
        assert len(reads) == 2 and reads[0] is reads[1]
        assert len(writes) == 2 and writes[0] is writes[1]
