"""Every refusal the daemon sends, pinned on the wire.

DESIGN.md §4b's error → response table maps whatever an admitted
request's kernel work raises onto one answer: a code, a retry hint, a
health and a ``shard`` label.  Each row here makes the kernel raise
that exception for a real request and reads the raw frame back.  The
refusals that never reach the table — admission, the drain, the
rendezvous wait — are checked the same way, each with the
``serve.rejected.*`` counter it moves (or does not).  Last, hostile
frames: a request whose ``kind`` is not a string is a bad request, not
a dead connection.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.common.errors import (
    CorruptObjectError,
    DegradedModeError,
    ReproError,
    SimulatedCrash,
    TransientStorageError,
)
from repro.kernel.system import RecoverableSystem, SystemHealth
from repro.serve import (
    DaemonClient,
    DaemonConfig,
    FencedError,
    ProtocolError,
    RetryPolicy,
    ServeDaemon,
    ServerUnavailableError,
    protocol,
)
from repro.shard import ShardedSystem
from repro.shard.group import CrossShardError
from repro.workloads import register_workload_functions
from tests.conftest import StalledExecute, StalledForce, wait_until

RETRY_AFTER_MS = 7

#: DESIGN.md §4b, one row per exception class: what the kernel work
#: raises → (code, retry hint, health).  ``"config"`` is the daemon's
#: own ``retry_after_ms``; ``None`` health is the shard's (or, for a
#: cross-shard request, the aggregate) health at answer time.
TABLE = [
    ("fenced", FencedError("epoch 1 is fenced"), "FENCED", None, None),
    ("unavailable-own-hint",
     ServerUnavailableError("no witness receipt", retry_after_ms=123),
     "UNAVAILABLE", 123, None),
    ("unavailable-no-hint", ServerUnavailableError("no witness receipt"),
     "UNAVAILABLE", "config", None),
    ("cross-shard", CrossShardError("participant 1 is recovering"),
     "UNAVAILABLE", "config", None),
    ("degraded", DegradedModeError("read-only"), "DEGRADED", None, None),
    ("simulated-crash", SimulatedCrash("device died"),
     "UNAVAILABLE", "config", "recovering"),
    ("corrupt-object", CorruptObjectError("bad frame"),
     "UNAVAILABLE", "config", "recovering"),
    ("transient-storage", TransientStorageError("EIO"),
     "UNAVAILABLE", "config", "recovering"),
    ("repro-error", ReproError("no such function"), "BAD_REQUEST", None, None),
    ("protocol-error", ProtocolError("bad params"), "BAD_REQUEST", None, None),
    ("other", RuntimeError("a bug"), "INTERNAL", None, None),
]

_CRASHES = (SimulatedCrash, CorruptObjectError, TransientStorageError)


def start_daemon(shards: int, **config_kw) -> ServeDaemon:
    system = (
        RecoverableSystem() if shards == 1 else ShardedSystem.build(shards)
    )
    register_workload_functions(system.registry)
    config_kw.setdefault("port", 0)
    config_kw.setdefault("http_port", None)
    config_kw.setdefault("retry_after_ms", RETRY_AFTER_MS)
    return ServeDaemon(system, DaemonConfig(**config_kw)).start()


def key_on(daemon: ServeDaemon, shard: int, tag: str) -> str:
    router = daemon.sharded.router
    probe = 0
    while router.shard_of(f"{tag}:{probe}") != shard:
        probe += 1
    return f"{tag}:{probe}"


def exchange(sock: socket.socket, request):
    """One raw frame out, one back."""
    protocol.send_frame(sock, request)
    return protocol.recv_frame(sock)


def rejected(daemon: ServeDaemon):
    """The ``serve.rejected.*`` counters, as a client reads them."""
    with DaemonClient("127.0.0.1", daemon.port) as client:
        counters = client.stats()["counters"]
    return {
        name: value for name, value in counters.items()
        if name.startswith("serve.rejected.")
    }


def raise_once(monkeypatch, owner, name: str, exc: BaseException) -> None:
    """``owner.name`` raises ``exc`` on its next call, then is itself."""
    original = getattr(owner, name)
    calls = []

    def faulty(*args, **kwargs):
        if not calls:
            calls.append(1)
            raise exc
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, faulty)


def expected_retry(hint):
    return RETRY_AFTER_MS if hint == "config" else hint


@pytest.mark.parametrize(
    "exc,code,hint,health",
    [row[1:] for row in TABLE],
    ids=[row[0] for row in TABLE],
)
class TestRefusalTable:
    def test_single_shard_request(
        self, monkeypatch, exc, code, hint, health
    ):
        """A put on the last of two shards: the answer names that
        shard and reports its health."""
        daemon = start_daemon(2)
        try:
            shard = daemon.shards - 1
            system = daemon.sharded.systems[shard]
            before = rejected(daemon)
            raise_once(monkeypatch, system, "execute", exc)
            with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
                response = exchange(sock, {
                    "id": 41, "kind": "put",
                    "obj": key_on(daemon, shard, "k"), "value": "v",
                })
                assert response["id"] == 41 and response["ok"] is False
                error = response["error"]
                assert error["code"] == code
                assert error.get("retry_after_ms") == expected_retry(hint)
                assert response["health"] == (health or "healthy")
                assert response["shard"] == shard
                if isinstance(exc, _CRASHES):
                    assert "serving crash" in error["message"]
                    assert wait_until(
                        lambda: daemon.restarts() == 1
                        and system.health is SystemHealth.HEALTHY
                    )
                # The table answers; admission's counters do not move.
                assert rejected(daemon) == before
                # The connection and the shard serve on.
                again = exchange(sock, {
                    "id": 42, "kind": "put",
                    "obj": key_on(daemon, shard, "k"), "value": "w",
                })
                assert again["id"] == 42 and again["ok"] is True
        finally:
            daemon.stop(graceful=False)

    def test_cross_shard_request(self, monkeypatch, exc, code, hint, health):
        """A cross-shard apply: no ``shard`` label, aggregate health."""
        daemon = start_daemon(2)
        try:
            src, dst = key_on(daemon, 0, "s"), key_on(daemon, 1, "d")
            before = rejected(daemon)
            raise_once(monkeypatch, daemon.sharded, "execute_cross", exc)
            with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
                response = exchange(sock, {
                    "id": 7, "kind": "apply", "fn": "wl_derive",
                    "reads": [src], "writes": [dst], "params": [src, dst],
                })
                assert response["id"] == 7 and response["ok"] is False
                error = response["error"]
                assert error["code"] == code
                assert error.get("retry_after_ms") == expected_retry(hint)
                assert response["health"] == (health or "healthy")
                assert "shard" not in response
                if isinstance(exc, _CRASHES):
                    assert wait_until(
                        lambda: daemon.restarts() == 2
                        and daemon.aggregate_health() is SystemHealth.HEALTHY
                    )
                assert rejected(daemon) == before
        finally:
            daemon.stop(graceful=False)


class TestRefusalsOutsideTheTable:
    def test_internal_error_keeps_the_loop_and_moves_no_counter(
        self, monkeypatch
    ):
        daemon = start_daemon(1)
        try:
            before = rejected(daemon)
            raise_once(
                monkeypatch, daemon.system, "execute", KeyError("bug")
            )
            with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
                response = exchange(
                    sock, {"id": 1, "kind": "put", "obj": "a", "value": 1}
                )
                assert response["error"] == {
                    "code": "INTERNAL", "message": "KeyError: 'bug'",
                }
                assert response["shard"] == 0
                assert exchange(
                    sock, {"id": 2, "kind": "put", "obj": "a", "value": 2}
                )["ok"]
            assert rejected(daemon) == before
            assert daemon.restarts() == 0
        finally:
            daemon.stop(graceful=False)

    def test_draining_answers_shutting_down_and_counts_it(self):
        daemon = start_daemon(1)
        try:
            daemon._draining.set()
            with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
                response = exchange(
                    sock, {"id": 3, "kind": "get", "obj": "a"}
                )
            assert response["ok"] is False
            assert response["error"]["code"] == "SHUTTING_DOWN"
            assert response["error"]["retry_after_ms"] == RETRY_AFTER_MS
            assert "shard" not in response
            assert rejected(daemon) == {"serve.rejected.shutting_down": 1}
        finally:
            daemon.stop(graceful=False)

    def test_stop_answers_parked_replies_shutting_down(self):
        """A non-graceful stop refuses what it finds parked, with no
        ack and no counter."""
        daemon = start_daemon(1)
        stall = StalledForce(daemon.system.log)
        answers = []
        sock = socket.create_connection(("127.0.0.1", daemon.port))
        try:
            reader = threading.Thread(target=lambda: answers.append(
                exchange(sock, {"id": 5, "kind": "put", "obj": "a",
                                "value": 1})
            ))
            reader.start()
            assert stall.entered.wait(timeout=5.0)
            assert wait_until(lambda: len(daemon._shards[0].parked) == 1)
            stopper = threading.Thread(
                target=daemon.stop, kwargs={"graceful": False}
            )
            stopper.start()
            assert wait_until(daemon._shards[0].stop.is_set)
            stall.release.set()
            stopper.join(timeout=10.0)
            reader.join(timeout=10.0)
            assert not stopper.is_alive() and not reader.is_alive()
        finally:
            sock.close()
        [response] = answers
        assert response["ok"] is False
        assert response["error"] == {
            "code": "SHUTTING_DOWN", "message": "server is shutting down",
        }
        assert response["shard"] == 0
        assert daemon.obs.snapshot()["counters"].get(
            "serve.rejected.shutting_down", 0
        ) == 0

    def test_rendezvous_timeout_answers_unavailable_and_counts_it(self):
        """The coordinator waits for a participant busy past the
        request's deadline: UNAVAILABLE with the daemon's hint, counted
        under ``serve.rejected.cross_rendezvous``, and the busy shard
        later skips the cancelled token."""
        daemon = start_daemon(2)
        stall = StalledExecute(daemon.sharded.systems[1])
        busy = DaemonClient(
            "127.0.0.1", daemon.port, policy=RetryPolicy(attempts=1)
        )
        blocker = threading.Thread(
            target=busy.put, args=(key_on(daemon, 1, "busy"), b"1")
        )
        try:
            blocker.start()
            assert stall.entered.wait(timeout=5.0)
            src, dst = key_on(daemon, 0, "s"), key_on(daemon, 1, "d")
            with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
                response = exchange(sock, {
                    "id": 9, "kind": "apply", "fn": "wl_derive",
                    "reads": [src], "writes": [dst], "params": [src, dst],
                    "deadline_ms": 200,
                })
            assert response["ok"] is False
            assert response["error"]["code"] == "UNAVAILABLE"
            assert "rendezvous timed out" in response["error"]["message"]
            assert response["error"]["retry_after_ms"] == RETRY_AFTER_MS
            assert "shard" not in response
        finally:
            stall.release.set()
            blocker.join(timeout=10.0)
            busy.close()
        assert not blocker.is_alive()
        try:
            assert rejected(daemon) == {"serve.rejected.cross_rendezvous": 1}
            with DaemonClient("127.0.0.1", daemon.port) as client:
                assert client.get(dst) == (None, 0)
                assert client.put(dst, b"after") > 0
        finally:
            daemon.stop(graceful=False)


class TestPutValues:
    def test_a_put_without_a_value_is_a_bad_request(self):
        """Absent is refused at admission; an explicit null is a value."""
        daemon = start_daemon(1)
        try:
            with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
                missing = exchange(sock, {"id": 1, "kind": "put", "obj": "a"})
                assert missing["ok"] is False
                assert missing["error"] == {
                    "code": "BAD_REQUEST", "message": "put requires a 'value'",
                }
                get = {"id": 2, "kind": "get", "obj": "a"}
                assert exchange(sock, get)["vsi"] == 0
                null = exchange(
                    sock, {"id": 3, "kind": "put", "obj": "a", "value": None}
                )
                assert null["ok"] is True
                got = exchange(sock, get)
                assert got["value"] is None and got["vsi"] == null["lsi"]
            assert rejected(daemon) == {"serve.rejected.bad_request": 1}
        finally:
            daemon.stop(graceful=False)

    @pytest.mark.parametrize("blob", ["eA==!!", "e A==", "eA==\n"])
    def test_a_malformed_bytes_envelope_is_a_bad_request_and_logs_nothing(
        self, blob
    ):
        daemon = start_daemon(1)
        try:
            with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
                first = exchange(
                    sock, {"id": 1, "kind": "put", "obj": "a", "value": 1}
                )
                bad = exchange(sock, {
                    "id": 2, "kind": "put", "obj": "b",
                    "value": {"__bytes__": blob},
                })
                assert bad["ok"] is False
                assert bad["error"]["code"] == "BAD_REQUEST"
                assert "bad bytes envelope" in bad["error"]["message"]
                after = exchange(
                    sock, {"id": 3, "kind": "put", "obj": "c", "value": 2}
                )
                assert after["lsi"] == first["lsi"] + 1
                got = exchange(sock, {"id": 4, "kind": "get", "obj": "b"})
                assert got["value"] is None and got["vsi"] == 0
        finally:
            daemon.stop(graceful=False)


class TestHostileKinds:
    @pytest.mark.parametrize(
        "kind", [["put"], {"put": 1}, 7, None], ids=["list", "dict", "int",
                                                     "null"]
    )
    @pytest.mark.parametrize("shards", [1, 2])
    def test_non_string_kind_is_a_bad_request_and_the_connection_lives(
        self, kind, shards
    ):
        daemon = start_daemon(shards)
        try:
            with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
                sock.settimeout(5.0)
                response = exchange(sock, {"id": 1, "kind": kind})
                assert response["id"] == 1 and response["ok"] is False
                assert response["error"]["code"] == "BAD_REQUEST"
                assert "unknown request kind" in response["error"]["message"]
                served = exchange(
                    sock, {"id": 2, "kind": "put", "obj": "a", "value": 1}
                )
                assert served["id"] == 2 and served["ok"] is True
            assert rejected(daemon) == {"serve.rejected.bad_request": 1}
        finally:
            daemon.stop(graceful=False)

    def test_a_witness_answers_a_list_kind_the_same_way(self):
        from repro.replica import WitnessConfig, WitnessDaemon

        witness = WitnessDaemon(
            RecoverableSystem(),
            DaemonConfig(port=0, http_port=None),
            witness=WitnessConfig(primary_port=1, reconnect_delay_s=0.05),
        ).start()
        try:
            with socket.create_connection(("127.0.0.1", witness.port)) as sock:
                sock.settimeout(5.0)
                response = exchange(sock, {"id": 1, "kind": ["put"]})
                assert response["error"]["code"] == "BAD_REQUEST"
                assert exchange(sock, {"id": 2, "kind": "ping"})["ok"]
        finally:
            witness.stop(graceful=False)

    def test_a_boolean_shard_index_is_not_shard_one(self):
        daemon = start_daemon(2, allow_chaos=True)
        try:
            with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
                response = exchange(
                    sock, {"id": 1, "kind": "kill_shard", "shard": True}
                )
            assert response["ok"] is False
            assert response["error"]["code"] == "BAD_REQUEST"
            assert not daemon._shards[1].killed
        finally:
            daemon.stop(graceful=False)
