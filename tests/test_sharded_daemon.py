"""The serving daemon over N > 1 shards: what only sharding has.

The serving contract itself (health gating, backpressure, deadlines,
watchdog, shutdown, HTTP) is ``test_serve_daemon.py``, which runs
against one and two shards alike.  Kept here is what exists only with
more than one recovery domain: routing labels, per-shard health, the
cross-shard fence under the rendezvous, chaos kill/revive, and the
merged metrics view.  Every test runs a real 2-shard daemon on an
ephemeral port and talks to it over real sockets.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import (
    BadRequestError,
    DaemonClient,
    DaemonConfig,
    DeadlineExceededError,
    RetryPolicy,
    ServeDaemon,
    ServerUnavailableError,
)
from repro.shard import ShardedSystem
from repro.wal.records import FenceRecord
from repro.workloads import register_workload_functions
from tests.conftest import StalledExecute

ONE_SHOT = RetryPolicy(attempts=1)


def _daemon(shards: int = 2, **config_kw) -> ServeDaemon:
    sharded = ShardedSystem.build(shards)
    register_workload_functions(sharded.registry)
    config_kw.setdefault("port", 0)
    config_kw.setdefault("http_port", None)
    config_kw.setdefault("max_queue", 8)
    return ServeDaemon(sharded, DaemonConfig(**config_kw)).start()


@pytest.fixture
def served():
    daemon = _daemon()
    try:
        yield daemon
    finally:
        daemon.stop(graceful=False)


@pytest.fixture
def chaotic():
    daemon = _daemon(allow_chaos=True)
    try:
        yield daemon
    finally:
        daemon.stop(graceful=False)


def client_for(daemon, **kw):
    kw.setdefault("policy", RetryPolicy(attempts=1))
    return DaemonClient("127.0.0.1", daemon.port, **kw)


def key_on(daemon, shard: int, tag: str = "k") -> str:
    router = daemon.sharded.router
    probe = 0
    while True:
        key = f"{tag}:{probe}"
        if router.shard_of(key) == shard:
            return key
        probe += 1


class TestRoutingAndLabels:
    def test_put_and_get_carry_the_owning_shard(self, served):
        with client_for(served) as client:
            for shard in range(served.shards):
                key = key_on(served, shard)
                response = client.request("put", obj=key, value="du")
                assert response["shard"] == shard
                response = client.request("get", obj=key)
                assert response["shard"] == shard

    def test_shards_serve_disjoint_logs(self, served):
        with client_for(served) as client:
            a, b = key_on(served, 0, "a"), key_on(served, 1, "b")
            lsi_a = client.put(a, b"va")
            lsi_b = client.put(b, b"vb")
        # Per-shard WALs assign lSIs independently: both streams start
        # at the beginning, so fresh writes land on equal early lSIs.
        assert lsi_a == lsi_b
        for shard, key, value in ((0, a, b"va"), (1, b, b"vb")):
            system = served.sharded.systems[shard]
            assert system.read(key) == value
            assert system.log.is_stable(lsi_a)

    def test_health_is_per_shard(self, served):
        with client_for(served) as client:
            health = client.health()
        assert set(health["shards"]) == {"0", "1"}
        for entry in health["shards"].values():
            assert entry["health"] == "healthy"
            assert entry["killed"] is False
            assert entry["restarts"] == 0
        assert health["draining"] is False


class TestCrossShard:
    def test_cross_apply_runs_fence_protocol(self, served):
        with client_for(served) as client:
            src, dst = key_on(served, 0, "src"), key_on(served, 1, "dst")
            client.put(src, b"seed")
            response = client.apply(
                "wl_derive",
                reads=[src],
                writes=[dst],
                params=[src, dst],
                name="xapply",
            )
            assert response["cross"] is True
            assert sorted(response["shards"]) == [0, 1]
            expected = hashlib.sha256(b"derive" + b"seed").digest()
            value, _vsi = client.get(dst)
            assert value == expected
        audit = served.sharded.fence_audit()
        assert audit.ok and len(audit.complete) == 1

    def test_single_shard_apply_is_not_cross(self, served):
        with client_for(served) as client:
            src = key_on(served, 0, "s")
            dst = key_on(served, 0, "d")
            client.put(src, b"seed")
            response = client.apply(
                "wl_derive",
                reads=[src],
                writes=[dst],
                params=[src, dst],
            )
            assert response.get("cross") is None
            assert response["shard"] == 0
            assert "lsi" in response
        assert not served.sharded.fence_audit().complete

    def test_cross_survives_full_crash(self, served):
        with client_for(served) as client:
            src, dst = key_on(served, 0, "s"), key_on(served, 1, "d")
            client.put(src, b"x")
            response = client.apply(
                "wl_derive", reads=[src], writes=[dst], params=[src, dst]
            )
            expected = response["writes"][dst]
        served.stop(graceful=False)
        served.sharded.crash_all()
        served.sharded.recover_all()
        from repro.serve import protocol

        assert served.sharded.read(dst) == protocol.decode_value(expected)


class TestCrossShardDeadline:
    def test_cross_apply_expired_in_queue_answers_deadline(self, served):
        # Both participants are busy past the cross job's budget.  When
        # they get to it every participant is already there, so only
        # the apply gate — not the rendezvous wait — can refuse it.
        systems = served.sharded.systems
        stalls = [StalledExecute(system) for system in systems]
        blockers = [client_for(served) for _ in systems]
        workers = [
            threading.Thread(
                target=lambda c=client, k=key_on(served, shard, "busy"):
                c.put(k, b"1")
            )
            for shard, client in enumerate(blockers)
        ]
        try:
            for worker in workers:
                worker.start()
            for stall in stalls:
                assert stall.entered.wait(timeout=5.0)
            src, dst = key_on(served, 0, "s"), key_on(served, 1, "d")
            doomed = client_for(served)
            outcome = []
            doomed_worker = threading.Thread(
                target=lambda: outcome.append(
                    pytest.raises(
                        DeadlineExceededError,
                        doomed.apply, "wl_derive", reads=[src],
                        writes=[dst], params=[src, dst], deadline_ms=20,
                    )
                )
            )
            doomed_worker.start()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and any(
                shard.queue.empty() for shard in served._shards
            ):
                time.sleep(0.005)
            time.sleep(0.1)  # let the 20ms budget expire in both queues
        finally:
            for stall in stalls:
                stall.release.set()
        for worker in (*workers, doomed_worker):
            worker.join(timeout=10.0)
        assert outcome  # DEADLINE came back, exactly once, and raised
        # No kernel was touched: nothing written, and no fence record
        # appended — neither forced nor still in a log buffer.
        for system in systems:
            assert system.cache.vsi_of(dst) == 0
            assert system.log.buffered_lsis() == []
            assert not [
                record for record in system.log.stable_records()
                if isinstance(record, FenceRecord)
            ]
        # The workers moved on: both shards still serve.
        with client_for(served) as client:
            assert client.put(src, b"after") > 0
            assert client.put(dst, b"after") > 0
        for client in (*blockers, doomed):
            client.close()


class TestEveryRequestIsAnsweredOnce:
    def test_expiring_cross_applies_under_contention(self, served):
        # A cross job can be refused from several places — either
        # participant's apply gate, the coordinator's rendezvous wait —
        # racing each other.  Whatever wins, the client must read
        # exactly one frame per request: a second answer would surface
        # as a mismatched id on the next request of that connection.
        import socket
        import sys

        from repro.serve import protocol

        a, b = key_on(served, 0, "a"), key_on(served, 1, "b")
        with client_for(served) as seed:
            seed.put(a, b"1")
        port = served.port
        mismatches, codes = [], set()

        def hammer(worker: int) -> None:
            with socket.create_connection(("127.0.0.1", port)) as sock:
                sock.settimeout(10.0)
                for index in range(60):
                    request_id = worker * 1000 + index
                    if index % 3:
                        request = {
                            "kind": "apply", "fn": "wl_derive",
                            "reads": [a], "writes": [b], "params": [a, b],
                            "deadline_ms": index % 2,
                        }
                    else:
                        request = {
                            "kind": "put", "obj": (a, b)[worker % 2],
                            "value": index,
                        }
                    protocol.send_frame(sock, {"id": request_id, **request})
                    response = protocol.recv_frame(sock)
                    if response is None or response.get("id") != request_id:
                        mismatches.append((request_id, response))
                        return
                    if not response["ok"]:
                        codes.add(response["error"]["code"])
                # Nothing may be left unread behind the last answer.
                sock.settimeout(0.2)
                try:
                    extra = sock.recv(1)
                except socket.timeout:
                    extra = b""
                if extra:
                    mismatches.append(("trailing bytes", extra))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [
                threading.Thread(target=hammer, args=(n,)) for n in range(8)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert not mismatches, mismatches
        assert codes <= {"DEADLINE", "UNAVAILABLE", "BACKPRESSURE"}, codes
        assert served.sharded.fence_audit().ok


class TestChaos:
    def test_chaos_disabled_by_default(self, served):
        with client_for(served) as client:
            with pytest.raises(BadRequestError):
                client.request("kill_shard", shard=0)

    def test_bad_shard_index_rejected(self, chaotic):
        with client_for(chaotic) as client:
            with pytest.raises(BadRequestError):
                client.request("kill_shard", shard=7)
            with pytest.raises(BadRequestError):
                client.request("revive_shard", shard=0)  # not killed

    def test_kill_isolates_one_shard(self, chaotic):
        victim, survivor = 1, 0
        with client_for(chaotic) as client:
            vkey = key_on(chaotic, victim, "v")
            skey = key_on(chaotic, survivor, "s")
            client.put(vkey, b"acked-before-kill")
            assert client.request("kill_shard", shard=victim)["ok"]
            # The survivor keeps acking while the victim is down...
            assert client.put(skey, b"still-up") > 0
            # ...and the victim's requests answer UNAVAILABLE with the
            # shard label, so clients back off that shard only.
            with pytest.raises(ServerUnavailableError):
                client.request("get", obj=vkey)
            health = client.health()
            assert health["shards"][str(victim)]["killed"] is True
            assert health["shards"][str(survivor)]["killed"] is False
            # Revive through supervised recovery: the acked write is
            # there (it was forced before the ack).
            assert client.request("revive_shard", shard=victim)["ok"]
            value, _vsi = client.get(vkey)
            assert value == b"acked-before-kill"

    def test_cross_naming_victim_is_unavailable(self, chaotic):
        with client_for(chaotic) as client:
            src, dst = key_on(chaotic, 0, "s"), key_on(chaotic, 1, "d")
            client.put(src, b"x")
            assert client.request("kill_shard", shard=1)["ok"]
            with pytest.raises(ServerUnavailableError):
                client.apply(
                    "wl_derive",
                    reads=[src],
                    writes=[dst],
                    params=[src, dst],
                )
            # The healthy participant was not poisoned by the refusal.
            assert client.put(src, b"y") > 0


class TestShutdown:
    def test_graceful_stop_forces_all_shards(self):
        daemon = _daemon()
        with client_for(daemon) as client:
            keys = [key_on(daemon, shard) for shard in range(2)]
            lsis = [client.put(key, b"v") for key in keys]
        assert daemon.stop(graceful=True) == 0
        for shard, lsi in enumerate(lsis):
            assert daemon.sharded.systems[shard].log.is_stable(lsi)


class TestObservability:
    def test_healthz_and_shardwise_metrics(self):
        daemon = _daemon(http_port=0, allow_chaos=True)
        try:
            with client_for(daemon) as client:
                client.put(key_on(daemon, 0), b"v")
                url = f"http://127.0.0.1:{daemon.http_port}/healthz"
                with urllib.request.urlopen(url, timeout=5) as resp:
                    body = json.load(resp)
                assert resp.status == 200
                assert body["health"] == "healthy"
                assert body["killed"] == []
                url = f"http://127.0.0.1:{daemon.http_port}/metrics"
                with urllib.request.urlopen(url, timeout=5) as resp:
                    text = resp.read().decode()
                # Daemon-level and shard-prefixed kernel series both
                # appear in the one merged rendering.
                assert "serve_shard_0_acked_writes" in text.replace(".", "_")
                assert "shard0" in text
                # With one shard down: liveness stays 200 (nothing is
                # terminally FAILED) but readiness flips to 503.
                client.request("kill_shard", shard=1)
                url = f"http://127.0.0.1:{daemon.http_port}/healthz"
                with urllib.request.urlopen(url, timeout=5) as resp:
                    body = json.load(resp)
                assert resp.status == 200
                assert 1 in body["killed"]
                url = f"http://127.0.0.1:{daemon.http_port}/healthz?ready=1"
                try:
                    with urllib.request.urlopen(url, timeout=5) as resp:
                        status = resp.status
                        body = json.load(resp)
                except urllib.error.HTTPError as exc:
                    status = exc.code
                    body = json.load(exc)
                assert status == 503
                assert body["ready"] is False
        finally:
            daemon.stop(graceful=False)

    def test_stats_merges_shard_registries(self, served):
        with client_for(served) as client:
            client.put(key_on(served, 0), b"v")
            stats = client.stats()
        counters = stats["counters"]
        assert counters.get("serve.acked_writes", 0) >= 1
        assert counters.get("serve.shard.0.acked_writes", 0) >= 1
        # Kernel series surface under the shard prefix.
        assert any(name.startswith("shard0.") for name in counters)
