"""The serving daemon: admission gating, deadlines, shutdown, watchdog.

Every test runs a real daemon on an ephemeral port and talks to it
over real sockets; the system underneath is the in-memory kernel, so
crashes and recoveries are driven deterministically.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.common.errors import DegradedModeError, SimulatedCrash
from repro.kernel.system import RecoverableSystem, SystemHealth
from repro.serve import (
    BackpressureError,
    BadRequestError,
    DaemonClient,
    DaemonConfig,
    DeadlineExceededError,
    RetryPolicy,
    ServeDaemon,
    ServerFailedError,
    ShuttingDownError,
)
from repro.workloads import register_workload_functions

ONE_SHOT = RetryPolicy(attempts=1)


@pytest.fixture
def served():
    """A started daemon over a fresh system, torn down after the test."""
    system = RecoverableSystem()
    register_workload_functions(system.registry)
    daemon = ServeDaemon(
        system, DaemonConfig(port=0, http_port=None, max_queue=4)
    ).start()
    try:
        yield daemon
    finally:
        daemon.stop(graceful=False)


def client_for(daemon, **kw):
    kw.setdefault("policy", RetryPolicy(attempts=1))
    return DaemonClient("127.0.0.1", daemon.port, **kw)


def nodelay(sock) -> bool:
    import socket

    return bool(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))


class TestNagleIsOff:
    """Small frames pipelined on one connection must not wait out the
    peer's delayed ACK; checked by option, not by timing."""

    def test_client_and_accepted_sockets_set_tcp_nodelay(self, served):
        client = client_for(served)
        client.ping()
        assert nodelay(client._sock)
        with served._conns_lock:
            accepted = [conn.sock for conn in served._conns]
        assert accepted and all(nodelay(sock) for sock in accepted)
        client.close()


class TestRoundTrips:
    def test_put_get_delete(self, served):
        client = client_for(served)
        lsi = client.put("user:1", b"alice")
        assert client.get("user:1") == (b"alice", lsi)
        del_lsi = client.delete("user:1")
        assert del_lsi > lsi
        value, _vsi = client.get("user:1")
        assert value is None
        client.close()

    def test_apply_logical_operation(self, served):
        client = client_for(served)
        client.put("src", b"payload")
        response = client.apply(
            "wl_derive", reads=["src"], writes=["dst"],
            params=["src", "dst"],
        )
        assert response["ok"]
        written = response["writes"]["dst"]
        value, vsi = client.get("dst")
        assert value == __import__("base64").b64decode(
            written["__bytes__"]
        )
        assert vsi == response["lsi"]
        client.close()

    def test_acks_are_forced(self, served):
        client = client_for(served)
        lsi = client.put("x", b"v")
        assert served.system.log.is_stable(lsi)
        assert served.system.log.buffered_lsis() == []
        client.close()

    def test_ping_reports_version_and_health(self, served):
        client = client_for(served)
        response = client.ping()
        from repro import __version__

        assert response["version"] == __version__
        assert response["health"] == "healthy"
        client.close()

    def test_stats_exposes_serve_counters(self, served):
        client = client_for(served)
        client.put("x", b"v")
        stats = client.stats()
        assert stats["counters"]["serve.acked_writes"] >= 1
        client.close()

    def test_unknown_kind_rejected(self, served):
        client = client_for(served)
        with pytest.raises(BadRequestError):
            client.request("explode")
        client.close()

    def test_bad_deadline_rejected(self, served):
        client = client_for(served)
        with pytest.raises(BadRequestError):
            client.request("put", obj="x", value="v",
                           deadline_ms="not-a-number")
        client.close()

    def test_missing_obj_rejected(self, served):
        client = client_for(served)
        with pytest.raises(BadRequestError):
            client.request("get")
        client.close()


class TestHealthGating:
    def test_degraded_rejects_writes_serves_reads(self, served):
        client = client_for(served)
        client.put("keep", b"safe")
        served.system.enter_degraded({"gone"})
        with pytest.raises(DegradedModeError):
            client.put("keep", b"more")
        value, _vsi = client.get("keep")
        assert value == b"safe"
        # Reads of the lost object raise the same structured condition.
        with pytest.raises(DegradedModeError):
            client.get("gone")
        client.close()

    def test_failed_refuses_everything(self, served):
        client = client_for(served)
        served.system.mark_failed()
        with pytest.raises(ServerFailedError):
            client.put("x", b"v")
        with pytest.raises(ServerFailedError):
            client.get("x")
        # Liveness requests still answer (bypass the kernel).
        assert client.ping()["health"] == "failed"
        assert client.health()["health"] == "failed"
        client.close()

    def test_draining_rejects_new_work(self, served):
        served._draining.set()
        client = client_for(served)
        with pytest.raises(ShuttingDownError):
            client.put("x", b"v")
        # Liveness stays answerable mid-drain.
        assert client.ping()["ok"]
        client.close()


class _StalledApply:
    """Blocks the apply loop inside system.execute until released."""

    def __init__(self, system):
        self.entered = threading.Event()
        self.release = threading.Event()
        self._original = system.execute
        system.execute = self._stalled

    def _stalled(self, op):
        self.entered.set()
        assert self.release.wait(timeout=10.0)
        return self._original(op)


class TestBackpressureAndDeadlines:
    def test_full_queue_answers_backpressure(self):
        system = RecoverableSystem()
        daemon = ServeDaemon(
            system, DaemonConfig(port=0, http_port=None, max_queue=1,
                                 retry_after_ms=7)
        ).start()
        stall = _StalledApply(system)
        try:
            blocked = client_for(daemon)
            result = {}
            worker = threading.Thread(
                target=lambda: result.update(
                    lsi=blocked.put("a", b"1")
                )
            )
            worker.start()
            assert stall.entered.wait(timeout=5.0)
            # Apply is busy with "a"; this one fills the queue...
            queued = client_for(daemon)
            queued_result = {}
            queued_worker = threading.Thread(
                target=lambda: queued_result.update(
                    lsi=queued.put("b", b"2")
                )
            )
            queued_worker.start()
            deadline = time.monotonic() + 5.0
            while daemon._queue.empty() and time.monotonic() < deadline:
                time.sleep(0.005)
            # ...and the next arrival bounces with the configured hint.
            overflow = client_for(daemon)
            with pytest.raises(BackpressureError) as excinfo:
                overflow.put("c", b"3")
            assert excinfo.value.retry_after_ms == 7
            assert excinfo.value.retryable
            stall.release.set()
            worker.join(timeout=10.0)
            queued_worker.join(timeout=10.0)
            assert "lsi" in result and "lsi" in queued_result
            for c in (blocked, queued, overflow):
                c.close()
        finally:
            stall.release.set()
            daemon.stop(graceful=False)

    def test_deadline_expires_in_queue(self):
        system = RecoverableSystem()
        daemon = ServeDaemon(
            system, DaemonConfig(port=0, http_port=None, max_queue=4)
        ).start()
        stall = _StalledApply(system)
        try:
            blocked = client_for(daemon)
            worker = threading.Thread(
                target=lambda: blocked.put("a", b"1")
            )
            worker.start()
            assert stall.entered.wait(timeout=5.0)
            doomed = client_for(daemon)
            doomed_error = []
            doomed_worker = threading.Thread(
                target=lambda: doomed_error.append(
                    pytest.raises(
                        DeadlineExceededError,
                        doomed.put, "b", b"2", deadline_ms=1,
                    )
                )
            )
            doomed_worker.start()
            time.sleep(0.05)  # let the 1ms budget expire in the queue
            stall.release.set()
            worker.join(timeout=10.0)
            doomed_worker.join(timeout=10.0)
            assert doomed_error  # DEADLINE came back, mapped and raised
            # The expired request never touched the kernel.
            assert system.cache.vsi_of("b") == 0
            blocked.close()
            doomed.close()
        finally:
            stall.release.set()
            daemon.stop(graceful=False)

    def test_deadline_capped_by_config(self, served):
        # A huge client deadline is clamped server-side; the request
        # still succeeds (the cap is a ceiling, not a rejection).
        client = client_for(served)
        assert client.put("x", b"v", deadline_ms=10_000_000) > 0
        client.close()


class TestWatchdog:
    def test_mid_serve_crash_restarts_and_serves_again(self, served):
        system = served.system
        original = system.log.force_through
        fired = []

        def flaky(lsi):
            if not fired:
                fired.append(lsi)
                raise SimulatedCrash("device lost mid-force")
            return original(lsi)

        system.log.force_through = flaky
        client = client_for(
            served,
            policy=RetryPolicy(attempts=4, base_delay=0.001),
        )
        lsi = client.put("x", b"precious")
        # First attempt crashed serving (never acked), the watchdog
        # recovered, the retry succeeded — and the ack is stable.
        assert fired
        assert served.watchdog.restarts == 1
        assert system.health is SystemHealth.HEALTHY
        assert client.get("x") == (b"precious", lsi)
        assert system.log.is_stable(lsi)
        client.close()

    def test_restart_budget_exhaustion_fails_the_system(self):
        from repro.kernel.supervisor import SupervisorConfig
        from repro.serve import WatchdogConfig

        system = RecoverableSystem()
        daemon = ServeDaemon(
            system,
            DaemonConfig(
                port=0, http_port=None,
                watchdog=WatchdogConfig(
                    supervisor=SupervisorConfig(), max_restarts=0
                ),
            ),
        ).start()
        try:
            system.log.force_through = lambda lsi: (_ for _ in ()).throw(
                SimulatedCrash("always")
            )
            client = client_for(daemon)
            with pytest.raises(
                (ServerFailedError, DeadlineExceededError, Exception)
            ):
                client.put("x", b"v")
            # The crash is answered to the client *before* the watchdog
            # runs, so give the apply thread a moment to mark FAILED.
            deadline = time.monotonic() + 5.0
            while (
                system.health is not SystemHealth.FAILED
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            assert system.health is SystemHealth.FAILED
            with pytest.raises(ServerFailedError):
                client.get("x")
            client.close()
        finally:
            daemon.stop(graceful=False)


class TestShutdown:
    def test_graceful_stop_forces_and_checkpoints(self):
        system = RecoverableSystem()
        daemon = ServeDaemon(
            system, DaemonConfig(port=0, http_port=None)
        ).start()
        client = client_for(daemon)
        lsi = client.put("x", b"v")
        client.close()
        assert daemon.stop(graceful=True) == 0
        assert system.log.buffered_lsis() == []
        assert system.log.is_stable(lsi)
        assert system.health is SystemHealth.HEALTHY

    def test_stop_is_idempotent(self, served):
        assert served.stop() == 0
        assert served.stop() == 0

    def test_kill_preserves_acked_writes(self):
        system = RecoverableSystem()
        daemon = ServeDaemon(
            system, DaemonConfig(port=0, http_port=None)
        ).start()
        client = client_for(daemon)
        lsi = client.put("x", b"survives")
        client.close()
        daemon.kill()
        # The harness completes the SIGKILL simulation.
        system.crash()
        system.recover()
        assert system.read("x") == b"survives"
        assert system.cache.vsi_of("x") >= lsi

    def test_connection_refused_after_stop(self, served):
        served.stop()
        client = client_for(served)
        with pytest.raises(Exception):
            client.ping()
        client.close()


class TestHTTPEndpoint:
    def test_healthz_and_metrics(self):
        system = RecoverableSystem()
        daemon = ServeDaemon(
            system, DaemonConfig(port=0, http_port=0)
        ).start()
        try:
            base = f"http://127.0.0.1:{daemon.http_port}"
            with urllib.request.urlopen(f"{base}/healthz", timeout=5) as r:
                assert r.status == 200
                body = json.loads(r.read().decode())
            assert body["health"] == "healthy"
            assert body["restarts"] == 0
            with urllib.request.urlopen(f"{base}/metrics", timeout=5) as r:
                assert r.status == 200
                text = r.read().decode()
            assert "# TYPE" in text
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{base}/nope", timeout=5)
            assert excinfo.value.code == 404
        finally:
            daemon.stop(graceful=False)

    def test_liveness_vs_readiness_when_degraded(self):
        # The split: DEGRADED is *live* (restarting the process would
        # only repeat the escalation ladder) but not *ready* (it should
        # not receive fresh traffic).  Plain /healthz answers 200 with
        # the degraded body; /healthz?ready=1 answers 503.
        system = RecoverableSystem()
        daemon = ServeDaemon(
            system, DaemonConfig(port=0, http_port=0)
        ).start()
        try:
            system.enter_degraded({"gone"})
            base = f"http://127.0.0.1:{daemon.http_port}/healthz"
            with urllib.request.urlopen(base, timeout=5) as r:
                assert r.status == 200
                body = json.loads(r.read().decode())
            assert body["health"] == "degraded"
            assert body["lost_objects"] == ["gone"]
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{base}?ready=1", timeout=5)
            assert excinfo.value.code == 503
            body = json.loads(excinfo.value.read().decode())
            assert body["ready"] is False
            assert any("degraded" in r for r in body["not_ready_reasons"])
        finally:
            daemon.stop(graceful=False)

    def test_readiness_200_when_healthy(self):
        system = RecoverableSystem()
        daemon = ServeDaemon(
            system, DaemonConfig(port=0, http_port=0)
        ).start()
        try:
            url = f"http://127.0.0.1:{daemon.http_port}/healthz?ready=1"
            with urllib.request.urlopen(url, timeout=5) as r:
                assert r.status == 200
                body = json.loads(r.read().decode())
            assert body["ready"] is True
        finally:
            daemon.stop(graceful=False)

    def test_liveness_503_only_when_failed(self):
        system = RecoverableSystem()
        daemon = ServeDaemon(
            system, DaemonConfig(port=0, http_port=0)
        ).start()
        try:
            system.mark_failed()
            url = f"http://127.0.0.1:{daemon.http_port}/healthz"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(url, timeout=5)
            assert excinfo.value.code == 503
            body = json.loads(excinfo.value.read().decode())
            assert body["health"] == "failed"
        finally:
            daemon.stop(graceful=False)
