"""The serving daemon: admission gating, deadlines, shutdown, watchdog.

Every test runs a real daemon on an ephemeral port and talks to it
over real sockets; the systems underneath are in-memory kernels, so
crashes and recoveries are driven deterministically.

This is the serving core's contract suite, and the core is one class:
every test here runs against both topologies — one kernel, and a
two-shard :class:`~repro.shard.ShardedSystem` — with its keys routed
to the *last* shard, so on two shards the contract is checked on a
shard other than the default one.  What only exists with N > 1
(routing labels, cross-shard fences, chaos) is in
``test_sharded_daemon.py``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.common.errors import (
    DegradedModeError,
    SimulatedCrash,
    TransientStorageError,
)
from repro.kernel.system import RecoverableSystem, SystemHealth
from repro.shard import ShardedSystem
from repro.serve import (
    BackpressureError,
    BadRequestError,
    DaemonClient,
    DaemonConfig,
    DeadlineExceededError,
    RetryPolicy,
    ServeDaemon,
    ServerFailedError,
    ServerUnavailableError,
    ShuttingDownError,
)
from repro.workloads import register_workload_functions
from tests.conftest import (
    SendSpy,
    StalledExecute,
    StalledForce,
    concurrent_puts,
    listen,
    wait_until,
)

ONE_SHOT = RetryPolicy(attempts=1)


@pytest.fixture(params=[1, 2], ids=["1-shard", "2-shards"])
def shards(request):
    """The topology under test: one kernel, or a two-shard group."""
    return request.param


def start_daemon(shards: int, **config_kw) -> ServeDaemon:
    """A started daemon over fresh in-memory kernel(s)."""
    if shards == 1:
        system = RecoverableSystem()
    else:
        system = ShardedSystem.build(shards)
    register_workload_functions(system.registry)
    config_kw.setdefault("port", 0)
    config_kw.setdefault("http_port", None)
    return ServeDaemon(system, DaemonConfig(**config_kw)).start()


@pytest.fixture
def served(shards):
    """A started daemon over fresh system(s), torn down after the test."""
    daemon = start_daemon(shards, max_queue=4)
    try:
        yield daemon
    finally:
        daemon.stop(graceful=False)


def client_for(daemon, **kw):
    kw.setdefault("policy", RetryPolicy(attempts=1))
    return DaemonClient("127.0.0.1", daemon.port, **kw)


def key(daemon, tag: str) -> str:
    """An object id owned by the daemon's last shard."""
    router = daemon.sharded.router
    probe = 0
    while router.shard_of(f"{tag}:{probe}") != daemon.shards - 1:
        probe += 1
    return f"{tag}:{probe}"


def target(daemon) -> RecoverableSystem:
    """The kernel every ``key(daemon, ...)`` object lives on."""
    return daemon.sharded.systems[-1]


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


class TestConnectionBookkeeping:
    def test_closed_connections_are_forgotten(self, served):
        # A long-lived daemon must not grow with the connections it
        # ever accepted: each reader drops its own entry on exit.
        keeper = client_for(served)
        keeper.ping()
        for _ in range(300):
            client = client_for(served)
            client.ping()
            client.close()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            with served._conns_lock:
                if len(served._conns) == 1:
                    break
            time.sleep(0.01)
        with served._conns_lock:
            readers = list(served._conns.values())
        assert len(readers) == 1 and readers[0].is_alive()
        assert keeper.ping()["ok"]
        keeper.close()


class TestRoundTrips:
    def test_put_get_delete(self, served):
        client = client_for(served)
        user = key(served, "user")
        lsi = client.put(user, b"alice")
        assert client.get(user) == (b"alice", lsi)
        del_lsi = client.delete(user)
        assert del_lsi > lsi
        value, _vsi = client.get(user)
        assert value is None
        client.close()

    def test_apply_logical_operation(self, served):
        client = client_for(served)
        src, dst = key(served, "src"), key(served, "dst")
        client.put(src, b"payload")
        response = client.apply(
            "wl_derive", reads=[src], writes=[dst], params=[src, dst],
        )
        assert response["ok"]
        written = response["writes"][dst]
        value, vsi = client.get(dst)
        assert value == __import__("base64").b64decode(
            written["__bytes__"]
        )
        assert vsi == response["lsi"]
        client.close()

    def test_apply_producing_an_unstorable_value_is_a_bad_request(
        self, served
    ):
        """The transform runs, its output is outside the codec's type
        universe: BAD_REQUEST, no record, and the shard keeps serving
        (it used to be acked and then fail whoever flushed it)."""
        system = target(served)
        system.registry.register(
            "alien", lambda reads, dst: {dst: bytearray(b"not bytes")}
        )
        client = client_for(served)
        dst = key(served, "dst")
        before = len(system.log)
        with pytest.raises(BadRequestError, match="cannot be stored"):
            client.apply("alien", reads=[], writes=[dst], params=[dst])
        assert len(system.log) == before
        assert client.get(dst)[0] is None
        lsi = client.put(dst, b"fine")
        assert client.get(dst) == (b"fine", lsi)
        assert system.flush_all() == 1
        client.close()

    def test_acks_are_forced(self, served):
        client = client_for(served)
        lsi = client.put(key(served, "x"), b"v")
        assert target(served).log.is_stable(lsi)
        assert target(served).log.buffered_lsis() == []
        client.close()

    def test_answers_name_the_owning_shard(self, served):
        client = client_for(served)
        response = client.request("put", obj=key(served, "x"), value="v")
        assert response["shard"] == served.shards - 1
        client.close()

    def test_ping_reports_version_and_health(self, served):
        client = client_for(served)
        response = client.ping()
        from repro import __version__

        assert response["version"] == __version__
        assert response["health"] == "healthy"
        assert response["shards"] == served.shards
        client.close()

    def test_stats_exposes_serve_counters(self, served):
        client = client_for(served)
        client.put(key(served, "x"), b"v")
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

    def test_promote_is_refused_by_a_non_witness(self, served):
        client = client_for(served)
        with pytest.raises(BadRequestError):
            client.request("promote")
        client.close()


class TestHealthGating:
    def test_degraded_rejects_writes_serves_reads(self, served):
        client = client_for(served)
        keep, gone = key(served, "keep"), key(served, "gone")
        client.put(keep, b"safe")
        target(served).enter_degraded({gone})
        with pytest.raises(DegradedModeError):
            client.put(keep, b"more")
        value, _vsi = client.get(keep)
        assert value == b"safe"
        # Reads of the lost object raise the same structured condition.
        with pytest.raises(DegradedModeError):
            client.get(gone)
        health = client.health()
        assert health["health"] == "degraded"
        assert health["lost_objects"] == [gone]
        client.close()

    def test_failed_refuses_everything(self, served):
        client = client_for(served)
        target(served).mark_failed()
        with pytest.raises(ServerFailedError):
            client.put(key(served, "x"), b"v")
        with pytest.raises(ServerFailedError):
            client.get(key(served, "x"))
        # Liveness requests still answer (bypass the kernel).
        assert client.ping()["health"] == "failed"
        assert client.health()["health"] == "failed"
        client.close()

    def test_failed_while_queued_is_refused_at_the_apply_gate(self, served):
        # Health moved to FAILED while the request sat in the backlog:
        # the apply step re-gates before touching the kernel.
        stall = StalledExecute(target(served))
        blocked, doomed = client_for(served), client_for(served)
        errors = []
        # (The stalled put resumes on a FAILED kernel; whatever it is
        # answered is not this test's subject.)
        worker = threading.Thread(
            target=lambda: pytest.raises(
                Exception, blocked.put, key(served, "a"), b"1"
            )
        )
        worker.start()
        assert stall.entered.wait(timeout=5.0)
        doomed_worker = threading.Thread(
            target=lambda: errors.append(
                pytest.raises(
                    ServerFailedError, doomed.get, key(served, "b")
                )
            )
        )
        doomed_worker.start()
        backlog = served._shards[-1].queue
        deadline = time.monotonic() + 5.0
        while backlog.empty() and time.monotonic() < deadline:
            time.sleep(0.005)
        target(served).mark_failed()
        stall.release.set()
        worker.join(timeout=10.0)
        doomed_worker.join(timeout=10.0)
        assert errors
        blocked.close()
        doomed.close()

    def test_draining_rejects_new_work(self, served):
        served._draining.set()
        client = client_for(served)
        with pytest.raises(ShuttingDownError):
            client.put(key(served, "x"), b"v")
        # Liveness stays answerable mid-drain.
        assert client.ping()["ok"]
        client.close()


class TestBackpressureAndDeadlines:
    def test_full_queue_answers_backpressure(self, shards):
        daemon = start_daemon(shards, max_queue=1, retry_after_ms=7)
        stall = StalledExecute(target(daemon))
        try:
            blocked = client_for(daemon)
            result = {}
            worker = threading.Thread(
                target=lambda: result.update(
                    lsi=blocked.put(key(daemon, "a"), b"1")
                )
            )
            worker.start()
            assert stall.entered.wait(timeout=5.0)
            # Apply is busy with "a"; this one fills the queue...
            queued = client_for(daemon)
            queued_result = {}
            queued_worker = threading.Thread(
                target=lambda: queued_result.update(
                    lsi=queued.put(key(daemon, "b"), b"2")
                )
            )
            queued_worker.start()
            backlog = daemon._shards[-1].queue
            deadline = time.monotonic() + 5.0
            while backlog.empty() and time.monotonic() < deadline:
                time.sleep(0.005)
            # ...and the next arrival bounces with the configured hint,
            # naming the jammed shard.
            overflow = client_for(daemon)
            with pytest.raises(BackpressureError) as excinfo:
                overflow.put(key(daemon, "c"), b"3")
            assert excinfo.value.retry_after_ms == 7
            assert excinfo.value.retryable
            response = overflow._round_trip(
                {"id": 99, "kind": "get", "obj": key(daemon, "c")}
            )
            assert response["error"]["code"] == "BACKPRESSURE"
            assert response["shard"] == daemon.shards - 1
            stall.release.set()
            worker.join(timeout=10.0)
            queued_worker.join(timeout=10.0)
            assert "lsi" in result and "lsi" in queued_result
            for c in (blocked, queued, overflow):
                c.close()
        finally:
            stall.release.set()
            daemon.stop(graceful=False)

    def test_deadline_expires_in_queue(self, shards):
        daemon = start_daemon(shards, max_queue=4)
        system = target(daemon)
        stall = StalledExecute(system)
        try:
            blocked = client_for(daemon)
            worker = threading.Thread(
                target=lambda: blocked.put(key(daemon, "a"), b"1")
            )
            worker.start()
            assert stall.entered.wait(timeout=5.0)
            doomed = client_for(daemon)
            doomed_error = []
            doomed_worker = threading.Thread(
                target=lambda: doomed_error.append(
                    pytest.raises(
                        DeadlineExceededError,
                        doomed.put, key(daemon, "b"), b"2", deadline_ms=1,
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
            assert system.cache.vsi_of(key(daemon, "b")) == 0
            blocked.close()
            doomed.close()
        finally:
            stall.release.set()
            daemon.stop(graceful=False)

    def test_deadline_capped_by_config(self, served):
        # A huge client deadline is clamped server-side; the request
        # still succeeds (the cap is a ceiling, not a rejection).
        client = client_for(served)
        assert client.put(key(served, "x"), b"v", deadline_ms=10_000_000) > 0
        client.close()


class TestWatchdog:
    def test_mid_serve_crash_restarts_and_serves_again(self, served):
        system = target(served)
        original = system.log.force
        fired = []

        def flaky():
            if not fired:
                fired.append(system.log.buffered_lsis())
                raise SimulatedCrash("device lost mid-force")
            return original()

        system.log.force = flaky
        client = client_for(
            served,
            policy=RetryPolicy(attempts=4, base_delay=0.001),
        )
        x = key(served, "x")
        lsi = client.put(x, b"precious")
        # First attempt crashed serving (never acked), the watchdog
        # recovered, the retry succeeded — and the ack is stable.
        assert fired
        assert served.restarts() == 1
        assert system.health is SystemHealth.HEALTHY
        assert client.get(x) == (b"precious", lsi)
        assert system.log.is_stable(lsi)
        client.close()

    def test_a_crash_counts_one_restart_everywhere(self, served):
        # The kernel's registry counts the crash and the restart, the
        # daemon's the shard's crash, and the shard its restart; the
        # events say crash, then restart.
        system = target(served)
        events = listen(system)
        shard_crashes = f"serve.shard.{served.shards - 1}.crashes"

        def counts():
            return [
                system.obs.counter_value("serve.crashes"),
                system.obs.counter_value("serve.restarts"),
                served.obs.counter_value(shard_crashes),
                served.restarts(),
            ]

        before = counts()
        original = system.log.force
        fired = []

        def flaky():
            if not fired:
                fired.append(True)
                raise SimulatedCrash("device lost mid-force")
            return original()

        system.log.force = flaky
        client = client_for(
            served,
            policy=RetryPolicy(attempts=4, base_delay=0.001),
        )
        client.put(key(served, "x"), b"v")
        client.close()
        assert [b - a for a, b in zip(before, counts())] == [1, 1, 1, 1]
        ladder = [
            (kind, details["restarts"]) for kind, details in events
            if kind.startswith("watchdog.")
        ]
        assert ladder == [("watchdog.crash", 0), ("watchdog.restart", 1)]
        gauges = system.obs.snapshot()["gauges"]
        assert gauges["serve.watchdog_restarts"] == 1


class TestCommitter:
    """The second stage of the ack path: the apply thread parks each
    reply, the shard's committer forces the buffered prefix once and
    releases what the stable end covers (DESIGN.md §4b)."""

    def _parked_behind_a_stalled_force(self, daemon, count):
        """``count`` concurrent puts, all executed and parked while the
        first force hangs in the device."""
        log = target(daemon).log
        stall = StalledForce(log)
        keys = [key(daemon, f"w{i}") for i in range(count)]
        threads, outcomes = concurrent_puts(daemon.port, keys)
        assert stall.entered.wait(timeout=5.0)
        shard = daemon._shards[-1]
        assert wait_until(lambda: len(shard.parked) == count)
        return stall, keys, threads, outcomes

    def test_no_ack_leaves_before_its_record_is_stable(
        self, shards, monkeypatch
    ):
        daemon = start_daemon(shards, max_queue=32)
        system = target(daemon)
        spy = SendSpy(monkeypatch, system.log)
        try:
            stall, keys, threads, outcomes = (
                self._parked_behind_a_stalled_force(daemon, 16)
            )
            # Every write executed and appended; none stable, none
            # answered — and all of them count as in flight.
            assert len(system.log.buffered_lsis()) == 16
            assert spy.frames == []
            assert daemon._queue_depth() == 16
            stall.release.set()
            for thread in threads:
                thread.join(timeout=10.0)
            lsis = sorted(outcomes[k] for k in keys)
            assert lsis == list(range(lsis[0], lsis[0] + 16))
            acks = spy.acks()
            assert len(acks) == 16
            for frame, stable_end in acks:
                assert stable_end >= frame["lsi"]
            # The stalled force took what was buffered when it started;
            # everything that arrived meanwhile shared the next one.
            assert system.stats.log_forces < 16
            assert daemon._queue_depth() == 0
        finally:
            daemon.stop(graceful=False)

    def test_sustained_concurrent_writers_every_ack_is_stable(
        self, shards, monkeypatch
    ):
        import sys

        daemon = start_daemon(shards, max_queue=64)
        system = target(daemon)
        spy = SendSpy(monkeypatch, system.log)
        keys = [key(daemon, f"s{i}") for i in range(8)]
        last = {}

        def writer(k):
            client = client_for(daemon)
            for index in range(40):
                last[k] = (b"%d" % index, client.put(k, b"%d" % index))
            client.close()

        threads = [threading.Thread(target=writer, args=(k,)) for k in keys]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not any(thread.is_alive() for thread in threads)
            acks = spy.acks()
            assert len(acks) == 8 * 40
            assert len({frame["lsi"] for frame, _end in acks}) == 8 * 40
            assert all(end >= frame["lsi"] for frame, end in acks)
            assert daemon._queue_depth() == 0
            client = client_for(daemon)
            for k in keys:
                assert client.get(k) == last[k]
            client.close()
        finally:
            daemon.stop(graceful=False)

    def test_a_lone_write_is_forced_at_once(self, served):
        # No timer, no batch size: one request, one force, no waiting
        # for company.
        system = target(served)
        client = client_for(served)
        before = system.stats.log_forces
        for index in range(5):
            client.put(key(served, "solo"), b"v%d" % index)
        assert system.stats.log_forces == before + 5
        client.close()

    def test_a_lifecycle_event_is_on_file_before_the_next_ack(
        self, shards, tmp_path
    ):
        from repro.obs.flightrec import load_flightrec

        path = str(tmp_path / "flightrec.jsonl")
        daemon = start_daemon(shards, flightrec_path=path, allow_chaos=True)
        client = client_for(daemon)
        victim = daemon.shards - 1

        def kinds():
            return [event["kind"] for event in load_flightrec(path)]

        try:
            client.put(key(daemon, "fr"), b"before")
            client.request("kill_shard", shard=victim)
            # Recorded inline: no committer has to flush it out.
            assert kinds()[-1] == "shard.kill"
            client.request("revive_shard", shard=victim)
            client.put(key(daemon, "fr"), b"after")
            assert "shard.revive" in kinds()
            # The acked writes themselves left no line: the WAL has them.
            assert not {"execute", "install"} & set(kinds())
            assert daemon.obs.counter_value("serve.acked_writes") == 2
        finally:
            client.close()
            daemon.stop(graceful=False)

    def test_get_of_an_unforced_version_is_held_until_it_is_stable(
        self, shards
    ):
        daemon = start_daemon(shards)
        log = target(daemon).log
        old, new = key(daemon, "old"), key(daemon, "new")
        client = client_for(daemon)
        try:
            old_lsi = client.put(old, b"stable")
            stall = StalledForce(log)
            threads, outcomes = concurrent_puts(daemon.port, [new])
            assert stall.entered.wait(timeout=5.0)
            held = {}
            reader = client_for(daemon)
            holder = threading.Thread(
                target=lambda: held.update(answer=reader.get(new))
            )
            holder.start()
            # The read saw the unforced write: it parks behind it...
            shard = daemon._shards[-1]
            assert wait_until(lambda: len(shard.parked) == 2)
            # ...while a stable version is answered during the stall.
            assert client.get(old) == (b"stable", old_lsi)
            assert not held and not log.is_stable(log.buffered_lsis()[0])
            stall.release.set()
            holder.join(timeout=10.0)
            threads[0].join(timeout=10.0)
            assert held["answer"] == (new.encode(), outcomes[new])
            assert log.is_stable(outcomes[new])
            reader.close()
        finally:
            client.close()
            daemon.stop(graceful=False)

    @pytest.mark.parametrize(
        "failure",
        [OSError(5, "Input/output error"), TransientStorageError("fsync")],
        ids=["oserror", "transient"],
    )
    def test_a_failed_force_refuses_the_batch_and_restarts_once(
        self, shards, failure, monkeypatch
    ):
        daemon = start_daemon(shards, max_queue=32)
        system = target(daemon)
        spy = SendSpy(monkeypatch, system.log)
        try:
            stall, keys, threads, outcomes = (
                self._parked_behind_a_stalled_force(daemon, 4)
            )
            stall.fail = failure
            stall.release.set()
            for thread in threads:
                thread.join(timeout=10.0)
            # Each parked request answered exactly once, none acked.
            assert spy.error_codes() == ["UNAVAILABLE"] * 4
            assert spy.acks() == []
            assert all(
                isinstance(outcomes[k], ServerUnavailableError) for k in keys
            )
            # One hand-off to the watchdog, on the apply thread.
            assert wait_until(
                lambda: daemon.restarts() == 1
                and system.health is SystemHealth.HEALTHY
            )
            client = client_for(daemon)
            for k in keys:
                assert client.get(k) == (None, 0)
            # Retried, the write goes through on the recovered shard.
            lsi = client.put(keys[0], b"retried")
            assert client.get(keys[0]) == (b"retried", lsi)
            assert daemon.restarts() == 1
            client.close()
        finally:
            daemon.stop(graceful=False)

    @pytest.mark.parametrize("how", ["kill", "kill_shard"])
    def test_kill_with_replies_parked_sends_no_ack(
        self, shards, how, monkeypatch
    ):
        daemon = start_daemon(shards, max_queue=32, allow_chaos=True)
        system = target(daemon)
        victim = daemon._shards[-1]
        client = client_for(daemon)
        kept = key(daemon, "kept")
        kept_lsi = client.put(kept, b"acked")
        client.close()
        spy = SendSpy(monkeypatch, system.log)
        revived = False
        try:
            stall, keys, threads, outcomes = (
                self._parked_behind_a_stalled_force(daemon, 4)
            )
            appended = system.log.buffered_lsis()
            killer = threading.Thread(
                target=daemon.kill if how == "kill"
                else lambda: daemon.kill_shard(victim.index)
            )
            killer.start()
            # The kill waits out the force in flight, then owns what is
            # parked: the committer finds the stop flag and releases
            # nothing, stable or not.
            assert wait_until(victim.stop.is_set)
            stall.release.set()
            killer.join(timeout=10.0)
            for thread in threads:
                thread.join(timeout=10.0)
            assert spy.acks() == []
            assert not any(isinstance(outcomes[k], int) for k in keys)
            if how == "kill":
                system.crash()
                system.recover()
            else:
                assert spy.error_codes() == ["UNAVAILABLE"] * 4
                daemon.revive_shard(victim.index)
                revived = True
            # What survives is a prefix of what was appended: the acked
            # write, then exactly the records the stalled force carried.
            assert system.read(kept) == b"acked"
            assert system.cache.vsi_of(kept) == kept_lsi
            survivors = sorted(
                system.cache.vsi_of(k) for k in keys
                if system.read(k) is not None
            )
            assert survivors  # the stalled force carried at least one
            assert survivors == appended[: len(survivors)]
        finally:
            if how == "kill_shard" and revived:
                daemon.stop(graceful=False)

    def test_graceful_stop_releases_parked_replies_first(
        self, shards, monkeypatch
    ):
        daemon = start_daemon(shards, max_queue=32)
        system = target(daemon)
        spy = SendSpy(monkeypatch, system.log)
        stall, keys, threads, outcomes = (
            self._parked_behind_a_stalled_force(daemon, 4)
        )
        status = {}
        stopper = threading.Thread(
            target=lambda: status.update(code=daemon.stop(graceful=True))
        )
        stopper.start()
        assert wait_until(daemon._draining.is_set)
        time.sleep(0.05)
        assert stopper.is_alive() and spy.frames == []  # drain waits
        stall.release.set()
        stopper.join(timeout=15.0)
        for thread in threads:
            thread.join(timeout=10.0)
        assert status == {"code": 0}
        assert all(isinstance(outcomes[k], int) for k in keys)
        acks = spy.acks()
        assert len(acks) == 4
        # Every ack left before the shutdown's own force + checkpoint
        # moved the stable end past the last client write.
        assert system.log.buffered_lsis() == []
        final_end = system.log.stable_end_lsi()
        assert all(end < final_end for _frame, end in acks)


class TestShutdown:
    def test_graceful_stop_forces_and_checkpoints(self, shards):
        daemon = start_daemon(shards)
        system = target(daemon)
        client = client_for(daemon)
        lsi = client.put(key(daemon, "x"), b"v")
        client.close()
        assert daemon.stop(graceful=True) == 0
        assert system.log.buffered_lsis() == []
        assert system.log.is_stable(lsi)
        assert system.health is SystemHealth.HEALTHY

    def test_stop_is_idempotent(self, served):
        assert served.stop() == 0
        assert served.stop() == 0

    def test_kill_preserves_acked_writes(self, shards):
        daemon = start_daemon(shards)
        system = target(daemon)
        client = client_for(daemon)
        x = key(daemon, "x")
        lsi = client.put(x, b"survives")
        client.close()
        daemon.kill()
        # The harness completes the SIGKILL simulation.
        system.crash()
        system.recover()
        assert system.read(x) == b"survives"
        assert system.cache.vsi_of(x) >= lsi

    def test_connection_refused_after_stop(self, served):
        served.stop()
        client = client_for(served)
        with pytest.raises(Exception):
            client.ping()
        client.close()


#: What a put-only ``serve`` process must never import: the demo's
#: domains, the harnesses, the client, and the witness (which only
#: ``--witness-of`` builds).
UNSERVED = (
    "repro.domains", "repro.workloads.scenarios", "repro.replica.witness",
    "repro.livefire", "repro.kernel.torture", "repro.serve.client",
)


def _serve_process_imports(tmp_path, env) -> set:
    """Every module ``python -X importtime -m repro serve`` (file store,
    one shard, no HTTP) imports by the time it has acked one put and
    drained on SIGTERM."""
    port_file = tmp_path / "port.json"
    proc = subprocess.Popen(
        [sys.executable, "-X", "importtime", "-m", "repro", "serve",
         "--data-dir", str(tmp_path / "data"), "--store", "file",
         "--shards", "1", "--no-http", "--port", "0",
         "--port-file", str(port_file)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.monotonic() + 30
        while not port_file.exists():
            assert proc.poll() is None, proc.stderr.read()
            assert time.monotonic() < deadline, "no port file"
            time.sleep(0.02)
        client = DaemonClient(
            "127.0.0.1", json.loads(port_file.read_text())["port"]
        )
        client.put("budget", b"one put")
        client.close()
        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:") and "imported package" not in line
    }


class TestHTTPEndpoint:
    def test_healthz_and_metrics(self, shards):
        daemon = start_daemon(shards, http_port=0)
        try:
            base = f"http://127.0.0.1:{daemon.http_port}"
            with urllib.request.urlopen(f"{base}/healthz", timeout=5) as r:
                assert r.status == 200
                body = json.loads(r.read().decode())
            assert body["health"] == "healthy"
            assert body["restarts"] == 0
            assert body["killed"] == []
            assert len(body["shards"]) == shards
            with urllib.request.urlopen(f"{base}/metrics", timeout=5) as r:
                assert r.status == 200
                text = r.read().decode()
            assert "# TYPE" in text
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{base}/nope", timeout=5)
            assert excinfo.value.code == 404
        finally:
            daemon.stop(graceful=False)

    def test_http_stack_loads_only_with_the_endpoint(self, tmp_path):
        """A daemon, witness or embedded child started without the
        endpoint never imports ``http.server`` and what it drags in; one
        that asks for it still serves ``/healthz``.  Likewise a daemon
        that only serves puts never imports ``hashlib`` (OpenSSL): the
        first ``wl_*`` apply does, and digests exactly as before.  And a
        real ``serve`` process never imports the demo's domains, the
        harnesses, the client or the witness."""
        script = """
import sys
import repro.__main__, repro.serve.server, repro.topology
loaded = {name.split(".")[0] for name in sys.modules}
assert not loaded & {"http", "email", "ssl", "socketserver"}, loaded
unserved = [name for name in sys.modules if name.startswith(UNSERVED)]
assert not unserved, unserved
from repro import RecoverableSystem
from repro.serve import DaemonClient, DaemonConfig, ServeDaemon
from repro.topology import build_daemon, build_systems
served = build_daemon(
    build_systems(), DaemonConfig(port=0, http_port=None)
).start()
try:
    client = DaemonClient("127.0.0.1", served.port)
    client.put("left", b"L")
    client.put("right", b"R")
    assert not {"hashlib", "_hashlib"} & set(sys.modules)
    client.apply("wl_combine", ["left", "right"], ["right"], ["left", "right"])
    assert "hashlib" in sys.modules
    import hashlib
    assert client.get("right")[0] == hashlib.sha256(b"L" + b"R").digest()
    client.close()
finally:
    served.stop(graceful=False)
quiet = ServeDaemon(
    RecoverableSystem(), DaemonConfig(port=0, http_port=None)
).start()
quiet.stop(graceful=False)
assert "http.server" not in sys.modules
daemon = ServeDaemon(
    RecoverableSystem(), DaemonConfig(port=0, http_port=0)
).start()
try:
    assert "http.server" in sys.modules
    import urllib.request
    url = f"http://127.0.0.1:{daemon.http_port}/healthz"
    with urllib.request.urlopen(url, timeout=5) as reply:
        assert reply.status == 200
finally:
    daemon.stop(graceful=False)
from repro.obs import ObsHTTPServer
assert ObsHTTPServer is sys.modules["repro.obs.http"].ObsHTTPServer
"""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run(
            [sys.executable, "-c", f"UNSERVED = {UNSERVED!r}\n" + script],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        loaded = _serve_process_imports(tmp_path, env)
        assert {"repro.serve.server", "repro.persist.file_log"} <= loaded
        unserved = sorted(name for name in loaded if name.startswith(UNSERVED))
        assert not unserved, unserved

    def test_liveness_vs_readiness_when_degraded(self, shards):
        # The split: DEGRADED is *live* (restarting the process would
        # only repeat the escalation ladder) but not *ready* (it should
        # not receive fresh traffic).  Plain /healthz answers 200 with
        # the degraded body; /healthz?ready=1 answers 503.
        daemon = start_daemon(shards, http_port=0)
        try:
            target(daemon).enter_degraded({"gone"})
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

    def test_readiness_200_when_healthy(self, shards):
        daemon = start_daemon(shards, http_port=0)
        try:
            url = f"http://127.0.0.1:{daemon.http_port}/healthz?ready=1"
            with urllib.request.urlopen(url, timeout=5) as r:
                assert r.status == 200
                body = json.loads(r.read().decode())
            assert body["ready"] is True
        finally:
            daemon.stop(graceful=False)

    def test_liveness_503_only_when_failed(self, shards):
        daemon = start_daemon(shards, http_port=0)
        try:
            target(daemon).mark_failed()
            url = f"http://127.0.0.1:{daemon.http_port}/healthz"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(url, timeout=5)
            assert excinfo.value.code == 503
            body = json.loads(excinfo.value.read().decode())
            assert body["health"] == "failed"
        finally:
            daemon.stop(graceful=False)


class TestTopologyComesFromTheSystem:
    def test_config_has_no_shard_count(self):
        assert "shards" not in DaemonConfig.__dataclass_fields__

    def test_one_shard_group_is_the_single_kernel_server(self):
        # A ShardedSystem of one and a bare kernel are the same daemon:
        # the kernel's own registry carries the serve series.
        daemon = start_daemon(1)
        try:
            assert daemon.shards == 1
            assert daemon.obs is daemon.system.obs
        finally:
            daemon.stop(graceful=False)
        wrapped = ShardedSystem.build(1)
        daemon = ServeDaemon(wrapped, DaemonConfig(http_port=None)).start()
        try:
            assert daemon.system is wrapped.systems[0]
            assert daemon.obs is wrapped.systems[0].obs
        finally:
            daemon.stop(graceful=False)

    def test_replication_refuses_more_than_one_domain(self):
        from repro.replica import ReplicationConfig

        with pytest.raises(ValueError, match="exactly one"):
            ServeDaemon(
                ShardedSystem.build(2),
                DaemonConfig(http_port=None),
                replication=ReplicationConfig(),
            )

    def test_a_witness_takes_no_backup(self):
        from repro.replica import WitnessConfig
        from repro.topology import build_daemon

        with pytest.raises(ValueError, match="not from a backup"):
            build_daemon(
                ShardedSystem.build(1),
                DaemonConfig(http_port=None),
                witness=WitnessConfig(),
                backups=[None],
            )
