"""Distributed tracing + flight recorder: the observability tentpole.

Four clusters: trace-context wire semantics (round-trip, tolerance of
absent/malformed fields from old clients), span behavior under
exceptions inside the shard coordinator's fan-out, the flight
recorder's persistence contract (torn tails, reopen repair, self-dump
on FAILED, the /debug/flightrec endpoint), and the trace-tree
reconstruction that ``python -m repro trace`` runs.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.kernel.system import RecoverableSystem, SystemHealth
from repro.obs import MetricsRegistry, dump_jsonl
from repro.obs.flightrec import FlightRecorder, load_flightrec
from repro.obs.http import ObsHTTPServer
from repro.obs.tracetree import (
    build_trace,
    collect_spans,
    list_traces,
    render_tree,
    trace_has_stages,
)
from repro.obs.tracing import TraceContext
from repro.serve import BadRequestError, DaemonClient, RetryPolicy
from repro.serve import protocol
from repro.serve.server import DaemonConfig, ServeDaemon
from repro.shard import ShardedSystem
from repro.workloads import register_workload_functions


# ----------------------------------------------------------------------
# trace context: wire round-trip and tolerance
# ----------------------------------------------------------------------
class TestTraceContext:
    def test_mint_child_links_parent(self):
        root = TraceContext.mint()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_span == root.span_id
        assert child.span_id != root.span_id

    def test_wire_round_trip(self):
        ctx = TraceContext.mint()
        frame = {"kind": "put", protocol.TRACE_FIELD: ctx.to_wire()}
        parsed = protocol.request_trace(frame)
        assert parsed is not None
        assert parsed.trace_id == ctx.trace_id
        # The wire's span is the REMOTE parent: local stages derive
        # children from it, so the tree crosses the process boundary.
        assert parsed.span_id == ctx.span_id

    def test_tags_carry_trace_and_parent(self):
        root = TraceContext.mint()
        child = root.child()
        tags = child.tags()
        assert tags["trace"] == root.trace_id
        assert tags["span"] == child.span_id
        assert tags["parent_span"] == root.span_id
        assert "parent_span" not in root.tags()

    @pytest.mark.parametrize("frame", [
        {},                                         # old client: no field
        {"trace": None},
        {"trace": "garbage"},                       # not a dict
        {"trace": 42},
        {"trace": {}},                              # missing both keys
        {"trace": {"id": "abc"}},                   # missing span
        {"trace": {"span": "abc"}},                 # missing id
        {"trace": {"id": 123, "span": "abc"}},      # non-string id
        {"trace": {"id": "", "span": "abc"}},       # empty id
    ])
    def test_malformed_or_absent_trace_parses_to_none(self, frame):
        assert protocol.request_trace(frame) is None

    def test_server_tolerates_malformed_trace_from_old_clients(self):
        sharded = ShardedSystem.build(2)
        register_workload_functions(sharded.registry)
        daemon = ServeDaemon(
            sharded, DaemonConfig(port=0, http_port=None)
        ).start()
        try:
            import socket
            with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
                protocol.send_frame(sock, {
                    "id": 1, "kind": "put", "obj": "x", "value": 7,
                    "trace": {"id": 123, "span": ["nope"]},
                })
                response = protocol.recv_frame(sock)
            assert response["ok"], response
        finally:
            daemon.stop(graceful=False)

    def test_replication_frames_echo_the_trace(self):
        from repro.replica import wire
        ctx = TraceContext.mint().child()
        batch = wire.batch_frame(1, 5, [], trace=ctx.to_wire())
        assert protocol.request_trace(batch).trace_id == ctx.trace_id
        ack = wire.ack_frame(5, 1, trace=batch["trace"])
        assert protocol.request_trace(ack).trace_id == ctx.trace_id
        # Old peers omit the field entirely.
        assert "trace" not in wire.batch_frame(1, 5, [])
        assert "trace" not in wire.ack_frame(5, 1)


# ----------------------------------------------------------------------
# span nesting under exceptions in the coordinator fan-out
# ----------------------------------------------------------------------
def _cross_keys(daemon):
    router = daemon.sharded.router
    a = next(f"a{i}" for i in range(64) if router.shard_of(f"a{i}") == 0)
    b = next(f"b{i}" for i in range(64) if router.shard_of(f"b{i}") == 1)
    return a, b


class TestFanOutSpansUnderExceptions:
    def test_cross_shard_failure_closes_span_with_error_outcome(self):
        sharded = ShardedSystem.build(2)
        register_workload_functions(sharded.registry)
        daemon = ServeDaemon(
            sharded, DaemonConfig(port=0, http_port=None)
        ).start()
        try:
            a, b = _cross_keys(daemon)
            registry = MetricsRegistry()
            with DaemonClient("127.0.0.1", daemon.port, obs=registry,
                              policy=RetryPolicy(attempts=1)) as client:
                client.put(a, 1)
                client.put(b, 2)
                with pytest.raises(BadRequestError):
                    client.request(
                        "apply", fn="wl_not_registered",
                        reads=[a, b], writes=[a], params=[a, b],
                    )
                failed_trace = client.last_trace
                # The daemon must keep serving after the failed fan-out.
                client.put(a, 3)
            events = [e for e in daemon.obs.span_events("ack.apply_ms")
                      if e["tags"].get("trace") == failed_trace]
            assert len(events) == 1
            tags = events[0]["tags"]
            assert tags["outcome"] == "error"
            assert "wl_not_registered" in tags["error"]
            assert tags["cross"] is True
            # The rendezvous span of the same request completed cleanly.
            rendezvous = [
                e for e in daemon.obs.span_events("ack.rendezvous_ms")
                if e["tags"].get("trace") == failed_trace
            ]
            assert len(rendezvous) == 1
            assert "outcome" not in rendezvous[0]["tags"]
        finally:
            daemon.stop(graceful=False)

    def test_cross_shard_success_records_rendezvous_and_apply(self):
        sharded = ShardedSystem.build(2)
        register_workload_functions(sharded.registry)
        daemon = ServeDaemon(
            sharded, DaemonConfig(port=0, http_port=None)
        ).start()
        try:
            a, b = _cross_keys(daemon)
            registry = MetricsRegistry()
            with DaemonClient("127.0.0.1", daemon.port, obs=registry,
                              policy=RetryPolicy(attempts=1)) as client:
                client.put(a, 1)
                client.put(b, 2)
                client.request("apply", fn="wl_combine",
                               reads=[a, b], writes=[b], params=[a, b])
                trace_id = client.last_trace
            spans = ([e for e in registry.span_events()]
                     + [e for e in daemon.obs.span_events()])
            traced = [e for e in spans
                      if e["tags"].get("trace") == trace_id]
            roots = build_trace(traced, trace_id)
            assert trace_has_stages(
                roots,
                ["client.apply", "ack.rendezvous_ms", "ack.apply_ms"],
            )
            assert daemon.obs.histograms["ack.rendezvous_ms"].count >= 1
        finally:
            daemon.stop(graceful=False)


# ----------------------------------------------------------------------
# flight recorder persistence
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_is_bounded_and_ordered(self):
        recorder = FlightRecorder(capacity=4)
        for index in range(10):
            recorder.record("tick", {"n": index})
        events = recorder.events()
        assert [e["n"] for e in events] == [6, 7, 8, 9]

    def test_non_primitive_details_are_stringified(self):
        recorder = FlightRecorder(capacity=4)
        recorder.emit("odd", payload=object(), ok=True, count=3)
        event = recorder.events()[0]
        assert isinstance(event["payload"], str)
        assert event["ok"] is True and event["count"] == 3

    def test_continuous_append_survives_no_close(self, tmp_path):
        path = str(tmp_path / "flightrec.jsonl")
        recorder = FlightRecorder(path, capacity=16)
        recorder.record("one", {"n": 1})
        recorder.record("two", {"n": 2})
        # No close(): the SIGKILL model — the flushed lines are there.
        events = load_flightrec(path)
        assert [e["kind"] for e in events] == ["one", "two"]

    def test_per_operation_kinds_reach_every_sink_but_the_recorder(
        self, tmp_path
    ):
        from repro.obs.flightrec import PER_OPERATION_KINDS
        from tests.conftest import EventSink

        path = str(tmp_path / "flightrec.jsonl")
        recorder = FlightRecorder(path, capacity=16)
        sink = EventSink()
        registry = MetricsRegistry()
        registry.subscribe(recorder)
        registry.subscribe(sink)
        for kind in sorted(PER_OPERATION_KINDS):
            registry.emit(kind, obj="a")
        registry.emit("checkpoint", lsi=7)
        # The other sink and the counters saw all of them...
        assert sink.kinds() == [
            *sorted(PER_OPERATION_KINDS), "checkpoint",
        ]
        assert registry.counters["events.execute"] == 1
        assert registry.counters["events.install"] == 1
        # ...the recorder, in ring and on file, only the rare one: the
        # WAL is the per-operation record.
        assert [e["kind"] for e in recorder.events()] == ["checkpoint"]
        assert load_flightrec(path) == recorder.events()

    def test_every_recorded_event_is_on_file_when_record_returns(
        self, tmp_path
    ):
        path = str(tmp_path / "flightrec.jsonl")
        recorder = FlightRecorder(path, capacity=16)
        # One path, no waiting lines: whatever the kind, and whether it
        # came through ``emit`` or ``record``, the file has it at once,
        # in the order things happened.
        recorder.record("execute", {"lsi": 1})
        assert [e["kind"] for e in load_flightrec(path)] == ["execute"]
        recorder.emit("watchdog.crash", cause="SimulatedCrash")
        assert [e["kind"] for e in load_flightrec(path)] == [
            "execute", "watchdog.crash",
        ]
        assert load_flightrec(path) == recorder.events()

    def test_the_file_is_bounded_by_compaction(self, tmp_path):
        from repro.obs import flightrec

        path = str(tmp_path / "flightrec.jsonl")
        recorder = FlightRecorder(path, capacity=4)
        bound = (1 + flightrec._COMPACT_SLACK) * recorder.capacity + 1
        for index in range(10 * bound):
            recorder.record("tick", {"n": index})
            assert len(load_flightrec(path)) <= bound
        # A compaction rewrote the file to the ring; the newest event
        # is always its last line.
        assert load_flightrec(path)[-1]["n"] == 10 * bound - 1
        assert any(
            e["kind"] == "flightrec.dump" and e["reason"] == "compact"
            for e in load_flightrec(path)
        )

    def test_dump_and_close_write_each_event_once(self, tmp_path):
        path = str(tmp_path / "flightrec.jsonl")
        recorder = FlightRecorder(path, capacity=8)
        recorder.record("tick", {"n": 1})
        recorder.dump("testing")
        assert [e["kind"] for e in load_flightrec(path)] == [
            "tick", "flightrec.dump",
        ]
        recorder.record("tick", {"n": 2})
        recorder.close()
        events = load_flightrec(path)
        assert [e["n"] for e in events if e["kind"] == "tick"] == [1, 2]
        assert events[-1]["kind"] == "flightrec.dump"

    def test_flat_sequences_are_json_arrays(self, tmp_path):
        path = str(tmp_path / "flightrec.jsonl")
        recorder = FlightRecorder(path, capacity=8)
        recorder.record("probe", {
            "writes": ("k0295",), "mixed": [1, "a", None],
            "nested": ((1, 2),), "odd": {"a": 1},
        })
        (event,) = load_flightrec(path)
        assert event["writes"] == ["k0295"]
        assert event["mixed"] == [1, "a", None]
        # Anything deeper is still stringified, never a JSON failure.
        assert event["nested"] == "((1, 2),)"
        assert event["odd"] == "{'a': 1}"

    def test_dump_rewrites_with_reason_trailer(self, tmp_path):
        path = str(tmp_path / "flightrec.jsonl")
        recorder = FlightRecorder(path, capacity=8)
        for index in range(20):
            recorder.record("tick", {"n": index})
        assert recorder.dump("testing") == path
        events = load_flightrec(path)
        assert events[-1]["kind"] == "flightrec.dump"
        assert events[-1]["reason"] == "testing"
        # Exactly the ring (bounded), not the whole append history.
        assert len(events) == 9

    def test_torn_tail_is_tolerated_interior_corruption_is_not(
        self, tmp_path
    ):
        path = str(tmp_path / "flightrec.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"kind": "a"}) + "\n")
            handle.write('{"kind": "torn-mid-wr')
        events = load_flightrec(path)
        assert [e["kind"] for e in events] == ["a"]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"kind": garbage}\n')
            handle.write(json.dumps({"kind": "b"}) + "\n")
        with pytest.raises(ValueError):
            load_flightrec(path)

    def test_reopen_repairs_a_torn_tail(self, tmp_path):
        path = str(tmp_path / "flightrec.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"kind": "before-kill"}) + "\n")
            handle.write('{"kind": "torn')
        recorder = FlightRecorder(path, capacity=8)
        recorder.record("after-restart", {})
        # The torn fragment is gone and the new append did not fuse
        # with it into a malformed interior line.
        kinds = [e["kind"] for e in load_flightrec(path)]
        assert kinds == ["before-kill", "after-restart"]
        # A dump on close then bounds the file to the ring.
        recorder.close()
        assert load_flightrec(path)[-1]["kind"] == "flightrec.dump"

    def test_restart_keeps_the_previous_lifecycle_across_a_dump(
        self, tmp_path
    ):
        path = str(tmp_path / "flightrec.jsonl")
        killed = FlightRecorder(path, capacity=8)
        killed.record("daemon.start", {"pid": 1})
        killed.record("daemon.serving", {})
        del killed  # SIGKILL: no close(), no dump
        restarted = FlightRecorder(path, capacity=8)
        restarted.record("daemon.start", {"pid": 2})
        restarted.dump("testing")
        events = load_flightrec(path)
        assert [(e["kind"], e.get("pid")) for e in events] == [
            ("daemon.start", 1), ("daemon.serving", None),
            ("daemon.start", 2), ("flightrec.dump", None),
        ]
        # The ring is bounded as ever: the oldest of the seeded events
        # make room for the new ones.
        for index in range(8):
            restarted.record("tick", {"n": index})
        assert len(restarted.events()) == 8

    def test_self_dump_on_failed_health_transition(self, tmp_path):
        path = str(tmp_path / "flightrec.jsonl")
        recorder = FlightRecorder(path, capacity=8)
        recorder.emit("health.transition",
                      **{"from": "serving", "to": "failed"})
        events = load_flightrec(path)
        assert events[-1]["kind"] == "flightrec.dump"
        assert events[-1]["reason"] == "failed"

    def test_system_health_transitions_reach_a_subscribed_recorder(self):
        recorder = FlightRecorder(capacity=32)
        system = RecoverableSystem()
        system.attach_metrics(MetricsRegistry())
        system.obs.subscribe(recorder)
        system.crash()
        system.recover()
        transitions = [e for e in recorder.events()
                       if e["kind"] == "health.transition"]
        assert transitions, "health property did not emit transitions"
        assert transitions[-1]["to"] == SystemHealth.HEALTHY.value
        assert all("from" in e for e in transitions)

    def test_debug_flightrec_endpoint(self, tmp_path):
        path = str(tmp_path / "flightrec.jsonl")
        recorder = FlightRecorder(path, capacity=8)
        recorder.record("probe", {"n": 1})
        server = ObsHTTPServer(
            lambda: None,
            lambda: (200, {"health": "healthy"}),
            port=0,
            flightrec_provider=lambda: recorder,
        )
        server.start()
        try:
            base = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(base + "/debug/flightrec") as resp:
                doc = json.loads(resp.read())
            assert doc["dumped"] is None
            assert [e["kind"] for e in doc["events"]] == ["probe"]
            with urllib.request.urlopen(
                base + "/debug/flightrec?dump=1"
            ) as resp:
                doc = json.loads(resp.read())
            assert doc["dumped"] == path
            assert load_flightrec(path)[-1]["reason"] == "endpoint"
        finally:
            server.stop()

    def test_debug_flightrec_404_without_recorder(self):
        server = ObsHTTPServer(
            lambda: None, lambda: (200, {"health": "healthy"}), port=0
        )
        server.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/debug/flightrec"
                )
            assert err.value.code == 404
        finally:
            server.stop()


# ----------------------------------------------------------------------
# trace-tree reconstruction
# ----------------------------------------------------------------------
def _span(name, trace, span, parent=None, seconds=0.001, ts=0.0, **tags):
    tags = dict(tags)
    tags.update({"trace": trace, "span": span})
    if parent is not None:
        tags["parent_span"] = parent
    return {"name": name, "seconds": seconds, "ts": ts, "tags": tags}


class TestTraceTree:
    def test_forest_when_a_parent_export_is_missing(self):
        spans = [
            _span("client.put", "t1", "s1", ts=1.0, seconds=0.01),
            _span("ack.queue_ms", "t1", "s2", parent="s1", ts=1.001),
            _span("witness.adopt_ms", "t1", "s9", parent="missing",
                  ts=1.002),
        ]
        roots = build_trace(spans, "t1")
        assert len(roots) == 2  # orphan becomes a second root
        assert not trace_has_stages(roots, ["client.put"])

    def test_complete_tree_and_attribution(self):
        spans = [
            _span("client.put", "t2", "s1", ts=1.0, seconds=0.010),
            _span("ack.queue_ms", "t2", "s2", parent="s1", ts=1.001,
                  seconds=0.002),
            _span("ack.force_ms", "t2", "s3", parent="s1", ts=1.002,
                  seconds=0.003),
        ]
        roots = build_trace(spans, "t2")
        assert len(roots) == 1
        assert trace_has_stages(
            roots, ["client.put", "ack.queue_ms", "ack.force_ms"]
        )
        root = roots[0]
        assert [c.name for c in root.children] == [
            "ack.queue_ms", "ack.force_ms"
        ]
        assert root.self_ms() == pytest.approx(5.0)
        rendered = render_tree(roots, "t2")
        assert "client.put" in rendered
        assert "stage attribution" in rendered

    def test_list_traces_newest_first(self):
        spans = [
            _span("client.put", "told", "s1", ts=1.0),
            _span("client.put", "tnew", "s2", ts=9.0),
        ]
        assert [s["trace"] for s in list_traces(spans)] == ["tnew", "told"]

    def test_collect_spans_reads_exports_and_drops_untraced(self, tmp_path):
        registry = MetricsRegistry()
        ctx = TraceContext.mint()
        with registry.span("client.put", **ctx.tags()):
            pass
        with registry.span("internal.phase"):
            pass
        path = str(tmp_path / "out.jsonl")
        dump_jsonl(registry, path)
        spans = collect_spans([path])
        assert [s["name"] for s in spans] == ["client.put"]
        assert spans[0]["_source"] == path

    def test_cli_expect_verdicts(self, tmp_path, capsys):
        from repro.obs import tracetree
        registry = MetricsRegistry()
        ctx = TraceContext.mint()
        with registry.span("client.put", **ctx.tags()):
            with registry.span("ack.force_ms", **ctx.child().tags()):
                pass
        path = str(tmp_path / "out.jsonl")
        dump_jsonl(registry, path)
        assert tracetree.main(
            [path], expect=["client.put", "ack.force_ms"]
        ) == 0
        assert "OK" in capsys.readouterr().out
        assert tracetree.main(
            [path], expect=["witness.ack_ms"]
        ) == 1

    def test_main_cli_trace_missing_file(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main
        missing = str(tmp_path / "nope.jsonl")
        assert cli_main(["trace", missing]) != 0
        capsys.readouterr()

    def test_main_cli_trace_subcommand(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main
        registry = MetricsRegistry()
        ctx = TraceContext.mint()
        with registry.span("client.put", **ctx.tags()):
            pass
        path = str(tmp_path / "out.jsonl")
        dump_jsonl(registry, path)
        assert cli_main(["trace", path, "--list"]) == 0
        assert ctx.trace_id in capsys.readouterr().out
        assert cli_main(["trace", path, "--expect", "client.put"]) == 0
        capsys.readouterr()


# ----------------------------------------------------------------------
# the documented-name audit: docs/API.md is the canonical registry
# ----------------------------------------------------------------------
def _documented_patterns():
    """Regexes for every backticked name in API.md's telemetry section."""
    import re
    text = (Path(__file__).resolve().parent.parent
            / "docs" / "API.md").read_text(encoding="utf-8")
    match = re.search(
        r"^## Telemetry names.*?(?=^## |\Z)", text, re.M | re.S
    )
    assert match, "API.md lost its '## Telemetry names' section"
    patterns = []
    for token in re.findall(r"`([^`]+)`", match.group(0)):
        if not re.sub(r"<[^>]*>|\W", "", token):
            # All placeholder (the intro's `<...>`): it names nothing,
            # and as a pattern it would match every name.
            continue
        # Placeholders like <kind> / <k> match any non-empty segment(s).
        escaped = re.escape(token)
        # re.escape may or may not escape <> depending on the Python
        # version; accept either form.
        pattern = re.sub(r"\\?<[^>]*?\\?>", r".+", escaped)
        patterns.append(re.compile(pattern + r"\Z"))
    return patterns


def _registered_names(registry) -> set:
    snap = registry.snapshot()
    names = set(snap["counters"]) | set(snap["gauges"])
    names |= set(snap["histograms"])
    names |= {event["name"] for event in registry.span_events()}
    return names


class TestTelemetryNameAudit:
    def test_every_registered_name_is_documented(self):
        names = set()

        # Scenario 1: supervised recovery on an instrumented kernel.
        system = RecoverableSystem()
        registry = system.attach_metrics(MetricsRegistry())
        from repro import RecoverySupervisor, identity_write
        system.execute(identity_write("k", 1))
        system.crash()
        RecoverySupervisor(system).run()
        names |= _registered_names(registry)

        # Scenario 2: a replicated pair with a traced client and one
        # rejection (covers serve.*, ack.*, repl.*, witness.*).
        from repro.replica import (
            ReplicationConfig, WitnessConfig, WitnessDaemon,
        )
        from repro.serve import DaemonConfig, ServeDaemon
        primary_system = RecoverableSystem()
        register_workload_functions(primary_system.registry)
        primary_system.attach_metrics(MetricsRegistry())
        primary = ServeDaemon(
            primary_system,
            DaemonConfig(port=0, http_port=None, retry_after_ms=5),
            replication=ReplicationConfig(ack_timeout_s=5.0),
        ).start()
        witness_system = RecoverableSystem()
        register_workload_functions(witness_system.registry)
        witness_system.attach_metrics(MetricsRegistry())
        witness = WitnessDaemon(
            witness_system,
            DaemonConfig(port=0, http_port=None, retry_after_ms=5),
            witness=WitnessConfig(
                primary_port=primary.port, reconnect_delay_s=0.02
            ),
        ).start()
        try:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if witness.attached and primary.replication.attached:
                    break
                time.sleep(0.01)
            client_registry = MetricsRegistry()
            with DaemonClient("127.0.0.1", primary.port,
                              obs=client_registry,
                              policy=RetryPolicy(attempts=1)) as client:
                client.put("audit", 1)
                client.get("audit")
                with pytest.raises(BadRequestError):
                    client.request("put", value=1)  # no obj
        finally:
            witness.stop(graceful=False)
            primary.stop()
        names |= _registered_names(client_registry)
        names |= _registered_names(primary_system.obs)
        names |= _registered_names(witness_system.obs)

        # Scenario 3: sharded daemon with chaos + a cross-shard apply.
        sharded = ShardedSystem.build(2)
        register_workload_functions(sharded.registry)
        daemon = ServeDaemon(
            sharded,
            DaemonConfig(port=0, http_port=None, allow_chaos=True),
        ).start()
        try:
            a, b = _cross_keys(daemon)
            with DaemonClient("127.0.0.1", daemon.port,
                              obs=MetricsRegistry()) as client:
                client.put(a, 1)
                client.put(b, 2)
                client.request("apply", fn="wl_combine", reads=[a, b],
                               writes=[b], params=[a, b])
                client.request("kill_shard", shard=1)
                client.request("revive_shard", shard=1)
            names |= _registered_names(daemon.obs)
            for shard_system in daemon.sharded.systems:
                names |= _registered_names(shard_system.obs)
        finally:
            daemon.stop(graceful=False)

        # Scenario 4: a one-run supervised torture campaign over a
        # durable store (covers torture.* and the last run's ledgers).
        from repro.kernel.torture import (
            RECOVERY, TortureConfig, TortureHarness,
        )
        registry = MetricsRegistry()
        TortureHarness(
            TortureConfig(objects=3, operations=8, store_backend="logstore"),
            metrics=registry,
        ).fuzz(1, seed=0, phase=RECOVERY)
        names |= _registered_names(registry)

        patterns = _documented_patterns()
        undocumented = sorted(
            name for name in names
            if not any(p.match(name) for p in patterns)
        )
        assert not undocumented, (
            "registered telemetry names missing from docs/API.md "
            f"'Telemetry names' section: {undocumented}"
        )


# ----------------------------------------------------------------------
# ms-span histogram convention
# ----------------------------------------------------------------------
class TestMsSpans:
    def test_ms_spans_feed_ms_buckets(self):
        registry = MetricsRegistry()
        with registry.span("ack.force_ms"):
            pass
        registry.record_span("ack.queue_ms", 0.5)
        force = registry.histograms["ack.force_ms"]
        queue = registry.histograms["ack.queue_ms"]
        assert queue.count == 1
        # 0.5 s observed as 500 ms, not 0.5 of anything else.
        assert queue.total == pytest.approx(500.0)
        assert force.boundaries == queue.boundaries
        # Span *events* keep seconds for cross-tool consistency.
        event = registry.span_events("ack.queue_ms")[0]
        assert event["seconds"] == pytest.approx(0.5)

    def test_plain_spans_keep_second_buckets(self):
        registry = MetricsRegistry()
        with registry.span("recovery.attempt"):
            pass
        assert registry.histograms["recovery.attempt"].boundaries[0] < 0.01
