"""Request telemetry is an aggregate unless the request is traced.

An untraced acked write observes its stage histograms and appends
nothing — not to the span ring, not to the flight recorder's ring, not
to ``flightrec.jsonl`` — so both rings keep what they exist for: the
daemon's lifecycle and the spans of its last recovery.  A traced
request still leaves its whole ``ack.*`` tree.
"""

from __future__ import annotations

import os

import pytest

from repro import MetricsRegistry
from repro.obs import NULL_OBS, TraceContext
from repro.obs.flightrec import load_flightrec
from repro.obs.tracing import record_stage, stage
from repro.obs.tracetree import build_trace, trace_has_stages
from repro.persist import PersistentSystem
from repro.serve import DaemonClient, DaemonConfig, ServeDaemon
from tests.conftest import client_rounds, start_pair, wait_until

KEYS = 32
ACK_STAGES = ("ack.queue_ms", "ack.apply_ms", "ack.force_ms")
REPL_STAGES = ("repl.ship_ms", "witness.adopt_ms", "witness.ack_ms")


def test_stage_helpers_decide_on_the_context():
    obs = MetricsRegistry()
    with stage(obs, "ack.apply_ms", None, shard=0):
        pass
    with pytest.raises(ValueError):
        with stage(obs, "ack.apply_ms", None):
            raise ValueError("still timed")
    record_stage(obs, "ack.queue_ms", 0.5, None, kind="put")
    assert not obs.spans
    assert obs.histograms["ack.apply_ms"].count == 2
    assert obs.histograms["ack.queue_ms"].total == pytest.approx(500.0)

    ctx = TraceContext.mint().child()
    with pytest.raises(ValueError):
        with stage(obs, "ack.apply_ms", ctx, shard=0):
            raise ValueError("boom")
    record_stage(obs, "ack.queue_ms", 0.25, ctx, ts=12.0, kind="put")
    applied, queued = obs.span_events()
    assert applied["tags"] == {
        "shard": 0, "outcome": "error", "error": "ValueError('boom')",
        **ctx.tags(),
    }
    assert (queued["ts"], queued["seconds"]) == (12.0, 0.25)
    assert queued["tags"] == {"kind": "put", **ctx.tags()}
    assert obs.histograms["ack.apply_ms"].count == 3
    assert obs.histograms["ack.queue_ms"].count == 2

    with stage(NULL_OBS, "ack.apply_ms", None):  # no registry: no-ops
        record_stage(NULL_OBS, "ack.queue_ms", 0.1, ctx)


def _untraced_puts(port: int, count: int) -> None:
    """``count`` acked puts over ``KEYS`` keys, none carrying a trace."""
    client_rounds(
        port, count,
        lambda client, rng, i: client.put(f"k{i % KEYS}", b"v%d" % i),
    )


def _counts(registry, names):
    return {name: registry.histograms[name].count for name in names}


def _settles(probe, expected) -> bool:
    """``probe() == expected`` soon: a stage that ends with the reply's
    ``send`` is observed just after the client has the reply."""
    return wait_until(lambda: probe() == expected)


def _traced_put(port: int, obj: str):
    """One put from a client with a registry: its spans and trace id."""
    registry = MetricsRegistry()
    with DaemonClient("127.0.0.1", port, obs=registry) as client:
        client.put(obj, b"traced")
        return registry.span_events(), client.last_trace


def _of_trace(events, trace_id):
    return [e for e in events if e["tags"].get("trace") == trace_id]


def _file_daemon(tmp_path, **config_kw) -> ServeDaemon:
    system = PersistentSystem.open(str(tmp_path / "db"))
    config = DaemonConfig(
        port=0,
        http_port=None,
        flightrec_path=str(tmp_path / "db" / "flightrec.jsonl"),
        **config_kw,
    )
    return ServeDaemon(system, config).start()


def test_lifecycle_history_survives_traffic(tmp_path):
    daemon = _file_daemon(tmp_path, allow_chaos=True)
    path = daemon.config.flightrec_path
    try:
        _untraced_puts(daemon.port, 64)
        daemon.kill_shard(0)
        daemon.revive_shard(0)
        revive_spans = {
            name: daemon.obs.span_events(name)
            for name in ("recovery.attempt", "recovery.redo", "recovery.scrub")
        }
        assert all(revive_spans.values())
        chain = [
            (e["from"], e["to"])
            for e in daemon.flightrec.events()
            if e["kind"] == "health.transition"
        ]
        assert chain and chain[-1][1] == "healthy"

        _untraced_puts(daemon.port, 10_000)

        # SIGKILL model: nothing below waited for a close() or a dump.
        for events in (daemon.flightrec.events(), load_flightrec(path)):
            kinds = [e["kind"] for e in events]
            assert kinds[0] == "daemon.start"
            assert "daemon.serving" in kinds
            assert kinds.index("shard.kill") < kinds.index("shard.revive")
            assert "execute" not in kinds
            assert [
                (e["from"], e["to"])
                for e in events if e["kind"] == "health.transition"
            ] == chain
        for name, spans in revive_spans.items():
            assert daemon.obs.span_events(name) == spans
    finally:
        daemon.stop(graceful=False)


def test_an_untraced_write_appends_nothing(tmp_path):
    daemon = _file_daemon(tmp_path)
    path = daemon.config.flightrec_path
    obs = daemon.obs
    stages = (*ACK_STAGES, "serve.request_seconds")
    try:
        _untraced_puts(daemon.port, 500)
        before = dict.fromkeys(stages, 500)
        assert _settles(lambda: _counts(obs, stages), before)
        held = (
            len(obs.spans), len(daemon.flightrec.events()),
            os.path.getsize(path),
        )
        _untraced_puts(daemon.port, 2_500)
        client_spans, trace_id = _traced_put(daemon.port, "traced")
        _untraced_puts(daemon.port, 2_500)

        def rose():
            after = _counts(obs, stages)
            return {name: after[name] - before[name] for name in stages}

        assert _settles(rose, dict.fromkeys(stages, 5_001)), rose()
        # The one traced request left exactly its tree, with the stage
        # names and parent links it always had...
        tree = _of_trace(obs.span_events(), trace_id)
        assert sorted(e["name"] for e in tree) == sorted(ACK_STAGES)
        root = next(e for e in client_spans if e["name"] == "client.put")
        assert {e["tags"]["parent_span"] for e in tree} == {
            root["tags"]["span"]
        }
        assert trace_has_stages(
            build_trace(client_spans + tree, trace_id),
            ["client.put", *ACK_STAGES],
        )
        # ...and the 5 000 untraced ones left nothing anywhere.
        assert (
            len(obs.spans) - len(tree), len(daemon.flightrec.events()),
            os.path.getsize(path),
        ) == held
        with DaemonClient("127.0.0.1", daemon.port) as client:
            gauges = client.stats()["gauges"]
        assert gauges["obs.span_events"] == len(obs.spans)
        assert gauges["flightrec.events"] == held[1]
        assert gauges["flightrec.file_bytes"] == held[2]
        assert gauges["serve.queue_depth"] == 0
        assert gauges["serve.shard.0.queue_depth"] == 0
    finally:
        daemon.stop(graceful=False)


def test_an_untraced_replicated_write_appends_nothing():
    # No redo cycle (a recovery: lifecycle spans and health events of
    # its own) inside the measured run.
    primary, witness = start_pair(redo_every_records=1_000_000)
    try:
        _untraced_puts(primary.port, 200)
        daemons = (primary, witness)
        held = [
            (len(d.obs.spans), len(d.flightrec.events())) for d in daemons
        ]
        shipped = _counts(primary.obs, REPL_STAGES[:1])
        adopted = dict.fromkeys(REPL_STAGES[1:], shipped["repl.ship_ms"])
        assert _settles(lambda: _counts(witness.obs, REPL_STAGES[1:]), adopted)
        _untraced_puts(primary.port, 1_000)
        client_spans, trace_id = _traced_put(primary.port, "traced")
        _untraced_puts(primary.port, 1_000)

        # Batches, not writes, ship: every stage ran, and ran once per
        # batch on both sides.
        batches = primary.obs.histograms["repl.ship_ms"].count - shipped[
            "repl.ship_ms"
        ]
        assert 0 < batches <= 2_001

        def adopts():
            return {
                name: count - adopted[name] for name, count
                in _counts(witness.obs, REPL_STAGES[1:]).items()
            }

        assert _settles(adopts, dict.fromkeys(REPL_STAGES[1:], batches))
        # The traced put's tree crosses to the witness and back.
        def names(daemon):
            tree = _of_trace(daemon.obs.span_events(), trace_id)
            return sorted(e["name"] for e in tree)

        assert names(primary) == sorted(
            [*ACK_STAGES, "ack.repl_wait_ms", "repl.ship_ms"]
        )
        assert _settles(lambda: names(witness), sorted(REPL_STAGES[1:]))
        primary_tree = _of_trace(primary.obs.span_events(), trace_id)
        witness_tree = _of_trace(witness.obs.span_events(), trace_id)
        assert trace_has_stages(
            build_trace(client_spans + primary_tree + witness_tree, trace_id),
            ["client.put", "ack.repl_wait_ms", *REPL_STAGES],
        )
        assert [
            (len(d.obs.spans) - len(tree), len(d.flightrec.events()))
            for d, tree in zip(daemons, (primary_tree, witness_tree))
        ] == held
    finally:
        witness.stop(graceful=False)
        primary.kill()
