"""Unit tests for repro.obs: histograms, spans, the registry,
collectors, the event stream, the null object, and both exporters."""

import math

import pytest

from repro.obs import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    NULL_OBS,
    NullRegistry,
    dump_jsonl,
    load_jsonl,
    render_prometheus,
)
from repro.obs.export import sanitize_metric_name


class TestHistogram:
    def test_boundary_is_inclusive_upper_bound(self):
        hist = Histogram("h", boundaries=(1.0, 2.0, 4.0))
        hist.observe(1.0)  # le=1.0 bucket (Prometheus le semantics)
        hist.observe(1.5)  # le=2.0
        hist.observe(2.0)  # le=2.0
        hist.observe(4.0)  # le=4.0
        hist.observe(9.0)  # overflow
        assert hist.buckets == [1, 2, 1, 1]
        assert hist.count == 5

    def test_every_default_latency_boundary_lands_in_own_bucket(self):
        hist = Histogram("h")
        for boundary in LATENCY_BUCKETS:
            hist.observe(boundary)
        assert hist.buckets == [1] * len(LATENCY_BUCKETS) + [0]

    def test_count_buckets_are_powers_of_two(self):
        hist = Histogram("h", boundaries=COUNT_BUCKETS)
        hist.observe(3)
        assert hist.buckets[2] == 1  # le=4

    def test_quantiles(self):
        hist = Histogram("h", boundaries=(1.0, 2.0, 4.0, 8.0))
        for value in (0.5, 0.6, 0.7, 0.8, 0.9, 1.5, 1.6, 1.7, 3.0, 7.0):
            hist.observe(value)
        # p50: rank 5 of 10 -> cumulative reaches 5 in the le=1.0 bucket.
        assert hist.quantile(0.5) == 1.0
        # p99: rank 9.9 -> last occupied bucket (le=8.0), capped at max.
        assert hist.quantile(0.99) == 7.0

    def test_quantile_empty_and_overflow(self):
        hist = Histogram("h", boundaries=(1.0,))
        assert hist.quantile(0.5) == 0.0
        hist.observe(100.0)
        assert hist.quantile(0.5) == 100.0  # overflow reports max

    def test_mean_min_max(self):
        hist = Histogram("h", boundaries=(10.0,))
        hist.observe(2.0)
        hist.observe(4.0)
        assert hist.mean == 3.0
        assert hist.min == 2.0
        assert hist.max == 4.0
        snap = hist.snapshot()
        assert snap["count"] == 2
        assert snap["sum"] == 6.0

    def test_rejects_empty_boundaries(self):
        with pytest.raises(ValueError):
            Histogram("h", boundaries=())


class TestRegistryPrimitives:
    def test_counters_and_gauges(self):
        reg = MetricsRegistry()
        reg.count("a")
        reg.count("a", 4)
        reg.gauge("g", 7.5)
        reg.gauge("g", 2.5)
        assert reg.counters["a"] == 5
        assert reg.gauges["g"] == 2.5

    def test_observe_creates_histogram_once(self):
        reg = MetricsRegistry()
        reg.observe("h", 0.001)
        reg.observe("h", 0.002)
        assert reg.histograms["h"].count == 2

    def test_clear(self):
        reg = MetricsRegistry()
        reg.count("a")
        reg.observe("h", 1.0)
        with reg.span("s"):
            pass
        reg.clear()
        assert not reg.counters
        assert not reg.histograms
        assert not reg.spans


class TestSpans:
    def test_duration_lands_in_same_named_histogram(self):
        reg = MetricsRegistry()
        with reg.span("phase.x"):
            pass
        assert reg.histograms["phase.x"].count == 1

    def test_nesting_records_parent(self):
        reg = MetricsRegistry()
        with reg.span("outer"):
            with reg.span("inner"):
                pass
        events = {event["name"]: event for event in reg.span_events()}
        assert events["inner"]["parent"] == "outer"
        assert events["outer"]["parent"] is None
        assert not reg._span_stack

    def test_tags_and_tag_method(self):
        reg = MetricsRegistry()
        with reg.span("s", attempt=3) as span:
            span.tag(outcome="converged")
        (event,) = reg.span_events("s")
        assert event["tags"] == {"attempt": 3, "outcome": "converged"}

    def test_exception_safety(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with reg.span("outer"):
                with reg.span("inner"):
                    raise RuntimeError("boom")
        events = {event["name"]: event for event in reg.span_events()}
        assert events["inner"]["tags"]["outcome"] == "error"
        assert "boom" in events["inner"]["tags"]["error"]
        assert events["outer"]["tags"]["outcome"] == "error"
        # The stack fully unwound: a new span is a root again.
        with reg.span("after"):
            pass
        assert reg.span_events("after")[0]["parent"] is None

    def test_span_deque_is_bounded(self):
        reg = MetricsRegistry(max_span_events=3)
        for index in range(5):
            with reg.span("s", n=index):
                pass
        kept = [event["tags"]["n"] for event in reg.span_events()]
        assert kept == [2, 3, 4]
        # The histogram still saw every completion.
        assert reg.histograms["s"].count == 5


class TestCollectorsAndSinks:
    def test_collector_values_merge_into_snapshot(self):
        reg = MetricsRegistry()
        reg.add_collector("io", lambda: {"reads": 7, "mode": "rw"})
        snap = reg.snapshot()
        assert snap["counters"]["io.reads"] == 7
        assert snap["info"]["io.mode"] == "rw"

    def test_gauge_collector_is_polled_into_the_gauges(self):
        reg = MetricsRegistry()
        depth = [3]
        reg.gauge("pushed", 1)
        reg.add_collector("serve", lambda: {"queue_depth": depth[0]},
                          gauges=True)
        snap = reg.snapshot()
        assert snap["gauges"] == {"pushed": 1, "serve.queue_depth": 3}
        assert "serve.queue_depth" not in snap["counters"]
        # Polled at every read, stored nowhere in between.
        depth[0] = 0
        assert reg.snapshot()["gauges"]["serve.queue_depth"] == 0
        assert reg.gauges == {"pushed": 1}

    def test_counter_value_compat_accessor(self):
        reg = MetricsRegistry()
        reg.count("direct", 2)
        reg.add_collector("io", lambda: {"reads": 7})
        assert reg.counter_value("direct") == 2
        assert reg.counter_value("io.reads") == 7
        assert reg.counter_value("io.missing") == 0
        assert reg.counter_value("nope.reads") == 0

    def test_collector_prefix_replaces(self):
        reg = MetricsRegistry()
        reg.add_collector("io", lambda: {"reads": 1})
        reg.add_collector("io", lambda: {"reads": 99})
        assert reg.counter_value("io.reads") == 99
        assert len(reg._collectors) == 1

    def test_emit_counts_and_fans_out(self):
        reg = MetricsRegistry()
        seen = []

        class Sink:
            def emit(self, kind, **details):
                seen.append((kind, details))

        sink = Sink()
        reg.subscribe(sink)
        reg.subscribe(sink)  # idempotent
        reg.emit("install", obj="x")
        assert seen == [("install", {"obj": "x"})]
        assert reg.counters["events.install"] == 1
        reg.unsubscribe(sink)
        reg.emit("install", obj="y")
        assert len(seen) == 1


class TestNullRegistry:
    def test_shared_instance_disabled(self):
        assert isinstance(NULL_OBS, NullRegistry)
        assert NULL_OBS.enabled is False

    def test_all_operations_are_noops(self):
        NULL_OBS.count("a")
        NULL_OBS.gauge("g", 1.0)
        NULL_OBS.observe("h", 1.0)
        NULL_OBS.emit("kind", detail=1)
        NULL_OBS.add_collector("p", dict)
        NULL_OBS.subscribe(object())
        with NULL_OBS.span("s", a=1) as span:
            span.tag(b=2)
        assert NULL_OBS.span_events() == []
        assert NULL_OBS.counter_value("a") == 0
        snap = NULL_OBS.snapshot()
        assert snap["counters"] == {}
        assert snap["histograms"] == {}

    def test_null_span_is_shared(self):
        assert NULL_OBS.span("a") is NULL_OBS.span("b")


class TestExporters:
    def _populated(self):
        reg = MetricsRegistry()
        reg.count("wal.appends", 12)
        reg.count("events.install", 3)
        reg.gauge("recovery.last_attempts", 2)
        for value in (0.002, 0.004, 0.5):
            reg.observe("wal.force", value)
        reg.add_collector("io", lambda: {"log_forces": 5, "engine": "rW"})
        with reg.span("recovery.attempt", attempt=0, phase="recovery"):
            pass
        return reg

    def test_prometheus_rendering(self):
        text = render_prometheus(self._populated())
        assert "repro_wal_appends_total 12" in text
        assert "repro_io_log_forces_total 5" in text
        assert 'repro_wal_force_bucket{le="0.0025"} 1' in text
        assert 'repro_wal_force_bucket{le="+Inf"} 3' in text
        assert "repro_wal_force_count 3" in text
        assert "repro_recovery_last_attempts 2" in text
        # Cumulative bucket counts are monotone.
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_wal_force_bucket")
        ]
        assert counts == sorted(counts)

    def test_prometheus_accepts_snapshot_mapping(self):
        reg = self._populated()
        assert render_prometheus(reg.snapshot()) == render_prometheus(reg)

    def test_name_sanitization(self):
        assert sanitize_metric_name("wal.force-batch size") == \
            "wal_force_batch_size"
        text = render_prometheus(self._populated())
        assert "wal.force" not in text

    def test_jsonl_round_trip_preserves_counters(self, tmp_path):
        reg = self._populated()
        path = str(tmp_path / "metrics.jsonl")
        dump_jsonl(reg, path)
        loaded = load_jsonl(path)
        snap = reg.snapshot()
        assert loaded["snapshot"]["counters"] == snap["counters"]
        assert loaded["snapshot"]["gauges"] == snap["gauges"]
        hist = loaded["snapshot"]["histograms"]["wal.force"]
        assert hist["count"] == 3
        assert hist["p99"] == pytest.approx(snap["histograms"]["wal.force"]["p99"])
        (span,) = loaded["spans"]
        assert span["name"] == "recovery.attempt"
        assert span["tags"]["phase"] == "recovery"
        assert not math.isnan(span["seconds"])

    def test_jsonl_round_trip_renders_identically(self, tmp_path):
        reg = self._populated()
        path = str(tmp_path / "metrics.jsonl")
        dump_jsonl(reg, path)
        loaded = load_jsonl(path)
        assert render_prometheus(loaded["snapshot"]) == render_prometheus(reg)
