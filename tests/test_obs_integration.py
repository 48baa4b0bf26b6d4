"""Integration tests: the observability layer wired through a running
system — WAL/cache/engine instrumentation, recovery-phase spans, the
event stream as a subscribed sink sees it, the torture harness's shared
registry, ``obs_summary``, and the ``python -m repro metrics`` CLI."""

import pytest

from repro import (
    MetricsRegistry,
    NULL_OBS,
    RecoverableSystem,
    RecoverySupervisor,
    SupervisorConfig,
    SystemHealth,
    TortureConfig,
    TortureHarness,
    dump_jsonl,
    verify_recovered,
)
from repro.analysis import obs_summary
from repro.domains import RecoverableFileSystem
from repro.kernel.torture import RECOVERY
from repro.storage.faults import FaultKind, FaultModel, FaultSpec
from repro.storage.faultwrap import FaultyStore
from repro.wal.faulty_log import FaultyLog
from repro.workloads import register_workload_functions
from tests.conftest import listen


def _run_workload(system):
    fs = RecoverableFileSystem(system)
    for index in range(8):
        fs.write_file(f"f{index}", b"payload " * 8)
    system.log.force()
    system.purge()
    system.flush_all()
    return fs


class TestDefaultsAreNull:
    def test_components_share_the_null_object(self):
        system = RecoverableSystem()
        assert system.obs is NULL_OBS
        assert system.log.obs is NULL_OBS
        assert system.cache.obs is NULL_OBS
        assert system.engine.obs is NULL_OBS

    def test_uninstrumented_run_records_nothing(self):
        system = RecoverableSystem()
        _run_workload(system)
        system.crash()
        system.recover()
        assert system.obs.span_events() == []
        assert system.obs.snapshot()["counters"] == {}


class TestAttachMetrics:
    def test_histograms_populated_by_a_workload(self):
        system = RecoverableSystem()
        reg = system.attach_metrics()
        _run_workload(system)
        assert reg.histograms["wal.force"].count > 0
        assert reg.histograms["cache.flush"].count > 0
        assert reg.histograms["engine.addop"].count > 0
        assert reg.histograms["wal.force_batch_records"].count > 0

    def test_counter_value_tracks_iostats(self):
        system = RecoverableSystem()
        reg = system.attach_metrics()
        _run_workload(system)
        assert reg.counter_value("io.log_forces") == system.stats.log_forces
        assert (
            reg.snapshot()["counters"]["io.object_writes"]
            == system.stats.object_writes
        )

    def test_engine_collector_exposes_mode(self):
        system = RecoverableSystem()
        reg = system.attach_metrics()
        _run_workload(system)
        assert "engine.engine" in reg.snapshot()["info"]

    def test_obs_survives_crash_and_recovery(self):
        system = RecoverableSystem()
        reg = system.attach_metrics()
        _run_workload(system)
        system.crash()
        assert system.cache.obs is reg
        system.recover()
        verify_recovered(system)
        # The rebuilt cache and engine still report into the registry.
        assert system.cache.obs is reg
        assert system.engine.obs is reg
        names = {event["name"] for event in reg.span_events()}
        assert {"recovery.scrub", "recovery.redo", "recovery.adopt"} <= names

    def test_explicit_registry_is_adopted(self):
        reg = MetricsRegistry()
        system = RecoverableSystem()
        assert system.attach_metrics(reg) is reg
        assert system.obs is reg


class TestEventSink:
    def test_sink_sees_cache_events(self):
        system = RecoverableSystem()
        events = listen(system)
        _run_workload(system)
        kinds = events.kinds()
        assert "execute" in kinds
        assert "install" in kinds or "identity-write" in kinds

    def test_sink_sees_what_the_events_counters_count(self):
        system = RecoverableSystem()
        events = listen(system)
        assert system.obs.enabled
        _run_workload(system)
        kinds = events.kinds()
        assert kinds
        for kind in set(kinds):
            assert system.obs.counters[f"events.{kind}"] == kinds.count(kind)


class TestRecoverySpans:
    def _system_with_faults(self, specs):
        model = FaultModel(specs)
        system = RecoverableSystem(
            store=FaultyStore(model), log=FaultyLog(model)
        )
        register_workload_functions(system.registry)
        return system, model

    def test_supervised_run_emits_one_span_per_attempt(self):
        system = RecoverableSystem()
        reg = system.attach_metrics()
        _run_workload(system)
        system.crash()
        report = RecoverySupervisor(system).run()
        assert report.converged
        attempts = reg.span_events("recovery.attempt")
        assert len(attempts) == report.attempts_used == 1
        (span,) = attempts
        assert span["tags"]["phase"] == "recovery"
        assert span["tags"]["outcome"] == "converged"
        assert span["tags"]["escalation"] == "none"
        assert reg.counters["recovery.attempts"] == 1
        assert reg.counters["recovery.converged_runs"] == 1
        assert reg.gauges["recovery.last_attempts"] == 1

    def test_crashed_attempt_span_carries_fault_and_escalation(self):
        from repro.storage.faults import RECOVERY_PHASE

        system, model = self._system_with_faults(
            [FaultSpec(0, FaultKind.CRASH, phase=RECOVERY_PHASE)]
        )
        reg = system.attach_metrics()
        _run_workload(system)
        system.crash()
        model.enter_phase(RECOVERY_PHASE)
        report = RecoverySupervisor(
            system, config=SupervisorConfig(max_attempts=8)
        ).run()
        assert report.final_health is SystemHealth.HEALTHY
        attempts = reg.span_events("recovery.attempt")
        assert len(attempts) == report.attempts_used >= 2
        first = attempts[0]
        assert first["tags"]["outcome"] == "crashed"
        assert first["tags"]["escalation"] == "restart"
        assert first["tags"]["faults"]  # the injected crash point
        assert system.stats.recovery_restarts >= 1

    def test_phase_spans_nest_under_the_attempt(self):
        system = RecoverableSystem()
        reg = system.attach_metrics()
        _run_workload(system)
        system.crash()
        RecoverySupervisor(system).run()
        (redo,) = reg.span_events("recovery.redo")
        assert redo["parent"] == "recovery.attempt"
        (scrub,) = reg.span_events("recovery.scrub")
        assert scrub["parent"] == "recovery.attempt"


class TestTortureHarnessRegistry:
    def test_shared_registry_accumulates_across_runs(self):
        reg = MetricsRegistry()
        harness = TortureHarness(
            TortureConfig(objects=3, operations=8), metrics=reg
        )
        report = harness.fuzz(runs=2, seed=0, phase=RECOVERY)
        assert report.ok
        attempts = reg.span_events("recovery.attempt")
        total_attempts = sum(o.attempts for o in report.outcomes)
        assert len(attempts) == total_attempts
        assert all(
            event["tags"]["phase"] == "recovery" for event in attempts
        )
        assert reg.counter_value("torture.recovery_attempts") == total_attempts
        assert reg.histograms["wal.force"].count > 0

    def test_harness_without_metrics_stays_null(self):
        harness = TortureHarness(TortureConfig(objects=3, operations=8))
        assert harness.obs is None
        assert harness.fuzz(runs=1, seed=0).ok


class TestObsSummary:
    def test_renders_counters_and_histograms(self):
        system = RecoverableSystem()
        reg = system.attach_metrics()
        _run_workload(system)
        text = obs_summary(reg).render()
        assert "wal.force" in text
        assert "io.log_forces" in text

    def test_accepts_snapshot_mapping(self):
        reg = MetricsRegistry()
        reg.count("a", 5)
        reg.observe("h", 0.001)
        text = obs_summary(reg.snapshot(), top=1).render()
        assert "a" in text
        assert "h" in text


class TestMetricsCli:
    def _artifact(self, tmp_path):
        system = RecoverableSystem()
        reg = system.attach_metrics()
        _run_workload(system)
        system.crash()
        RecoverySupervisor(system).run()
        path = str(tmp_path / "metrics.jsonl")
        dump_jsonl(reg, path)
        return path

    def test_prometheus_view(self, tmp_path, capsys):
        from repro.__main__ import main

        path = self._artifact(tmp_path)
        assert main(["metrics", path]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_wal_force histogram" in out
        assert "repro_wal_force_count" in out
        assert "repro_recovery_attempt_count 1" in out

    def test_summary_view(self, tmp_path, capsys):
        from repro.__main__ import main

        path = self._artifact(tmp_path)
        assert main(["metrics", path, "--summary"]) == 0
        out = capsys.readouterr().out
        assert "recovery.attempt" in out
        assert "p99" in out

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["metrics", str(tmp_path / "absent.jsonl")]) == 1
        err = capsys.readouterr().err
        assert "cannot read telemetry file" in err

    def test_garbage_file_is_a_clean_error(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "garbage.jsonl"
        path.write_text("this is not telemetry\n{nor: this}\n")
        assert main(["metrics", str(path)]) == 1
        err = capsys.readouterr().err
        assert "not a telemetry JSONL file" in err

    def test_wrong_schema_json_is_a_clean_error(self, tmp_path, capsys):
        from repro.__main__ import main

        # Well-formed JSONL, but not the dump_jsonl format.
        path = tmp_path / "other.jsonl"
        path.write_text('{"some": "record"}\n{"other": 2}\n')
        assert main(["metrics", str(path)]) == 1
        err = capsys.readouterr().err
        assert "not a telemetry JSONL file" in err

    def test_directory_path_is_a_clean_error(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["metrics", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "cannot read telemetry file" in err

    def test_bad_file_errors_never_traceback(self, tmp_path):
        # The CLI promise: argument problems exit 1 via stderr, they
        # never escape as exceptions.
        import subprocess
        import sys

        path = tmp_path / "garbage.jsonl"
        path.write_text("x\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "metrics", str(path)],
            capture_output=True,
            text=True,
            env={**__import__("os").environ, "PYTHONPATH": "src"},
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "not a telemetry JSONL file" in proc.stderr

    def test_torture_metrics_out_writes_artifact(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.obs import load_jsonl

        path = str(tmp_path / "torture.jsonl")
        assert main([
            "torture", "fuzz", "--runs", "2", "--ops", "8",
            "--objects", "3", "--metrics-out", path,
        ]) == 0
        loaded = load_jsonl(path)
        assert loaded["meta"]["format"] == 1
        assert loaded["snapshot"]["histograms"]["wal.force"]["count"] > 0
