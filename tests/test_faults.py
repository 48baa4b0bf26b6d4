"""Tests for the faulty-storage simulation layer (repro.storage.faults,
repro.wal.faulty_log, repro.common.retry)."""

import random

import pytest

from repro.common.errors import CorruptObjectError, TransientStorageError
from repro.common.retry import (
    DEFAULT_ATTEMPTS,
    backoff_delay,
    retry_transient,
)
from repro.kernel.system import RecoverableSystem, SystemConfig
from repro.kernel.verify import VerificationError, verify_recovered
from repro.storage.faults import (
    FORWARD_PHASE,
    RECOVERY_PHASE,
    FaultCrash,
    FaultKind,
    FaultModel,
    FaultSpec,
    FuzzRates,
)
from repro.storage.faultwrap import FaultyStore
from repro.storage.stats import IOStats
from repro.wal.faulty_log import FaultyLog
from repro.workloads import register_workload_functions
from tests.conftest import physical


class TestRetryTransient:
    def test_absorbs_within_budget(self):
        stats = IOStats()
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientStorageError("flake")
            return "ok"

        assert retry_transient(flaky, stats=stats) == "ok"
        assert calls["n"] == 3
        assert stats.fault_retries == 2

    def test_raises_past_budget(self):
        calls = {"n": 0}

        def always():
            calls["n"] += 1
            raise TransientStorageError("flake")

        with pytest.raises(TransientStorageError):
            retry_transient(always)
        assert calls["n"] == DEFAULT_ATTEMPTS

    def test_never_sleeps(self, monkeypatch):
        def boom(_):
            raise AssertionError("sleep must not be called")

        monkeypatch.setattr("time.sleep", boom)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < DEFAULT_ATTEMPTS:
                raise TransientStorageError("flake")
            return "ok"

        assert retry_transient(flaky) == "ok"

    def test_fuzz_transients_fit_the_budget(self):
        # A fuzzed transient fault must be absorbed, never escalated.
        from repro.storage.faults import MAX_TIMES

        assert MAX_TIMES < DEFAULT_ATTEMPTS

    def test_non_transient_errors_pass_through_immediately(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise ValueError("not retryable")

        with pytest.raises(ValueError):
            retry_transient(broken)
        assert calls["n"] == 1


class TestBackoffDelay:
    def test_exponential_under_cap(self):
        assert backoff_delay(0, base_delay=0.1, max_delay=10.0) == 0.1
        assert backoff_delay(3, base_delay=0.1, max_delay=10.0) == 0.8

    def test_max_delay_caps_growth(self):
        assert backoff_delay(50, base_delay=0.1, max_delay=2.0) == 2.0

    def test_jitter_spreads_within_band(self):
        rng = random.Random(7)
        delays = [
            backoff_delay(
                2, base_delay=0.1, max_delay=10.0, jitter=0.5, rng=rng
            )
            for _ in range(200)
        ]
        # jitter=0.5 draws uniformly from [0.2, 0.4]
        assert all(0.2 <= d <= 0.4 for d in delays)
        assert len(set(delays)) > 1

    def test_full_jitter_reaches_zero_band(self):
        rng = random.Random(3)
        delays = [
            backoff_delay(
                0, base_delay=1.0, max_delay=1.0, jitter=1.0, rng=rng
            )
            for _ in range(200)
        ]
        assert min(delays) < 0.1 and max(delays) > 0.9

    def test_jitter_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            backoff_delay(0, base_delay=0.1, jitter=1.5)


class TestFaultPhases:
    def test_phases_number_independently(self):
        model = FaultModel()
        for _ in range(3):
            model.fire("store.write", "x")
        model.enter_phase(RECOVERY_PHASE)
        for _ in range(2):
            model.fire("store.read", "x")
        assert model.points_in(FORWARD_PHASE) == 3
        assert model.points_in(RECOVERY_PHASE) == 2
        assert model.next_point == 2  # current phase: recovery

    def test_reentering_a_phase_resumes_numbering(self):
        """Recovery-phase numbering is continuous across restarts: a
        re-entered phase picks up its counter, so a spec at recovery
        point k fires exactly once, in whichever attempt reaches it."""
        model = FaultModel(
            [FaultSpec(3, FaultKind.CRASH, phase=RECOVERY_PHASE)]
        )
        model.enter_phase(RECOVERY_PHASE)
        model.fire("store.read", "a")  # r0
        model.fire("store.read", "b")  # r1
        model.enter_phase(FORWARD_PHASE)
        model.fire("store.write", "c")  # forward 0 — not r2
        model.enter_phase(RECOVERY_PHASE)
        model.fire("store.read", "d")  # r2
        with pytest.raises(FaultCrash):
            model.fire("store.read", "e")  # r3 fires the spec
        assert model.trace() == ["crash@r3"]
        # A restarted recovery continues past the consumed point.
        model.enter_phase(RECOVERY_PHASE)
        assert model.fire("store.read", "f") is None  # r4

    def test_spec_phase_is_part_of_the_key(self):
        """A recovery-phase spec never fires at the same-numbered
        forward point, and vice versa."""
        model = FaultModel(
            [FaultSpec(0, FaultKind.TRANSIENT, phase=RECOVERY_PHASE)]
        )
        assert model.fire("store.write", "x") is None  # forward 0
        model.enter_phase(RECOVERY_PHASE)
        with pytest.raises(TransientStorageError):
            model.fire("store.read", "x")  # recovery 0

    def test_same_point_in_different_phases_allowed(self):
        model = FaultModel(
            [
                FaultSpec(3, FaultKind.TORN),
                FaultSpec(3, FaultKind.CORRUPT, phase=RECOVERY_PHASE),
            ]
        )
        assert len(model._specs) == 2

    def test_crash_kind_is_clean_death(self):
        """CRASH raises FaultCrash and damages nothing — the stored
        bytes are exactly what landed before the point."""
        store = FaultyStore(FaultModel([FaultSpec(1, FaultKind.CRASH)]))
        store.write("x", b"v", 1)  # point 0: clean
        with pytest.raises(FaultCrash):
            store.write("y", b"w", 2)  # point 1: machine dies
        assert store.read("x").value == b"v"
        assert not store.contains("y")
        assert store.scrub() == []

    def test_describe_prefixes_recovery_points(self):
        spec = FaultSpec(3, FaultKind.CRASH, phase=RECOVERY_PHASE)
        assert spec.describe() == "crash@r3"
        assert FaultSpec(3, FaultKind.CRASH).describe() == "crash@3"

    def test_fuzz_draws_crashes_at_crash_rate(self):
        model = FaultModel.fuzz(11, FuzzRates(
            transient=0.0, torn=0.0, corrupt=0.0, crash=1.0,
        ))
        with pytest.raises(FaultCrash):
            model.fire("store.write", "x")
        assert model.fired[0].kind is FaultKind.CRASH

    def test_fuzz_stamps_current_phase(self):
        model = FaultModel.fuzz(11, FuzzRates(
            transient=0.0, torn=0.0, corrupt=0.0, crash=1.0,
        ))
        model.enter_phase(RECOVERY_PHASE)
        with pytest.raises(FaultCrash):
            model.fire("store.read", "x")
        assert model.fired[0].describe() == "crash@r0"


class TestFaultModel:
    def test_counting_model_numbers_points(self):
        model = FaultModel()
        for _ in range(4):
            model.fire("store.write", "x")
        assert model.next_point == 4
        assert model.fired == []

    def test_scheduled_transient_raises_times_then_clears(self):
        model = FaultModel([FaultSpec(0, FaultKind.TRANSIENT, times=2)])
        for _ in range(2):
            with pytest.raises(TransientStorageError):
                model.fire("store.write", "x")
        # Third attempt of the same I/O succeeds...
        assert model.fire("store.write", "x") is None
        # ...and consumed only ONE point: retries don't renumber.
        assert model.next_point == 2

    def test_damage_kind_not_in_can_is_benign(self):
        model = FaultModel([FaultSpec(0, FaultKind.TORN)])
        assert model.fire("store.read", "x", can=frozenset()) is None

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            FaultModel(
                [
                    FaultSpec(3, FaultKind.TORN),
                    FaultSpec(3, FaultKind.CORRUPT),
                ]
            )

    def test_disarmed_model_consumes_nothing(self):
        model = FaultModel([FaultSpec(0, FaultKind.TORN)], armed=False)
        assert model.fire("store.write", "x") is None
        assert model.next_point == 0

    def test_fuzz_is_deterministic_in_seed(self):
        def schedule(seed):
            model = FaultModel.fuzz(seed, FuzzRates(transient=0.3, torn=0.2))
            decisions = []
            for index in range(50):
                try:
                    spec = model.fire(
                        "store.write",
                        str(index),
                        can=frozenset({FaultKind.TORN}),
                    )
                    decisions.append(spec.describe() if spec else "-")
                except TransientStorageError:
                    decisions.append("io-error")
            return decisions

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)

    def test_slow_fault_counts_but_passes(self):
        stats = IOStats()
        model = FaultModel([FaultSpec(0, FaultKind.SLOW)])
        assert model.fire("store.write", "x", stats=stats) is None
        assert stats.faults_injected == 1
        assert stats.extra["slow_ios"] == 1


class TestFaultyStore:
    def _store(self, *specs):
        return FaultyStore(FaultModel(specs))

    def test_clean_roundtrip(self):
        store = self._store()
        store.write("x", b"v", 1)
        assert store.read("x").value == b"v"

    def test_torn_write_detected_on_read(self):
        store = self._store(FaultSpec(0, FaultKind.TORN))
        store.write("x", b"value", 1)
        with pytest.raises(CorruptObjectError):
            store.read("x")
        assert store.stats.checksum_failures == 1

    def test_corrupt_read_detected(self):
        store = self._store(FaultSpec(1, FaultKind.CORRUPT))
        store.write("x", b"value", 1)  # point 0: clean
        with pytest.raises(CorruptObjectError):
            store.read("x")  # point 1: bit rot hits this read

    def test_scrub_finds_damage_without_reading(self):
        store = self._store(FaultSpec(0, FaultKind.TORN))
        store.write("x", b"value", 1)
        assert store.scrub() == ["x"]

    def test_quarantine_then_restore_heals(self):
        store = self._store(FaultSpec(0, FaultKind.TORN))
        store.write("x", b"value", 1)
        store.quarantine("x")
        assert not store.contains("x")
        store.write("x", b"value", 1)  # replay (no fault at point 1)
        assert store.read("x").value == b"value"
        assert store.scrub() == []

    def test_crash_demand_raises_after_damage(self):
        store = self._store(FaultSpec(0, FaultKind.TORN, crash=True))
        with pytest.raises(FaultCrash):
            store.write("x", b"value", 1)
        # The torn bytes landed before the machine died.
        assert store.scrub() == ["x"]


class TestFaultyLog:
    def _system(self, *specs):
        model = FaultModel(specs)
        system = RecoverableSystem(
            SystemConfig(), log=FaultyLog(model)
        )
        register_workload_functions(system.registry)
        return system, model

    def test_transient_force_is_invisible(self):
        system, _ = self._system(FaultSpec(0, FaultKind.TRANSIENT, times=2))
        system.execute(physical("x", b"1"))
        system.log.force()
        assert system.stats.fault_retries == 2
        system.crash()
        system.recover()
        verify_recovered(system)

    def test_torn_force_loses_only_a_suffix(self):
        system, _ = self._system(FaultSpec(0, FaultKind.TORN))
        system.execute(physical("x", b"1"))
        system.execute(physical("y", b"2"))
        with pytest.raises(FaultCrash):
            system.log.force()
        lost = system.crash()
        # The torn force landed x's record and dropped y's.
        assert [op.name for op in lost] == ["wp(y)"]
        system.recover()
        verify_recovered(system)
        assert system.peek("x") == b"1"
        assert system.peek("y") is None

    def test_fsync_lie_breaks_durability_strawman(self):
        """The one fault outside the must-survive envelope: an
        undetected lying fsync loses durably-acknowledged operations,
        and the verifier catches the broken contract."""
        system, _ = self._system(FaultSpec(0, FaultKind.FSYNC_LIE))
        system.execute(physical("x", b"1"))
        system.log.force()  # lies: reports success, durability withheld
        system.crash()
        system.recover()
        with pytest.raises(VerificationError):
            verify_recovered(system)

    def test_honest_force_after_lie_repairs_durability(self):
        system, _ = self._system(FaultSpec(0, FaultKind.FSYNC_LIE))
        system.execute(physical("x", b"1"))
        system.log.force()  # lie
        system.execute(physical("y", b"2"))
        system.log.force()  # honest: one real fsync flushes everything
        system.crash()
        system.recover()
        verify_recovered(system)
        assert system.peek("x") == b"1"


class TestQuarantineRecovery:
    def test_corrupt_store_heals_via_log_replay(self):
        """End-to-end quarantine: damage a stored version, crash,
        recover — the pre-redo scrub quarantines it and widens the redo
        window so repeat history reinstates the object."""
        model = FaultModel([FaultSpec(1, FaultKind.CORRUPT)])
        system = RecoverableSystem(
            SystemConfig(), store=FaultyStore(model), log=FaultyLog(model)
        )
        register_workload_functions(system.registry)
        system.execute(physical("x", b"durable"))
        system.log.force()  # point 0: clean
        system.flush_all()  # point 1: install corrupts x's version
        model.armed = False
        system.crash()
        system.recover()
        verify_recovered(system)
        assert system.peek("x") == b"durable"
        assert system.stats.quarantines == 1
        assert system.stats.media_recoveries == 1
