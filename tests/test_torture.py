"""Tests for the recovery torture harness (repro.kernel.torture)."""

from repro.cache.config import CacheConfig
from repro.cache.policies import PeelHottest
from repro.kernel.torture import (
    FORWARD,
    TortureConfig,
    TortureHarness,
    TortureOutcome,
    TortureReport,
)
from repro.storage.faults import FaultKind


def _small() -> TortureConfig:
    return TortureConfig(operations=12)


class TestSweep:
    def test_full_sweep_survives(self):
        harness = TortureHarness(_small())
        report = harness.sweep()
        assert report.ok, [f.error for f in report.failures()]
        assert report.points == harness.points()
        assert len(report.outcomes) == report.points * len(FORWARD.kinds)

    def test_sweep_actually_injects(self):
        report = TortureHarness(_small()).sweep()
        assert report.totals["faults_injected"] > 0
        assert report.totals["fault_retries"] > 0

    def test_point_numbering_stable_across_runs(self):
        harness = TortureHarness(_small())
        assert harness.points() == harness.points()

    def test_sweep_under_capacity_pressure(self):
        """A tiny cache forces store reads and constant eviction, so the
        sweep covers the read-side fault points too."""
        harness = TortureHarness(
            TortureConfig(
                operations=12,
                cache_factory=lambda: CacheConfig(
                    capacity=4, victim_policy=PeelHottest()
                ),
            )
        )
        report = harness.sweep()
        assert report.ok, [f.error for f in report.failures()]

    def test_must_survive_envelope_excludes_fsync_lie(self):
        assert FaultKind.FSYNC_LIE not in FORWARD.kinds
        assert set(FORWARD.kinds) == {
            FaultKind.TORN,
            FaultKind.TRANSIENT,
            FaultKind.CORRUPT,
        }


class TestFuzz:
    def test_fuzz_survives(self):
        report = TortureHarness(_small()).fuzz(runs=40, seed=11)
        assert report.ok, [f.error for f in report.failures()]
        assert len(report.outcomes) == 40

    def test_fuzz_outcomes_carry_their_seed(self):
        report = TortureHarness(_small()).fuzz(runs=3, seed=100)
        assert [o.seed for o in report.outcomes] == [100, 101, 102]

    def test_fuzz_reproducible_from_seed(self):
        """Run i of a campaign equals a one-run campaign at seed+i:
        the property that makes any failing schedule replayable."""
        harness = TortureHarness(_small())
        campaign = harness.fuzz(runs=5, seed=30)
        for index, outcome in enumerate(campaign.outcomes):
            replay = harness.fuzz(runs=1, seed=30 + index)
            assert replay.outcomes[0].trace == outcome.trace
            assert replay.outcomes[0].ok == outcome.ok


class TestReport:
    def test_summary_mentions_failures(self):
        report = TortureReport(mode="sweep", points=2)
        report.outcomes.append(
            TortureOutcome("torn@1!", False, error="boom")
        )
        assert "1 FAILED" in report.summary()
        assert not report.ok

    def test_summary_ok(self):
        report = TortureReport(mode="fuzz")
        assert report.ok
        assert "OK" in report.summary()
