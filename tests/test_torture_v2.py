"""Torture v2: faults during recovery itself (repro.kernel.torture).

Small bounded campaigns — the heavyweight sweeps run via
``python -m repro torture v2`` and the CI smoke job; these tests pin
the harness mechanics: recovery-point discovery, the sweep grid
(including nested-crash schedules), and two-phase fuzzing.
"""

from __future__ import annotations

from repro.kernel.torture import (
    RECOVERY,
    TortureConfig,
    TortureHarness,
)
from repro.storage.faults import FaultKind, FuzzRates

SMALL = TortureConfig(objects=4, operations=12, supervisor_attempts=24)


def test_recovery_sweep_kinds_cover_the_v2_taxonomy():
    assert set(RECOVERY.kinds) == {
        FaultKind.CRASH,
        FaultKind.TORN,
        FaultKind.TRANSIENT,
        FaultKind.CORRUPT,
    }


def test_recovery_has_faultable_points():
    """Recovery performs its own numbered device I/O: log scans, redo
    reads, re-apply writes.  If this ever hits zero the v2 sweep is
    vacuously green — fail loudly instead.  (The floor is the analysis
    pass's one scan plus the redo pass's.)"""
    assert TortureHarness(SMALL).points(RECOVERY) >= 2


def test_sweep_recovery_survives_every_point_and_kind():
    harness = TortureHarness(SMALL)
    report = harness.sweep(RECOVERY)
    assert report.ok, report.summary() + "".join(
        f"\n  {o.description}: {o.error}" for o in report.failures()
    )
    # point x kind grid plus the nested-crash schedules.
    points = report.points
    assert len(report.outcomes) == points * len(RECOVERY.kinds) + min(
        points, 3
    )
    assert report.totals["recovery_restarts"] > 0


def test_sweep_recovery_includes_nested_crash_schedules():
    """Schedules that crash ≥2 successive recovery attempts in one run
    must be present and converge (the restartability acceptance)."""
    harness = TortureHarness(SMALL)
    report = harness.sweep(RECOVERY)
    nested = [
        o for o in report.outcomes if o.description.startswith("nested:")
    ]
    assert nested, "sweep must include nested-crash schedules"
    for outcome in nested:
        assert outcome.description.count("crash@r") >= 2
        assert outcome.ok, outcome.error
        # Each crash costs one restart; converging takes one more.
        assert outcome.attempts >= 3


def test_fuzz_recovery_two_phase_schedules_converge():
    harness = TortureHarness(SMALL)
    report = harness.fuzz(
        runs=15,
        seed=0,
        rates=FuzzRates(torn=0.01, corrupt=0.01, crash=0.02),
        phase=RECOVERY,
    )
    assert report.ok, report.summary() + "".join(
        f"\n  {o.description}: {o.error}" for o in report.failures()
    )
    assert len(report.outcomes) == 15
    # Seeds recorded for reproduction.
    assert [o.seed for o in report.outcomes] == list(range(15))
    assert report.totals["recovery_attempts"] >= 15


def test_fuzz_recovery_is_reproducible_from_its_seed():
    harness = TortureHarness(SMALL)
    first = harness.fuzz(runs=1, seed=5, phase=RECOVERY)
    again = harness.fuzz(runs=1, seed=5, phase=RECOVERY)
    assert first.outcomes[0].trace == again.outcomes[0].trace
    assert first.outcomes[0].attempts == again.outcomes[0].attempts
