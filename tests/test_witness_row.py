"""The torture harness's witness row: a witness's redo cycle (recovery,
then ``CacheManager.materialize()``) crashed at each of its I/O points,
and once after its last."""

import hashlib

import pytest

from repro import Operation, OpKind
from repro.core.operation import put_object
from repro.kernel import torture
from repro.kernel.torture import WITNESS, TortureConfig, TortureHarness
from repro.storage.faults import (
    WITNESS_PHASE, FaultKind, FaultModel, FaultSpec,
)
from repro.storage.registry import recommended_cache_config


def _config(backend, **shape):
    return TortureConfig(
        store_backend=backend,
        cache_factory=lambda: recommended_cache_config(backend),
        **shape,
    )


def _derive_then_touch(system):
    system.execute(put_object("a", b"v0"))
    system.execute(Operation(
        "derive(a->b)", OpKind.LOGICAL, reads={"a"}, writes={"b"},
        fn="wl_derive", params=("a", "b"),
    ))
    system.execute(Operation(
        "touch(a)", OpKind.PHYSIOLOGICAL, reads={"a"}, writes={"a"},
        fn="wl_touch", params=("a",),
    ))


@pytest.mark.parametrize("backend", ["memory", "file", "logstore"])
def test_crash_mid_materialize_keeps_derived_values(monkeypatch, backend):
    """A crash right after the cycle's first store write leaves a store
    from which recovery still derives ``b`` from ``v0``."""
    seen = {}
    verify = torture.verify_recovered

    def verify_and_read(system):
        seen["stored"] = len(system.store)
        seen["b"] = system.read("b")
        verify(system)

    monkeypatch.setattr(torture, "verify_recovered", verify_and_read)
    harness = TortureHarness(_config(backend), drive=_derive_then_touch)
    spec = FaultSpec(1, FaultKind.CRASH, phase=WITNESS_PHASE)
    outcome = harness.run(FaultModel([spec]), spec.describe(), WITNESS)
    assert outcome.trace == ["crash@w1"]
    assert outcome.ok, outcome.error
    assert seen["stored"] == 1  # the crash came after one write
    assert seen["b"] == hashlib.sha256(b"derive" + b"v0").digest()


@pytest.mark.parametrize("backend, cycle_points", [
    ("file", 212), ("logstore", 197),
])
def test_every_witness_crash_point_recovers(backend, cycle_points):
    """Workload seeds 0-39 of a logical workload: every crash point of
    the cycle, and the crash after it, recovers HEALTHY.  The point
    counts are pinned, so a renumbered cycle shows."""
    points = 0
    for seed in range(40):
        harness = TortureHarness(
            _config(backend, objects=6, operations=30, workload_seed=seed)
        )
        report = harness.sweep(WITNESS)
        assert len(report.outcomes) == report.points + 1
        assert report.ok, [
            (seed, o.description, o.error) for o in report.failures()
        ]
        assert report.total("lost") == 0
        points += report.points
    assert points == cycle_points


def _xfail(reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


#: A cycle write rots without a crash and the cycle truncates its record.
_REDO_HOLE = _xfail(
    "the media redo rebuilds obj:5 from derive(obj:4->obj:5) over an "
    "obj:4 that was installed unexposed, never stored, and whose writer "
    "was truncated, and serves it wrong HEALTHY (the media-redo hole "
    "the rot row pins in tests/test_lost_objects.py)"
)
_COLD_LOGSTORE = _xfail(
    "the logstore reopened cold skips the rotted newest frame and names "
    "no object, so obj:2 is served wrong HEALTHY (ROADMAP item 2: "
    "test_logstore_newest_frame_rotted_while_closed_is_lost)"
)


@pytest.mark.parametrize("backend, workload_seed", [
    pytest.param("memory", 37, marks=_REDO_HOLE),
    pytest.param("file", 37, marks=_REDO_HOLE),
    pytest.param("logstore", 0, marks=_COLD_LOGSTORE),
], ids=["memory", "file", "logstore"])
def test_a_rotted_cycle_write_is_rebuilt_or_lost(backend, workload_seed):
    harness = TortureHarness(_config(
        backend, objects=6, operations=30, workload_seed=workload_seed
    ))
    outcome = harness.run(FaultModel.fuzz(14, WITNESS.rates), "", WITNESS)
    if outcome.trace != ["corrupt@w0"]:
        pytest.fail(f"the schedule changed: {outcome.trace}")
    assert outcome.ok, outcome.error
