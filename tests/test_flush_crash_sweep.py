"""The torture harness's flush row: one flush crashed at each of its I/O
points, and once after its last.

The row (``repro.kernel.torture.FLUSH``) runs a fixed history (the
harness's ``drive``) with the fault model disarmed, forces the log, and
arms the model for ``flush_all()``, so point *k* is the flush's *k*-th
I/O.  Every supported cache configuration recovers at every point, in
memory and on disk; the raw strawman, torn between the two writes of a
multi-object flush, does not — the failure the paper's atomic flush
sets exist to prevent (claim C3).  The last cell crashes after the
flush: its installation records are still in the log buffer, the state
in which ROADMAP item 1's deleted object comes back.
"""

import pytest

from repro import (
    TOMBSTONE,
    CacheConfig,
    MultiObjectStrategy,
    Operation,
    OpKind,
    RawMultiWrite,
)
from repro.kernel.torture import FLUSH, TortureConfig, TortureHarness
from repro.storage.faults import FLUSH_PHASE, FaultKind, FaultModel, FaultSpec
from tests.conftest import CACHE_CONFIGS, physical

BACKENDS = ["memory", "file", "logstore"]


def _cyclic_pair(system):
    """A cyclic pair: a reads x writes y, b reads y writes x, c makes
    the cycle collapse, so {x, y} is one flush set."""
    system.registry.register(
        "f", lambda reads, s, d: {d: (reads[s] or b"") + b"!"}
    )
    system.execute(physical("x", b"x0"))
    system.execute(physical("y", b"y0"))
    for name, reads, dst, src in (
        ("a", {"x", "y"}, "y", "x"),
        ("b", {"y"}, "x", "y"),
        ("c", {"y"}, "y", "y"),
    ):
        system.execute(
            Operation(
                name,
                OpKind.LOGICAL,
                reads=reads,
                writes={dst},
                fn="f",
                params=(src, dst),
            )
        )


def _sweep(cache_factory, drive, backend):
    harness = TortureHarness(
        TortureConfig(store_backend=backend, cache_factory=cache_factory),
        drive=drive,
    )
    return harness.sweep(FLUSH)


def _raw():
    return CacheConfig(
        multi_object_strategy=MultiObjectStrategy.ATOMIC,
        mechanism=RawMultiWrite(),
    )


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_a_torn_raw_flush_breaks_recovery(backend):
    report = _sweep(_raw, _cyclic_pair, backend)
    assert report.points == 2  # one point per write of {x, y}
    assert [o.description for o in report.outcomes] == [
        "crash@f0", "crash@f1", "crash@f2",
    ]
    assert not report.outcomes[1].ok, "no crash point tore the raw flush"
    # The endpoint crashes after a completed flush: nothing is torn.
    assert report.outcomes[-1].ok and report.outcomes[-1].trace == []


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("config", sorted(CACHE_CONFIGS))
def test_every_flush_crash_point_recovers(config, backend):
    report = _sweep(CACHE_CONFIGS[config], _cyclic_pair, backend)
    assert len(report.outcomes) == report.points + 1 >= 2
    assert report.ok, [(o.description, o.error) for o in report.failures()]


# ----------------------------------------------------------------------
# what the flush row finds
# ----------------------------------------------------------------------
def _deleting_write(system):
    """ROADMAP item 1's history: ``c`` rewrites ``x`` and deletes ``y``
    in one logical operation."""
    system.registry.register(
        "rewrite_and_delete",
        lambda reads, x, y: {x: reads[x] + b"?", y: TOMBSTONE},
    )
    system.execute(physical("x", b"x0"))
    system.execute(physical("y", b"y0"))
    system.execute(
        Operation(
            "c", OpKind.LOGICAL, reads={"x", "y"}, writes={"x", "y"},
            fn="rewrite_and_delete", params=("x", "y"),
        )
    )


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: the flush deletes y from the store, so y has "
    "no vSI; the crash drops the installation records, and redo re-puts "
    "y while skipping c (x's vSI proves c installed)",
)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("config", sorted(CACHE_CONFIGS))
def test_a_flushed_delete_stays_deleted(config, backend):
    report = _sweep(CACHE_CONFIGS[config], _deleting_write, backend)
    assert report.failures() == []


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a torn store write inside a flush-transaction flush, then the "
    "crash after the flush: the quarantine restores the workload-start "
    "image and replays, and obj:0 recovers wrong (the flush row's fuzz "
    "seed 1501 at workload seed 15)",
)
@pytest.mark.parametrize("backend", BACKENDS)
def test_a_torn_write_in_a_flush_transaction_flush_recovers(backend):
    harness = TortureHarness(
        TortureConfig(
            workload_seed=15,
            store_backend=backend,
            cache_factory=CACHE_CONFIGS["rw-flushtxn"],
        )
    )
    spec = FaultSpec(2, FaultKind.TORN, phase=FLUSH_PHASE)
    outcome = harness.run(FaultModel([spec]), spec.describe(), FLUSH)
    assert outcome.trace == ["torn@f2"]
    assert outcome.ok, outcome.error
