"""The flush crash sweep: one flush crashed at each of its store writes.

Crashes go through the fault model (``repro.kernel.torture.
flush_crash_sweep``): the system runs on a fault-injecting store whose
model is armed just before ``flush_all()``, so point *k* is the flush's
*k*-th store write.  Every supported cache configuration recovers at
every point, in memory and on disk; the raw strawman, torn between the
two writes of a multi-object flush, does not — the failure the paper's
atomic flush sets exist to prevent (claim C3).
"""

import pytest

from repro import (
    CacheConfig,
    MultiObjectStrategy,
    Operation,
    OpKind,
    RawMultiWrite,
)
from repro.kernel.torture import flush_crash_sweep
from tests.conftest import CACHE_CONFIGS, physical

BACKENDS = ["memory", "file"]


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


def _raw():
    return CacheConfig(
        multi_object_strategy=MultiObjectStrategy.ATOMIC,
        mechanism=RawMultiWrite(),
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_torn_raw_flush_breaks_recovery(backend):
    verdicts = flush_crash_sweep(_raw, _cyclic_pair, backend)
    assert len(verdicts) == 2  # one point per write of {x, y}
    assert False in verdicts, "no crash point tore the raw flush"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("config", sorted(CACHE_CONFIGS))
def test_every_flush_crash_point_recovers(config, backend):
    verdicts = flush_crash_sweep(CACHE_CONFIGS[config], _cyclic_pair, backend)
    assert verdicts and all(verdicts), verdicts
