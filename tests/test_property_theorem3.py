"""Direct property test of Theorem 3: the stable state at *any* crash
point is explainable.

The E7 matrix and the property crash-recovery suite verify the
consequence (recovery succeeds); this test checks the theorem's own
statement: after random workloads with random purges/forces, the
post-crash stable state is explained by some prefix set of the durable
history.  ``check_explainable`` first tries the leading edge and then
searches — for small histories the search is exhaustive, so a failure
here would be a genuine counterexample to the implementation's
Theorem 3.
"""

import random

from tests.conftest import examples
from hypothesis import given, settings, strategies as st

from repro import (
    CacheConfig,
    GraphMode,
    MultiObjectStrategy,
    RecoverableSystem,
    SystemConfig,
)
from repro.core.history import History
from repro.core.invariants import check_explainable, stable_values_of
from repro.core.oracle import Oracle
from repro.storage import ShadowInstall
from repro.workloads import (
    LogicalWorkload,
    LogicalWorkloadConfig,
    register_workload_functions,
)


def _durable_history(system) -> History:
    history = History()
    for op in system.history:
        if system.log.is_stable(op.lsi):
            history.append(op)
    return history


def _uninstalled_in(system, durable: History) -> list:
    held = {op.lsi for op in durable}
    return [
        op for op in system.cache.uninstalled_operations() if op.lsi in held
    ]


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    use_w=st.booleans(),
)
@settings(max_examples=examples(50), deadline=None)
def test_crash_state_always_explainable(seed, use_w):
    rng = random.Random(seed)
    cache = (
        CacheConfig(
            graph_mode=GraphMode.W,
            multi_object_strategy=MultiObjectStrategy.ATOMIC,
            mechanism=ShadowInstall(),
        )
        if use_w
        else CacheConfig()
    )
    system = RecoverableSystem(SystemConfig(cache=cache))
    register_workload_functions(system.registry)
    workload = LogicalWorkload(
        LogicalWorkloadConfig(
            objects=4, operations=10, object_size=24, p_delete=0.1
        ),
        seed=seed,
    )
    for op in workload.operations():
        system.execute(op)
        if rng.random() < 0.4:
            system.log.force()
        if rng.random() < 0.3:
            system.purge()

    # The crash moment: volatile state is about to vanish.  The durable
    # history is the stable-log prefix; the uninstalled set is whatever
    # the cache manager still held of it.
    durable = _durable_history(system)
    uninstalled = _uninstalled_in(system, durable)
    oracle = Oracle(system.registry)
    check_explainable(
        durable,
        uninstalled,
        stable_values_of(system.store),
        oracle,
        search_on_failure=True,
    )
