"""Property-based tests of the explainability theory (Section 2).

Checks Theorem 1's install step and the consistency of exposed-object
computation over random histories with real (executable) values.
"""

from tests.conftest import examples
from hypothesis import given, settings, strategies as st

from repro.core.explain import (
    explains,
    exposed_objects,
    extend,
    installed_values,
    is_prefix_set,
)
from repro.core.functions import default_registry
from repro.core.history import History
from repro.core.installation_graph import InstallationGraph
from repro.core.operation import (
    TOMBSTONE,
    Operation,
    OpKind,
    execute_transform,
)
from repro.core.oracle import Oracle
from repro.workloads import LogicalWorkload, LogicalWorkloadConfig
from repro.workloads.generator import register_workload_functions


def _registry():
    registry = default_registry()
    register_workload_functions(registry)
    return registry


def _history(seed: int, count: int) -> History:
    workload = LogicalWorkload(
        LogicalWorkloadConfig(
            objects=4, operations=count, object_size=16, p_delete=0.1
        ),
        seed=seed,
    )
    history = History()
    for op in workload.operations():
        history.append(op)
    return history


class TestTheorem1:
    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=examples(60), deadline=None)
    def test_installing_minimal_ops_preserves_explanation(self, seed):
        """Starting from I = {} (which explains the empty state),
        repeatedly install a minimal uninstalled operation; after each
        step extend(I, O) must explain the new state."""
        registry = _registry()
        oracle = Oracle(registry)
        history = _history(seed, 14)
        graph = InstallationGraph(list(history))
        installed = set()
        state = {}
        assert explains(history, installed, state, oracle)
        while len(installed) < len(history):
            minimal = graph.minimal_operations(excluding=installed)
            assert minimal, "acyclic installation graph must have minima"
            # Theorem 1 allows ANY minimal op; take the earliest for
            # determinism (conflict order is one valid choice).
            op = minimal[0]
            reads = {obj: state.get(obj) for obj in op.reads}
            state.update(execute_transform(op, reads, registry))
            installed = extend(installed, op)
            assert is_prefix_set(installed, graph)
            assert explains(history, installed, state, oracle)

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=examples(60), deadline=None)
    def test_exposed_objects_shrink_as_blind_writes_become_minimal(
        self, seed
    ):
        """Unexposed objects are exactly those whose minimal uninstalled
        accessor writes blindly; check the definition's two cases by
        direct recomputation."""
        history = _history(seed, 12)
        graph = InstallationGraph(list(history))
        installed = set()
        for op in graph.installation_order():
            exposed = exposed_objects(history, installed)
            objects = set()
            for any_op in history:
                objects |= any_op.reads | any_op.writes
            for obj in objects:
                accessors = [
                    o
                    for o in history.accessors_in_order(obj)
                    if o not in installed
                ]
                if not accessors:
                    assert obj in exposed
                elif obj in accessors[0].reads:
                    assert obj in exposed
                else:
                    assert obj not in exposed
            installed = installed | {op}


class TestFullInstallationAlwaysExplains:
    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=examples(40), deadline=None)
    def test_final_state_explained_by_full_history(self, seed):
        registry = _registry()
        oracle = Oracle(registry)
        history = _history(seed, 16)
        final = oracle.replay(list(history))
        assert explains(history, set(history), final, oracle)


class TestExplainsIsTheDefinition:
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        mask=st.integers(min_value=0, max_value=2**12 - 1),
        cut=st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=examples(100), deadline=None)
    def test_explains_agrees_with_exposed_objects_and_installed_values(
        self, seed, mask, cut
    ):
        """``explains`` stops at the first mismatch; its verdict is the
        definition's, computed whole from the two public parts."""
        oracle = Oracle(_registry())
        history = _history(seed, 12)
        installed = {op for op in history if mask >> op.op_id & 1}
        state = oracle.replay(list(history)[:cut])
        ideal = installed_values(history, installed, oracle)

        def fact(value):
            return None if value is TOMBSTONE else value

        expected = all(
            fact(state.get(obj, oracle.initial.get(obj)))
            == fact(ideal.get(obj, oracle.initial.get(obj)))
            for obj in exposed_objects(history, installed)
        )
        assert explains(history, installed, state, oracle) == expected
