"""Runtime checking of the cache invariant and explainability.

The paper proves (Lemmas 1-3, Theorem 3) that PurgeCache preserves the
invariant Inv(I) and hence stable-database recoverability.  We cannot
re-prove the lemmas at runtime, but we can *check their consequences*
after every installation and after every injected crash:

* the stable state is explainable by the leading-edge installed set
  (all stably-logged operations minus the uninstalled ones the cache
  manager still holds);
* the invariant's part 2 — every conflict-order predecessor of a cached
  uninstalled operation is installed or cached — holds by construction
  in this implementation, and is asserted;
* with the repeat-history write-write policy there are no write-write
  installation edges out of cached operations (part 1), asserted;
* the write graph in use is acyclic.

Tests and the E7 verifier call :func:`check_recoverable` at chosen
points; a failure raises :class:`UnrecoverableStateError` naming the
objects whose stable values cannot be explained.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Set

from repro.common.errors import UnrecoverableStateError
from repro.common.identifiers import ObjectId
from repro.core.engine import GraphOp
from repro.core.explain import (
    exposed_objects,
    explains,
    find_explanation,
    is_prefix_set,
)
from repro.core.history import History
from repro.core.installation_graph import InstallationGraph, WriteWritePolicy
from repro.core.operation import Operation, TOMBSTONE
from repro.core.oracle import Oracle


def leading_edge_installed(
    history: History, uninstalled: Iterable[GraphOp]
) -> Set[Operation]:
    """The cache manager's leading-edge I: everything not in the cache.

    ``uninstalled`` is what the cache manager holds — footprints, not
    the history's operations — so the two are paired by lSI, which the
    log assigns once per surviving operation.
    """
    held = {op.lsi for op in uninstalled}
    return {op for op in history if op.lsi not in held}


def check_explainable(
    history: History,
    uninstalled: Iterable[GraphOp],
    stable_values: Mapping[ObjectId, Any],
    oracle: Oracle,
    search_on_failure: bool = True,
) -> None:
    """Assert the stable state is explainable.

    First tries the leading-edge I (fast path, the explanation the CM
    maintains during normal operation).  If that fails and
    ``search_on_failure`` is set, falls back to searching for *any*
    explaining prefix set over the uninstalled operations — a state can
    be explainable by a smaller I when a crash lost some installations.
    Raises :class:`UnrecoverableStateError` when no explanation exists.
    """
    installed = leading_edge_installed(history, uninstalled)
    if explains(history, installed, stable_values, oracle):
        return
    if search_on_failure:
        graph = InstallationGraph(
            list(history), WriteWritePolicy.REPEAT_HISTORY
        )
        found = find_explanation(
            history, graph, stable_values, oracle, candidates=list(history)
        )
        if found is not None:
            return
    offenders = _unexplained_objects(
        history, installed, stable_values, oracle
    )
    raise UnrecoverableStateError(
        "stable state is not explainable; mismatched exposed objects: "
        f"{sorted(offenders)}"
    )


def _unexplained_objects(
    history: History,
    installed: Set[Operation],
    stable_values: Mapping[ObjectId, Any],
    oracle: Oracle,
) -> Set[ObjectId]:
    from repro.core.explain import installed_values

    ideal = installed_values(history, installed, oracle)
    bad: Set[ObjectId] = set()
    for obj in exposed_objects(history, installed):
        expected = ideal.get(obj, oracle.initial.get(obj))
        actual = stable_values.get(obj, oracle.initial.get(obj))
        if expected is TOMBSTONE:
            expected = None
        if actual is TOMBSTONE:
            actual = None
        if actual != expected:
            bad.add(obj)
    return bad


def check_inv_parts(
    history: History,
    uninstalled: Iterable[GraphOp],
    policy: WriteWritePolicy = WriteWritePolicy.REPEAT_HISTORY,
) -> None:
    """Assert parts 1-2 of Inv(I) for the leading-edge explanation."""
    installed = leading_edge_installed(history, uninstalled)
    cached = set(history) - installed
    graph = InstallationGraph(list(history), policy)
    for op in history:
        if op not in cached:
            continue
        # Part 1: no write-write edges from a cached op into I.  Under
        # the repeat-history policy the graph has none at all; under the
        # conservative policy an edge op -> P with P installed would
        # mean an installed operation must re-install after op.
        for succ in graph.successors(op):
            if succ in installed and (op.writes & succ.writes):
                if not (op.reads & succ.writes):
                    raise UnrecoverableStateError(
                        f"write-write installation edge from cached {op!r} "
                        f"to installed {succ!r}"
                    )
        # Part 2: every conflict predecessor is installed or cached.
        for earlier in history:
            if earlier.op_id >= op.op_id:
                break
            if earlier.conflicts_with(op):
                if earlier not in installed and earlier not in cached:
                    raise UnrecoverableStateError(
                        f"conflict predecessor {earlier!r} of cached "
                        f"{op!r} is neither installed nor cached"
                    )


def stable_values_of(store) -> Dict[ObjectId, Any]:
    """Extract a plain value mapping from a stable store, for explains().

    TOMBSTONEs read as deleted (absent); the store's absence of an
    object reads as the initial value.
    """
    values: Dict[ObjectId, Any] = {}
    for obj, version in store.items():
        values[obj] = version.value
    return values
