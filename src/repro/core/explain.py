"""Explainable states (Section 2, executable form).

The definitions:

* A set ``I`` of operations is a **prefix set** if for every O in I,
  every installation-graph predecessor of O is also in I.
* An object ``x`` is **exposed** by I iff either no operation of H − I
  reads or writes x, or the minimal such operation (earliest in
  conflict order) *reads* x.
* I **explains** state S if for every object x exposed by I, the value
  of x in S is the value of x after the last operation of I (in
  conflict order) — equivalently, the oracle value of the sub-history I.
* S is **explainable** if some prefix set explains it.

``find_explanation`` performs the search that no real recovery system
runs (the paper: "No recovery algorithm actually maintains I") but which
our tests and the E7 verifier use to check, after injected crashes, that
cache management kept the stable state explainable — the executable form
of Theorem 3.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Set,
)

from repro.common.identifiers import ObjectId
from repro.core.history import History
from repro.core.installation_graph import InstallationGraph
from repro.core.operation import Operation, TOMBSTONE
from repro.core.oracle import Oracle


def is_prefix_set(
    installed: Set[Operation], graph: InstallationGraph
) -> bool:
    """True when ``installed`` is downward-closed under installation edges."""
    return all(
        graph.predecessors(op) <= installed
        for op in installed
    )


def exposed_objects(
    history: History, installed: Set[Operation]
) -> Set[ObjectId]:
    """Objects exposed by the prefix set ``installed``.

    Implements the two-case definition directly: collect every object
    any operation touches; x is exposed unless the minimal uninstalled
    accessor of x writes x without reading it.
    """
    exposed: Set[ObjectId] = set()
    objects: Set[ObjectId] = set()
    for op in history:
        objects |= op.reads | op.writes
    for obj in objects:
        accessors = [
            op
            for op in history.accessors_in_order(obj)
            if op not in installed
        ]
        if not accessors:
            exposed.add(obj)  # condition 1: nothing uninstalled touches x
            continue
        minimal = accessors[0]
        if obj in minimal.reads:
            exposed.add(obj)  # condition 2: minimal uninstalled op reads x
    return exposed


def installed_values(
    history: History,
    installed: Set[Operation],
    oracle: Oracle,
) -> Dict[ObjectId, Any]:
    """For each object, "the value of x after the last operation (in
    conflict order) of I" — in the *actual* execution.

    The definition refers to the values operations wrote in the history
    H, not to a replay of I in isolation: an installed operation may
    have read inputs written by operations outside I (those inputs are
    what make its objects exposed or not, but its written values are
    historical facts).  We therefore evaluate the full-history
    trajectory and pick, per object, the state just after its last
    I-writer.
    """
    trajectory = oracle.trajectory(list(history))
    expected: Dict[ObjectId, Any] = {}
    for op in history:
        if op not in installed:
            continue
        after = trajectory[op.op_id + 1]
        for obj in op.writes:
            expected[obj] = after[obj]
    return expected


def explains(
    history: History,
    installed: Set[Operation],
    state: Mapping[ObjectId, Any],
    oracle: Oracle,
) -> bool:
    """True when ``installed`` explains ``state``.

    ``state`` maps object ids to stable values; objects absent from the
    mapping are treated as holding the oracle's initial value.
    """
    facts = _Facts.of(history, oracle)
    return _explains(history, installed, state, oracle, facts)


class _Facts(NamedTuple):
    """What :func:`explains` needs of the history that does not depend on
    ``I``: a search computes it once, not at every leaf."""

    #: ``oracle.trajectory(history)``.
    trajectory: List[Dict[ObjectId, Any]]
    #: Every object an operation touches, with its accessors in
    #: conflict order.
    accessors: Dict[ObjectId, List[Operation]]

    @classmethod
    def of(cls, history: History, oracle: Oracle) -> "_Facts":
        objects: Set[ObjectId] = set()
        for op in history:
            objects |= op.reads | op.writes
        return cls(
            oracle.trajectory(list(history)),
            {obj: history.accessors_in_order(obj) for obj in objects},
        )


def _explains(
    history: History,
    installed: Set[Operation],
    state: Mapping[ObjectId, Any],
    oracle: Oracle,
    facts: _Facts,
) -> bool:
    """:func:`explains`, one object at a time: the first exposed object
    whose stable value is not its installed value decides."""
    initial = oracle.initial
    for obj, accessors in facts.accessors.items():
        minimal = next((op for op in accessors if op not in installed), None)
        if minimal is not None and obj not in minimal.reads:
            continue  # unexposed: the minimal uninstalled op blind-writes x
        writer = history.last_writer(obj, within=installed)
        expected = (
            initial.get(obj)
            if writer is None
            else facts.trajectory[writer.op_id + 1][obj]
        )
        actual = state.get(obj, initial.get(obj))
        # A deleted object (TOMBSTONE) and an absent object are the
        # same stable fact.
        if expected is TOMBSTONE:
            expected = None
        if actual is TOMBSTONE:
            actual = None
        if actual != expected:
            return False
    return True


def find_explanation(
    history: History,
    graph: InstallationGraph,
    state: Mapping[ObjectId, Any],
    oracle: Oracle,
    candidates: Optional[Iterable[Operation]] = None,
) -> Optional[Set[Operation]]:
    """Search for a prefix set of ``graph`` explaining ``state``.

    ``candidates`` restricts the search to operations that might be
    uninstalled (everything before them is taken as installed); by
    default all operations of the graph participate.  The search
    enumerates downward-closed subsets in conflict order, deciding one
    operation per level (each subset is met once, so nothing is
    memoized), so it is exponential in the worst case — suitable for
    verification on test-sized histories, not for production recovery
    (which never materializes I).  What every leaf needs of the history
    is computed once per search (:class:`_Facts`).

    Returns one explaining prefix set, or None if the state is
    unexplainable (an :class:`UnrecoverableStateError` situation).
    """
    pool: List[Operation] = sorted(
        candidates if candidates is not None else graph.ops,
        key=lambda o: o.op_id,
    )
    always_installed = {
        op for op in history if op not in set(pool)
    }
    n = len(pool)
    facts = _Facts.of(history, oracle)

    def search(index: int, chosen: Set[Operation]) -> Optional[Set[Operation]]:
        if index == n:
            installed = always_installed | chosen
            if _explains(history, installed, state, oracle, facts):
                return installed
            return None
        op = pool[index]
        # Branch 1: include op, legal only if its predecessors (within
        # the pool) were all included — downward closure.
        preds = graph.predecessors(op) if op in graph else set()
        if all(p in chosen or p in always_installed for p in preds):
            result = search(index + 1, chosen | {op})
            if result is not None:
                return result
        # Branch 2: exclude op.
        return search(index + 1, chosen)

    return search(0, set())


def extend(installed: Set[Operation], op: Operation) -> Set[Operation]:
    """``extend(I, O)`` of Theorem 1: the prefix set grown by O."""
    return installed | {op}
