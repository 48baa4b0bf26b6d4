"""Zero-I/O installs: the keyed frontier, ``install_unexposed`` and the
serving path that spends it.

Three layers, bottom up:

* the engine's frontier heap is a faithful index of the ready set — it
  names exactly the nodes a brute-force scan finds, and its top is the
  node ``min(minimal_nodes(), key=(|vars|, node_id))`` picks — through
  merges, cycle collapses and removals, for both engines, and
  ``purge()`` installs the same node sequence the parent commit did;
* ``CacheManager.install_unexposed`` changes no read, no recovered
  state and no invariant: a system that calls it after every forced
  operation and one that never does agree before and after a crash at
  every operation boundary;
* a served daemon's write graph is bounded by its live objects and its
  in-flight window, not by the operations it has served.
"""

from __future__ import annotations

import gc
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    CacheConfig,
    GeneralizedRedoTest,
    GraphMode,
    Operation,
    RecoverableSystem,
    SystemConfig,
    VsiRedoTest,
    verify_recovered,
)
from repro.cache import cache_manager as cache_manager_module
from repro.core.history import History
from repro.core.incremental_write_graph import IncrementalWriteGraph
from repro.core.invariants import (
    check_explainable,
    check_inv_parts,
    stable_values_of,
)
from repro.core.oracle import Oracle
from repro.core.refined_write_graph import _FRONTIER_SLACK, RefinedWriteGraph
from repro.persist import PersistentSystem
from repro.serve import DaemonClient, DaemonConfig, RetryPolicy, ServeDaemon
from repro.serve import worker as worker_module
from repro.wal.records import FlushRecord, InstallationRecord, LogRecord
from repro.workloads import (
    LogicalWorkload,
    LogicalWorkloadConfig,
    register_workload_functions,
)
from tests.conftest import (
    CACHE_CONFIGS,
    client_rounds as _client_rounds,
    examples,
    listen,
    logical,
    physical,
)


def _selection_key(node):
    return (len(node.vars), node.node_id)


# ----------------------------------------------------------------------
# (a) the keyed frontier against brute force
# ----------------------------------------------------------------------
def _assert_frontier_is_the_ready_set(graph) -> None:
    brute = {n for n in graph.nodes if not graph.predecessors(n)}
    keyed = {
        node
        for size, _, node in graph._frontier
        if node in graph._ready and len(node.vars) == size
    }
    assert keyed == brute
    expected = min(brute, key=_selection_key, default=None)
    assert graph.least_minimal() is expected
    # Dead entries are bounded: memory tracks the ready set.
    assert len(graph._frontier) <= 2 * len(brute) + _FRONTIER_SLACK + 1


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    engine_cls=st.sampled_from([RefinedWriteGraph, IncrementalWriteGraph]),
    p_install=st.sampled_from([0.0, 0.2, 0.6]),
)
@settings(max_examples=examples(40), deadline=None)
def test_frontier_equals_brute_force_ready_set(seed, engine_cls, p_install):
    """After every insert and every removal — merge- and collapse-heavy
    streams over few objects — the heap's live entries are the ready
    set and its top is the brute-force minimum."""
    rng = random.Random(seed)
    workload = LogicalWorkload(
        LogicalWorkloadConfig(
            objects=5, operations=80, object_size=16, p_delete=0.1,
            w_physical=0.25, w_touch=0.15, w_combine=0.35, w_derive=0.25,
        ),
        seed=seed,
    )
    graph = engine_cls()
    history = History()
    for op in workload.operations():
        history.append(op)
        op.lsi = op.op_id + 1
        graph.add_operation(op)
        _assert_frontier_is_the_ready_set(graph)
        while len(graph) and rng.random() < p_install:
            graph.remove_node(graph.least_minimal())
            _assert_frontier_is_the_ready_set(graph)
    while len(graph):
        graph.remove_node(graph.least_minimal())
        _assert_frontier_is_the_ready_set(graph)
    assert graph.least_minimal() is None


def test_frontier_heap_is_rebuilt_not_grown():
    """One never-overwritten object pins a valid entry at the top while
    10 000 overwrites of another object come and go beneath it."""
    graph = RefinedWriteGraph()
    ops = [physical("pinned", b"p")] + [
        physical("hot", bytes([i % 251])) for i in range(10_000)
    ]
    history = History()
    for op in ops:
        history.append(op)
        op.lsi = op.op_id + 1
        graph.add_operation(op)
        node = graph.least_minimal()
        if not node.vars:
            graph.remove_node(node)
    assert len(graph) == 2
    assert len(graph._frontier) <= 2 * 2 + _FRONTIER_SLACK + 1


@pytest.mark.parametrize("config_name", sorted(CACHE_CONFIGS))
@pytest.mark.parametrize("seed", range(3))
def test_purge_takes_the_brute_force_minimum(config_name, seed):
    """Every node ``purge`` is handed — re-selections after an identity
    write dissolved a flush set included — is the one the parent's
    ``min(minimal_nodes(), key=(|vars|, node_id))`` picks."""
    rng = random.Random(seed)
    system = RecoverableSystem(
        SystemConfig(cache=CACHE_CONFIGS[config_name]())
    )
    register_workload_functions(system.registry)
    engine = system.engine
    taken = engine.least_minimal
    checked = []

    def checking():
        node = taken()
        assert node is min(
            engine.minimal_nodes(), key=_selection_key, default=None
        )
        checked.append(node)
        return node

    engine.least_minimal = checking
    workload = LogicalWorkload(
        LogicalWorkloadConfig(
            objects=6, operations=60, object_size=64,
            w_physical=0.1, w_touch=0.15, w_combine=0.45, w_derive=0.3,
        ),
        seed=seed,
    )
    for op in workload.operations():
        system.execute(op)
        if rng.random() < 0.3:
            system.purge()
    system.flush_all()
    assert checked and len(engine) == 0


#: ``(flushes, identity writes, object writes, log records, log forces,
#: digest of the install sequence)`` per cache config / stream / seed,
#: computed at the parent commit (linear selection) on the E8 ablation
#: stream and E4's 50%-logical stream, a purge after 30% of operations.
_PARENT_INSTALLS = {
    "rw-identity/e8-heavy/0": (18, 3, 10, 81, 9, "459f32583b1b"),
    "rw-identity/e8-heavy/1": (27, 2, 22, 89, 13, "023799537816"),
    "rw-identity/e8-heavy/2": (19, 2, 11, 81, 9, "75876fb99d5c"),
    "rw-identity/e4-50pct/0": (39, 9, 17, 168, 17, "9c601b2c4b2d"),
    "rw-identity/e4-50pct/1": (47, 0, 26, 167, 27, "b4dd5e1c9984"),
    "rw-identity/e4-50pct/2": (45, 0, 18, 165, 18, "0cc5212074e6"),
    "rw-shadow/e8-heavy/0": (15, 0, 5, 75, 11, "edfca6bef796"),
    "rw-shadow/e8-heavy/1": (26, 0, 19, 86, 13, "78fdd24936e0"),
    "rw-shadow/e8-heavy/2": (17, 0, 8, 77, 9, "3eccf65d9054"),
    "rw-shadow/e4-50pct/0": (38, 0, 14, 158, 19, "c12f31f1331f"),
    "rw-shadow/e4-50pct/1": (47, 0, 26, 167, 27, "b4dd5e1c9984"),
    "rw-shadow/e4-50pct/2": (45, 0, 18, 165, 18, "0cc5212074e6"),
    "w-shadow/e8-heavy/0": (14, 0, 12, 74, 13, "0374fa3ded47"),
    "w-shadow/e8-heavy/1": (24, 0, 22, 84, 17, "8596861950c8"),
    "w-shadow/e8-heavy/2": (15, 0, 13, 75, 13, "2dacbb6d4ab8"),
    "w-shadow/e4-50pct/0": (31, 0, 29, 151, 16, "1cfc2f721574"),
    "w-shadow/e4-50pct/1": (41, 0, 41, 161, 25, "dcd39453c9a3"),
    "w-shadow/e4-50pct/2": (38, 0, 36, 158, 23, "2e6dd9de947c"),
}

_STREAMS = {
    "e8-heavy": dict(
        objects=6, operations=60, object_size=64,
        w_physical=0.1, w_touch=0.15, w_combine=0.45, w_derive=0.3,
    ),
    "e4-50pct": dict(
        objects=10, operations=120, object_size=32,
        w_physical=0.15, w_touch=0.35, w_combine=0.3, w_derive=0.2,
    ),
}


@pytest.mark.parametrize("case", sorted(_PARENT_INSTALLS))
def test_install_sequence_and_counts_equal_the_parents(case):
    config_name, stream, seed = case.split("/")
    rng = random.Random(int(seed))
    system = RecoverableSystem(
        SystemConfig(cache=CACHE_CONFIGS[config_name]())
    )
    register_workload_functions(system.registry)
    events = listen(system)
    workload = LogicalWorkload(
        LogicalWorkloadConfig(**_STREAMS[stream]), seed=int(seed)
    )
    for op in workload.operations():
        system.execute(op)
        if rng.random() < 0.3:
            system.purge()
    system.flush_all()
    sequence = [
        (event.get("ops"), event.get("vars"), event.get("notx"))
        for event in events.of_kind("install")
    ]
    digest = hashlib.sha256(repr(sequence).encode()).hexdigest()[:12]
    snap = system.stats.snapshot()
    assert (
        snap["flushes"], snap["identity_writes"], snap["object_writes"],
        snap["log_records"], snap["log_forces"], digest,
    ) == _PARENT_INSTALLS[case]


# ----------------------------------------------------------------------
# (b) install_unexposed changes nothing observable
# ----------------------------------------------------------------------
def _uninstalled(system) -> list:
    """What the cache manager holds.  The checks pair these footprints
    with the history by lSI, so a purge's identity writes — the cache
    manager's own, changing no value — drop out."""
    return system.cache.uninstalled_operations()


def _check_invariants(system, oracle) -> None:
    """``Inv(I)`` parts 1-2 and explainability by the leading edge."""
    check_inv_parts(system.history, _uninstalled(system))
    if system.stats.identity_writes:
        # A pending W_IP(x) is a logged blind writer of x outside the
        # history: the leading edge over the history alone no longer
        # describes x.  The ATOMIC twin never injects one.
        return
    check_explainable(
        system.history,
        _uninstalled(system),
        stable_values_of(system.store),
        oracle,
        search_on_failure=False,
    )


def _run_prefix(config_name, ops, boundary: int, retire: bool, purge_rolls):
    """Execute ``ops[:boundary]`` forcing after each; the retiring twin
    calls ``install_unexposed`` after every force, checking the
    invariants each time a node went."""
    system = RecoverableSystem(
        SystemConfig(cache=CACHE_CONFIGS[config_name]())
    )
    register_workload_functions(system.registry)
    oracle = Oracle(system.registry)
    retired = 0
    for index, op in enumerate(ops[:boundary]):
        system.execute(op)
        system.log.force()
        if retire:
            while system.cache.install_unexposed():
                retired += 1
                _check_invariants(system, oracle)
        if purge_rolls[index]:
            # A flush *after* retires: the order constraints a retired
            # node used to impose are gone, the store moves ahead.
            system.purge()
            system.log.force()
            _check_invariants(system, oracle)
    return system, retired


def _twin_case(config_name: str, seed: int) -> int:
    """Crash a plain system and its retiring twin at every operation
    boundary of one stream; returns how many nodes the twin retired."""
    rng = random.Random(seed)
    template = LogicalWorkloadConfig(
        objects=4, operations=18, object_size=24, p_delete=0.1,
        w_physical=0.4, w_touch=0.15, w_combine=0.2, w_derive=0.25,
    )
    count = template.operations
    purge_rolls = [rng.random() < 0.25 for _ in range(count)]
    total_retired = 0
    for boundary in range(count + 1):
        # Operations carry their lSI, so each system gets its own.
        plain_ops = list(LogicalWorkload(template, seed=seed).operations())
        twin_ops = list(LogicalWorkload(template, seed=seed).operations())
        plain, _ = _run_prefix(
            config_name, plain_ops, boundary, False, purge_rolls
        )
        twin, retired = _run_prefix(
            config_name, twin_ops, boundary, True, purge_rolls
        )
        total_retired = max(total_retired, retired)
        objects = {obj for op in plain_ops for obj in op.writes | op.reads}
        assert {o: twin.read(o) for o in objects} == {
            o: plain.read(o) for o in objects
        }
        if not any(purge_rolls[:boundary]):
            # (Purges pick by graph shape, so after one the two graphs
            # are no longer comparable node for node.)
            assert len(twin.engine) <= len(plain.engine)
        # The crash moment.  Everything is forced, so the stable state
        # must be explained by the twin's own leading edge — afterwards
        # the redone set is a different (smaller) I: the retires were
        # never logged, so recovery takes them back.
        _check_invariants(twin, Oracle(twin.registry))
        for system in (plain, twin):
            system.crash()
            system.recover()
        expected = verify_recovered(plain)
        assert verify_recovered(twin) == expected
        assert {o: twin.peek(o) for o in objects} == {
            o: plain.peek(o) for o in objects
        }
        check_inv_parts(twin.history, _uninstalled(twin))
    return total_retired


@pytest.mark.parametrize("config_name", ["rw-identity", "rw-shadow"])
@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=examples(10), deadline=None)
def test_retiring_twin_reads_and_recovers_identically(config_name, seed):
    _twin_case(config_name, seed)


@pytest.mark.parametrize("config_name", ["rw-identity", "rw-shadow"])
def test_twin_streams_do_retire(config_name):
    """The property above is not vacuous: the streams are blind-write
    heavy enough that the twin retires nodes."""
    assert sum(_twin_case(config_name, seed) for seed in range(3)) >= 6


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    config_name=st.sampled_from(sorted(CACHE_CONFIGS)),
    vsi_only=st.booleans(),
    p_delete=st.sampled_from([0.0, 0.15]),
)
@settings(max_examples=examples(60), deadline=None)
def test_crash_with_a_volatile_tail_matches_oracle(
    seed, config_name, vsi_only, p_delete
):
    """``test_crash_recover_matches_oracle`` with the verb thrown in at
    every step: forces, purges and checkpoints come at random, so the
    verb meets volatile records (which it must leave alone), truncated
    logs and lazily-logged flush records lost with the buffer."""
    rng = random.Random(seed)
    system = RecoverableSystem(SystemConfig(
        cache=CACHE_CONFIGS[config_name](),
        redo_test=VsiRedoTest() if vsi_only else GeneralizedRedoTest(),
    ))
    register_workload_functions(system.registry)
    workload = LogicalWorkload(
        LogicalWorkloadConfig(
            objects=5, operations=30, object_size=48, p_delete=p_delete,
            w_physical=0.35, w_touch=0.2, w_combine=0.2, w_derive=0.25,
        ),
        seed=seed,
    )
    for op in workload.operations():
        system.execute(op)
        roll = rng.random()
        if roll < 0.5:
            system.log.force()
        system.cache.install_unexposed()
        if roll < 0.2:
            system.purge()
        if rng.random() < 0.06:
            system.checkpoint(truncate=rng.random() < 0.5)
    system.crash()
    system.recover()
    verify_recovered(system)


def test_w_mode_never_has_an_empty_flush_set(any_cache_system):
    """The verb is a no-op on W: vars(n) = Writes(n) there, always."""
    system = any_cache_system
    for i in range(6):
        system.execute(physical("x", bytes([i])))
    system.log.force()
    retired = system.cache.install_unexposed()
    if system.cache.config.graph_mode is GraphMode.W:
        assert retired == 0 and len(system.engine) == 1
    else:
        assert retired == 5 and len(system.engine) == 1


# ----------------------------------------------------------------------
# (c) the adversarial case, by hand
# ----------------------------------------------------------------------
@pytest.mark.parametrize("flush_record_survives", [True, False])
def test_retired_reader_is_redone_over_a_newer_input(flush_record_survives):
    """``put c``, ``b := copy(c)``, blind ``put b`` — retire — blind
    ``put c`` — retire — flush the *new* c, crash.

    The retires logged nothing, so analysis still calls ``b`` dirty
    from the copy onwards and redo re-executes it over the new ``c``
    (a value the original never saw); the blind ``put b`` behind it on
    the stable log overwrites the result."""
    system = RecoverableSystem()
    cache = system.cache
    system.execute(physical("c", b"c-old"))
    copy = logical("cp", "copy", {"c"}, {"b"}, ("c", "b"))
    system.execute(copy)
    # b rides with d, so the node of the new c below is the smaller
    # flush set and purge flushes it, not this one.
    from repro import Operation, OpKind

    system.execute(Operation(
        "put-b-d", OpKind.PHYSICAL, reads=frozenset(),
        writes=frozenset({"b", "d"}), payload={"b": b"b-new", "d": b"d"},
    ))
    system.log.force()
    assert cache.install_unexposed() == 1            # the copy: vars = {}
    assert cache.uninstalled(copy.lsi) is None
    system.execute(physical("c", b"c-new"))
    system.log.force()
    assert cache.install_unexposed() == 1            # the old put c
    records_before = len(system.log)
    assert system.purge()                            # flushes the new c
    assert system.store.peek("c").value == b"c-new"
    appended = list(system.log._buffer)
    assert [type(r) for r in appended] == [FlushRecord]
    assert len(system.log) == records_before + 1     # the retires: none
    if flush_record_survives:
        system.log.force()
    system.crash()
    report = system.recover()
    # The copy ran again (over c-new) and so did the blind overwriter.
    assert report.ops_redone == 2
    assert not any(
        isinstance(r, InstallationRecord)
        for r in system.log.stable_records()
    )
    assert system.peek("b") == b"b-new"
    assert system.peek("c") == b"c-new"
    assert system.peek("d") == b"d"
    verify_recovered(system)


# ----------------------------------------------------------------------
# (d) stable-only: nothing volatile is ever depended on
# ----------------------------------------------------------------------
def test_not_retired_while_a_needed_record_is_volatile():
    system = RecoverableSystem()
    cache = system.cache
    first = physical("k", b"1")
    second = physical("k", b"2")
    system.execute(first)
    system.execute(second)
    forces = system.stats.log_forces
    # Its own record is still in the buffer.
    assert cache.install_unexposed() == 0
    # Its own record is stable, the blind writer that justifies leaving
    # k unflushed is not: a crash now would lose the only later value.
    system.log.force_through(first.lsi)
    assert not system.log.is_stable(second.lsi)
    assert cache.install_unexposed() == 0
    assert system.engine.node_of(cache.uninstalled(first.lsi)) is not None
    system.log.force()
    assert cache.install_unexposed() == 1
    assert cache.uninstalled(first.lsi) is None
    assert cache.dirty_table.rsi_of("k") == second.lsi
    # The verb itself never forced, flushed or logged.
    assert system.stats.log_forces == forces + 2
    assert system.stats.flushes == 0 and system.stats.object_writes == 0
    assert cache.install_unexposed() == 0  # nothing left: one heap look


@pytest.mark.parametrize("force_notx_writers", [True, False])
def test_the_justifying_writer_bound_is_what_keeps_this_recoverable(
    force_notx_writers,
):
    """Why the verb waits for the blind writer, and why no configuration
    turns that half of the WAL bound off: a cache manager narrowed to
    force only a node's own records loses an update on ``put c``,
    ``b := copy(c)``, ``put c'``, ``put b`` — installing the copy frees
    ``put c'`` to be flushed under a force that stops short of
    ``put b``; the crash then leaves the redone copy's result, computed
    over ``c'``, as the last word on ``b``."""
    from repro.kernel.verify import VerificationError

    class OwnRecordsOnly(cache_manager_module.CacheManager):
        def _installation_plan(self, node):
            ops, new_rsis, _wal_bound = super()._installation_plan(node)
            return ops, new_rsis, ops[-1].lsi

    system = RecoverableSystem()
    if not force_notx_writers:
        system.cache = OwnRecordsOnly(
            system.store, system.log, system.registry, system.config.cache,
            system.stats,
        )
    system.execute(physical("c", b"c-old"))
    system.execute(logical("cp", "copy", {"c"}, {"b"}, ("c", "b")))
    system.execute(physical("c", b"c-new"))
    last = physical("b", b"b-new")
    system.execute(last)
    for _ in range(3):  # the copy, the old put c, then c-new is flushed
        system.purge()
    assert system.store.peek("c").value == b"c-new"
    assert system.log.is_stable(last.lsi) is force_notx_writers
    system.crash()
    system.recover()
    if force_notx_writers:
        verify_recovered(system)
        assert system.peek("b") == b"b-new"
    else:
        with pytest.raises(VerificationError, match="'b'"):
            verify_recovered(system)


def test_a_call_installs_a_bounded_number_of_nodes():
    """A backlog (what ``adopt_recovery`` leaves) drains over calls."""
    bound = cache_manager_module.UNEXPOSED_INSTALLS_PER_CALL
    system = RecoverableSystem()
    for i in range(3 * bound + 1):
        system.execute(physical("k", bytes([i])))
    system.log.force()
    system.crash()
    system.recover()
    assert len(system.engine) == 3 * bound + 1
    assert [system.cache.install_unexposed() for _ in range(4)] == [
        bound, bound, bound, 0
    ]
    assert len(system.engine) == 1
    verify_recovered(system)


def test_metrics_count_calls_and_installs():
    system = RecoverableSystem()
    registry = system.attach_metrics()
    for i in range(4):
        system.execute(physical("k", bytes([i])))
    system.execute(physical("other", b"o"))
    system.log.force()
    system.cache.install_unexposed()
    system.cache.install_unexposed()
    snap = registry.snapshot()
    assert snap["counters"]["cache.unexposed_installs"] == 3
    assert snap["counters"]["cache.dirty_objects"] == 2
    assert snap["counters"]["engine.live_nodes"] == 2
    assert snap["histograms"]["cache.install_unexposed"]["count"] == 2
    per_call = snap["histograms"]["cache.unexposed_installs_per_call"]
    assert per_call["count"] == 2 and per_call["sum"] == 3
    # No event per retired node: the flight recorder never sees them.
    assert "events.install" not in snap["counters"]


# ----------------------------------------------------------------------
# (e) through a daemon: memory is bounded by construction
# ----------------------------------------------------------------------
KEYS = 64
N = 5_000


def _put_rounds(port: int, count: int, offset: int) -> None:
    """``count`` acked puts over ``KEYS`` keys from ``CLIENTS`` clients."""
    _client_rounds(
        port, count,
        lambda client, rng, i: client.put(
            f"k{(offset + i) % KEYS}", b"v%d" % i
        ),
    )


def _live(*types) -> int:
    """Instances of ``types`` alive in this process right now."""
    gc.collect()
    return sum(isinstance(obj, types) for obj in gc.get_objects())


#: Operations and log records a quiesced process may still hold beyond
#: its live objects: what other tests left reachable is subtracted as a
#: baseline, so this only covers frames still unwinding in the workers.
SLACK = 16


def _ceiling(live: int) -> int:
    """Most operations ``live`` uninstalled ones can keep alive: each
    sits in its node, and the engine's lazy-deletion frontier may still
    hold the dead entries of up to ``2 * ready + _FRONTIER_SLACK``
    retired nodes before it rebuilds."""
    return 3 * live + _FRONTIER_SLACK + SLACK


def test_served_graph_tracks_live_objects_not_operations(tmp_path):
    config = DaemonConfig(port=0, http_port=None)
    bound = KEYS + config.max_queue
    baseline = _live(Operation, LogRecord)
    system = PersistentSystem.open(str(tmp_path / "db"))
    daemon = ServeDaemon(system, config).start()
    try:
        _put_rounds(daemon.port, N, 0)
        assert len(system.engine) <= bound
        assert len(system.cache._uninstalled) <= bound
        # No mirror, no history: what was acked and installed is in the
        # file and nowhere else.
        assert system.history is None
        assert _live(Operation, LogRecord) - baseline <= _ceiling(bound)
        _put_rounds(daemon.port, 4 * N, N)
        assert len(system.engine) <= bound
        assert _live(Operation, LogRecord) - baseline <= _ceiling(bound)
        with DaemonClient("127.0.0.1", daemon.port) as client:
            counters = client.stats()["counters"]
        # The online checkpoints truncated behind the installs: the
        # file keeps about two intervals of the 5N records.
        assert counters["io.checkpoints"] >= 1
        assert counters["wal.stable_records"] < 5 * N // 2
        assert counters["wal.resident_records"] <= config.max_queue
        assert counters["engine.live_nodes"] <= bound
        assert counters["cache.dirty_objects"] == KEYS
        assert counters["cache.unexposed_installs"] >= 5 * N - bound
        # Installed at zero I/O: the store was never written.
        assert counters["io.flushes"] == 0
        assert counters["io.object_writes"] == 0
    finally:
        assert daemon.stop(graceful=True) == 0
    # The drain's checkpoint carried the advanced rSIs and truncated by
    # them: a reopen redoes the live objects' last writers (plus what
    # was in flight at the drain), where every one of the 5N operations
    # used to come back.
    reopened = PersistentSystem.open(str(tmp_path / "db"))
    try:
        report = reopened.last_report
        assert report.ops_redone <= bound
        for index in range(KEYS):
            assert reopened.peek(f"k{index}") is not None
    finally:
        reopened.close()


def test_an_embedded_system_holds_live_objects_not_operations(tmp_path):
    """The same bound without a daemon: a ``PersistentSystem`` whose
    cache is smaller than its key set installs as it evicts, and the
    1 MiB auto-checkpoint truncates the file behind it."""
    capacity = KEYS // 2
    baseline = _live(Operation, LogRecord)
    system = PersistentSystem.open(
        str(tmp_path / "db"),
        config=SystemConfig(
            cache=CacheConfig(capacity=capacity),
            checkpoint_every_bytes=1 << 20,
        ),
        store_backend="logstore",
    )
    try:
        counts = []
        for rounds in (N, 4 * N):
            for i in range(rounds):
                system.execute(physical(f"k{i % KEYS}", b"v%d" % i))
                if i % 16 == 0:
                    system.log.force()
            counts.append(_live(Operation, LogRecord) - baseline)
        assert system.history is None
        assert max(counts) <= _ceiling(KEYS), counts
        footprint = system.log.footprint()
        assert footprint["resident_records"] <= capacity
        # Truncated behind the checkpoints: the index is short too.
        assert footprint["stable_records"] < system.stats.log_records // 2
        assert footprint["stable_bytes"] < 2 * (1 << 20)
    finally:
        system.close()


# ----------------------------------------------------------------------
# (f) pinned operations cost a footprint, not a value
# ----------------------------------------------------------------------
HOT_KEYS = 32
MIXED_OPS = 3_000
VALUE = 4096


def _mixed_rounds(port: int, count: int) -> None:
    """``count`` acked writes over ``HOT_KEYS`` keys: even steps a
    4 KiB put, odd steps a ``wl_combine`` into one of the last
    ``HOT_KEYS // 4`` keys (or, one in four, a ``wl_derive`` out of
    one).  Those keys are only ever written as ``dst := f(src, dst)``,
    so their nodes keep a flush set no zero-I/O install can retire, and
    every put whose value they read — and every overwrite of it after —
    queues behind them."""
    sources = HOT_KEYS - HOT_KEYS // 4

    def step(client, rng, i: int) -> None:
        src = f"h{rng.randrange(sources)}"
        acc = f"h{rng.randrange(sources, HOT_KEYS)}"
        if i % 2 == 0:
            client.put(src, rng.randbytes(VALUE))
        elif i % 8 == 1:
            client.apply("wl_derive", [acc], [src], [acc, src])
        else:
            client.apply("wl_combine", [src, acc], [acc], [src, acc])

    _client_rounds(port, count, step)


def _hot_values(client) -> dict:
    return {f"h{k}": client.get(f"h{k}")[0] for k in range(HOT_KEYS)}


def _live_values() -> int:
    """Distinct ``bytes`` objects of at least ``VALUE`` bytes that
    something in this process still references.  ``bytes`` are not
    gc-tracked, and neither is a dict or tuple holding only such atoms
    (an operation's ``payload`` is one), so each tracked object's
    referents are followed through untracked containers."""
    gc.collect()
    found = set()
    for holder in gc.get_objects():
        pending = gc.get_referents(holder)
        while pending:
            held = pending.pop()
            if type(held) is bytes:
                if len(held) >= VALUE:
                    found.add(id(held))
            elif type(held) in (dict, tuple) and not gc.is_tracked(held):
                pending.extend(gc.get_referents(held))
    return len(found)


def _engine_counters(port: int) -> dict:
    with DaemonClient("127.0.0.1", port) as client:
        counters = client.stats()["counters"]
    return {
        name.split(".", 1)[1]: value
        for name, value in counters.items()
        if name.startswith("engine.")
    }


@pytest.fixture
def no_online_checkpoint(monkeypatch):
    """Hold the daemon's online checkpoint off, so what it would install
    stays pinned — the subject here is what a pinned operation costs."""
    monkeypatch.setattr(worker_module, "ONLINE_CHECKPOINT_BYTES", 1 << 40)


def test_pinned_operations_keep_footprints_not_values(
    tmp_path, no_online_checkpoint
):
    """Over a file log a value has two homes — its frame in ``wal.log``
    and the cache's current version — so thousands of operations pinned
    in the graph hold no payload and no ``Operation``; the same once the
    shard has been killed and recovered from the file."""
    config = DaemonConfig(port=0, http_port=None, allow_chaos=True)
    value_bound = HOT_KEYS + config.max_queue + SLACK
    op_bound = config.max_queue + SLACK
    values, ops = _live_values(), _live(Operation, LogRecord)
    system = PersistentSystem.open(
        str(tmp_path / "db"), domains=[register_workload_functions]
    )
    daemon = ServeDaemon(system, config).start()
    try:
        _mixed_rounds(daemon.port, MIXED_OPS)
        shape = _engine_counters(daemon.port)
        # The operations *are* pinned: it is what each one costs, not
        # retirement, that bounds memory here.
        assert shape["live_ops"] >= 1_000, shape
        assert shape["largest_node_ops"] <= shape["live_ops"]
        assert 1 <= shape["largest_flush_set"] <= HOT_KEYS
        assert shape["live_nodes"] < shape["live_ops"]
        assert _live_values() - values <= value_bound
        assert _live(Operation, LogRecord) - ops <= op_bound

        with DaemonClient("127.0.0.1", daemon.port) as client:
            before = _hot_values(client)
            client.request("kill_shard", shard=0)
            client.request("revive_shard", shard=0)
            client.put("forced", b"one write through the committer")
            after = _hot_values(client)
        assert after == before
        del before, after
        # Redo re-adopted every record on the log; none of them stayed.
        shape = _engine_counters(daemon.port)
        assert shape["live_ops"] >= 1_000, shape
        assert _live_values() - values <= value_bound
        assert _live(Operation, LogRecord) - ops <= op_bound
    finally:
        daemon.stop(graceful=False)


def test_an_in_memory_log_keeps_the_payloads_recovery_needs(
    no_online_checkpoint,
):
    """The counter-case: an in-memory ``LogManager``'s record list *is*
    its device, so its records keep their operations — the graph's
    footprints took nothing redo reads."""
    system = RecoverableSystem()
    register_workload_functions(system.registry)
    config = DaemonConfig(port=0, http_port=None, allow_chaos=True)
    daemon = ServeDaemon(system, config).start()
    try:
        _mixed_rounds(daemon.port, MIXED_OPS // 4)
        assert system.history is None
        with DaemonClient("127.0.0.1", daemon.port) as client:
            before = _hot_values(client)
            assert sum(len(v or b"") == VALUE for v in before.values()) > 0
            client.request("kill_shard", shard=0)
            client.request("revive_shard", shard=0)
            after = _hot_values(client)
        assert after == before
        assert system.last_report.ops_redone == MIXED_OPS // 4
    finally:
        daemon.stop(graceful=False)


def test_a_failing_install_restarts_the_shard_not_the_thread():
    """The verb runs outside the request's own error handling; if its
    bookkeeping ever raises, the shard's volatile state is rebuilt from
    the log by the watchdog and the daemon keeps serving."""
    system = RecoverableSystem()
    daemon = ServeDaemon(system, DaemonConfig(port=0, http_port=None)).start()
    try:
        with DaemonClient(
            "127.0.0.1", daemon.port, policy=RetryPolicy(attempts=4)
        ) as client:
            client.put("k", b"1")
            calls = []

            def broken():
                calls.append(1)
                raise KeyError("no uninstalled write of 'k' at lSI 1")

            system.cache.install_unexposed = broken
            lsi = client.put("k", b"2")  # refused once, retried, acked
            assert calls and daemon.restarts() == 1
            assert client.get("k") == (b"2", lsi)
            assert client.put("k", b"3") > lsi
    finally:
        daemon.stop(graceful=False)
