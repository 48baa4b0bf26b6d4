"""Hypothesis stateful model of the whole recoverable system.

A rule-based state machine drives a RecoverableSystem with an arbitrary
interleaving of operations, log forces, partial forces, purges,
checkpoints (with and without truncation), evictions, crashes and
recoveries — while a shadow model tracks the durable truth.  After
every recovery the system must agree with the model; structural
invariants (write-graph acyclicity, dirty-table/cache agreement) are
checked continuously.

This is the widest net in the suite: hypothesis shrinks any failing
interleaving to a minimal reproduction.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import (
    Operation,
    OpKind,
    RecoverableSystem,
    verify_recovered,
)
from repro.core.operation import TOMBSTONE, delete_object
from repro.workloads import register_workload_functions

OBJECTS = ["a", "b", "c", "d"]


class RecoverableSystemMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.system = RecoverableSystem()
        register_workload_functions(self.system.registry)
        self.counter = 0
        self.crashed = False

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def _execute(self, op):
        self.system.execute(op)

    @precondition(lambda self: not self.crashed)
    @rule(obj=st.sampled_from(OBJECTS))
    def physical_write(self, obj):
        self.counter += 1
        self._execute(
            Operation(
                f"wp({obj})#{self.counter}",
                OpKind.PHYSICAL,
                reads=set(),
                writes={obj},
                payload={obj: f"v{self.counter}".encode()},
            )
        )

    @precondition(lambda self: not self.crashed)
    @rule(src=st.sampled_from(OBJECTS), dst=st.sampled_from(OBJECTS))
    def logical_combine(self, src, dst):
        if src == dst:
            return
        if self.system.read(src) is None or self.system.read(dst) is None:
            return
        self.counter += 1
        self._execute(
            Operation(
                f"mix({src}->{dst})#{self.counter}",
                OpKind.LOGICAL,
                reads={src, dst},
                writes={dst},
                fn="wl_combine",
                params=(src, dst),
            )
        )

    @precondition(lambda self: not self.crashed)
    @rule(src=st.sampled_from(OBJECTS), dst=st.sampled_from(OBJECTS))
    def logical_derive(self, src, dst):
        if src == dst or self.system.read(src) is None:
            return
        self.counter += 1
        self._execute(
            Operation(
                f"derive({src}->{dst})#{self.counter}",
                OpKind.LOGICAL,
                reads={src},
                writes={dst},
                fn="wl_derive",
                params=(src, dst),
            )
        )

    @precondition(lambda self: not self.crashed)
    @rule(obj=st.sampled_from(OBJECTS))
    def touch(self, obj):
        if self.system.read(obj) is None:
            return
        self.counter += 1
        self._execute(
            Operation(
                f"touch({obj})#{self.counter}",
                OpKind.PHYSIOLOGICAL,
                reads={obj},
                writes={obj},
                fn="wl_touch",
                params=(obj,),
            )
        )

    @precondition(lambda self: not self.crashed)
    @rule(obj=st.sampled_from(OBJECTS))
    def delete(self, obj):
        if self.system.read(obj) is None:
            return
        self._execute(delete_object(obj))

    # ------------------------------------------------------------------
    # durability controls
    # ------------------------------------------------------------------
    @precondition(lambda self: not self.crashed)
    @rule()
    def force(self):
        self.system.log.force()

    @precondition(lambda self: not self.crashed)
    @rule(fraction=st.floats(min_value=0.0, max_value=1.0))
    def partial_force(self, fraction):
        buffered = self.system.log.buffered_lsis()
        if buffered:
            cut = buffered[int(fraction * (len(buffered) - 1))]
            self.system.log.force_through(cut)

    @precondition(lambda self: not self.crashed)
    @rule()
    def purge(self):
        self.system.purge()

    @precondition(lambda self: not self.crashed)
    @rule(truncate=st.booleans())
    def checkpoint(self, truncate):
        self.system.checkpoint(truncate=truncate)

    @precondition(lambda self: not self.crashed)
    @rule(obj=st.sampled_from(OBJECTS))
    def make_clean_and_evict(self, obj):
        entry = self.system.cache.entry(obj)
        if entry is None:
            return
        self.system.cache.make_clean(obj)
        self.system.cache.evict(obj)

    # ------------------------------------------------------------------
    # failure and repair
    # ------------------------------------------------------------------
    @precondition(lambda self: not self.crashed)
    @rule()
    def crash(self):
        self.system.crash()
        self.crashed = True

    @precondition(lambda self: self.crashed)
    @rule()
    def recover(self):
        self.system.recover()
        self.crashed = False
        verify_recovered(self.system)

    # ------------------------------------------------------------------
    # continuous invariants
    # ------------------------------------------------------------------
    @invariant()
    def write_graph_acyclic(self):
        if self.crashed:
            return
        assert self.system.cache.engine.is_acyclic()

    @invariant()
    def dirty_table_agrees_with_cache(self):
        if self.crashed:
            return
        cache = self.system.cache
        for obj, _ in cache.dirty_table.items():
            entry = cache.entry(obj)
            assert entry is not None, f"dirty {obj} not cached"
            # A dirty object has uninstalled updates or was installed
            # without flushing — either way its entry is dirty.
            assert entry.dirty, f"dirty-table {obj} has clean entry"

    @invariant()
    def vars_holders_unique(self):
        if self.crashed:
            return
        graph = self.system.cache.engine
        seen = set()
        for node in graph.nodes:
            overlap = seen & set(node.vars)
            assert not overlap, f"objects in two flush sets: {overlap}"
            seen |= set(node.vars)

    def teardown(self):
        # End every run cleanly: recover if crashed, verify, then
        # drain and verify once more.
        if self.crashed:
            self.system.recover()
        verify_recovered(self.system)
        self.system.flush_all()
        self.system.crash()
        self.system.recover()
        verify_recovered(self.system)


RecoverableSystemMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestRecoverableSystemMachine = RecoverableSystemMachine.TestCase
