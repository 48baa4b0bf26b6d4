"""Unit tests for the REDO tests (repro.core.redo, Section 5)."""

from repro.common.identifiers import NULL_SI
from repro.core.operation import Operation, OpKind
from repro.core.redo import (
    GeneralizedRedoTest,
    RedoAll,
    RedoDecision,
    VsiRedoTest,
)
from repro.core.state_identifiers import DirtyObjectTable


def _op(lsi, writes=("x",)):
    op = Operation(
        f"op@{lsi}",
        OpKind.PHYSICAL,
        reads=set(),
        writes=set(writes),
        payload={obj: b"v" for obj in writes},
    )
    op.lsi = lsi
    return op


def _vsi(values):
    return lambda obj: values.get(obj, NULL_SI)


class TestRedoAll:
    def test_always_redo(self):
        test = RedoAll()
        decision = test.decide(
            _op(5), _vsi({"x": 100}), DirtyObjectTable()
        )
        assert decision is RedoDecision.REDO


class TestVsiRedoTest:
    def test_redo_when_stale(self):
        test = VsiRedoTest()
        assert (
            test.decide(_op(5), _vsi({"x": 3}), DirtyObjectTable())
            is RedoDecision.REDO
        )

    def test_skip_when_vsi_current(self):
        test = VsiRedoTest()
        assert (
            test.decide(_op(5), _vsi({"x": 5}), DirtyObjectTable())
            is RedoDecision.SKIP_INSTALLED
        )

    def test_any_object_proves_installation(self):
        # Atomic installation: one up-to-date object proves the whole
        # writeset installed even if others were never flushed (rW).
        test = VsiRedoTest()
        op = _op(5, writes=("x", "y"))
        decision = test.decide(
            op, _vsi({"x": NULL_SI, "y": 7}), DirtyObjectTable()
        )
        assert decision is RedoDecision.SKIP_INSTALLED

    def test_unexposed_not_detected(self):
        # The vSI test's blind spot: installed-without-flush operations
        # look uninstalled and get (safely but wastefully) redone.
        test = VsiRedoTest()
        dirty = DirtyObjectTable({"x": 9})  # rSI advanced past the op
        assert (
            test.decide(_op(5), _vsi({"x": 0}), dirty) is RedoDecision.REDO
        )


class TestGeneralizedRedoTest:
    def test_skip_clean_object(self):
        # Object not in the dirty table: every logged op on it is
        # installed (or its lifetime ended); never redo.
        test = GeneralizedRedoTest()
        decision = test.decide(_op(5), _vsi({}), DirtyObjectTable())
        assert decision is RedoDecision.SKIP_UNEXPOSED

    def test_skip_below_rsi(self):
        # lSI < rSI: the op was installed (possibly without flushing).
        test = GeneralizedRedoTest()
        dirty = DirtyObjectTable({"x": 9})
        decision = test.decide(_op(5), _vsi({"x": 0}), dirty)
        assert decision is RedoDecision.SKIP_UNEXPOSED

    def test_redo_at_rsi(self):
        test = GeneralizedRedoTest()
        dirty = DirtyObjectTable({"x": 5})
        assert (
            test.decide(_op(5), _vsi({"x": 0}), dirty) is RedoDecision.REDO
        )

    def test_vsi_backstop_catches_lost_installation_record(self):
        # The dirty table says redo (stale rSI because the installation
        # record was lost with the buffer), but the flushed version
        # proves installation.
        test = GeneralizedRedoTest()
        dirty = DirtyObjectTable({"x": 2})
        decision = test.decide(_op(5), _vsi({"x": 5}), dirty)
        assert decision is RedoDecision.SKIP_INSTALLED

    def test_multi_object_any_exposed_triggers_redo(self):
        test = GeneralizedRedoTest()
        op = _op(5, writes=("x", "y"))
        dirty = DirtyObjectTable({"x": 9, "y": 4})  # y still needs op
        assert (
            test.decide(op, _vsi({}), dirty) is RedoDecision.REDO
        )

    def test_names(self):
        assert RedoAll().name == "redo-all"
        assert VsiRedoTest().name == "vsi"
        assert GeneralizedRedoTest().name == "rsi"
