"""Tests for runtime invariant checking (repro.core.invariants) — the
executable consequences of Lemmas 1-3 / Theorem 3."""

import pytest

from repro.common.errors import UnrecoverableStateError
from repro.core.invariants import (
    check_explainable,
    check_inv_parts,
    leading_edge_installed,
    stable_values_of,
)
from repro.core.oracle import Oracle
from repro.kernel.verify import verify_recovered
from tests.conftest import logical, physical


def _uninstalled(system):
    """What the cache manager holds: footprints, paired with the
    history's operations by lSI."""
    return system.cache.uninstalled_operations()


class TestLeadingEdge:
    def test_partition(self, system):
        a = physical("x", b"1")
        b = physical("y", b"2")
        system.execute(a)
        system.execute(b)
        system.purge()
        uninstalled = _uninstalled(system)
        installed = leading_edge_installed(system.history, uninstalled)
        assert installed == {a}
        assert [held.lsi for held in uninstalled] == [b.lsi]


class TestExplainabilityInvariant:
    def test_holds_after_every_install(self, system):
        """Theorem 3, executable: the stable state stays explainable by
        the leading edge after every PurgeCache step."""
        oracle = Oracle(system.registry)
        system.execute(physical("x", b"hello"))
        system.execute(logical("cp", "copy", {"x"}, {"y"}, ("x", "y")))
        system.execute(physical("x", b"world"))
        while True:
            check_explainable(
                system.history,
                _uninstalled(system),
                stable_values_of(system.store),
                oracle,
                search_on_failure=False,
            )
            if not system.purge():
                break

    def test_corruption_with_blind_initializer_still_explainable(self, system):
        # With a blind physical initializer on the log, ANY stable junk
        # in x is explainable by I = {}: full redo regenerates it.
        oracle = Oracle(system.registry)
        system.execute(physical("x", b"v"))
        system.execute(logical("touch", "wl_touch", {"x"}, {"x"}, ("x",)))
        system.flush_all()
        system.store.write("x", b"corrupt", 999)
        check_explainable(
            system.history,
            _uninstalled(system),
            stable_values_of(system.store),
            oracle,
            search_on_failure=True,
        )

    def test_detects_unexplainable_state(self, system):
        # x's every writer reads x (no blind re-creator), so a stable
        # value matching no prefix of the history is unexplainable.
        oracle = Oracle(system.registry)
        system.execute(logical("t1", "wl_touch", {"x"}, {"x"}, ("x",)))
        system.execute(logical("t2", "wl_touch", {"x"}, {"x"}, ("x",)))
        system.flush_all()
        system.store.write("x", b"corrupt", 999)
        with pytest.raises(UnrecoverableStateError, match="exposed"):
            check_explainable(
                system.history,
                _uninstalled(system),
                stable_values_of(system.store),
                oracle,
            )

    def test_fallback_search_accepts_smaller_explanations(self, system):
        """After a crash loses installation records, the leading edge
        may not explain S but a smaller prefix set does."""
        oracle = Oracle(system.registry)
        system.execute(physical("x", b"v"))
        system.execute(logical("cp", "copy", {"x"}, {"y"}, ("x", "y")))
        system.log.force()
        system.purge()
        # Pretend everything is installed (a stale leading edge): the
        # fallback search must still find the true explanation.
        check_explainable(
            system.history,
            set(),
            stable_values_of(system.store),
            oracle,
            search_on_failure=True,
        )


class TestInvParts:
    def test_parts_hold_during_normal_execution(self, system):
        system.execute(physical("x", b"1"))
        system.execute(logical("cp", "copy", {"x"}, {"y"}, ("x", "y")))
        system.purge()
        check_inv_parts(system.history, _uninstalled(system))

    def test_stable_values_of_extracts_mapping(self, system):
        system.execute(physical("x", b"1"))
        system.flush_all()
        values = stable_values_of(system.store)
        assert values == {"x": b"1"}
