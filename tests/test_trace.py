"""Tests for the cache manager's event stream (``obs.emit``), as a
subscribed sink on the system's registry sees it."""

from repro import verify_recovered
from tests.conftest import listen, physical


class TestIntegration:
    def test_execute_and_install_events(self, system):
        events = listen(system)
        system.execute(physical("x", b"v"))
        system.flush_all()
        kinds = events.kinds()
        assert "execute" in kinds
        assert "install" in kinds
        install = events.of_kind("install")[0]
        assert install["vars"] == ("x",)

    def test_identity_write_events(self, system):
        events = listen(system)
        system.registry.register(
            "pairT", lambda reads: {"a": b"1", "b": b"2"}
        )
        from repro import Operation, OpKind

        system.execute(
            Operation(
                "pairT", OpKind.LOGICAL, reads=set(), writes={"a", "b"},
                fn="pairT",
            )
        )
        system.flush_all()
        assert events.kinds().count("identity-write") >= 1

    def test_tracer_survives_crash_recover(self, system):
        events = listen(system)
        system.execute(physical("x", b"v"))
        system.log.force()
        system.crash()
        system.recover()
        system.flush_all()
        verify_recovered(system)
        assert "install" in events.kinds()

    def test_notx_install_traced(self, system):
        events = listen(system)
        system.execute(physical("x", b"old"))
        system.execute(physical("x", b"new"))
        system.purge()
        installs = events.of_kind("install")
        assert installs[0]["notx"] == ("x",)
        assert installs[0]["vars"] == ()

    def test_checkpoint_and_evict_traced(self, system):
        events = listen(system)
        system.execute(physical("x", b"v"))
        system.flush_all()
        system.checkpoint()
        system.cache.evict("x")
        assert "checkpoint" in events.kinds()
        assert "evict" in events.kinds()
