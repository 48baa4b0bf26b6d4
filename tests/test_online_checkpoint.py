"""The online truncating checkpoint: ``install_before`` and what uses it.

Bottom up:

* ``CacheManager.install_before(lsi)`` installs what pins the log below
  ``lsi`` — oldest rSI first, each node after its predecessors, however
  new — and nothing newer that the old nodes do not wait for;
* a checkpoint reports what its installs cost, ``io.checkpoints`` counts
  checkpoints, and ``wal.appended_bytes`` counts what the log was given,
  which truncation never lowers;
* a served daemon's log stays about two intervals long however much it
  serves, and a restart over SIGKILL debris redoes from there.
"""

from __future__ import annotations

import pytest

from repro import RecoverableSystem, SystemConfig, verify_recovered
from repro.persist.file_log import FileLogManager
from repro.serve import DaemonClient, DaemonConfig
from repro.serve.worker import ONLINE_CHECKPOINT_BYTES
from repro.storage import make_store
from repro.topology import build_daemon, build_systems
from repro.workloads import register_workload_functions
from tests.conftest import logical, physical


def _system() -> RecoverableSystem:
    system = RecoverableSystem()
    register_workload_functions(system.registry)
    return system


# ----------------------------------------------------------------------
# the verb
# ----------------------------------------------------------------------
class TestInstallBefore:
    def test_it_installs_what_pins_the_log_and_nothing_newer(self):
        system = _system()
        for index in range(6):
            system.execute(physical(f"old{index}", b"o"))
        target = system.log.append(_marker())
        for index in range(6):
            system.execute(physical(f"new{index}", b"n"))
        installed = system.cache.install_before(target)
        assert installed == 6
        assert system.cache.dirty_table.min_rsi() > target
        assert sorted(system.cache.dirty_table.snapshot()) == [
            f"new{i}" for i in range(6)
        ]
        assert system.stats.flushes == 6

    def test_predecessors_install_first_whatever_their_age(self):
        # x's old put and a newer x := touch(x) share a node; the newer
        # z := derive(x) read x in between, so its node must install
        # first (the touch overwrites what it read) — new as it is.
        system = _system()
        system.execute(physical("x", b"v1"))
        target = system.log.append(_marker())
        system.execute(logical("d", "wl_derive", {"x"}, {"z"}, ("x", "z")))
        system.execute(logical("t", "wl_touch", {"x"}, {"x"}, ("x",)))
        system.execute(physical("y", b"newer, unrelated"))
        derive, touch, _ = system.cache.uninstalled_operations()[1:]
        holder = system.engine.node_of(touch)
        assert system.engine.predecessors(holder) == {
            system.engine.node_of(derive)
        }
        assert system.cache.install_before(target) == 2
        assert sorted(system.cache.dirty_table.snapshot()) == ["y"]
        system.log.force()
        system.crash()
        system.recover()
        verify_recovered(system)

    def test_a_blind_overwrite_leaves_nothing_to_flush(self):
        system = _system()
        system.execute(physical("k", b"v1"))
        target = system.log.append(_marker())
        system.execute(physical("k", b"v2"))
        assert system.cache.install_before(target) == 1
        # Unexposed by the later put: installed with no store write.
        assert system.stats.object_writes == 0
        assert system.cache.dirty_table.rsi_of("k") > target

    def test_nothing_below_is_nothing_to_do(self):
        system = _system()
        system.execute(physical("k", b"v"))
        forces = system.stats.log_forces
        assert system.cache.install_before(1) == 0
        assert system.stats.log_forces == forces  # not even a force


def _marker():
    """A record that is not an operation, to take an lSI with."""
    from repro.wal.records import LogRecord

    return LogRecord()


# ----------------------------------------------------------------------
# what a checkpoint reports
# ----------------------------------------------------------------------
class TestAccounting:
    def test_a_checkpoint_reports_its_installs_and_flushed_bytes(self):
        system = _system()
        registry = system.attach_metrics()
        for index in range(4):
            system.execute(physical(f"k{index}", b"x" * 100))
        first = system.checkpoint(truncate=True)
        system.execute(physical("k0", b"y" * 100))  # unexposes k0's put
        system.checkpoint(truncate=True, install_below=first)
        snapshot = registry.snapshot()
        installs = snapshot["histograms"]["cache.checkpoint_installs"]
        flushed = snapshot["histograms"]["cache.checkpoint_flushed_bytes"]
        assert (installs["count"], installs["sum"]) == (2, 4)
        assert (flushed["count"], flushed["sum"]) == (2, 300)
        assert snapshot["histograms"]["cache.checkpoint"]["count"] == 2
        assert snapshot["counters"]["io.checkpoints"] == 2

    def test_appended_bytes_survive_truncation(self, tmp_path):
        root = str(tmp_path)
        system = RecoverableSystem(
            SystemConfig(checkpoint_every_bytes=4096),
            store=make_store("file", root),
            log=FileLogManager(root),
        )
        seen = []
        for index in range(400):
            system.execute(physical(f"k{index % 4}", b"v" * 64))
            system.log.force()
            footprint = system.log.footprint()
            seen.append(footprint["appended_bytes"])
            assert footprint["stable_bytes"] <= footprint["appended_bytes"]
        assert seen == sorted(seen)
        assert system.stats.checkpoints > 2
        assert seen[-1] > 4 * system.log.footprint()["stable_bytes"]
        system.close()


# ----------------------------------------------------------------------
# a served daemon
# ----------------------------------------------------------------------
VALUE = 8192
KEYS = 48


@pytest.mark.parametrize("backend", ["file", "logstore"])
def test_a_served_log_stays_two_intervals_long(tmp_path, backend):
    """8 KiB puts past six intervals: the file never holds much more
    than two, and a restart over the SIGKILL debris redoes what it holds
    — not every write served — and loses no acked value."""
    root = str(tmp_path / "data")
    sharded = build_systems(1, backend, root)
    daemon = build_daemon(sharded, DaemonConfig(port=0, http_port=None))
    daemon.start()
    acked, peak = {}, 0
    try:
        with DaemonClient("127.0.0.1", daemon.port) as client:
            for index in range(7 * ONLINE_CHECKPOINT_BYTES // VALUE):
                key = f"k{index % KEYS}"
                value = bytes([index % 251]) * VALUE
                client.put(key, value)
                acked[key] = value
                if index % 16 == 0:
                    counters = client.stats()["counters"]
                    peak = max(peak, counters["wal.stable_bytes"])
            counters = client.stats()["counters"]
    finally:
        daemon.kill()
        sharded.close()
    appended = sharded.systems[0].stats.log_records
    assert counters["io.checkpoints"] >= 6
    assert peak <= 2 * ONLINE_CHECKPOINT_BYTES + 4 * VALUE, peak
    assert counters["wal.appended_bytes"] > 3 * peak

    reopened = build_systems(1, backend, root)
    reopened.crash_all()
    daemon = build_daemon(reopened, DaemonConfig(port=0, http_port=None))
    daemon.start()
    try:
        with DaemonClient("127.0.0.1", daemon.port) as client:
            for key, value in acked.items():
                assert client.get(key)[0] == value, key
        report = reopened.systems[0].last_report
        assert report.records_scanned < appended / 3
    finally:
        daemon.stop(graceful=False)
        reopened.close()
