"""Tests for automatic checkpointing (SystemConfig.checkpoint_every_bytes)."""

import itertools
import random

import pytest

from repro import RecoverableSystem, SystemConfig, verify_recovered
from repro.workloads import (
    LogicalWorkload,
    LogicalWorkloadConfig,
    register_workload_functions,
)
from tests.conftest import logical, physical


def _checkpoints(system) -> int:
    """Checkpoints written — counted, not read off the retained log,
    which each truncating checkpoint shortens."""
    return system.stats.checkpoints


def _stable_bytes(system) -> int:
    """Modelled bytes of the stable log (the unit of the interval)."""
    return sum(record.record_size() for record in system.log.stable_records())


def _blind_puts():
    """Endless blind 32-byte puts over 1 024 uniformly drawn keys."""
    rng = random.Random(1)
    for index in itertools.count():
        yield physical(f"k{rng.randrange(1024)}", b"%032d" % index)


def _zipf_mix():
    """Endless Zipf-keyed mix over 256 keys: half 256-byte puts, the
    rest ``acc := combine(src, acc)`` with one in four an
    ``src := derive(acc)`` back out — chains and cycles for rW."""
    rng = random.Random(2)
    keys = [f"z{k}" for k in range(256)]
    weights = [1.0 / (k + 1) ** 1.1 for k in range(256)]
    written = set()
    for index in itertools.count():
        src, acc = rng.choices(keys, weights, k=2)
        if index % 2 == 0 or src == acc or not {src, acc} <= written:
            written.add(src)
            yield physical(src, bytes([index % 251]) * 256)
        elif index % 8 == 1:
            yield logical(
                f"derive#{index}", "wl_derive", {acc}, {src}, (acc, src)
            )
        else:
            yield logical(
                f"combine#{index}", "wl_combine", {src, acc}, {acc}, (src, acc)
            )


_WORKLOADS = {"blind-puts": _blind_puts, "zipf-mix": _zipf_mix}


class TestAutoCheckpoint:
    def test_checkpoints_fire_by_log_volume(self):
        system = RecoverableSystem(
            SystemConfig(checkpoint_every_bytes=2000)
        )
        for index in range(40):
            system.execute(physical(f"o{index}", b"v" * 64))
        assert _checkpoints(system) >= 2

    def test_disabled_by_default(self):
        system = RecoverableSystem()
        for index in range(40):
            system.execute(physical(f"o{index}", b"v" * 64))
        system.log.force()
        assert _checkpoints(system) == 0

    def test_truncation_keeps_log_bounded(self):
        bounded = RecoverableSystem(
            SystemConfig(checkpoint_every_bytes=3000)
        )
        unbounded = RecoverableSystem()
        for index in range(120):
            for system in (bounded, unbounded):
                system.execute(physical(f"o{index % 6}", b"v" * 64))
                system.flush_all()
        unbounded.log.force()
        bounded_len = len(list(bounded.log.stable_records()))
        unbounded_len = len(list(unbounded.log.stable_records()))
        assert bounded_len < unbounded_len / 2

    @pytest.mark.parametrize("workload", ["blind-puts", "zipf-mix"])
    def test_online_checkpoints_keep_the_log_bounded(self, workload):
        """The twin of the test above with nothing flushed by hand: each
        checkpoint installs what is older than the previous one, so the
        stable log holds two intervals plus the records of one
        checkpointing call (its operation, installs and checkpoint
        record) — over ten intervals — and recovers exactly."""
        every = 64 * 1024
        system = RecoverableSystem(SystemConfig(checkpoint_every_bytes=every))
        register_workload_functions(system.registry)
        batch = peak = 0
        for index, op in enumerate(_WORKLOADS[workload]()):
            before = (system.stats.log_bytes, system.stats.checkpoints)
            system.execute(op)
            if system.stats.checkpoints > before[1]:
                batch = max(batch, system.stats.log_bytes - before[0])
            if index % 16 == 0 or system.stats.checkpoints > before[1]:
                peak = max(peak, _stable_bytes(system))
                assert peak <= 2 * every + batch, (index, peak, batch)
            if system.stats.checkpoints > 10:
                break
        assert system.stats.flushes > 0  # installs, not a growing graph
        system.log.force()
        appended = system.stats.log_records
        system.crash()
        report = system.recover()
        verify_recovered(system)
        assert report.records_scanned < appended / 4

    def test_recovery_with_auto_checkpoints(self):
        system = RecoverableSystem(
            SystemConfig(checkpoint_every_bytes=1500)
        )
        register_workload_functions(system.registry)
        workload = LogicalWorkload(
            LogicalWorkloadConfig(objects=5, operations=60, object_size=48),
            seed=9,
        )
        for index, op in enumerate(workload.operations()):
            system.execute(op)
            if index % 7 == 0:
                system.purge()
        system.log.force()
        system.crash()
        system.recover()
        verify_recovered(system)

    def test_recovery_scans_from_latest_checkpoint(self):
        system = RecoverableSystem(
            SystemConfig(checkpoint_every_bytes=1000)
        )
        for index in range(30):
            system.execute(physical(f"o{index}", b"v" * 64))
            system.flush_all()
        system.crash()
        report = system.recover()
        verify_recovered(system)
        # Scan work is bounded by the checkpoint interval, not by the
        # 30-operation history.
        assert report.records_scanned < 20
