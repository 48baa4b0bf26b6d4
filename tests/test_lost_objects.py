"""One lost-object verdict: the media redo names what it cannot rebuild.

A logical record's redo is correct only when every object it reads is
at or before that record's state.  With no backup image, a quarantine
redoes the retained log over the intact objects, so the media redo pass
keeps the ledger of lost objects itself: it starts from the quarantined
objects, refuses a record that reads a lost object or an input past it
(its writes join the ledger), and lets a redone record take its writes
out.  ``recover()`` lands DEGRADED whenever the ledger is not empty.

The rot sweep rots each stored object in turn after a logical workload,
crashes, and supervises recovery without a backup: no object may be
served with a value the oracle disagrees with.  The strict xfails pin
what a ledger kept in RAM cannot see across a process's death or a
logstore's fallback to an older frame, and the one input the vSI rule
cannot see: an object whose delete was installed.
"""

from __future__ import annotations

import hashlib
import os
import random
import urllib.parse

import pytest

from repro.common.errors import DegradedModeError, SimulatedCrash
from repro.core.operation import (
    Operation, OpKind, delete_object, put_object,
)
from repro.kernel.supervisor import RecoverySupervisor, SupervisorConfig
from repro.kernel.system import RecoverableSystem, SystemHealth
from repro.persist import PersistentSystem
from repro.storage.faults import FaultKind, FaultModel
from repro.storage.faultwrap import damaged_value, flip_byte_in_file
from repro.storage.framing import OVERHEAD
from repro.storage.registry import make_log, make_store
from repro.storage.stable_store import StoredVersion
from repro.workloads import (
    LogicalWorkload,
    LogicalWorkloadConfig,
    register_workload_functions,
)

SEEDS = range(40)


def _derive(src: str, dst: str) -> Operation:
    return Operation(
        f"derive({src}->{dst})", OpKind.LOGICAL, reads={src}, writes={dst},
        fn="wl_derive", params=(src, dst),
    )


def _derived(value: bytes) -> bytes:
    return hashlib.sha256(b"derive" + value).digest()


def _system(backend: str, root: str) -> RecoverableSystem:
    """A system over ``root``; the memory store is the checksummed
    fault-injecting one, so its scrub sees rot."""
    model = FaultModel(armed=False) if backend == "memory" else None
    root = None if backend == "memory" else root
    system = RecoverableSystem(
        store=make_store(backend, root, model=model),
        log=make_log(backend, root),
    )
    register_workload_functions(system.registry)
    return system


def _rot(system: RecoverableSystem, backend: str, root: str, obj) -> None:
    """Damage ``obj``'s stored version and leave its checksum stale."""
    store = system.store
    if backend == "memory":
        stored = store._versions[obj]
        store._versions[obj] = StoredVersion(
            damaged_value(stored.value, FaultKind.CORRUPT, 0), stored.vsi
        )
    elif backend == "file":
        path = os.path.join(
            root, "objects", urllib.parse.quote(obj, safe="") + ".obj"
        )
        size = os.path.getsize(path)
        flip_byte_in_file(path, OVERHEAD + (size - OVERHEAD) // 2)
    else:
        loc = store._index[obj]
        path = os.path.join(root, "segments", f"seg-{loc.seg_id:08d}.seg")
        flip_byte_in_file(
            path, loc.offset + OVERHEAD + (loc.length - OVERHEAD) // 2
        )


def _drive(system: RecoverableSystem, seed: int) -> None:
    config = LogicalWorkloadConfig(objects=6, operations=30)
    interleave = random.Random(seed)
    for op in LogicalWorkload(config, seed=seed).operations():
        system.execute(op)
        if interleave.random() < 0.4:
            system.log.force()
        if interleave.random() < 0.5:
            system.purge()
        if interleave.random() < 0.1:
            system.checkpoint(truncate=interleave.random() < 0.6)


def _rotted_and_recovered(backend: str, root: str, seed: int, victim):
    """Drive, crash, rot ``victim`` (while closed, on ``file``), then
    supervise recovery with no backup; returns the recovered system,
    the oracle's values and the objects that were stored."""
    system = _system(backend, root)
    _drive(system, seed)
    system.crash()
    expected = system.oracle().replay(list(system.history))
    stored = system.store.object_ids()
    if victim is not None:
        if backend == "file":
            system.close()
            _rot(system, backend, root, victim)
            system = _system(backend, root)
        else:
            _rot(system, backend, root, victim)
        RecoverySupervisor(system).run()
    return system, expected, stored


@pytest.mark.parametrize("backend", ["memory", "file", "logstore"])
def test_rot_sweep_serves_no_wrong_object(tmp_path, backend):
    wrong, points, lost = [], 0, 0
    for seed in SEEDS:
        _, _, stored = _rotted_and_recovered(
            backend, str(tmp_path / f"{seed}"), seed, None
        )
        for victim in sorted(stored):
            root = str(tmp_path / f"{seed}-{points}")
            system, expected, _ = _rotted_and_recovered(
                backend, root, seed, victim
            )
            points += 1
            assert system.health in (
                SystemHealth.HEALTHY, SystemHealth.DEGRADED
            ), (seed, victim, system.health)
            assert (system.health is SystemHealth.DEGRADED) == bool(
                system.lost_objects
            )
            lost += len(system.lost_objects)
            wrong.extend(
                (seed, victim, obj)
                for obj, value in expected.items()
                if obj not in system.lost_objects
                and system.read(obj) != value
            )
            system.close()
    assert points >= 200
    assert lost > 0
    assert wrong == []


# ----------------------------------------------------------------------
# named regressions
# ----------------------------------------------------------------------
def _truncated_put_on_disk(backend: str, dbdir: str) -> None:
    """``q`` is put, installed, and its record truncated off the log."""
    system = PersistentSystem.open(dbdir, store_backend=backend)
    system.execute(put_object("q", b"q0"))
    system.execute(put_object("r", b"r0"))
    system.flush_all()
    system.checkpoint(truncate=True)
    system.close()


def _rot_closed_file(dbdir: str, obj: str) -> None:
    path = os.path.join(dbdir, "objects", obj + ".obj")
    flip_byte_in_file(path, OVERHEAD + 1)


@pytest.mark.parametrize("supervised", [True, False])
def test_file_rotted_while_closed_is_lost_on_reopen(tmp_path, supervised):
    dbdir = str(tmp_path)
    _truncated_put_on_disk("file", dbdir)
    _rot_closed_file(dbdir, "q")
    system = PersistentSystem.open(
        dbdir,
        supervisor_config=SupervisorConfig() if supervised else None,
    )
    assert system.health is SystemHealth.DEGRADED
    assert system.lost_objects == {"q"}
    assert system.read("r") == b"r0"
    with pytest.raises(DegradedModeError):
        system.read("q")
    if supervised:
        assert system.last_failure_report.objects_lost == ["q"]
    system.close()


def _quarantined_input(system: RecoverableSystem) -> None:
    """``q`` installed with its record truncated, then ``c :=
    derive(q)`` logged but not installed, then ``q`` rots."""
    system.execute(put_object("q", b"q0"))
    system.flush_all()
    system.checkpoint(truncate=True)
    system.execute(_derive("q", "c"))
    system.log.force()
    _rot(system, "memory", "", "q")
    system.crash()


def test_uninstalled_derive_over_a_quarantined_input_is_lost():
    system = _system("memory", "")
    _quarantined_input(system)
    report = RecoverySupervisor(system).run()
    assert report.final_health is SystemHealth.DEGRADED, report.summary()
    assert report.objects_lost == ["c", "q"]
    assert report.objects_restored == []
    assert system.last_report.ops_voided == 1
    with pytest.raises(DegradedModeError):
        system.read("c")


def test_a_degraded_system_stays_degraded_across_a_crash():
    system = _system("memory", "")
    system.execute(put_object("s", b"s0"))
    _quarantined_input(system)
    RecoverySupervisor(system).run()
    assert system.lost_objects == {"c", "q"}
    system.crash()
    report = RecoverySupervisor(system).run()
    assert report.final_health is SystemHealth.DEGRADED, report.summary()
    assert report.objects_lost == ["c", "q"]
    assert system.read("s") == b"s0"
    with pytest.raises(DegradedModeError):
        system.read("q")


def test_a_redone_writer_rebuilds_a_quarantined_object():
    """The record that wrote the rotted object is still on the log:
    the media redo rebuilds it, and the derive over it, HEALTHY."""
    system = _system("memory", "")
    system.execute(put_object("q", b"q0"))
    system.execute(_derive("q", "c"))
    system.flush_all()
    _rot(system, "memory", "", "q")
    system.crash()
    report = RecoverySupervisor(system).run()
    assert report.final_health is SystemHealth.HEALTHY, report.summary()
    assert report.objects_restored == ["q"]
    assert system.read("q") == b"q0"
    assert system.read("c") == _derived(b"q0")


# ----------------------------------------------------------------------
# what a ledger kept in RAM cannot see
# ----------------------------------------------------------------------
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the quarantine set and the DEGRADED verdict live only in "
    "RAM and the media marker holds only an lSI: the next open is "
    "HEALTHY and q reads None",
)
@pytest.mark.parametrize("death", ["mid-redo", "after-verdict"])
def test_file_lost_object_survives_process_death(
    tmp_path, monkeypatch, death
):
    from repro.core.recovery import RecoveryManager

    dbdir = str(tmp_path)
    _truncated_put_on_disk("file", dbdir)
    _rot_closed_file(dbdir, "q")
    if death == "mid-redo":
        def die(self, media_redo_start=None, lost=()):
            raise SimulatedCrash("process killed mid-media-redo")

        with monkeypatch.context() as patch:
            patch.setattr(RecoveryManager, "run", die)
            with pytest.raises(SimulatedCrash):
                PersistentSystem.open(dbdir)
    else:
        first = PersistentSystem.open(dbdir)
        assert first.lost_objects == {"q"}
        first.close()
    system = PersistentSystem.open(dbdir)
    try:
        assert system.health is SystemHealth.DEGRADED
        assert system.lost_objects == {"q"}
    finally:
        system.close()


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a logstore whose newest frame of q rotted while closed "
    "reopens on the older frame; _rebuild names no object, so the "
    "system is HEALTHY with a stale q",
)
def test_logstore_newest_frame_rotted_while_closed_is_lost(tmp_path):
    dbdir = str(tmp_path)
    system = PersistentSystem.open(dbdir, store_backend="logstore")
    system.execute(put_object("q", b"q0"))
    system.flush_all()
    system.execute(put_object("q", b"q1"))
    system.flush_all()
    system.checkpoint(truncate=True)
    system.close()
    _rot(system, "logstore", dbdir, "q")
    system = PersistentSystem.open(dbdir, store_backend="logstore")
    try:
        assert "q" in system.lost_objects or system.read("q") == b"q1"
    finally:
        system.close()


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="an installed delete leaves no vSI behind: the media redo "
    "reads the deleted input as absent, not as past the record",
)
def test_a_deleted_input_is_not_read_as_absent():
    """``x := derive(o)`` then ``delete(o)``, both installed, ``o``'s
    put truncated; ``x`` rots.  The redo of the derive reads ``o``
    absent, though at its lSI ``o`` held ``o0``."""
    system = _system("memory", "")
    system.execute(put_object("o", b"o0"))
    system.flush_all()
    system.checkpoint(truncate=True)
    system.execute(_derive("o", "x"))
    system.execute(delete_object("o"))
    system.flush_all()
    _rot(system, "memory", "", "x")
    system.crash()
    RecoverySupervisor(system).run()
    assert "x" in system.lost_objects or system.read("x") == _derived(b"o0")
