"""Media repair restores the whole backup image.

A logical record's redo is correct only when every object it reads is at
the state the record read.  Restoring one quarantined object from the
image and redoing ``derive(a -> b)`` against an ``a`` installed past that
record breaks that; restoring the whole image cannot.  These tests pin
the sweep points the per-object repair failed, a crash at each write of
the restore, and the no-backup site, where the redo refuses such a
record and names its writes lost.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.operation import Operation, OpKind, put_object
from repro.kernel.backup_manager import BackupManager
from repro.kernel.supervisor import RecoverySupervisor
from repro.kernel.system import RecoverableSystem, SystemHealth
from repro.kernel.torture import TortureHarness
from repro.kernel.verify import verify_recovered
from repro.storage.faults import (
    RECOVERY_PHASE, FaultCrash, FaultKind, FaultModel, FaultSpec,
)
from repro.storage.faultwrap import FaultyStore, damaged_value
from repro.storage.registry import make_log, make_store
from repro.storage.stable_store import StoredVersion
from repro.workloads import register_workload_functions
from tests.conftest import small_cache_torture


def _derive(src: str, dst: str) -> Operation:
    return Operation(
        f"derive({src}->{dst})", OpKind.LOGICAL, reads={src}, writes={dst},
        fn="wl_derive", params=(src, dst),
    )


def _touch(obj: str) -> Operation:
    return Operation(
        f"touch({obj})", OpKind.PHYSIOLOGICAL, reads={obj}, writes={obj},
        fn="wl_touch", params=(obj,),
    )


def _touched(value: bytes) -> bytes:
    return hashlib.sha256(b"touch" + value).digest()


# ----------------------------------------------------------------------
# the sweep points a per-object repair failed
# ----------------------------------------------------------------------
#: Every point of the bounded-cache forward sweep that failed while a
#: quarantine restored only the damaged object from the image; each
#: ended in a ``VerificationError`` on a derived object.
PER_OBJECT_REPAIR_FAILURES = {
    "memory": (
        "corrupt@17 corrupt@19 corrupt@25 corrupt@28 corrupt@29 "
        "corrupt@44 torn@47! torn@49! corrupt@49 corrupt@58 corrupt@60 "
        "corrupt@63 corrupt@66 corrupt@67 torn@74! corrupt@74"
    ),
    "file": (
        "corrupt@15 corrupt@22 torn@36! torn@38! corrupt@38 corrupt@46 "
        "corrupt@51 torn@56! corrupt@56"
    ),
    "logstore": (
        "corrupt@15 corrupt@22 corrupt@38 corrupt@46 corrupt@51 corrupt@56"
    ),
}


def _spec(description: str) -> FaultSpec:
    """The sweep's spec for ``kind@point`` (``!``: crash after it)."""
    kind, point = description.rstrip("!").split("@")
    return FaultSpec(
        int(point), FaultKind(kind), crash=description.endswith("!")
    )


@pytest.mark.parametrize(
    "backend, description",
    [
        (backend, description)
        for backend, points in PER_OBJECT_REPAIR_FAILURES.items()
        for description in points.split()
    ],
    ids=lambda value: value,
)
def test_small_cache_sweep_point_recovers(backend, description):
    harness = TortureHarness(small_cache_torture(backend))
    spec = _spec(description)
    assert spec.describe() == description
    outcome = harness.run(FaultModel([spec]), description)
    assert outcome.ok, outcome.error
    assert outcome.trace == [description]


# ----------------------------------------------------------------------
# a crash inside the restore
# ----------------------------------------------------------------------
#: Objects in the backup image: the restore's first writes are recovery
#: points ``0 .. IMAGE-1`` (it runs before the log is scanned).
IMAGE = 4


def _damaged_after_backup(backend, root, model):
    """A clean, installed, checkpointed prefix of IMAGE puts is backed
    up; then every imaged object is touched and derived from, the flush
    that installs them rots its first store write, and the machine
    crashes."""
    system = RecoverableSystem(
        store=make_store(backend, root, model=model),
        log=make_log(backend, root, model=model),
    )
    register_workload_functions(system.registry)
    for index in range(IMAGE):
        system.execute(put_object(f"obj:{index}", b"v0-%d" % index))
    system.flush_all()
    system.checkpoint()
    backup = BackupManager(system).take_backup()
    assert len(backup) == IMAGE
    for index in range(IMAGE):
        system.execute(_touch(f"obj:{index}"))
        system.execute(_derive(f"obj:{index}", f"copy:{index}"))
    system.log.force()
    model.armed = True
    system.flush_all()
    system.crash()
    model.enter_phase(RECOVERY_PHASE)
    return system, backup


@pytest.mark.parametrize("point", range(IMAGE))
@pytest.mark.parametrize("backend", ["file", "logstore"])
def test_crash_inside_the_restore_restores_again(tmp_path, backend, point):
    model = FaultModel(
        [
            FaultSpec(0, FaultKind.CORRUPT),
            FaultSpec(point, FaultKind.CRASH, phase=RECOVERY_PHASE),
        ],
        armed=False,
    )
    system, backup = _damaged_after_backup(backend, str(tmp_path), model)
    with pytest.raises(FaultCrash):
        system.recover(quarantine_backup=backup)
    # Died inside the restore: part of the image landed, and the
    # marker that was written before it says a restore is pending.
    assert system.stats.quarantines == 1
    assert len(system.store) == point
    assert system.store.media_redo_pending == backup.start_lsi
    report = RecoverySupervisor(system, backup=backup).run()
    assert report.final_health is SystemHealth.HEALTHY, report.summary()
    assert model.trace() == ["corrupt@0", f"crash@r{point}"]
    assert system.store.media_redo_pending is None
    assert system.stats.media_recoveries == 1
    verify_recovered(system)


# ----------------------------------------------------------------------
# without a backup the media redo names what it could not rebuild
# ----------------------------------------------------------------------
def test_quarantine_without_backup_keeps_derived_values():
    model = FaultModel(armed=False)
    system = RecoverableSystem(store=FaultyStore(model))
    register_workload_functions(system.registry)
    system.execute(put_object("a", b"v0"))
    system.execute(_derive("a", "b"))
    system.flush_all()
    system.execute(_touch("a"))
    system.flush_all()
    # Rot b on the device; its checksum still describes the intended
    # version, so the pre-recovery scrub quarantines it.
    stored = system.store.peek("b")
    system.store._versions["b"] = StoredVersion(
        damaged_value(stored.value, FaultKind.CORRUPT, 0), stored.vsi
    )
    system.crash()
    report = RecoverySupervisor(system).run()
    assert system.stats.quarantines == 1
    # derive(a->b) would read the touched a: b is lost, not served wrong.
    assert report.final_health is SystemHealth.DEGRADED, report.summary()
    assert report.objects_lost == ["b"]
    assert system.read("a") == _touched(b"v0")
