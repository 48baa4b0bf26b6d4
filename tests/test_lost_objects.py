"""One lost-object verdict: the media redo names what it cannot rebuild.

A logical record's redo is correct only when every object it reads is
at or before that record's state.  With no backup image, a quarantine
redoes the retained log over the intact objects, so the media redo pass
keeps the ledger of lost objects itself: it starts from the quarantined
objects, refuses a record that reads a lost object or an input past it
(its writes join the ledger), and lets a redone record take its writes
out.  ``recover()`` lands DEGRADED whenever the ledger is not empty.

The rot sweep is the torture harness's rot row
(``repro.kernel.torture.ROT``, ``python -m repro torture rot``): each
stored object rotted in turn after a truncating workload, a crash, and
recovery supervised without a backup; no object outside the ledger may
be served with a value the oracle disagrees with.  Here it runs over
forty workload seeds.  The strict xfails pin what a ledger kept in RAM
cannot see across a process's death or a logstore's fallback to an
older frame, and the inputs the vSI rule cannot see: an object whose
delete was installed, and one whose writes were truncated.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from repro.common.errors import DegradedModeError, SimulatedCrash
from repro.core.operation import (
    Operation, OpKind, delete_object, put_object,
)
from repro.kernel.supervisor import RecoverySupervisor, SupervisorConfig
from repro.kernel.system import RecoverableSystem, SystemHealth
from repro.kernel.torture import ROT, TortureConfig, TortureHarness
from repro.persist import PersistentSystem
from repro.storage.faults import ROT_PHASE, FaultKind, FaultModel, FaultSpec
from repro.storage.faultwrap import flip_byte_in_file
from repro.storage.framing import OVERHEAD
from repro.storage.registry import make_log, make_store
from repro.workloads import register_workload_functions

SEEDS = range(40)


def _derive(src: str, dst: str) -> Operation:
    return Operation(
        f"derive({src}->{dst})", OpKind.LOGICAL, reads={src}, writes={dst},
        fn="wl_derive", params=(src, dst),
    )


def _derived(value: bytes) -> bytes:
    return hashlib.sha256(b"derive" + value).digest()


def _system() -> RecoverableSystem:
    """An in-memory system on the checksummed fault-injecting store, so
    its scrub sees rot (``system.store.rot``)."""
    system = RecoverableSystem(
        store=make_store("memory", model=FaultModel(armed=False)),
        log=make_log("memory"),
    )
    register_workload_functions(system.registry)
    return system


def _workload(backend: str, seed: int) -> TortureConfig:
    """The rot sweep's workload from before it was a torture row:
    6 objects, 30 operations of 256 B, no deletes, a purge after half
    the operations (the row adds its truncating checkpoints)."""
    return TortureConfig(
        objects=6, operations=30, object_size=256, p_delete=0.0,
        p_purge=0.5, workload_seed=seed, store_backend=backend,
    )


@pytest.mark.parametrize("backend", ["memory", "file", "logstore"])
def test_rot_row_over_forty_workload_seeds(backend):
    points = lost = 0
    wrong = []
    for seed in SEEDS:
        report = TortureHarness(_workload(backend, seed)).sweep(ROT)
        points += report.points
        lost += report.total("lost")
        wrong += [(seed, outcome.description) for outcome in report.failures()]
    assert points >= 200
    assert lost > 0
    # The one cell serving a wrong object is the pinned hole of
    # test_an_input_whose_writes_were_truncated_is_lost.
    assert wrong == [(28, "corrupt@o3")]


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
    system.store.rot("q", 0)
    system.crash()


def test_uninstalled_derive_over_a_quarantined_input_is_lost():
    system = _system()
    _quarantined_input(system)
    report = RecoverySupervisor(system).run()
    assert report.final_health is SystemHealth.DEGRADED, report.summary()
    assert report.objects_lost == ["c", "q"]
    assert report.objects_restored == []
    assert system.last_report.ops_voided == 1
    with pytest.raises(DegradedModeError):
        system.read("c")


def test_a_degraded_system_stays_degraded_across_a_crash():
    system = _system()
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
    system = _system()
    system.execute(put_object("q", b"q0"))
    system.execute(_derive("q", "c"))
    system.flush_all()
    system.store.rot("q", 0)
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
    loc = system.store._index["q"]
    flip_byte_in_file(
        os.path.join(dbdir, "segments", f"seg-{loc.seg_id:08d}.seg"),
        loc.offset + OVERHEAD + (loc.length - OVERHEAD) // 2,
    )
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
    system = _system()
    system.execute(put_object("o", b"o0"))
    system.flush_all()
    system.checkpoint(truncate=True)
    system.execute(_derive("o", "x"))
    system.execute(delete_object("o"))
    system.flush_all()
    system.store.rot("x", 0)
    system.crash()
    RecoverySupervisor(system).run()
    assert "x" in system.lost_objects or system.read("x") == _derived(b"o0")


# ----------------------------------------------------------------------
# what the rot row finds
# ----------------------------------------------------------------------
def _rot_cell(config: TortureConfig, point: int):
    harness = TortureHarness(config)
    spec = FaultSpec(point, FaultKind.CORRUPT, phase=ROT_PHASE)
    return harness.run(FaultModel([spec]), spec.describe(), ROT)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="obj:3 is installed from derive(obj:1->obj:3) at lSI 30; "
    "obj:1's writes between its stored vSI 9 and lSI 30 are truncated "
    "off the log.  obj:3 rots; the media redo reads obj:1 at vSI 9, "
    "which is not past the record, and rebuilds obj:3 wrong, HEALTHY",
)
@pytest.mark.parametrize("backend", ["memory", "file", "logstore"])
def test_an_input_whose_writes_were_truncated_is_lost(backend):
    outcome = _rot_cell(_workload(backend, 28), 3)
    assert outcome.ok, outcome.error
