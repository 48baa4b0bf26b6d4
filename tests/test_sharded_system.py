"""ShardedSystem: fence protocol, per-shard recovery, fence audit.

Each shard is a full RecoverableSystem with its own WAL; these tests
pin the properties the serving layer builds on: single-shard
operations touch exactly one kernel, cross-shard operations leave an
agreeing fence on every participant's stable log before returning,
recovery replays each shard independently (fence records are skipped
like any unknown kind), and the post-crash audit classifies fences as
complete / partial / conflicting exactly as the protocol permits.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.operation import Operation, OpKind
from repro.kernel.system import SystemHealth
from repro.shard import CrossShardError, ShardedSystem
from repro.wal.records import FenceRecord
from repro.workloads import register_workload_functions
from tests.conftest import logical, physical


def _sharded(shards: int = 2) -> ShardedSystem:
    sharded = ShardedSystem.build(shards)
    register_workload_functions(sharded.registry)
    return sharded


def _key_on(sharded: ShardedSystem, shard: int, tag: str = "k") -> str:
    """A key the router places on ``shard``."""
    probe = 0
    while True:
        key = f"{tag}:{probe}"
        if sharded.shard_of(key) == shard:
            return key
        probe += 1


def _cross_derive(src: str, dst: str, name: str = "xd") -> "Operation":
    return logical(name, "wl_derive", {src}, {dst}, params=(src, dst))


def _fences(sharded: ShardedSystem, shard: int):
    return [
        r
        for r in sharded.systems[shard].log.stable_records()
        if isinstance(r, FenceRecord)
    ]


class TestRouting:
    def test_single_shard_op_touches_one_kernel(self):
        sharded = _sharded(2)
        key = _key_on(sharded, 0)
        sharded.execute(physical(key, b"v"))
        assert sharded.read(key) == b"v"
        # The other shard's log never heard about it.
        assert len(sharded.systems[1].log) == 0
        assert len(sharded.systems[0].log) > 0

    def test_participants_of(self):
        sharded = _sharded(2)
        a, b = _key_on(sharded, 0, "a"), _key_on(sharded, 1, "b")
        assert sharded.participants_of(_cross_derive(a, b)) == {0, 1}
        assert sharded.participants_of(physical(a, b"v")) == {0}

    def test_build_rejects_router_mismatch(self):
        from repro.kernel.system import RecoverableSystem
        from repro.shard import ShardRouter

        with pytest.raises(ValueError):
            ShardedSystem([RecoverableSystem()], ShardRouter(2))

    def test_build_needs_a_shard(self):
        with pytest.raises(ValueError):
            ShardedSystem([])


class TestFenceProtocol:
    def test_cross_derive_writes_and_fences(self):
        sharded = _sharded(2)
        src, dst = _key_on(sharded, 0, "src"), _key_on(sharded, 1, "dst")
        sharded.execute(physical(src, b"seed"))
        writes = sharded.execute(_cross_derive(src, dst))
        expected = hashlib.sha256(b"derive" + b"seed").digest()
        assert writes == {dst: expected}
        assert sharded.read(dst) == expected
        # An agreeing fence is stable on *both* participants.
        for shard in (0, 1):
            fences = _fences(sharded, shard)
            assert len(fences) == 1, shard
        f0, f1 = _fences(sharded, 0)[0], _fences(sharded, 1)[0]
        assert f0.fence_id == f1.fence_id
        assert f0.participants == f1.participants == (0, 1)
        assert f0.vector == f1.vector
        # Only the writing shard appears in the lSI vector.
        assert set(f0.vector) == {1}

    def test_fence_is_stable_before_return(self):
        sharded = _sharded(2)
        src, dst = _key_on(sharded, 0, "s"), _key_on(sharded, 1, "d")
        sharded.execute(physical(src, b"x"))
        sharded.execute(_cross_derive(src, dst))
        # A crash right after the ack loses nothing: the fence and the
        # local physical op were forced on every participant.
        sharded.crash_all()
        sharded.recover_all()
        assert sharded.read(dst) is not None
        audit = sharded.fence_audit()
        assert audit.ok
        assert len(audit.complete) == 1
        assert not audit.partial

    def test_fence_ids_unique_across_operations(self):
        sharded = _sharded(2)
        src, dst = _key_on(sharded, 0, "s"), _key_on(sharded, 1, "d")
        sharded.execute(physical(src, b"x"))
        sharded.execute(_cross_derive(src, dst, name="xd1"))
        sharded.execute(_cross_derive(src, dst, name="xd2"))
        ids = {f.fence_id for f in _fences(sharded, 1)}
        assert len(ids) == 2

    def test_preflight_refuses_unhealthy_participant(self):
        sharded = _sharded(2)
        src, dst = _key_on(sharded, 0, "s"), _key_on(sharded, 1, "d")
        sharded.execute(physical(src, b"x"))
        sharded.crash_shard(1)
        before = len(sharded.systems[0].log)
        with pytest.raises(CrossShardError):
            sharded.execute(_cross_derive(src, dst))
        # Pre-flight means *nothing* was mutated anywhere.
        assert len(sharded.systems[0].log) == before
        assert _fences(sharded, 0) == []
        sharded.recover_shard(1)
        assert sharded.execute(_cross_derive(src, dst))

    def test_single_shard_op_pays_no_fence(self):
        sharded = _sharded(2)
        key = _key_on(sharded, 0)
        sharded.execute(physical(key, b"v"))
        assert _fences(sharded, 0) == []


class TestIndependentRecovery:
    def test_one_shard_crashes_alone(self):
        sharded = _sharded(2)
        a, b = _key_on(sharded, 0, "a"), _key_on(sharded, 1, "b")
        op = physical(a, b"on-0")
        sharded.execute(op)
        sharded.systems[0].log.force_through(op.lsi)  # the ack force
        sharded.execute(physical(b, b"on-1"))
        sharded.crash_shard(0)
        # The surviving shard never stops serving.
        assert sharded.systems[1].health is SystemHealth.HEALTHY
        assert sharded.read(b) == b"on-1"
        assert sharded.systems[0].health is SystemHealth.RECOVERING
        sharded.recover_shard(0)
        assert sharded.read(a) == b"on-0"

    def test_recovery_replays_cross_shard_writes_locally(self):
        sharded = _sharded(2)
        src, dst = _key_on(sharded, 0, "s"), _key_on(sharded, 1, "d")
        sharded.execute(physical(src, b"x"))
        writes = sharded.execute(_cross_derive(src, dst))
        # Only the destination shard crashes; its log alone must be
        # enough to replay the cross-shard write (physical logging).
        sharded.crash_shard(1)
        sharded.recover_shard(1)
        assert sharded.read(dst) == writes[dst]

    def test_health_map_is_per_shard(self):
        sharded = _sharded(3)
        sharded.crash_shard(2)
        health = sharded.health()
        assert health[0] is SystemHealth.HEALTHY
        assert health[1] is SystemHealth.HEALTHY
        assert health[2] is SystemHealth.RECOVERING


class TestFenceAudit:
    def _agreeing(self, fence_id="xs:1@1", participants=(0, 1), vector=None):
        return FenceRecord(
            fence_id=fence_id,
            origin_shard=participants[0],
            participants=tuple(participants),
            vector=dict(vector or {1: 1}),
        )

    def test_partial_fence_is_tolerated(self):
        # A crash between the fence appends leaves the fence on a
        # strict subset — legal, because it was never acked.
        sharded = _sharded(2)
        log = sharded.systems[0].log
        log.force_through(log.append(self._agreeing()))
        audit = sharded.fence_audit()
        assert audit.ok
        assert len(audit.partial) == 1
        assert audit.partial[0].present_on == (0,)
        assert not audit.complete

    def test_conflicting_vectors_flagged(self):
        sharded = _sharded(2)
        for shard, vector in ((0, {1: 1}), (1, {1: 99})):
            log = sharded.systems[shard].log
            log.force_through(log.append(self._agreeing(vector=vector)))
        audit = sharded.fence_audit()
        assert not audit.ok
        assert len(audit.conflicting) == 1

    def test_conflicting_detail_names_fence_and_both_lsis(self):
        # The diagnosis must point the operator at the corrupt record:
        # the fence id and the stable lSI of each disagreeing copy.
        sharded = _sharded(2)
        lsis = {}
        for shard, vector in ((0, {1: 1}), (1, {1: 99})):
            log = sharded.systems[shard].log
            lsi = log.append(self._agreeing(vector=vector))
            log.force_through(lsi)
            lsis[shard] = lsi
        audit = sharded.fence_audit()
        status = audit.conflicting[0]
        assert "xs:1@1" in status.detail
        assert f"lSI {lsis[0]}" in status.detail
        assert f"lSI {lsis[1]}" in status.detail
        assert "shard 0" in status.detail and "shard 1" in status.detail
        # Agreeing fences carry no diagnosis.
        assert all(s.detail == "" for s in audit.complete + audit.partial)

    def test_conflicting_participants_flagged(self):
        sharded = _sharded(3)
        for shard, participants in ((0, (0, 1)), (1, (0, 1, 2))):
            log = sharded.systems[shard].log
            log.force_through(
                log.append(self._agreeing(participants=participants))
            )
        assert not sharded.fence_audit().ok

    def test_volatile_fence_not_audited(self):
        sharded = _sharded(2)
        sharded.systems[0].log.append(self._agreeing())  # never forced
        audit = sharded.fence_audit()
        assert not audit.complete and not audit.partial

    def test_a_fence_truncated_off_a_writing_participant_is_complete(self):
        # Each shard checkpoints on its own: a participant that installed
        # its local op and truncated the log past it (and its fence copy)
        # still took part in every acked cross-shard apply.
        sharded = _sharded(2)
        src, dst = _key_on(sharded, 0, "s"), _key_on(sharded, 1, "d")
        sharded.execute(physical(src, b"x"))
        sharded.execute(_cross_derive(src, dst, name="xd"))
        sharded.execute(
            Operation(
                "xp", OpKind.PHYSICAL, reads=set(), writes={src, dst},
                payload={src: b"both", dst: b"sides"},
            )
        )
        one = sharded.systems[1]
        for index in range(8):
            one.execute(physical(_key_on(sharded, 1, f"more{index}"), b"m"))
        one.flush_all()
        one.checkpoint(truncate=True)
        assert _fences(sharded, 1) == [] and len(_fences(sharded, 0)) == 2
        audit = sharded.fence_audit()
        assert audit.ok and not audit.partial
        assert [status.present_on for status in audit.complete] == [(0, 1)] * 2

    def test_mixed_traffic_audit(self):
        sharded = _sharded(2)
        src, dst = _key_on(sharded, 0, "s"), _key_on(sharded, 1, "d")
        sharded.execute(physical(src, b"x"))
        for index in range(3):
            sharded.execute(_cross_derive(src, dst, name=f"xd{index}"))
        sharded.crash_all()
        sharded.recover_all()
        audit = sharded.fence_audit()
        assert audit.ok
        assert len(audit.complete) == 3
