"""Replication units and pair integration (repro.replica).

Unit layers first — the durable epoch sidecar, the wire envelopes, the
log manager's adopt/reserve primitives — then live in-process pairs:
attach and semi-synchronous shipping, readiness, promotion, and the
epoch fence against a zombie primary.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.common.errors import ReproError, WALViolationError
from repro.common.identifiers import NULL_SI
from repro.core.operation import Operation, OpKind
from repro.kernel.system import RecoverableSystem
from repro.replica import (
    INITIAL_EPOCH,
    EpochStore,
    ReplicationConfig,
    ReplicationSender,
)
from repro.replica.wire import (
    batch_frame,
    decode_records,
    encode_records,
    shippable,
)
from repro.serve import (
    DaemonClient,
    DaemonConfig,
    FencedError,
    ProtocolError,
    RetryPolicy,
    ServeDaemon,
    ServeError,
    ServerUnavailableError,
)
from repro.wal.log_manager import LogManager
from repro.wal.records import (
    CheckpointRecord,
    EpochRecord,
    FenceRecord,
    InstallationRecord,
    LogRecord,
    OperationRecord,
)
from repro.workloads import register_workload_functions
from tests.conftest import (
    SendSpy,
    StalledForce,
    concurrent_puts,
    start_pair as _start_pair,
    wait_until,
)


def _op_record(lsi: int, obj: str = "x", value: bytes = b"v") -> OperationRecord:
    record = OperationRecord(
        Operation(
            f"op@{lsi}",
            OpKind.PHYSICAL,
            reads=set(),
            writes={obj},
            payload={obj: value},
        )
    )
    record.lsi = lsi
    record.op.lsi = lsi
    return record


# ----------------------------------------------------------------------
# the durable epoch sidecar
# ----------------------------------------------------------------------
class TestEpochStore:
    def test_memory_store_starts_at_initial(self):
        store = EpochStore()
        assert store.load() == INITIAL_EPOCH

    def test_memory_store_is_monotone(self):
        store = EpochStore()
        assert store.save(3) == 3
        assert store.save(2) == 3  # smaller numbers are ignored
        assert store.load() == 3

    def test_file_store_survives_reopen(self, tmp_path):
        root = str(tmp_path / "epoch")
        EpochStore(root).save(7)
        # A fresh instance — the reboot — must see the promoted number.
        assert EpochStore(root).load() == 7

    def test_file_store_is_monotone_across_instances(self, tmp_path):
        root = str(tmp_path / "epoch")
        EpochStore(root).save(5)
        assert EpochStore(root).save(4) == 5
        assert EpochStore(root).load() == 5

    @pytest.mark.parametrize("payload", ['{"epoch": 3', "[3]"])
    def test_a_damaged_file_refuses_to_load(self, tmp_path, payload):
        # Reading damage as "never failed over" would let a later save
        # write a smaller epoch over a promoted one (split brain).
        root = str(tmp_path / "epoch")
        store = EpochStore(root)
        store.save(3)
        with open(store.path, "w", encoding="utf-8") as handle:
            handle.write(payload)
        with pytest.raises(ReproError, match="epoch.json"):
            EpochStore(root).load()
        with pytest.raises(ReproError, match="epoch.json"):
            EpochStore(root).save(2)
        with pytest.raises(ReproError, match="epoch.json"):
            ReplicationSender(
                RecoverableSystem(), ReplicationConfig(epoch_root=root)
            )
        with open(store.path, encoding="utf-8") as handle:
            assert handle.read() == payload

    def test_a_save_that_fails_before_the_rename_changes_nothing(
        self, tmp_path, monkeypatch
    ):
        root = str(tmp_path / "epoch")
        store = EpochStore(root)
        store.save(4)

        def no_rename(source, target):
            raise OSError("injected: rename refused")

        monkeypatch.setattr("repro.storage.framing.os.replace", no_rename)
        with pytest.raises(OSError):
            store.save(5)
        monkeypatch.undo()
        assert EpochStore(root).load() == 4
        assert os.listdir(root) == ["epoch.json"]  # no stray temp file
        assert store.save(5) == 5


# ----------------------------------------------------------------------
# the wire envelopes
# ----------------------------------------------------------------------
class TestWire:
    def test_shippable_filter(self):
        assert shippable(_op_record(1))
        assert shippable(FenceRecord("f", 0, (0,), {0: 1}))
        assert shippable(EpochRecord(2, "primary"))
        # The primary's private bookkeeping never crosses the channel.
        assert not shippable(CheckpointRecord({}))
        assert not shippable(InstallationRecord({}, {}, []))
        assert not shippable(LogRecord())

    def test_encode_decode_round_trip(self):
        records = [_op_record(4, value=b"payload"), _op_record(7)]
        decoded = decode_records(encode_records(records))
        assert [r.lsi for r in decoded] == [4, 7]
        assert decoded[0].op.payload == {"x": b"payload"}

    def test_batch_frame_shape(self):
        frame = batch_frame(2, 9, [_op_record(8)], checkpoint=True)
        assert frame["kind"] == "repl_batch"
        assert frame["epoch"] == 2
        assert frame["through"] == 9
        assert frame["checkpoint"] is True
        assert len(frame["records"]) == 1

    def test_decode_rejects_non_string(self):
        with pytest.raises(ProtocolError):
            decode_records([42])

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode_records(["not base64 at all!!"])

    def test_decode_rejects_a_value_that_is_not_a_record(self):
        import base64

        from repro.common.codec import encode_value

        blob = base64.b64encode(encode_value({"not": "a record"})).decode()
        with pytest.raises(ProtocolError):
            decode_records([blob])

    def test_decode_refuses_record_kinds_that_are_never_shipped(self):
        """The primary's bookkeeping records encode fine — they are on
        its WAL — but a peer must not be able to push one."""
        import base64

        from repro.wal.codec import encode_record

        for private in (CheckpointRecord({"x": 3}), InstallationRecord({}, {}, ())):
            blob = base64.b64encode(encode_record(private)).decode()
            with pytest.raises(ProtocolError, match="never shipped"):
                decode_records([blob])


# ----------------------------------------------------------------------
# the log manager's adoption primitives
# ----------------------------------------------------------------------
class TestAdoptRecords:
    def test_adopt_preserves_origin_lsis_with_gaps(self):
        log = LogManager()
        adopted = log.adopt_records([_op_record(3), _op_record(7)])
        assert adopted == 2
        assert [r.lsi for r in log.stable_records()] == [3, 7]
        assert log.stable_end_lsi() == 7

    def test_adopt_skips_duplicates_from_reship(self):
        log = LogManager()
        log.adopt_records([_op_record(3), _op_record(5)])
        # A reconnect re-ships an overlapping window; only the new
        # suffix lands.
        assert log.adopt_records([_op_record(3), _op_record(5),
                                  _op_record(8)]) == 1
        assert [r.lsi for r in log.stable_records()] == [3, 5, 8]

    def test_adopt_rejects_out_of_order_batch(self):
        log = LogManager()
        with pytest.raises(WALViolationError):
            log.adopt_records([_op_record(5), _op_record(4)])

    def test_adopt_refuses_buffered_local_appends(self):
        log = LogManager()
        log.append(LogRecord())  # volatile local append, not forced
        with pytest.raises(WALViolationError):
            log.adopt_records([_op_record(9)])

    def test_adopted_records_are_stable_immediately(self):
        # The receipt ack is a durability promise: adoption goes
        # through the forced path, nothing lingers in the buffer.
        log = LogManager()
        log.adopt_records([_op_record(2)])
        assert log.is_stable(2)

    def test_reserve_lsis_through_fences_old_history(self):
        log = LogManager()
        log.adopt_records([_op_record(4)])
        log.reserve_lsis_through(10)
        lsi = log.append(LogRecord())
        assert lsi == 11  # no lSI the old primary may have used

    def test_reserve_never_moves_backwards(self):
        log = LogManager()
        log.reserve_lsis_through(10)
        log.reserve_lsis_through(3)
        assert log.append(LogRecord()) == 11


# ----------------------------------------------------------------------
# live pairs
# ----------------------------------------------------------------------
def _client(port: int, attempts: int = 5) -> DaemonClient:
    return DaemonClient(
        "127.0.0.1", port,
        policy=RetryPolicy(attempts=attempts, base_delay=0.01,
                           max_delay=0.05),
    )


class TestPair:
    def test_replication_channel_sets_tcp_nodelay_on_both_ends(self):
        import socket

        primary, witness = _start_pair()
        try:
            with witness._sock_lock:
                dialed = witness._subscriber_sock
            with primary._conns_lock:
                accepted = [conn.sock for conn in primary._conns]
            assert accepted
            for sock in [dialed] + accepted:
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            witness.stop(graceful=False)
            primary.kill()

    def test_acks_wait_for_witness_watermark(self):
        primary, witness = _start_pair()
        try:
            client = _client(primary.port)
            for index in range(6):
                response = client.request(
                    "put", obj="p:x", value=f"v{index}"
                )
                assert response["ok"]
                # Semi-synchronous: by ack time the witness's durable
                # watermark covers the acked lSI.
                assert witness.system.log.is_stable(response["lsi"])
            client.close()
        finally:
            witness.stop(graceful=False)
            primary.kill()

    def test_witness_refuses_data_ops_before_promotion(self):
        primary, witness = _start_pair()
        try:
            client = _client(witness.port, attempts=1)
            with pytest.raises(ServerUnavailableError):
                client.request("put", obj="w:x", value="nope")
            client.close()
        finally:
            witness.stop(graceful=False)
            primary.kill()

    def test_primary_refuses_replication_frames_from_clients(self):
        primary, witness = _start_pair()
        try:
            client = _client(witness.port, attempts=1)
            with pytest.raises(ServeError) as err:
                client.request("repl_subscribe", watermark=0, epoch=1)
            assert err.value.code == "BAD_REQUEST"
            client.close()
        finally:
            witness.stop(graceful=False)
            primary.kill()

    def test_readiness_tracks_attachment_and_promotion(self):
        primary, witness = _start_pair()
        try:
            status, ready = primary._ready_payload()
            assert status == 200
            assert ready["ready"] is True
            wstatus, wready = witness._ready_payload()
            # An attached, caught-up witness is "ready" as a witness.
            assert wstatus == 200
            assert wready["role"] == "witness"
        finally:
            witness.stop(graceful=False)
            primary.kill()

    def test_kill_promote_serves_acked_state(self):
        primary, witness = _start_pair()
        try:
            client = _client(primary.port)
            acked = {}
            for index in range(10):
                obj = f"kp:{index % 3}"
                value = f"v{index}"
                response = client.request("put", obj=obj, value=value)
                acked[obj] = (value, response["lsi"])
            client.close()
            primary.kill()
            pclient = _client(witness.port, attempts=10)
            promote = pclient.request("promote")
            assert promote["role"] == "primary"
            assert promote["epoch"] == INITIAL_EPOCH + 1
            assert witness.promoted
            # Every acked write is visible, exactly once, at or past
            # its acked lSI.
            for obj, (value, lsi) in acked.items():
                got = pclient.request("get", obj=obj)
                assert got["value"] == value
                assert got["vsi"] >= lsi
            # And the promoted daemon accepts new writes.
            assert pclient.request("put", obj="kp:new", value="after")["ok"]
            pclient.close()
        finally:
            witness.stop(graceful=False)
            primary.kill()

    def test_promotion_is_idempotent(self):
        primary, witness = _start_pair()
        try:
            primary.kill()
            client = _client(witness.port, attempts=10)
            first = client.request("promote")
            second = client.request("promote")
            assert second["epoch"] == first["epoch"]
            assert second["role"] == "primary"
            client.close()
        finally:
            witness.stop(graceful=False)
            primary.kill()

    def test_promotion_watermark_covers_acks_after_a_redo_cycle(self):
        # redo_every_records=1: every adopted batch is followed by a
        # redo cycle whose materialize step truncates the adopted log,
        # so at promotion time the witness's stable log is empty.  The
        # promotion watermark must still cover everything it durably
        # adopted — it is what fencing compares old-epoch acks against.
        primary, witness = _start_pair(redo_every_records=1)
        try:
            client = _client(primary.port)
            acked = [
                client.request("put", obj="wm:x", value=f"v{index}")["lsi"]
                for index in range(3)
            ]
            client.close()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if witness.replication_status()[
                    "materialized_through"
                ] >= max(acked):
                    break
                time.sleep(0.01)
            # The condition that collapsed the watermark to 0 before.
            assert witness.system.log.stable_end_lsi() == NULL_SI
            primary.kill()
            pclient = _client(witness.port, attempts=10)
            first = pclient.request("promote")
            second = pclient.request("promote")
            pclient.close()
            assert first["watermark"] >= max(acked)
            assert second["already_promoted"]
            assert second["watermark"] == first["watermark"]
            notes = [
                record.note
                for record in witness.system.log.stable_records()
                if isinstance(record, EpochRecord)
            ]
            assert notes == [
                f"promoted from witness at watermark {first['watermark']}"
            ]
        finally:
            witness.stop(graceful=False)
            primary.kill()

    def test_zombie_primary_is_fenced(self):
        primary, witness = _start_pair()
        try:
            client = _client(primary.port)
            client.request("put", obj="z:x", value="before")
            client.close()
            # Promote while the primary is still alive: the fence ack
            # must depose it.
            pclient = _client(witness.port, attempts=10)
            pclient.request("promote")
            pclient.close()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if primary.replication.status()["fenced"]:
                    break
                time.sleep(0.01)
            assert primary.replication.status()["fenced"]
            zombie = _client(primary.port, attempts=1)
            with pytest.raises(FencedError):
                zombie.request("put", obj="z:x", value="zombie")
            zombie.close()
        finally:
            witness.stop(graceful=False)
            primary.kill()

    def test_client_fails_over_from_fenced_primary(self):
        primary, witness = _start_pair()
        try:
            pclient = _client(witness.port, attempts=10)
            pclient.request("promote")
            pclient.close()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if primary.replication.status()["fenced"]:
                    break
                time.sleep(0.01)
            # A failover-aware client pointed at the fenced primary
            # rotates to the promoted witness and gets its ack there.
            client = DaemonClient(
                "127.0.0.1", primary.port,
                failover=[("127.0.0.1", witness.port)],
                policy=RetryPolicy(attempts=6, base_delay=0.01,
                                   max_delay=0.05),
            )
            response = client.request("put", obj="fo:x", value="moved")
            assert response["ok"]
            assert response["epoch"] == INITIAL_EPOCH + 1
            client.close()
        finally:
            witness.stop(graceful=False)
            primary.kill()

    def _parked_on_the_primary(self, primary, count=4):
        """``count`` concurrent puts executed and parked on the primary
        while its first force hangs in the device."""
        stall = StalledForce(primary.system.log)
        keys = [f"batch:{index}" for index in range(count)]
        threads, outcomes = concurrent_puts(primary.port, keys)
        assert stall.entered.wait(timeout=5.0)
        assert wait_until(lambda: len(primary._shards[0].parked) == count)
        return stall, keys, threads, outcomes

    def test_witness_detached_mid_batch_refuses_the_whole_batch(
        self, monkeypatch
    ):
        primary, witness = _start_pair()
        spy = SendSpy(monkeypatch, primary.system.log)
        try:
            stall, keys, threads, outcomes = self._parked_on_the_primary(
                primary
            )
            # The stream drops while the batch is in the device.
            witness.stop(graceful=False)
            assert wait_until(lambda: not primary.replication.attached)
            stall.release.set()
            for thread in threads:
                thread.join(timeout=10.0)
            # Forced locally, never witnessed: one UNAVAILABLE per
            # parked request, not one ack.
            assert spy.acks() == []
            assert spy.error_codes() == ["UNAVAILABLE"] * len(keys)
            assert all(
                isinstance(outcomes[k], ServerUnavailableError) for k in keys
            )
            assert primary.restarts() == 0  # not a storage failure
        finally:
            witness.stop(graceful=False)
            primary.kill()

    def test_fenced_mid_batch_answers_fenced_never_an_old_epoch_ack(
        self, monkeypatch
    ):
        primary, witness = _start_pair()
        spy = SendSpy(monkeypatch, primary.system.log)
        try:
            stall, keys, threads, outcomes = self._parked_on_the_primary(
                primary
            )
            # A promotion lands while the batch is in the device: the
            # fence ack deposes the primary before its force returns.
            pclient = _client(witness.port, attempts=10)
            pclient.request("promote")
            pclient.close()
            assert wait_until(lambda: primary.replication.fenced)
            stall.release.set()
            for thread in threads:
                thread.join(timeout=10.0)
            assert spy.acks() == []
            assert spy.error_codes() == ["FENCED"] * len(keys)
            assert all(isinstance(outcomes[k], FencedError) for k in keys)
        finally:
            witness.stop(graceful=False)
            primary.kill()

    def test_slow_witness_refuses_each_request_at_its_own_deadline(
        self, monkeypatch
    ):
        primary, witness = _start_pair()
        spy = SendSpy(monkeypatch, primary.system.log)
        try:
            # The witness's durable adopt hangs: no receipt comes back.
            stall = StalledForce(witness.system.log)
            outcomes = {}

            def put(key, deadline_ms):
                client = _client(primary.port, attempts=1)
                try:
                    outcomes[key] = client.request(
                        "put", obj=key, value=key, deadline_ms=deadline_ms
                    )
                except Exception as exc:  # noqa: BLE001 - under test
                    outcomes[key] = exc
                finally:
                    client.close()

            threads = [
                threading.Thread(target=put, args=("dl:short", 300)),
                threading.Thread(target=put, args=("dl:long", 1800)),
            ]
            # The short request is parked first, so the witness wait it
            # heads ends at its deadline whether or not the long one
            # rode in the same batch.  (Parked second, alone in its own
            # batch, the short one would wait out the long one's.)
            threads[0].start()
            assert wait_until(lambda: len(primary._shards[0].parked) == 1)
            threads[1].start()
            # The short request is refused at its deadline, alone: the
            # long one stays parked (not refused early, not acked).
            threads[0].join(timeout=5.0)
            assert isinstance(outcomes["dl:short"], ServerUnavailableError)
            assert "dl:long" not in outcomes
            assert [w.request["obj"] for w in primary._shards[0].parked] == [
                "dl:long"
            ]
            stall.release.set()
            threads[1].join(timeout=5.0)
            assert outcomes["dl:long"]["ok"] is True
            assert len(spy.acks()) == 1  # the long one, after the receipt
        finally:
            witness.stop(graceful=False)
            primary.kill()

    def test_a_read_waits_for_the_witness_watermark_too(self):
        # On a replicated primary the release rule reads the witness
        # watermark for gets as well: a version the witness does not
        # hold could vanish at failover.
        primary, witness = _start_pair()
        try:
            client = _client(primary.port, attempts=1)
            response = client.request("put", obj="rw:x", value="seen")
            assert client.get("rw:x") == ("seen", response["lsi"])
            assert primary.replication.watermark >= response["lsi"]
            client.close()
        finally:
            witness.stop(graceful=False)
            primary.kill()

    def test_unreplicated_primary_acks_without_witness(self):
        # Replication off: the single-daemon contract is unchanged.
        system = RecoverableSystem()
        register_workload_functions(system.registry)
        daemon = ServeDaemon(
            system, DaemonConfig(port=0, http_port=None)
        ).start()
        try:
            client = _client(daemon.port)
            assert client.request("put", obj="solo", value="v")["ok"]
            client.close()
        finally:
            daemon.kill()

    def test_a_restarted_primary_keeps_what_no_witness_has_seen(self):
        # A restarted primary logs the writes it executes while no
        # witness is attached (only their acks are refused).  Its online
        # checkpoints must not truncate them before a witness subscribes:
        # the witness adopts gap-tolerantly, so a hole would go unseen
        # until a logical redo over it diverged.
        from repro.replica import WitnessConfig, WitnessDaemon
        from repro.serve.worker import ONLINE_CHECKPOINT_BYTES

        primary, witness = _start_pair(redo_every_records=1 << 30)
        primary_system, witness_system = primary.system, witness.system
        try:
            with _client(primary.port) as client:
                client.request("put", obj="gap:seed", value="acked")
        finally:
            witness.stop(graceful=False)
            primary.kill()
        watermark = witness_system.log.stable_end_lsi()
        executed, adopted = [], []
        append, adopt = (
            primary_system.log.append_operation,
            witness_system.log.adopt_records,
        )

        def append_operation(op):
            executed.append(append(op))
            return executed[-1]

        def adopt_records(records):
            adopted.extend(
                r.lsi for r in records if isinstance(r, OperationRecord)
            )
            return adopt(records)

        primary_system.log.append_operation = append_operation
        witness_system.log.adopt_records = adopt_records
        primary_system.crash()
        primary = ServeDaemon(
            primary_system,
            DaemonConfig(port=0, http_port=None, retry_after_ms=5),
            replication=ReplicationConfig(ack_timeout_s=0.05),
        ).start()
        witness = None
        try:
            value = "x" * 8192
            with _client(primary.port, attempts=1) as client:
                for index in range(2 * ONLINE_CHECKPOINT_BYTES // 8192 + 32):
                    with pytest.raises(ServerUnavailableError):
                        client.request("put", obj=f"gap:{index}", value=value)
            assert primary_system.stats.checkpoints >= 2
            witness = WitnessDaemon(
                witness_system,
                DaemonConfig(port=0, http_port=None, retry_after_ms=5),
                witness=WitnessConfig(
                    primary_port=primary.port,
                    redo_every_records=1 << 30,
                    reconnect_delay_s=0.02,
                ),
            ).start()
            end = primary_system.log.stable_end_lsi()
            assert wait_until(
                lambda: witness.replication_status()["adopted_through"] >= end,
                10.0,
            )
            assert adopted == [lsi for lsi in executed if lsi > watermark]
        finally:
            if witness is not None:
                witness.stop(graceful=False)
            primary.kill()

    def test_replicated_primary_without_witness_refuses_acks(self):
        # CP choice: rather than ack a write the witness never saw,
        # the primary answers UNAVAILABLE (retryable) until one
        # attaches.
        system = RecoverableSystem()
        register_workload_functions(system.registry)
        daemon = ServeDaemon(
            system,
            DaemonConfig(port=0, http_port=None, retry_after_ms=5),
            replication=ReplicationConfig(ack_timeout_s=0.1,
                                          retry_after_ms=5),
        ).start()
        try:
            client = _client(daemon.port, attempts=2)
            with pytest.raises(ServerUnavailableError):
                client.request("put", obj="np:x", value="v")
            client.close()
        finally:
            daemon.kill()
