"""Replication units and pair integration (repro.replica).

Unit layers first — the durable epoch sidecar, the wire's batch of WAL
frames, the log manager's adopt/reserve primitives — then live
in-process pairs: attach and semi-synchronous shipping, readiness,
promotion, the epoch fence against a zombie primary, refusals that
drop a stream but never the witness, and one encoding per shipped
record on file-backed pairs.
"""

from __future__ import annotations

import base64
import os
import threading
import time

import pytest

from repro.common.codec import unpack_header
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
    PROTOCOL,
    adopt_batch,
    batch_frame,
    subscribe_frame,
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
    protocol,
)
from repro.storage.framing import HEADER, pack_frame
from repro.wal.codec import SHIPPED_TYPES, encode_record, unpack_shipped
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
# the wire: WAL frames in a JSON batch
# ----------------------------------------------------------------------
def _frames(*records: LogRecord) -> bytes:
    """``records`` as WAL frames back to back, as a primary ships them."""
    return b"".join(pack_frame(encode_record(record)) for record in records)


def _batch(*records: LogRecord, **fields) -> dict:
    frame = batch_frame(1, records[-1].lsi if records else 0,
                        [_frames(record) for record in records])
    frame.update(fields)
    return frame


class TestWire:
    def test_shippable_filter(self):
        def code(record):
            return encode_record(record)[1]

        assert code(_op_record(1)) in SHIPPED_TYPES
        assert code(FenceRecord("f", 0, (0,), {0: 1})) in SHIPPED_TYPES
        assert code(EpochRecord(2, "primary")) in SHIPPED_TYPES
        # The primary's private bookkeeping never crosses the channel.
        assert code(CheckpointRecord({})) not in SHIPPED_TYPES
        assert code(InstallationRecord({}, {}, [])) not in SHIPPED_TYPES
        assert len(SHIPPED_TYPES) == 3

    def test_encode_decode_round_trip(self):
        log = LogManager()
        records = [_op_record(4, value=b"payload"), _op_record(7)]
        assert adopt_batch(log, _batch(*records)) == 2
        decoded = list(log.stable_records())
        assert [r.lsi for r in decoded] == [4, 7]
        assert decoded[0].op.payload == {"x": b"payload"}
        # The log's frames are the bytes that were shipped.
        assert b"".join(f for _, _, f in log.stable_frames()) == _frames(
            *records
        )

    def test_batch_frame_shape(self):
        frame = batch_frame(2, 9, [_frames(_op_record(8))], checkpoint=True)
        assert frame["kind"] == "repl_batch"
        assert frame["protocol"] == PROTOCOL == 2
        assert frame["epoch"] == 2
        assert frame["through"] == 9
        assert frame["checkpoint"] is True
        assert base64.b64decode(frame["frames"]) == _frames(_op_record(8))
        assert subscribe_frame(3, 1)["protocol"] == PROTOCOL

    def test_decode_rejects_non_string(self):
        with pytest.raises(ProtocolError):
            adopt_batch(LogManager(), _batch(frames=42))

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            adopt_batch(LogManager(), _batch(frames="not base64 at all!!"))

    def test_decode_rejects_a_value_that_is_not_a_record(self):
        from repro.common.codec import encode_value

        frames = pack_frame(encode_value({"not": "a record"}))
        blob = base64.b64encode(frames).decode()
        with pytest.raises(ProtocolError):
            adopt_batch(LogManager(), _batch(frames=blob))

    def test_decode_refuses_record_kinds_that_are_never_shipped(self):
        """The primary's bookkeeping records encode fine — they are on
        its WAL — but a peer must not be able to push one."""
        for private in (CheckpointRecord({"x": 3}), InstallationRecord({}, {}, ())):
            private.lsi = 5
            with pytest.raises(ProtocolError, match="never shipped"):
                adopt_batch(LogManager(), _batch(private))

    def test_a_protocol_1_batch_is_refused_by_name(self):
        old = {"kind": "repl_batch", "epoch": 1, "through": 4,
               "checkpoint": False, "records": ["AQEEAAAAAAAAAA=="]}
        with pytest.raises(ProtocolError, match="protocol 1.*speaks 2"):
            adopt_batch(LogManager(), old)


# ----------------------------------------------------------------------
# the log manager's adoption primitives
# ----------------------------------------------------------------------
class TestAdoptRecords:
    def test_adopt_preserves_origin_lsis_with_gaps(self):
        log = LogManager()
        adopted = log.adopt_records(_frames(_op_record(3), _op_record(7)))
        assert adopted == 2
        assert [r.lsi for r in log.stable_records()] == [3, 7]
        assert log.stable_end_lsi() == 7

    def test_adopt_skips_duplicates_from_reship(self):
        log = LogManager()
        log.adopt_records(_frames(_op_record(3), _op_record(5)))
        # A reconnect re-ships an overlapping window; only the new
        # suffix lands.
        assert log.adopt_records(
            _frames(_op_record(3), _op_record(5), _op_record(8))
        ) == 1
        assert [r.lsi for r in log.stable_records()] == [3, 5, 8]

    def test_adopt_rejects_out_of_order_batch(self):
        log = LogManager()
        with pytest.raises(WALViolationError):
            log.adopt_records(_frames(_op_record(5), _op_record(4)))
        assert len(log) == 0

    def test_adopt_refuses_buffered_local_appends(self):
        log = LogManager()
        log.append(LogRecord())  # volatile local append, not forced
        with pytest.raises(WALViolationError):
            log.adopt_records(_frames(_op_record(9)))

    def test_adopted_records_are_stable_immediately(self):
        # The receipt ack is a durability promise: adoption goes
        # through the forced path, nothing lingers in the buffer.
        log = LogManager()
        log.adopt_records(_frames(_op_record(2)))
        assert log.is_stable(2)

    def test_reserve_lsis_through_fences_old_history(self):
        log = LogManager()
        log.adopt_records(_frames(_op_record(4)))
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

        def adopt_records(frames):
            adopted.extend(
                record.lsi for record, _ in unpack_shipped(frames)
                if isinstance(record, OperationRecord)
            )
            return adopt(frames)

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


# ----------------------------------------------------------------------
# refusals: a bad batch or another protocol drops the stream, never the
# witness
# ----------------------------------------------------------------------
class _ScriptedPrimary:
    """A listener that answers every ``repl_subscribe`` ok and pushes
    the next scripted batch down the connection (the last one again
    for every later dial).  A ``bytes`` batch is written raw and the
    connection closed: a primary dying mid-frame."""

    def __init__(self, batches) -> None:
        import socket

        self.batches = list(batches)
        self.subscribes = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._conns = []
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # closed
            self._conns.append(conn)
            try:
                request = protocol.recv_frame(conn)
                self.subscribes.append(request)
                protocol.send_frame(
                    conn,
                    protocol.ok_response(
                        request["id"], "healthy", epoch=INITIAL_EPOCH,
                        through=0,
                    ),
                )
                batch = self.batches[
                    min(len(self.subscribes), len(self.batches)) - 1
                ]
                if isinstance(batch, bytes):
                    conn.sendall(batch)
                    conn.close()
                else:
                    protocol.send_frame(conn, batch)
            except (OSError, ProtocolError):
                continue

    def close(self) -> None:
        self._listener.close()
        for conn in self._conns:
            conn.close()


def _witness_of(primary: _ScriptedPrimary):
    from repro.replica import WitnessConfig, WitnessDaemon

    return WitnessDaemon(
        RecoverableSystem(),
        DaemonConfig(port=0, http_port=None),
        witness=WitnessConfig(
            primary_port=primary.port,
            redo_every_records=1 << 30,
            reconnect_delay_s=0.02,
        ),
    ).start()


def _refusals(witness) -> list:
    return [
        event["reason"] for event in witness.flightrec.events()
        if event["kind"] == "repl.refused"
    ]


class TestRefusals:
    def test_a_descending_batch_drops_the_stream_not_the_witness(self):
        # lSIs 5 then 3 used to raise WALViolationError out of the
        # subscriber thread: the witness never dialed again.
        bad = _batch(_op_record(5), _op_record(3))
        good = _batch(_op_record(5), _op_record(7))
        primary = _ScriptedPrimary([bad, good])
        witness = _witness_of(primary)
        try:
            assert wait_until(
                lambda: witness.system.log.stable_end_lsi() == 7, 10.0
            )
            assert len(primary.subscribes) >= 2
            assert witness._subscriber_thread.is_alive()
            reasons = _refusals(witness)
            assert reasons and "ascending" in reasons[0]
            assert witness.obs.counter_value("events.repl.refused") >= 1
        finally:
            witness.stop(graceful=False)
            primary.close()

    def test_a_witness_refuses_a_protocol_1_batch_by_name_and_redials(self):
        old = {"kind": "repl_batch", "epoch": INITIAL_EPOCH, "through": 4,
               "checkpoint": False, "records": ["AQEEAAAAAAAAAA=="]}
        primary = _ScriptedPrimary([old])
        witness = _witness_of(primary)
        try:
            assert wait_until(lambda: len(_refusals(witness)) >= 2, 10.0)
            assert len(primary.subscribes) >= 2
            assert all(
                "protocol 1" in reason and "speaks 2" in reason
                for reason in _refusals(witness)
            )
            assert all(
                request["protocol"] == PROTOCOL
                for request in primary.subscribes
            )
            assert witness.system.log.stable_end_lsi() == NULL_SI
        finally:
            witness.stop(graceful=False)
            primary.close()

    def test_a_primary_dying_mid_frame_is_no_refusal(self):
        # A length prefix promising 100 bytes, then 3 and a close: the
        # witness redials, but records no refusal for a torn stream.
        primary = _ScriptedPrimary([(100).to_bytes(4, "little") + b"abc"])
        witness = _witness_of(primary)
        try:
            assert wait_until(lambda: len(primary.subscribes) >= 3, 10.0)
            assert witness._subscriber_thread.is_alive()
            assert _refusals(witness) == []
            assert witness.obs.counter_value("events.repl.refused") == 0
        finally:
            witness.stop(graceful=False)
            primary.close()

    def test_a_primary_refuses_a_protocol_1_subscribe_by_name(self):
        import socket

        system = RecoverableSystem()
        daemon = ServeDaemon(
            system,
            DaemonConfig(port=0, http_port=None),
            replication=ReplicationConfig(),
        ).start()
        try:
            with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
                protocol.send_frame(sock, {
                    "id": 7, "kind": "repl_subscribe",
                    "watermark": NULL_SI, "epoch": INITIAL_EPOCH,
                })
                response = protocol.recv_frame(sock)
            assert response["ok"] is False
            assert response["error"]["code"] == "BAD_REQUEST"
            message = response["error"]["message"]
            assert "protocol 1" in message and "speaks 2" in message
            assert not daemon.replication.attached
        finally:
            daemon.kill()


# ----------------------------------------------------------------------
# one encoding per record: the witness writes the primary's bytes
# ----------------------------------------------------------------------
def _file_backed_pair(root, backend: str):
    from repro.replica import WitnessConfig
    from repro.topology import build_daemon, build_systems

    config = DaemonConfig(port=0, http_port=None, retry_after_ms=5)
    primary = build_daemon(
        build_systems(1, backend, os.path.join(root, "primary")),
        config,
        replication=ReplicationConfig(ack_timeout_s=5.0, retry_after_ms=5),
    ).start()
    witness = build_daemon(
        build_systems(1, backend, os.path.join(root, "witness")),
        config,
        witness=WitnessConfig(
            primary_port=primary.port,
            redo_every_records=1 << 30,  # keep the adopted log whole
            reconnect_delay_s=0.02,
        ),
    ).start()
    assert wait_until(
        lambda: witness.attached and primary.replication.attached, 10.0
    )
    return primary, witness


def _seeded_traffic(port: int, seed: int, requests: int = 60) -> int:
    """Puts, deletes and logical applies over a few keys; returns the
    highest acked lSI."""
    import random

    rng = random.Random(seed)
    keys = [f"one:{index}" for index in range(6)]
    last = NULL_SI
    with _client(port) as client:
        for index in range(requests):
            src, dst = rng.sample(keys, 2)
            roll = rng.random()
            if roll < 0.5:
                lsi = client.put(dst, rng.randbytes(rng.randint(0, 300)))
            elif roll < 0.6:
                lsi = client.delete(dst)
            else:
                fn = rng.choice(["wl_combine", "wl_derive"])
                reads = [src, dst] if fn == "wl_combine" else [src]
                lsi = client.apply(fn, reads, [dst], [src, dst])["lsi"]
            last = max(last, lsi)
    return last


def _wal_frames(daemon) -> dict:
    """lSI -> the frame bytes as ``wal.log`` holds them."""
    from repro.storage.framing import FramedFile

    path = daemon.system.log.path
    with open(path, "rb") as handle:
        data = handle.read()
    frames = {}
    for offset, payload in FramedFile(path).scan():
        _code, lsi, _ = unpack_header(payload)
        frames[lsi] = data[offset:offset + HEADER.size + len(payload)]
    return frames


@pytest.mark.parametrize("backend", ["file", "logstore"])
class TestOneEncoding:
    def test_the_witness_log_holds_the_primarys_bytes(self, tmp_path, backend):
        primary, witness = _file_backed_pair(str(tmp_path), backend)
        try:
            last = _seeded_traffic(primary.port, seed=36)
            assert witness.system.log.is_stable(last)
            mine, theirs = _wal_frames(primary), _wal_frames(witness)
        finally:
            witness.stop(graceful=False)
            primary.kill()
        assert len(theirs) >= 60
        for lsi, frame in theirs.items():
            assert frame == mine[lsi], lsi
        # Exactly the shipped kinds crossed: the witness misses only the
        # primary's private bookkeeping.
        shipped = {
            lsi for lsi, frame in mine.items()
            if frame[HEADER.size + 1] in SHIPPED_TYPES
        }
        assert set(theirs) == shipped

    def test_a_record_is_decoded_once_and_never_encoded_in_transit(
        self, tmp_path, backend, monkeypatch
    ):
        import sys

        from repro.wal import codec

        primary, witness = _file_backed_pair(str(tmp_path), backend)
        where = threading.local()
        calls = {}
        adopted = []

        def counted(name, original):
            def call(*args, **kwargs):
                place = getattr(where, "place", None)
                if place is not None:
                    calls[place, name] = calls.get((place, name), 0) + 1
                return original(*args, **kwargs)
            return call

        for name in ("encode_record", "decode_record"):
            original = getattr(codec, name)
            for module in list(sys.modules.values()):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted(name, original))

        def during(place, method):
            def call(*args, **kwargs):
                where.place = place
                try:
                    return method(*args, **kwargs)
                finally:
                    where.place = None
            return call

        sender = primary.replication
        monkeypatch.setattr(
            sender, "_ship_locked", during("ship", sender._ship_locked)
        )
        adopt = witness.system.log.adopt_records

        def adopt_records(frames):
            adopted.append(adopt(frames))
            return adopted[-1]

        monkeypatch.setattr(
            witness.system.log, "adopt_records",
            during("adopt", adopt_records),
        )
        try:
            _seeded_traffic(primary.port, seed=7, requests=40)
        finally:
            witness.stop(graceful=False)
            primary.kill()
        assert sum(adopted) >= 40
        assert calls.get(("ship", "decode_record"), 0) == 0
        assert calls.get(("ship", "encode_record"), 0) == 0
        assert calls.get(("adopt", "decode_record"), 0) == sum(adopted)
        assert calls.get(("adopt", "encode_record"), 0) == 0


# ----------------------------------------------------------------------
# the witness recovers through its shard's one recovery driver
# ----------------------------------------------------------------------
class TestRecoveryDriver:
    """A redo cycle and a promotion each run the ladder once, through
    the shard's driver, and neither counts as a mid-serve restart."""

    def _witness_holding_a_record(self):
        from repro.core.operation import put_object
        from repro.replica import WitnessConfig, WitnessDaemon

        witness = WitnessDaemon(
            RecoverableSystem(),
            DaemonConfig(port=0, http_port=None),
            witness=WitnessConfig(),
        )
        witness.system.execute(put_object("a", b"v"))
        witness.system.log.force()
        return witness

    def _runs_and_restarts(self, witness):
        obs = witness.system.obs
        return [
            obs.counter_value("recovery.supervised_runs"),
            obs.counter_value("serve.restarts"),
            witness.restarts(),
        ]

    def test_a_redo_cycle_is_one_supervised_run(self):
        witness = self._witness_holding_a_record()
        before = self._runs_and_restarts(witness)
        witness._redo_cycle()
        after = self._runs_and_restarts(witness)
        assert witness.redo_cycles == 1
        assert [b - a for a, b in zip(before, after)] == [1, 0, 0]

    def test_a_promotion_is_one_supervised_run(self):
        witness = self._witness_holding_a_record()
        before = self._runs_and_restarts(witness)
        response = witness._promote("promote-1")
        after = self._runs_and_restarts(witness)
        assert response["ok"] and witness.promoted
        assert [b - a for a, b in zip(before, after)] == [1, 0, 0]


# ----------------------------------------------------------------------
# the witness's redo cycle installs through the write graph
# ----------------------------------------------------------------------
def _witness_on(backend, root, model=None):
    """An unstarted witness over ``backend`` at ``root``, built as
    ``serve --witness-of`` builds one; ``model`` faults its store."""
    from repro.replica import WitnessConfig
    from repro.topology import build_daemon, build_systems

    models = () if model is None else [model]
    return build_daemon(
        build_systems(1, backend, root, models=models),
        DaemonConfig(port=0, http_port=None),
        witness=WitnessConfig(),
    )


def _cycle_armed(witness, model):
    """Run one redo cycle with ``model`` armed once recovery is done,
    so point *k* is the *k*-th store write of the cycle's installs."""
    from repro.storage.faults import FaultCrash

    shard = witness._shards[0]
    supervise = shard.supervise

    def supervise_then_arm(*args, **kwargs):
        supervise(*args, **kwargs)
        model.armed = True

    shard.supervise = supervise_then_arm
    try:
        witness._redo_cycle()
    except FaultCrash:
        return True
    finally:
        model.armed = False
        del shard.supervise
        witness.system.close()
    return False


def _reopened(backend, root):
    from repro.topology import build_systems

    system = build_systems(1, backend, root).systems[0]
    system.recover()
    return system


@pytest.mark.parametrize("backend", ["file", "logstore"])
def test_crash_mid_materialize_keeps_derived_values(tmp_path, backend):
    """``b := derive(a)`` then ``a := touch(a)``: a crash right after
    the cycle's first store write must leave a store from which the
    redo of the derive still reads the ``a`` it read."""
    import hashlib

    from repro.core.operation import put_object
    from repro.storage.faults import FaultKind, FaultModel, FaultSpec

    root = str(tmp_path)
    model = FaultModel([FaultSpec(1, FaultKind.CRASH)], armed=False)
    witness = _witness_on(backend, root, model)
    system = witness.system
    system.execute(put_object("a", b"v0"))
    system.execute(Operation(
        "derive(a->b)", OpKind.LOGICAL, reads={"a"}, writes={"b"},
        fn="wl_derive", params=("a", "b"),
    ))
    system.execute(Operation(
        "touch(a)", OpKind.PHYSIOLOGICAL, reads={"a"}, writes={"a"},
        fn="wl_touch", params=("a",),
    ))
    system.log.force()
    assert _cycle_armed(witness, model)
    assert len(system.store) == 1  # the crash came after one write

    again = _reopened(backend, root)
    assert again.read("b") == hashlib.sha256(b"derive" + b"v0").digest()
    again.close()


def _logical_ops(seed):
    from repro.workloads import LogicalWorkload, LogicalWorkloadConfig

    config = LogicalWorkloadConfig(objects=6, operations=30)
    return list(LogicalWorkload(config, seed=seed).operations())


@pytest.mark.parametrize("backend", ["file", "logstore"])
def test_witness_crash_sweep(tmp_path, backend):
    """Crash the redo cycle before each of its store writes, 40 seeds
    of a logical workload: every reopened directory holds what the
    workload computed."""
    from repro.storage.faults import (
        FORWARD_PHASE, FaultKind, FaultModel, FaultSpec,
    )

    wrong, points = [], 0
    for seed in range(40):
        reference = RecoverableSystem()
        register_workload_functions(reference.registry)
        ops = _logical_ops(seed)
        for op in ops:
            reference.execute(op)
        ids = sorted({obj for op in ops for obj in op.writes})
        expected = {obj: reference.read(obj) for obj in ids}

        def run(model, where):
            root = str(tmp_path / where)
            witness = _witness_on(backend, root, model)
            for op in _logical_ops(seed):
                witness.system.execute(op)
            witness.system.log.force()
            crashed = _cycle_armed(witness, model)
            again = _reopened(backend, root)
            wrong.extend(
                (seed, where, obj) for obj in ids
                if again.read(obj) != expected[obj]
            )
            again.close()
            return crashed

        counter = FaultModel(armed=False)
        assert not run(counter, f"{seed}-all")
        count = counter.points_in(FORWARD_PHASE)
        for point in range(count):
            spec = FaultSpec(point, FaultKind.CRASH)
            assert run(FaultModel([spec], armed=False), f"{seed}-{point}")
        points += count
    assert points >= 200
    assert wrong == []


def test_a_pinned_witness_log_drains_with_the_primarys_identity_writes(
    tmp_path,
):
    """A cycle of logical writes leaves a two-object flush set that the
    witness cannot install without logging, so its log stays pinned;
    the primary's ``flush_all`` ships the identity writes that split
    it, and the next cycle installs everything and truncates the log."""
    from repro.core.operation import put_object
    from repro.topology import build_systems

    primary = build_systems(1, "file", str(tmp_path / "primary")).systems[0]
    witness = _witness_on("file", str(tmp_path / "witness"))
    shipped = NULL_SI

    def ship():
        nonlocal shipped
        primary.log.force()
        frames = [
            (lsi, frame)
            for lsi, code, frame in primary.log.stable_frames(shipped + 1)
            if code in SHIPPED_TYPES
        ]
        witness.system.log.adopt_records(b"".join(f for _, f in frames))
        shipped = frames[-1][0]
        witness._redo_cycle()

    primary.execute(put_object("x", b"x0"))
    primary.execute(put_object("y", b"y0"))
    for op in (
        Operation("a", OpKind.LOGICAL, reads={"x", "y"}, writes={"y"},
                  fn="wl_combine", params=("x", "y")),
        Operation("b", OpKind.LOGICAL, reads={"y"}, writes={"x"},
                  fn="wl_derive", params=("y", "x")),
        Operation("c", OpKind.PHYSIOLOGICAL, reads={"y"}, writes={"y"},
                  fn="wl_touch", params=("y",)),
    ):
        primary.execute(op)
    ship()
    log = witness.system.log
    assert witness.redo_cycles == 1
    assert log.footprint()["stable_records"] > 0
    assert witness.system.cache.dirty_table.min_rsi() is not None

    primary.flush_all()
    assert primary.stats.identity_writes > 0
    ship()
    assert witness.redo_cycles == 2
    assert log.footprint()["stable_records"] == 0
    assert len(witness.system.cache.dirty_table) == 0
    for obj in ("x", "y"):
        assert witness.system.store.read(obj).value == primary.read(obj)
    witness.system.close()
    primary.close()
