"""Traced pass of the served workloads (the per-layer metrics).

The daemon is built *in this process* from the same objects
``python -m repro serve`` builds (``make_store``, ``FileLogManager``,
``RecoverableSystem``, ``crash()``, ``ServeDaemon`` / ``WitnessDaemon``
``.start()``), its public callables are wrapped with the span recorder,
and one synchronous ``DaemonClient`` drives a fifth of the workload's
operations — alternating untraced and traced blocks, so the ratio of
their throughputs is the tracing overhead — followed by one kill-free
``crash()`` + supervised-recover cycle and a full read-back.

Numbers from this pass compare a layer with itself across commits.
They are not the end-to-end numbers: client, primary and witness share
one interpreter lock here, and there is one caller, not sixteen.
"""

from __future__ import annotations

import os
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.kernel.system import RecoverableSystem, SystemConfig
from repro.obs.metrics import MetricsRegistry
from repro.persist.file_log import FileLogManager
from repro.replica.sender import ReplicationConfig
from repro.replica.witness import WitnessConfig, WitnessDaemon
from repro.serve import protocol
from repro.serve.client import DaemonClient
from repro.serve.server import DaemonConfig, ServeDaemon
from repro.storage.registry import make_store, recommended_cache_config
from repro.workloads.generator import register_workload_functions

from perf import gen, layers, served
from perf.instrument import instrument_recovery, instrument_system
from perf.oracle import Oracle
from perf.procs import Scratch, dir_bytes, file_bytes, fsync_ref_ms
from perf.spans import SpanRecorder, SpanTable
from perf.stats import median
from perf.workloads import BLOCK_PAIRS, TRACED_SHARE, Served

PING_SAMPLES = 1000
CODEC_SAMPLES = 300


class Node:
    """One in-process daemon over a data dir, built as the CLI builds it."""

    def __init__(self, data_dir: str, store_name: str, *, replicate: bool = False,
                 witness_of: Optional[int] = None) -> None:
        os.makedirs(data_dir, exist_ok=True)
        self.data_dir = data_dir
        self.store_name = store_name
        store = make_store(store_name, data_dir)
        opened = time.perf_counter()
        log = FileLogManager(data_dir)
        self.log_open_s = time.perf_counter() - opened
        self.log_records_at_open = len(log)
        self.system = RecoverableSystem(
            SystemConfig(cache=recommended_cache_config(store_name)),
            store=store, log=log,
        )
        register_workload_functions(self.system.registry)
        self.system.attach_metrics(MetricsRegistry())
        # Cold start, as the CLI does: whatever the directory holds goes
        # through supervised recovery before the listener opens.
        self.system.crash()
        config = DaemonConfig(
            http_port=None,
            flightrec_path=os.path.join(data_dir, "flightrec.jsonl"),
        )
        if witness_of is not None:
            self.daemon: ServeDaemon = WitnessDaemon(
                self.system, config,
                witness=WitnessConfig(primary_port=witness_of,
                                      epoch_root=data_dir),
            )
        elif replicate:
            self.daemon = ServeDaemon(
                self.system, config,
                replication=ReplicationConfig(epoch_root=data_dir),
            )
        else:
            self.daemon = ServeDaemon(self.system, config)

    def start(self) -> "Node":
        self.daemon.start()
        return self

    def kill(self) -> None:
        self.daemon.kill()
        self.system.close()


class Cluster:
    """The in-process topology: a daemon, or a primary and its witness."""

    def __init__(self, spec: Served, root: str, replicated: bool) -> None:
        self.spec = spec
        self.root = root
        self.replicated = replicated
        self.primary: Optional[Node] = None
        self.witness: Optional[Node] = None

    def start(self) -> None:
        self.primary = Node(
            os.path.join(self.root, "primary"), self.spec.store,
            replicate=self.replicated,
        ).start()
        if self.replicated:
            self.witness = Node(
                os.path.join(self.root, "witness"), self.spec.store,
                witness_of=self.primary.daemon.port,
            ).start()
            deadline = time.monotonic() + 30.0
            while not self.witness.daemon.attached:
                if time.monotonic() > deadline:
                    raise RuntimeError("in-process witness never attached")
                time.sleep(0.002)

    def nodes(self) -> List[Node]:
        return [n for n in (self.primary, self.witness) if n is not None]

    def kill(self) -> None:
        for node in self.nodes():
            node.kill()
        self.primary = self.witness = None

    def graceful_restart(self) -> None:
        for node in reversed(self.nodes()):
            node.daemon.stop(graceful=True)
            node.system.close()
        self.start()

    def client(self) -> DaemonClient:
        assert self.primary is not None
        return DaemonClient("127.0.0.1", self.primary.daemon.port)


Exchange = Tuple[Dict[str, Any], Dict[str, Any]]


def _drive(client: DaemonClient, requests: List[Dict[str, Any]],
           oracle: Oracle, recorder: Optional[SpanRecorder] = None,
           first_request: int = 0,
           exchanges: Optional[List[Exchange]] = None) -> float:
    """Issue ``requests`` one at a time; returns the summed caller-side
    seconds (the client-observed time the spans must account for).
    ``exchanges`` collects up to ``CODEC_SAMPLES`` request/reply pairs
    for the codec microbenchmark."""
    clock = time.perf_counter
    observed = 0.0
    for offset, request in enumerate(requests):
        fields = {k: v for k, v in request.items() if k != "kind"}
        if recorder is not None:
            recorder.current_request = first_request + offset
        started = clock()
        reply = client.request(request["kind"], **fields)
        observed += clock() - started
        oracle.on_reply(request, reply)
        if exchanges is not None and len(exchanges) < CODEC_SAMPLES:
            exchanges.append((dict(request, id=reply.get("id")), reply))
    return observed


def _ping_rtt_ms(client: DaemonClient) -> float:
    samples = []
    for _ in range(PING_SAMPLES):
        started = time.perf_counter()
        client.ping()
        samples.append(time.perf_counter() - started)
    return median(samples) * 1e3


def _codec_us_per_op(pairs: List[Exchange]) -> float:
    """Framing + value-envelope cost of one request/reply exchange, on
    the workload's own message shapes, over a socketpair (no server)."""
    left, right = socket.socketpair()
    try:
        started = time.perf_counter()
        for request, reply in pairs:
            protocol.send_frame(left, request)
            received = protocol.recv_frame(right)
            value = protocol.decode_value(received.get("value"))
            if value is not None:
                protocol.encode_value(value)
            protocol.send_frame(right, reply)
            answer = protocol.recv_frame(left)
            value = protocol.decode_value(answer.get("value"))
            if value is not None:
                protocol.encode_value(value)
        return (time.perf_counter() - started) * 1e6 / len(pairs)
    finally:
        left.close()
        right.close()


def _sync_rate(spec: Served, seed: int, root: str, count: int) -> float:
    """Operations per second of one synchronous caller against a
    *standalone* in-process daemon: the base of ``replica.cost_x``."""
    cluster = Cluster(spec, root, replicated=False)
    cluster.start()
    try:
        requests = gen.serve_requests(spec.traffic, seed, count)
        with cluster.client() as client:
            return count / _drive(client, requests, Oracle())
    finally:
        cluster.kill()


@dataclass
class Blocks:
    """What the alternating untraced/traced blocks measured."""

    untraced_rates: List[float] = field(default_factory=list)
    traced_rates: List[float] = field(default_factory=list)
    #: Caller-clocked seconds of the traced blocks.
    observed_s: float = 0.0
    #: Deltas over the traced blocks only, so every per-op ratio has the
    #: traced operations as its base.
    io: Dict[str, int] = field(default_factory=dict)
    wal_growth: int = 0
    adopted: int = 0
    exchanges: List[Exchange] = field(default_factory=list)


def _run_blocks(cluster: Cluster, client: DaemonClient,
                requests: List[Dict[str, Any]], block: int, oracle: Oracle,
                recorder: SpanRecorder) -> Blocks:
    primary, witness = cluster.primary, cluster.witness
    assert primary is not None
    system = primary.system
    wal_path = os.path.join(primary.data_dir, "wal.log")

    def attach() -> None:
        # Start-up recovery is over, so system.cache is the live one.
        instrument_system(recorder, system)
        recorder.wrap(client, "request", "serve.client_request")
        if primary.daemon.replication is not None:
            recorder.wrap(primary.daemon.replication, "replicate",
                          "replica.replicate")
        if witness is not None:
            recorder.wrap(witness.system.log, "adopt_records",
                          "replica.witness.adopt_records")

    blocks = Blocks()
    cursor = 0
    for pair in range(BLOCK_PAIRS):
        took = _drive(client, requests[cursor:cursor + block], oracle)
        blocks.untraced_rates.append(block / took)
        cursor += block
        before = system.stats.snapshot()
        wal_before = file_bytes(wal_path)
        adopted_before = witness.system.stats.log_records if witness else 0
        attach()
        try:
            took = _drive(client, requests[cursor:cursor + block], oracle,
                          recorder, pair * block, blocks.exchanges)
        finally:
            recorder.restore()
        blocks.traced_rates.append(block / took)
        blocks.observed_s += took
        cursor += block
        for name, delta in system.stats.diff(before).items():
            blocks.io[name] = blocks.io.get(name, 0) + delta
        blocks.wal_growth += file_bytes(wal_path) - wal_before
        if witness is not None:
            blocks.adopted += witness.system.stats.log_records - adopted_before
    return blocks


def _recovery_cycle(cluster: Cluster, recorder: SpanRecorder) -> Dict[str, float]:
    """One kill-free crash + supervised-recover cycle: the daemons are
    killed in place and rebuilt over the same directories."""
    first = len(recorder.spans)
    recorder.current_request = None
    cluster.kill()
    instrument_recovery(recorder)
    try:
        cluster.start()
    finally:
        recorder.restore()
    primary = cluster.primary
    assert primary is not None
    report = primary.system.last_report
    metrics = layers.recovery_metrics(
        [span.as_dict() for span in recorder.spans[first:]],
        report.records_scanned,
        report.ops_considered, report.ops_redone,
    )
    metrics["wal.open_ms_per_krecord"] = (
        primary.log_open_s * 1e3 / (primary.log_records_at_open / 1000.0)
        if primary.log_records_at_open else 0.0
    )
    return metrics


def run(spec: Served, seed: int, seconds: float, scratch: Scratch,
        full_seconds: float, spans_out: Optional[str] = None) -> Dict[str, Any]:
    """Run the traced pass of one served workload."""
    total = spec.open_count(seconds) + spec.closed_count(seconds)
    block = max(5, round(total * TRACED_SHARE / BLOCK_PAIRS))
    traced_ops = BLOCK_PAIRS * block
    n_warm = spec.warmup_count(seconds, full_seconds)
    stream = gen.serve_requests(spec.traffic, seed, n_warm + 2 * traced_ops)
    recorder = SpanRecorder()
    oracle = Oracle()
    cluster = Cluster(spec, scratch.fresh_dir(spec.name), spec.replicated)
    try:
        standalone_rate = (
            _sync_rate(spec, seed, scratch.fresh_dir("standalone"),
                       traced_ops // 2)
            if spec.replicated else 0.0
        )
        cluster.start()
        client = cluster.client()
        if spec.preload:
            _drive(client, gen.preload_requests(spec.traffic, seed), oracle)
            client.close()
            cluster.graceful_restart()
            client = cluster.client()
        _drive(client, stream[:n_warm], oracle)
        primary = cluster.primary
        assert primary is not None

        fsync_start = fsync_ref_ms(scratch.root)
        blocks = _run_blocks(cluster, client, stream[n_warm:], block, oracle,
                             recorder)
        fsync_end = fsync_ref_ms(scratch.root)

        table = SpanTable(recorder.rows())
        untraced = median(blocks.untraced_rates)
        adopts = table.calls.get("replica.witness.adopt_records", 0)
        segments = getattr(primary.system.store, "segment_count", None)
        # The store's own files: one per object, or logstore segments.
        store_bytes = sum(dir_bytes(os.path.join(primary.data_dir, sub))
                          for sub in ("objects", "segments"))
        metrics = dict.fromkeys(layers.ABSENT_ON_SERVED, 0.0)
        metrics.update(layers.span_metrics(table, traced_ops))
        metrics.update(layers.counter_metrics(table, blocks.io, traced_ops))
        metrics.update({
            "serve.ping_rtt_ms": _ping_rtt_ms(client),
            "serve.protocol.encode_decode_us_per_op":
                _codec_us_per_op(blocks.exchanges),
            # The daemon never installs before drain, so the live node
            # count only grows: its value at quiesce is its peak.
            "core.engine.nodes_peak": float(len(primary.system.engine)),
            "wal.bytes_per_op": blocks.wal_growth / traced_ops,
            "storage.bytes_per_user_byte":
                store_bytes / max(1, oracle.live_bytes()),
            "storage.segments_final": float(segments()) if segments else 0.0,
            "replica.witness.records_per_adopt":
                blocks.adopted / adopts if adopts else 0.0,
            "replica.cost_x":
                standalone_rate / untraced if spec.replicated else 0.0,
            "bench.trace_overhead_x": untraced / median(blocks.traced_rates),
            "bench.attributed_share": table.total_self_s() / blocks.observed_s,
            "device.fsync_ref_ms.start": fsync_start,
            "device.fsync_ref_ms.end": fsync_end,
        })
        client.close()
        metrics.update(_recovery_cycle(cluster, recorder))
        with cluster.client() as reader:
            for index in range(spec.traffic.keys):
                key = spec.traffic.key(index)
                oracle.check_reply(key, reader.request("get", obj=key))
        if spans_out:
            recorder.dump(spans_out)
    finally:
        recorder.restore()
        cluster.kill()
    # The wall-clock timings, at quarter scale, so that a traced run
    # records them too (see layers.e2e_sample).
    sample = served.run(spec, seed, seconds * layers.E2E_SAMPLE_SHARE, scratch,
                        full_seconds, setups=1, restarts=1)
    oracle.attempted += sample["attempted"]
    oracle.failures.extend(sample["failures"])
    metrics.update(layers.e2e_sample(sample))
    return {
        "workload": spec.name,
        "attempted": oracle.attempted,
        "failures": oracle.failures,
        "per_layer": metrics,
        "reported": {"traced_ops": traced_ops, "untraced_ops": traced_ops},
    }
