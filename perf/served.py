"""Untraced pass of the three served workloads (the end-to-end metrics).

Real subprocesses, real signals, real files: ``python -m repro serve``
is started over a fresh data dir, warmed up, driven through an
open-loop and a closed-loop phase, quiesced, SIGKILLed, restarted with
the same command, and every key is read back against the acked-write
oracle.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Any, Dict, List, Optional, Tuple

from perf import gen, loadgen
from perf.oracle import Oracle
from perf.procs import (
    Daemon, Scratch, dir_bytes, file_bytes, fsync_ref_ms,
)
from perf.stats import median, percentile, supported_tail
from perf.workloads import CAP_FACTOR, CLOSED_CALLERS, OPEN_SHARE, Served

#: Rejections that mean "not yet", seen only while a restarted
#: primary waits for its witness to re-attach.
_NOT_YET = frozenset({"UNAVAILABLE", "BACKPRESSURE"})

ATTACH_TIMEOUT_S = 30.0

#: Time cap of the unmeasured loops (preload, warm-up, read-back).
AUX_CAP_S = 30.0

#: Slices each measured phase is cut into (see ``run``).
ROUNDS = 5



def call(pipe: loadgen.Pipeline, request: Dict[str, Any]) -> Dict[str, Any]:
    """One synchronous request on the first connection."""
    pipe.send(0, loadgen.encode_frame(request))
    deadline = time.monotonic() + loadgen.REPLY_TIMEOUT_S
    while time.monotonic() < deadline:
        replies = pipe.poll(1.0)
        if replies:
            return replies[0]
    raise TimeoutError(f"no reply to {request.get('kind')}")


class Topology:
    """The server processes of one workload: a daemon, or a primary
    and its witness."""

    def __init__(self, scratch: Scratch, spec: Served, tag: str) -> None:
        self.scratch = scratch
        self.spec = spec
        self.tag = tag
        self.primary = Daemon(
            scratch, f"{tag}-primary", spec.store,
            ["--replicate"] if spec.replicated else [],
        )
        self.witness: Optional[Daemon] = None

    def start(self) -> None:
        self.primary.start()
        if not self.spec.replicated:
            return
        # The primary's port is ephemeral, so the witness command is
        # rebuilt around it at every (re)start; the data dir is reused.
        self.witness = Daemon(
            self.scratch, f"{self.tag}-witness", self.spec.store,
            ["--witness-of", f"127.0.0.1:{self.primary.port}"],
        ).start()
        with loadgen.Pipeline("127.0.0.1", self.witness.port, 1) as pipe:
            deadline = time.monotonic() + ATTACH_TIMEOUT_S
            while not call(pipe, {"id": 0, "kind": "health"}).get("attached"):
                if time.monotonic() > deadline:
                    raise RuntimeError("witness never attached to the primary")
                time.sleep(0.002)

    def daemons(self) -> List[Daemon]:
        return [d for d in (self.primary, self.witness) if d is not None]

    def sigkill(self) -> None:
        for daemon in self.daemons():
            if daemon.proc is not None:
                daemon.sigkill()

    def drain_and_restart(self) -> None:
        for daemon in reversed(self.daemons()):
            daemon.sigterm_drain()
        self.start()

    def remove_data(self) -> None:
        for daemon in self.daemons():
            shutil.rmtree(daemon.data_dir, ignore_errors=True)

    def connect(self, connections: int = loadgen.CONNECTIONS) -> loadgen.Pipeline:
        return loadgen.Pipeline("127.0.0.1", self.primary.port, connections)

    def wal_bytes(self) -> int:
        return file_bytes(os.path.join(self.primary.data_dir, "wal.log"))


def first_ack(pipe: loadgen.Pipeline) -> None:
    """Block until one durable write is acknowledged.  The probe key is
    outside the workload's key space, so the oracle is unaffected."""
    request = {"id": 0, "kind": "put", "obj": "restart-probe",
               "value": {"__bytes__": "cHJvYmU="}}
    deadline = time.monotonic() + ATTACH_TIMEOUT_S
    while True:
        reply = call(pipe, request)
        if reply.get("ok"):
            return
        code = (reply.get("error") or {}).get("code")
        if code not in _NOT_YET or time.monotonic() > deadline:
            raise RuntimeError(f"first write after restart refused: {reply}")
        time.sleep(0.002)


def set_up(scratch: Scratch, spec: Served, seed: int, tag: str,
           warmup: List[Dict[str, Any]]) -> Tuple[Topology, Oracle, float, float]:
    """One full set-up: process start, preload, warm-up.  Returns the
    running topology, the oracle holding its acks, the seconds it took
    (the ``setup_s`` sample) and the seconds from launch to the first
    acked write on the empty directory (the cold-start sample)."""
    started = time.perf_counter()
    topology = Topology(scratch, spec, tag)
    oracle = Oracle()
    topology.start()
    with topology.connect() as pipe:
        first_ack(pipe)
    cold = time.perf_counter() - started
    if spec.preload:
        preload = loadgen.with_ids(gen.preload_requests(spec.traffic, seed), 1)
        with topology.connect() as pipe:
            loadgen.closed_loop(pipe, preload, CLOSED_CALLERS, oracle.on_reply,
                                AUX_CAP_S)
        # Graceful drain + restart: the measured phases start from what
        # a restarted daemon holds, not from a cache the preload filled.
        topology.drain_and_restart()
    with topology.connect() as pipe:
        loadgen.closed_loop(pipe, warmup, CLOSED_CALLERS, oracle.on_reply,
                            AUX_CAP_S)
    return topology, oracle, time.perf_counter() - started, cold


def run(spec: Served, seed: int, seconds: float, scratch: Scratch,
        full_seconds: float, setups: int = 3, restarts: int = 3) -> Dict[str, Any]:
    """Run one served workload untraced; returns its result record."""
    n_warm = spec.warmup_count(seconds, full_seconds)
    n_open = spec.open_count(seconds)
    n_closed = spec.closed_count(seconds)
    stream = loadgen.with_ids(
        gen.serve_requests(spec.traffic, seed, n_warm + n_open + n_closed),
        first_id=10_000,
    )
    warmup = stream[:n_warm]
    open_requests = stream[n_warm:n_warm + n_open]
    closed_requests = stream[n_warm + n_open:]
    due = gen.poisson_schedule(seed, spec.open_rate, n_open)

    # Set-up is repeated so ``setup_s`` is a median, not one sample; the
    # last set-up is the one measured on.
    setup_samples, cold_samples = [], []
    for attempt in range(setups):
        topology, oracle, took, cold = set_up(
            scratch, spec, seed, f"{spec.name}-{attempt}", warmup
        )
        setup_samples.append(took)
        cold_samples.append(cold)
        if attempt < setups - 1:
            topology.sigkill()
            topology.remove_data()

    fsync_start = fsync_ref_ms(scratch.root)
    writes_before = oracle.acked_writes
    wal_before = topology.wal_bytes()
    # The two phases are cut into ROUNDS slices and interleaved (closed,
    # open, closed, ...): the disk's mood lasts seconds, so slices taken
    # at five moments of the run and summarized by a median are steadier
    # than one contiguous block.
    open_slices: List[loadgen.PhaseResult] = []
    closed_slices: List[loadgen.PhaseResult] = []
    with topology.connect(loadgen.OPEN_CONNECTIONS) as open_pipe, \
            topology.connect() as closed_pipe:
        for k in range(ROUNDS):
            lo, hi = n_closed * k // ROUNDS, n_closed * (k + 1) // ROUNDS
            closed_slices.append(loadgen.closed_loop(
                closed_pipe, closed_requests[lo:hi], CLOSED_CALLERS,
                oracle.on_reply,
                CAP_FACTOR * (1.0 - OPEN_SHARE) * seconds / ROUNDS,
            ))
            lo, hi = n_open * k // ROUNDS, n_open * (k + 1) // ROUNDS
            open_slices.append(loadgen.open_loop(
                open_pipe, open_requests[lo:hi],
                [offset - due[lo] for offset in due[lo:hi]], oracle.on_reply,
                CAP_FACTOR * OPEN_SHARE * seconds / ROUNDS,
            ))
    # The served daemons never truncate before a drain, so the WAL only
    # grows; max() keeps "positive growth" honest if that ever changes.
    wal_growth = max(0, topology.wal_bytes() - wal_before)
    # Quiesced: every request has its reply and nothing is in flight.
    acked_writes = oracle.acked_writes - writes_before
    peak_rss = sum(d.peak_rss_mb() for d in topology.daemons())
    data_bytes = sum(dir_bytes(d.data_dir) for d in topology.daemons())
    fsync_end = fsync_ref_ms(scratch.root)

    restart_samples = []
    for _ in range(restarts):
        killed = time.perf_counter()
        topology.sigkill()
        topology.start()
        with topology.connect() as pipe:
            first_ack(pipe)
        restart_samples.append(time.perf_counter() - killed)

    keys = [spec.traffic.key(i) for i in range(spec.traffic.keys)]
    readback = loadgen.with_ids(
        [{"kind": "get", "obj": key} for key in keys], first_id=1
    )
    with topology.connect() as pipe:
        loadgen.closed_loop(
            pipe, readback, CLOSED_CALLERS,
            lambda request, reply: oracle.check_reply(request["obj"], reply),
            AUX_CAP_S,
        )
    topology.sigkill()

    write_ms: List[float] = []
    read_ms: List[float] = []
    late_ms: List[float] = []
    for k, phase in enumerate(open_slices):
        lo = n_open * k // ROUNDS
        for i in range(phase.issued):
            kind = open_requests[lo + i]["kind"]
            (read_ms if kind == "get" else write_ms).append(phase.latency_ms(i))
            late_ms.append((phase.sent[i] - phase.origin[i]) * 1e3)
    tail = min(99.0, supported_tail(len(write_ms)))
    rates = [len(phase.completion_order) / (phase.end - phase.start)
             for phase in closed_slices]
    open_issued = sum(phase.issued for phase in open_slices)
    closed_issued = sum(phase.issued for phase in closed_slices)
    return {
        "workload": spec.name,
        "attempted": oracle.attempted,
        "failures": oracle.failures,
        "end_to_end": {
            "setup_s": median(setup_samples),
            "log_bytes_per_op": wal_growth / max(1, acked_writes),
            "space_x": data_bytes / max(1, oracle.live_bytes()),
            "server_peak_rss_mb": peak_rss,
        },
        "timings": {
            "acked_per_s": median(rates),
            "write_p50_ms": median(write_ms),
            "write_p99_ms": percentile(write_ms, tail),
            "read_p50_ms": median(read_ms),
            "restart_to_first_ack_s": median(restart_samples),
            "cold_start_to_first_ack_s": median(cold_samples),
        },
        "reported": {
            "write_tail_percentile": tail,
            "write_samples": len(write_ms),
            "read_samples": len(read_ms),
            "openloop_late_p99_ms": percentile(late_ms, 99.0),
            "open_requests": open_issued,
            "closed_requests": closed_issued,
            "truncated": float(open_issued < n_open or closed_issued < n_closed),
            "closed_wall_s": sum(p.end - p.start for p in closed_slices),
            "acked_per_s_slices": rates,
            "setup_samples_s": setup_samples,
            "restart_samples_s": restart_samples,
            "cold_samples_s": cold_samples,
            "device.fsync_ref_ms.start": fsync_start,
            "device.fsync_ref_ms.end": fsync_end,
        },
    }
