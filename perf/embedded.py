"""The ``embedded_fs`` workload: the kernel driven in process, no daemon.

A child process opens ``PersistentSystem`` on the logstore backend with
a 128-object cache, 1 MiB auto-checkpoints and truncation on, and one
closed-loop caller drives ``RecoverableFileSystem`` over 512 files of
8 KiB (4 MiB live: larger than the cache), forcing the WAL after every
mutating call.  The parent keeps an independent model of the files;
after the SIGKILL a fresh child reopens the directory and every file
must match the model byte for byte (compared by SHA-256).

The child speaks lines on stdout (``READY``, ``RESULT {json}``,
``ACK``, ``FILES {json}``) and waits on stdin between steps, so the
parent decides when measurement starts and when the SIGKILL lands.

This module is both sides: ``run``/``run_traced`` are the parent,
``python -m perf.embedded '{json}'`` is the child.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import select
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from perf import gen, layers
from perf.oracle import Oracle
from perf.procs import Scratch, dir_bytes, fsync_ref_ms, peak_rss_mb
from perf.spans import SpanTable, load_spans
from perf.stats import median, percentile, segment_rates, supported_tail
from perf.workloads import BLOCK_PAIRS, CAP_FACTOR, TRACED_SHARE, Embedded

PROBE_FILE = "restart-probe"
CHILD_TIMEOUT_S = 150.0

#: How often the parent samples the data dir's size while the child works.
SAMPLE_EVERY_S = 0.1

MUTATING = frozenset({"copy", "sort", "append", "write_file"})


# ----------------------------------------------------------------------
# child side
# ----------------------------------------------------------------------
def _open_system(config: Dict[str, Any]) -> Any:
    from repro.core.engine import GraphMode
    from repro.domains.filesystem import register_filesystem_functions
    from repro.kernel.system import SystemConfig
    from repro.persist import PersistentSystem
    from repro.storage.registry import recommended_cache_config

    cache = dataclasses.replace(
        recommended_cache_config("logstore"),
        capacity=config["capacity"],
        graph_mode=GraphMode.W if config["graph"] == "w" else GraphMode.RW,
    )
    return PersistentSystem.open(
        config["dir"],
        config=SystemConfig(
            cache=cache,
            checkpoint_every_bytes=config["checkpoint_every_bytes"],
            truncate_on_checkpoint=True,
        ),
        domains=[register_filesystem_functions],
        store_backend="logstore",
    )


def _file_system(system: Any, logging: str) -> Any:
    from repro.domains.filesystem import FsLoggingMode, RecoverableFileSystem

    mode = (FsLoggingMode.PHYSICAL if logging == "physical"
            else FsLoggingMode.LOGICAL)
    return RecoverableFileSystem(system, mode)


def _apply(fs: Any, system: Any, op: gen.FsOp) -> None:
    """One call of the workload; mutations are forced before returning
    (the embedded flush policy)."""
    verb, a, b, data = op
    if verb == "read_file":
        fs.read_file(a)
        return
    if verb == "copy":
        fs.copy(a, b)
    elif verb == "sort":
        fs.sort(a, b)
    elif verb == "append":
        fs.append(a, data)
    else:
        fs.write_file(a, data)
    system.log.force()


class _WalGrowth:
    """Positive growth of ``wal.log``, sampled after every call:
    truncation rewrites the file smaller, so only increases count."""

    def __init__(self, directory: str) -> None:
        self.path = os.path.join(directory, "wal.log")
        self.size = os.path.getsize(self.path)
        self.total = 0

    def sample(self) -> None:
        size = os.path.getsize(self.path)
        if size > self.size:
            self.total += size - self.size
        self.size = size


def _say(tag: str, payload: Optional[Dict[str, Any]] = None) -> None:
    sys.stdout.write(tag if payload is None else f"{tag} {json.dumps(payload)}")
    sys.stdout.write("\n")
    sys.stdout.flush()


def _child_run(config: Dict[str, Any]) -> None:
    system = _open_system(config)
    fs = _file_system(system, config["logging"])
    fs.write_file(PROBE_FILE, b"probe")
    system.log.force()
    _say("COLD")  # first forced write on the empty directory
    for op in gen.fs_preload(config["seed"], config["files"]):
        fs.write_file(op[1], op[3])
    system.log.force()
    ops = gen.fs_ops(config["seed"], config["warmup"] + config["ops"],
                     config["files"])
    for op in ops[:config["warmup"]]:
        _apply(fs, system, op)
    measured = ops[config["warmup"]:]
    _say("READY")
    sys.stdin.readline()
    if config["trace"]:
        _say("RESULT", _traced_loop(config, system, fs, measured))
    else:
        _say("RESULT", _timed_loop(config, system, fs, measured))
    sys.stdin.readline()  # parked here until the parent's SIGKILL


def _timed_loop(config: Dict[str, Any], system: Any, fs: Any,
                ops: List[gen.FsOp]) -> Dict[str, Any]:
    clock = time.perf_counter
    durations: List[float] = []
    done: List[float] = []
    wal = _WalGrowth(config["dir"])
    before = system.stats.snapshot()
    origin = clock()
    for op in ops:
        started = clock()
        _apply(fs, system, op)
        finished = clock()
        durations.append(finished - started)
        done.append(finished - origin)
        wal.sample()
        if finished - origin > config["cap_s"]:
            break  # a device far slower than the counts were sized for
    return {"durations": durations, "done": done, "wal_growth": wal.total,
            "io": system.stats.diff(before)}


def _traced_loop(config: Dict[str, Any], system: Any, fs: Any,
                 ops: List[gen.FsOp]) -> Dict[str, Any]:
    from repro.kernel.supervisor import RecoverySupervisor
    from repro.persist.file_log import FileLogManager

    from perf.instrument import instrument_recovery, instrument_system
    from perf.spans import SpanRecorder

    clock = time.perf_counter
    recorder = SpanRecorder()
    block = len(ops) // (2 * BLOCK_PAIRS)
    untraced_rates, traced_rates = [], []
    observed = 0.0
    wal_growth = 0
    nodes_peak = 0
    io: Dict[str, int] = {}
    cursor = 0
    for pair in range(BLOCK_PAIRS):
        started = clock()
        for op in ops[cursor:cursor + block]:
            _apply(fs, system, op)
        untraced_rates.append(block / (clock() - started))
        cursor += block
        before = system.stats.snapshot()
        wal = _WalGrowth(config["dir"])
        instrument_system(recorder, system)
        try:
            started = clock()
            for offset, op in enumerate(ops[cursor:cursor + block]):
                recorder.current_request = pair * block + offset
                _apply(fs, system, op)
                nodes_peak = max(nodes_peak, len(system.engine))
                wal.sample()
            took = clock() - started
        finally:
            recorder.restore()
        traced_rates.append(block / took)
        observed += took
        wal_growth += wal.total
        cursor += block
        for name, delta in system.stats.diff(before).items():
            io[name] = io.get(name, 0) + delta
    store = system.store
    result = {
        "traced_ops": BLOCK_PAIRS * block,
        "untraced_rates": untraced_rates,
        "traced_rates": traced_rates,
        "observed_s": observed,
        "wal_growth": wal_growth,
        "nodes_peak": nodes_peak,
        "io": io,
        "segments": store.segment_count(),
        "store_bytes": store.total_bytes(),
        "request_spans": len(recorder.spans),
    }
    # One kill-free crash + supervised-recover cycle.
    opened = clock()
    reopened = FileLogManager(config["dir"])
    result["log_open_s"] = clock() - opened
    result["log_records"] = len(reopened)
    recorder.current_request = None
    system.crash()
    instrument_recovery(recorder)
    try:
        RecoverySupervisor(system).run()
    finally:
        recorder.restore()
    report = system.last_report
    result["recovery"] = {
        "scanned": report.records_scanned,
        "considered": report.ops_considered,
        "redone": report.ops_redone,
    }
    recorder.dump(config["spans"])
    return result


def _child_verify(config: Dict[str, Any]) -> None:
    system = _open_system(config)
    fs = _file_system(system, "logical")
    fs.write_file(PROBE_FILE, b"probe")
    system.log.force()
    _say("ACK")
    digests = {}
    for index in range(config["files"]):
        name = gen.fs_name(index)
        data = fs.read_file(name)
        digests[name] = None if data is None else hashlib.sha256(data).hexdigest()
    _say("FILES", digests)
    sys.stdin.readline()


def main(argv: List[str]) -> int:
    config = json.loads(argv[1])
    if config["mode"] == "verify":
        _child_verify(config)
    else:
        _child_run(config)
    return 0


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class Child:
    """One worker process and its line protocol."""

    def __init__(self, scratch: Scratch, config: Dict[str, Any]) -> None:
        self.scratch = scratch
        self.proc = scratch.spawn(
            [sys.executable, "-m", "perf.embedded", json.dumps(config)],
            "embedded", piped=True,
        )
        self._buffer = bytearray()

    def expect(self, tag: str, while_waiting: Optional[Callable[[], None]] = None) -> Any:
        """Read lines until one starts with ``tag``; return its JSON
        payload (None for a bare tag).  ``while_waiting`` runs every
        ``SAMPLE_EVERY_S`` until the line arrives."""
        while True:
            text = self._readline(while_waiting)
            if text.startswith(tag):
                rest = text[len(tag):].strip()
                return json.loads(rest) if rest else None

    def _readline(self, while_waiting: Optional[Callable[[], None]]) -> str:
        assert self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while b"\n" not in self._buffer:
            ready, _, _ = select.select([fd], [], [], SAMPLE_EVERY_S)
            if not ready and time.monotonic() < deadline:
                if while_waiting is not None:
                    while_waiting()
                continue
            chunk = os.read(fd, 1 << 16) if ready else b""
            if not chunk:
                raise RuntimeError(
                    f"embedded child {'hung' if not ready else 'exited'} "
                    f"(status {self.proc.poll()}):\n"
                    f"{self.scratch.log_tail('embedded')}"
                )
            self._buffer += chunk
        line, _, rest = bytes(self._buffer).partition(b"\n")
        self._buffer = bytearray(rest)
        return line.decode("utf-8")

    def go(self) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(b"go\n")
        self.proc.stdin.flush()

    def kill(self) -> None:
        self.scratch.kill(self.proc)


def _config(spec: Embedded, directory: str, seed: int, ops: int, warmup: int,
            files: int, **extra: Any) -> Dict[str, Any]:
    config = {
        "mode": "run", "dir": directory, "seed": seed, "ops": ops,
        "warmup": warmup, "files": files, "logging": "logical",
        "graph": "rw", "trace": 0, "spans": "",
        "capacity": spec.cache_capacity,
        "checkpoint_every_bytes": spec.checkpoint_every_bytes,
        "cap_s": CAP_FACTOR * ops / spec.ops_per_second,
    }
    config.update(extra)
    return config


def _model(seed: int, ops: List[gen.FsOp], files: int) -> Dict[str, bytes]:
    model: Dict[str, bytes] = {}
    for op in gen.fs_preload(seed, files) + ops:
        gen.fs_apply(model, op)
    return model


def _restart_and_verify(scratch: Scratch, worker: Child, config: Dict[str, Any],
                        model: Dict[str, bytes], oracle: Oracle,
                        restarts: int) -> List[float]:
    """SIGKILL the worker, reopen the directory in a fresh process,
    time the first forced ack; the last reopen reads every file back."""
    samples = []
    verify = dict(config, mode="verify")
    for _ in range(restarts):
        killed = time.perf_counter()
        worker.kill()
        worker = Child(scratch, verify)
        worker.expect("ACK")
        samples.append(time.perf_counter() - killed)
    digests = worker.expect("FILES")
    worker.kill()
    # The oracle holds, per file, the digest the model says it must have.
    for name, data in model.items():
        oracle.latest[name] = (1, hashlib.sha256(data).hexdigest())
    for name in model:
        oracle.check_value(name, digests.get(name))
    return samples


def run(spec: Embedded, seed: int, seconds: float, scratch: Scratch,
        full_seconds: float, setups: int = 3, restarts: int = 3,
        files: int = gen.FS_FILES) -> Dict[str, Any]:
    """Untraced pass: the end-to-end metrics."""
    n_ops = spec.op_count(seconds)
    n_warm = spec.warmup_count(seconds, full_seconds)
    ops = gen.fs_ops(seed, n_warm + n_ops, files)
    measured = ops[n_warm:]
    oracle = Oracle()

    setup_samples, cold_samples = [], []
    for attempt in range(setups):
        started = time.perf_counter()
        directory = scratch.fresh_dir(f"embedded-{attempt}")
        config = _config(spec, directory, seed, n_ops, n_warm, files)
        worker = Child(scratch, config)
        worker.expect("COLD")
        cold_samples.append(time.perf_counter() - started)
        worker.expect("READY")
        setup_samples.append(time.perf_counter() - started)
        if attempt < setups - 1:
            worker.kill()
            scratch.fresh_dir(f"embedded-{attempt}")

    model = _model(seed, ops, files)
    fsync_start = fsync_ref_ms(scratch.root)
    worker.go()
    # Compaction and truncation make the directory's size a sawtooth
    # (1x to 2x live); its value at quiesce depends on where in a cycle
    # the run happens to end, so space is the mean over the run.
    space_samples: List[int] = []
    result = worker.expect(
        "RESULT", lambda: space_samples.append(dir_bytes(directory))
    )
    space_samples.append(dir_bytes(directory))
    executed = len(result["durations"])
    if executed < n_ops:
        # The loop hit its time cap: the model must stop where it did.
        model = _model(seed, ops[:n_warm + executed], files)
    oracle.attempted += executed
    peak_rss = peak_rss_mb(worker.proc.pid)
    data_bytes = sum(space_samples) / len(space_samples)
    fsync_end = fsync_ref_ms(scratch.root)
    restart_samples = _restart_and_verify(
        scratch, worker, config, model, oracle, restarts
    )

    durations = result["durations"]
    write_ms = [d * 1e3 for d, op in zip(durations, measured) if op[0] in MUTATING]
    read_ms = [d * 1e3 for d, op in zip(durations, measured) if op[0] not in MUTATING]
    truncated = len(durations) < n_ops
    rates = segment_rates(result["done"], 0.0)
    live = sum(len(data) for data in model.values())
    tail = min(99.0, supported_tail(len(write_ms)))
    return {
        "workload": spec.name,
        "attempted": oracle.attempted,
        "failures": oracle.failures,
        "end_to_end": {
            "setup_s": median(setup_samples),
            "log_bytes_per_op": result["wal_growth"] / max(1, len(write_ms)),
            "space_x": data_bytes / max(1, live),
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
            "closed_requests": len(durations),
            "closed_wall_s": result["done"][-1],
            "truncated": float(truncated),
            "acked_per_s_segments": rates,
            "setup_samples_s": setup_samples,
            "restart_samples_s": restart_samples,
            "cold_samples_s": cold_samples,
            "device.fsync_ref_ms.start": fsync_start,
            "device.fsync_ref_ms.end": fsync_end,
        },
    }


def _comparator(spec: Embedded, scratch: Scratch, seed: int, ops: int,
                warmup: int, files: int, tag: str, **mode: str) -> Dict[str, float]:
    """A shorter untraced pass on the same stream in one of the paper's
    baseline configurations."""
    config = _config(spec, scratch.fresh_dir(f"comparator-{tag}"), seed, ops,
                     warmup, files, **mode)
    worker = Child(scratch, config)
    try:
        worker.expect("READY")
        worker.go()
        result = worker.expect("RESULT")
    finally:
        worker.kill()
    stream = gen.fs_ops(seed, warmup + ops, files)[warmup:]
    mutations = sum(1 for op in stream if op[0] in MUTATING)
    return {
        "acked_per_s": median(segment_rates(result["done"], 0.0)),
        "log_bytes_per_op": result["wal_growth"] / max(1, mutations),
        "flushes_per_kop": 1000.0 * result["io"].get("flushes", 0) / ops,
    }


def run_traced(spec: Embedded, seed: int, seconds: float, scratch: Scratch,
               full_seconds: float, spans_out: Optional[str] = None,
               files: int = gen.FS_FILES) -> Dict[str, Any]:
    """Traced pass: the per-layer metrics and the comparators."""
    n_total = spec.op_count(seconds)
    block = max(5, round(n_total * TRACED_SHARE / BLOCK_PAIRS))
    n_ops = 2 * BLOCK_PAIRS * block
    n_warm = spec.warmup_count(seconds, full_seconds)
    n_compare = max(20, 10 * round(n_total * spec.comparator_share / 10))
    ops = gen.fs_ops(seed, n_warm + n_ops, files)
    oracle = Oracle()
    spans_path = spans_out or scratch.path("embedded-spans.jsonl")

    directory = scratch.fresh_dir("embedded-traced")
    config = _config(spec, directory, seed, n_ops, n_warm, files,
                     trace=1, spans=spans_path)
    worker = Child(scratch, config)
    worker.expect("READY")
    fsync_start = fsync_ref_ms(scratch.root)
    worker.go()
    model = _model(seed, ops, files)
    result = worker.expect("RESULT")
    oracle.attempted += n_ops
    fsync_end = fsync_ref_ms(scratch.root)
    _restart_and_verify(scratch, worker, config, model, oracle, restarts=1)

    spans = load_spans(spans_path)
    request_spans = spans[:result["request_spans"]]
    table = SpanTable(request_spans)
    traced_ops = result["traced_ops"]
    live = sum(len(data) for data in model.values())
    untraced = median(result["untraced_rates"])
    metrics = dict.fromkeys(layers.ABSENT_ON_EMBEDDED, 0.0)
    metrics.update(layers.span_metrics(table, traced_ops))
    metrics.update(layers.counter_metrics(table, result["io"], traced_ops))
    metrics.update(layers.recovery_metrics(
        spans[result["request_spans"]:], **result["recovery"]
    ))
    physical = _comparator(spec, scratch, seed, n_compare, n_warm, files,
                           "physical", logging="physical")
    w_graph = _comparator(spec, scratch, seed, n_compare, n_warm, files,
                          "w", graph="w")
    sample = run(spec, seed, seconds * layers.E2E_SAMPLE_SHARE, scratch,
                 full_seconds, setups=1, restarts=1, files=files)
    oracle.attempted += sample["attempted"]
    oracle.failures.extend(sample["failures"])
    metrics.update(layers.e2e_sample(sample))
    metrics.update({
        "core.engine.nodes_peak": float(result["nodes_peak"]),
        "wal.bytes_per_op": result["wal_growth"] / traced_ops,
        "wal.open_ms_per_krecord":
            result["log_open_s"] * 1e3 / (result["log_records"] / 1000.0)
            if result["log_records"] else 0.0,
        "storage.bytes_per_user_byte": result["store_bytes"] / max(1, live),
        "storage.segments_final": float(result["segments"]),
        "comparator.physical.acked_per_s": physical["acked_per_s"],
        "comparator.physical.log_bytes_per_op": physical["log_bytes_per_op"],
        "comparator.w_graph.acked_per_s": w_graph["acked_per_s"],
        "comparator.w_graph.flushes_per_kop": w_graph["flushes_per_kop"],
        "bench.trace_overhead_x": untraced / median(result["traced_rates"]),
        "bench.attributed_share": table.total_self_s() / result["observed_s"],
        "device.fsync_ref_ms.start": fsync_start,
        "device.fsync_ref_ms.end": fsync_end,
    })
    return {
        "workload": spec.name,
        "attempted": oracle.attempted,
        "failures": oracle.failures,
        "per_layer": metrics,
        "reported": {"traced_ops": traced_ops, "untraced_ops": traced_ops,
                     "comparator_ops": n_compare},
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv))
