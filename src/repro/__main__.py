"""Command-line entry: ``python -m repro [command]``.

* no command / ``demo`` — a compact end-to-end scenario (logical
  operations across three domains, a crash, recovery, verification) and
  the I/O and logging ledger.  A smoke check that an installation works.
* ``torture <mode>`` — fault-injection campaigns, one table of modes
  (``TORTURE_MODES``).  ``sweep`` crash-recovers every numbered I/O
  point of a seeded workload under every must-survive fault kind,
  ``fuzz`` runs N seeded random fault schedules, and ``v2`` does both to
  recovery's own I/O (nested crashes included) through the supervisor's
  escalation ladder.  ``flush`` does both to one flush (and crashes once
  after it), ``rot`` to the objects a truncating workload left stored,
  recovered with no backup, ``witness`` to a witness's redo cycle (and
  crashes once after it).  ``v3|v3-rewrite|v3-checkpoint|v4|v5`` are the
  live-fire rows of :mod:`repro.livefire`: concurrent clients drive a
  served workload over sockets while the storage misbehaves, the daemon
  (``v3``, over rewritten keys ``v3-rewrite``, inside an online
  checkpoint ``v3-checkpoint``), one shard worker (``v4``) or the
  primary of a replicated pair (``v5``) is killed at a seeded point,
  the topology is healed, and every acknowledged write is audited.
  ``--store`` tortures a durable backend, ``--metrics-out PATH`` writes
  the campaign's shared registry as JSONL, and a failing run prints the
  command that replays exactly it.
* ``serve --data-dir PATH`` — run the long-lived daemon itself:
  supervised recovery over whatever the directory contains, then
  health-gated serving with deadlines, backpressure, a ``/metrics`` +
  ``/healthz`` endpoint, graceful SIGTERM drain.  ``--store`` selects
  the durable store backend (``file`` or ``logstore``; reopen with the
  backend that created the directory).  ``--shards N`` serves
  a sharded topology: N recovery domains with per-shard WAL streams
  under ``data-dir/shard-K``, per-shard admission gates and recovery ladders,
  and fence-protocol cross-shard operations.  ``--replicate`` accepts
  a witness subscription and gates every ack on the witness's durable
  receipt; ``--witness-of HOST:PORT`` runs the *witness* side —
  subscribe to that primary, continuously redo its shipped WAL, and
  serve only after promotion.
* ``promote --port N`` — tell a witness daemon to promote: fence the
  old epoch, converge the adopted log through recovery, start serving
  as primary.  Promotion is an operator decision (a witness cannot
  tell a dead primary from a partition), which is why it is a command
  and not an automatism.
* ``metrics <file.jsonl>`` — render a telemetry file exported with
  ``--metrics-out`` (or :func:`repro.obs.dump_jsonl`) as
  Prometheus-style exposition text; ``--summary`` prints the condensed
  counter/latency table (histogram p50/p95/p99 included) instead.
* ``trace <file.jsonl> [more.jsonl ...]`` — stitch the span exports of
  every process on a request's path (client, primary, shards, witness)
  back into causal trace trees with per-stage latency attribution.
  ``--list`` enumerates the trace ids present; ``--trace-id`` renders
  one; ``--expect a,b,c`` exits non-zero unless some complete tree
  contains all the named stages (the CI trace-smoke assertion).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import signal
import sys
import textwrap
import threading
from typing import (
    TYPE_CHECKING, Any, Callable, List, NamedTuple, Optional, Tuple,
)

from repro.obs import MetricsRegistry, dump_jsonl, load_jsonl, render_prometheus
from repro.storage.faults import FaultModel, FuzzRates
from repro.storage.registry import (
    DURABLE_BACKENDS,
    recommended_cache_config,
    store_backends,
)

# Each sub-command imports what it runs where it runs it, so that a
# ``serve`` process loads neither the demo's domains nor the harnesses.
if TYPE_CHECKING:
    from repro.kernel.torture import TortureHarness, TortureReport
    from repro.livefire import Scenario
    from repro.serve.server import ServeDaemon


def demo() -> int:
    from repro import RecoverableSystem, verify_recovered
    from repro.analysis import Table, format_bytes
    from repro.domains import (
        ApplicationRuntime,
        RecoverableBTree,
        RecoverableFileSystem,
    )

    print("repro — Lomet & Tuttle, SIGMOD 1999, self-demo\n")
    system = RecoverableSystem()
    fs = RecoverableFileSystem(system)
    app = ApplicationRuntime(system, "app:demo", program="checksum")
    tree = RecoverableBTree(system, capacity=4)

    for index in range(6):
        name = f"doc{index}"
        fs.write_file(name, f"document number {index} ".encode() * 40)
        app.run_pipeline(fs.object_id(name), fs.object_id(f"{name}.sum"))
        tree.insert(index, fs.read_file(f"{name}.sum"))
    fs.sort("doc0", "doc0.sorted")
    fs.delete("doc5")
    tree.delete(5)

    system.log.force()
    for _ in range(5):
        system.purge()

    print(f"executed {len(system.history)} operations "
          f"({system.stats.log_records} log records)")
    system.crash()
    report = system.recover()
    verify_recovered(system)
    print(f"crashed and recovered: {report.ops_redone} re-executed, "
          f"{report.skipped()} bypassed — state verified against the "
          f"oracle\n")

    snapshot = system.stats.snapshot()
    table = Table("ledger", ["metric", "value"])
    table.add_row("log bytes", format_bytes(snapshot["log_bytes"]))
    table.add_row(
        "data values logged", format_bytes(snapshot["log_value_bytes"])
    )
    table.add_row("device object writes", snapshot["object_writes"])
    table.add_row("log forces", snapshot["log_forces"])
    table.add_row("identity writes", snapshot["identity_writes"])
    table.add_row("multi-object atomic flushes", snapshot["atomic_flushes"])
    print(table.render())
    print("\nOK — see examples/ and benchmarks/ for the full tour.")
    return 0


def _bounded(kind: type, low: float, high: float = float("inf")) -> Callable:
    """An argparse type: a ``kind`` in [low, high] (else usage, exit 2)."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not low <= value <= high:
            bound = f"[{low}, {high}]" if high < float("inf") else f">= {low}"
            raise argparse.ArgumentTypeError(
                f"expected {kind.__name__} {bound}, got {text!r}"
            )
        return value

    return parse


positive_int = _bounded(int, 1)
port_number = _bounded(int, 0, 65535)
fraction = _bounded(float, 0, 1)
#: A duration in seconds: at least a millisecond (so never 0, negative
#: or NaN).
seconds = _bounded(float, 0.001)


class Flag(NamedTuple):
    """One ``torture`` option.  A *shape* flag is repeated by the replay
    command of a failing run when it is off its default; the others (how
    many runs, from which seed) are what a replay command replaces."""

    flag: str
    dest: str
    kind: Callable
    default: Any
    help: str
    shape: bool = True


class Mode(NamedTuple):
    """One ``torture`` sub-command: its flags, and what runs it —
    ``run(args, registry or None)`` returns the exit status."""

    name: str
    help: str
    flags: Tuple[Flag, ...]
    run: Callable[[argparse.Namespace, Optional[MetricsRegistry]], int]
    #: The flag counting seeded runs: a replay sets it to 1 for a seeded
    #: run and to 0 for a seedless sweep cell ahead of them.
    runs_flag: Optional[str] = None
    scenario: Optional[Scenario] = None


STORE = Flag("--store", "store_backend", str, "memory",
             "stable-store backend under torture")
SEED = Flag("--seed", "seed", int, 0, "base seed; run i uses seed+i",
            shape=False)
WORKLOAD = (
    Flag("--ops", "ops", int, 20, "workload operations"),
    Flag("--objects", "objects", int, 5, "object population"),
    Flag("--workload-seed", "workload_seed", int, 0,
         "workload/interleave seed"),
    STORE,
)


def _harness(
    args: argparse.Namespace, metrics: Optional[MetricsRegistry]
) -> TortureHarness:
    from repro.kernel.torture import TortureConfig, TortureHarness

    backend = args.store_backend
    config = TortureConfig(
        objects=args.objects,
        operations=args.ops,
        workload_seed=args.workload_seed,
        store_backend=backend,
        cache_factory=lambda: recommended_cache_config(backend),
    )
    return TortureHarness(config, metrics=metrics)


def torture_sweep(args: argparse.Namespace, metrics) -> int:
    harness = _harness(args, metrics)
    print(
        f"sweeping {harness.points()} I/O points "
        f"(workload seed {args.workload_seed}, {args.ops} operations)"
    )
    return _report(harness.sweep(), args)


def torture_fuzz(args: argparse.Namespace, metrics) -> int:
    harness = _harness(args, metrics)
    rates = FuzzRates(
        transient=args.p_transient, torn=args.p_torn, corrupt=args.p_corrupt
    )
    print(
        f"fuzzing {args.runs} schedules from seed {args.seed} "
        f"(workload seed {args.workload_seed})"
    )
    return _report(harness.fuzz(args.runs, args.seed, rates), args)


def torture_phase(
    phase_name: str, points: str, schedules: str,
    args: argparse.Namespace, metrics,
) -> int:
    """``v2``, ``flush``, ``rot`` and ``witness``: the sweep of one
    phase row of :mod:`repro.kernel.torture`, then ``--fuzz-runs``
    seeded schedules in it at the row's rates with the mode's ``--p-*``
    flags (if any) applied."""
    from repro.kernel import torture

    phase = getattr(torture, phase_name)
    harness = _harness(args, metrics)
    print(
        f"torture {args.row.name}: sweeping {harness.points(phase)} "
        f"{points} (workload seed {args.workload_seed}, {args.ops} "
        "operations)"
    )
    status = _report(harness.sweep(phase), args)
    if args.fuzz_runs > 0:
        print(
            f"\nfuzzing {args.fuzz_runs} {schedules} schedules "
            f"from seed {args.seed}"
        )
        rates = dataclasses.replace(phase.rates, **{
            f.dest[len("p_"):]: getattr(args, f.dest)
            for f in args.row.flags
            if f.dest.startswith("p_")
        })
        fuzz = harness.fuzz(args.fuzz_runs, args.seed, rates, phase)
        status = _report(fuzz, args) or status
    return status


def torture_livefire(args: argparse.Namespace, metrics) -> int:
    from repro.livefire import LiveFireHarness

    scenario = args.row.scenario
    config = scenario.config(
        **{f.dest: getattr(args, f.dest) for f in args.row.flags if f.shape}
    )
    harness = LiveFireHarness(scenario, config, metrics=metrics)
    shape = f"{config.shards} shards, " if config.shards > 1 else ""
    shape += (
        f"{config.clients} clients x {config.requests_per_client} requests, "
        f"store {config.store_backend}"
    )
    if scenario.replicated:
        shape += f", zombie ratio {config.zombie_ratio}"
    print(
        f"torture {scenario.name}: {args.runs} {scenario.label} runs from "
        f"seed {args.seed} ({shape})"
    )
    lane = " --no-subprocess" if scenario.subprocess_lane else ""
    status = _report(harness.campaign(args.runs, args.seed), args, lane)
    if scenario.subprocess_lane and not args.no_subprocess:
        print("\nsubprocess lanes: real SIGKILL, then SIGTERM drain")
        status = _report(harness.subprocess_lanes(args.seed), args) or status
    return status


def _livefire_mode(scenario: Scenario) -> Mode:
    """A live-fire row's sub-command: shape flags only where the row's
    topology has the axis, defaults from its config."""
    from repro.livefire import Fault

    defaults = scenario.config()
    flags = [
        Flag("--runs", "runs", positive_int, 25, "seeded in-process runs",
             shape=False),
        SEED,
        Flag("--clients", "clients", positive_int, defaults.clients,
             "concurrent clients per run"),
        Flag("--requests", "requests_per_client", positive_int,
             defaults.requests_per_client, "requests each"),
        STORE._replace(default=defaults.store_backend),
    ]
    if scenario.fault is Fault.KILL_SHARD:
        # Partial availability has nothing to show with one shard.
        flags.append(Flag("--shards", "shards", _bounded(int, 2),
                          defaults.shards, "recovery domains"))
    if scenario.replicated:
        flags.append(Flag("--zombie-ratio", "zombie_ratio",
                          fraction, defaults.zombie_ratio,
                          "share of runs that leave the primary alive "
                          "through promotion"))
    if scenario.subprocess_lane:
        flags.append(Flag("--no-subprocess", "no_subprocess", bool, False,
                          "skip the real-SIGKILL/SIGTERM subprocess lanes",
                          shape=False))
    return Mode(scenario.name, scenario.help, tuple(flags), torture_livefire,
                "--runs", scenario)


def _rate_flags(**rates: float) -> Tuple[Flag, ...]:
    """``--p-<kind>`` flags: a fuzz stage's per-point fault rates."""
    what = {"transient": "transient-fault", "torn": "torn-write",
            "corrupt": "corruption", "crash": "clean-crash"}
    return tuple(
        Flag(f"--p-{kind}", f"p_{kind}", fraction, rate,
             f"per-point {what[kind]} rate")
        for kind, rate in rates.items()
    )


def _phase_mode(
    name: str, help: str, phase_name: str, points: str, schedules: str,
    fuzz_runs: int, **rates: float,
) -> Mode:
    """A phase row's sub-command (:func:`torture_phase`)."""
    return Mode(name, help, WORKLOAD + (
        Flag("--fuzz-runs", "fuzz_runs", int, fuzz_runs, f"{schedules} "
             "fuzz schedules after the sweep; 0 skips the fuzz stage",
             shape=False),
        SEED,
    ) + _rate_flags(**rates),
        functools.partial(torture_phase, phase_name, points, schedules),
        "--fuzz-runs")


#: The library campaigns' ``torture`` sub-commands.
LIBRARY_MODES: Tuple[Mode, ...] = (
    Mode("sweep", "every I/O point x every must-survive fault kind",
         WORKLOAD, torture_sweep),
    Mode("fuzz", "seeded random fault schedules", WORKLOAD + (
        Flag("--runs", "runs", int, 500, "number of schedules", shape=False),
        SEED,
    ) + _rate_flags(transient=0.02, torn=0.01, corrupt=0.01),
        torture_fuzz, "--runs"),
    _phase_mode("v2", "crash recovery itself: recovery-point sweep (incl. "
                "nested crashes) + two-phase fuzz via the supervisor",
                "RECOVERY", "recovery-phase I/O points", "two-phase", 200,
                torn=0.005, corrupt=0.005, crash=0.01),
    _phase_mode("flush", "crash one flush at each of its I/O points and "
                "after its last + seeded faults inside the flush", "FLUSH",
                "flush I/O points, then the crash after the flush",
                "flush-phase", 100, torn=0.05, corrupt=0.05, crash=0.1),
    _phase_mode("rot", "rot each stored object after a truncating workload "
                "and recover with no backup + seeded multi-object rot",
                "ROT", "stored objects after a truncating workload", "rot",
                50, corrupt=0.3),
    _phase_mode("witness", "crash a witness's redo cycle at each of its "
                "I/O points and after its last + seeded faults inside the "
                "cycle", "WITNESS",
                "redo-cycle I/O points, then the crash after the cycle",
                "redo-cycle", 50),
)


@functools.lru_cache(maxsize=None)
def _torture_modes() -> Tuple[Mode, ...]:
    """Every ``torture`` sub-command, in ``--help`` order: the library
    campaigns, then one row per live-fire scenario."""
    from repro.livefire import SCENARIOS

    return LIBRARY_MODES + tuple(
        _livefire_mode(scenario) for scenario in SCENARIOS.values()
    )


def __getattr__(name: str) -> Any:
    # ``TORTURE_MODES`` is built on first access: its live-fire rows
    # come from the harness, which only a ``torture`` process imports.
    if name == "TORTURE_MODES":
        return _torture_modes()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _report(report: TortureReport, args: argparse.Namespace,
            lane: str = "") -> int:
    """Print a campaign's verdict (and a library campaign's fault
    ledger); for every failing run, its error, the command that replays
    exactly its seed and shape, and its details.  1 if any failed."""
    from repro.analysis import fault_summary

    print(report.summary())
    if report.totals:
        fault_summary(report.totals).print()
    if report.ok:
        return 0
    row = args.row
    shape = "".join(
        f" {f.flag} {getattr(args, f.dest)}"
        for f in row.flags
        if f.shape and getattr(args, f.dest) != f.default
    )
    print("\nfailing runs:")
    for outcome in report.failures():
        if outcome.seed is not None:
            runs = f" {row.runs_flag} 1 --seed {outcome.seed}"
        else:
            runs = f" {row.runs_flag} 0" if row.runs_flag else ""
        print(f"  {outcome.description}: {outcome.error}")
        print(
            f"    (reproduce: python -m repro torture {row.name}"
            f"{runs}{shape}{lane})"
        )
        for detail in outcome.details():
            print(textwrap.indent(detail, "    "))
    return 1


def torture_campaign(args: argparse.Namespace) -> int:
    """Run one ``torture`` mode with its campaign registry, if asked."""
    metrics = MetricsRegistry() if args.metrics_out else None
    status = args.row.run(args, metrics)
    if metrics is not None:
        dump_jsonl(metrics, args.metrics_out)
        print(f"telemetry written to {args.metrics_out}")
    return status


def promote_witness(args: argparse.Namespace) -> int:
    from repro.serve.client import DaemonClient, RetryPolicy
    from repro.serve.errors import ServeError

    client = DaemonClient(
        args.host,
        args.port,
        policy=RetryPolicy(attempts=args.attempts, base_delay=0.05,
                           deadline=args.deadline),
    )
    try:
        response = client.request("promote")
    except (ServeError, OSError) as exc:
        print(f"promotion failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    finally:
        client.close()
    print(
        f"promoted: role={response.get('role')} "
        f"epoch={response.get('epoch')} watermark={response.get('watermark')}"
        + (" (already promoted)" if response.get("already_promoted") else "")
    )
    return 0


def _parse_primary(spec: str) -> Tuple[str, int]:
    """``--witness-of``'s argparse type: ``HOST:PORT``, a port a
    primary can listen on."""
    host, sep, port = spec.rpartition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {spec!r}")
    return (host or "127.0.0.1", _bounded(int, 1, 65535)(port))


def serve_daemon(args: argparse.Namespace) -> int:
    from repro.serve.server import DaemonConfig
    from repro.topology import build_daemon, build_systems

    if args.shards > 1 and (args.witness_of or args.replicate):
        print(
            "replication serves one recovery domain per daemon; "
            "--witness-of/--replicate cannot combine with --shards > 1",
            file=sys.stderr,
        )
        return 2
    # A ``--fault-seed`` arms one seeded fuzz model per recovery domain
    # over both of its devices.
    models = [] if args.fault_seed is None else [
        FaultModel.fuzz(
            args.fault_seed + index,
            FuzzRates(
                transient=args.p_transient,
                torn=args.p_torn,
                corrupt=args.p_corrupt,
            ),
        )
        for index in range(args.shards)
    ]
    # Each recovery domain recovers its own directory (its own WAL
    # stream) independently; the daemon gates admission and supervises
    # per domain.
    sharded = build_systems(
        args.shards, args.store, args.data_dir, models=models
    )
    # Cold start: whatever the directory contains — a clean shutdown,
    # SIGKILL debris — the daemon's supervised startup must recover it
    # before the listener opens.  Entering the crashed state makes each
    # shard run the full escalation ladder.
    sharded.crash_all()
    replication = witness = None
    if args.replicate:
        from repro.replica.sender import ReplicationConfig

        replication = ReplicationConfig(epoch_root=args.data_dir)
    if args.witness_of:
        from repro.replica.witness import WitnessConfig

        primary_host, primary_port = args.witness_of
        witness = WitnessConfig(
            primary_host=primary_host,
            primary_port=primary_port,
            epoch_root=args.data_dir,
        )
    daemon = build_daemon(
        sharded,
        DaemonConfig(
            host=args.host,
            port=args.port,
            http_port=None if args.no_http else args.http_port,
            max_queue=args.max_queue,
            default_deadline_ms=args.default_deadline_ms,
            allow_chaos=args.allow_chaos,
            flightrec_path=os.path.join(args.data_dir, "flightrec.jsonl"),
        ),
        replication=replication,
        witness=witness,
    )
    daemon.start()
    topology = f"{args.shards} shards, " if args.shards > 1 else ""
    role = f", role: {daemon.role}" if daemon.role != "primary" else ""
    print(
        f"serving {args.data_dir} on {args.host}:{daemon.port} "
        f"({topology}health: {daemon.aggregate_health().value}{role}"
        + (f", http: {daemon.http_port}" if daemon.http_port else "")
        + ")",
        flush=True,
    )
    return _serve_wait(daemon, args)


def _serve_wait(daemon: ServeDaemon, args: argparse.Namespace) -> int:
    if args.port_file:
        payload = {
            "port": daemon.port,
            "http_port": daemon.http_port,
            "pid": os.getpid(),
        }
        tmp = args.port_file + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, args.port_file)
    stop = threading.Event()

    def _on_signal(signum: int, _frame: object) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    stop.wait()
    print("draining for shutdown", flush=True)
    status = daemon.stop(graceful=True)
    if args.metrics_out:
        dump_jsonl(daemon.obs, args.metrics_out)
    print(f"shutdown complete (status {status})", flush=True)
    return status


def metrics_view(args: argparse.Namespace) -> int:
    from repro.analysis import obs_summary

    try:
        loaded = load_jsonl(args.path)
        snapshot = loaded["snapshot"]
        if not loaded["meta"] and not snapshot:
            # Parseable JSONL, but none of it is telemetry.
            raise ValueError("no telemetry records found")
        rendered = (
            obs_summary(snapshot).render()
            if args.summary
            else render_prometheus(snapshot)
        )
    except OSError as exc:
        print(f"cannot read telemetry file: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        print(
            f"{args.path} is not a telemetry JSONL file (expected the "
            f"format written by --metrics-out): {type(exc).__name__}: "
            f"{exc}",
            file=sys.stderr,
        )
        return 1
    if args.summary:
        print(rendered)
    else:
        print(rendered, end="")
    return 0


def trace_view(args: argparse.Namespace) -> int:
    from repro.obs.tracetree import main as trace_main

    expect = None
    if args.expect:
        expect = [part.strip() for part in args.expect.split(",")
                  if part.strip()]
    try:
        return trace_main(
            args.paths,
            trace_id=args.trace_id,
            list_only=args.list_traces,
            expect=expect,
        )
    except OSError as exc:
        print(f"cannot read telemetry file: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError) as exc:
        print(
            f"not a telemetry JSONL export: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose ``fill(parser)``, when given, adds its
    arguments on its first parse, so that building the ``torture``
    parser does not import the harnesses its rows come from."""

    def __init__(self, *args: Any, fill: Optional[Callable] = None,
                 **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._fill = fill

    def parse_known_args(self, args=None, namespace=None):
        fill, self._fill = self._fill, None
        if fill is not None:
            fill(self)
        return super().parse_known_args(args, namespace)


def _add_torture_modes(torture_parser: argparse.ArgumentParser) -> None:
    tsub = torture_parser.add_subparsers(dest="mode", required=True)
    for row in _torture_modes():
        p = tsub.add_parser(row.name, help=row.help)
        for f in row.flags:
            if f.kind is bool:
                p.add_argument(f.flag, dest=f.dest, action="store_true",
                               help=f.help)
                continue
            choices = store_backends() if f.dest == "store_backend" else None
            p.add_argument(
                f.flag, dest=f.dest, type=f.kind, default=f.default,
                choices=choices, help=f"{f.help} (default {f.default})",
            )
        p.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write campaign telemetry (JSONL) to PATH")
        p.set_defaults(fn=torture_campaign, row=row)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="python -m repro", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("demo", help="run the self-demo (the default)")
    sub.add_parser("torture", help="fault-injection recovery torture",
                   fill=_add_torture_modes)

    serve = sub.add_parser(
        "serve", help="run the serving daemon over a database directory"
    )
    serve.add_argument("--data-dir", required=True,
                       help="database directory (created if missing)")
    serve.add_argument("--store", default="file",
                       choices=DURABLE_BACKENDS,
                       help="durable store backend for the data "
                       "directory (default file; a directory must be "
                       "reopened with the backend that created it)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=port_number, default=0,
                       help="request port (default 0 = ephemeral)")
    serve.add_argument("--http-port", type=port_number, default=0,
                       help="/metrics + /healthz port (default ephemeral)")
    serve.add_argument("--no-http", action="store_true",
                       help="disable the HTTP scrape endpoint")
    serve.add_argument("--port-file", default=None, metavar="PATH",
                       help="write bound ports + pid to PATH as JSON "
                       "once the listener is open")
    serve.add_argument("--max-queue", type=positive_int, default=64,
                       help="admission backlog bound (default 64)")
    serve.add_argument("--default-deadline-ms", type=positive_int,
                       default=5000,
                       help="deadline for requests that carry none")
    serve.add_argument("--shards", type=positive_int, default=1,
                       help="recovery domains; > 1 serves a sharded "
                       "topology with per-shard WALs under "
                       "data-dir/shard-K (default 1)")
    serve.add_argument("--allow-chaos", action="store_true",
                       help="accept kill_shard/revive_shard chaos "
                       "requests (sharded topologies; harness/CI only)")
    serve.add_argument("--replicate", action="store_true",
                       help="accept a witness subscription and gate "
                       "every write ack on the witness's durable "
                       "receipt (semi-synchronous replication)")
    serve.add_argument("--witness-of", type=_parse_primary, default=None,
                       metavar="HOST:PORT",
                       help="run as the witness of the primary at "
                       "HOST:PORT: subscribe, adopt and continuously "
                       "redo its shipped WAL; serve only after "
                       "'python -m repro promote'")
    serve.add_argument("--fault-seed", type=int, default=None,
                       help="arm a seeded fuzz fault model over the "
                       "on-disk store and log (live-fire testing)")
    serve.add_argument("--p-transient", type=fraction, default=0.01,
                       help="per-point transient rate (with --fault-seed)")
    serve.add_argument("--p-torn", type=fraction, default=0.002,
                       help="per-point torn-write rate (with --fault-seed)")
    serve.add_argument("--p-corrupt", type=fraction, default=0.002,
                       help="per-point corruption rate (with --fault-seed)")
    serve.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="dump telemetry JSONL at graceful shutdown")
    serve.set_defaults(fn=serve_daemon)

    promote = sub.add_parser(
        "promote", help="promote a witness daemon to primary (fences "
        "the old epoch; an operator decision, never automatic)"
    )
    promote.add_argument("--host", default="127.0.0.1")
    promote.add_argument("--port", type=port_number, required=True,
                         help="the witness daemon's request port")
    promote.add_argument("--attempts", type=positive_int, default=5,
                         help="client retry attempts (default 5)")
    promote.add_argument("--deadline", type=seconds, default=30.0,
                         help="overall promotion deadline in seconds")
    promote.set_defaults(fn=promote_witness)

    metrics = sub.add_parser(
        "metrics", help="render an exported telemetry JSONL file"
    )
    metrics.add_argument("path", help="JSONL file written by --metrics-out")
    metrics.add_argument("--summary", action="store_true",
                         help="condensed counter/latency table instead of "
                         "Prometheus exposition text")
    metrics.set_defaults(fn=metrics_view)

    trace = sub.add_parser(
        "trace", help="reconstruct distributed trace trees from "
        "exported telemetry JSONL (one file per process on the path)"
    )
    trace.add_argument("paths", nargs="+", metavar="PATH",
                       help="JSONL exports (client, primary, witness, "
                       "...); spans sharing a trace id are stitched")
    trace.add_argument("--trace-id", default=None,
                       help="render only this trace id")
    trace.add_argument("--list", action="store_true", dest="list_traces",
                       help="list trace ids instead of rendering trees")
    trace.add_argument("--expect", default=None, metavar="A,B,C",
                       help="comma-separated stage-name substrings; "
                       "exit 1 unless one complete tree contains all")
    trace.set_defaults(fn=trace_view)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command in (None, "demo"):
        return demo()
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
