"""Live-fire torture (v3): client workloads against a real daemon.

Torture v1/v2 crash a *library* — the harness owns the system object
and calls ``crash()``/``recover()`` itself.  The live-fire lane tortures
the **daemon**: concurrent clients drive requests over real sockets at
a :class:`~repro.serve.server.ServeDaemon` while a fault model misfires
the storage underneath, the process is killed (abruptly or gracefully),
a fresh daemon is started over the debris, and the oracle is the
serving layer's one promise:

    **every client-acknowledged write is durable** — after recovery,
    each object's recovered vSI is at least the highest lSI the daemon
    ever acked for it, and the recovered value is a value some client
    actually sent.

This is exactly-once *visibility*: retries make delivery at-least-once
on the wire, but because ``put`` is a physical write of a specific
value and the daemon acks only after the WAL force, replayed duplicates
are idempotent and an ack can never be rolled back.

Two lanes:

* **in-process** (:meth:`LiveFireHarness.run` / :meth:`campaign`) —
  the daemon runs on in-memory faulty components
  (:class:`~repro.storage.faultwrap.FaultyStore` /
  :class:`~repro.wal.faulty_log.FaultyLog`) with a seeded fuzz
  schedule; mid-serve faults exercise the watchdog's restart ladder
  live, ``kill()`` models SIGKILL, and hundreds of seeded runs fit in
  seconds.  This is the lane the E12 benchmark scales to its
  ``>= 200 runs, zero acked losses`` acceptance bar.
* **subprocess** (:meth:`LiveFireHarness.subprocess_run`) — a real
  ``python -m repro serve`` process over a real directory, killed with
  a real ``SIGKILL`` (or drained with ``SIGTERM``), restarted, and
  audited through its ``/healthz`` endpoint.  One run of each shape is
  the CI daemon-smoke job.

Verification always runs against an honest device (the fault model is
disarmed before the final restart), mirroring the torture harness: the
verdict itself is never faulted.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import DegradedModeError
from repro.common.rng import make_rng
from repro.kernel.backup_manager import BackupManager
from repro.kernel.supervisor import SupervisorConfig
from repro.kernel.system import (
    RecoverableSystem,
    SystemConfig,
    SystemHealth,
)
from repro.obs.metrics import MetricsRegistry
from repro.serve.client import DaemonClient, RetryPolicy
from repro.serve.errors import ServeError
from repro.serve.server import DaemonConfig, ServeDaemon
from repro.serve.watchdog import WatchdogConfig
from repro.storage.faults import FaultModel, FuzzRates
from repro.storage.faultwrap import FaultyStore
from repro.wal.faulty_log import FaultyLog


@dataclass
class LiveFireConfig:
    """Workload shape and fault rates for one live-fire campaign."""

    #: Concurrent client threads; each owns a disjoint object set, so
    #: per-object write order is total and read-your-writes checkable.
    clients: int = 3
    #: Sequential put requests each client attempts.
    requests_per_client: int = 12
    #: Objects each client cycles its puts over.
    objects_per_client: int = 3
    #: Probability a client follows an acked put with a get and checks
    #: read-your-writes live (before any kill).
    p_get: float = 0.25
    #: Forward-phase fuzz rates for the in-process faulty device.  The
    #: model stays armed through mid-serve watchdog recoveries, so
    #: these faults also hit recovery's own I/O.
    rates: FuzzRates = field(
        default_factory=lambda: FuzzRates(
            transient=0.01, torn=0.004, corrupt=0.004
        )
    )
    #: Ladder budget for watchdog-driven recoveries.
    supervisor_attempts: int = 24
    #: Daemon admission-queue bound (small: backpressure should fire).
    max_queue: int = 16
    #: Client retry budget per request (kept tight so post-kill
    #: stragglers fail fast; the oracle never depends on them).
    client_attempts: int = 5
    client_base_delay: float = 0.002
    client_deadline: float = 5.0
    #: Wall-clock cap waiting for a subprocess daemon to come up.
    subprocess_timeout: float = 30.0


@dataclass
class LiveFireOutcome:
    """One kill-restart-verify run against a live daemon."""

    description: str
    ok: bool
    error: str = ""
    seed: Optional[int] = None
    #: Client-acknowledged writes across all clients.
    acked: int = 0
    #: Requests attempted (acked + rejected + lost-in-flight).
    sent: int = 0
    #: Requests that ended in a terminal rejection or retry exhaustion.
    failed: int = 0
    #: Mid-serve watchdog restarts the first daemon performed.
    restarts: int = 0
    #: Faults the model injected (in-process lane).
    faults_injected: int = 0
    #: Acked writes found missing or stale after recovery.  The whole
    #: point of the campaign is that this list stays empty.
    losses: List[str] = field(default_factory=list)


@dataclass
class LiveFireReport:
    """Aggregate verdict of a live-fire campaign."""

    mode: str
    outcomes: List[LiveFireOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def total_acked(self) -> int:
        return sum(outcome.acked for outcome in self.outcomes)

    @property
    def total_losses(self) -> int:
        return sum(len(outcome.losses) for outcome in self.outcomes)

    def failures(self) -> List[LiveFireOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def summary(self) -> str:
        failed = len(self.failures())
        status = "OK" if failed == 0 else f"{failed} FAILED"
        return (
            f"torture v3 ({self.mode}): {len(self.outcomes)} runs, "
            f"{self.total_acked} acked writes, "
            f"{self.total_losses} acked losses — {status}"
        )


class _ClientRecord:
    """What one client thread sent and what the daemon acked."""

    def __init__(self) -> None:
        #: obj -> every value this client sent for it (ack or not).
        self.sent_values: Dict[str, List[str]] = {}
        #: (obj, value, lsi) for every acked put, in ack order.
        self.acks: List[Tuple[str, str, int]] = []
        self.sent = 0
        self.failed = 0
        self.errors: List[str] = []


class LiveFireHarness:
    """Drives client workloads at live daemons and audits the acks."""

    def __init__(
        self,
        config: Optional[LiveFireConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config if config is not None else LiveFireConfig()
        #: Optional shared registry attached to every system built.
        self.obs = metrics

    # ------------------------------------------------------------------
    # in-process lane
    # ------------------------------------------------------------------
    def run(self, seed: int) -> LiveFireOutcome:
        """One seeded in-process run: serve under faults, kill, verify."""
        cfg = self.config
        model = FaultModel.fuzz(seed, cfg.rates)
        system = RecoverableSystem(
            SystemConfig(),
            store=FaultyStore(model),
            log=FaultyLog(model),
        )
        if self.obs is not None:
            system.attach_metrics(self.obs)
        # Backup at time zero: pins the log and backs the quarantine
        # path, so mid-serve media restores can reinstate corrupt
        # objects instead of escalating to DEGRADED.
        backup = BackupManager(system).take_backup()
        daemon = ServeDaemon(
            system,
            DaemonConfig(
                port=0,
                http_port=None,
                max_queue=cfg.max_queue,
                retry_after_ms=5,
                watchdog=WatchdogConfig(
                    supervisor=SupervisorConfig(
                        max_attempts=cfg.supervisor_attempts
                    )
                ),
            ),
            backup=backup,
        )
        daemon.start()
        outcome = LiveFireOutcome(f"livefire seed={seed}", True, seed=seed)
        records = [_ClientRecord() for _ in range(cfg.clients)]
        stop = threading.Event()
        workers = [
            threading.Thread(
                target=self._client_worker,
                args=(seed, cid, daemon.port, records[cid], stop),
                name=f"livefire-client-{cid}",
                daemon=True,
            )
            for cid in range(cfg.clients)
        ]
        for worker in workers:
            worker.start()
        # Kill at a seeded ack count, so every run kills at a different
        # phase of the workload — including mid-request, which is the
        # race the force-before-ack contract exists for.
        total = cfg.clients * cfg.requests_per_client
        kill_after = make_rng(f"livefire-kill:{seed}").randint(1, total)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            acked = sum(len(record.acks) for record in records)
            if acked >= kill_after:
                break
            if not any(worker.is_alive() for worker in workers):
                break
            time.sleep(0.002)
        daemon.kill()
        stop.set()
        for worker in workers:
            worker.join(timeout=10.0)
        outcome.restarts = daemon.restarts()
        # The verdict is never faulted: recovery of the restarted
        # daemon runs against an honest device, like torture v1/v2.
        model.armed = False
        if not system._crashed:
            system.crash()
        try:
            self._verify_recovered(system, backup, records, outcome)
        except Exception as exc:  # noqa: BLE001 - verdict, not control flow
            outcome.ok = False
            outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.sent = sum(record.sent for record in records)
        outcome.acked = sum(len(record.acks) for record in records)
        outcome.failed = sum(record.failed for record in records)
        outcome.faults_injected = system.stats.faults_injected
        if outcome.losses and outcome.ok:
            outcome.ok = False
            outcome.error = f"{len(outcome.losses)} acked writes lost"
        return outcome

    def campaign(self, runs: int, seed: int = 0) -> LiveFireReport:
        """``runs`` seeded in-process runs; run ``i`` uses ``seed + i``."""
        report = LiveFireReport(mode="in-process")
        for index in range(runs):
            report.outcomes.append(self.run(seed + index))
        return report

    def _client_worker(
        self,
        seed: int,
        cid: int,
        port: int,
        record: _ClientRecord,
        stop: threading.Event,
    ) -> None:
        cfg = self.config
        rng = make_rng(f"livefire-client:{seed}:{cid}")
        client = DaemonClient(
            "127.0.0.1",
            port,
            policy=RetryPolicy(
                attempts=cfg.client_attempts,
                base_delay=cfg.client_base_delay,
                max_delay=0.05,
                deadline=cfg.client_deadline,
                rng=rng,
            ),
            connect_timeout=2.0,
        )
        last_acked: Dict[str, str] = {}
        try:
            for seq in range(cfg.requests_per_client):
                if stop.is_set():
                    return
                obj = f"lf{cid}:{seq % cfg.objects_per_client}"
                value = f"run{seed}:c{cid}:s{seq}"
                record.sent_values.setdefault(obj, []).append(value)
                record.sent += 1
                try:
                    lsi = client.put(obj, value)
                except (ServeError, DegradedModeError, OSError) as exc:
                    # Rejected or lost in flight: the oracle will decide
                    # whether it landed anyway (at-least-once is fine).
                    record.failed += 1
                    record.errors.append(f"{type(exc).__name__}: {exc}")
                    continue
                record.acks.append((obj, value, lsi))
                last_acked[obj] = value
                if stop.is_set():
                    return
                if rng.random() < cfg.p_get:
                    try:
                        read_value, _vsi = client.get(obj)
                    except (ServeError, DegradedModeError, OSError):
                        continue
                    # Read-your-writes, live: this client is the only
                    # writer of obj and the put was acked.
                    if read_value != last_acked[obj]:
                        record.errors.append(
                            f"read-your-writes violated on {obj}: got "
                            f"{read_value!r}, acked {last_acked[obj]!r}"
                        )
                        record.failed += 1
        finally:
            client.close()

    def _verify_recovered(
        self,
        system: RecoverableSystem,
        backup: Any,
        records: List[_ClientRecord],
        outcome: LiveFireOutcome,
    ) -> None:
        """Restart a daemon over the debris and audit every ack."""
        daemon = ServeDaemon(
            system,
            DaemonConfig(
                port=0,
                http_port=None,
                watchdog=WatchdogConfig(
                    supervisor=SupervisorConfig(
                        max_attempts=self.config.supervisor_attempts
                    )
                ),
            ),
            backup=backup,
        )
        daemon.start()
        try:
            if system.health is not SystemHealth.HEALTHY:
                raise AssertionError(
                    "restarted daemon did not come back HEALTHY: "
                    f"{system.health.value}"
                )
            client = DaemonClient("127.0.0.1", daemon.port)
            try:
                self._audit_acks(client, records, outcome)
            finally:
                client.close()
        finally:
            daemon.stop(graceful=True)

    def _audit_acks(
        self,
        client: DaemonClient,
        records: List[_ClientRecord],
        outcome: LiveFireOutcome,
    ) -> None:
        """The oracle: per object, recovered vSI >= max acked lSI and
        the recovered value is something a client actually sent."""
        for record in records:
            by_obj: Dict[str, List[Tuple[int, str]]] = {}
            for obj, value, lsi in record.acks:
                by_obj.setdefault(obj, []).append((lsi, value))
            for obj, acks in by_obj.items():
                max_lsi, max_value = max(acks)
                value, vsi = client.get(obj)
                if vsi is None or vsi < max_lsi:
                    outcome.losses.append(
                        f"{obj}: acked through lsi {max_lsi} but "
                        f"recovered vsi is {vsi}"
                    )
                    continue
                if vsi == max_lsi and value != max_value:
                    outcome.losses.append(
                        f"{obj}: recovered vsi {vsi} matches the last "
                        f"ack but value is {value!r}, acked {max_value!r}"
                    )
                    continue
                if value not in record.sent_values.get(obj, []):
                    outcome.losses.append(
                        f"{obj}: recovered value {value!r} was never "
                        "sent by its owning client"
                    )

    # ------------------------------------------------------------------
    # subprocess lane (real process, real signals, real files)
    # ------------------------------------------------------------------
    def subprocess_run(
        self,
        workdir: str,
        seed: int = 0,
        graceful: bool = False,
        fault_seed: Optional[int] = None,
    ) -> LiveFireOutcome:
        """Kill (or drain) a real ``python -m repro serve`` process.

        Starts a daemon subprocess over ``workdir``, drives one client
        workload at it, delivers ``SIGTERM`` (graceful: the daemon must
        drain, force, checkpoint and exit 0) or ``SIGKILL`` (abrupt),
        restarts a fresh subprocess over the same directory, requires
        ``/healthz`` to answer 200 HEALTHY, and audits every ack.
        """
        cfg = self.config
        shape = "sigterm" if graceful else "sigkill"
        outcome = LiveFireOutcome(
            f"subprocess {shape} seed={seed}", True, seed=seed
        )
        data_dir = os.path.join(workdir, "data")
        record = _ClientRecord()
        proc, port, _http = self._spawn(workdir, data_dir, fault_seed)
        try:
            rng = make_rng(f"livefire-subprocess:{seed}")
            client = DaemonClient(
                "127.0.0.1",
                port,
                policy=RetryPolicy(
                    attempts=cfg.client_attempts,
                    base_delay=cfg.client_base_delay,
                    deadline=cfg.client_deadline,
                    rng=rng,
                ),
            )
            total = cfg.clients * cfg.requests_per_client
            kill_after = rng.randint(1, total) if not graceful else total
            try:
                for seq in range(total):
                    obj = f"sp{seed}:{seq % (3 * cfg.objects_per_client)}"
                    value = f"sub{seed}:s{seq}"
                    record.sent_values.setdefault(obj, []).append(value)
                    record.sent += 1
                    try:
                        lsi = client.put(obj, value)
                    except (ServeError, DegradedModeError, OSError) as exc:
                        record.failed += 1
                        record.errors.append(str(exc))
                        continue
                    record.acks.append((obj, value, lsi))
                    if len(record.acks) >= kill_after:
                        break
            finally:
                client.close()
            if graceful:
                proc.send_signal(signal.SIGTERM)
                status = proc.wait(timeout=cfg.subprocess_timeout)
                if status != 0:
                    raise AssertionError(
                        f"SIGTERM drain exited with status {status}"
                    )
            else:
                proc.kill()
                proc.wait(timeout=cfg.subprocess_timeout)
        except Exception as exc:  # noqa: BLE001 - verdict, not control flow
            outcome.ok = False
            outcome.error = f"{type(exc).__name__}: {exc}"
            self._reap(proc)
            outcome.sent, outcome.acked = record.sent, len(record.acks)
            return outcome
        # Restart over the debris (faults off: the verdict is honest).
        proc2, port2, http2 = self._spawn(workdir, data_dir, None)
        try:
            health = self._healthz(http2)
            if health.get("health") != SystemHealth.HEALTHY.value:
                raise AssertionError(
                    f"/healthz after restart: {health}"
                )
            client = DaemonClient("127.0.0.1", port2)
            try:
                self._audit_acks(client, [record], outcome)
            finally:
                client.close()
            proc2.send_signal(signal.SIGTERM)
            status = proc2.wait(timeout=cfg.subprocess_timeout)
            if status != 0:
                raise AssertionError(
                    f"verification daemon exited with status {status}"
                )
        except Exception as exc:  # noqa: BLE001 - verdict, not control flow
            outcome.ok = False
            outcome.error = f"{type(exc).__name__}: {exc}"
            self._reap(proc2)
        outcome.sent, outcome.acked = record.sent, len(record.acks)
        outcome.failed = record.failed
        if outcome.losses and outcome.ok:
            outcome.ok = False
            outcome.error = f"{len(outcome.losses)} acked writes lost"
        return outcome

    def _spawn(
        self, workdir: str, data_dir: str, fault_seed: Optional[int]
    ) -> Tuple["subprocess.Popen[bytes]", int, int]:
        """Start ``python -m repro serve`` and wait for its port file."""
        port_file = os.path.join(
            workdir, f"port-{time.monotonic_ns()}.json"
        )
        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--data-dir",
            data_dir,
            "--port",
            "0",
            "--http-port",
            "0",
            "--port-file",
            port_file,
        ]
        if fault_seed is not None:
            command += ["--fault-seed", str(fault_seed)]
        env = dict(os.environ)
        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        )
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(command, env=env)
        deadline = time.monotonic() + self.config.subprocess_timeout
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                raise AssertionError(
                    f"serve subprocess died at startup "
                    f"(status {proc.returncode})"
                )
            if os.path.exists(port_file):
                try:
                    with open(port_file, "r", encoding="utf-8") as handle:
                        info = json.load(handle)
                    return proc, info["port"], info["http_port"]
                except (ValueError, KeyError):
                    pass  # partially written; poll again
            time.sleep(0.02)
        self._reap(proc)
        raise AssertionError("serve subprocess never wrote its port file")

    def _healthz(self, http_port: int) -> Dict[str, Any]:
        """Poll readiness until it answers 200, returning the body.

        Plain ``/healthz`` is liveness and answers 200 while still
        RECOVERING; the audit needs the stricter ``?ready=1`` verdict
        (HEALTHY and not draining) before it reads anything back.
        """
        deadline = time.monotonic() + self.config.subprocess_timeout
        last: Dict[str, Any] = {}
        while time.monotonic() < deadline:
            try:
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{http_port}/healthz?ready=1",
                    timeout=2.0,
                ) as response:
                    return json.loads(response.read().decode("utf-8"))
            except urllib.error.HTTPError as exc:
                last = json.loads(exc.read().decode("utf-8") or "{}")
            except (OSError, ValueError):
                pass
            time.sleep(0.05)
        return last

    @staticmethod
    def _reap(proc: "subprocess.Popen[bytes]") -> None:
        if proc.poll() is None:
            proc.kill()
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                pass
