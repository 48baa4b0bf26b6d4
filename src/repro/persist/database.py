"""Opening a persistent database directory.

``PersistentSystem.open(path)`` wires a file-backed stable store and
WAL into a :class:`~repro.kernel.system.RecoverableSystem`, replays
recovery over whatever the directory contains (a fresh directory, a
cleanly-forced state, or the debris of a killed process), and returns
the recovered system ready for new operations.

The caller must register the same deterministic transforms (by the same
names) before — or immediately after — opening, or replay of logical
records will fail loudly with UnknownFunctionError.  Domain layers
register their functions in their constructors, so instantiating the
domain objects against the recovered system is the natural pattern::

    system = PersistentSystem.open("/var/data/mydb")
    fs = RecoverableFileSystem(system)   # registers fs transforms

...except that *recovery itself* may need those transforms.  Pass the
registering callables via ``domains=`` so they run first::

    system = PersistentSystem.open(
        "/var/data/mydb",
        domains=[register_filesystem_functions],
    )

Passing ``supervisor_config=`` routes the open-time recovery through
the :class:`~repro.kernel.supervisor.RecoverySupervisor` instead of a
single bare ``recover()`` call: recovery that crashes or trips faults
mid-pass is restarted, retried, and — when damage is unrecoverable —
the system comes up in DEGRADED read-only mode rather than not at all.
The supervisor's :class:`FailureReport` for the open is retained on
``system.last_failure_report``.

Note on verification: an opened system keeps no
:class:`~repro.core.history.History` (it is released before recovery
runs, so memory tracks the live objects, not the operations ever
executed), and the oracle-based ``verify_recovered`` refuses it; tests
assert expected values directly instead.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.core.functions import FunctionRegistry, default_registry
from repro.kernel.supervisor import RecoverySupervisor, SupervisorConfig
from repro.kernel.system import RecoverableSystem, SystemConfig
from repro.obs.metrics import MetricsRegistry
from repro.storage.registry import is_durable, make_log, make_store


class PersistentSystem:
    """Factory for file-backed recoverable systems."""

    @staticmethod
    def open(
        path: str,
        config: Optional[SystemConfig] = None,
        registry: Optional[FunctionRegistry] = None,
        domains: Iterable[Callable[[FunctionRegistry], None]] = (),
        supervisor_config: Optional[SupervisorConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        store_backend: str = "file",
    ) -> RecoverableSystem:
        """Open (creating if needed) the database directory ``path``.

        Runs crash recovery over the directory's WAL and durable store
        and returns the recovered system.  ``domains`` are
        function-registration callables (e.g.
        ``register_filesystem_functions``) invoked on the registry
        before replay.  The system comes back HEALTHY, or DEGRADED
        (read-only over the surviving objects) when recovery could not
        rebuild some object.  With ``supervisor_config`` the open-time
        recovery runs under the escalation-ladder supervisor, with the
        structured verdict on ``system.last_failure_report``.

        ``metrics`` attaches a :class:`~repro.obs.metrics.MetricsRegistry`
        before recovery runs, so the open-time recovery's phase spans
        and latencies are captured too.

        ``store_backend`` names the durable store laid out under
        ``path``, resolved through :func:`repro.storage.make_store`:
        ``"file"`` (the default; one file per object) or ``"logstore"``
        (append-only segments).  A directory must be reopened with the
        backend that created it — the layouts are disjoint, so opening
        with the wrong backend sees an empty store.  ``"memory"`` raises
        ``ValueError``: its store would not outlive the ``wal.log``.
        """
        if not is_durable(store_backend):
            raise ValueError(
                f"store backend {store_backend!r} is not durable; a "
                "persistent database needs 'file' or 'logstore'"
            )
        registry = registry if registry is not None else default_registry()
        for register in domains:
            register(registry)
        store = make_store(store_backend, path)
        log = make_log(store_backend, path)
        system = RecoverableSystem(
            config=config, registry=registry, store=store, log=log
        )
        system.release_history()
        if metrics is not None:
            system.attach_metrics(metrics)
        if supervisor_config is not None:
            RecoverySupervisor(system, config=supervisor_config).run()
        else:
            system.recover()
        return system
