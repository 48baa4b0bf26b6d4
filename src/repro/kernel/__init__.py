"""The recoverable system kernel.

:class:`~repro.kernel.system.RecoverableSystem` is the public facade: it
wires the stable store, the WAL, the cache manager and the recovery
manager into one object that domains and experiments drive.  The kernel
also provides crash injection (:mod:`~repro.kernel.crash`), the
oracle-based recoverability verifier (:mod:`~repro.kernel.verify`), and
the restartable recovery supervisor with its escalation ladder
(:mod:`~repro.kernel.supervisor`).
"""

from repro._exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".system": ("RecoverableSystem", "SystemConfig", "SystemHealth"),
    ".crash": ("CrashInjector", "CrashNow"),
    ".verify": ("verify_recovered", "VerificationError"),
    ".backup_manager": ("BackupManager",),
    ".supervisor": (
        "AttemptRecord", "FailureReport", "RecoverySupervisor",
        "SupervisorConfig",
    ),
    ".torture": (
        "TortureConfig", "TortureHarness", "TortureOutcome", "TortureReport",
    ),
})
