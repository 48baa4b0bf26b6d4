"""The recoverable system kernel.

:class:`~repro.kernel.system.RecoverableSystem` is the public facade: it
wires the stable store, the WAL, the cache manager and the recovery
manager into one object that domains and experiments drive.  The kernel
also provides the oracle-based recoverability verifier
(:mod:`~repro.kernel.verify`), the restartable recovery supervisor with
its escalation ladder (:mod:`~repro.kernel.supervisor`), and the
torture harness that crashes it through the fault model
(:mod:`~repro.kernel.torture`).
"""

from repro._exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".system": ("RecoverableSystem", "SystemConfig", "SystemHealth"),
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
