"""Write-ahead log substrate.

The log is split into a volatile buffer (lost at crash) and the stable
log (survives).  Log sequence numbers are assigned at append time and
double as the state identifiers (lSIs) of the framework.  The WAL
protocol — an operation's record must be on the *stable* log before any
of its effects are flushed — is enforced by the cache manager via
:meth:`LogManager.force_through`.
"""

from repro._exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".records": (
        "LogRecord", "OperationRecord", "InstallationRecord", "FlushRecord",
        "CheckpointRecord", "FlushTxnValuesRecord", "FlushTxnCommitRecord",
    ),
    ".log_manager": ("LogManager",),
    ".faulty_log": ("FaultyLog",),
})
