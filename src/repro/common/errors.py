"""Exception hierarchy for the recovery reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without catching programming errors.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class WALViolationError(ReproError):
    """The write-ahead-log protocol was violated.

    Raised when an attempt is made to flush an object whose most recent
    update has not yet reached the stable log.  The paper assumes WAL
    throughout ("all changes in stable system state must be described by
    operations on the stable log before the changes caused by the
    operation are installed"); this error is the executable form of that
    assumption.
    """


class TornWriteError(ReproError):
    """A multi-object write was torn by a crash.

    Only raised by the raw disk model when a crash interrupts a
    multi-object flush that was not protected by an atomicity mechanism
    (shadow install or flush transaction).
    """


class UnrecoverableStateError(ReproError):
    """The stable state cannot be explained by any installed prefix set.

    Detected by the recoverability verifier: no prefix set I of the
    stable history explains the post-crash stable state, so redo
    recovery cannot succeed (Section 2 of the paper).
    """


class RecoveryError(ReproError):
    """Redo recovery failed to reproduce the pre-crash state."""


class UnknownFunctionError(ReproError):
    """A logical log record names a transform not in the function registry.

    Logical log records carry a function identifier instead of data
    values; replay requires the identifier to resolve to a registered
    deterministic function.
    """


class CacheError(ReproError):
    """Cache-manager misuse, e.g. evicting a dirty object."""


class LogTruncationError(ReproError):
    """An attempt was made to truncate the log past an uninstalled operation."""


class TransientStorageError(ReproError, OSError):
    """A storage I/O failed transiently and may succeed if retried.

    Raised by the fault-injection layer (and catchable alongside real
    ``OSError`` I/O failures) at any simulated device touchpoint: an
    object read or write, a log force, an fsync.  The hardened storage
    paths retry these a bounded number of times; only after the retry
    budget is exhausted does the error propagate.
    """


class CorruptObjectError(ReproError):
    """A stored object version failed its integrity (checksum) test.

    Detection — not silent garbage — is the contract: the per-object
    CRC32 framing turns torn writes and bit rot into this error, which
    the recovery path answers with quarantine plus media-style replay
    from a backup image or the retained log.
    """


class DegradedModeError(ReproError):
    """A write was attempted while the system is in degraded read-only mode.

    The escalation ladder ends in DEGRADED when recovery converged for
    every object it *could* redo but some objects were lost (quarantined
    with no backup version and no log-reachable derivation).  Reads of
    the surviving objects stay available; mutating the state would let
    new updates depend on holes, so writes raise this error until an
    operator restores the lost objects and re-opens the system.
    """


class SimulatedCrash(Exception):
    """Base for control-flow exceptions that model a process crash.

    Deliberately *not* a :class:`ReproError`: harnesses raise and catch
    these to stop execution at an adversarial instant, then call
    ``system.crash()``.  Library code must never swallow them.
    """
