"""Shared primitive types used across the reproduction.

This package holds the vocabulary that every other subpackage speaks:
object identifiers, state identifiers, the size model used for log/I-O
accounting, error types, and a deterministic RNG helper.
"""

from repro._exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".errors": (
        "ReproError", "WALViolationError", "TornWriteError",
        "UnrecoverableStateError", "RecoveryError", "UnknownFunctionError",
        "CacheError", "TransientStorageError", "CorruptObjectError",
        "SimulatedCrash",
    ),
    ".identifiers": ("ObjectId", "StateId", "NULL_SI"),
    ".retry": ("retry_transient",),
    ".sizes": ("size_of", "ID_SIZE", "RECORD_HEADER_SIZE"),
})
