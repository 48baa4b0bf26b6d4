"""Stable storage: the crash-surviving side of the system.

The stable store plays the role of the disk-resident database in the
paper: it survives crashes, it is updated by *flushing* cached objects,
and multi-object flushes are atomic only when performed through an
atomicity mechanism (Section 4 discusses two traditional ones — shadow
paging and flush transactions — which are implemented here as the
baselines that cache-manager identity writes are compared against).

This package is the **canonical storage surface**.  Three backends
implement the :class:`StableStore` contract, selected by name through
:func:`make_store` (the storage analogue of
:func:`repro.core.engine.make_engine`):

=============  =======================================================
``memory``     :class:`StableStore` — the paper's simulated store
``file``       :class:`FileStableStore` — one CRC-framed file per
               object, atomic renames
``logstore``   :class:`LogStructuredStableStore` — append-only
               segments; the log *is* the database, compaction
               reclaims dead bytes
=============  =======================================================

Every backend has a fault-injecting variant (built by passing a
:class:`FaultModel` to :func:`make_store`); the shared choreography
lives in :mod:`repro.storage.faultwrap`.

All I/O is accounted in :class:`~repro.storage.stats.IOStats` so the
benchmark harness can regenerate the paper's cost comparisons exactly.
"""

from repro._exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".stats": ("IOStats",),
    ".stable_store": ("StableStore", "StoredVersion"),
    ".atomic": (
        "AtomicFlushMechanism", "RawMultiWrite", "ShadowInstall",
        "FlushTransaction", "LogStructuredInstall",
    ),
    ".backup": ("FuzzyBackup",),
    ".faults": (
        "FaultCrash", "FaultKind", "FaultModel", "FaultSpec", "FuzzRates",
    ),
    ".file_store": ("FileStableStore",),
    ".logstore": ("LogStructuredStableStore",),
    ".faultwrap": (
        "FaultyFileStore", "FaultyLogStructuredStore", "FaultyStore",
    ),
    ".registry": (
        "make_log", "make_store", "recommended_cache_config",
        "store_backends",
    ),
})
