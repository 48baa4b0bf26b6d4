"""Real on-disk persistence.

Everything else in the library simulates stable storage in memory —
ideal for experiments, useless for actually keeping data.  This package
provides the file-backed WAL and a facade that opens (and recovers) a
database directory:

* :class:`~repro.persist.file_log.FileLogManager` — an append-only
  record file; ``force`` appends and fsyncs, a torn tail (partial last
  record) is detected by length-prefix + checksum and truncated away on
  open, which matches the volatile-buffer-loss model;
* :class:`~repro.persist.database.PersistentSystem` — ``open(path)``
  wires a durable store and the file log, replays recovery, and hands
  back a fully recovered
  :class:`~repro.kernel.system.RecoverableSystem`.  The store backend
  is selected by name (``store_backend="file"`` or ``"logstore"``) via
  :func:`repro.storage.make_store`.

The durable *stores* live on the canonical storage surface,
:mod:`repro.storage` (:class:`~repro.storage.file_store.FileStableStore`,
:class:`~repro.storage.logstore.LogStructuredStableStore`); they are
re-exported here for compatibility, as are the fault-injecting variants.

Serialization is the versioned binary codec of :mod:`repro.wal.codec`
and :mod:`repro.common.codec` (layout in DESIGN.md): decoding executes
nothing and bounds every length by the bytes present, and a directory
written by another codec version is refused, not repaired.
"""

from repro._exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.storage.file_store": ("FileStableStore",),
    "repro.storage.faultwrap": ("FaultyFileStore",),
    ".file_log": ("FileLogManager",),
    ".faulty_log": ("FaultyFileLog",),
    ".database": ("PersistentSystem",),
})
