"""Recovery domains built on the core framework.

The paper's Section 1 motivates logical logging with three domains
beyond classic page-oriented databases; each is implemented here as a
thin, fully-recoverable layer over :class:`~repro.kernel.RecoverableSystem`:

* :mod:`~repro.domains.application` — application recovery: ``Ex``,
  ``R``, ``W_L``/``W_P`` operations over application state objects,
  with the three logging modes the paper compares (fully logical, the
  ICDE-98 [7] scheme with physical writes, and fully physiological).
* :mod:`~repro.domains.filesystem` — a recoverable file system where
  whole files are objects and copy/sort are logical operations.
* :mod:`~repro.domains.btree` — a B-tree whose page splits use logical
  copy operations instead of logging new-page images.
* :mod:`~repro.domains.kvstore` — a page-oriented record store using
  only physiological operations: the classic-database baseline.
"""

from repro._exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".application": ("ApplicationRuntime", "AppLoggingMode", "APP_PROGRAMS"),
    ".filesystem": ("RecoverableFileSystem", "FsLoggingMode"),
    ".btree": ("RecoverableBTree", "SplitLoggingMode"),
    ".kvstore": ("KVPageStore",),
    ".indexed_store": ("IndexedKVStore", "IndexLoggingMode"),
    ".relational": ("RelationalStore", "CtasLoggingMode"),
})
