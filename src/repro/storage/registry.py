"""The stable-storage backends: ``make_store`` and ``make_log``.

Mirrors :func:`repro.core.engine.make_engine`: backend choice is a
first-class, swappable **policy**, not a hardcoded class.  Callers name
a backend (``"memory"``, ``"file"``, ``"logstore"``) and get a fully
constructed :class:`~repro.storage.stable_store.StableStore` and the
WAL it is served with; passing a
:class:`~repro.storage.faults.FaultModel` yields the backend's
fault-injecting variants, so every torture lane can sweep backends
without knowing their classes.  The set is closed, and a backend's
classes are imported only when a factory builds one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.storage.stable_store import StableStore
from repro.storage.stats import IOStats

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.cache.config import CacheConfig
    from repro.storage.faults import FaultModel
    from repro.wal.log_manager import LogManager

#: The backends that live under a root directory.  The only other one
#: is ``memory``, the paper's simulated store.
DURABLE_BACKENDS = ("file", "logstore")


def store_backends() -> List[str]:
    """Every backend name, sorted."""
    return sorted(DURABLE_BACKENDS + ("memory",))


def check_backend(backend: str) -> str:
    """``backend`` itself when it names a backend; any other name
    raises ``ValueError`` naming the known ones."""
    if backend not in DURABLE_BACKENDS and backend != "memory":
        known = ", ".join(store_backends())
        raise ValueError(
            f"unknown store backend {backend!r} (known: {known})"
        )
    return backend


def is_durable(backend: str) -> bool:
    """True when ``backend`` needs a root directory."""
    return check_backend(backend) in DURABLE_BACKENDS


def _check_root(backend: str, root: Optional[str]) -> None:
    if is_durable(backend) and root is None:
        raise ValueError(
            f"store backend {backend!r} is durable and requires a root "
            "directory"
        )


def make_store(
    backend: str = "memory",
    root: Optional[str] = None,
    stats: Optional[IOStats] = None,
    *,
    model: Optional["FaultModel"] = None,
) -> StableStore:
    """Build the stable store for ``backend``.

    Parameters
    ----------
    backend:
        ``"memory"`` (the paper's simulated store), ``"file"`` (one
        CRC-framed file per object) or ``"logstore"`` (append-only
        segments; the log is the database).
    root:
        Database directory; required by the durable backends.
    stats:
        Shared I/O ledger (one is created when omitted).
    model:
        When given, the backend's fault-injecting variant is built so
        torture harnesses can sweep backends uniformly.
    """
    _check_root(backend, root)
    if model is not None:
        from repro.storage import faultwrap

        if backend == "memory":
            return faultwrap.FaultyStore(model, stats)
        if backend == "file":
            return faultwrap.FaultyFileStore(root, model, stats)
        return faultwrap.FaultyLogStructuredStore(root, model, stats)
    if backend == "memory":
        return StableStore(stats)
    if backend == "file":
        from repro.storage.file_store import FileStableStore

        return FileStableStore(root, stats)
    from repro.storage.logstore import LogStructuredStableStore

    return LogStructuredStableStore(root, stats)


def make_log(
    backend: str = "memory",
    root: Optional[str] = None,
    stats: Optional[IOStats] = None,
    *,
    model: Optional["FaultModel"] = None,
) -> "LogManager":
    """Build the WAL ``backend``'s store is served with: the paper's
    simulated log for ``memory``, ``root/wal.log`` for a durable one.
    The parameters are :func:`make_store`'s; a ``model`` builds the
    variant that fires ``log.force`` / ``log.scan`` points."""
    _check_root(backend, root)
    if backend == "memory":
        if model is not None:
            from repro.wal.faulty_log import FaultyLog

            return FaultyLog(model, stats)
        from repro.wal.log_manager import LogManager

        return LogManager(stats)
    if model is not None:
        from repro.persist.faulty_log import FaultyFileLog

        return FaultyFileLog(root, model, stats)
    from repro.persist.file_log import FileLogManager

    return FileLogManager(root, stats)


def recommended_cache_config(backend: str) -> "CacheConfig":
    """The :class:`~repro.cache.config.CacheConfig` that realizes a
    backend's cost profile.

    For the log-structured backend that is the ATOMIC multi-object
    strategy over :class:`~repro.storage.atomic.LogStructuredInstall`
    — batch frames make every flush set atomic for free, so identity
    writes and flush double-writes read zero.  Every in-place backend
    keeps the default (identity writes over the refined graph), which
    is the paper's recommendation for stores that rewrite in place.
    """
    # Imported lazily: cache.config imports repro.storage.atomic, so a
    # module-level import here would cycle through the package.
    from repro.cache.config import CacheConfig, MultiObjectStrategy
    from repro.storage.atomic import LogStructuredInstall

    if check_backend(backend) != "logstore":
        return CacheConfig()
    return CacheConfig(
        multi_object_strategy=MultiObjectStrategy.ATOMIC,
        mechanism=LogStructuredInstall(),
    )
