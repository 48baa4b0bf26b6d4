"""The stable-storage backend registry and ``make_store`` factory.

Mirrors :func:`repro.core.engine.make_engine`: backend choice is a
first-class, swappable **policy**, not a hardcoded class.  Callers name
a backend (``"memory"``, ``"file"``, ``"logstore"``) and get a fully
constructed :class:`~repro.storage.stable_store.StableStore`; passing a
:class:`~repro.storage.faults.FaultModel` yields the backend's
fault-injecting variant, so every torture lane can sweep backends
without knowing their classes.

The registry is open: :func:`register_store_backend` admits new
backends (a future remote store, an encrypting wrapper) which then
work everywhere a backend name is threaded —
``PersistentSystem.open(store_backend=...)``, ``python -m repro serve
--store``, and the torture CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.storage.faults import FaultModel
from repro.storage.stable_store import StableStore
from repro.storage.stats import IOStats

#: The backend used when none is named — the paper's in-memory
#: simulated store.
DEFAULT_BACKEND = "memory"


@dataclass(frozen=True)
class StoreBackend:
    """One registered storage backend.

    ``factory`` receives ``(root, stats, **kwargs)``; ``faulty_factory``
    receives ``(root, model, stats, **kwargs)`` and may be ``None`` for
    backends with no fault-injecting variant.  ``requires_root`` gates
    the ``root`` argument check in :func:`make_store` so error messages
    name the actual problem.
    """

    name: str
    description: str
    requires_root: bool
    factory: Callable[..., StableStore]
    faulty_factory: Optional[Callable[..., StableStore]] = None


_REGISTRY: Dict[str, StoreBackend] = {}

#: Convenience spellings accepted by :func:`make_store`.
_ALIASES = {
    "log": "logstore",
    "log-structured": "logstore",
}


def register_store_backend(backend: StoreBackend) -> None:
    """Admit a backend to the registry (name must be unused)."""
    if backend.name in _REGISTRY or backend.name in _ALIASES:
        raise ValueError(f"store backend {backend.name!r} already registered")
    _REGISTRY[backend.name] = backend


def store_backends() -> List[str]:
    """Registered backend names, sorted (aliases excluded)."""
    return sorted(_REGISTRY)


def resolve_backend(name: str) -> StoreBackend:
    """The :class:`StoreBackend` for ``name`` (aliases accepted)."""
    canonical = _ALIASES.get(name, name)
    try:
        return _REGISTRY[canonical]
    except KeyError:
        known = ", ".join(store_backends())
        raise ValueError(
            f"unknown store backend {name!r} (known: {known})"
        ) from None


def make_store(
    backend: str = DEFAULT_BACKEND,
    root: Optional[str] = None,
    stats: Optional[IOStats] = None,
    *,
    model: Optional[FaultModel] = None,
    **kwargs: Any,
) -> StableStore:
    """Build the stable store for ``backend``.

    Parameters
    ----------
    backend:
        A registered backend name or alias: ``"memory"`` (the paper's
        simulated store), ``"file"`` (one CRC-framed file per object),
        ``"logstore"`` / ``"log"`` / ``"log-structured"`` (append-only
        segments; the log is the database).
    root:
        Database directory; required by the durable backends.
    stats:
        Shared I/O ledger (one is created when omitted).
    model:
        When given, the backend's fault-injecting variant is built so
        torture harnesses can sweep backends uniformly.
    kwargs:
        Backend-specific knobs (e.g. the log-structured store's
        ``segment_bytes`` / ``compact_ratio``).
    """
    spec = resolve_backend(backend)
    if spec.requires_root and root is None:
        raise ValueError(
            f"store backend {spec.name!r} is durable and requires a root "
            "directory"
        )
    if model is not None:
        if spec.faulty_factory is None:
            raise ValueError(
                f"store backend {spec.name!r} has no fault-injecting "
                "variant"
            )
        return spec.faulty_factory(root, model, stats, **kwargs)
    return spec.factory(root, stats, **kwargs)


def recommended_cache_config(backend: str) -> "Any":
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

    spec = resolve_backend(backend)
    if spec.name == "logstore":
        return CacheConfig(
            multi_object_strategy=MultiObjectStrategy.ATOMIC,
            mechanism=LogStructuredInstall(),
        )
    return CacheConfig()


def _register_builtins() -> None:
    from repro.storage.faultwrap import (
        FaultyFileStore,
        FaultyLogStructuredStore,
        FaultyStore,
    )
    from repro.storage.file_store import FileStableStore
    from repro.storage.logstore import LogStructuredStableStore

    register_store_backend(
        StoreBackend(
            name="memory",
            description="in-memory simulated store (the paper's model)",
            requires_root=False,
            factory=lambda root, stats, **kw: StableStore(stats, **kw),
            faulty_factory=lambda root, model, stats, **kw: FaultyStore(
                model, stats, **kw
            ),
        )
    )
    register_store_backend(
        StoreBackend(
            name="file",
            description="one CRC-framed file per object, atomic renames",
            requires_root=True,
            factory=lambda root, stats, **kw: FileStableStore(
                root, stats, **kw
            ),
            faulty_factory=lambda root, model, stats, **kw: FaultyFileStore(
                root, model, stats, **kw
            ),
        )
    )
    register_store_backend(
        StoreBackend(
            name="logstore",
            description="append-only CRC-framed segments; the log is the "
            "database (compaction reclaims dead bytes)",
            requires_root=True,
            factory=lambda root, stats, **kw: LogStructuredStableStore(
                root, stats, **kw
            ),
            faulty_factory=(
                lambda root, model, stats, **kw: FaultyLogStructuredStore(
                    root, model, stats, **kw
                )
            ),
        )
    )


_register_builtins()
