"""The cache manager.

The cache manager owns the dirty volatile state: it executes operations
against cached objects, maintains the write graph over the uninstalled
operations, and installs operations by flushing write-graph nodes in
graph order (PurgeCache, Figure 4), while honouring the WAL protocol.

It is the component the paper's innovations live in: the refined write
graph lets it shrink flush sets as blind writes arrive, and
cache-manager-initiated identity writes (Section 4) let it break up
multi-object atomic flush sets without quiescing the system.
"""

from repro._exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".config": ("CacheConfig", "GraphMode", "MultiObjectStrategy"),
    ".cache_manager": ("CacheManager", "CacheEntry"),
    ".policies": (
        "LRUEviction", "VictimPolicy", "PeelFirstSorted", "PeelHottest",
    ),
})
