"""Sharded recovery domains: stable routing + per-shard kernels.

See :mod:`repro.shard.group` for the fence protocol that lets N
per-shard WALs replace one totally-ordered log without giving up
recoverability, and :mod:`repro.shard.router` for the stable
object→shard assignment that per-shard WALs depend on across upgrades.
"""

from repro._exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".group": (
        "CrossShardError", "FenceAudit", "FenceStatus", "ShardedSystem",
    ),
    ".router": ("ShardRouter",),
})
