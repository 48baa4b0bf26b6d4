"""Random logical-operation workloads.

``LogicalWorkload`` emits a seeded mix of the operation *shapes* of
Table 1 over a fixed object population:

* blind physical initializations / overwrites (``W_P``);
* physiological self-updates (``X ← f(X)``, the ``Ex`` shape);
* logical combine (``Y ← f(X, Y)`` — operation A of Figure 1, the
  application-read shape);
* logical derive (``X ← g(Y)`` — operation B, the application-write /
  file-copy shape);
* deletes.

The mix probabilities are configurable, which is how experiment E4
sweeps the share of logical operations, and how the property tests
generate adversarial graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional

from repro.common.identifiers import ObjectId
from repro.common.rng import SeedLike, make_rng
from repro.core.functions import FunctionRegistry
from repro.core.operation import Operation, OpKind, delete_object

# ``hashlib`` is imported by the functions that hash: every daemon
# registers the ``wl_*`` transforms, and one that only serves puts then
# never maps OpenSSL (≈ 3.6 MiB of RSS).


def _payload_bytes(tag: int, size: int) -> bytes:
    """Deterministic pseudo-data of the given size."""
    import hashlib

    seed = hashlib.sha256(str(tag).encode()).digest()
    reps = size // len(seed) + 1
    return (seed * reps)[:size]


def _wl_combine(
    reads: Mapping[ObjectId, Any], src: ObjectId, dst: ObjectId
) -> Dict[ObjectId, Any]:
    """dst <- digest(src + dst): reads both, writes dst (op A shape)."""
    import hashlib

    left = reads[src] or b""
    right = reads[dst] or b""
    return {dst: hashlib.sha256(bytes(left) + bytes(right)).digest()}


def _wl_derive(
    reads: Mapping[ObjectId, Any], src: ObjectId, dst: ObjectId
) -> Dict[ObjectId, Any]:
    """dst <- digest(src): reads src only, writes dst (op B shape)."""
    import hashlib

    data = reads[src] or b""
    return {dst: hashlib.sha256(b"derive" + bytes(data)).digest()}


def _wl_touch(reads: Mapping[ObjectId, Any], obj: ObjectId) -> Dict[ObjectId, Any]:
    """obj <- digest(obj): the physiological self-update shape."""
    import hashlib

    data = reads[obj] or b""
    return {obj: hashlib.sha256(b"touch" + bytes(data)).digest()}


def register_workload_functions(registry: FunctionRegistry) -> None:
    """Register the workload transforms (idempotent)."""
    for name, fn in (
        ("wl_combine", _wl_combine),
        ("wl_derive", _wl_derive),
        ("wl_touch", _wl_touch),
    ):
        if not registry.registered(name):
            registry.register(name, fn)


@dataclass
class LogicalWorkloadConfig:
    """Mix and population for a random logical workload.

    The four weights need not sum to 1; they are normalized.  Deletions
    are applied on top with probability ``p_delete`` per step (replacing
    the drawn operation), re-creating the object later via a blind
    write if it is drawn again.
    """

    objects: int = 8
    operations: int = 50
    object_size: int = 256
    w_physical: float = 0.2
    w_touch: float = 0.3
    w_combine: float = 0.3
    w_derive: float = 0.2
    p_delete: float = 0.0


class LogicalWorkload:
    """Iterator of operations drawn from the configured mix."""

    def __init__(
        self,
        config: Optional[LogicalWorkloadConfig] = None,
        seed: SeedLike = 0,
    ) -> None:
        self.config = config if config is not None else LogicalWorkloadConfig()
        self.rng = make_rng(seed)
        self._initialized: set = set()
        self._counter = 0
        self._ids: List[ObjectId] = [
            f"obj:{i}" for i in range(self.config.objects)
        ]

    def object_ids(self) -> List[ObjectId]:
        return list(self._ids)

    def _pick(self) -> ObjectId:
        return self.rng.choice(self._ids)

    def _fresh_physical(self, obj: ObjectId) -> Operation:
        self._counter += 1
        data = _payload_bytes(self._counter, self.config.object_size)
        return Operation(
            f"wp({obj})#{self._counter}",
            OpKind.PHYSICAL,
            reads=set(),
            writes={obj},
            payload={obj: data},
        )

    def operations(self) -> Iterator[Operation]:
        """Yield the configured number of operations."""
        cfg = self.config
        weights = [cfg.w_physical, cfg.w_touch, cfg.w_combine, cfg.w_derive]
        kinds = ["physical", "touch", "combine", "derive"]
        emitted = 0
        while emitted < cfg.operations:
            obj = self._pick()
            if (
                cfg.p_delete > 0
                and obj in self._initialized
                and self.rng.random() < cfg.p_delete
            ):
                self._initialized.discard(obj)
                emitted += 1
                yield delete_object(obj)
                continue
            kind = self.rng.choices(kinds, weights=weights, k=1)[0]
            if obj not in self._initialized or kind == "physical":
                # First touch of an object must create it.
                self._initialized.add(obj)
                emitted += 1
                yield self._fresh_physical(obj)
                continue
            if kind == "touch":
                self._counter += 1
                emitted += 1
                yield Operation(
                    f"touch({obj})#{self._counter}",
                    OpKind.PHYSIOLOGICAL,
                    reads={obj},
                    writes={obj},
                    fn="wl_touch",
                    params=(obj,),
                )
                continue
            other = self._pick()
            if other == obj or other not in self._initialized:
                # Degenerate draw: fall back to a self-update.
                self._counter += 1
                emitted += 1
                yield Operation(
                    f"touch({obj})#{self._counter}",
                    OpKind.PHYSIOLOGICAL,
                    reads={obj},
                    writes={obj},
                    fn="wl_touch",
                    params=(obj,),
                )
                continue
            self._counter += 1
            emitted += 1
            if kind == "combine":
                yield Operation(
                    f"combine({other}->{obj})#{self._counter}",
                    OpKind.LOGICAL,
                    reads={other, obj},
                    writes={obj},
                    fn="wl_combine",
                    params=(other, obj),
                )
            else:  # derive: obj <- g(other), blind write of obj
                yield Operation(
                    f"derive({other}->{obj})#{self._counter}",
                    OpKind.LOGICAL,
                    reads={other},
                    writes={obj},
                    fn="wl_derive",
                    params=(other, obj),
                )
