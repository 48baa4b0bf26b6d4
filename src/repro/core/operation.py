"""The operation model (Table 1 of the paper).

An operation is characterized by the objects it reads (``readset``) and
the objects it writes (``writeset``), plus enough information to
re-execute it deterministically during recovery.  The paper's key
distinction is *what the log record must carry*:

* **logical** operations carry only identifiers — the function id and
  the ids of the objects read and written.  Replay reads the input
  values "from any recoverable object", which is the whole source of
  the logging economy (Figure 1a).
* **physiological** operations transform a single object, ``X ← f(X)``;
  the record carries the function id plus small parameters (e.g. the
  record being inserted into a page).
* **physical** operations carry the written values themselves —
  ``W_P(X, v)`` — which is what logical logging avoids but what the
  paper's baselines ([7]-style application writes, physiological
  simulations of multi-object operations) must do.
* **identity** writes ``W_IP(X, val(X))`` are cache-manager-initiated
  physical writes of an object's *current* value, used to break up
  atomic flush sets (Section 4).

``exp(Op) = writeset ∩ readset`` and ``notexp(Op) = writeset − readset``
are exactly the paper's exposed/not-exposed partition of the writeset,
the pivot of the refined write graph.  That characterization — without
the "enough information to re-execute" part, which the log record
carries — is the operation's :class:`OpFootprint`, and it is all the
write graph is given to hold.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.common.identifiers import NULL_SI, ObjectId, StateId
from repro.common.sizes import (
    ID_SIZE,
    RECORD_HEADER_SIZE,
    SCALAR_SIZE,
    size_of,
)
from repro.common.tombstone import TOMBSTONE


class OpKind(enum.Enum):
    """How an operation is logged, which determines its record size."""

    LOGICAL = "logical"
    PHYSIOLOGICAL = "physiological"
    PHYSICAL = "physical"
    IDENTITY = "identity"


class OpFootprint:
    """What the write graph keeps of a logged operation.

    ``W`` / ``rW`` characterize an operation by its readset, its
    writeset and its log position (Table 1, Figure 6) — never by the
    values it wrote, which live in its log record and in the cache's
    current versions.  The cache manager therefore registers this, not
    the caller's :class:`Operation`: an operation pinned in the graph
    pins two small frozensets and a name, not a payload.  Footprints
    hash and compare by identity, like operations; the verifiers pair
    one with its operation by ``lsi``.
    """

    __slots__ = ("name", "lsi", "reads", "writes")

    def __init__(
        self, name: str, lsi: StateId, reads: frozenset, writes: frozenset
    ) -> None:
        self.name = name
        self.lsi = lsi
        self.reads = reads
        self.writes = writes

    @property
    def exp(self) -> frozenset:
        """Exposed objects: ``writeset(Op) ∩ readset(Op)``."""
        return self.writes & self.reads

    @property
    def notexp(self) -> frozenset:
        """Not-exposed (blindly written) objects: ``writeset − readset``."""
        return self.writes - self.reads

    def __repr__(self) -> str:
        return f"<Footprint {self.name} lsi={self.lsi}>"


@dataclass
class Operation:
    """One logged, redoable operation.

    Attributes
    ----------
    name:
        Display name, e.g. ``"R(app,f3)"``; used in tables and debugging.
    kind:
        The :class:`OpKind`, determining the log-record size model.
    reads / writes:
        The readset and writeset as frozen sets of object ids.
    fn:
        Identifier of the deterministic transform in the
        :class:`~repro.core.functions.FunctionRegistry`.  Unused for
        PHYSICAL/IDENTITY operations, whose replay simply installs the
        payload values.
    params:
        Small scalar parameters stored in the log record (the
        physiological "delta", a sort key, a split point, ...).
    payload:
        For PHYSICAL and IDENTITY operations only: the values written,
        stored in the log record.
    op_id:
        Position in conflict order, assigned when the operation is
        submitted to a :class:`~repro.core.history.History`.
    lsi:
        The state identifier of this operation's log record, assigned by
        the log manager.  ``NULL_SI`` until logged.
    """

    name: str
    kind: OpKind
    reads: frozenset
    writes: frozenset
    fn: str = ""
    params: Tuple[Any, ...] = ()
    payload: Optional[Mapping[ObjectId, Any]] = None
    op_id: int = -1
    lsi: StateId = NULL_SI

    def __post_init__(self) -> None:
        self.reads = frozenset(self.reads)
        self.writes = frozenset(self.writes)
        if not self.writes:
            raise ValueError(f"operation {self.name!r} writes nothing")
        if self.kind in (OpKind.PHYSICAL, OpKind.IDENTITY):
            if self.payload is None:
                raise ValueError(
                    f"{self.kind.value} operation {self.name!r} needs a payload"
                )
            if set(self.payload) != set(self.writes):
                raise ValueError(
                    f"payload keys of {self.name!r} must equal its writeset"
                )
        if self.kind is OpKind.PHYSIOLOGICAL:
            if len(self.writes) != 1 or self.reads - self.writes:
                raise ValueError(
                    "physiological operations have the form X <- f(X): "
                    f"{self.name!r} reads {set(self.reads)} writes "
                    f"{set(self.writes)}"
                )

    # ------------------------------------------------------------------
    # Table 1 derived attributes
    # ------------------------------------------------------------------
    @property
    def exp(self) -> frozenset:
        """Exposed objects: ``writeset(Op) ∩ readset(Op)``."""
        return self.writes & self.reads

    @property
    def notexp(self) -> frozenset:
        """Not-exposed (blindly written) objects: ``writeset − readset``."""
        return self.writes - self.reads

    @property
    def is_blind(self) -> bool:
        """True when the operation reads nothing (a pure blind write)."""
        return not self.reads

    def footprint(self) -> OpFootprint:
        """The :class:`OpFootprint` of this operation at its current
        ``lsi`` — taken once the append has assigned it."""
        return OpFootprint(self.name, self.lsi, self.reads, self.writes)

    def conflicts_with(self, other: "Operation") -> bool:
        """True when the two operations access a common object and at
        least one of them writes it."""
        return bool(
            (self.writes & other.writes)
            or (self.writes & other.reads)
            or (self.reads & other.writes)
        )

    # ------------------------------------------------------------------
    # logging cost model (Figure 1)
    # ------------------------------------------------------------------
    def value_bytes(self) -> int:
        """Bytes of *data values* this operation's record carries.

        The payload of physical/identity records, plus any bulk (bytes,
        string, tuple, list) parameters — a physiological simulation of
        a multi-object operation logs the foreign input values as
        parameters (Figure 1(b)'s ``log(X)``), and those count as data
        values too.  Purely logical records carry none.  This is the
        quantity logical logging eliminates.
        """
        total = 0
        if self.payload is not None:
            total += sum(size_of(v) for v in self.payload.values())
        total += sum(
            size_of(p)
            for p in self.params
            if isinstance(p, (bytes, bytearray, tuple, list))
        )
        return total

    def record_size(self) -> int:
        """Modelled log-record size in bytes.

        header + one id per readset/writeset member + the function id
        + parameters (scalars at fixed width, bulk values at full size)
        + (physical/identity only) the written values.
        """
        ids = len(self.reads) + len(self.writes) + 1  # +1 for fn / op name
        param_bytes = 0
        for p in self.params:
            if isinstance(p, str):
                # String parameters are object/function identifiers.
                param_bytes += ID_SIZE
            elif isinstance(p, (bytes, bytearray, tuple, list)):
                # Bulk data values (what physical logging must carry).
                param_bytes += size_of(p)
            else:
                param_bytes += SCALAR_SIZE
        payload_bytes = 0
        if self.payload is not None:
            payload_bytes = sum(size_of(v) for v in self.payload.values())
        return RECORD_HEADER_SIZE + ids * ID_SIZE + param_bytes + payload_bytes

    def __repr__(self) -> str:
        tag = f"#{self.op_id}" if self.op_id >= 0 else ""
        return f"<Op{tag} {self.name} {self.kind.value}>"

    def __hash__(self) -> int:
        return id(self)

    def __eq__(self, other: object) -> bool:
        return self is other


def identity_write(obj: ObjectId, current_value: Any) -> Operation:
    """Build a cache-manager identity write ``W_IP(X, val(X))``.

    The operation "writes the object without changing it and is logged
    as a physical operation by writing the value of X to the log".  It
    reads nothing, so its entire writeset is not-exposed — feeding it
    through ``addop_rW`` removes ``obj`` from every other node's flush
    set, which is exactly how the cache manager breaks up atomic flush
    sets (Section 4).
    """
    return Operation(
        name=f"W_IP({obj})",
        kind=OpKind.IDENTITY,
        reads=frozenset(),
        writes=frozenset({obj}),
        payload={obj: current_value},
    )


#: The readset of every blind write built here or decoded from a
#: compact record.  CPython keeps no empty-frozenset singleton, and a
#: pinned write holds its readset for as long as it is uninstalled.
_NO_READS: frozenset = frozenset()


def blind_write_name(obj: ObjectId, value: Any) -> str:
    """The canonical name of a blind physical write of ``value`` to
    ``obj``: ``delete(obj)`` for ``TOMBSTONE``, ``put(obj)`` otherwise.

    The WAL codec stores an operation with this name in its compact
    layout and rebuilds the name instead of storing it.
    """
    return f"delete({obj})" if value is TOMBSTONE else f"put({obj})"


def put_object(obj: ObjectId, value: Any) -> Operation:
    """Build a put: a blind physical write of ``value`` to ``obj`` under
    its :func:`blind_write_name` (a put of ``TOMBSTONE`` is a delete)."""
    return Operation(
        name=blind_write_name(obj, value),
        kind=OpKind.PHYSICAL,
        reads=_NO_READS,
        writes=frozenset({obj}),
        payload={obj: value},
    )


def delete_object(obj: ObjectId) -> Operation:
    """Build a delete operation: a blind physical write of TOMBSTONE."""
    return put_object(obj, TOMBSTONE)


def execute_transform(
    op: Operation,
    read_values: Mapping[ObjectId, Any],
    registry: "FunctionRegistry",
) -> Dict[ObjectId, Any]:
    """Compute the values ``op`` writes, given its input values.

    For physical/identity operations the result is the logged payload;
    for logical/physiological operations the registered function is
    applied to the read values, a deleted input read as ``None`` (the
    value execution's read gives it, so a redo and the oracle compute
    what execution did).  The returned mapping's keys must equal
    the declared writeset — recovery relies on this to detect operations
    whose trial execution "attempts to update more than the original
    writeset" (Section 5 voiding rule b).
    """
    if op.kind in (OpKind.PHYSICAL, OpKind.IDENTITY):
        assert op.payload is not None
        return dict(op.payload)
    fn = registry.resolve(op.fn)
    produced = fn(
        {
            obj: None if value is TOMBSTONE else value
            for obj, value in read_values.items()
        },
        *op.params,
    )
    if not isinstance(produced, dict):
        raise TypeError(
            f"transform {op.fn!r} must return a dict of writes, got "
            f"{type(produced).__name__}"
        )
    return produced


# Imported at the bottom to avoid a cycle: functions.py needs nothing
# from this module at import time, but the type name is used above.
from repro.core.functions import FunctionRegistry  # noqa: E402  (cycle guard)
