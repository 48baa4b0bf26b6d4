"""Log record types.

Beyond operation records, the paper's Section 5 relies on three further
record kinds that feed the analysis pass:

* **installation records** — "we capture these opportunities to advance
  object rSI's by logging the installation of each node n of rW.  In
  that log record, in addition to identifying the objects of vars(n) and
  their rSI's, we identify objects in Notx(n) and their rSI's";
* **flush records** — the physiological analogue: "by logging the flush
  of an object ... we are recording not only that the object is now
  clean but also that prior operations updating the object are
  installed";
* **checkpoint records** — ARIES-style: the dirty object table (object
  ids and rSIs) as of the checkpoint.

Flush-transaction value/commit records implement the Section 4 baseline
atomic-flush mechanism.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.common.codec import encode_value
from repro.common.identifiers import NULL_SI, ObjectId, StateId
from repro.common.sizes import ID_SIZE, RECORD_HEADER_SIZE, SCALAR_SIZE, size_of
from repro.core.operation import Operation


@dataclass
class LogRecord:
    """Base log record; ``lsi`` is assigned by the log manager."""

    lsi: StateId = field(default=NULL_SI, init=False)

    def record_size(self) -> int:
        """Modelled byte size of the record."""
        return RECORD_HEADER_SIZE

    def value_bytes(self) -> int:
        """Bytes of data values carried (the logical-logging saving)."""
        return 0


@dataclass
class OperationRecord(LogRecord):
    """The record describing one redoable operation."""

    op: Operation

    def record_size(self) -> int:
        return self.op.record_size()

    def value_bytes(self) -> int:
        return self.op.value_bytes()


@dataclass
class InstallationRecord(LogRecord):
    """Logged when a write-graph node is installed.

    ``flushed`` maps each object of vars(n) to its new rSI, or None when
    the object became clean (no uninstalled writer remains).
    ``unexposed`` maps each object of Notx(n) to its new rSI — always
    present, since an unexposed object by definition has a later blind
    writer still uninstalled (or was deleted, mapping to None).
    ``installed_lsis`` lists the lSIs of the operations installed, which
    lets the analysis pass account for partially-installed histories.
    """

    flushed: Dict[ObjectId, Optional[StateId]]
    unexposed: Dict[ObjectId, Optional[StateId]]
    installed_lsis: Tuple[StateId, ...] = ()

    def record_size(self) -> int:
        entries = len(self.flushed) + len(self.unexposed)
        return (
            RECORD_HEADER_SIZE
            + entries * (ID_SIZE + SCALAR_SIZE)
            + len(self.installed_lsis) * SCALAR_SIZE
        )


@dataclass
class FlushRecord(LogRecord):
    """Lazily logged after a single-object physiological flush."""

    obj: ObjectId
    vsi: StateId

    def record_size(self) -> int:
        return RECORD_HEADER_SIZE + ID_SIZE + SCALAR_SIZE


@dataclass
class CheckpointRecord(LogRecord):
    """ARIES-style checkpoint: the dirty object table snapshot.

    Carries a content checksum over its dirty-object table so the
    analysis pass can reject a checkpoint whose payload was damaged
    *after* framing (in-memory rot of a decoded record, a torn rewrite
    in place) and fall back to an earlier intact checkpoint or the log
    start.  The frame-level CRC of the file log only protects the
    bytes-on-disk prefix; this is the record-level belt to that brace.
    """

    dirty_objects: Dict[ObjectId, StateId]
    #: CRC32 of the canonicalized dirty-object table; filled in on
    #: construction.  A record whose checksum was cleared to ``None``
    #: claims nothing and is treated as intact.
    checksum: Optional[int] = None

    def __post_init__(self) -> None:
        if self.checksum is None:
            self.checksum = self._content_checksum()

    def _content_checksum(self) -> int:
        table = sorted(self.dirty_objects.items())
        return zlib.crc32(encode_value(table))

    def is_intact(self) -> bool:
        """Whether the dirty-object table still matches its checksum."""
        try:
            claimed = getattr(self, "checksum", None)
            if claimed is None:
                return True
            return self._content_checksum() == claimed
        except Exception:
            return False

    def record_size(self) -> int:
        return (
            RECORD_HEADER_SIZE
            + SCALAR_SIZE  # the checksum itself
            + len(self.dirty_objects) * (ID_SIZE + SCALAR_SIZE)
        )


@dataclass
class FenceRecord(LogRecord):
    """Cross-shard fence: a vector of per-shard local positions.

    When one operation's read/write-set spans recovery domains
    (shards), each participating shard logs its local share of the
    effects and then every participant appends the *same* fence — one
    ``fence_id``, the full participant set, and the vector of per-shard
    local lSIs the fence covers.  Recovery replays each shard's log
    independently (the analysis/redo passes skip fence records, like
    any record kind they do not know); the fence exists for the
    *audit*: after a crash, a fence found on every participant with an
    agreeing vector proves the cross-shard operation completed on all
    shards, a fence found on a strict subset proves the operation was
    never acknowledged (the ack force covers all participants), and
    two fences sharing an id with disagreeing vectors is corruption.
    """

    fence_id: str
    origin_shard: int
    participants: Tuple[int, ...]
    #: shard index → lSI (in that shard's log) of the last local record
    #: belonging to this cross-shard operation.
    vector: Dict[int, StateId]

    def record_size(self) -> int:
        return (
            RECORD_HEADER_SIZE
            + ID_SIZE  # the fence id
            + SCALAR_SIZE  # origin shard
            + len(self.participants) * SCALAR_SIZE
            + len(self.vector) * 2 * SCALAR_SIZE
        )


@dataclass
class EpochRecord(LogRecord):
    """Replication epoch marker: who may ack writes, fenced by number.

    A primary/witness pair shares one logical history but only one
    member may acknowledge writes at a time.  The *epoch* is a
    monotonically increasing integer; promotion appends and forces an
    ``EpochRecord`` with ``epoch + 1`` before the witness starts
    serving, so a partitioned "zombie" primary still running at the old
    epoch can be refused deterministically (its replication frames and
    late acks carry a smaller number).  Analysis and redo skip epoch
    records like any kind they do not know; the record exists for the
    replication layer and for post-mortem audits of who was serving
    when.  Because checkpoint truncation may drop old epoch records,
    the durable source of truth is the ``epoch.json`` sidecar
    (:class:`repro.replica.epoch.EpochStore`); the WAL record is the
    in-band, shippable copy.
    """

    epoch: int
    #: Role the writer assumed at this epoch: "primary" or "witness".
    role: str
    #: Free-form annotation (e.g. the promotion watermark).
    note: str = ""

    def record_size(self) -> int:
        return RECORD_HEADER_SIZE + 2 * SCALAR_SIZE + len(self.note)


@dataclass
class FlushTxnValuesRecord(LogRecord):
    """Object values written to the log by a flush transaction."""

    txn_id: int
    versions: Dict[ObjectId, Tuple[Any, StateId]]  # value, vSI

    def record_size(self) -> int:
        return (
            RECORD_HEADER_SIZE
            + SCALAR_SIZE
            + sum(
                ID_SIZE + SCALAR_SIZE + size_of(value)
                for value, _vsi in self.versions.values()
            )
        )

    def value_bytes(self) -> int:
        return sum(size_of(value) for value, _vsi in self.versions.values())


@dataclass
class FlushTxnCommitRecord(LogRecord):
    """Commit record making a flush transaction durable."""

    txn_id: int

    def record_size(self) -> int:
        return RECORD_HEADER_SIZE + SCALAR_SIZE
