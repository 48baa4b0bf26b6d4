"""I/O and logging statistics.

The paper's Section 4 cost comparison is stated in exactly these units:
object writes, object values written to the log, log forces, and system
quiesce events.  A single :class:`IOStats` instance is shared by the
stable store, the log manager, and the cache manager of one system so
that the benchmark harness reads one coherent ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict


@dataclass
class IOStats:
    """Mutable counters for one simulated system.

    Attributes
    ----------
    object_writes:
        Object values written in place to the stable store (one per
        object per flush).
    object_reads:
        Object values read from the stable store into the cache.
    shadow_writes:
        Object values written to shadow locations (shadow paging).
    pointer_swings:
        Atomic pointer installs performed by the shadow mechanism.
    log_records:
        Records appended to the (volatile) log.
    log_bytes:
        Modelled bytes appended to the log, per the size model.
    log_value_bytes:
        The subset of ``log_bytes`` that is data *values* (the part
        logical logging avoids writing).
    log_forces:
        Times the volatile log buffer was forced to the stable log.
    quiesce_events:
        Times the system had to pause normal execution (flush
        transactions freeze the objects they copy; System R quiesced).
    flush_double_writes:
        Object values written *twice* by the flush-transaction
        mechanism — once to the log, then again in place.  A cost that
        exists only because objects are rewritten in place; the
        log-structured backend's batch frames eliminate it.
    compaction_copies:
        Live object versions copied forward by log-structured segment
        compaction (the background reclamation cost of never writing
        in place).
    atomic_flushes:
        Multi-object atomic flush operations performed.
    identity_writes:
        Cache-manager-initiated identity write operations injected.
    flushes:
        Node installations performed by the cache manager.
    checkpoints:
        Checkpoint records written (manual, automatic and online).
    redo_executed / redo_skipped / redo_voided:
        Recovery-pass outcome counters.
    log_records_scanned:
        Log records examined during the redo pass.
    faults_injected:
        Storage faults fired by an attached fault model (transient
        errors, torn writes, corruption, lying fsyncs).
    fault_retries:
        Transient faults absorbed by a hardened write path's bounded
        retry loop.
    checksum_failures:
        Stored versions whose integrity (CRC) test failed on read or
        during a pre-recovery scrub.
    quarantines:
        Corrupt stored versions quarantined (removed from service)
        before recovery replayed them from a backup image or the log.
    media_recoveries:
        Recovery runs that fell back to media-style replay because of
        quarantined versions.
    recovery_attempts:
        Recovery attempts started by the recovery supervisor (one per
        ``recover()`` call it drives, converged or not).
    recovery_restarts:
        Recovery attempts that died mid-run (a crash fault inside
        recovery's own I/O) and were restarted from scratch by the
        supervisor.
    """

    object_writes: int = 0
    object_reads: int = 0
    shadow_writes: int = 0
    pointer_swings: int = 0
    log_records: int = 0
    log_bytes: int = 0
    log_value_bytes: int = 0
    log_forces: int = 0
    quiesce_events: int = 0
    flush_double_writes: int = 0
    compaction_copies: int = 0
    atomic_flushes: int = 0
    identity_writes: int = 0
    flushes: int = 0
    checkpoints: int = 0
    redo_executed: int = 0
    redo_skipped: int = 0
    redo_voided: int = 0
    log_records_scanned: int = 0
    faults_injected: int = 0
    fault_retries: int = 0
    checksum_failures: int = 0
    quarantines: int = 0
    media_recoveries: int = 0
    recovery_attempts: int = 0
    recovery_restarts: int = 0
    extra: Dict[str, int] = field(default_factory=dict)

    def snapshot(self) -> Dict[str, int]:
        """Return the counters as a plain dict (``extra`` flattened in)."""
        out = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "extra"
        }
        out.update(self.extra)
        return out

    def diff(self, earlier: Dict[str, int]) -> Dict[str, int]:
        """Return counter deltas relative to an earlier :meth:`snapshot`."""
        now = self.snapshot()
        return {key: now.get(key, 0) - earlier.get(key, 0) for key in now}

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment an ad-hoc counter kept in ``extra``."""
        self.extra[name] = self.extra.get(name, 0) + amount

    def absorb(self, other: "IOStats") -> None:
        """Add another ledger's counts into this one.

        Used when a system adopts a store or log that already
        accumulated counters before the shared ledger existed — e.g. a
        file-backed store that quarantined corrupt frames while loading
        the directory.  Without this, those early counts would be
        silently dropped when the component's ``stats`` is replaced.
        """
        for f in fields(self):
            if f.name == "extra":
                continue
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        for key, value in other.extra.items():
            self.extra[key] = self.extra.get(key, 0) + value
