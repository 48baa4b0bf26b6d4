"""The cross-shard rendezvous: one ``apply`` over several shards.

:meth:`Rendezvous.enqueue` puts one token per participant in its
queue, under one lock, so tokens of different jobs keep one relative
order in every queue — no two jobs can deadlock waiting for each
other's participants (DESIGN.md §4b).  The lowest-numbered participant
coordinates; the others park their apply thread and lend it their
kernel's turn.  Once all have arrived the
:meth:`~repro.shard.ShardedSystem.execute_cross` fence protocol runs,
forcing every participant's WAL inline, and the coordinator answers.
A job is answered once, whoever refuses it (:meth:`_CrossJob.cancel`).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.obs.tracing import record_stage, stage
from repro.serve import protocol
from repro.serve.worker import (
    _Shard, _stage_ctx, _Work, count_acked, enqueue
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.server import ServeDaemon


class _CrossJob:
    """One cross-shard request's rendezvous state."""

    def __init__(self, participants: Tuple[int, ...]) -> None:
        self.participants = participants
        self.coordinator = participants[0]
        self._lock = threading.Lock()
        self._arrived: set = set()
        self.all_arrived = threading.Event()
        #: Set exactly once, after the coordinator answered (or the job
        #: was cancelled); parked participants resume on it.
        self.done = threading.Event()
        self.cancelled = False

    def arrive(self, shard: int) -> None:
        with self._lock:
            self._arrived.add(shard)
            if self._arrived >= set(self.participants):
                self.all_arrived.set()

    def cancel(self) -> bool:
        """Call the job off and release every parked participant.

        Tokens still queued become no-ops.  True for exactly one
        caller: the one that owes the client the refusal.
        """
        with self._lock:
            first = not self.cancelled
            self.cancelled = True
        self.done.set()
        return first


class Rendezvous:
    """A daemon's cross-shard coordinator."""

    def __init__(self, daemon: "ServeDaemon") -> None:
        self.daemon = daemon
        #: Serializes cross-job enqueues: tokens of different cross jobs
        #: appear in the same relative order in every participant queue,
        #: which is the no-deadlock argument for the rendezvous.
        self._cross_lock = threading.Lock()

    def enqueue(self, work: _Work, involved: List[_Shard]) -> Optional[_Shard]:
        """Queue ``work``'s token on every participant; the full one, if
        any (a full participant queue cancels the whole job, and tokens
        already enqueued become no-ops)."""
        daemon = self.daemon
        work.cross = _CrossJob(tuple(s.index for s in involved))
        with self._cross_lock:
            full = enqueue(work, involved)
        if full is None:
            daemon.obs.count("serve.cross_shard_requests")
        return full

    def participate(self, shard: _Shard, work: _Work) -> None:
        """Shard ``shard``'s turn at ``work``'s token: park, or — as
        the coordinator — wait for every participant, then run it."""
        daemon = self.daemon
        job = work.cross
        job.arrive(shard.index)
        if shard.index != job.coordinator:
            # Park: the coordinator borrows this shard's kernel turn.
            # done is set in the coordinator's finally (or at cancel),
            # so the park cannot outlive the job; stop breaks the park
            # when this worker is being killed.
            while not job.done.wait(0.05):
                if shard.stop.is_set():
                    return
            return
        start = time.monotonic()
        try:
            while not job.all_arrived.wait(0.05):
                if shard.stop.is_set() or job.cancelled:
                    return
                if time.monotonic() > work.deadline:
                    if job.cancel():
                        daemon._refuse(
                            work.conn, work.request, "UNAVAILABLE",
                            "cross-shard rendezvous timed out on "
                            f"shards {list(job.participants)} (a "
                            "participant is down or jammed)",
                            retry_after_ms=daemon.config.retry_after_ms,
                            counter="cross_rendezvous",
                        )
                    return
            # All participants parked: this thread owns every kernel.
            # Rendezvous latency (time for every participant queue to
            # reach this job) is the sharding tax on the write.
            record_stage(
                daemon.obs, "ack.rendezvous_ms", time.monotonic() - start,
                _stage_ctx(work.trace), shards=len(job.participants),
            )
            involved = tuple(daemon._shards[k] for k in job.participants)
            shard._answer(work, involved, lambda: self._execute(work, start))
        finally:
            job.done.set()

    def _execute(self, work: _Work, start: float) -> Dict[str, Any]:
        """The fence protocol under the rendezvous, then the ack."""
        daemon = self.daemon
        obs = daemon.obs
        job = work.cross
        op = daemon._apply_operation(work.request)
        with stage(
            obs, "ack.apply_ms", _stage_ctx(work.trace),
            cross=True, shards=len(job.participants),
        ):
            # execute_cross forces every participant's fence itself.
            writes = daemon.sharded.execute_cross(op, set(job.participants))
        count_acked(obs, (daemon._shards[k] for k in job.participants))
        obs.count("serve.cross_shard_acked")
        obs.observe("serve.cross_shard_seconds", time.monotonic() - start)
        return protocol.ok_response(
            work.request.get("id"),
            daemon.aggregate_health().value,
            shards=list(job.participants),
            cross=True,
            writes=protocol.encode_writes(writes),
        )
