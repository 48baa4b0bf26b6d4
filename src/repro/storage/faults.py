"""Faulty-storage simulation: seeded fault schedules over numbered I/O.

Real storage misbehaves in richer ways than a clean crash — a write
fails once and then succeeds, tears inside one object, bit-rots
silently, an fsync fails or (worse) lies — and recovery has to stay
correct in exactly that regime.  This module is the adversary:

* every device touchpoint (object read/write/delete, log force and
  scan) is a **numbered I/O point**: each faulty device — three stores,
  two WALs — calls :meth:`FaultModel.fire` there through the one
  injector of :mod:`repro.storage.faultwrap`;
* a :class:`FaultModel` decides, from an explicit schedule (sweep mode)
  or a seeded per-point draw (fuzz mode), whether that point faults and
  how;
* points are numbered within a **phase family**: the workload's own I/O
  is ``"forward"``, the I/O recovery performs is ``"recovery"``, one
  flush's I/O is ``"flush"``, a crashed store's objects, one point
  each, are ``"rot"``, and a witness redo cycle's installs are
  ``"witness"`` (:meth:`FaultModel.enter_phase`), so a schedule
  can target "the k-th I/O *of recovery itself*" however the forward
  run died.  Recovery numbering is continuous across restarted
  attempts: a spec at recovery point *k* fires in whichever attempt
  reaches it, exactly once.

Fault vocabulary (the classic storage-fault taxonomy):

=============  =====================================================
TRANSIENT      the I/O raises :class:`TransientStorageError`; a retry
               (bounded, see :mod:`repro.common.retry`) succeeds.
TORN           a write lands partially — the stored bytes are a
               damaged variant of the intended value.
CORRUPT        silent bit rot: an already-stored version is damaged
               after the fact, checksum left stale.
FSYNC_LIE      the force reports success but the records are not
               durable — a subsequent crash loses them.
CRASH          the machine dies at the I/O point, cleanly: no damage
               lands, :class:`FaultCrash` is raised.  The kind that
               lets a schedule say "crash recovery at its 3rd read".
=============  =====================================================

Determinism is the point: a schedule is fully described by either its
spec list or its ``(seed, rates)`` pair, so every failing torture run is
reproducible from one integer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.common.errors import SimulatedCrash, TransientStorageError
from repro.common.rng import make_rng
from repro.storage.stats import IOStats


class FaultCrash(SimulatedCrash):
    """Raised when a fault spec demands a crash at its I/O point."""


class FaultKind(enum.Enum):
    """The storage misbehaviours the model can inject."""

    TRANSIENT = "io-error"
    TORN = "torn"
    CORRUPT = "corrupt"
    FSYNC_LIE = "fsync-lie"
    CRASH = "crash"


#: Kinds meaningful at every I/O point (the rest only where ``can``).
_EVERYWHERE_KINDS = frozenset({FaultKind.TRANSIENT, FaultKind.CRASH})
#: Kinds that damage what lands (and may crash right after).
_DAMAGE_KINDS = frozenset({FaultKind.TORN, FaultKind.CORRUPT})


#: The phase family a spec (or a model) numbers its points in.
FORWARD_PHASE = "forward"
RECOVERY_PHASE = "recovery"
FLUSH_PHASE = "flush"
ROT_PHASE = "rot"
WITNESS_PHASE = "witness"
#: Schedule notation's point prefix per phase family (forward: none).
_PREFIXES = {RECOVERY_PHASE: "r", FLUSH_PHASE: "f", ROT_PHASE: "o",
             WITNESS_PHASE: "w"}


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: what happens at which numbered I/O point."""

    point: int
    kind: FaultKind
    #: For transient kinds: how many consecutive attempts fail before
    #: the I/O succeeds.  Retry budgets above this recover transparently.
    times: int = 1
    #: Raise :class:`FaultCrash` right after the damage lands — the most
    #: adversarial moment to lose the machine.
    crash: bool = False
    #: Which point family the spec's ``point`` counts in: ``"forward"``
    #: (the workload's own I/O, the default), ``"recovery"`` (the I/O
    #: performed by recovery itself), ``"flush"``, ``"rot"``, ``"witness"``.
    phase: str = FORWARD_PHASE

    def describe(self) -> str:
        """Compact schedule notation, e.g. ``torn@17!`` (``!`` = crash);
        other families prefix the point: ``crash@r3`` (recovery),
        ``crash@f1`` (flush), ``corrupt@o2`` (rot), ``crash@w3``."""
        tail = f"x{self.times}" if self.times != 1 else ""
        bang = "!" if self.crash else ""
        prefix = _PREFIXES.get(self.phase, "")
        return f"{self.kind.value}@{prefix}{self.point}{tail}{bang}"


#: Fuzz mode: probability that a damaging (torn/corrupt) fault also
#: crashes.
CRASH_GIVEN_FAULT = 0.5
#: Fuzz mode: max consecutive failures for one transient fault (kept
#: under the retry budget, ``repro.common.retry.DEFAULT_ATTEMPTS``, so
#: transients recover transparently).
MAX_TIMES = 2


@dataclass
class FuzzRates:
    """Per-I/O-point fault probabilities for fuzz mode."""

    transient: float = 0.02
    torn: float = 0.01
    corrupt: float = 0.01
    fsync_lie: float = 0.0
    #: Probability of a clean process crash at the point (no damage).
    #: Zero by default so forward-only campaigns are unchanged; the
    #: recovery-resilience campaigns raise it to crash mid-recovery.
    crash: float = 0.0


class FaultModel:
    """Decides, per numbered I/O point, whether and how to fault.

    Two construction modes:

    * ``FaultModel(specs=[FaultSpec(...)])`` — explicit schedule, used
      by the sweep harness (one fault at one known point);
    * ``FaultModel.fuzz(seed, rates)`` — seeded independent draws at
      every point, used by the fuzz harness.  The same seed always
      yields the same schedule.

    A model with neither specs nor rates is a pure **counting** model:
    it numbers the I/O points of a workload without injecting anything,
    which is how the sweep harness learns the fault-point space.

    The model is consulted through :meth:`fire`; ``armed`` gates it so a
    harness can switch faults off during recovery and verification.
    """

    def __init__(
        self,
        specs: Iterable[FaultSpec] = (),
        *,
        armed: bool = True,
    ) -> None:
        self._specs: Dict[Tuple[str, int], FaultSpec] = {}
        for spec in specs:
            key = (spec.phase, spec.point)
            if key in self._specs:
                raise ValueError(
                    f"duplicate fault point {spec.point} in phase "
                    f"{spec.phase!r}"
                )
            self._specs[key] = spec
        self._rng = None
        self._rates: Optional[FuzzRates] = None
        self.armed = armed
        #: Current phase family; fire() numbers points within it.
        self.phase = FORWARD_PHASE
        #: Per-phase next point number to be consumed.
        self._next_points: Dict[str, int] = {}
        #: Remaining consecutive failures of an in-flight transient
        #: fault; retries of the same I/O do not consume new points.
        self._transient_remaining = 0
        #: Every fault actually applied, in order — the run's fault
        #: trace, used for reproducibility checks and failure reports.
        self.fired: List[FaultSpec] = []

    @property
    def next_point(self) -> int:
        """Next point number to be consumed in the *current* phase."""
        return self._next_points.get(self.phase, 0)

    def points_in(self, phase: str) -> int:
        """Points consumed so far in ``phase`` (its next point number)."""
        return self._next_points.get(phase, 0)

    def enter_phase(self, phase: str) -> None:
        """Switch the point family subsequent fires are numbered in.

        The family's counter is *not* reset: re-entering a phase resumes
        its numbering, which is what makes nested-recovery schedules
        well defined (a restarted recovery continues the recovery-phase
        numbering rather than re-firing already-consumed specs).
        """
        self.phase = phase

    @classmethod
    def fuzz(cls, seed: int, rates: Optional[FuzzRates] = None) -> "FaultModel":
        """A model drawing faults independently at every point."""
        model = cls()
        model._rng = make_rng(seed)
        model._rates = rates if rates is not None else FuzzRates()
        return model

    # ------------------------------------------------------------------
    # the consultation protocol
    # ------------------------------------------------------------------
    def fire(
        self,
        site: str,
        detail: str = "",
        *,
        can: FrozenSet[FaultKind] = frozenset(),
        stats: Optional[IOStats] = None,
    ) -> Optional[FaultSpec]:
        """Consume one I/O point; fault it per the schedule.

        ``can`` lists the damage kinds meaningful at this site (a read
        cannot tear, an in-memory force cannot bit-rot); transient kinds
        are meaningful everywhere and are raised from here as
        :class:`TransientStorageError`.  Damage kinds in ``can`` are
        returned for the caller to apply; scheduled kinds *not* in
        ``can`` are benign no-ops (the sweep grid includes them so every
        point × kind cell runs).

        Retries of a failed I/O re-enter here while a transient fault is
        still burning down its ``times`` budget; those attempts do not
        consume new point numbers, so fault-point numbering is identical
        between a counting run and any faulted run.
        """
        if not self.armed:
            return None
        if self._transient_remaining > 0:
            self._transient_remaining -= 1
            if stats is not None:
                stats.faults_injected += 1
            raise TransientStorageError(
                f"injected transient fault (retry) at {site} {detail}"
            )
        point = self._next_points.get(self.phase, 0)
        self._next_points[self.phase] = point + 1
        spec = self._decide(point)
        if spec is None or (
            spec.kind not in can and spec.kind not in _EVERYWHERE_KINDS
        ):
            return None
        self.fired.append(spec)
        if stats is not None:
            stats.faults_injected += 1
        message = f"injected {spec.describe()} at {site} {detail}"
        if spec.kind is FaultKind.CRASH:
            # A clean machine death at this I/O point: nothing lands,
            # nothing is damaged — the process is simply gone.
            raise FaultCrash(message)
        if spec.kind is FaultKind.TRANSIENT:
            self._transient_remaining = spec.times - 1
            raise TransientStorageError(message)
        return spec

    def _decide(self, point: int) -> Optional[FaultSpec]:
        if self._rates is None:
            return self._specs.get((self.phase, point))
        rates, rng = self._rates, self._rng
        roll, edge = rng.random(), 0.0
        for kind, rate in (
            (FaultKind.TRANSIENT, rates.transient),
            (FaultKind.TORN, rates.torn),
            (FaultKind.CORRUPT, rates.corrupt),
            (FaultKind.FSYNC_LIE, rates.fsync_lie),
            (FaultKind.CRASH, rates.crash),
        ):
            edge += rate
            if roll < edge:
                break
        else:
            return None
        if kind is FaultKind.TRANSIENT:
            times = rng.randint(1, MAX_TIMES)
            return FaultSpec(point, kind, times=times, phase=self.phase)
        # Damage may take the machine down with it.
        crash = (
            kind in _DAMAGE_KINDS and rng.random() < CRASH_GIVEN_FAULT
        )
        return FaultSpec(point, kind, crash=crash, phase=self.phase)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def trace(self) -> List[str]:
        """The applied faults in schedule notation."""
        return [spec.describe() for spec in self.fired]
