"""REDO tests (Section 5).

During the redo pass, every operation record scanned is submitted to a
REDO test.  The test must be *safe* (only approve applicable,
installable operations — or operations whose re-execution cannot damage
exposed state) and *live* (approve every minimal uninstalled operation).

Three tests are provided, in increasing sophistication:

* :class:`RedoAll` — redo everything on the log.  Safe in a
  repeat-history system (re-execution of installed blind/physical writes
  is idempotent; logical re-execution over exposed state is guarded by
  the trial-execution voiding rules), maximally expensive.
* :class:`VsiRedoTest` — the traditional SI test: if any object of
  writeset(Op) carries vSI ≥ lSI the operation is *manifestly installed*
  (installation is atomic even when flushing is partial, so one
  up-to-date object proves installation) and is bypassed; otherwise
  redo.
* :class:`GeneralizedRedoTest` — the paper's contribution: combines the
  vSI "is installed" test with an rSI "is exposed" test.  Redo only if
  ``lSI ≥ max(rSI, vSI+1)`` for some object of the writeset; operations
  entirely below their objects' rSIs were installed without flushing
  (their results are unexposed) and are bypassed — the optimization that
  saves re-executing applications and re-writing large files.
"""

from __future__ import annotations

import abc
import enum
from typing import Callable, Optional

from repro.common.identifiers import ObjectId, StateId
from repro.core.operation import Operation
from repro.core.state_identifiers import DirtyObjectTable

#: Callback giving the vSI of an object in the recovering state (the
#: stable version, possibly already overwritten by earlier redo steps).
VsiReader = Callable[[ObjectId], StateId]


class RedoDecision(enum.Enum):
    """Outcome of a REDO test for one scanned operation."""

    REDO = "redo"
    #: Some writeset object carries vSI ≥ lSI: manifestly installed.
    SKIP_INSTALLED = "skip-installed"
    #: Every writeset object sits below its rSI (or left the dirty
    #: object table): installed without flushing, results unexposed.
    SKIP_UNEXPOSED = "skip-unexposed"


class RedoTest(abc.ABC):
    """Strategy interface for the REDO decision."""

    name: str = "abstract"

    @abc.abstractmethod
    def decide(
        self,
        op: Operation,
        vsi_of: VsiReader,
        dirty: DirtyObjectTable,
    ) -> RedoDecision:
        """Classify ``op`` against the recovering state."""


class RedoAll(RedoTest):
    """Redo every logged operation (the no-test baseline)."""

    name = "redo-all"

    def decide(
        self,
        op: Operation,
        vsi_of: VsiReader,
        dirty: DirtyObjectTable,
    ) -> RedoDecision:
        return RedoDecision.REDO


class VsiRedoTest(RedoTest):
    """The traditional SI test: vSI ≥ lSI ⇒ installed, else redo.

    Because installation is atomic even under rW's partial flushing,
    *any* writeset object with vSI ≥ lSI proves the whole operation
    installed; conversely vSI < lSI on all objects forces a redo, even
    when the operation was installed without flushing — the cost the
    generalized test eliminates.
    """

    name = "vsi"

    def decide(
        self,
        op: Operation,
        vsi_of: VsiReader,
        dirty: DirtyObjectTable,
    ) -> RedoDecision:
        for obj in op.writes:
            if vsi_of(obj) >= op.lsi:
                return RedoDecision.SKIP_INSTALLED
        return RedoDecision.REDO


class GeneralizedRedoTest(RedoTest):
    """The paper's rSI + vSI test.

    Redo iff ``lSI ≥ max(rSI, vSI + 1)`` for some object of the
    writeset; i.e. the operation is uninstalled *and* some result value
    is exposed.  Objects absent from the dirty object table are clean or
    deleted — every operation writing only such objects is installed (or
    its results can never be read) and is bypassed without touching the
    stable versions at all, which is the "transient objects" win.
    """

    name = "rsi"

    def decide(
        self,
        op: Operation,
        vsi_of: VsiReader,
        dirty: DirtyObjectTable,
    ) -> RedoDecision:
        needs_redo = False
        for obj in op.writes:
            rsi: Optional[StateId] = dirty.rsi_of(obj)
            if rsi is None or op.lsi < rsi:
                continue  # installed or unexposed for this object
            needs_redo = True
            break
        if not needs_redo:
            return RedoDecision.SKIP_UNEXPOSED
        for obj in op.writes:
            if vsi_of(obj) >= op.lsi:
                # The installation record was lost with the volatile
                # log buffer, but the flushed version proves
                # installation anyway.
                return RedoDecision.SKIP_INSTALLED
        return RedoDecision.REDO
