"""Oracle-based recoverability verification (executable Theorem 2).

After ``crash(); recover()`` the system must agree with the crash-free
oracle on the durable history: for every object, the current value (the
recovered cache over the stable store) equals the value the oracle
computes by replaying the stable history in conflict order.  Deleted
objects must read as absent.

This is the strong form of Theorem 2's "Recover(D, I) ... recovers D":
repeat-history redo reproduces the exact pre-crash (durable) state, not
merely an explainable one.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.common.identifiers import ObjectId
from repro.core.operation import TOMBSTONE
from repro.kernel.system import RecoverableSystem


class VerificationError(AssertionError):
    """Recovered state disagrees with the oracle."""


def verify_recovered(
    system: RecoverableSystem,
    initial: Optional[Dict[ObjectId, Any]] = None,
) -> Dict[ObjectId, Any]:
    """Check the recovered system against the oracle; returns the
    oracle's final state on success, raises VerificationError otherwise.
    """
    if system.history is None:
        raise RuntimeError(
            "this system released its History (a serving daemon or a "
            "PersistentSystem does, so memory does not grow with acked "
            "writes); verify_recovered needs the submitted operations — "
            "build the RecoverableSystem directly, or assert expected "
            "values"
        )
    oracle = system.oracle(initial)
    final = oracle.replay(list(system.history))
    mismatches: List[str] = []
    for obj, expected in sorted(final.items()):
        actual = system.peek(obj)
        if expected is TOMBSTONE or expected is None:
            if actual is not None:
                mismatches.append(
                    f"{obj!r}: expected deleted/absent, found {actual!r}"
                )
            continue
        if actual != expected:
            mismatches.append(
                f"{obj!r}: expected {expected!r}, found {actual!r}"
            )
    if mismatches:
        raise VerificationError(
            "recovered state disagrees with oracle:\n  "
            + "\n  ".join(mismatches)
        )
    return final
