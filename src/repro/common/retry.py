"""Bounded retry for transient storage faults, and the backoff shape.

Real devices fail transiently — a write returns ``EIO`` once and then
succeeds, an fsync is interrupted — and a recoverable system must not
escalate every such hiccup into a crash.  :func:`retry_transient` is the
single retry policy shared by the hardened storage paths (log force,
cache read and flush, file persist, recovery's re-apply and redo reads):
it retries :class:`TransientStorageError` up to :data:`DEFAULT_ATTEMPTS`
times, counting each retry in the shared
:class:`~repro.storage.stats.IOStats` ledger so torture runs can report
how much transient noise was absorbed.  It never sleeps: the simulated
fault layer injects failures deterministically, and sleeping would only
slow the harness.

:func:`backoff_delay` is the exponential-with-jitter schedule of the one
retry loop that does wait, the daemon client's
(:class:`~repro.serve.client.RetryPolicy`).
"""

from __future__ import annotations

import random
from typing import Callable, Optional, TypeVar

from repro.common.errors import TransientStorageError

T = TypeVar("T")

#: Attempt budget: tolerates bursts of up to five consecutive transient
#: failures at one I/O point before giving up.
DEFAULT_ATTEMPTS = 6

#: Default ceiling on one backoff delay, seconds.  Exponential growth
#: past a few doublings adds latency without adding politeness.
DEFAULT_MAX_DELAY = 1.0


def backoff_delay(
    attempt: int,
    *,
    base_delay: float,
    max_delay: float = DEFAULT_MAX_DELAY,
    jitter: float = 0.0,
    rng: Optional[random.Random] = None,
) -> float:
    """The delay before retrying after failed attempt ``attempt`` (0-based).

    ``base_delay * 2**attempt``, capped at ``max_delay``, then spread by
    ``jitter`` (a fraction in [0, 1]): the result is drawn uniformly
    from ``[(1 - jitter) * delay, delay]``, so ``jitter=0`` is
    deterministic and ``jitter=1`` is AWS-style full jitter (the
    classic "full jitter under a ceiling" shape that stops retry herds
    from synchronizing).
    """
    if not 0.0 <= jitter <= 1.0:
        raise ValueError("jitter must be in [0, 1]")
    delay = min(base_delay * (2**attempt), max_delay)
    if jitter > 0.0 and delay > 0.0:
        draw = (rng or random).random()
        delay *= 1.0 - jitter * draw
    return delay


def retry_transient(
    fn: Callable[[], T],
    *,
    stats: Optional[object] = None,
    what: str = "storage I/O",
) -> T:
    """Call ``fn``, retrying on :class:`TransientStorageError`.

    Retries up to ``DEFAULT_ATTEMPTS - 1`` times, at once.  Each retry
    bumps ``stats.fault_retries`` when a stats ledger is supplied.  The
    final failure propagates unchanged so the caller (or a torture
    harness) sees the exhausted-retries condition.  ``what`` names the
    I/O for a reader of the call site.
    """
    for attempt in range(DEFAULT_ATTEMPTS):
        try:
            return fn()
        except TransientStorageError:
            if attempt == DEFAULT_ATTEMPTS - 1:
                raise
            if stats is not None:
                stats.fault_retries += 1
    raise AssertionError("unreachable")  # pragma: no cover
