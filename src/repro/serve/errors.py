"""Serve-layer errors: what a daemon client can see go wrong.

Every rejection the daemon returns over the wire carries a structured
``error`` object — a stable ``code``, a human message, and (when the
server believes the condition is temporary) a ``retry_after_ms`` hint.
The client library maps each code onto one of these exceptions so
callers can catch exactly the condition they care about:

* retryable by policy — :class:`BackpressureError` (bounded admission
  queue is full), :class:`ServerUnavailableError` with
  ``retryable=True`` (server is RECOVERING or mid-restart);
* terminal for the request — :class:`DeadlineExceededError` (the
  request's deadline budget ran out, client- or server-side),
  :class:`BadRequestError` (malformed request; retrying the same bytes
  cannot help);
* terminal for the *write* but not the connection —
  :class:`~repro.common.errors.DegradedModeError` (the system is in
  degraded read-only mode; reads of surviving objects still work);
* terminal for the server — :class:`ServerFailedError` (recovery did
  not converge; the ladder landed on FAILED and an operator must
  intervene).

All serve errors derive from :class:`ServeError`, itself a
:class:`~repro.common.errors.ReproError`, so library-wide handlers keep
working.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import ReproError


class ServeError(ReproError):
    """Base class for daemon/client serving errors.

    ``code`` is the wire-level error code (see
    :mod:`repro.serve.protocol`); ``retry_after_ms`` carries the
    server's backoff hint when one was given.
    """

    code: str = "INTERNAL"

    def __init__(
        self, message: str, retry_after_ms: Optional[int] = None
    ) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms

    @property
    def retryable(self) -> bool:
        """Whether retrying the identical request can ever succeed."""
        return False


class ProtocolError(ServeError):
    """The byte stream violated the length-prefixed JSON framing."""

    code = "PROTOCOL"


class BadRequestError(ServeError):
    """The request was structurally invalid; retrying cannot help."""

    code = "BAD_REQUEST"


class BackpressureError(ServeError):
    """The bounded admission queue is full; back off and retry."""

    code = "BACKPRESSURE"

    @property
    def retryable(self) -> bool:
        return True


class DeadlineExceededError(ServeError):
    """The request's deadline budget elapsed before completion.

    Raised client-side when the retry loop's overall deadline runs out,
    and mapped from the server's ``DEADLINE`` rejection when a queued
    request expired before the apply loop reached it.
    """

    code = "DEADLINE"


class ServerUnavailableError(ServeError):
    """The server exists but cannot take the request right now.

    RECOVERING (a mid-serve restart in flight) and mid-shutdown are the
    retryable shapes; the client honors ``retry_after_ms`` when given.
    """

    code = "UNAVAILABLE"

    @property
    def retryable(self) -> bool:
        return True


class ShuttingDownError(ServerUnavailableError):
    """The server is draining for shutdown and admits nothing new."""

    code = "SHUTTING_DOWN"

    @property
    def retryable(self) -> bool:
        # A drain ends in process exit; the *connection* is done, but a
        # supervisor-restarted daemon may serve the retry.
        return True


class FencedError(ServeError):
    """The responder's replication epoch outranks the caller's.

    A promoted witness answers a zombie primary's replication frames
    with this, and a primary that has learned it was fenced answers
    *all* writes with it — an ack from the old epoch must never be
    produced.  Retrying the same server cannot help, but a client
    configured with failover targets rotates to the next target on this
    code (the new epoch's server is elsewhere), so the client treats it
    as retryable when, and only when, it has somewhere else to go.
    """

    code = "FENCED"


class ServerFailedError(ServeError):
    """Recovery did not converge: the system is FAILED until an
    operator intervenes.  Never retried automatically."""

    code = "FAILED"
