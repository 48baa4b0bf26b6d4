"""Application recovery (Section 1 "Application Recovery", and [7]).

An application is a deterministic state machine whose state is one
recoverable object.  Between interactions with the recoverable world it
advances via ``Ex(A)`` (physiological: reads and writes only A); it
ingests data via ``R(A, X)`` (logical: reads A and X, writes A) and
emits data via a write operation, which is where the paper's modes
differ:

* ``AppLoggingMode.LOGICAL`` — this paper: ``W_L(A, X)`` is logical
  (reads A, writes X); nothing but identifiers is logged.  This enables
  the cyclic flush dependencies the refined write graph exists to
  manage.
* ``AppLoggingMode.ICDE98`` — the scheme of [7]: reads are logical but
  writes are physical ``W_P(X, v)`` with the emitted value in the log
  record, precisely to preclude write-graph cycles.
* ``AppLoggingMode.PHYSIOLOGICAL`` — the classic baseline: reads are
  physiological on A with the ingested value logged as a parameter
  (Figure 1(b)'s ``log(X)``), writes are physical.

Application state is a 4-tuple ``(step, accum, inbuf, outbuf)``:
``step`` counts executions, ``accum`` is a running digest of everything
ingested, ``inbuf``/``outbuf`` are the input and output buffers.  The
per-application *program* (a named deterministic bytes transform from
``APP_PROGRAMS``) computes ``outbuf`` from ``inbuf`` at each ``Ex``.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.common.identifiers import ObjectId
from repro.core.functions import FunctionRegistry
from repro.core.operation import Operation, OpKind
from repro.kernel.system import RecoverableSystem

#: Application state: (step count, digest of ingested data, input
#: buffer, output buffer).  None buffers mean "empty".
AppState = Tuple[int, bytes, Optional[bytes], Optional[bytes]]

INITIAL_STATE: AppState = (0, b"", None, None)


def _digest(accum: bytes, data: bytes) -> bytes:
    # Imported where it hashes, so a daemon that never does skips OpenSSL.
    import hashlib

    return hashlib.sha256(accum + data).digest()[:16]


def _prog_upper(data: bytes) -> bytes:
    return data.upper()


def _prog_reverse(data: bytes) -> bytes:
    return bytes(reversed(data))


def _prog_sort(data: bytes) -> bytes:
    return bytes(sorted(data))


def _prog_checksum(data: bytes) -> bytes:
    import hashlib

    return hashlib.sha256(data).hexdigest().encode("ascii")


#: Named deterministic programs an application can run.
APP_PROGRAMS = {
    "upper": _prog_upper,
    "reverse": _prog_reverse,
    "sort": _prog_sort,
    "checksum": _prog_checksum,
}


class AppLoggingMode(enum.Enum):
    """How application interactions are logged (the E2a comparison)."""

    LOGICAL = "logical"
    ICDE98 = "icde98"
    PHYSIOLOGICAL = "physiological"


# ----------------------------------------------------------------------
# registered transforms
# ----------------------------------------------------------------------
def _app_read(
    reads: Mapping[ObjectId, Any], app: ObjectId, src: ObjectId
) -> Dict[ObjectId, Any]:
    """R(A, X): ingest X's current value into A's input buffer."""
    state: AppState = reads[app] or INITIAL_STATE
    data = reads[src]
    if data is None:
        raise ValueError(f"application read of absent object {src!r}")
    step, accum, _inbuf, outbuf = state
    return {app: (step, accum, bytes(data), outbuf)}


def _app_read_logged(
    reads: Mapping[ObjectId, Any], app: ObjectId, data: bytes
) -> Dict[ObjectId, Any]:
    """Physiological read: the ingested value comes from the log record."""
    state: AppState = reads[app] or INITIAL_STATE
    step, accum, _inbuf, outbuf = state
    return {app: (step, accum, bytes(data), outbuf)}


def _app_exec(
    reads: Mapping[ObjectId, Any], app: ObjectId, program: str
) -> Dict[ObjectId, Any]:
    """Ex(A): consume the input buffer, fill the output buffer."""
    state: AppState = reads[app] or INITIAL_STATE
    step, accum, inbuf, _outbuf = state
    if inbuf is None:
        raise ValueError(f"Ex({app!r}) with empty input buffer")
    transform = APP_PROGRAMS[program]
    return {app: (step + 1, _digest(accum, inbuf), None, transform(inbuf))}


def _app_write(
    reads: Mapping[ObjectId, Any], app: ObjectId, dst: ObjectId
) -> Dict[ObjectId, Any]:
    """W_L(A, X): emit A's output buffer to X (A unchanged)."""
    state: AppState = reads[app] or INITIAL_STATE
    outbuf = state[3]
    if outbuf is None:
        raise ValueError(f"W_L({app!r}) with empty output buffer")
    return {dst: outbuf}


def _app_write_pl(
    reads: Mapping[ObjectId, Any], dst: ObjectId, delta: bytes
) -> Dict[ObjectId, Any]:
    """W_PL(X): physiological in-place write — X <- X + logged delta.

    Table 1's "Application Physiological Write: reads and writes X".
    Because the operation may read only X itself, the emitted data must
    travel in the log record (the delta parameter) — which is exactly
    why the paper prefers the logical W_L when objects are large.
    """
    current = reads[dst] or b""
    return {dst: bytes(current) + bytes(delta)}


def register_application_functions(registry: FunctionRegistry) -> None:
    """Register the application transforms (idempotent)."""
    for name, fn in (
        ("app_read", _app_read),
        ("app_read_logged", _app_read_logged),
        ("app_exec", _app_exec),
        ("app_write", _app_write),
        ("app_write_pl", _app_write_pl),
    ):
        if not registry.registered(name):
            registry.register(name, fn)


# ----------------------------------------------------------------------
# runtime
# ----------------------------------------------------------------------
class ApplicationRuntime:
    """Drives one application's operations on a RecoverableSystem."""

    def __init__(
        self,
        system: RecoverableSystem,
        app_id: ObjectId,
        program: str = "upper",
        mode: AppLoggingMode = AppLoggingMode.LOGICAL,
    ) -> None:
        if program not in APP_PROGRAMS:
            raise ValueError(f"unknown application program {program!r}")
        self.system = system
        self.app_id = app_id
        self.program = program
        self.mode = mode
        register_application_functions(system.registry)

    # -- state access ---------------------------------------------------
    def state(self) -> AppState:
        """The application's current recoverable state."""
        return self.system.read(self.app_id) or INITIAL_STATE

    @property
    def step(self) -> int:
        return self.state()[0]

    @property
    def accum(self) -> bytes:
        return self.state()[1]

    # -- operations -------------------------------------------------------
    def read(self, src: ObjectId) -> Operation:
        """Ingest object ``src`` into the input buffer — R(A, X)."""
        if self.mode is AppLoggingMode.PHYSIOLOGICAL:
            data = self.system.read(src)
            if data is None:
                raise ValueError(f"read of absent object {src!r}")
            op = Operation(
                f"R_P({self.app_id},{src})",
                OpKind.PHYSIOLOGICAL,
                reads={self.app_id},
                writes={self.app_id},
                fn="app_read_logged",
                params=(self.app_id, bytes(data)),
            )
        else:
            op = Operation(
                f"R({self.app_id},{src})",
                OpKind.LOGICAL,
                reads={self.app_id, src},
                writes={self.app_id},
                fn="app_read",
                params=(self.app_id, src),
            )
        self.system.execute(op)
        return op

    def execute_step(self) -> Operation:
        """Advance the application — Ex(A), always physiological."""
        op = Operation(
            f"Ex({self.app_id})",
            OpKind.PHYSIOLOGICAL,
            reads={self.app_id},
            writes={self.app_id},
            fn="app_exec",
            params=(self.app_id, self.program),
        )
        self.system.execute(op)
        return op

    def write(self, dst: ObjectId) -> Operation:
        """Emit the output buffer to ``dst``.

        Logical mode logs ``W_L(A, X)`` (identifiers only); the other
        modes log a physical ``W_P(X, v)`` carrying the value, as [7]
        required to preclude cyclic flush dependencies.
        """
        if self.mode is AppLoggingMode.LOGICAL:
            op = Operation(
                f"W_L({self.app_id},{dst})",
                OpKind.LOGICAL,
                reads={self.app_id},
                writes={dst},
                fn="app_write",
                params=(self.app_id, dst),
            )
        else:
            outbuf = self.state()[3]
            if outbuf is None:
                raise ValueError("write with empty output buffer")
            op = Operation(
                f"W_P({dst})",
                OpKind.PHYSICAL,
                reads=set(),
                writes={dst},
                payload={dst: outbuf},
            )
        self.system.execute(op)
        return op

    def write_in_place(self, dst: ObjectId) -> Operation:
        """Append the output buffer to ``dst`` in place — W_PL(X).

        Table 1's physiological application write: the operation reads
        and writes only X, so the emitted bytes are logged as a
        parameter regardless of the runtime's logging mode.  Included
        for completeness of the paper's operation vocabulary; W_L is
        the economical choice for large objects.
        """
        outbuf = self.state()[3]
        if outbuf is None:
            raise ValueError("write_in_place with empty output buffer")
        op = Operation(
            f"W_PL({dst})",
            OpKind.PHYSIOLOGICAL,
            reads={dst},
            writes={dst},
            fn="app_write_pl",
            params=(dst, outbuf),
        )
        self.system.execute(op)
        return op

    def run_pipeline(self, src: ObjectId, dst: ObjectId) -> None:
        """One full interaction: read ``src``, execute, write ``dst``."""
        self.read(src)
        self.execute_step()
        self.write(dst)
