"""Span names for the public callables the traced pass wraps.

Layers are the repo's modules: ``serve`` (protocol, client, server),
``kernel`` (system, supervisor), ``cache``, ``core`` (engine, recovery),
``wal`` (log manager + file log), ``storage`` (file store, logstore)
and ``replica`` (sender, witness).  The program is not edited: wrappers
are set as attributes on live instances (or, for objects the program
creates itself mid-recovery, on the class) and removed afterwards.

Call ``instrument_system`` only after start-up recovery: ``recover()``
replaces ``system.cache``, and a wrapper on the old cache would record
nothing.
"""

from __future__ import annotations

from typing import Any

from perf.spans import SpanRecorder

SYSTEM = (("execute", "kernel.execute"), ("read", "kernel.read"),
          ("checkpoint", "kernel.checkpoint"))
CACHE = (("execute", "cache.execute"), ("read_object", "cache.read_object"),
         ("purge", "cache.purge"), ("checkpoint", "cache.checkpoint"))
ENGINE = (("add_operation", "core.engine.add_operation"),
          ("remove_node", "core.engine.remove_node"))
LOG = (("append", "wal.append"), ("force_through", "wal.force"),
       ("force", "wal.force"), ("truncate_before", "wal.truncate"))
STORE = (("read", "storage.read"), ("write", "storage.write"),
         ("write_many", "storage.write"), ("delete", "storage.delete"),
         ("compact", "storage.compact"))


def instrument_system(recorder: SpanRecorder, system: Any) -> None:
    """Wrap one live system's kernel, cache, engine, WAL and store."""
    for owner, table in (
        (system, SYSTEM),
        (system.cache, CACHE),
        (system.cache.engine, ENGINE),
        (system.log, LOG),
        (system.store, STORE),
    ):
        for attr, name in table:
            # Only the logstore compacts; the file store has no such verb.
            if hasattr(owner, attr):
                recorder.wrap(owner, attr, name)


def instrument_recovery(recorder: SpanRecorder) -> None:
    """Wrap the supervisor and recovery manager at class level: the
    program builds fresh instances of both inside every recovery."""
    from repro.core.recovery import RecoveryManager
    from repro.kernel.supervisor import RecoverySupervisor

    recorder.wrap(RecoverySupervisor, "run", "kernel.supervisor.run")
    recorder.wrap(RecoveryManager, "run", "core.recovery.run")
