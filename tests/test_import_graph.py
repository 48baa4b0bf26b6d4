"""The import graph is the dependency graph: each package ``__init__``
is a lazy export table (:mod:`repro._exports`), so importing a module
loads what that module imports and nothing on the way to it."""

from __future__ import annotations

import os
import subprocess
import sys


def _loaded_after(statements: str) -> set:
    """The ``repro`` modules a fresh interpreter holds after
    ``statements``."""
    script = statements + (
        "\nimport sys\n"
        "print(*(name for name in sys.modules if name.startswith('repro')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_a_bare_import_loads_only_the_export_helper():
    assert _loaded_after("import repro") == {"repro", "repro._exports"}


def test_the_record_types_do_not_load_recovery():
    # The eager ``repro.core`` package once took wal/records.py into
    # core/recovery.py and back into the half-loaded wal package.
    loaded = _loaded_after("import repro.wal.records")
    assert not loaded & {"repro.core.recovery", "repro.wal.log_manager"}, (
        sorted(loaded)
    )


def test_names_and_subpackages_resolve_on_first_access():
    loaded = _loaded_after("""
import repro
assert repro.persist.PersistentSystem.__module__ == "repro.persist.database"
assert "PersistentSystem" in vars(repro.persist)  # bound, not looked up again
assert repro.Operation is repro.core.operation.Operation
assert "v3" in repro.livefire.SCENARIOS
assert not hasattr(repro, "no_such_name")
assert not hasattr(repro.serve, "LiveFireHarness")
""")
    assert "repro.domains.btree" not in loaded
