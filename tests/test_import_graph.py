"""The import graph is the dependency graph: each package ``__init__``
is a lazy export table (:mod:`repro._exports`), so importing a module
loads what that module imports and nothing on the way to it.  And every
file is written for the oldest Python the package supports."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: ``requires-python`` in pyproject.toml, as ``(major, minor)``.
OLDEST_PYTHON = tuple(
    int(part)
    for part in re.search(
        r'requires-python = ">=(\d+)\.(\d+)"',
        (ROOT / "pyproject.toml").read_text(encoding="utf-8"),
    ).groups()
)
#: ``dataclass(...)`` arguments newer than OLDEST_PYTHON (all 3.10).
NEWER_DATACLASS_ARGS = {"slots", "kw_only", "match_args"}
SOURCES = sorted(
    path
    for tree in ("src", "tests", "benchmarks")
    for path in (ROOT / tree).rglob("*.py")
)


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


def test_every_file_parses_on_the_oldest_supported_python():
    # The grammar and ``dataclass`` arguments only: newer library APIs
    # are the CI matrix's oldest leg's to find.
    offenders = []
    for path in SOURCES:
        name = str(path.relative_to(ROOT))
        try:
            tree = ast.parse(
                path.read_text(encoding="utf-8"), name,
                feature_version=OLDEST_PYTHON,
            )
        except SyntaxError as exc:
            offenders.append(f"{name}:{exc.lineno}: {exc.msg}")
            continue
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            name_of = getattr(func, "id", getattr(func, "attr", None))
            newer = NEWER_DATACLASS_ARGS & {
                kw.arg for kw in getattr(node, "keywords", ())
            }
            if name_of == "dataclass" and newer:
                offenders.append(
                    f"{name}:{node.lineno}: dataclass({sorted(newer)})"
                )
    assert not offenders, "\n".join(offenders)
