"""The lazy export table behind every ``repro`` package ``__init__``.

A package names each name it exports once, in a ``{module: (name,
...)}`` table, and gets back its ``__all__`` and a PEP 562
``__getattr__`` that imports the defining module on first access.  So
importing one module loads what that module imports, not every package
on the way to it, and the import graph is the dependency graph.

This module imports nothing from ``repro``: every package ``__init__``
imports it.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, table: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any]]:
    """``(__all__, __getattr__)`` for ``package``.

    ``table`` maps a module (absolute, or ``.name`` inside ``package``)
    to the names the package exports from it.  A name resolves on first
    access and is then bound in the package, so later lookups never
    reach ``__getattr__``.  Any other name is tried as a sub-module, so
    ``repro.persist`` works after a bare ``import repro``.
    """
    exported = [name for names in table.values() for name in names]
    home = {
        name: package + module if module.startswith(".") else module
        for module, names in table.items()
        for name in names
    }

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            try:
                return _load(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(_load(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return exported, __getattr__


def _load(module: str) -> Any:
    # The ``import`` statement's path, not ``importlib.import_module``:
    # ``python -X importtime`` reports only the modules loaded through it.
    __import__(module)
    return sys.modules[module]
