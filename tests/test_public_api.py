"""The public surface: ``__all__`` stays resolvable and complete."""

from __future__ import annotations

import importlib
import re
import sys
import warnings
from pathlib import Path

import pytest

import repro
import repro.serve as serve
import repro.storage as storage


class TestTopLevel:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_no_duplicates(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_serving_surface_exported(self):
        # The operable-daemon surface is part of the package API.
        for name in (
            "ServeDaemon", "DaemonClient", "DaemonConfig", "RetryPolicy",
            "ServingWatchdog", "WatchdogConfig",
            "LiveFireConfig", "LiveFireHarness",
            "ServeError", "BackpressureError", "DeadlineExceededError",
            "ServerUnavailableError", "ShuttingDownError",
            "ServerFailedError", "BadRequestError",
            "SystemHealth", "DegradedModeError",
        ):
            assert name in repro.__all__, name

    def test_sharding_surface_exported(self):
        # The sharded-serving surface (PR 7) is part of the package API.
        for name in (
            "ShardRouter", "ShardedSystem", "CrossShardError", "FenceAudit",
            "ShardedDaemonConfig", "ShardedServeDaemon",
            "ShardLiveFireConfig", "ShardLiveFireHarness",
        ):
            assert name in repro.__all__, name

    def test_version_is_pep440ish(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3 and all(p.isdigit() for p in parts)

    def test_version_agrees_with_pyproject(self):
        import pathlib
        import re

        text = (
            pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
        ).read_text(encoding="utf-8")
        declared = re.search(r'(?m)^version\s*=\s*"([^"]+)"', text).group(1)
        assert declared == repro.__version__

    def test_storage_surface_exported(self):
        # The pluggable-backend surface (PR 8) is part of the package
        # API: the backends, their fault-injecting variants, and the
        # registry/factory that selects among them.
        for name in (
            "StableStore", "FileStableStore", "LogStructuredStableStore",
            "FaultyStore", "FaultyFileStore", "FaultyLogStructuredStore",
            "LogStructuredInstall", "StoreBackend", "make_store",
            "store_backends", "register_store_backend",
            "recommended_cache_config",
        ):
            assert name in repro.__all__, name

    def test_replication_surface_exported(self):
        # The primary/witness surface (PR 9): the epoch sidecar, the
        # sender/witness pair, and the torture v5 harness.
        for name in (
            "EpochStore", "FencedError", "ReplicationConfig",
            "ReplicationSender", "WitnessConfig", "WitnessDaemon",
            "ReplicaLiveFireConfig", "ReplicaLiveFireHarness",
        ):
            assert name in repro.__all__, name


class TestStorageModule:
    def test_all_names_resolve(self):
        for name in storage.__all__:
            assert getattr(storage, name, None) is not None, name

    def test_builtin_backends_registered(self):
        assert storage.store_backends() == ["file", "logstore", "memory"]


class TestDeprecatedPaths:
    """Old import paths still work, warn, and have no internal callers."""

    @pytest.mark.parametrize(
        "module, names",
        [
            ("repro.persist.file_store", ["FileStableStore"]),
            ("repro.persist.faulty", ["FaultyFileStore", "FaultyFileLog"]),
        ],
    )
    def test_shim_warns_and_reexports(self, module, names):
        saved = sys.modules.pop(module, None)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                shim = importlib.import_module(module)
            assert any(
                issubclass(w.category, DeprecationWarning) for w in caught
            ), f"{module} did not warn"
            for name in names:
                canonical = getattr(repro.persist, name)
                assert getattr(shim, name) is canonical, name
        finally:
            if saved is not None:
                sys.modules[module] = saved

    def test_no_internal_callers(self):
        # The shims exist for external code only: nothing inside the
        # package may import through them (importing one would fire a
        # DeprecationWarning at the user from our own internals).
        package_root = Path(repro.__file__).parent
        deprecated = re.compile(
            r"^\s*(from|import)\s+repro\.persist\.(faulty|file_store)\b"
        )
        shims = {
            package_root / "persist" / "faulty.py",
            package_root / "persist" / "file_store.py",
        }
        offenders = []
        for path in package_root.rglob("*.py"):
            if path in shims:
                continue
            for lineno, line in enumerate(
                path.read_text().splitlines(), start=1
            ):
                if deprecated.search(line):
                    offenders.append(f"{path}:{lineno}: {line.strip()}")
        assert not offenders, "\n".join(offenders)


class TestServeModule:
    def test_all_names_resolve(self):
        for name in serve.__all__:
            assert getattr(serve, name, None) is not None, name

    def test_errors_all_carry_codes(self):
        from repro.serve import errors
        from repro.serve.protocol import ERROR_CODES

        for name in serve.__all__:
            obj = getattr(serve, name)
            if isinstance(obj, type) and issubclass(obj, errors.ServeError):
                assert obj.code in ERROR_CODES, name
