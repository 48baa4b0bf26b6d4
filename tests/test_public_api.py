"""The public surface: ``__all__`` stays resolvable and complete."""

from __future__ import annotations

import importlib
import re
import sys
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
            "LiveFireConfig", "LiveFireHarness", "SCENARIOS",
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
        # The primary/witness surface (PR 9): the epoch sidecar and the
        # sender/witness pair (torture v5 is a row of SCENARIOS).
        for name in (
            "EpochStore", "FencedError", "ReplicationConfig",
            "ReplicationSender", "WitnessConfig", "WitnessDaemon",
        ):
            assert name in repro.__all__, name


class TestStorageModule:
    def test_all_names_resolve(self):
        for name in storage.__all__:
            assert getattr(storage, name, None) is not None, name

    def test_builtin_backends_registered(self):
        assert storage.store_backends() == ["file", "logstore", "memory"]


# Spelled in pieces so that a repo-wide grep for the removed names
# finds only migration notes, never this audit.
REMOVED_MODULES = [
    "repro.persist." + "file_store",
    "repro.persist." + "faulty",
    "repro.serve." + "sharded",
    # 4.0.0: the three live-fire harnesses are one, repro.livefire.
    "repro.serve." + "livefire",
    "repro.serve." + "livefire_shard",
    "repro.replica." + "livefire",
]
REMOVED_NAMES = ["Sharded" + "ServeDaemon", "Sharded" + "DaemonConfig"] + [
    prefix + "LiveFire" + suffix
    for prefix in ("Shard", "Replica")
    for suffix in ("Config", "Harness", "Outcome", "Report")
] + [
    # 4.7.0: both harnesses report through TortureReport.
    "LiveFire" + "Report",
]
# 4.7.0: one run path, one point counter, one sweep, one fuzz; the
# injector raises the post-damage crash.  (module, attribute path)
REMOVED_ATTRIBUTES = [
    ("repro.kernel.torture", "TortureHarness." + name)
    for name in ("count_points", "recovery_points", "sweep_recovery",
                 "fuzz_recovery", "_one_run", "_one_recovery_run")
] + [
    ("repro.kernel.torture", "SWEEP_KINDS"),
    ("repro.kernel.torture", "RECOVERY_SWEEP_KINDS"),
    ("repro.storage.faults", "FaultModel.crash_if_demanded"),
    ("repro.storage.faultwrap", "WRITE_DAMAGE"),
    ("repro.__main__", "_report_livefire"),
    ("repro.__main__", "_report_torture"),
]


class TestRemovedPaths:
    """Removed modules and names (3.0.0, 4.0.0, 4.7.0) are gone, not
    aliased."""

    @pytest.mark.parametrize("module", REMOVED_MODULES)
    def test_module_is_gone(self, module):
        saved = sys.modules.pop(module, None)
        try:
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)
        finally:
            if saved is not None:
                sys.modules[module] = saved

    @pytest.mark.parametrize(
        "name", ["FaultyStore", "_checksum", "_damaged_value", "_MOVED"]
    )
    def test_faults_no_longer_forwards_moved_names(self, name):
        from repro.storage import faults

        assert not hasattr(faults, name), name

    @pytest.mark.parametrize("name", REMOVED_NAMES)
    def test_removed_names_are_gone(self, name):
        for package in (repro, serve, repro.replica, repro.livefire):
            assert name not in getattr(package, "__all__", ())
            assert not hasattr(package, name)

    @pytest.mark.parametrize("module, path", REMOVED_ATTRIBUTES)
    def test_removed_attributes_are_gone(self, module, path):
        *owners, name = path.split(".")
        target = importlib.import_module(module)
        for owner in owners:
            target = getattr(target, owner)
        assert not hasattr(target, name), f"{module}.{path}"

    def test_no_package_init_imports_the_harness(self):
        # The harness sits above serve and replica; neither depends on it.
        for package in (serve, repro.replica):
            assert not hasattr(package, "LiveFireHarness")

    def test_canonical_homes_still_export(self):
        assert repro.persist.FileStableStore is storage.FileStableStore
        assert repro.persist.FaultyFileStore is storage.FaultyFileStore
        assert storage.FaultyStore is not None

    def test_no_internal_references(self):
        package_root = Path(repro.__file__).parent
        gone = re.compile(
            "|".join(
                re.escape(name) + r"\b"
                for name in REMOVED_MODULES + REMOVED_NAMES
            )
        )
        offenders = []
        for path in package_root.rglob("*.py"):
            for lineno, line in enumerate(
                path.read_text().splitlines(), start=1
            ):
                if gone.search(line):
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
