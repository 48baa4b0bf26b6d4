"""Torture campaigns swept across storage backends.

The heavyweight per-backend sweeps run in CI (``python -m repro torture
v2 --store ...``); these bounded campaigns pin the harness mechanics:
every registered durable backend must survive forward-phase fuzz and
recovery-phase fuzz through the same ``make_store`` threading the CLI
uses, with the backend's recommended cache configuration."""

from __future__ import annotations

import pytest

from repro.kernel.torture import RECOVERY, TortureConfig, TortureHarness
from repro.storage.faults import FuzzRates
from repro.storage.registry import recommended_cache_config

BACKENDS = ["memory", "file", "logstore"]


def _config(backend: str) -> TortureConfig:
    return TortureConfig(
        objects=3,
        operations=10,
        store_backend=backend,
        cache_factory=lambda: recommended_cache_config(backend),
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_forward_fuzz_survives(backend):
    harness = TortureHarness(_config(backend))
    report = harness.fuzz(
        runs=6, seed=0, rates=FuzzRates(transient=0.05, torn=0.03, corrupt=0.03)
    )
    assert report.ok, report.summary() + "".join(
        f"\n  {o.description}: {o.error}" for o in report.failures()
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_recovery_fuzz_converges(backend):
    harness = TortureHarness(_config(backend))
    report = harness.fuzz(
        runs=4,
        seed=0,
        rates=FuzzRates(torn=0.02, corrupt=0.02, crash=0.03),
        phase=RECOVERY,
    )
    assert report.ok, report.summary() + "".join(
        f"\n  {o.description}: {o.error}" for o in report.failures()
    )


@pytest.mark.parametrize("backend", ["file", "logstore"])
def test_durable_backends_have_faultable_device_points(backend):
    """The durable backends must expose *more* numbered I/O than the
    in-memory model (their device writes fire too) — otherwise the
    per-backend sweep silently degenerates to the memory campaign."""
    harness = TortureHarness(_config(backend))
    assert harness.points() >= TortureHarness(_config("memory")).points()


def test_scratch_directories_are_reclaimed(tmp_path, monkeypatch):
    import tempfile

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    harness = TortureHarness(_config("logstore"))
    harness.fuzz(runs=2, seed=0)
    assert list(tmp_path.iterdir()) == []
