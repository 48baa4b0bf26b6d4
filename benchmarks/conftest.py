"""Shared helpers for the benchmark harness.

Every bench prints its experiment table (visible with ``-s``) and
asserts the paper's *qualitative* claim (who wins, roughly by how much)
so that regressions in the reproduction are caught even when nobody
reads the tables.  pytest-benchmark provides wall-clock timing on the
code paths that matter; the headline numbers are the counters.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

#: Where E10–E16 write what they measure.  It is gitignored, so a run
#: never rewrites a tracked file: the committed ``BENCH_e*.json`` at the
#: repo root are the reviewed baselines these fresh files are diffed
#: against (``benchmarks/diff_trajectory.py``).
RESULTS_DIR = Path(__file__).resolve().parent.parent / ".bench_results"
RESULTS_DIR.mkdir(exist_ok=True)


def record(name: str, section: str, payload, **shape) -> None:
    """Merge one section, and the run's ``shape`` keys, into the
    results file ``name``."""
    path = RESULTS_DIR / name
    try:
        data = json.loads(path.read_text())
    except (ValueError, OSError):
        data = {}
    data.update(shape)
    data[section] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def payload(tag: str, size: int) -> bytes:
    """Deterministic pseudo-random bytes of the given size."""
    seed = hashlib.sha256(tag.encode()).digest()
    return (seed * (size // len(seed) + 1))[:size]


def once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    Counter-based experiments are deterministic; a single round gives
    the timing signal without re-running side-effectful workloads.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
