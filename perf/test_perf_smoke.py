"""Smoke test of the benchmark harness (collected by the tier-1 command).

Runs all four workloads, both passes, at 2% scale through the real
command line, and checks the contract ``BENCHMARK.json`` states: every
metric it names is emitted exactly once per workload, under a legal
name, within the count limits.  Unit-tests the pieces a verdict rests
on: the percentile rule, span self time, and generator determinism.

The numbers a 2% run prints are meaningless; only their presence is
checked here.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from perf import gen, loadgen
from perf.spans import SpanTable, self_times
from perf.stats import percentile, segment_rates, supported_tail
from perf.workloads import SERVE_MIXED, SERVE_PUT, WORKLOAD_NAMES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# ----------------------------------------------------------------------
# BENCHMARK.json itself
# ----------------------------------------------------------------------
def test_benchmark_file_meets_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["perf"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == WORKLOAD_NAMES
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += WORKLOAD_NAMES
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


# ----------------------------------------------------------------------
# the four workloads, end to end, at 2% scale
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_workload_emits_every_named_metric_once(workload, tmp_path):
    seconds = 0.02 * BENCHMARK["run_seconds"]
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, "-m", "perf.run", "--workload", workload,
             "--seed", "7", "--seconds", str(seconds), "--trace", str(trace),
             "--workdir", str(tmp_path), "--quick"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        record = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(record) == {"correct", "attempted", "failed", "metrics"}
        assert record["correct"] is True and record["failed"] == 0
        assert record["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {name: metric["unit"] for name, metric in record["metrics"].items()} == declared
        assert all(isinstance(metric["value"], (int, float))
                   for metric in record["metrics"].values())
        # The table above the JSON line names each metric exactly once.
        table = [line.split()[0] for line in done.stdout.splitlines()
                 if line and not line.startswith(("#", " ", "{"))]
        assert sorted(table) == sorted(declared)
    # Scratch hygiene: nothing left under the work dir, no child alive.
    assert os.listdir(tmp_path) == []


def test_run_refuses_a_directory_without_the_program(tmp_path):
    """The driver also runs the command where only BENCHMARK.json and
    ``perf/`` exist: it must fail without printing a result."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perf"), tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = subprocess.run(
        [sys.executable, "-m", "perf.run", "--workload", "serve_put",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# ----------------------------------------------------------------------
# the percentile rule
# ----------------------------------------------------------------------
def test_tail_percentile_needs_ten_samples_beyond_it():
    assert supported_tail(19) == 50.0
    assert supported_tail(100) == 90.0      # 10 beyond p90, 5 beyond p95
    assert supported_tail(200) == 95.0
    assert supported_tail(999) == 95.0      # 9.99 beyond p99: not enough
    assert supported_tail(1000) == 99.0
    assert supported_tail(10_000) == 99.9


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile([5.0], 99) == 5.0


def test_segment_rates_split_by_count_not_time():
    # 20 completions: ten in the first second, ten over the next ten.
    done = [0.1 * k for k in range(1, 11)] + [1.0 + k for k in range(1, 11)]
    rates = segment_rates(done, start=0.0, segments=2)
    assert rates == pytest.approx([10.0, 1.0])


# ----------------------------------------------------------------------
# span self time on a hand-built tree
# ----------------------------------------------------------------------
def _span(span_id, name, start, end, parent):
    return {"id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "request": 0}


def test_self_time_subtracts_what_children_cover():
    spans = [
        _span(0, "client", 0.0, 10.0, None),
        _span(1, "execute", 1.0, 6.0, 0),
        _span(2, "append", 2.0, 3.0, 1),
        _span(3, "engine", 3.5, 4.5, 1),
        _span(4, "force", 6.0, 9.0, 0),
        # Overlapping siblings (two threads) are covered once...
        _span(5, "adopt", 7.0, 8.5, 4),
        _span(6, "adopt", 8.0, 9.5, 4),   # ...and clipped to the parent.
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 3.0)
    assert own[1] == pytest.approx(5.0 - 1.0 - 1.0)
    assert own[4] == pytest.approx(3.0 - 2.0)       # 7.0..9.0 covered
    assert own[2] == pytest.approx(1.0)
    table = SpanTable(spans)
    assert table.calls["adopt"] == 2
    assert table.self_per_call("engine", 1e3) == pytest.approx(1000.0)
    assert table.self_per_op("missing-layer", 10, 1e6) == 0.0
    # Nothing is lost or counted twice below the root.
    assert own[0] + own[1] + own[2] + own[3] + own[4] + 2.0 == pytest.approx(10.0)


# ----------------------------------------------------------------------
# generator determinism
# ----------------------------------------------------------------------
def _stream_bytes(traffic, seed):
    requests = loadgen.with_ids(gen.serve_requests(traffic, seed, 400), 1)
    return b"".join(loadgen.encode_frame(request) for request in requests)


@pytest.mark.parametrize("traffic", [SERVE_PUT.traffic, SERVE_MIXED.traffic])
def test_same_seed_gives_a_byte_identical_request_stream(traffic):
    assert _stream_bytes(traffic, 3) == _stream_bytes(traffic, 3)
    assert _stream_bytes(traffic, 3) != _stream_bytes(traffic, 4)


def test_schedules_and_file_ops_are_seeded():
    assert gen.poisson_schedule(5, 400.0, 50) == gen.poisson_schedule(5, 400.0, 50)
    assert gen.poisson_schedule(5, 400.0, 50) != gen.poisson_schedule(6, 400.0, 50)
    assert gen.fs_ops(5, 200) == gen.fs_ops(5, 200)
    assert gen.fs_ops(5, 200) != gen.fs_ops(6, 200)
    assert gen.preload_requests(SERVE_MIXED.traffic, 1) == \
        gen.preload_requests(SERVE_MIXED.traffic, 1)


def test_file_model_matches_the_kernels_transforms():
    model = {}
    for op in [("write_file", "a", None, b"cba"), ("copy", "a", "b", None),
               ("sort", "a", "c", None), ("append", "b", None, b"!"),
               ("read_file", "a", None, None)]:
        gen.fs_apply(model, op)
    assert model == {"a": b"cba", "b": b"cba!", "c": b"abc"}
