"""The benchmark's one command.

    python3 -m perf.run --workload NAME --seed N --seconds S --trace 0|1

runs one workload once: untraced (``--trace 0``) for the end-to-end
metrics or traced (``--trace 1``) for the per-layer metrics, checks the
program's outputs against the acked-write oracle, prints every metric
by name with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  It exits non-zero
when any operation failed, was refused, or read back wrong.

Without ``--workload`` it runs all four workloads, without ``--trace``
both passes; ``--out FILE`` keeps the full record (environment, device
drift, ungated numbers) that ``perf/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Move of the raw-fsync reference between a workload's start and end
#: past which its numbers are marked unsteady (reported, never retried).
DRIFT_LIMIT = 0.25


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def _use_checkout_source() -> None:
    """Measure this checkout's ``src``, never an installed copy; a
    directory without the program is an error, not an empty result."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perf.run: no program to measure under {src}")
    sys.path.insert(0, src)


def run_pass(workload: str, trace: int, seed: int, seconds: float,
             full_seconds: float, scratch: Any,
             spans_out: Optional[str] = None, quick: bool = False) -> Dict[str, Any]:
    """One workload, one pass; ``quick`` (the smoke test) sets up and
    restarts once instead of three times."""
    from perf import embedded, served, traced
    from perf.workloads import EMBEDDED_FS, SERVED

    repeats = {"setups": 1, "restarts": 1} if quick else {}
    if workload in SERVED:
        if trace:
            return traced.run(SERVED[workload], seed, seconds, scratch,
                              full_seconds, spans_out)
        return served.run(SERVED[workload], seed, seconds, scratch,
                          full_seconds, **repeats)
    if workload != EMBEDDED_FS.name:
        raise SystemExit(f"perf.run: unknown workload {workload!r}")
    files = 64 if quick else 512
    if trace:
        return embedded.run_traced(EMBEDDED_FS, seed, seconds, scratch,
                                   full_seconds, spans_out, files=files)
    return embedded.run(EMBEDDED_FS, seed, seconds, scratch, full_seconds,
                        files=files, **repeats)


def contract_record(result: Dict[str, Any], trace: int,
                    benchmark: Dict[str, Any]) -> Dict[str, Any]:
    """The result in the driver's shape, checked against BENCHMARK.json:
    every named metric of the pass exactly once, and nothing else."""
    declared = benchmark["per_layer" if trace else "end_to_end"]
    measured = dict(result["per_layer" if trace else "end_to_end"])
    metrics = {}
    for entry in declared:
        if entry["name"] not in measured:
            raise SystemExit(
                f"perf.run: {result['workload']} did not measure "
                f"{entry['name']}"
            )
        metrics[entry["name"]] = {
            "value": measured.pop(entry["name"]), "unit": entry["unit"],
        }
    if measured:
        raise SystemExit(
            f"perf.run: metrics missing from BENCHMARK.json: {sorted(measured)}"
        )
    failed = len(result["failures"])
    return {"correct": failed == 0, "attempted": result["attempted"],
            "failed": failed, "metrics": metrics}


def drift(reported: Dict[str, Any], metrics: Dict[str, Any]) -> float:
    """Relative move of the device reference across the workload."""
    def ref(which: str) -> float:
        name = f"device.fsync_ref_ms.{which}"
        return reported[name] if name in reported else metrics[name]["value"]

    start, end = ref("start"), ref("end")
    return abs(end - start) / start if start else 0.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perf.run", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the full result record as JSON")
    parser.add_argument("--workdir", default=None, metavar="DIR",
                        help="parent of the run's temp root (default perf/.work)")
    parser.add_argument("--spans", default=None, metavar="FILE",
                        help="keep the traced pass's spans as JSONL "
                             "(FILE.<workload> when running several)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test scale: one set-up, one restart, "
                             "64 files (numbers are not comparable)")
    args = parser.parse_args(argv)

    _use_checkout_source()
    from perf.procs import MEMORY_FILESYSTEMS, Scratch, environment
    from perf.workloads import WORKLOAD_NAMES

    benchmark = load_benchmark()
    full_seconds = float(benchmark["run_seconds"])
    seconds = args.seconds if args.seconds is not None else full_seconds
    workloads = [args.workload] if args.workload else WORKLOAD_NAMES
    passes = [args.trace] if args.trace is not None else [0, 1]
    records = []
    exit_code = 0
    with Scratch(args.workdir) as scratch:
        env = environment(scratch.root, args.seed)
        if env["filesystem"] in MEMORY_FILESYSTEMS:
            # Not fatal: the run is still a valid CPU-side comparison,
            # and the environment record carries the filesystem.
            print(f"perf.run: WARNING {scratch.root} is on "
                  f"{env['filesystem']}: fsync there touches no device; "
                  "pass --workdir on a real disk", file=sys.stderr)
        for workload in workloads:
            for trace in passes:
                spans = args.spans
                if spans and len(workloads) > 1:
                    spans = f"{spans}.{workload}"
                result = run_pass(workload, trace, args.seed, seconds,
                                  full_seconds, scratch, spans, args.quick)
                record = contract_record(result, trace, benchmark)
                moved = drift(result["reported"], record["metrics"])
                result["reported"]["device_drift"] = moved
                result["reported"]["unsteady"] = moved > DRIFT_LIMIT
                print(f"# {workload} trace={trace} seed={args.seed} "
                      f"seconds={seconds:g}"
                      + ("  UNSTEADY: device reference moved "
                         f"{moved:.0%}" if moved > DRIFT_LIMIT else ""))
                for name, metric in record["metrics"].items():
                    print(f"{name:50s} {metric['value']:14.6g} {metric['unit']}")
                # Ungated: wall-clock timings, then the run's own health.
                for name, value in result.get("timings", {}).items():
                    print(f"  ({name:46s} {value:14.6g})")
                for name, value in result["reported"].items():
                    if isinstance(value, (int, float)):
                        print(f"  ({name:46s} {value:14.6g})")
                for line in result["failures"][:50]:
                    print(f"FAILED {line}")
                if result["failures"]:
                    exit_code = 1
                records.append({"workload": workload, "trace": trace,
                                "timings": result.get("timings", {}),
                                "reported": result["reported"], **record})
                print(json.dumps(record))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"environment": env, "seconds": seconds,
                       "results": records}, handle, indent=1)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
