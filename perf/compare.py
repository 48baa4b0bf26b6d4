"""Compare two sets of ``perf.run --out`` result files.

    python3 perf/compare.py A1.json A2.json ... -- B1.json B2.json ...

For every workload x end-to-end metric it prints each side's median and
quartiles, how much worse side B is than side A as a share of A's
median, and a verdict against the bound ``BENCHMARK.json`` fixes:

* ``within bound``  — B is no worse than A by more than the bound;
* ``outside bound`` — it is;
* ``unresolved``    — a side's own run-to-run spread (quartile distance
  over median) exceeds the bound, so the runs cannot carry a verdict.

The wall-clock timings of the untraced pass (``acked_per_s``,
``write_p50_ms``, ...) follow, marked ``not gated``: on this sandbox
they swing with the machine's mood, so they carry no bound — read their
quartiles, and claim a gain only by the ten-pair rule of the README.

Two sets from the same commit must come out ``within bound``
everywhere; that is the benchmark's own acceptance test, and the tool
for later before/after tables.  Exits 1 if any row is outside its bound.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

Samples = Dict[Tuple[str, str], List[float]]

#: Timings with "higher is better"; every other ungated timing is a
#: latency or a duration.
HIGHER_IS_BETTER = frozenset({"acked_per_s"})


def load_side(paths: Sequence[str]) -> Samples:
    """(workload, metric) -> one value per result file, untraced pass:
    the gated metrics and the ungated timings alike."""
    samples: Samples = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        for record in document["results"]:
            if record["trace"] != 0:
                continue
            values = {name: metric["value"]
                      for name, metric in record["metrics"].items()}
            values.update(record.get("timings", {}))
            for name, value in values.items():
                samples.setdefault((record["workload"], name), []).append(value)
    return samples


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    q1, _q2, q3 = quartiles(values)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def judge(a: Sequence[float], b: Sequence[float], better: str,
          bound: float) -> Tuple[float, str]:
    """How much worse B's median is than A's (share of A), and the verdict."""
    mid_a, mid_b = statistics.median(a), statistics.median(b)
    change = (mid_b - mid_a) / abs(mid_a) if mid_a else 0.0
    worse = change if better == "lower" else -change
    if max(spread(a), spread(b)) > bound:
        return worse, "unresolved"
    return worse, "within bound" if worse <= bound else "outside bound"


def main(argv: List[str]) -> int:
    if "--" not in argv:
        print(__doc__)
        return 2
    split = argv.index("--")
    side_a, side_b = load_side(argv[:split]), load_side(argv[split + 1:])
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        declared: List[Dict[str, Any]] = json.load(handle)["end_to_end"]
    outside = 0
    print(f"{'workload':17s} {'metric':26s} {'A q1/median/q3':>30s} "
          f"{'B q1/median/q3':>30s} {'worse':>8s} {'bound':>6s}  verdict")
    gated = {entry["name"] for entry in declared}
    for workload in sorted({key[0] for key in side_a}):
        ungated = sorted({name for (w, name) in side_a
                          if w == workload and name not in gated})
        rows = [(e["name"], e["better"], e["bound"]) for e in declared]
        rows += [(name, "higher" if name in HIGHER_IS_BETTER else "lower", None)
                 for name in ungated]
        for name, better, bound in rows:
            key = (workload, name)
            if key not in side_a or key not in side_b:
                continue
            if bound is None:
                # No bound to judge against: show the size of the move
                # and each side's own spread instead.
                worse, _ = judge(side_a[key], side_b[key], better, 1.0)
                verdict = (f"not gated (spread A {spread(side_a[key]):.2f}, "
                           f"B {spread(side_b[key]):.2f})")
            else:
                worse, verdict = judge(side_a[key], side_b[key], better, bound)
                outside += verdict == "outside bound"
            cells = ["/".join(f"{q:.4g}" for q in quartiles(side[key]))
                     for side in (side_a, side_b)]
            limit = "-" if bound is None else f"{bound:.2f}"
            print(f"{workload:17s} {name:26s} {cells[0]:>30s} {cells[1]:>30s} "
                  f"{worse:+8.1%} {limit:>6s}  {verdict}")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
