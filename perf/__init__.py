"""The repo's performance benchmark (see ``perf/README.md``).

``python3 -m perf.run --workload NAME --seed N --seconds S --trace 0|1``
is the one entry point; ``BENCHMARK.json`` at the repo root names the
workloads and metrics it emits.  Nothing under ``src/`` imports this
package, and this package only drives the program through its public
surfaces (the ``python -m repro serve`` daemon, ``DaemonClient``,
``PersistentSystem.open``).
"""
