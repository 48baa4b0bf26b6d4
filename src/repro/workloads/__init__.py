"""Reproducible workload generators for tests and benchmarks.

Every generator is seeded; identical seeds produce identical operation
sequences, so experiment tables are stable run-to-run.
"""

from repro._exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".generator": (
        "LogicalWorkload", "LogicalWorkloadConfig",
        "register_workload_functions",
    ),
    ".scenarios": (
        "app_pipeline_workload", "fs_batch_workload", "btree_insert_workload",
        "kv_update_workload", "transient_files_workload",
    ),
})
