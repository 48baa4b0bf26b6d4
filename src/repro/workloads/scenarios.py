"""Domain-level workload drivers shared by tests and benchmarks.

These functions *drive a system* (rather than yielding operations)
because domain operations depend on runtime state — a B-tree split
happens when a page fills, an application write needs the output buffer
produced by the preceding execute.
"""

from __future__ import annotations

from repro.common.rng import SeedLike, make_rng
from repro.domains.application import AppLoggingMode, ApplicationRuntime
from repro.domains.btree import RecoverableBTree, SplitLoggingMode
from repro.domains.filesystem import FsLoggingMode, RecoverableFileSystem
from repro.domains.kvstore import KVPageStore
from repro.kernel.system import RecoverableSystem


def _data(tag: str, size: int) -> bytes:
    import hashlib

    seed = hashlib.sha256(tag.encode()).digest()
    return (seed * (size // len(seed) + 1))[:size]


def app_pipeline_workload(
    system: RecoverableSystem,
    pipelines: int = 10,
    object_size: int = 4096,
    mode: AppLoggingMode = AppLoggingMode.LOGICAL,
    program: str = "upper",
    app_id: str = "app:bench",
) -> ApplicationRuntime:
    """Run ``pipelines`` read→execute→write interactions.

    Each pipeline ingests a freshly-created input file of
    ``object_size`` bytes and emits a same-sized output file — the
    application-recovery workload of Section 1.
    """
    fs = RecoverableFileSystem(system)
    app = ApplicationRuntime(system, app_id, program=program, mode=mode)
    for index in range(pipelines):
        src, dst = f"in{index}", f"out{index}"
        fs.write_file(src, _data(f"{app_id}:{index}", object_size))
        app.run_pipeline(fs.object_id(src), fs.object_id(dst))
    return app


def fs_batch_workload(
    system: RecoverableSystem,
    files: int = 8,
    object_size: int = 4096,
    mode: FsLoggingMode = FsLoggingMode.LOGICAL,
) -> RecoverableFileSystem:
    """Create ``files`` inputs, then copy and sort each (the paper's
    file-system examples)."""
    fs = RecoverableFileSystem(system, mode=mode)
    for index in range(files):
        name = f"f{index}"
        fs.write_file(name, _data(name, object_size))
        fs.copy(name, f"{name}.copy")
        fs.sort(name, f"{name}.sorted")
    return fs


def transient_files_workload(
    system: RecoverableSystem,
    files: int = 12,
    object_size: int = 2048,
    keep_every: int = 4,
    seed: SeedLike = 0,
) -> RecoverableFileSystem:
    """Create/derive/delete temp files; only every ``keep_every``-th
    survives.  The Section 5 recovery-optimization scenario: most
    logged operations touch objects that are deleted by crash time."""
    fs = RecoverableFileSystem(system)
    for index in range(files):
        name = f"tmp{index}"
        fs.write_file(name, _data(name, object_size))
        fs.sort(name, f"{name}.out")
        if index % keep_every != 0:
            fs.delete(name)
            fs.delete(f"{name}.out")
    return fs


def btree_insert_workload(
    system: RecoverableSystem,
    inserts: int = 200,
    capacity: int = 8,
    value_size: int = 64,
    mode: SplitLoggingMode = SplitLoggingMode.LOGICAL,
    seed: SeedLike = 0,
) -> RecoverableBTree:
    """Insert ``inserts`` random keys, forcing plenty of splits."""
    rng = make_rng(seed)
    tree = RecoverableBTree(system, capacity=capacity, mode=mode)
    keys = list(range(inserts))
    rng.shuffle(keys)
    for key in keys:
        tree.insert(key, _data(f"v{key}", value_size))
    return tree


def kv_update_workload(
    system: RecoverableSystem,
    updates: int = 200,
    keys: int = 50,
    pages: int = 16,
    value_size: int = 64,
    seed: SeedLike = 0,
) -> KVPageStore:
    """Random put/remove traffic over a key population."""
    rng = make_rng(seed)
    store = KVPageStore(system, pages=pages)
    for index in range(updates):
        key = rng.randrange(keys)
        if rng.random() < 0.1:
            store.remove(key)
        else:
            store.put(key, _data(f"{key}:{index}", value_size))
    return store
