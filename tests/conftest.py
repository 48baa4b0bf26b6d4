"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import dataclasses
import os
import threading

import pytest
from hypothesis import settings

# CI's second pass over tests/test_codec.py: a fixed (derandomized)
# example sequence with a raised budget, so a failing case is the same
# case on every run and its reproduction blob is in the log.
# Select with ``--hypothesis-profile=codec-ci``.
settings.register_profile(
    "codec-ci",
    max_examples=1500,
    derandomize=True,
    print_blob=True,
    deadline=None,
)

#: Release-soak knob: REPRO_SOAK=5 multiplies every property test's
#: example budget by 5.  The default keeps the suite fast.
SOAK = max(1, int(os.environ.get("REPRO_SOAK", "1")))


def examples(base: int) -> int:
    """Example budget for a property test, scaled by the soak knob."""
    return base * SOAK

from repro import (
    CacheConfig,
    GraphMode,
    MultiObjectStrategy,
    Operation,
    OpKind,
    RecoverableSystem,
    SystemConfig,
)
from repro.storage import FlushTransaction, ShadowInstall
from repro.workloads import register_workload_functions


class StalledExecute:
    """Blocks a kernel's apply thread inside ``system.execute`` until
    released (serving-daemon tests: make a shard busy on demand)."""

    def __init__(self, system) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()
        original = system.execute

        def stalled(op):
            self.entered.set()
            assert self.release.wait(timeout=10.0)
            return original(op)

        system.execute = stalled


class StalledForce:
    """Blocks a log's device write (``_write_device``, the one override
    point every backend's force goes through) until released, while
    appends keep landing behind it.  Set ``fail`` to an exception and
    the stalled force — every retry of it included — raises it instead
    of reaching the device; every other force passes through once
    released."""

    def __init__(self, log) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()
        self.fail = None
        self._stalled_lsi = None
        original = log._write_device

        def stalled(pending):
            if not self.entered.is_set():
                self._stalled_lsi = pending[0].lsi
            self.entered.set()
            assert self.release.wait(timeout=10.0)
            if self.fail is not None and pending[0].lsi == self._stalled_lsi:
                raise self.fail
            return original(pending)

        log._write_device = stalled


class SendSpy:
    """Records every frame a daemon writes to a client socket, each
    with ``log``'s stable end at that instant."""

    def __init__(self, monkeypatch, log) -> None:
        from repro.serve.server import _Connection

        self.frames = []
        original = _Connection.send

        def send(conn, message):
            self.frames.append((message, log.stable_end_lsi()))
            return original(conn, message)

        monkeypatch.setattr(_Connection, "send", send)

    def acks(self):
        """The ``(frame, stable end)`` pairs that acknowledged a write."""
        return [
            (frame, end) for frame, end in self.frames
            if frame.get("ok") and "lsi" in frame
        ]

    def error_codes(self):
        return [
            frame["error"]["code"] for frame, _end in self.frames
            if not frame.get("ok")
        ]


class EventSink(list):
    """A registry sink: each ``emit(kind, **details)`` it receives is
    appended as ``(kind, details)``."""

    def emit(self, kind, **details) -> None:
        self.append((kind, details))

    def kinds(self):
        return [kind for kind, _details in self]

    def of_kind(self, kind):
        return [details for seen, details in self if seen == kind]


def listen(system) -> EventSink:
    """Subscribe a fresh :class:`EventSink` to ``system``'s registry,
    attaching one first if the system has none."""
    if not system.obs.enabled:
        system.attach_metrics()
    sink = EventSink()
    system.obs.subscribe(sink)
    return sink


def wait_until(predicate, timeout: float = 5.0) -> bool:
    """Poll ``predicate`` until it holds or ``timeout`` passes."""
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return bool(predicate())


def concurrent_puts(port: int, keys):
    """One one-shot client and thread per key, one put each.  Returns
    ``(threads, outcomes)``; ``outcomes[key]`` becomes the acked lSI or
    the exception the put raised."""
    from repro.serve import DaemonClient, RetryPolicy

    outcomes = {}

    def put(key):
        client = DaemonClient(
            "127.0.0.1", port, policy=RetryPolicy(attempts=1)
        )
        try:
            outcomes[key] = client.put(key, key.encode())
        except Exception as exc:  # noqa: BLE001 - the outcome under test
            outcomes[key] = exc
        finally:
            client.close()

    threads = [threading.Thread(target=put, args=(key,)) for key in keys]
    for thread in threads:
        thread.start()
    return threads, outcomes


#: Concurrent clients :func:`client_rounds` drives.
CLIENTS = 8


def client_rounds(port: int, count: int, step) -> None:
    """``count`` acked requests from ``CLIENTS`` clients: client
    ``index`` issues ``step(client, rng, i)`` for ``i = index,
    index + CLIENTS, ...`` with its own seeded ``rng``.  The clients
    carry no registry, so no request is traced."""
    import random

    from repro.serve import DaemonClient, RetryPolicy

    failures = []

    def worker(index: int) -> None:
        rng = random.Random(index)
        try:
            with DaemonClient(
                "127.0.0.1", port, policy=RetryPolicy(attempts=3)
            ) as client:
                for i in range(index, count, CLIENTS):
                    step(client, rng, i)
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    threads = [
        threading.Thread(target=worker, args=(index,))
        for index in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[:3]


def start_pair(redo_every_records: int = 8):
    """A started in-memory primary + attached witness."""
    import time

    from repro.replica import ReplicationConfig, WitnessConfig, WitnessDaemon
    from repro.serve import DaemonConfig, ServeDaemon
    from repro.workloads import register_workload_functions

    primary_system = RecoverableSystem()
    register_workload_functions(primary_system.registry)
    primary = ServeDaemon(
        primary_system,
        DaemonConfig(port=0, http_port=None, retry_after_ms=5),
        replication=ReplicationConfig(ack_timeout_s=2.0, retry_after_ms=5),
    ).start()
    witness_system = RecoverableSystem()
    register_workload_functions(witness_system.registry)
    witness = WitnessDaemon(
        witness_system,
        DaemonConfig(port=0, http_port=None, retry_after_ms=5),
        witness=WitnessConfig(
            primary_port=primary.port,
            redo_every_records=redo_every_records,
            reconnect_delay_s=0.02,
        ),
    ).start()
    if wait_until(
        lambda: witness.attached and primary.replication.attached, 10.0
    ):
        return primary, witness
    witness.stop(graceful=False)
    primary.kill()
    raise AssertionError("witness never attached")


def physical(obj: str, data: bytes, name: str = "") -> Operation:
    """A blind physical write of ``data`` to ``obj``."""
    return Operation(
        name or f"wp({obj})",
        OpKind.PHYSICAL,
        reads=set(),
        writes={obj},
        payload={obj: data},
    )


def logical(
    name: str, fn: str, reads: set, writes: set, params: tuple = ()
) -> Operation:
    """A logical operation shell."""
    return Operation(
        name, OpKind.LOGICAL, reads=reads, writes=writes, fn=fn, params=params
    )


def physiological(name: str, obj: str, fn: str, params: tuple) -> Operation:
    """A physiological X <- f(X) operation."""
    return Operation(
        name,
        OpKind.PHYSIOLOGICAL,
        reads={obj},
        writes={obj},
        fn=fn,
        params=params,
    )


def small_cache_torture(backend: str):
    """The bounded-cache torture row: two cached objects and a purge
    after most operations, so a damaged write is met by a cache miss
    while the workload still runs.  (The CLI's harness has an unbounded
    cache, so its reads never reach the device.)"""
    from repro.kernel.torture import TortureConfig
    from repro.storage.registry import recommended_cache_config

    return TortureConfig(
        objects=6,
        operations=40,
        p_purge=0.6,
        store_backend=backend,
        cache_factory=lambda: dataclasses.replace(
            recommended_cache_config(backend), capacity=2
        ),
    )


@pytest.fixture
def system() -> RecoverableSystem:
    """A default system (rW graph, identity writes, generalized REDO)
    with the workload transforms registered."""
    sys_ = RecoverableSystem()
    register_workload_functions(sys_.registry)
    return sys_


CACHE_CONFIGS = {
    "rw-identity": lambda: CacheConfig(),
    "rw-shadow": lambda: CacheConfig(
        multi_object_strategy=MultiObjectStrategy.ATOMIC,
        mechanism=ShadowInstall(),
    ),
    "rw-flushtxn": lambda: CacheConfig(
        multi_object_strategy=MultiObjectStrategy.ATOMIC,
        mechanism=FlushTransaction(),
    ),
    "w-shadow": lambda: CacheConfig(
        graph_mode=GraphMode.W,
        multi_object_strategy=MultiObjectStrategy.ATOMIC,
        mechanism=ShadowInstall(),
    ),
}


@pytest.fixture(params=sorted(CACHE_CONFIGS))
def any_cache_system(request) -> RecoverableSystem:
    """A system parameterized over all supported cache configurations."""
    config = SystemConfig(cache=CACHE_CONFIGS[request.param]())
    sys_ = RecoverableSystem(config)
    register_workload_functions(sys_.registry)
    return sys_
