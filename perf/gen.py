"""Seeded input generators: request streams, arrival schedules, file ops.

Everything the program under test receives is made here from the
``--seed`` argument and nothing else, so the same seed gives a
byte-identical stream (``test_perf_smoke`` pins that) and a later PR is
measured on exactly the inputs its parent was.
"""

from __future__ import annotations

import base64
import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple


def _rng(seed: int, purpose: str) -> random.Random:
    # A str seed hashes with sha512 (not PYTHONHASHSEED), so it is
    # stable across processes.
    return random.Random(f"perf:{purpose}:{seed}")


@dataclass(frozen=True)
class Traffic:
    """The shape of one served workload's request mix."""

    keys: int
    value_bytes: int
    #: Zipf exponent over the key ranks; None draws keys uniformly.
    zipf: Optional[float]
    p_get: float
    p_apply: float

    def key(self, index: int) -> str:
        # Fixed width keeps every record the same size, so bytes-per-op
        # does not wander with the seed's key draw.
        return f"k{index:04d}"


class _KeyPicker:
    def __init__(self, traffic: Traffic, rng: random.Random) -> None:
        self.traffic = traffic
        self.rng = rng
        self.cumulative: Optional[List[float]] = None
        if traffic.zipf is not None:
            weights = [1.0 / (rank ** traffic.zipf)
                       for rank in range(1, traffic.keys + 1)]
            self.cumulative = list(itertools.accumulate(weights))

    def pick(self) -> str:
        if self.cumulative is None:
            index = self.rng.randrange(self.traffic.keys)
        else:
            point = self.rng.random() * self.cumulative[-1]
            index = bisect.bisect_left(self.cumulative, point)
        return self.traffic.key(index)


def _bytes_envelope(data: bytes) -> Dict[str, str]:
    # The wire envelope of repro.serve.protocol.encode_value, written
    # out here so generated streams do not depend on the program.
    return {"__bytes__": base64.b64encode(data).decode("ascii")}


def preload_requests(traffic: Traffic, seed: int) -> List[Dict[str, Any]]:
    """One put per key, so every later read finds a value."""
    rng = _rng(seed, "preload")
    return [
        {"kind": "put", "obj": traffic.key(index),
         "value": _bytes_envelope(rng.randbytes(traffic.value_bytes))}
        for index in range(traffic.keys)
    ]


def serve_requests(traffic: Traffic, seed: int, count: int) -> List[Dict[str, Any]]:
    """``count`` requests of the workload's mix, without ids."""
    rng = _rng(seed, "stream")
    picker = _KeyPicker(traffic, rng)
    requests: List[Dict[str, Any]] = []
    for _ in range(count):
        draw = rng.random()
        if draw < traffic.p_get:
            requests.append({"kind": "get", "obj": picker.pick()})
        elif draw < traffic.p_get + traffic.p_apply:
            src, dst = picker.pick(), picker.pick()
            while dst == src:
                dst = picker.pick()
            if rng.random() < 0.5:
                fn, reads = "wl_combine", sorted({src, dst})
            else:
                fn, reads = "wl_derive", [src]
            requests.append({"kind": "apply", "fn": fn, "reads": reads,
                             "writes": [dst], "params": [src, dst]})
        else:
            requests.append({
                "kind": "put", "obj": picker.pick(),
                "value": _bytes_envelope(rng.randbytes(traffic.value_bytes)),
            })
    return requests


def poisson_schedule(seed: int, rate: float, count: int) -> List[float]:
    """Due offsets (seconds from phase start) of an open-loop phase:
    independent users, so exponential gaps at ``rate`` per second."""
    rng = _rng(seed, "arrivals")
    now = 0.0
    due = []
    for _ in range(count):
        now += rng.expovariate(rate)
        due.append(now)
    return due


# ----------------------------------------------------------------------
# embedded file-system workload
# ----------------------------------------------------------------------
#: (verb, file, second file or None, data or None)
FsOp = Tuple[str, str, Optional[str], Optional[bytes]]

FS_FILES = 512
FS_FILE_BYTES = 8192
FS_APPEND_BYTES = 256


def fs_name(index: int) -> str:
    return f"f{index:03d}"


def fs_preload(seed: int, files: int = FS_FILES) -> List[FsOp]:
    rng = _rng(seed, "fs-preload")
    return [("write_file", fs_name(i), None, rng.randbytes(FS_FILE_BYTES))
            for i in range(files)]


def fs_ops(seed: int, count: int, files: int = FS_FILES) -> List[FsOp]:
    """30% read, 25% copy, 25% sort, 10% append, 10% write, uniform
    over ``files`` files (4 MiB live against a 128-object cache)."""
    rng = _rng(seed, "fs-stream")
    ops: List[FsOp] = []
    for _ in range(count):
        draw = rng.random()
        a = fs_name(rng.randrange(files))
        if draw < 0.30:
            ops.append(("read_file", a, None, None))
        elif draw < 0.80:
            b = fs_name(rng.randrange(files))
            while b == a:
                b = fs_name(rng.randrange(files))
            ops.append(("copy" if draw < 0.55 else "sort", a, b, None))
        elif draw < 0.90:
            ops.append(("append", a, None, rng.randbytes(FS_APPEND_BYTES)))
        else:
            ops.append(("write_file", a, None, rng.randbytes(FS_FILE_BYTES)))
    return ops


def fs_apply(model: Dict[str, bytes], op: FsOp) -> None:
    """The reference semantics of one file op, on a plain dict.

    This independent model is the oracle for ``embedded_fs``: after the
    SIGKILL the restarted child's files must equal it byte for byte.
    """
    verb, a, b, data = op
    if verb == "write_file":
        model[a] = data
    elif verb == "append":
        model[a] = model[a] + data
    elif verb == "copy":
        model[b] = model[a]
    elif verb == "sort":
        model[b] = bytes(sorted(model[a]))
