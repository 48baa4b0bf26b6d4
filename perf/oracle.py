"""The correctness gate shared by every workload.

The oracle remembers, per key, the value carried by the highest-``lsi``
acknowledged write: a ``put``'s value is the one the request sent, an
``apply``'s values are the ``writes`` its response carries.  After the
SIGKILL and restart every key is read back and must equal that value.
Pipelined writes to one key race on the server, which is why the
winner is chosen by ``lsi`` and not by send order.

SIGKILL leaves the OS page cache intact, so this proves that no acked
write is dropped by a process restart — not that ``fsync`` reached the
device (torture v3–v5 cover that; ``wal.force.calls_per_op`` pins the
flush policy).
"""

from __future__ import annotations

import base64
from typing import Any, Dict, List, Tuple


def _decode(value: Any) -> Any:
    # The wire's bytes envelope, read here and not with the program's
    # own decode_value: the checker should not trust what it checks.
    if isinstance(value, dict) and set(value) == {"__bytes__"}:
        return base64.b64decode(value["__bytes__"])
    return value


class Oracle:
    """Acked-write ledger plus failure accounting for one run."""

    def __init__(self) -> None:
        self.latest: Dict[str, Tuple[int, Any]] = {}
        self.attempted = 0
        self.acked_writes = 0
        #: One line per failed, refused or mismatching operation.
        self.failures: List[str] = []

    def on_reply(self, request: Dict[str, Any], reply: Dict[str, Any]) -> None:
        self.attempted += 1
        if not reply.get("ok"):
            error = reply.get("error") or {}
            self.failures.append(
                f"{request['kind']} {request.get('obj') or request.get('writes')}"
                f": {error.get('code')} {error.get('message')}"
            )
            return
        kind = request["kind"]
        if kind == "put":
            self.acked_writes += 1
            self._note(request["obj"], reply["lsi"], _decode(request["value"]))
        elif kind == "apply":
            self.acked_writes += 1
            for obj, value in reply["writes"].items():
                self._note(obj, reply["lsi"], _decode(value))

    def _note(self, obj: str, lsi: int, value: Any) -> None:
        held = self.latest.get(obj)
        if held is None or lsi > held[0]:
            self.latest[obj] = (lsi, value)

    def live_bytes(self) -> int:
        """User bytes currently live (the denominator of ``space_x``)."""
        return sum(len(value) for _lsi, value in self.latest.values()
                   if isinstance(value, (bytes, bytearray)))

    def expected(self, key: str) -> Any:
        held = self.latest.get(key)
        return held[1] if held is not None else None

    def check_reply(self, key: str, reply: Dict[str, Any]) -> None:
        """Judge one read-back ``get`` reply against the acked value."""
        if reply.get("ok"):
            self.check_value(key, _decode(reply.get("value")))
            return
        self.attempted += 1
        error = reply.get("error") or {}
        self.failures.append(
            f"read-back {key}: {error.get('code')} {error.get('message')}"
        )

    def check_value(self, key: str, actual: Any) -> None:
        self.attempted += 1
        expected = self.expected(key)
        if actual != expected:
            lsi = self.latest.get(key, (0, None))[0]
            self.failures.append(
                f"read-back {key}: acked lsi {lsi} lost or wrong "
                f"({_describe(actual)} != {_describe(expected)})"
            )


def _describe(value: Any) -> str:
    if isinstance(value, (bytes, bytearray)):
        return f"{len(value)} bytes {bytes(value[:8]).hex()}.."
    return repr(value)
