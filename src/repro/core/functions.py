"""Registry of deterministic transforms named by logical log records.

A logical log record stores a *function identifier* and the ids of the
objects read and written — never the values.  Replay resolves the
identifier here and applies the function to the current recoverable
values of the readset.  Determinism is the contract: given the same
input values and parameters, a registered function must produce the same
writes, or repeat-history recovery is unsound.

The registry ships with the small set of generic transforms the domains
and tests share (copy, sort, concatenation); domains register their own
(application step functions, B-tree split transforms) at import time.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, Mapping

from repro.common.errors import UnknownFunctionError

#: A transform takes the mapping of read values (object id -> value) and
#: the record's scalar parameters, and returns the mapping of written
#: values (object id -> new value).
Transform = Callable[..., Dict[str, Any]]


class FunctionRegistry:
    """Mapping from function identifier to deterministic transform."""

    def __init__(self) -> None:
        self._functions: Dict[str, Transform] = {}

    def register(self, name: str, fn: Transform, replace: bool = False) -> None:
        """Register ``fn`` under ``name``.

        Re-registration is an error unless ``replace=True`` — silently
        changing a replay function under a live log would corrupt
        recovery.
        """
        if name in self._functions and not replace:
            raise ValueError(f"transform {name!r} already registered")
        self._functions[name] = fn

    def registered(self, name: str) -> bool:
        """True when ``name`` resolves."""
        return name in self._functions

    def resolve(self, name: str) -> Transform:
        """Return the transform for ``name`` or raise UnknownFunctionError."""
        try:
            return self._functions[name]
        except KeyError:
            raise UnknownFunctionError(
                f"logical log record names unregistered transform {name!r}"
            ) from None

    def child(self) -> "FunctionRegistry":
        """A copy that can gain registrations without affecting this one."""
        clone = FunctionRegistry()
        clone._functions.update(self._functions)
        return clone


def _copy_fn(reads: Mapping[str, Any], src: str, dst: str) -> Dict[str, Any]:
    """``dst <- value(src)``: the paper's file-copy / B-tree-copy shape."""
    if reads[src] is None:
        raise ValueError(f"copy from absent object {src!r}")
    return {dst: reads[src]}


def _sorted_copy_fn(reads: Mapping[str, Any], src: str, dst: str) -> Dict[str, Any]:
    """``dst <- sort(value(src))``: the paper's sort example (op B form)."""
    data = reads[src]
    if data is None:
        raise ValueError(f"sort of absent object {src!r}")
    if isinstance(data, (bytes, bytearray)):
        return {dst: sorted_bytes(data)}
    return {dst: tuple(sorted(data))}


#: Each byte value as a one-byte string, indexed by the value.
_BYTE = [bytes([value]) for value in range(256)]


def sorted_bytes(data: bytes) -> bytes:
    """``bytes(sorted(data))`` as a counting sort over the 256 byte
    values: one counting pass, no per-byte comparison."""
    counts = Counter(data)
    return b"".join([_BYTE[value] * counts[value] for value in sorted(counts)])


def _concat_fn(
    reads: Mapping[str, Any], dst: str, *sources: str
) -> Dict[str, Any]:
    """``dst <- concat(sources...)``: a multi-input logical transform."""
    parts = [reads[s] for s in sources]
    if all(isinstance(p, (bytes, bytearray)) for p in parts):
        return {dst: b"".join(bytes(p) for p in parts)}
    out = []
    for part in parts:
        out.extend(part)
    return {dst: tuple(out)}


def default_registry() -> FunctionRegistry:
    """A fresh registry pre-loaded with the generic transforms."""
    registry = FunctionRegistry()
    registry.register("copy", _copy_fn)
    registry.register("sorted_copy", _sorted_copy_fn)
    registry.register("concat", _concat_fn)
    return registry
