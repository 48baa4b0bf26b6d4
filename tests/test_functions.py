"""Unit tests for the function registry (repro.core.functions)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import UnknownFunctionError
from repro.core.functions import FunctionRegistry, default_registry


class TestRegistry:
    def test_register_and_resolve(self):
        registry = FunctionRegistry()
        fn = lambda reads: {"x": 1}  # noqa: E731
        registry.register("f", fn)
        assert registry.resolve("f") is fn
        assert registry.registered("f")

    def test_unknown_function_raises(self):
        registry = FunctionRegistry()
        with pytest.raises(UnknownFunctionError, match="unregistered"):
            registry.resolve("ghost")

    def test_double_registration_rejected(self):
        registry = FunctionRegistry()
        registry.register("f", lambda reads: {})
        with pytest.raises(ValueError, match="already registered"):
            registry.register("f", lambda reads: {})

    def test_replace_allowed_when_explicit(self):
        registry = FunctionRegistry()
        registry.register("f", lambda reads: {"x": 1})
        new = lambda reads: {"x": 2}  # noqa: E731
        registry.register("f", new, replace=True)
        assert registry.resolve("f") is new

    def test_child_is_independent(self):
        parent = FunctionRegistry()
        parent.register("f", lambda reads: {})
        child = parent.child()
        child.register("g", lambda reads: {})
        assert child.registered("f")
        assert not parent.registered("g")


class TestDefaultTransforms:
    def test_copy(self):
        registry = default_registry()
        fn = registry.resolve("copy")
        assert fn({"a": b"data"}, "a", "b") == {"b": b"data"}

    def test_sorted_copy_bytes(self):
        registry = default_registry()
        fn = registry.resolve("sorted_copy")
        assert fn({"a": b"cba"}, "a", "b") == {"b": b"abc"}

    @given(st.binary(max_size=9000))
    def test_sorted_copy_bytes_is_the_comparison_sort(self, data):
        fn = default_registry().resolve("sorted_copy")
        expected = {"b": bytes(sorted(data))}
        assert fn({"a": data}, "a", "b") == expected
        assert fn({"a": bytearray(data)}, "a", "b") == expected

    def test_sorted_copy_sequence(self):
        registry = default_registry()
        fn = registry.resolve("sorted_copy")
        assert fn({"a": (3, 1, 2)}, "a", "b") == {"b": (1, 2, 3)}

    def test_concat_bytes(self):
        registry = default_registry()
        fn = registry.resolve("concat")
        got = fn({"a": b"xy", "b": b"z"}, "out", "a", "b")
        assert got == {"out": b"xyz"}

    def test_concat_tuples(self):
        registry = default_registry()
        fn = registry.resolve("concat")
        got = fn({"a": (1,), "b": (2, 3)}, "out", "a", "b")
        assert got == {"out": (1, 2, 3)}

    def test_determinism(self):
        registry = default_registry()
        fn = registry.resolve("sorted_copy")
        first = fn({"a": b"hello world"}, "a", "b")
        second = fn({"a": b"hello world"}, "a", "b")
        assert first == second
