"""Unit tests for rSI bookkeeping (repro.core.state_identifiers)."""

from collections import deque

import pytest

from repro.core.state_identifiers import DirtyObjectTable, UninstalledWriters


class TestDirtyObjectTable:
    def test_note_write_sets_first_only(self):
        table = DirtyObjectTable()
        table.note_write("x", 5)
        table.note_write("x", 9)  # rSI stays at the first uninstalled op
        assert table.rsi_of("x") == 5

    def test_advance_monotone(self):
        table = DirtyObjectTable()
        table.note_write("x", 5)
        table.advance("x", 9)
        assert table.rsi_of("x") == 9
        with pytest.raises(ValueError, match="regress"):
            table.advance("x", 3)

    def test_remove_and_dirty(self):
        table = DirtyObjectTable()
        table.note_write("x", 5)
        assert table.is_dirty("x")
        table.remove("x")
        assert not table.is_dirty("x")
        assert table.rsi_of("x") is None
        table.remove("x")  # idempotent

    def test_min_rsi_is_redo_start(self):
        table = DirtyObjectTable()
        assert table.min_rsi() is None
        table.note_write("a", 7)
        table.note_write("b", 3)
        assert table.min_rsi() == 3

    def test_snapshot_for_checkpoint(self):
        table = DirtyObjectTable({"a": 1})
        table.note_write("b", 2)
        snap = table.snapshot()
        assert snap == {"a": 1, "b": 2}
        snap["a"] = 99
        assert table.rsi_of("a") == 1  # snapshot is a copy

    def test_len_and_contains(self):
        table = DirtyObjectTable({"a": 1})
        assert len(table) == 1
        assert "a" in table
        assert "b" not in table


class TestUninstalledWriters:
    def test_first_remaining_writer(self):
        writers = UninstalledWriters()
        writers.note("x", 3)
        writers.note("x", 7)
        assert writers.first("x") == 3
        writers.discharge("x", 3)
        assert writers.first("x") == 7
        writers.discharge("x", 7)
        assert writers.first("x") is None
        assert not writers.has_writers("x")

    def test_discharge_unknown_raises(self):
        writers = UninstalledWriters()
        with pytest.raises(KeyError):
            writers.discharge("x", 1)
        writers.note("x", 1)
        with pytest.raises(KeyError):
            writers.discharge("x", 2)

    def test_objects_listing(self):
        writers = UninstalledWriters()
        writers.note("a", 1)
        writers.note("b", 2)
        assert sorted(writers.objects()) == ["a", "b"]

    def test_head_discharge_of_a_hot_object_is_not_a_list_scan(self):
        """10 000 uninstalled writers of one object, installed in write
        order (the order installation uses): each discharge looks at the
        head only and pops it from a deque — no membership scan, and no
        ``list.remove`` shifting the 10 000 slots behind it."""

        class Counting(int):
            compared = 0

            def __eq__(self, other):
                Counting.compared += 1
                return int(self) == int(other)

            __hash__ = int.__hash__

        writers = UninstalledWriters()
        count = 10_000
        for lsi in range(1, count + 1):
            writers.note("hot", Counting(lsi))
        assert isinstance(writers._writers["hot"], deque)
        for lsi in range(1, count + 1):
            assert writers.first_after("hot", (lsi,)) == (
                lsi + 1 if lsi < count else None
            )
            writers.discharge("hot", lsi)
        assert not writers.has_writers("hot")
        # One comparison per look at the head, not one per queued writer.
        assert Counting.compared <= 4 * count

    def test_first_after_changes_nothing_and_handles_any_subset(self):
        writers = UninstalledWriters()
        for lsi in (2, 5, 9, 11):
            writers.note("x", lsi)
        assert writers.first_after("x", (2,)) == 5
        assert writers.first_after("x", (2, 5)) == 9
        assert writers.first_after("x", (2, 5, 9, 11)) is None
        # Not the head (a caller outside installation order).
        assert writers.first_after("x", (5,)) == 2
        assert writers.first_after("x", (2, 9)) == 5
        assert writers.first_after("never-written", (1,)) is None
        assert writers.first("x") == 2

    def test_out_of_order_discharge_still_works(self):
        writers = UninstalledWriters()
        for lsi in (1, 2, 3):
            writers.note("x", lsi)
        writers.discharge("x", 2)
        assert writers.first("x") == 1
        writers.discharge("x", 1)
        writers.discharge("x", 3)
        assert not writers.has_writers("x")
