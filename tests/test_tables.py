"""Tests for benchmark reporting helpers (repro.analysis.tables) and
IOStats bookkeeping (repro.storage.stats)."""

import pytest

from repro.analysis import Table, format_bytes, ratio
from repro.storage import IOStats


class TestFormatBytes:
    def test_bytes(self):
        assert format_bytes(512) == "512 B"

    def test_kib(self):
        assert format_bytes(2048) == "2.0 KiB"

    def test_mib(self):
        assert format_bytes(3 * 1024 * 1024) == "3.0 MiB"

    def test_gib_cap(self):
        assert format_bytes(5 * 1024**3) == "5.0 GiB"


class TestRatio:
    def test_simple(self):
        assert ratio(10, 4) == "2.50x"

    def test_zero_denominator(self):
        assert ratio(1, 0) == "n/a"


class TestTable:
    def test_render_alignment(self):
        table = Table("Title", ["col", "value"])
        table.add_row("a", 1)
        table.add_row("long-name", 20)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "col" in lines[2]
        assert "long-name" in text

    def test_cell_count_checked(self):
        table = Table("t", ["a", "b"])
        with pytest.raises(ValueError, match="expected 2 cells"):
            table.add_row("only-one")

    def test_print_smoke(self, capsys):
        table = Table("t", ["a"])
        table.add_row(1)
        table.print()
        assert "t" in capsys.readouterr().out


class TestIOStats:
    def test_snapshot_and_diff(self):
        stats = IOStats()
        stats.object_writes = 2
        before = stats.snapshot()
        stats.object_writes = 7
        stats.log_forces = 1
        delta = stats.diff(before)
        assert delta["object_writes"] == 5
        assert delta["log_forces"] == 1

    def test_bump_extra_counters(self):
        stats = IOStats()
        stats.bump("custom")
        stats.bump("custom", 4)
        assert stats.snapshot()["custom"] == 5
