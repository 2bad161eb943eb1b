"""Unit tests for the EXPERIMENTS.md generator helpers."""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))

import update_experiments as tool  # noqa: E402


class TestHelpers:
    def test_fmt(self):
        assert tool.fmt(1.23456) == "1.235"
        assert tool.fmt(1.0, digits=1) == "1.0"

    def test_avg(self):
        assert tool.avg([1.0, 3.0]) == 2.0
        assert math.isnan(tool.avg([]))

    def test_pair_table(self):
        table, train_avg, novel_avg = tool.pair_table(
            {"a": [1.2, 1.1], "b": [1.0, 0.9]}
        )
        assert "| a | 1.200 | 1.100 |" in table
        assert "**1.100**" in table
        assert train_avg == 1.1
        assert novel_avg == 1.0

    def test_spec_table(self):
        table, train_avg, _ = tool.spec_table(
            {"x": {"train": 1.5, "novel": 1.2}}, "1.54", "1.23"
        )
        assert "| x | 1.500 | 1.200 |" in table
        assert "Paper averages: 1.54 train / 1.23 novel." in table
        assert train_avg == 1.5

    def test_load_missing_returns_none(self):
        assert tool.load("definitely-not-a-result") is None
