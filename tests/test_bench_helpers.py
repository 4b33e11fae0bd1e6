"""Benchmark-harness utilities: reporting, workload scaling, trained variants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.reporting import ascii_histogram, format_table
from repro.bench.workloads import scaled


class TestFormatTable:
    def test_markdown_structure(self):
        table = format_table(["a", "b"], [["1", "2"], ["3", "4"]], title="T")
        lines = table.splitlines()
        assert lines[0] == "### T"
        assert "| a | b |" in table
        assert "| 1 | 2 |" in table
        assert "|---|---|" in table

    def test_no_title(self):
        table = format_table(["x"], [["1"]])
        assert not table.startswith("###")

    def test_non_string_cells_coerced(self):
        table = format_table(["x"], [[42]])
        assert "| 42 |" in table


class TestHistogram:
    def test_renders_bins(self, rng):
        values = np.exp(rng.normal(3.0, 1.0, size=200))
        out = ascii_histogram(values, label="sizes")
        assert "sizes" in out
        assert "#" in out

    def test_empty_data(self):
        assert "(no data)" in ascii_histogram(np.zeros(0), label="x")

    def test_nonpositive_filtered(self):
        out = ascii_histogram(np.array([0.0, -1.0, 5.0, 10.0]), label="x")
        assert "n=2" in out


class TestWorkloadScaling:
    def test_scaled_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scaled(100) == 100

    def test_scaled_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        assert scaled(100) == 25

    def test_scaled_minimum(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.001")
        assert scaled(100, minimum=5) == 5


class TestTrainedHelpers:
    def test_unknown_variant_raises(self):
        from repro.bench.trained import train_variant

        with pytest.raises(KeyError):
            train_variant("nonexistent")

    def test_variant_levels_cover_table1(self):
        from repro.bench.trained import VARIANT_LEVELS
        from repro.model import OptLevel

        assert VARIANT_LEVELS["chgnet"] == OptLevel.BASELINE
        assert VARIANT_LEVELS["fast_wo_head"] == OptLevel.FUSED
        assert VARIANT_LEVELS["fast_fs_head"] == OptLevel.DECOMPOSE_FS

    def test_build_model_variants(self):
        from repro.bench.trained import build_model

        fs = build_model("fast_fs_head")
        wo = build_model("fast_wo_head")
        assert fs.config.use_heads and not wo.config.use_heads
        # Table I's param ordering: F/S head adds parameters
        assert fs.num_parameters() > wo.num_parameters()
