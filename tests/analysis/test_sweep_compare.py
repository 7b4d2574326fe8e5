"""Tests for sweeps, cross-scheme comparison and table rendering."""

import pytest

from repro.analysis.compare import compare_schemes
from repro.analysis.sweep import (
    SweepResult,
    bandwidth_sweep,
    bandwidth_sweep_with_skips,
    paper_model_pair,
)
from repro.analysis.tables import render_matrix, render_table
from repro.core.request_models import UniformRequestModel


class TestPaperModelPair:
    def test_contains_both_models(self):
        models = paper_model_pair(8, 1.0)
        assert set(models) == {"hier", "unif"}
        assert models["hier"].rate == 1.0
        assert models["unif"].n_memories == 8


class TestBandwidthSweep:
    def test_grid_shape(self):
        records = bandwidth_sweep("full", 8, bus_counts=(1, 2, 4), rates=(1.0,))
        assert len(records) == 6  # 3 bus counts x 2 models

    def test_record_fields(self):
        record = bandwidth_sweep("full", 8, (2,), (0.5,))[0]
        assert set(record) == {"scheme", "N", "M", "B", "r", "model", "bandwidth"}

    def test_skips_invalid_configurations(self):
        # Partial g=2 cannot build B=3.
        records = bandwidth_sweep(
            "partial", 8, bus_counts=(2, 3, 4), rates=(1.0,)
        )
        assert {r["B"] for r in records} == {2, 4}

    def test_hier_beats_unif_in_records(self):
        records = bandwidth_sweep("full", 8, (4,), (1.0,))
        by_model = {r["model"]: r["bandwidth"] for r in records}
        assert by_model["hier"] >= by_model["unif"]


class TestSweepSkipAuditing:
    def test_with_skips_reports_invalid_partial_counts(self):
        result = bandwidth_sweep_with_skips(
            "partial", 8, bus_counts=(2, 3, 4), rates=(1.0,)
        )
        assert isinstance(result, SweepResult)
        assert {r["B"] for r in result.records} == {2, 4}
        assert [(c.scheme, c.n_buses) for c in result.skipped] == [
            ("partial", 3)
        ]
        assert "divide" in result.skipped[0].reason

    def test_skips_deduplicated_across_rates_and_models(self):
        result = bandwidth_sweep_with_skips(
            "partial", 8, bus_counts=(2, 3, 4), rates=(1.0, 0.5)
        )
        # 2 rates x 2 models see the same structural skip: reported once.
        assert len(result.skipped) == 1

    def test_bus_count_exceeding_modules_is_audited(self):
        result = bandwidth_sweep_with_skips(
            "full", 8, bus_counts=(8, 9), rates=(1.0,)
        )
        assert {r["B"] for r in result.records} == {8}
        assert [c.n_buses for c in result.skipped] == [9]
        assert "exceeds" in result.skipped[0].reason

    def test_records_match_classic_sweep(self):
        grid = dict(bus_counts=(1, 2, 3, 4), rates=(1.0, 0.5))
        assert (
            bandwidth_sweep_with_skips("partial", 8, **grid).records
            == bandwidth_sweep("partial", 8, **grid)
        )

    def test_classic_sweep_logs_skips(self, caplog):
        with caplog.at_level("DEBUG", logger="repro.analysis.sweep"):
            bandwidth_sweep("partial", 8, bus_counts=(3,), rates=(1.0,))
        assert any("skipping scheme=partial" in m for m in caplog.messages)


class TestCompareSchemes:
    def test_sorted_by_bandwidth(self):
        rows = compare_schemes(16, 8, UniformRequestModel(16, 16))
        bandwidths = [row.bandwidth for row in rows]
        assert bandwidths == sorted(bandwidths, reverse=True)

    def test_contains_expected_schemes(self):
        rows = compare_schemes(16, 8, UniformRequestModel(16, 16))
        assert {row.scheme for row in rows} == {
            "full", "partial", "kclass", "single", "crossbar"
        }

    def test_ordering_matches_paper(self):
        rows = {
            row.scheme: row
            for row in compare_schemes(16, 8, UniformRequestModel(16, 16))
        }
        assert rows["full"].bandwidth >= rows["partial"].bandwidth
        assert rows["partial"].bandwidth >= rows["single"].bandwidth
        assert rows["single"].bandwidth_per_connection >= (
            rows["full"].bandwidth_per_connection
        )

    def test_skips_impossible_schemes(self):
        # B = 3 is odd: partial g=2 drops out.
        rows = compare_schemes(9, 3, UniformRequestModel(9, 9))
        assert "partial" not in {row.scheme for row in rows}

    def test_as_row(self):
        row = compare_schemes(8, 4, UniformRequestModel(8, 8))[0].as_row()
        assert "MBW" in row and "MBW/conn" in row


class TestRendering:
    def test_render_table_alignment(self):
        text = render_table(
            [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert "2.50" in text and "0.12" in text  # two-decimal floats

    def test_render_table_missing_keys_blank(self):
        text = render_table([{"a": 1}, {"b": 2}])
        assert text.count("2") >= 1

    def test_render_table_infers_columns(self):
        text = render_table([{"x": 1}, {"y": 2}])
        assert "x" in text and "y" in text

    def test_render_matrix_layout(self):
        text = render_matrix(
            [1, 2],
            ["c1", "c2"],
            {(1, "c1"): 0.5, (2, "c2"): 1.5},
            corner="B",
        )
        assert "B" in text
        assert "0.50" in text and "1.50" in text
