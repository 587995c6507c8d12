"""Tests for the extension studies (sensitivity, endurance, consolidation)."""

import pytest

from repro.analysis.consolidation import consolidation_study
from repro.analysis.endurance import endurance_projection
from repro.analysis.sensitivity import read_latency_sweep, write_pulse_sweep


class TestSensitivity:
    def test_read_sweep_structure(self, tmp_path):
        result = read_latency_sweep(multipliers=(1.0, 2.0),
                                    workload="aes", refs=2_000,
                                    trace_dir=tmp_path)
        assert len(result.rows) == 2
        assert result.rows[0][0] == 1.0
        assert "ratio_at_1x" in result.notes

    def test_read_sweep_monotone(self, tmp_path):
        result = read_latency_sweep(multipliers=(1.0, 3.0),
                                    workload="aes", refs=3_000,
                                    trace_dir=tmp_path)
        assert result.rows[1][2] > result.rows[0][2]

    def test_write_sweep_structure(self, tmp_path):
        result = write_pulse_sweep(multipliers=(1.0, 2.0),
                                   workload="aes", refs=2_000,
                                   trace_dir=tmp_path)
        assert [row[0] for row in result.rows] == [1.0, 2.0]
        assert "gap_grows_with_pulse" in result.notes

    def test_write_sweep_gap_widens(self, tmp_path):
        result = write_pulse_sweep(multipliers=(0.5, 3.0),
                                   workload="snap", refs=3_000,
                                   trace_dir=tmp_path)
        gaps = result.column("b_over_lightpc")
        assert gaps[-1] > gaps[0]


class TestEndurance:
    @pytest.fixture(scope="class")
    def result(self):
        return endurance_projection(workloads=("aes", "snap"), refs=3_000)

    def test_structure(self, result):
        assert len(result.rows) == 2
        assert result.notes["min_filter_ratio"] > 1.0

    def test_leveled_lifetimes_ordered_by_corner(self, result):
        for row in result.rows:
            assert row[5] > 0  # 1e8 corner years (index 5)
            # the 1e8 corner gives 100x the 1e6 corner (both capped)
            assert row[5] >= row[4]

    def test_unleveled_is_catastrophic(self, result):
        assert result.notes["worst_unleveled_days_at_1e6"] < \
            result.notes["worst_leveled_years_at_1e6"] * 365.25

    def test_capacity_scales_lifetime(self):
        # compare uncapped headline notes (the table caps display values)
        small = endurance_projection(workloads=("snap",), refs=8_000,
                                     capacity_tb=0.001)
        big = endurance_projection(workloads=("snap",), refs=8_000,
                                   capacity_tb=1.0)
        assert big.notes["worst_leveled_years_at_1e6"] > \
            small.notes["worst_leveled_years_at_1e6"]


class TestConsolidation:
    def test_structure_and_interference(self):
        result = consolidation_study(pairs=(("aes", "mcf"),), refs=2_000)
        assert len(result.rows) == 3  # one pair x three platforms
        platforms = {row[1] for row in result.rows}
        assert platforms == {"legacy", "lightpc_b", "lightpc"}
        for row in result.rows:
            assert row[4] > 0.5  # slowdown is a sane ratio

    def test_mean_notes_present(self):
        result = consolidation_study(pairs=(("aes", "mcf"),), refs=2_000)
        for platform in ("legacy", "lightpc_b", "lightpc"):
            assert f"{platform}_mean_slowdown" in result.notes
