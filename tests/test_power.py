"""Tests for the power model and PSU hold-up behaviour."""

import pytest

from repro.power import (
    ATX_PSU,
    SERVER_PSU,
    PowerModel,
)


class TestPowerModel:
    def test_unknown_component_rejected(self):
        with pytest.raises(KeyError):
            PowerModel().component_power("flux_capacitor", 1e6)

    def test_static_power_scales_with_instances(self):
        model = PowerModel()
        one = model.component_power("dram_dimm", 1e6)
        four = model.component_power("dram_dimm", 1e6, scale=4.0)
        assert four == pytest.approx(4 * one)

    def test_dynamic_energy_added(self):
        model = PowerModel()
        idle = model.component_power("dram_dimm", 1e6)
        busy = model.component_power("dram_dimm", 1e6, {"reads": 1000})
        assert busy > idle

    def test_unknown_counters_ignored(self):
        model = PowerModel()
        a = model.component_power("psm", 1e6)
        b = model.component_power("psm", 1e6, {"nonsense": 1e9})
        assert a == b

    def test_duration_validation(self):
        with pytest.raises(ValueError):
            PowerModel().component_power("psm", 0.0)

    def test_report_totals(self):
        model = PowerModel()
        report = model.report(1e9, [("psm", 1.0, None), ("board_light", 1.0, None)])
        assert report.total_w == pytest.approx(
            model.spec("psm").static_w + model.spec("board_light").static_w)
        assert report.energy_j == pytest.approx(report.total_w)  # 1 second

    def test_cpu_parts_split_busy_idle(self):
        model = PowerModel()
        parts = model.cpu_parts(8, busy_fraction=0.5)
        assert parts[0][1] == 4.0 and parts[1][1] == 4.0

    def test_lightpc_static_well_below_legacy(self):
        model = PowerModel()
        legacy = model.report(1e6, model.cpu_parts(8) + [
            ("dram_dimm", 4.0, None), ("dram_complex", 1.0, None),
            ("board_legacy", 1.0, None)])
        light = model.report(1e6, model.cpu_parts(8) + [
            ("psm", 1.0, None), ("bare_nvdimm", 6.0, None),
            ("board_light", 1.0, None)])
        assert light.total_w / legacy.total_w < 0.35


class TestPSU:
    def test_holdup_shrinks_with_load(self):
        assert ATX_PSU.holdup_ms(20.0) < ATX_PSU.holdup_ms(10.0)

    def test_holdup_capped_at_light_load(self):
        assert ATX_PSU.holdup_ms(0.1) == ATX_PSU.max_holdup_ms
        assert ATX_PSU.holdup_ms(0.0) == ATX_PSU.max_holdup_ms

    def test_paper_measured_windows(self):
        """ATX ~22 ms and server ~55 ms at the busy (legacy) draw."""
        assert ATX_PSU.holdup_ms(18.9) == pytest.approx(22.0, rel=0.05)
        assert SERVER_PSU.holdup_ms(18.9) == pytest.approx(55.0, rel=0.05)

    def test_measured_exceeds_spec(self):
        assert ATX_PSU.holdup_ms(18.9) > ATX_PSU.spec_holdup_ms
