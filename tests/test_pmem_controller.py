"""Tests for the PMEM channel controller and the NMEM (memory-mode) cache."""

import pytest

from repro.memory import DRAMConfig, DRAMSubsystem, MemoryOp, MemoryRequest
from repro.pmem import NMEMController, PMEMController, PMEMDIMM


def _controller(dimms=2, capacity=1 << 20):
    return PMEMController([PMEMDIMM(capacity=capacity) for _ in range(dimms)])


class TestPMEMController:
    def test_requires_dimms(self):
        with pytest.raises(ValueError):
            PMEMController([])

    def test_capacity_is_sum(self):
        ctrl = _controller(dimms=3, capacity=1 << 20)
        assert ctrl.capacity == 3 << 20

    def test_lines_interleave_across_dimms(self):
        ctrl = _controller(dimms=2)
        d0, local0 = ctrl._route(0)
        d1, local1 = ctrl._route(64)
        d2, local2 = ctrl._route(128)
        assert d0 is not d1
        assert d0 is d2
        assert local2 == 64

    def test_ddrt_handshake_charged(self):
        ctrl = _controller()
        response = ctrl.access(MemoryRequest(MemoryOp.READ, address=0))
        inner = ctrl.dimms[0].read_latency.mean
        assert response.latency == pytest.approx(
            inner + ctrl.ddrt.request_ns + ctrl.ddrt.completion_ns
        )

    def test_flush_fans_out(self):
        ctrl = _controller()
        ctrl.access(MemoryRequest(MemoryOp.WRITE, address=0))
        ctrl.access(MemoryRequest(MemoryOp.WRITE, address=64))
        done = ctrl.drain(0.0)
        assert done > 0.0
        assert all(d.lsq.occupancy == 0 for d in ctrl.dimms)

    def test_nonvolatile(self):
        assert not _controller().is_volatile


class TestNMEMController:
    def _nmem(self):
        dram = DRAMSubsystem(DRAMConfig(capacity=1 << 20))
        return NMEMController(dram, _controller())

    def test_miss_then_hit(self):
        nmem = self._nmem()
        miss = nmem.access(MemoryRequest(MemoryOp.READ, address=0))
        hit = nmem.access(MemoryRequest(
            MemoryOp.READ, address=0, time=miss.complete_time))
        assert hit.latency < miss.latency
        assert nmem.hit_ratio == pytest.approx(0.5)

    def test_snarf_overlap_bounds_miss_cost(self):
        """Miss cost ~ max(pmem, dram) + snarf, not the sum."""
        nmem = self._nmem()
        miss = nmem.access(MemoryRequest(MemoryOp.READ, address=0))
        pmem_alone = nmem.pmem.access(
            MemoryRequest(MemoryOp.READ, address=1 << 16))
        assert miss.latency < pmem_alone.latency + 60.0

    def test_memory_mode_is_volatile(self):
        assert self._nmem().is_volatile

    def test_power_cycle_drops_tags(self):
        nmem = self._nmem()
        nmem.access(MemoryRequest(MemoryOp.READ, address=0))
        nmem.power_cycle()
        assert nmem.hit_stats.hits == 0 or nmem._tags == {}

    def test_flush_drains_both_sides(self):
        nmem = self._nmem()
        nmem.access(MemoryRequest(MemoryOp.WRITE, address=0))
        response = nmem.access(MemoryRequest(MemoryOp.FLUSH, time=0.0))
        assert response.complete_time >= 0.0

    def _written(self, writes=100):
        nmem = self._nmem()
        for line in range(writes):
            nmem.access(MemoryRequest(MemoryOp.WRITE, address=line * 64,
                                      time=float(line)))
        return nmem

    def test_power_parts_charge_the_counters_handed_in(self):
        """``Machine.power_report`` hands per-window deltas and
        extrapolated totals: an all-zero dict charges no traffic to
        either tier."""
        nmem = self._written()
        zero = {key: 0.0 for key in nmem.counters()}
        for name, _, counters in nmem.power_parts(zero):
            assert not counters or not any(counters.values()), name

    def test_power_parts_from_live_counters_match_each_tier(self):
        nmem = self._written()
        expected = (nmem.dram.power_parts(nmem.dram.counters())
                    + nmem.pmem.power_parts(nmem.pmem.counters())
                    + [("nmem_ctrl", 1.0, {"fills": 100.0})])
        assert nmem.power_parts(nmem.counters()) == expected
