"""Tests for the core timing model and the multi-core complex."""

import pytest

from repro.cpu import Core, CoreConfig, MultiCoreComplex
from repro.memory import DRAMConfig, DRAMSubsystem
from repro.pmem.modes import SoftwareOverhead
from repro.workloads.trace import TraceRecord


def _backend():
    return DRAMSubsystem(DRAMConfig(capacity=1 << 22))


class TestCore:
    def test_compute_advances_time(self):
        core = Core(0, _backend())
        core.execute(100, 0, is_write=False)
        assert core.stats.compute_ns == pytest.approx(
            100 * core.config.base_cpi * core.config.cycle_ns)

    def test_read_miss_stalls(self):
        core = Core(0, _backend())
        core.execute(0, 0, is_write=False)
        assert core.stats.read_stall_ns > 0.0

    def test_read_hit_cheap(self):
        core = Core(0, _backend())
        core.execute(0, 0, is_write=False)
        stall_after_miss = core.stats.read_stall_ns
        core.execute(0, 0, is_write=False)
        assert core.stats.read_stall_ns == stall_after_miss

    def test_write_miss_partially_exposed(self):
        core = Core(0, _backend())
        core.execute(0, 0, is_write=True)
        read_core = Core(1, _backend())
        read_core.execute(0, 0, is_write=False)
        assert core.stats.write_stall_ns < read_core.stats.read_stall_ns

    def test_dirty_eviction_issues_memory_write(self):
        backend = _backend()
        core = Core(0, backend, CoreConfig(cache=__import__(
            "repro.cpu.cache", fromlist=["CacheConfig"]).CacheConfig(
                size_bytes=256, ways=1)))
        stride = core.cache.config.sets * 64
        core.execute(0, 0, is_write=True)
        core.execute(0, stride, is_write=False)
        assert backend.counters()["writes"] == 1
        assert core.stats.evictions == 1

    def test_software_overhead_charged(self):
        overhead = SoftwareOverhead(per_read_ns=100.0, per_write_ns=50.0,
                                    coverage=1.0)
        core = Core(0, _backend(), overhead=overhead)
        core.execute(0, 0, is_write=False)
        assert core.stats.software_ns == pytest.approx(100.0)
        core.execute(0, 64, is_write=True)
        assert core.stats.software_ns == pytest.approx(150.0)

    def test_flush_writes_extra_lines(self):
        backend = _backend()
        overhead = SoftwareOverhead(per_write_ns=0.0, coverage=1.0,
                                    extra_flush_writes=1.0)
        core = Core(0, backend, overhead=overhead)
        core.execute(0, 0, is_write=True)
        core.execute(0, 0, is_write=True)
        assert backend.counters()["writes"] == 2

    def test_flush_cache_writes_back_dirty(self):
        backend = _backend()
        core = Core(0, backend)
        core.execute(0, 0, is_write=True)
        count, addresses = core.flush_cache()
        assert count == 1 and addresses == [0]
        assert backend.counters()["writes"] == 1

    def test_ipc_sane(self):
        core = Core(0, _backend())
        for i in range(50):
            core.execute(10, (i * 64) % 4096, is_write=False)
        ipc = core.stats.ipc(core.config.frequency_ghz)
        assert 0.0 < ipc <= 1.0


class TestMultiCoreComplex:
    def _trace(self, n, base=0, write_every=5):
        return [
            TraceRecord(instructions=3, address=base + (i * 64) % 8192,
                        is_write=(i % write_every == 0))
            for i in range(n)
        ]

    def test_threads_round_robin_over_cores(self):
        cx = MultiCoreComplex(_backend(), cores=2)
        result = cx.run_traces([self._trace(10), self._trace(10, base=16384),
                                self._trace(10, base=32768)])
        # thread 2 landed back on core 0
        assert result.per_core[0].reads > result.per_core[1].reads

    def test_wall_time_is_max_core_time(self):
        cx = MultiCoreComplex(_backend(), cores=2)
        result = cx.run_traces([self._trace(50), self._trace(5, base=16384)])
        busiest = max(s.total_ns for s in result.per_core if s.instructions)
        assert result.wall_ns == pytest.approx(busiest, rel=1e-6) or \
            result.wall_ns > busiest

    def test_instructions_counted(self):
        cx = MultiCoreComplex(_backend(), cores=4)
        result = cx.run_traces([self._trace(25)])
        assert result.instructions == 25 * 4  # 3 compute + 1 mem each

    def test_ipc_positive(self):
        cx = MultiCoreComplex(_backend(), cores=2)
        result = cx.run_traces([self._trace(100)])
        assert 0.0 < result.ipc < 4.0

    def test_dirty_line_counts(self):
        cx = MultiCoreComplex(_backend(), cores=2)
        cx.run_traces([self._trace(64, write_every=1)])
        counts = cx.dirty_line_counts()
        assert len(counts) == 2
        assert counts[0] > 0

    def test_flush_all_caches(self):
        backend = _backend()
        cx = MultiCoreComplex(backend, cores=2)
        cx.run_traces([self._trace(64, write_every=1)])
        flushed = cx.flush_all_caches()
        assert flushed > 0
        assert all(c == 0 for c in cx.dirty_line_counts())

    def test_needs_at_least_one_core(self):
        with pytest.raises(ValueError):
            MultiCoreComplex(_backend(), cores=0)

    def test_memory_stall_fraction_bounded(self):
        cx = MultiCoreComplex(_backend(), cores=1)
        result = cx.run_traces([self._trace(100)])
        assert 0.0 <= result.memory_stall_fraction <= 1.0
