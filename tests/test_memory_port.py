"""The memory port layer: protocol conformance, interposers, stats registry.

One parametrized suite runs the same contract against every backend —
DRAM, both PSM generations, and the conventional-PMEM controllers — so a
new tier only has to join the fixture list to inherit the whole battery.
"""

from __future__ import annotations

import pytest

from repro.core.machine import Machine, _BACKEND_FACTORIES
from repro.memory.batch import default_access_batch
from repro.memory.dram import DRAMConfig, DRAMSubsystem
from repro.memory.port import (
    AddressRange,
    AddressRangePartition,
    FaultInjector,
    InjectedPowerFailure,
    Interposer,
    MemoryBackend,
    PortNotSupportedError,
    assert_memory_backend,
)
from repro.memory.request import AddressSpaceError, MemoryOp, MemoryRequest
from repro.ocpmem.psm import PSM, PSMConfig
from repro.pmem.controller import NMEMController, PMEMController
from repro.pmem.dimm import PMEMDIMM
from repro.sim.stats import LatencyStats, RatioStat, StatsRegistry
from repro.workloads.suites import load_workload

CAPACITY = 1 << 20


def _dram():
    return DRAMSubsystem(DRAMConfig(capacity=CAPACITY))


def _psm():
    return PSM(PSMConfig(lines_per_dimm=1 << 10), functional=True)


def _psm_b():
    return PSM(PSMConfig.lightpc_b(lines_per_dimm=1 << 10))


def _pmem():
    return PMEMController([PMEMDIMM(capacity=CAPACITY) for _ in range(2)])


def _nmem():
    return NMEMController(_dram(), _pmem())


BACKENDS = {
    "dram": _dram,
    "psm": _psm,
    "psm_b": _psm_b,
    "pmem": _pmem,
    "nmem": _nmem,
}


@pytest.fixture(params=sorted(BACKENDS), ids=sorted(BACKENDS))
def backend(request):
    return BACKENDS[request.param]()


class TestProtocolConformance:
    """The shared contract every memory tier must satisfy."""

    def test_satisfies_protocol(self, backend):
        assert_memory_backend(backend, context="conformance suite")
        assert isinstance(backend, MemoryBackend)

    def test_capacity_positive(self, backend):
        assert backend.capacity > 0

    def test_basic_access_monotonic(self, backend):
        t = 0.0
        for address in (0, 64, 128, 4096):
            for op in (MemoryOp.WRITE, MemoryOp.READ):
                response = backend.access(
                    MemoryRequest(op, address=address, time=t))
                assert response.complete_time >= t
                assert response.occupied_until >= response.complete_time
                t = response.complete_time

    def test_cacheline_granularity_enforced(self, backend):
        with pytest.raises(ValueError):
            backend.access(MemoryRequest(MemoryOp.READ, address=0, size=128))

    def test_out_of_range_rejected(self, backend):
        with pytest.raises(AddressSpaceError):
            backend.access(MemoryRequest(
                MemoryOp.READ, address=backend.capacity + (1 << 20)))

    def test_flush_and_drain_advance_time(self, backend):
        t1 = backend.flush(10.0)
        assert t1 >= 10.0
        # idempotent: a second quiesce of a quiet backend still advances
        assert backend.flush(t1) >= t1
        assert backend.drain(t1) >= t1

    def test_reset_float_or_unsupported(self, backend):
        try:
            done = backend.reset(0.0)
        except PortNotSupportedError:
            # volatile/conventional tiers honestly lack the port, and the
            # error stays catchable as ValueError for old callers
            with pytest.raises(ValueError):
                backend.reset(0.0)
        else:
            assert done >= 0.0

    def test_capture_restore_roundtrip(self, backend):
        blob = backend.capture_registers()
        assert isinstance(blob, bytes)
        backend.restore_wear_registers(blob)  # must accept its own capture

    def test_power_cycle_then_usable(self, backend):
        backend.access(MemoryRequest(MemoryOp.WRITE, address=0))
        backend.power_cycle()
        response = backend.access(MemoryRequest(MemoryOp.READ, address=0))
        assert response.complete_time >= 0.0

    def test_counters_numeric(self, backend):
        backend.access(MemoryRequest(MemoryOp.WRITE, address=0))
        counters = backend.counters()
        assert counters
        assert all(isinstance(v, (int, float)) for v in counters.values())

    def test_buffer_hit_ratio_bounded(self, backend):
        for i in range(8):
            backend.access(MemoryRequest(MemoryOp.READ, address=i * 64))
        assert 0.0 <= backend.buffer_hit_ratio <= 1.0

    def test_register_stats_snapshot(self, backend):
        stats = StatsRegistry()
        backend.register_stats(stats.scoped("memory"))
        backend.access(MemoryRequest(MemoryOp.WRITE, address=64))
        tree = stats.snapshot()
        assert "memory" in tree and tree["memory"]

    def test_power_parts_shape(self, backend):
        parts = backend.power_parts(backend.counters())
        assert parts
        for name, count, counters in parts:
            assert isinstance(name, str) and count > 0
            assert counters is None or isinstance(counters, dict)


class TestInterposers:
    def test_chain_satisfies_protocol_and_unwraps(self):
        psm = _psm()
        chain = FaultInjector(Interposer(psm))
        assert_memory_backend(chain, context="interposer chain")
        assert chain.unwrap() is psm
        assert not chain.is_volatile
        assert chain.capacity == psm.capacity

    def test_fault_injector_trips_once_then_forwards(self):
        port = FaultInjector(_psm(), crash_at_op=2)
        port.access(MemoryRequest(MemoryOp.WRITE, address=0,
                                  data=b"\x07" * 64))
        port.flush(0.0)
        with pytest.raises(InjectedPowerFailure):
            port.access(MemoryRequest(MemoryOp.WRITE, address=64))
        assert port.tripped
        port.power_fail()
        # recovery traffic flows through the tripped port untouched
        response = port.access(MemoryRequest(MemoryOp.READ, address=0))
        assert response.data == b"\x07" * 64


class TestAddressRangePartition:
    """A hybrid DRAM+PSM tier as pure composition."""

    def _hybrid(self):
        return AddressRangePartition([
            AddressRange(0, CAPACITY, _dram()),
            AddressRange(CAPACITY, CAPACITY + (1 << 18), _psm()),
        ])

    def test_satisfies_protocol(self):
        hybrid = self._hybrid()
        assert_memory_backend(hybrid, context="hybrid tier")
        assert hybrid.is_volatile          # the DRAM region is lossy
        assert hybrid.capacity == CAPACITY + (1 << 18)

    def test_routes_and_rebases(self):
        hybrid = self._hybrid()
        low = hybrid.access(MemoryRequest(MemoryOp.READ, address=64))
        high = hybrid.access(MemoryRequest(
            MemoryOp.READ, address=CAPACITY + 64))
        # responses carry the caller's request, not the rebased one
        assert low.request.address == 64
        assert high.request.address == CAPACITY + 64

    def test_unmapped_and_straddling_rejected(self):
        hybrid = self._hybrid()
        with pytest.raises(AddressSpaceError):
            hybrid.access(MemoryRequest(
                MemoryOp.READ, address=CAPACITY + (1 << 18)))
        with pytest.raises(AddressSpaceError):
            hybrid.access(MemoryRequest(MemoryOp.READ, address=CAPACITY - 32))

    def test_overlapping_regions_rejected(self):
        with pytest.raises(ValueError):
            AddressRangePartition([
                AddressRange(0, 128, _dram()),
                AddressRange(64, 256, _dram()),
            ])

    def test_lifecycle_fans_out(self):
        hybrid = self._hybrid()
        assert hybrid.flush(5.0) >= 5.0
        hybrid.restore_wear_registers(hybrid.capture_registers())
        hybrid.power_cycle()
        with pytest.raises(PortNotSupportedError):
            hybrid.reset(0.0)          # the DRAM region lacks the port

    def test_read_media_of_fans_out_region_by_region(self):
        def persistent():
            return AddressRangePartition([
                AddressRange(0, 1 << 16, _psm()),
                AddressRange(1 << 16, 1 << 17, _psm()),
            ])

        source, reader = persistent(), persistent()
        reader.read_media_of(source)
        for address, byte in ((64, 0x0A), ((1 << 16) + 64, 0x0B)):
            source.access(MemoryRequest(MemoryOp.WRITE, address,
                                        data=bytes([byte]) * 64))
        source.flush(0.0)
        reader.power_cycle()
        for address, byte in ((64, 0x0A), ((1 << 16) + 64, 0x0B)):
            response = reader.access(MemoryRequest(MemoryOp.READ, address))
            assert response.data == bytes([byte]) * 64
        other = AddressRangePartition([AddressRange(0, 1 << 17, _psm())])
        with pytest.raises(ValueError):
            other.read_media_of(source)

    def test_media_version_sums_the_regions(self):
        low, high = _psm(), _psm()
        partition = AddressRangePartition([
            AddressRange(0, 1 << 16, low),
            AddressRange(1 << 16, 1 << 17, high),
        ])
        assert partition.media_version() == 0
        partition.access(MemoryRequest(MemoryOp.WRITE, (1 << 16) + 64,
                                       data=b"\x0c" * 64))
        partition.flush(0.0)
        assert low.media_version() == 0 < high.media_version()
        partition.access(MemoryRequest(MemoryOp.WRITE, 64,
                                       data=b"\x0d" * 64))
        partition.flush(0.0)
        assert 0 < low.media_version()
        assert partition.media_version() == \
            low.media_version() + high.media_version()

    def test_counters_and_stats_prefixed_per_region(self):
        hybrid = self._hybrid()
        hybrid.access(MemoryRequest(MemoryOp.WRITE, address=0))
        counters = hybrid.counters()
        assert any(key.startswith("region0_") for key in counters)
        assert any(key.startswith("region1_") for key in counters)
        stats = StatsRegistry()
        hybrid.register_stats(stats)
        paths = stats.paths()
        assert any(p.startswith("region0.") for p in paths)
        assert any(p.startswith("region1.") for p in paths)

    def test_power_parts_charge_the_counters_handed_in(self):
        """``Machine.power_report`` hands a composite per-window deltas
        and extrapolated totals: an all-zero dict charges no traffic."""
        hybrid = self._hybrid()
        for line in range(100):
            hybrid.access(MemoryRequest(MemoryOp.WRITE, line * 64,
                                        time=float(line)))
        zero = {key: 0.0 for key in hybrid.counters()}
        for name, _, counters in hybrid.power_parts(zero):
            assert not counters or not any(counters.values()), name

    def test_power_parts_from_live_counters_match_each_region(self):
        hybrid = self._hybrid()
        for line in range(100):
            hybrid.access(MemoryRequest(MemoryOp.WRITE, line * 64,
                                        time=float(line)))
            hybrid.access(MemoryRequest(MemoryOp.READ, CAPACITY + line * 64,
                                        time=float(line)))
        expected = []
        for region in hybrid.regions:
            expected += region.backend.power_parts(region.backend.counters())
        assert hybrid.power_parts(hybrid.counters()) == expected
        assert any(counters and counters.get("writes")
                   for _, _, counters in expected)


class TestStatsRegistry:
    def test_snapshot_and_flat(self):
        stats = StatsRegistry()
        stats.register("machine.uptime", 4.0)
        stats.register("machine.busy", True)
        latency = LatencyStats("read")
        latency.record(10.0)
        stats.register("memory.read", latency)
        tree = stats.snapshot()
        assert tree["machine"]["uptime"] == 4.0
        assert tree["machine"]["busy"] == 1.0
        assert tree["memory"]["read"]["count"] == 1
        flat = stats.flat()
        assert flat["memory.read.count"] == 1.0

    def test_callables_resolve_lazily(self):
        stats = StatsRegistry()
        box = {"value": 1}
        stats.register("box.value", lambda: box["value"])
        assert stats.snapshot()["box"]["value"] == 1
        box["value"] = 7
        assert stats.snapshot()["box"]["value"] == 7

    def test_ratio_stat_resolution(self):
        stats = StatsRegistry()
        ratio = RatioStat()
        ratio.record(True)
        ratio.record(False)
        stats.register("hits", ratio)
        assert stats.snapshot()["hits"] == {
            "hits": 1, "total": 2, "ratio": 0.5}

    def test_scoped_views_share_one_tree(self):
        stats = StatsRegistry()
        scope = stats.scoped("psm").scoped("dimm3")
        scope.register("group0.write", 12.0)
        assert stats.flat() == {"psm.dimm3.group0.write": 12.0}
        assert scope.paths() == ["group0.write"]

    def test_collisions_rejected(self):
        stats = StatsRegistry()
        stats.register("a.b", 1.0)
        with pytest.raises(ValueError):
            stats.register("a.b", 2.0)        # exact duplicate
        with pytest.raises(ValueError):
            stats.register("a.b.c", 3.0)      # under an existing leaf
        with pytest.raises(ValueError):
            stats.register("a", 4.0)          # above an existing subtree

    def test_bad_path_segment_rejected(self):
        stats = StatsRegistry()
        with pytest.raises(ValueError):
            stats.register("bad path!", 1.0)

    def test_drop_subtree(self):
        stats = StatsRegistry()
        stats.register("memory.read", 1.0)
        stats.register("memory.write", 2.0)
        stats.register("cpu.ipc", 3.0)
        assert stats.drop("memory") == 2
        assert stats.flat() == {"cpu.ipc": 3.0}

    def test_unresolvable_source_raises(self):
        stats = StatsRegistry()
        stats.register("weird", object())
        with pytest.raises(TypeError):
            stats.snapshot()


class TestMachineIntegration:
    def test_incomplete_backend_rejected_by_name(self):
        class HalfBackend:
            is_volatile = True

            def access(self, request):
                raise NotImplementedError

        _BACKEND_FACTORIES["broken"] = (
            lambda config, functional: HalfBackend())
        try:
            with pytest.raises(TypeError) as excinfo:
                Machine("broken")
            message = str(excinfo.value)
            assert "HalfBackend" in message
            assert "flush" in message and "power_cycle" in message
        finally:
            del _BACKEND_FACTORIES["broken"]

    def test_unknown_platform_rejected(self):
        with pytest.raises(ValueError):
            Machine("not-a-platform")

    def test_attach_backend_rewires_sng_and_stats(self):
        workload = load_workload("aes", refs=800)
        machine = Machine.for_workload("lightpc", workload)
        old_sng = machine.sng
        replacement = PSM(machine.config.psm_config())
        machine.attach_backend(replacement)
        assert machine.backend is replacement
        assert machine.complex.backend is replacement
        assert machine.sng is not None and machine.sng is not old_sng
        assert machine.sng.port is replacement
        machine.run(workload)
        assert machine.stats.flat()        # stats re-registered and live

    def test_attach_volatile_backend_drops_sng(self):
        workload = load_workload("aes", refs=800)
        machine = Machine.for_workload("lightpc", workload)
        machine.attach_backend(DRAMSubsystem(DRAMConfig(capacity=1 << 26)))
        assert machine.sng is None

    def test_stats_tree_schema_uniform_across_platforms(self):
        workload = load_workload("aes", refs=800)
        trees = {}
        for platform in ("legacy", "lightpc_b", "lightpc"):
            machine = Machine.for_workload(platform, workload)
            machine.run(workload)
            trees[platform] = machine.stats_tree()
        for platform, tree in trees.items():
            assert sorted(tree) == ["cpu", "memory", "platform"]
            assert tree["platform"] == platform
            assert sorted(tree["cpu"]) == [f"core{i}" for i in range(8)]
        # both PSM generations expose identical memory schemas
        def schema(node, prefix=""):
            if not isinstance(node, dict):
                return {prefix}
            out = set()
            for key, value in node.items():
                out |= schema(value, f"{prefix}.{key}" if prefix else key)
            return out

        assert schema(trees["lightpc"]["memory"]) == \
            schema(trees["lightpc_b"]["memory"])

    def test_run_result_carries_stats_snapshot(self):
        workload = load_workload("aes", refs=800)
        machine = Machine.for_workload("lightpc", workload)
        result = machine.run(workload)
        assert result.stats["memory"]["read"]["count"] > 0

    def test_cli_stats_subcommand(self, capsys):
        from repro.cli import main

        assert main(["stats", "--workload", "aes", "--refs", "500",
                     "--json"]) == 0
        import json

        tree = json.loads(capsys.readouterr().out)
        assert tree["platform"] == "lightpc"
        assert "memory" in tree and "cpu" in tree


class TestFaultInjectorBoundaries:
    """Served-prefix accounting at the off-by-one edges — a cut
    scheduled at op 0 and exactly at the ends of an operation stream."""

    def _injector(self, crash_at, **kwargs):
        return FaultInjector(_psm(), crash_at_op=crash_at, **kwargs)

    def test_crash_at_op_zero_serves_nothing(self):
        port = self._injector(0)
        with pytest.raises(InjectedPowerFailure):
            port.access(MemoryRequest(MemoryOp.WRITE, 0,
                                      data=b"\x07" * 64, time=0.0))
        assert port.tripped and port.op_index == 0
        # nothing reached the backend: the line still reads as initial
        response = port.access(MemoryRequest(MemoryOp.READ, 0, time=0.0))
        assert not response.data or not any(response.data)

    def test_crash_at_op_zero_in_batch_serves_nothing(self):
        port = self._injector(0)
        requests = [MemoryRequest(MemoryOp.WRITE, i * 64,
                                  data=bytes([i + 1]) * 64, time=0.0)
                    for i in range(6)]
        with pytest.raises(InjectedPowerFailure):
            default_access_batch(port, requests)
        assert port.op_index == 0 and port.tripped
        # nothing reached the backend: every line still reads as initial
        for request in requests:
            response = port.access(MemoryRequest(
                MemoryOp.READ, request.address, time=0.0))
            assert not response.data or not any(response.data)

    def test_drains_are_free_by_default_but_schedulable(self):
        free = self._injector(1)
        free.access(MemoryRequest(MemoryOp.WRITE, 0, data=b"\x01" * 64,
                                  time=0.0))
        free.drain(0.0)                 # not an op: no trip
        assert free.op_index == 1 and not free.tripped

        counted = self._injector(1, count_drains=True)
        counted.access(MemoryRequest(MemoryOp.WRITE, 0, data=b"\x01" * 64,
                                     time=0.0))
        with pytest.raises(InjectedPowerFailure):
            counted.drain(0.0)          # the fence is the crashed op
        assert counted.tripped and counted.op_index == 1


class TestWearRegisterRoundTripUnderChain:
    """Satellite: ``power_cycle`` + ``restore_wear_registers`` through a
    full FaultInjector -> Partition -> FaultInjector chain must round-trip
    the wear state and keep the stats tree shape intact."""

    LINES_PER_REGION = 1 << 9

    def _chain(self):
        def region_psm():
            # a low wear threshold so the Start-Gap mapping actually
            # moves during the test and the capture carries real state
            return FaultInjector(PSM(PSMConfig(
                dimms=2, lines_per_dimm=self.LINES_PER_REGION,
                wear_threshold=8), functional=True))

        span = 2 * self.LINES_PER_REGION * 64
        partition = AddressRangePartition([
            AddressRange(0, span, region_psm()),
            AddressRange(span, 2 * span, region_psm()),
        ])
        return FaultInjector(partition)

    def _write_both_regions(self, chain, count=64):
        span = 2 * self.LINES_PER_REGION * 64
        t = 0.0
        for i in range(count):
            for base in (0, span):
                response = chain.access(MemoryRequest(
                    MemoryOp.WRITE, base + (i % 128) * 64,
                    data=bytes([1 + i % 200]) * 64, time=t))
                t = response.complete_time
        return chain.flush(t)

    def test_wear_state_round_trips(self):
        chain = self._chain()
        self._write_both_regions(chain)
        committed = chain.capture_registers()

        chain.power_cycle()
        # the cycle reset the volatile wear registers: a fresh capture
        # differs until the EP-cut state is restored
        assert chain.capture_registers() != committed
        chain.restore_wear_registers(committed)
        assert chain.capture_registers() == committed

    def test_flushed_data_survives_cycle_after_restore(self):
        chain = self._chain()
        end = self._write_both_regions(chain)
        expected = {}
        span = 2 * self.LINES_PER_REGION * 64
        for base in (0, span):
            for i in range(8):
                address = base + i * 64
                data = chain.access(MemoryRequest(
                    MemoryOp.READ, address, time=end)).data
                expected[address] = bytes(data) if data else None
        committed = chain.capture_registers()
        chain.power_cycle()
        chain.restore_wear_registers(committed)
        for address, data in expected.items():
            observed = chain.access(MemoryRequest(
                MemoryOp.READ, address, time=end)).data
            assert (bytes(observed) if observed else None) == data, \
                f"address {address:#x} diverged across the cycle"

    def test_stats_tree_shape_is_identical_across_cycle(self):
        chain = self._chain()
        self._write_both_regions(chain)
        before = StatsRegistry()
        chain.register_stats(before.scoped("memory"))
        keys_before = set(before.flat())
        assert keys_before  # the chain registered something

        committed = chain.capture_registers()
        chain.power_cycle()
        chain.restore_wear_registers(committed)

        after = StatsRegistry()
        chain.register_stats(after.scoped("memory"))
        assert set(after.flat()) == keys_before
        # the already-registered registry stays live across the cycle
        assert set(before.flat()) == keys_before
