"""Integration tests for the Machine (platform life cycle)."""

import gc
import weakref

import pytest

from repro.core import Machine, PlatformConfig
from repro.pecos import Kernel
from repro.power.psu import ATX_PSU, SERVER_PSU
from repro.workloads import load_workload


@pytest.fixture(scope="module")
def workload():
    return load_workload("aes", refs=4000)


class TestBuild:
    def test_unknown_platform_rejected(self):
        with pytest.raises(ValueError):
            Machine("pentium")

    def test_legacy_uses_dram(self):
        from repro.memory import DRAMSubsystem
        assert isinstance(Machine("legacy").backend, DRAMSubsystem)
        assert Machine("legacy").sng is None

    def test_lightpc_uses_psm(self):
        from repro.ocpmem import PSM
        machine = Machine("lightpc")
        assert isinstance(machine.backend, PSM)
        assert machine.backend.config.ecc_reconstruction
        assert machine.sng is not None

    def test_lightpc_b_disables_psm_features(self):
        machine = Machine("lightpc_b")
        assert not machine.backend.config.ecc_reconstruction
        assert not machine.backend.config.write_aggregation

    def test_for_workload_sizes_memory(self):
        big = load_workload("redis", refs=100)
        machine = Machine.for_workload("lightpc", big)
        footprint = big.spec.profile.working_set_lines * 64 * big.threads
        assert machine.backend.capacity >= footprint

    def test_sized_for_is_idempotent_when_large_enough(self):
        config = PlatformConfig()
        assert config.sized_for(1024) is config


class TestRun(object):
    def test_run_produces_result(self, workload):
        machine = Machine.for_workload("lightpc", workload)
        result = machine.run(workload)
        assert result.platform == "lightpc"
        assert result.workload == "aes"
        assert result.wall_ns > 0
        assert 0 < result.ipc < 4
        assert result.total_w > 0
        assert 0 <= result.cache_read_hit <= 1

    def test_kernel_noise_adds_traffic(self, workload):
        noisy = Machine.for_workload("lightpc", workload)
        noisy.run(workload)
        quiet_config = PlatformConfig(kernel_noise=False)
        quiet = Machine.for_workload("lightpc", workload, quiet_config)
        quiet.run(workload)
        noisy_refs = sum(
            s.reads + s.writes for s in noisy.runs[0].complex_result.per_core)
        quiet_refs = sum(
            s.reads + s.writes for s in quiet.runs[0].complex_result.per_core)
        assert noisy_refs > quiet_refs

    def test_later_run_leaves_an_earlier_result_alone(self):
        small = load_workload("aes", refs=500)
        machine = Machine.for_workload("lightpc", small)
        first = machine.run(small)
        per_core = [stats.as_dict() for stats in first.complex_result.per_core]
        ipc = first.ipc
        assert per_core[0]["instructions"] == 4305
        assert round(ipc, 3) == 0.192
        machine.run(small)
        assert [stats.as_dict()
                for stats in first.complex_result.per_core] == per_core
        assert first.ipc == ipc

    def test_power_platforms_differ(self, workload):
        legacy = Machine.for_workload("legacy", workload)
        light = Machine.for_workload("lightpc", workload)
        lw = legacy.run(workload).total_w
        pw = light.run(workload).total_w
        assert pw < lw * 0.45


class TestPowerFailure:
    def test_lightpc_survives_atx(self, workload):
        machine = Machine.for_workload("lightpc", workload)
        machine.run(workload)
        outcome = machine.power_fail(ATX_PSU)
        assert outcome.survived
        assert outcome.stop is not None
        assert outcome.margin_ns > 0

    def test_legacy_loses_dram(self, workload):
        machine = Machine.for_workload("legacy", workload)
        machine.run(workload)
        outcome = machine.power_fail(ATX_PSU)
        assert not outcome.survived
        assert "DRAM" in outcome.lost

    def test_run_while_off_rejected(self, workload):
        machine = Machine.for_workload("lightpc", workload)
        machine.run(workload)
        machine.power_fail(ATX_PSU)
        with pytest.raises(RuntimeError):
            machine.run(workload)

    def test_double_power_fail_rejected(self, workload):
        machine = Machine.for_workload("lightpc", workload)
        machine.power_fail(ATX_PSU)
        with pytest.raises(RuntimeError):
            machine.power_fail(ATX_PSU)

    def test_recover_resumes_lightpc(self, workload):
        machine = Machine.for_workload("lightpc", workload)
        machine.run(workload)
        machine.power_fail(SERVER_PSU)
        go = machine.recover()
        assert go.warm
        assert machine.sng.verify_resumed_state()
        # machine is usable again
        result = machine.run(workload)
        assert result.wall_ns > 0

    def test_recover_cold_boots_legacy(self, workload):
        machine = Machine.for_workload("legacy", workload)
        machine.run(workload)
        machine.power_fail(ATX_PSU)
        assert machine.recover() is None
        assert machine.kernel.task_count() > 0

    def test_recover_while_on_rejected(self, workload):
        machine = Machine.for_workload("lightpc", workload)
        with pytest.raises(RuntimeError):
            machine.recover()


class TestFunctionalCrashConsistency:
    def test_flushed_data_survives_power_fail(self):
        from repro.memory import MemoryOp, MemoryRequest
        workload = load_workload("aes", refs=200)
        machine = Machine.for_workload("lightpc", workload, functional=True)
        payload = bytes(range(64))
        machine.backend.access(MemoryRequest(
            MemoryOp.WRITE, address=0, data=payload, time=0.0))
        machine.power_fail(ATX_PSU)  # SnG hits the flush port
        machine.recover()
        read = machine.backend.access(MemoryRequest(
            MemoryOp.READ, address=0, time=0.0))
        assert read.data == payload

    def test_wear_registers_survive_ep_cut(self):
        workload = load_workload("aes", refs=200)
        machine = Machine.for_workload("lightpc", workload, functional=True)
        from repro.memory import MemoryOp, MemoryRequest
        for i in range(120):
            machine.backend.access(MemoryRequest(
                MemoryOp.WRITE, address=(i % 5) * 64, time=i * 30.0))
        before = machine.backend.wear.registers()
        machine.power_fail(ATX_PSU)
        machine.recover()
        after = machine.backend.wear.registers()
        assert after.write_count == before.write_count
        assert after.start == before.start and after.gap == before.gap


class TestWearRegisterVolatility:
    def test_power_cycle_without_ep_cut_loses_wear_registers(self):
        """Without SnG's EP-cut, the PSM's wear registers reset — and the
        Start-Gap mapping with them (paper §VIII motivates persisting
        them)."""
        from repro.memory import MemoryOp, MemoryRequest
        from repro.ocpmem import PSM, PSMConfig

        psm = PSM(PSMConfig(lines_per_dimm=512), functional=True)
        for i in range(250):  # enough writes to move the gap
            psm.access(MemoryRequest(
                MemoryOp.WRITE, address=(i % 9) * 64, time=i * 20.0))
        before = psm.wear.registers()
        assert before.gap_moves if hasattr(before, "gap_moves") else True
        psm.power_cycle()  # no SnG capture: raw power loss
        after = psm.wear.registers()
        assert after.write_count == 0
        assert after.start == 0

    def test_capture_restore_roundtrip(self):
        from repro.memory import MemoryOp, MemoryRequest
        from repro.ocpmem import PSM, PSMConfig

        psm = PSM(PSMConfig(lines_per_dimm=512))
        for i in range(250):
            psm.access(MemoryRequest(
                MemoryOp.WRITE, address=(i % 9) * 64, time=i * 20.0))
        blob = psm.capture_registers()
        before = psm.wear.registers()
        psm.power_cycle()
        psm.restore_wear_registers(blob)
        assert psm.wear.registers() == before


class TestRepeatedPowerCycles:
    def test_ten_outage_soak(self):
        """The platform survives repeated outage/recovery cycles; wear
        bookkeeping accumulates monotonically across all of them."""
        from repro.workloads import load_workload

        workload = load_workload("aes", refs=1_500)
        machine = Machine.for_workload("lightpc", workload)
        last_writes = -1
        for cycle in range(10):
            result = machine.run(workload)
            assert result.wall_ns > 0
            outcome = machine.power_fail(ATX_PSU)
            assert outcome.survived, f"cycle {cycle} missed the window"
            go = machine.recover()
            assert go.warm and machine.sng.verify_resumed_state()
            writes = machine.backend.wear.write_count
            assert writes > last_writes
            last_writes = writes

    def test_cache_dump_writes_back_through_the_ep_cut(self):
        """Data living only in a dirty CPU cacheline at the cut must be
        readable from OC-PMEM after recovery (SnG's cache dump)."""
        from repro.memory import MemoryOp, MemoryRequest
        from repro.workloads import load_workload

        workload = load_workload("aes", refs=200)
        machine = Machine.for_workload("lightpc", workload, functional=True)
        core = machine.complex.cores[0]
        # a store that stays dirty in the D$ (no eviction pressure)
        payload_address = 0x2000
        core.cache.access(payload_address, is_write=True)
        machine.backend.access(MemoryRequest(
            MemoryOp.WRITE, address=payload_address,
            data=b"\x7E" * 64, time=0.0))
        # the line is dirty in core 0's cache at the power event
        assert core.cache.dirty_count() >= 1
        machine.power_fail(ATX_PSU)
        assert core.cache.dirty_count() == 0  # dumped at the cut
        machine.recover()
        read = machine.backend.access(MemoryRequest(
            MemoryOp.READ, address=payload_address, time=0.0))
        assert read.data == b"\x7E" * 64


class TestFreedByReferenceCounting:
    """A discarded machine and a reset-away task tree sit in no
    reference cycle, so reference counting frees them at once and peak
    memory follows live data, not when the cyclic collector runs."""

    @pytest.fixture(autouse=True)
    def collector_off(self):
        enabled = gc.isenabled()
        gc.disable()
        yield
        if enabled:
            gc.enable()

    @pytest.mark.parametrize("platform", ["legacy", "lightpc_b", "lightpc"])
    def test_discarded_machine_is_freed(self, workload, platform):
        machine = Machine.for_workload(platform, workload)
        machine.run(workload)
        freed = [weakref.ref(machine), weakref.ref(machine.kernel.init_task)]
        del machine
        assert [ref() for ref in freed] == [None, None]

    @pytest.mark.parametrize("platform", ["lightpc_b", "lightpc"])
    def test_discarded_functional_machine_is_freed(self, workload, platform):
        """A functional PSM's Start-Gap moves lines through a weak
        reference back to its PSM, so the PSM is no cycle either."""
        machine = Machine.for_workload(platform, workload, functional=True)
        machine.run(workload)
        machine.power_fail(ATX_PSU)
        machine.recover()
        assert machine.sng.verify_resumed_state()
        freed = [weakref.ref(machine), weakref.ref(machine.backend),
                 weakref.ref(machine.backend.wear)]
        del machine
        assert [ref() for ref in freed] == [None, None, None]

    def test_warm_crash_trials_leave_no_cyclic_garbage(self, tmp_path,
                                                       monkeypatch):
        """Pooled trace trials: what each reset discards (the backend,
        the engine, the SnG, the task tree) dies by reference counting."""
        import random

        from repro.analysis.crashfuzz import (
            materialize_fuzz_trace,
            trace_trial,
        )
        from repro.orchestrate import pool as pool_module
        from repro.orchestrate.pool import MachinePool
        from repro.workloads.trace_io import open_trace

        pool = MachinePool()
        monkeypatch.setattr(pool_module, "_MACHINE_POOL", pool)
        path = str(materialize_fuzz_trace("aes", 6_000, 42, tmp_path))
        try:
            trace_trial(0, random.Random(0), trace_path=path)  # the build
            gc.collect()
            for trial in range(32):
                outcome = trace_trial(trial, random.Random(trial),
                                      trace_path=path)
                assert outcome.violations == []
            assert (pool.built, pool.reused) == (1, 32)
            assert gc.collect() == 0
        finally:
            open_trace(path).close()

    def test_reset_world_frees_the_old_task_tree(self):
        kernel = Kernel()
        kernel.populate()
        tasks = [weakref.ref(task) for task in kernel.all_tasks()]
        kernel.reset_world()
        assert tasks and all(task() is None for task in tasks)
